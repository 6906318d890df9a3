package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"gemstone"
)

// The detailed tier and the atomic tier are both deterministic, so every
// run set the paper workloads collect has a fixed canonical archive. The
// digests below are those archives' SHA-256 on the reference
// implementation; a run whose archive differs produced wrong output.
var goldenDigests = map[string]string{
	// paper-cold, phase 1 (and, byte for byte, its phase-2 replays).
	"hw-validation": "81d8042964bc145e07c2f5192fe723299ea322ea3537481affd412462ac4d6b8",
	"gem5-v1":       "af1e8fd524bbd7c722bf2cefb0b8233e4a0996e2f4f6b410e635efddb7ef0f02",
	"hw-power":      "5085555a40696d3e39bd554250cbb09c3b800b391eddb7361600ae7ff93e3aed",
	// paper-cold, phase 2: every analysis result, encoded by
	// jsonDigestBytes.
	"paper-analyses": "a5ce0fc700a624eb6e9d1070baa6ecfd21ef7e0fea7bed339c7092400c64b4be",
	// atomic-screen: the merged mixed-fidelity run sets.
	"screen-hw":  "45a5868cb5eddd0c8e957b2bb92150f89fb3e91cb739c1758677ac83a37ce382",
	"screen-sim": "27cbae11f7b6e42df3735c2f8db10ee9926233a1a72599861cee55577fad46f9",
	// atomic-screen: the analyses of the screened run sets, encoded by
	// jsonDigestBytes.
	"screen-analyses": "6c9502dce10209a41ee7a267f58a7b179a26b110bcd1b62b922a637c087c3148",
}

// detailedMAPE is the golden-pinned detailed tier's Table-1 execution
// time MAPE of gem5 v1 against the hardware, per cluster, in percent: the
// reference the atomic tier's accuracy is measured against.
var detailedMAPE = map[string]float64{
	gemstone.ClusterA15: 64.62435000168598,
	gemstone.ClusterA7:  15.137926001450465,
}

// screenFlagged is the number of points the default screen flags.
const screenFlagged = 40

// archive returns the canonical archive of a run set.
func archive(rs *gemstone.RunSet) ([]byte, error) {
	var buf bytes.Buffer
	if err := gemstone.SaveRunSet(&buf, rs); err != nil {
		return nil, fmt.Errorf("archive %s: %w", rs.Platform, err)
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares an output's digest with its golden value.
func checkDigest(name string, b []byte) error {
	want, ok := goldenDigests[name]
	if !ok {
		return fmt.Errorf("no golden digest for %s", name)
	}
	if got := digest(b); got != want {
		return fmt.Errorf("%s: digest %s, want %s", name, got, want)
	}
	return nil
}

// checkIdentical reports whether a replayed archive equals the original
// byte for byte.
func checkIdentical(name string, original, replay []byte) error {
	if !bytes.Equal(original, replay) {
		return fmt.Errorf("%s: replay archive (%d bytes, %s) differs from the original (%d bytes, %s)",
			name, len(replay), digest(replay), len(original), digest(original))
	}
	return nil
}

// jsonDigestBytes canonicalises analysis results for digesting: JSON
// with every number rounded to 12 significant digits. The rounding
// absorbs last-bit differences between calls — Fig 8's scaling analyses
// sum floats in map order — while any real change to a figure still
// changes the digest.
func jsonDigestBytes(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode analyses: %w", err)
	}
	var doc any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode analyses: %w", err)
	}
	b, err = json.Marshal(roundNumbers(doc))
	if err != nil {
		return nil, fmt.Errorf("encode analyses: %w", err)
	}
	return b, nil
}

func roundNumbers(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = roundNumbers(e)
		}
	case []any:
		for i, e := range x {
			x[i] = roundNumbers(e)
		}
	case json.Number:
		f, err := x.Float64()
		if err != nil {
			return x
		}
		return json.Number(strconv.FormatFloat(f, 'g', 12, 64))
	}
	return v
}
