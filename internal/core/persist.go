package core

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"gemstone/internal/platform"
)

// Run-set persistence: a measurement campaign (Experiments 1-4) can be
// archived and re-analysed later without re-running any simulation — the
// repository analogue of the paper's released experimental datasets
// (DOI 10.5258/SOTON/D0420). The format is gzip-compressed gob of the
// RunSet with a small versioned envelope.
//
// The encoding is canonical: runs are serialised as a slice sorted by
// (workload, cluster, frequency), never as a Go map, so the same RunSet
// always produces the same bytes. That makes archives diffable and
// content-hashable, and it is what lets the determinism test compare a
// parallel collection against a sequential one byte-for-byte.

// runSetFormatVersion 2 replaced the version-1 map encoding with the
// canonical sorted-slice encoding.
const runSetFormatVersion = 2

// runRecord is one archived measurement.
type runRecord struct {
	Key RunKey
	M   platform.Measurement
}

type runSetEnvelope struct {
	Version  int
	Platform string
	// Records is the canonical sorted run list (format version 2).
	Records []runRecord
	// Runs carries legacy version-1 archives (map-encoded RunSet).
	Runs *RunSet
}

// sortedRecords returns the run set's canonical record order.
func sortedRecords(rs *RunSet) []runRecord {
	recs := make([]runRecord, 0, len(rs.Runs))
	for _, k := range rs.sortedKeys() {
		recs = append(recs, runRecord{Key: k, M: rs.Runs[k]})
	}
	return recs
}

// SaveRunSet archives a run set to w. The output is deterministic: the
// same runs produce the same bytes regardless of how (or in what order)
// they were collected.
func SaveRunSet(w io.Writer, rs *RunSet) error {
	if rs == nil || len(rs.Runs) == 0 {
		return fmt.Errorf("core: refusing to save an empty run set")
	}
	zw := gzip.NewWriter(w)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(runSetEnvelope{
		Version:  runSetFormatVersion,
		Platform: rs.Platform,
		Records:  sortedRecords(rs),
	}); err != nil {
		return fmt.Errorf("core: encoding run set: %w", err)
	}
	return zw.Close()
}

// LoadRunSet restores a run set saved by SaveRunSet. It reads both the
// current canonical format and legacy version-1 archives. Malformed input
// of any kind — truncation, corruption, or bytes that were never an
// archive — returns an error, never a panic.
func LoadRunSet(r io.Reader) (*RunSet, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("core: opening run-set archive: %w", err)
	}
	defer zr.Close()
	var env runSetEnvelope
	if err := gob.NewDecoder(zr).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decoding run set: %w", err)
	}
	// Drain to EOF so the gzip CRC covering the whole archive is checked;
	// truncation and bit rot surface here as errors, not as silent data.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, fmt.Errorf("core: verifying run-set archive: %w", err)
	}
	switch env.Version {
	case 1:
		if env.Runs == nil || len(env.Runs.Runs) == 0 {
			return nil, fmt.Errorf("core: archive contains no runs")
		}
		return env.Runs, nil
	case runSetFormatVersion:
		if len(env.Records) == 0 {
			return nil, fmt.Errorf("core: archive contains no runs")
		}
		rs := &RunSet{Platform: env.Platform, Runs: make(map[RunKey]platform.Measurement, len(env.Records))}
		for _, rec := range env.Records {
			rs.Runs[rec.Key] = rec.M
		}
		return rs, nil
	default:
		return nil, fmt.Errorf("core: unsupported run-set version %d", env.Version)
	}
}
