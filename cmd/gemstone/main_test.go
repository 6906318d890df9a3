package main

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"gemstone/internal/core"
	"gemstone/internal/platform"
)

// TestProgressObserverReachesTotalWithErrors is the regression test for
// RunError: failed runs must advance the progress count, so a campaign
// with failures still reports N/N instead of stalling short.
func TestProgressObserverReachesTotalWithErrors(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressObserver(slog.New(slog.NewTextHandler(&buf, nil)))
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	key := core.RunKey{Workload: "w", Cluster: "a15", FreqMHz: 1000}
	p.CollectStart("odroid-xu3", 4)
	now = now.Add(2 * time.Second)
	p.RunDone(key, platform.Measurement{}, time.Second)
	p.RunError(key, errors.New("boom"))
	now = now.Add(2 * time.Second)
	p.CacheHit(key)
	p.RunDone(key, platform.Measurement{}, time.Second)

	out := buf.String()
	if !strings.Contains(out, "done=4") || !strings.Contains(out, "total=4") {
		t.Fatalf("progress never reached 4/4 — RunError must step:\n%s", out)
	}
	if !strings.Contains(out, "run failed") || !strings.Contains(out, "boom") {
		t.Fatalf("missing failure line:\n%s", out)
	}
}

// TestProgressObserverRateAndETA pins the throughput figures: two runs
// done two seconds in is 1.0 runs/sec, leaving a 2s ETA for the rest.
func TestProgressObserverRateAndETA(t *testing.T) {
	var buf bytes.Buffer
	p := newProgressObserver(slog.New(slog.NewTextHandler(&buf, nil)))
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	key := core.RunKey{Workload: "w", Cluster: "a15", FreqMHz: 1000}
	p.CollectStart("odroid-xu3", 4)
	now = now.Add(2 * time.Second)
	p.RunDone(key, platform.Measurement{}, time.Second)
	p.RunDone(key, platform.Measurement{}, time.Second)

	out := buf.String()
	if !strings.Contains(out, "runs_per_sec=1.0") {
		t.Fatalf("missing runs_per_sec=1.0:\n%s", out)
	}
	if !strings.Contains(out, "eta=2s") {
		t.Fatalf("missing eta=2s:\n%s", out)
	}
}

// TestModelcheckPass runs the Section VII gate on a trimmed suite with
// loose bounds: it must print the validation summary and PASS, exit 0.
func TestModelcheckPass(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := modelcheckMain([]string{"-workloads", "2", "-max-mape", "1000", "-max-abs-mpe", "1000"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "=== modelcheck gem5 v1") || !strings.Contains(out, "PASS: within bounds") {
		t.Fatalf("missing summary or verdict:\n%s", out)
	}
}

// TestModelcheckFail pins the gate's failure path: a zero MAPE bound
// trips, the verdict goes to stdout and the exit status is 1.
func TestModelcheckFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := modelcheckMain([]string{"-workloads", "2", "-max-mape", "0"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "FAIL: MAPE") || strings.Contains(out, "PASS") {
		t.Fatalf("want a MAPE FAIL verdict and no PASS:\n%s", out)
	}
}

// TestUsageErrors pins exit status 2, an empty stdout and a named cause
// for every rejected invocation — before any simulation starts. A bad
// -version used to fall back to V1 silently and an unknown analysis name
// used to run the whole campaign and print nothing.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		main func(args []string, stdout, stderr io.Writer) int
		args []string
		want string
	}{
		{"pipeline version", run, []string{"-version", "3"}, "unknown gem5 version 3"},
		{"pipeline analysis", run, []string{"-analyses", "validate,fig9"}, "valid: all,none,validate,fig3"},
		{"pipeline cluster", run, []string{"-cluster", "m7", "-analyses", "fig4"}, `unknown cluster "m7"`},
		{"pipeline flag", run, []string{"-bogus"}, "flag provided but not defined"},
		{"modelcheck version", modelcheckMain, []string{"-version", "3"}, "unknown gem5 version 3"},
		{"modelcheck log format", modelcheckMain, []string{"-log-format", "xml"}, "unknown log format"},
		{"eventdiag version", eventdiagMain, []string{"-version", "0"}, "unknown gem5 version 0"},
		{"powmon flag", powmonMain, []string{"-bogus"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := tc.main(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, &stderr)
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout:\n%s", &stdout)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, &stderr)
			}
		})
	}
}

// TestFig4RunsNoCampaign pins that -analyses fig4 prints the Fig. 4
// latency curves without collecting a single run: no campaign is logged
// and no campaign total is reported.
func TestFig4RunsNoCampaign(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyses", "fig4", "-cluster", "a7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, &stderr)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "=== Fig. 4") || !strings.Contains(out, "hw-a7") || !strings.Contains(out, "gem5-a7") {
		t.Fatalf("missing A7 Fig. 4 curves:\n%s", out)
	}
	if errOut := stderr.String(); strings.Contains(errOut, "collecting") || strings.Contains(errOut, "campaigns total") {
		t.Fatalf("fig4 alone ran a campaign:\n%s", errOut)
	}
}
