package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"

	"gemstone"
	"gemstone/internal/gem5"
	"gemstone/internal/obs"
	"gemstone/internal/report"
)

// tools are the single-purpose subcommands, run as `gemstone <name>
// [flags]`. Each returns the process exit status.
var tools = map[string]func(args []string, stdout, stderr io.Writer) int{
	"powmon":     powmonMain,
	"eventdiag":  eventdiagMain,
	"modelcheck": modelcheckMain,
}

// flagExit maps a flag-parse error onto an exit status: -h is a success,
// anything else a usage error.
func flagExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// parseVersion validates the -version flag (1|2).
func parseVersion(v int) (gem5.Version, error) {
	if v != int(gemstone.V1) && v != int(gemstone.V2) {
		return 0, fmt.Errorf("unknown gem5 version %d (want 1|2)", v)
	}
	return gem5.Version(v), nil
}

// checkCluster validates the -cluster flag (a7|a15).
func checkCluster(name string) error {
	if name != gemstone.ClusterA7 && name != gemstone.ClusterA15 {
		return fmt.Errorf("unknown cluster %q (want a7|a15)", name)
	}
	return nil
}

// parsePool maps the -pool flag onto a power-model candidate pool:
// restricted (gem5-compatible events) or full.
func parsePool(name string) ([]gemstone.PMUEvent, error) {
	switch name {
	case "restricted":
		return gemstone.RestrictedPool(), nil
	case "full":
		return gemstone.DefaultPool(), nil
	}
	return nil, fmt.Errorf("unknown pool %q (want restricted|full)", name)
}

// characterisePower runs Experiments 3/4 — every workload (including the
// Longbottom/LMbench stressors) at every DVFS point of the cluster, with
// power sensing — and fits a power model to them.
func characterisePower(cluster string, opt gemstone.PowerBuildOptions) (*gemstone.RunSet, *gemstone.PowerModel, error) {
	runs, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), gemstone.CollectOptions{
		Workloads: gemstone.Workloads(),
		Clusters:  []string{cluster},
	})
	if err != nil {
		return nil, nil, err
	}
	model, err := gemstone.BuildPowerModel(runs, cluster, opt)
	return runs, model, err
}

// powmonMain is `gemstone powmon`: it builds and validates the empirical
// PMC-based power model of the paper's Section V — characterises the
// cluster's power, selects PMC events with constrained forward-stepwise
// regression, fits the model, reports its quality statistics and prints
// the run-time power equation that can be inserted into gem5.
//
// Usage:
//
//	gemstone powmon [-cluster a15|a7] [-pool restricted|full] [-maxevents N]
func powmonMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemstone powmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cluster := fs.String("cluster", gemstone.ClusterA15, "cluster to model (a7|a15)")
	pool := fs.String("pool", "restricted", "candidate event pool: restricted (gem5-compatible) or full")
	maxEvents := fs.Int("maxevents", 0, "cap on selected events (0 = p-value rule only)")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	lg := log.New(stderr, "powmon: ", 0)
	fatal := func(err error) int {
		lg.Print(err)
		return 1
	}

	opt := gemstone.PowerBuildOptions{MaxEvents: *maxEvents}
	var err error
	if opt.Pool, err = parsePool(*pool); err != nil {
		return fatal(err)
	}
	lg.Printf("characterising %s power across %d workloads x %d DVFS points...",
		*cluster, len(gemstone.Workloads()), len(gemstone.ExperimentFrequencies(*cluster)))
	_, model, err := characterisePower(*cluster, opt)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprint(stdout, report.PowerModel(model))
	fmt.Fprintln(stdout, "\nmodel form:")
	fmt.Fprintln(stdout, "  "+model.String())
	fmt.Fprintln(stdout, "\nrun-time gem5 power equation:")
	fmt.Fprintln(stdout, "  "+model.Equation(gemstone.DefaultMapping()))
	return 0
}

// eventdiagMain is `gemstone eventdiag`: for each event of a power model
// it reports how accurately the gem5 model reproduces the hardware PMC
// rate — the per-event rate/total MAPEs of the paper's Fig. 7 legend —
// and which candidate events the automated Fig. 1 feedback loop would
// exclude from the selection pool (Section V's restriction step).
//
// Usage:
//
//	gemstone eventdiag [-cluster a15|a7] [-freq MHz] [-version 1|2] [-pool restricted|full]
func eventdiagMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemstone eventdiag", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cluster := fs.String("cluster", gemstone.ClusterA15, "cluster (a7|a15)")
	freq := fs.Int("freq", 1000, "comparison frequency in MHz")
	version := fs.Int("version", 1, "gem5 model version (1|2)")
	pool := fs.String("pool", "restricted", "candidate pool: restricted|full")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}
	lg := log.New(stderr, "eventdiag: ", 0)
	fatal := func(err error) int {
		lg.Print(err)
		return 1
	}

	ver, err := parseVersion(*version)
	if err != nil {
		lg.Print(err)
		return 2
	}
	opt := gemstone.PowerBuildOptions{}
	if opt.Pool, err = parsePool(*pool); err != nil {
		return fatal(err)
	}

	lg.Println("power characterisation (65 workloads)...")
	hwRuns, model, err := characterisePower(*cluster, opt)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "model: %s\n(training MAPE %.2f%%, adj R2 %.4f)\n\n",
		model.String(), model.Quality.MAPE, model.Quality.AdjR2)

	lg.Printf("running gem5 %v at %d MHz...", ver, *freq)
	simRuns, err := gemstone.Collect(context.Background(), gemstone.Gem5Platform(ver), gemstone.CollectOptions{
		Clusters: []string{*cluster}, Freqs: map[string][]int{*cluster: {*freq}}})
	if err != nil {
		return fatal(err)
	}

	mapping := gemstone.DefaultMapping()
	rel, err := gemstone.AssessEventReliability(hwRuns, simRuns, *cluster, *freq, mapping, model.Events)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "%-28s %12s %12s\n", "event", "rate MAPE", "total MAPE")
	for _, r := range rel {
		fmt.Fprintf(stdout, "%-28s %11.1f%% %11.1f%%\n", r.Event.String(), r.RateMAPE, r.TotalMAPE)
	}

	// The Fig. 1 feedback loop, automated: which candidates survive?
	kept, excluded, err := gemstone.DeriveEventRestraints(hwRuns, simRuns, *cluster, *freq,
		mapping, opt.Pool, 60)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "\nautomated restraints (rate MAPE > 60%% or unmappable): %d kept, %d excluded\n",
		len(kept), len(excluded))
	for _, e := range excluded {
		fmt.Fprintf(stdout, "  excluded: %s\n", e)
	}
	return 0
}

// modelcheckMain is `gemstone modelcheck`, the regression gate the paper
// motivates in Section VII: "a researcher would see very different
// results for their study depending on when they downloaded gem5 ...
// GemStone can be run after a change has been made to the simulator to
// verify the model behaviour against the HW reference (i.e. ensuring no
// major bugs have been introduced)."
//
// It validates a gem5 model version against the hardware reference and
// exits 1 if the execution-time error exceeds the given bounds, so it can
// gate a CI pipeline.
//
// Usage:
//
//	gemstone modelcheck [-cluster a15|a7] [-version 1|2]
//	                    [-max-mape pct] [-max-abs-mpe pct] [-workloads N]
//	                    [-log-format text|json]
//
// Example: `gemstone modelcheck -version 2 -max-mape 25 -max-abs-mpe 20`
// passes for the fixed model and fails (exit 1) for the buggy one. In CI,
// pass -log-format json for machine-readable progress lines; the
// PASS/FAIL verdict itself goes to stdout either way.
func modelcheckMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemstone modelcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cluster := fs.String("cluster", gemstone.ClusterA15, "cluster to validate (a7|a15)")
	version := fs.Int("version", 1, "gem5 model version (1|2)")
	maxMAPE := fs.Float64("max-mape", 25, "fail if MAPE exceeds this percentage")
	maxAbsMPE := fs.Float64("max-abs-mpe", 20, "fail if |MPE| exceeds this percentage")
	nWorkloads := fs.Int("workloads", 0, "limit to the first N validation workloads (0 = all)")
	logFormat := fs.String("log-format", obs.LogText, "log output format (text|json)")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "modelcheck:", err)
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		return usage(err)
	}
	ver, err := parseVersion(*version)
	if err != nil {
		return usage(err)
	}
	fatal := func(err error) int {
		logger.Error("modelcheck failed", "err", err)
		return 1
	}

	profiles := gemstone.ValidationWorkloads()
	if *nWorkloads > 0 && *nWorkloads < len(profiles) {
		profiles = profiles[:*nWorkloads]
	}
	opt := gemstone.CollectOptions{Workloads: profiles, Clusters: []string{*cluster}}

	logger.Info("validating gem5 against the hardware reference",
		"version", fmt.Sprint(ver), "cluster", *cluster)
	hwRuns, err := gemstone.Collect(context.Background(), gemstone.HardwarePlatform(), opt)
	if err != nil {
		return fatal(err)
	}
	simRuns, err := gemstone.Collect(context.Background(), gemstone.Gem5Platform(ver), opt)
	if err != nil {
		return fatal(err)
	}
	vs, err := gemstone.Validate(hwRuns, simRuns, *cluster)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprint(stdout, report.ValidationSummary(fmt.Sprintf("modelcheck gem5 %v", ver), vs))

	ok := true
	if vs.MAPE > *maxMAPE {
		fmt.Fprintf(stdout, "FAIL: MAPE %.1f%% exceeds bound %.1f%%\n", vs.MAPE, *maxMAPE)
		ok = false
	}
	if abs := math.Abs(vs.MPE); abs > *maxAbsMPE {
		fmt.Fprintf(stdout, "FAIL: |MPE| %.1f%% exceeds bound %.1f%%\n", abs, *maxAbsMPE)
		ok = false
	}
	if !ok {
		return 1
	}
	fmt.Fprintf(stdout, "PASS: within bounds (MAPE <= %.1f%%, |MPE| <= %.1f%%)\n", *maxMAPE, *maxAbsMPE)
	return 0
}
