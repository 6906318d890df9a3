// Command gemstone runs the full GemStone pipeline: it characterises the
// reference hardware platform, runs the gem5 model simulations, identifies
// sources of error with the statistical analyses of the paper's Section
// IV, builds and applies empirical power models (Sections V/VI), and
// compares model versions (Section VII).
//
// Usage:
//
//	gemstone [flags]
//	gemstone serve [flags]       start the multi-tenant campaign service
//	                             (HTTP/JSON API; see serve.go for flags)
//	gemstone powmon [flags]      build & validate a power model, print the
//	                             gem5 power equation (Section V)
//	gemstone eventdiag [flags]   per-event gem5-vs-HW accuracy and the
//	                             automated selection restraints (Fig. 7)
//	gemstone modelcheck [flags]  CI gate: exit 1 when the model error
//	                             exceeds bounds (Section VII)
//
//	(the subcommand flags are documented in tools.go)
//
//	-cluster   a15|a7        cluster to analyse            (default a15)
//	-freq      MHz           analysis operating point      (default 1000)
//	-version   1|2           gem5 model version            (default 1)
//	-analyses  list          comma-separated subset of:
//	                         validate,fig3,fig4,fig5,gem5corr,regress,
//	                         fig6,power,fig7,fig8,versions,dendro,
//	                         consistency,workloads, or none
//	                         (default all); fig4 and workloads alone
//	                         run no campaign
//	-workloads N             limit to the first N validation workloads
//	-csvdir    dir           also write CSV artefacts into dir
//	-cachedir  dir           memoise runs in a persistent cache at dir;
//	                         re-invocations replay instead of re-simulating
//	-progress                log per-campaign progress while collecting
//	-validate                run invariant validators over every collected
//	                         measurement (counter conservation laws, DVFS
//	                         monotonicity, energy = power × time, ...)
//	-ledger    file          append a provenance manifest plus the campaign
//	                         results to this JSONL ledger (the experiment
//	                         flight recorder; compare runs with gemwatch)
//	-trace     file          write a Chrome trace-event JSON profile of
//	                         the campaigns (open in chrome://tracing or
//	                         ui.perfetto.dev); combined with -workers the
//	                         profile is fleet-wide — every worker's spans
//	                         are shipped back, clock-offset corrected and
//	                         stitched under the dispatching campaign span,
//	                         one process lane per worker
//	-metrics-addr host:port  serve Prometheus /metrics, /debug/pprof and
//	                         /healthz while running
//	-log-format text|json    structured-log output format (default text)
//	-workers   host:port,... distribute campaigns across these gemstoned
//	                         workers; when none answer, campaigns degrade
//	                         to local execution (identical results)
//
// Campaigns are cancellable: SIGINT stops the outstanding simulations and
// exits; with -cachedir the completed runs are kept, so rerunning resumes
// where the campaign stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gemstone"
	"gemstone/internal/core"
	"gemstone/internal/dist"
	"gemstone/internal/gem5"
	"gemstone/internal/ledger"
	"gemstone/internal/lmbench"
	"gemstone/internal/obs"
	"gemstone/internal/platform"
	"gemstone/internal/pmu"
	"gemstone/internal/report"
	"gemstone/internal/stats"
)

// progressObserver logs campaign progress at ~10% granularity — each line
// carrying the completion count, the measured run rate and the ETA — plus
// per-run failures and the final per-stage time report. All callbacks
// fire concurrently from campaign workers and serialise on mu.
type progressObserver struct {
	log *slog.Logger
	now func() time.Time // injectable clock for tests

	// violations, when set, is polled at CollectDone so the final summary
	// carries the invariant-validator tally next to the cache hit-rate.
	violations func() int

	mu    sync.Mutex
	total int
	done  int
	next  int // completion count at which to log the next line
	start time.Time
}

func newProgressObserver(log *slog.Logger) *progressObserver {
	return &progressObserver{log: log, now: time.Now}
}

func (p *progressObserver) CollectStart(platformName string, totalJobs int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.total = totalJobs
	p.done = 0
	p.next = (totalJobs + 9) / 10
	p.start = p.now()
	p.log.Info("campaign queued", "platform", platformName, "runs", totalJobs)
}

func (p *progressObserver) RunStart(core.RunKey) {}

// step advances the completion count and logs at the next 10% boundary.
// Callers hold p.mu.
func (p *progressObserver) step() {
	p.done++
	if p.done >= p.next {
		attrs := []any{"done", p.done, "total", p.total}
		if elapsed := p.now().Sub(p.start); elapsed > 0 {
			rate := float64(p.done) / elapsed.Seconds()
			attrs = append(attrs, "runs_per_sec", fmt.Sprintf("%.1f", rate))
			if rate > 0 {
				eta := time.Duration(float64(p.total-p.done)/rate) * time.Second
				attrs = append(attrs, "eta", eta.Round(time.Second).String())
			}
		}
		p.log.Info("progress", attrs...)
		p.next += (p.total + 9) / 10
	}
}

func (p *progressObserver) CacheHit(core.RunKey) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.step()
}

func (p *progressObserver) RunDone(core.RunKey, platform.Measurement, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.step()
}

func (p *progressObserver) RunError(key core.RunKey, err error) {
	// Failed runs count toward N/N like completed ones — without this the
	// progress line stalls short of the total on failing campaigns — and
	// the lock keeps the failure line ordered against step()'s output.
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log.Error("run failed", "key", key.String(), "err", err)
	p.step()
}

func (p *progressObserver) CollectDone(s core.CollectStats) {
	attrs := []any{"stats", s.String()}
	if s.Jobs > 0 {
		attrs = append(attrs, "cache_hit_rate",
			fmt.Sprintf("%.0f%%", 100*float64(s.CacheHits)/float64(s.Jobs)))
	}
	if p.violations != nil {
		attrs = append(attrs, "validator_violations", p.violations())
	}
	p.log.Info("campaign done", attrs...)
}

func main() {
	// Subcommand dispatch: `gemstone serve` starts the campaign service and
	// `gemstone powmon|eventdiag|modelcheck` run the single-purpose tools;
	// everything else is the classic one-shot flag-driven pipeline.
	if len(os.Args) > 1 {
		if os.Args[1] == "serve" {
			serveMain(os.Args[2:])
			return
		}
		if tool, ok := tools[os.Args[1]]; ok {
			os.Exit(tool(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// analysisNames is the -analyses vocabulary: "all" selects every
// analysis, "none" selects nothing (a -ledger or -validate run that
// renders no report).
var analysisNames = []string{"all", "none", "validate", "fig3", "fig4", "fig5", "gem5corr", "regress",
	"fig6", "power", "fig7", "fig8", "versions", "dendro", "consistency", "workloads"}

// parseAnalyses turns the -analyses list into a set, rejecting names
// outside analysisNames.
func parseAnalyses(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, a := range strings.Split(list, ",") {
		a = strings.TrimSpace(a)
		if !slices.Contains(analysisNames, a) {
			return nil, fmt.Errorf("unknown analysis %q (valid: %s)", a, strings.Join(analysisNames, ","))
		}
		want[a] = true
	}
	return want, nil
}

// needsRuns reports whether any requested analysis reads collected runs:
// Fig. 4 probes the cluster configurations directly and the workload
// table is static, so only those two run without a campaign.
func needsRuns(want map[string]bool) bool {
	for a := range want {
		if a != "none" && a != "fig4" && a != "workloads" {
			return true
		}
	}
	return false
}

// run is the one-shot pipeline; it returns the process exit status
// (0 success, 1 failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gemstone", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cluster := fs.String("cluster", gemstone.ClusterA15, "cluster to analyse (a7|a15)")
	freq := fs.Int("freq", 1000, "analysis frequency in MHz")
	version := fs.Int("version", 1, "gem5 model version (1|2)")
	analyses := fs.String("analyses", "all", "comma-separated analyses to run")
	nWorkloads := fs.Int("workloads", 0, "limit to the first N validation workloads (0 = all)")
	csvDir := fs.String("csvdir", "", "write CSV artefacts into this directory")
	statsDir := fs.String("statsdir", "", "dump one gem5 stats.txt per model run into this directory")
	cacheDir := fs.String("cachedir", "", "memoise runs in a persistent cache at this directory")
	progress := fs.Bool("progress", false, "log campaign progress while collecting")
	validateRuns := fs.Bool("validate", false, "run invariant validators over every collected measurement")
	ledgerPath := fs.String("ledger", "", "append a provenance manifest + results entry to this JSONL ledger")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON profile to this file")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/pprof and /healthz on this host:port")
	logFormat := fs.String("log-format", obs.LogText, "log output format (text|json)")
	workers := fs.String("workers", "", "comma-separated gemstoned worker addresses for distributed campaigns")
	fidelityFlag := fs.String("fidelity", "detailed", "simulation tier (detailed|atomic)")
	screen := fs.Bool("screen", false, "screen-then-resimulate: sweep the grid at the atomic tier, re-simulate the flagged points detailed")
	if err := fs.Parse(args); err != nil {
		return flagExit(err)
	}

	usage := func(err error) int {
		fmt.Fprintln(stderr, "gemstone:", err)
		return 2
	}
	logger, err := obs.NewLogger(stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		return usage(err)
	}
	fid, err := gemstone.ParseFidelity(*fidelityFlag)
	if err != nil {
		return usage(err)
	}
	if *screen && fid != gemstone.FidelityDetailed {
		return usage(errors.New("-fidelity cannot be combined with -screen (the screen sets the tier per phase)"))
	}
	ver, err := parseVersion(*version)
	if err != nil {
		return usage(err)
	}
	if err := checkCluster(*cluster); err != nil {
		return usage(err)
	}
	want, err := parseAnalyses(*analyses)
	if err != nil {
		return usage(err)
	}
	on := func(name string) bool { return want["all"] || want[name] }
	slog.SetDefault(logger)
	fail := func(err error) int {
		logger.Error("gemstone failed", "err", err)
		return 1
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	var tracer *gemstone.Tracer
	if *traceFile != "" {
		tracer = gemstone.NewTracer()
		defer func() {
			f, err := os.Create(*traceFile)
			if err == nil {
				err = tracer.WriteChromeTrace(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				logger.Error("trace not written", "err", err)
				return
			}
			logger.Info("trace written", "file", *traceFile, "spans", len(tracer.Events()))
		}()
	}

	var cache gemstone.RunCache
	if *cacheDir != "" {
		if cache, err = gemstone.OpenRunCache(*cacheDir); err != nil {
			return fail(err)
		}
	}
	metrics := gemstone.NewCollectMetrics()
	// The registry always exists: gemstone_build_info and the validator
	// counters land in it whether or not -metrics-addr serves it, so the
	// ledger manifest and a scrape cite the same provenance source.
	reg := gemstone.NewMetricsRegistry()
	gemstone.RegisterBuildInfo(reg)
	observers := []gemstone.CollectObserver{metrics}
	if *metricsAddr != "" {
		srv, err := gemstone.ServeMetrics(*metricsAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		observers = append(observers, gemstone.NewRegistryCollectObserver(reg))
		logger.Info("metrics listening", "addr", srv.Addr())
	}
	recorder := gemstone.NewCampaignRecorder()
	observers = append(observers, recorder)
	var validator *gemstone.Validator
	if *validateRuns {
		validator = gemstone.NewValidator(reg)
	}
	if *progress {
		po := newProgressObserver(logger)
		if validator != nil {
			po.violations = validator.Count
		}
		observers = append(observers, po)
	}
	observer := gemstone.MultiCollectObserver(observers...)
	var coord *dist.Coordinator
	if *workers != "" {
		var addrs []string
		for _, a := range strings.Split(*workers, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		coord = dist.NewCoordinator(dist.CoordinatorConfig{
			Workers:  addrs,
			Registry: reg,
			Log:      logger,
		})
		logger.Info("distributing campaigns", "workers", len(addrs))
	}
	collect := func(pl *gemstone.Platform, opt gemstone.CollectOptions) (*gemstone.RunSet, error) {
		opt.Cache = cache
		opt.Observer = observer
		opt.Tracer = tracer
		if validator != nil {
			validator.AddPlatform(pl)
		}
		var rs *gemstone.RunSet
		var err error
		if coord != nil {
			rs, err = coord.Collect(ctx, pl, opt)
		} else {
			rs, err = gemstone.Collect(ctx, pl, opt)
		}
		if err == nil && validator != nil {
			// Sweep the completed set instead of observing RunDone: cache
			// hits replay without a RunDone callback, and the whole-set
			// view enables the cross-run DVFS-monotonicity check.
			for _, m := range rs.Runs {
				validator.CheckMeasurement(m)
			}
			validator.CheckRunSet(rs)
		}
		return rs, err
	}

	profiles := gemstone.ValidationWorkloads()
	if *nWorkloads > 0 && *nWorkloads < len(profiles) {
		profiles = profiles[:*nWorkloads]
	}
	opt := func() gemstone.CollectOptions {
		return gemstone.CollectOptions{
			Workloads: profiles,
			Clusters:  []string{*cluster},
			Fidelity:  fid,
		}
	}

	// Collect only when something reads the runs: the ledger, the stats
	// dump and the validators always do.
	needRuns := needsRuns(want) || *ledgerPath != "" || *statsDir != "" || *validateRuns
	var hwRuns, simRuns *gemstone.RunSet
	var flagged []gemstone.RunKey
	switch {
	case !needRuns:
	case *screen:
		logger.Info("screening campaign", "workloads", len(profiles), "cluster", *cluster)
		res, serr := gemstone.Screen(ctx, gemstone.HardwarePlatform(), gemstone.Gem5Platform(ver),
			gemstone.ScreenOptions{
				Options: opt(),
				Collect: func(_ context.Context, pl *gemstone.Platform, o gemstone.CollectOptions) (*gemstone.RunSet, error) {
					return collect(pl, o)
				},
			})
		if serr != nil {
			return fail(serr)
		}
		hwRuns, simRuns, flagged = res.HW, res.Sim, res.Flagged
		logger.Info("screen complete", "points", len(res.ScreenedPE), "flagged", len(res.Flagged))
	default:
		logger.Info("collecting hardware characterisation", "workloads", len(profiles), "cluster", *cluster)
		if hwRuns, err = collect(gemstone.HardwarePlatform(), opt()); err != nil {
			return fail(err)
		}
		logger.Info("running gem5 simulations", "version", fmt.Sprint(ver))
		if simRuns, err = collect(gemstone.Gem5Platform(ver), opt()); err != nil {
			return fail(err)
		}
	}
	if *statsDir != "" {
		if err := dumpStatsFiles(*statsDir, simRuns); err != nil {
			return fail(err)
		}
		logger.Info("wrote gem5 stats files", "count", len(simRuns.Runs), "dir", *statsDir)
	}

	// All Section IV-VII analyses below share one operating point.
	cl, f := *cluster, *freq
	var clustering *gemstone.WorkloadClustering
	needClusters := on("fig3") || on("fig6") || on("fig7") || on("fig8") || on("versions")
	if needClusters {
		clustering, err = gemstone.ClusterWorkloads(hwRuns, simRuns, cl, f, 16)
		if err != nil {
			return fail(err)
		}
	} else if *ledgerPath != "" {
		// Best-effort HCA labels for the ledger's per-workload table; a
		// trimmed -workloads run may have too few members for the paper's
		// 16 clusters, so shrink k rather than fail the recording.
		k := 16
		if n := len(profiles); n < k {
			k = n
		}
		if wc, cerr := gemstone.ClusterWorkloads(hwRuns, simRuns, cl, f, k); cerr == nil {
			clustering = wc
		} else {
			logger.Warn("ledger: clustering unavailable", "err", cerr)
		}
	}

	var summary *gemstone.ValidationSummary
	if on("validate") || *ledgerPath != "" {
		summary, err = gemstone.Validate(hwRuns, simRuns, cl)
		if err != nil {
			return fail(err)
		}
		if validator != nil {
			validator.CheckValidation(summary)
		}
	}
	if on("validate") {
		fmt.Fprint(stdout, report.ValidationSummary(fmt.Sprintf("gem5 %v vs hardware", ver), summary))
		if mape, mpe, n := summary.SuiteSummary("parsec-"); n > 0 {
			fmt.Fprintf(stdout, "PARSEC only: MAPE %.1f%% MPE %+.1f%% (%d runs)\n", mape, mpe, n)
		}
		fmt.Fprintln(stdout)
		if err := writeCSV(*csvDir, "validation.csv", func() ([]string, [][]string) { return report.ValidationSummaryCSV(summary) }); err != nil {
			return fail(err)
		}
	}
	if on("fig3") {
		fmt.Fprintln(stdout, report.Fig3(clustering))
		if err := writeCSV(*csvDir, "fig3.csv", func() ([]string, [][]string) { return report.Fig3CSV(clustering) }); err != nil {
			return fail(err)
		}
	}
	if on("fig4") {
		hwCurve, simCurve := latencyCurves(ver, cl, f)
		fmt.Fprintln(stdout, report.Fig4(map[string][]lmbench.Point{"hw-" + cl: hwCurve, "gem5-" + cl: simCurve}))
	}
	if on("fig5") {
		rows, err := gemstone.PMCErrorCorrelation(hwRuns, simRuns, cl, f, 30)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Fig5(rows))
		if err := writeCSV(*csvDir, "fig5.csv", func() ([]string, [][]string) { return report.Fig5CSV(rows) }); err != nil {
			return fail(err)
		}
	}
	if on("workloads") {
		fmt.Fprintln(stdout, "=== Workload suite ===")
		fmt.Fprintf(stdout, "%-26s %-12s %7s %10s\n", "name", "suite", "threads", "insts")
		for _, p := range gemstone.Workloads() {
			fmt.Fprintf(stdout, "%-26s %-12s %7d %10d\n", p.Name, p.Suite, p.Threads, p.TotalInsts)
		}
		fmt.Fprintln(stdout)
	}
	if on("dendro") {
		// The hierarchical view behind the Fig. 3 cluster labels.
		X, names, err := workloadRateMatrix(hwRuns, cl, f)
		if err != nil {
			return fail(err)
		}
		dend := stats.Agglomerate(stats.EuclideanDist(stats.Standardize(X)), stats.AverageLinkage)
		fmt.Fprintln(stdout, "=== Workload dendrogram (HCA of HW PMC rates) ===")
		fmt.Fprintln(stdout, report.Dendrogram(dend, names))
	}
	if on("consistency") {
		fc, err := gemstone.ErrorConsistency(hwRuns, simRuns, cl)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "=== Cross-frequency error-pattern consistency ===")
		for _, p := range fc.Pairs {
			fmt.Fprintf(stdout, "  %4d vs %4d MHz: pearson %+.2f  rank %+.2f\n",
				p.FreqA, p.FreqB, p.Pearson, p.Spearman)
		}
		fmt.Fprintln(stdout)
	}
	if on("gem5corr") {
		rows, err := gemstone.Gem5EventCorrelation(hwRuns, simRuns, cl, f, 0.3, 8)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Gem5Correlation(rows))
	}
	if on("regress") {
		sw := gemstone.DefaultStepwiseOptions()
		sw.MaxTerms = 8
		pmcRep, err := gemstone.ErrorRegressionPMC(hwRuns, simRuns, cl, f, sw)
		if err != nil {
			return fail(err)
		}
		g5Rep, err := gemstone.ErrorRegressionGem5(hwRuns, simRuns, cl, f, sw)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Regression(pmcRep, g5Rep))
	}
	if on("fig6") {
		excl := pathologicalCluster(clustering)
		ratios, bp, err := gemstone.EventComparison(hwRuns, simRuns, cl, f,
			clustering.Labels, nil, gemstone.DefaultMapping(), excl)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Fig6(ratios, bp))
	}

	var model *gemstone.PowerModel
	restricted := gemstone.PowerBuildOptions{Pool: gemstone.RestrictedPool()}
	if on("power") || on("fig7") || on("fig8") || on("versions") {
		logger.Info("building power model", "cluster", cl, "pool", "restricted")
		if model, err = gemstone.BuildPowerModel(hwRuns, cl, restricted); err != nil {
			return fail(err)
		}
	}
	if model == nil && *ledgerPath != "" {
		// The ledger tracks power-model quality (R², SER) even when no
		// power analysis was requested; tolerate failure rather than lose
		// the timing results.
		logger.Info("building power model for the ledger", "cluster", cl)
		if m, merr := gemstone.BuildPowerModel(hwRuns, cl, restricted); merr == nil {
			model = m
		} else {
			logger.Warn("ledger: power model unavailable", "err", merr)
		}
	}
	if on("power") {
		fmt.Fprintln(stdout, report.PowerModel(model))
		fmt.Fprintln(stdout, "run-time gem5 equation:")
		fmt.Fprintln(stdout, "  "+model.Equation(gemstone.DefaultMapping()))
		fmt.Fprintln(stdout)
		if err := writeCSV(*csvDir, "power_model.csv", func() ([]string, [][]string) { return report.PowerModelCSV(model) }); err != nil {
			return fail(err)
		}
	}
	if on("fig7") {
		an, err := gemstone.AnalyzePowerEnergy(model, gemstone.DefaultMapping(),
			hwRuns, simRuns, cl, f, clustering.Labels)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Fig7(an))
	}
	if on("fig8") {
		models := map[string]*gemstone.PowerModel{cl: model}
		baseFreq := gemstone.ExperimentFrequencies(cl)[0]
		hwCurve, err := gemstone.ScalingAnalysis(hwRuns, models, gemstone.DefaultMapping(),
			false, clustering.Labels, cl, baseFreq)
		if err != nil {
			return fail(err)
		}
		simCurve, err := gemstone.ScalingAnalysis(simRuns, models, gemstone.DefaultMapping(),
			true, clustering.Labels, cl, baseFreq)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Fig8(hwCurve, simCurve))
	}
	if on("versions") {
		other := gemstone.V2
		if ver == gemstone.V2 {
			other = gemstone.V1
		}
		logger.Info("running gem5 simulations for the version comparison", "version", fmt.Sprint(other))
		otherRuns, err := collect(gemstone.Gem5Platform(other), opt())
		if err != nil {
			return fail(err)
		}
		v1Runs, v2Runs := simRuns, otherRuns
		if ver == gemstone.V2 {
			v1Runs, v2Runs = otherRuns, simRuns
		}
		vc, err := gemstone.CompareVersions(hwRuns, v1Runs, v2Runs, cl, f,
			model, gemstone.DefaultMapping(), clustering.Labels)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, report.Versions(vc))
	}

	if validator != nil {
		for _, d := range validator.Violations() {
			logger.Warn("invariant violation",
				"invariant", d.Invariant, "run", d.Run, "detail", d.Detail)
		}
	}

	if *ledgerPath != "" {
		entry := buildLedgerEntry(ledgerInputs{
			hw:         gemstone.HardwarePlatform(),
			sim:        gemstone.Gem5Platform(ver),
			version:    ver,
			cluster:    cl,
			freqMHz:    f,
			fidelity:   fid,
			screened:   *screen,
			flagged:    flagged,
			profiles:   profiles,
			recorder:   recorder,
			tracer:     tracer,
			summary:    summary,
			clustering: clustering,
			model:      model,
			validator:  validator,
			coord:      coord,
		})
		if err := gemstone.OpenLedger(*ledgerPath).Append(entry); err != nil {
			return fail(err)
		}
		logger.Info("ledger entry appended", "path", *ledgerPath,
			"workloads", len(entry.Results.Workloads),
			"validator_checks", entry.Results.ValidatorChecks,
			"validator_violations", entry.Results.ValidatorViolations)
	}

	if s := metrics.Stats(); s.Jobs > 0 {
		attrs := []any{
			"platforms", strings.Join(metrics.Platforms(), "+"),
			"runs", s.Jobs, "simulated", s.Simulated,
			"cache_hits", s.CacheHits, "skipped", s.Skipped,
			"plan", s.PlanTime.Round(time.Microsecond).String(),
			"cache", s.CacheTime.Round(time.Microsecond).String(),
			"sim", s.SimTime.Round(time.Millisecond).String(),
			"wall", s.WallTime.Round(time.Millisecond).String(),
			"cache_hit_rate", fmt.Sprintf("%.0f%%", 100*float64(s.CacheHits)/float64(s.Jobs)),
		}
		if validator != nil {
			attrs = append(attrs, "validator_checks", validator.Checks(),
				"validator_violations", validator.Count())
		}
		logger.Info("campaigns total", attrs...)
	}
	return 0
}

// ledgerInputs gathers everything buildLedgerEntry distils into a record.
type ledgerInputs struct {
	hw, sim    *gemstone.Platform
	version    gem5.Version
	cluster    string
	freqMHz    int
	fidelity   gemstone.Fidelity
	screened   bool
	flagged    []gemstone.RunKey
	profiles   []gemstone.WorkloadProfile
	recorder   *gemstone.CampaignRecorder
	tracer     *gemstone.Tracer
	summary    *gemstone.ValidationSummary
	clustering *gemstone.WorkloadClustering
	model      *gemstone.PowerModel
	validator  *gemstone.Validator
	coord      *dist.Coordinator
}

// buildLedgerEntry assembles the flight-recorder record for this
// invocation: provenance manifest (build, fingerprints, workload set,
// DVFS grid, campaign stats, phase times), results (headline and
// per-workload errors, power-model quality, lmbench digest) and any
// validator diagnostics.
func buildLedgerEntry(in ledgerInputs) gemstone.LedgerEntry {
	hwCfg, simCfg := in.hw.Config(), in.sim.Config()
	names, setHash, seed := ledger.WorkloadSetDigest(in.profiles)
	grid := make(map[string][]int, len(hwCfg.Clusters))
	for _, cc := range hwCfg.Clusters {
		grid[cc.Name] = cc.Frequencies()
	}
	man := gemstone.RunManifest{
		Schema:           ledger.SchemaVersion,
		CreatedUnix:      time.Now().Unix(),
		Build:            gemstone.ReadBuildInfo(),
		HWPlatform:       hwCfg.Name,
		ModelPlatform:    simCfg.Name,
		HWFingerprint:    hwCfg.Fingerprint(),
		ModelFingerprint: simCfg.Fingerprint(),
		Gem5Version:      int(in.version),
		Cluster:          in.cluster,
		FreqMHz:          in.freqMHz,
		Workloads:        names,
		WorkloadSetHash:  setHash,
		Seed:             seed,
		DVFSGrid:         grid,
		Campaigns:        in.recorder.Campaigns(),
	}
	if in.fidelity != gemstone.FidelityDetailed {
		man.Fidelity = in.fidelity.String()
	}
	if in.screened {
		man.Mode = "screen"
		for _, k := range in.flagged {
			man.ScreenFlagged = append(man.ScreenFlagged,
				fmt.Sprintf("%s/%s/%d", k.Workload, k.Cluster, k.FreqMHz))
		}
	}
	if in.tracer != nil {
		man.PhaseSeconds = ledger.PhaseSeconds(in.tracer.Events())
	}
	if in.coord != nil {
		for _, ws := range in.coord.WorkerStats() {
			man.DistWorkers = append(man.DistWorkers, ledger.DistWorker{
				Addr:     ws.Addr,
				Capacity: ws.Capacity,
				Jobs:     ws.Jobs,
				Retries:  ws.Retries,
				Alive:    ws.Alive,
			})
		}
	}

	var results gemstone.LedgerResults
	if in.summary != nil {
		results = ledger.ResultsFromValidation(in.summary, in.freqMHz, in.clustering)
	} else {
		results = gemstone.LedgerResults{Cluster: in.cluster, FreqMHz: in.freqMHz}
	}
	results.Power = ledger.PowerFromModel(in.model)
	results.Latency = ledger.LatencyFromPoints(latencyCurves(in.version, in.cluster, in.freqMHz))

	entry := gemstone.LedgerEntry{Manifest: man, Results: results}
	if in.validator != nil {
		entry.Results.ValidatorChecks = in.validator.Checks()
		entry.Diagnostics = in.validator.Violations()
		entry.Results.ValidatorViolations = len(entry.Diagnostics)
	}
	return entry
}

// latencyStride is the access stride of the Fig. 4 latency sweep.
const latencyStride = 256

// latencyCurves runs the Fig. 4 lmbench-style latency sweep on the
// cluster's hardware reference and on its gem5 model (the figure and the
// ledger's latency digest).
func latencyCurves(ver gem5.Version, cluster string, freqMHz int) (hwCurve, simCurve []gemstone.LatencyPoint) {
	hwCfg, simCfg := gemstone.HardwareA15(), gemstone.Gem5Big(ver)
	if cluster == gemstone.ClusterA7 {
		hwCfg, simCfg = gemstone.HardwareA7(), gemstone.Gem5LITTLE(ver)
	}
	sizes := gemstone.DefaultLatencySizes()
	return gemstone.MemoryLatency(hwCfg, freqMHz, latencyStride, sizes),
		gemstone.MemoryLatency(simCfg, freqMHz, latencyStride, sizes)
}

// workloadRateMatrix rebuilds the standardisable PMC-rate matrix of the
// hardware runs for dendrogram rendering (workload x event rates).
func workloadRateMatrix(hwRuns *gemstone.RunSet, cluster string, freq int) ([][]float64, []string, error) {
	names := hwRuns.Workloads()
	var rows [][]float64
	var kept []string
	for _, name := range names {
		m, err := hwRuns.Get(gemstone.RunKey{Workload: name, Cluster: cluster, FreqMHz: freq})
		if err != nil {
			continue
		}
		var row []float64
		for _, e := range pmu.AllEvents() {
			row = append(row, m.Sample.Rate(e))
		}
		rows = append(rows, row)
		kept = append(kept, name)
	}
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("no runs for %s at %d MHz", cluster, freq)
	}
	return rows, kept, nil
}

// pathologicalCluster mimics the paper's Fig. 6 mean, which excludes its
// Cluster 16 (the extreme-regularity loop kernels).
func pathologicalCluster(wc *gemstone.WorkloadClustering) map[int]bool {
	excl := map[int]bool{}
	if l, ok := wc.Labels["par-basicmath-rad2deg"]; ok {
		excl[l] = true
	}
	return excl
}

// dumpStatsFiles writes one gem5-format stats.txt per run, named
// <workload>-<cluster>-<freq>.stats.txt — the files a real gem5 campaign
// would leave behind for retrospective analysis.
func dumpStatsFiles(dir string, rs *gemstone.RunSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for key, m := range rs.Runs {
		name := fmt.Sprintf("%s-%s-%d.stats.txt", key.Workload, key.Cluster, key.FreqMHz)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = gemstone.WriteGem5StatsFile(f, gemstone.Gem5Stats(m))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeCSV writes one CSV artefact into dir; an empty dir writes nothing.
func writeCSV(dir, name string, gen func() ([]string, [][]string)) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	header, rows := gen()
	err = report.WriteCSV(f, header, rows)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
