package report

import (
	"fmt"
	"html/template"
	"math"
	"strings"

	"gemstone/internal/ledger"
)

// Drift renders a ledger drift report as plain text for the terminal.
func Drift(r *ledger.DriftReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== gemwatch — drift vs baseline (%s → %s) ===\n", r.BasePlatform, r.CurPlatform)
	for _, n := range r.ManifestNotes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	// Bench rows ("<benchmark> <unit>") outgrow the ledger headlines'
	// column, so it widens to the longest name.
	w := 20
	for _, h := range r.Headlines {
		w = max(w, len(h.Name))
	}
	fmt.Fprintf(&b, "%-*s %10s %10s %8s %8s\n", w, "headline", "baseline", "current", "delta", "tol")
	for _, h := range r.Headlines {
		mark := "  "
		if h.Breach {
			mark = "!!"
		}
		fmt.Fprintf(&b, "%-*s %10.2f %10.2f %+8.2f %8.2f %s\n",
			w, h.Name, h.Base, h.Cur, h.Delta, h.Tolerance, mark)
	}

	if len(r.Workloads) > 0 {
		maxAbs := 1.0
		for _, w := range r.Workloads {
			if a := math.Abs(w.DeltaPP); a > maxAbs {
				maxAbs = a
			}
		}
		fmt.Fprintf(&b, "-- per-workload PE shift (pp, sorted by |delta|) --\n")
		for _, w := range r.Workloads {
			mark := ""
			if w.Shifted {
				mark = "  << shifted"
			}
			fmt.Fprintf(&b, "%-26s %+8.2f %s%s\n", w.Workload, w.DeltaPP, bar(w.DeltaPP, maxAbs, 20), mark)
		}
	}

	if sc := r.ShiftedClusters(); len(sc) > 0 {
		fmt.Fprintf(&b, "-- shifted HCA clusters (baseline labels) --\n")
		for _, c := range sc {
			fmt.Fprintf(&b, "cluster %d: %d/%d workloads shifted, mean delta %+.2f pp: %s\n",
				c.Label+1, c.Shifted, c.N, c.MeanDeltaPP, strings.Join(c.Workloads, ", "))
		}
	}
	if len(r.MissingWorkloads) > 0 {
		fmt.Fprintf(&b, "missing workloads: %s\n", strings.Join(r.MissingWorkloads, ", "))
	}
	if len(r.NewWorkloads) > 0 {
		fmt.Fprintf(&b, "new workloads: %s\n", strings.Join(r.NewWorkloads, ", "))
	}

	verdict := "OK — within tolerance of baseline"
	if r.Drift {
		verdict = "DRIFT DETECTED"
		if r.FingerprintChanged {
			verdict += " (model fingerprint changed — expected if the model was edited)"
		}
	}
	fmt.Fprintf(&b, "verdict: %s\n", verdict)
	return b.String()
}

// driftPage is the self-contained drift report: a KPI row of headline
// tiles with tolerance status, sparklines over the ledger history, and
// the per-workload delta table (which doubles as the accessible table
// view — every plotted value appears as text).
const driftPage = `<!doctype html>
<html lang="en">
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>gemwatch — result drift report</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --pos: #2a78d6; --neg: #e34948; --mid: #f0efec;
  --good: #0ca30c; --good-text: #006300; --critical: #d03b3b;
  --spark: #898781; --spark-accent: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --pos: #3987e5; --neg: #e66767; --mid: #383835;
    --good: #0ca30c; --good-text: #0ca30c; --critical: #d03b3b;
    --spark: #898781; --spark-accent: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
  --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
  --pos: #3987e5; --neg: #e66767; --mid: #383835;
  --good: #0ca30c; --good-text: #0ca30c; --critical: #d03b3b;
  --spark: #898781; --spark-accent: #3987e5;
}
.viz-root {
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink-1);
  margin: 0; padding: 24px; min-height: 100vh; box-sizing: border-box;
}
.viz-root h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
.viz-root .sub { color: var(--ink-2); font-size: 13px; margin: 0 0 20px; }
.viz-root .note { color: var(--ink-2); font-size: 13px; margin: 2px 0; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin: 0 0 16px;
}
.kpis { display: flex; flex-wrap: wrap; gap: 16px; }
.tile { flex: 1 1 150px; min-width: 150px; }
.tile .label { font-size: 12px; color: var(--ink-2); margin-bottom: 2px; }
.tile .value { font-size: 26px; font-weight: 600; }
.tile .delta { font-size: 13px; color: var(--ink-2); }
.tile .status { font-size: 12px; margin-top: 2px; }
.status.ok { color: var(--good-text); }
.status.breach { color: var(--critical); font-weight: 600; }
.sparkrow { display: flex; flex-wrap: wrap; gap: 24px; }
.spark { flex: 0 0 auto; }
.spark .label { font-size: 12px; color: var(--ink-2); margin-bottom: 4px; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th {
  text-align: left; color: var(--ink-3); font-weight: 500;
  border-bottom: 1px solid var(--axis); padding: 6px 8px;
}
td { padding: 5px 8px; border-bottom: 1px solid var(--grid); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:hover td { background: var(--mid); }
.delta-cell { width: 220px; }
.dbar { display: flex; align-items: center; height: 16px; }
.dbar .lane { position: relative; width: 200px; height: 16px; }
.dbar .axis {
  position: absolute; left: 100px; top: 0; bottom: 0;
  width: 1px; background: var(--axis);
}
.dbar .fill { position: absolute; top: 3px; height: 10px; }
.dbar .fill.pos { left: 101px; background: var(--pos); border-radius: 0 4px 4px 0; }
.dbar .fill.neg { right: 101px; background: var(--neg); border-radius: 4px 0 0 4px; }
.flag { color: var(--critical); font-weight: 600; }
.okflag { color: var(--good-text); }
.muted { color: var(--ink-3); }
.verdict { font-size: 15px; font-weight: 600; }
.verdict.drift { color: var(--critical); }
.verdict.ok { color: var(--good-text); }
</style>
<body class="viz-root">
<h1>gemwatch — result drift report</h1>
<p class="sub">{{.BasePlatform}} (baseline) → {{.CurPlatform}} (current)</p>

<div class="card">
  <p class="verdict {{if .Drift}}drift{{else}}ok{{end}}">
    {{if .Drift}}✗ Drift detected{{else}}✓ Within tolerance of baseline{{end}}
  </p>
  {{range .ManifestNotes}}<p class="note">• {{.}}</p>{{end}}
</div>

<div class="card kpis">
  {{range .Headlines}}
  <div class="tile">
    <div class="label">{{.Name}}</div>
    <div class="value">{{printf "%.2f" .Cur}}</div>
    <div class="delta">{{printf "%+.2f" .Delta}} vs baseline {{printf "%.2f" .Base}}</div>
    {{if .Breach}}<div class="status breach">✗ outside ±{{printf "%.2f" .Tolerance}}</div>
    {{else}}<div class="status ok">✓ within ±{{printf "%.2f" .Tolerance}}</div>{{end}}
  </div>
  {{end}}
</div>

{{if .Sparks}}
<div class="card">
  <div class="sparkrow">
    {{range .Sparks}}
    <div class="spark">
      <div class="label">{{.Label}} — last {{.N}} ledger entries</div>
      {{.SVG}}
    </div>
    {{end}}
  </div>
</div>
{{end}}

{{if .Workloads}}
<div class="card">
  <table>
    <caption class="muted" style="text-align:left; padding-bottom:8px;">
      Per-workload signed PE shift (percentage points), sorted by magnitude.
      Bars diverge from zero: blue right = PE rose, red left = PE fell.
    </caption>
    <thead><tr>
      <th>Workload</th><th class="num">HCA (base→cur)</th>
      <th class="num">Base PE %</th><th class="num">Cur PE %</th>
      <th class="num">Δ pp</th><th class="num">robust z</th>
      <th class="delta-cell">Δ</th><th>Flag</th>
    </tr></thead>
    <tbody>
    {{range .Workloads}}
    <tr>
      <td>{{.Workload}}</td>
      <td class="num">{{.HCALabel}}</td>
      <td class="num">{{printf "%+.2f" .BasePE}}</td>
      <td class="num">{{printf "%+.2f" .CurPE}}</td>
      <td class="num">{{printf "%+.2f" .DeltaPP}}</td>
      <td class="num">{{.ZLabel}}</td>
      <td class="delta-cell"><div class="dbar"><div class="lane">
        <div class="axis"></div>
        <div class="fill {{.Dir}}" style="width: {{.BarPx}}px;"
             title="{{.Workload}}: {{printf "%+.2f" .DeltaPP}} pp"></div>
      </div></div></td>
      <td>{{if .Shifted}}<span class="flag">⚠ shifted</span>{{end}}</td>
    </tr>
    {{end}}
    </tbody>
  </table>
</div>
{{end}}

{{if .Clusters}}
<div class="card">
  <table>
    <caption class="muted" style="text-align:left; padding-bottom:8px;">
      Baseline HCA clusters — which behavioural group moved.
    </caption>
    <thead><tr>
      <th>Cluster</th><th class="num">Workloads</th>
      <th class="num">Mean Δ pp</th><th class="num">Shifted</th><th>Members shifted</th>
    </tr></thead>
    <tbody>
    {{range .Clusters}}
    <tr>
      <td>{{.Label}}</td><td class="num">{{.N}}</td>
      <td class="num">{{printf "%+.2f" .MeanDeltaPP}}</td>
      <td class="num">{{.Shifted}}</td>
      <td>{{.Members}}</td>
    </tr>
    {{end}}
    </tbody>
  </table>
</div>
{{end}}

{{if or .MissingWorkloads .NewWorkloads}}
<div class="card">
  {{if .MissingWorkloads}}<p class="note">Missing vs baseline: {{.MissingWorkloads}}</p>{{end}}
  {{if .NewWorkloads}}<p class="note">New vs baseline: {{.NewWorkloads}}</p>{{end}}
</div>
{{end}}
</body>
</html>
`

var driftTmpl = template.Must(template.New("drift").Parse(driftPage))

type driftPageData struct {
	BasePlatform, CurPlatform string
	Drift                     bool
	ManifestNotes             []string
	Headlines                 []ledger.HeadlineDrift
	Sparks                    []sparkData
	Workloads                 []workloadRow
	Clusters                  []clusterRow
	MissingWorkloads          string
	NewWorkloads              string
}

type sparkData struct {
	Label string
	N     int
	SVG   template.HTML
}

type workloadRow struct {
	Workload      string
	HCALabel      string
	BasePE, CurPE float64
	DeltaPP       float64
	ZLabel        string
	Dir           string
	BarPx         int
	Shifted       bool
}

type clusterRow struct {
	Label       string
	N           int
	MeanDeltaPP float64
	Shifted     int
	Members     string
}

// DriftHTML renders the report as one self-contained HTML page (no
// external assets, light/dark via prefers-color-scheme). history, when
// non-empty, supplies the MPE/MAPE sparklines — pass the scanned entries
// of the current ledger in file order.
func DriftHTML(r *ledger.DriftReport, history []ledger.Entry) (string, error) {
	d := driftPageData{
		BasePlatform:     r.BasePlatform,
		CurPlatform:      r.CurPlatform,
		Drift:            r.Drift,
		ManifestNotes:    r.ManifestNotes,
		Headlines:        r.Headlines,
		MissingWorkloads: strings.Join(r.MissingWorkloads, ", "),
		NewWorkloads:     strings.Join(r.NewWorkloads, ", "),
	}

	// Sparklines need at least two points to draw a line.
	if len(history) >= 2 {
		var mpe, mape []float64
		for _, e := range history {
			mpe = append(mpe, e.Results.MPE)
			mape = append(mape, e.Results.MAPE)
		}
		d.Sparks = []sparkData{
			{Label: "MPE %", N: len(mpe), SVG: sparklineSVG(mpe)},
			{Label: "MAPE %", N: len(mape), SVG: sparklineSVG(mape)},
		}
	}

	maxAbs := 1.0
	for _, w := range r.Workloads {
		if a := math.Abs(w.DeltaPP); a > maxAbs {
			maxAbs = a
		}
	}
	for _, w := range r.Workloads {
		dir := "pos"
		if w.DeltaPP < 0 {
			dir = "neg"
		}
		px := int(math.Round(math.Abs(w.DeltaPP) / maxAbs * 99))
		z := fmt.Sprintf("%.1f", w.RobustZ)
		if math.IsInf(w.RobustZ, 1) {
			z = "∞"
		}
		d.Workloads = append(d.Workloads, workloadRow{
			Workload: w.Workload,
			HCALabel: fmt.Sprintf("%s→%s", hcaLabel(w.HCABase), hcaLabel(w.HCACur)),
			BasePE:   w.BasePE, CurPE: w.CurPE, DeltaPP: w.DeltaPP,
			ZLabel: z, Dir: dir, BarPx: px, Shifted: w.Shifted,
		})
	}
	for _, c := range r.Clusters {
		d.Clusters = append(d.Clusters, clusterRow{
			Label: hcaLabel(c.Label), N: c.N, MeanDeltaPP: c.MeanDeltaPP,
			Shifted: c.Shifted, Members: strings.Join(c.Workloads, ", "),
		})
	}

	var b strings.Builder
	if err := driftTmpl.Execute(&b, d); err != nil {
		return "", fmt.Errorf("report: drift page: %w", err)
	}
	return b.String(), nil
}

func hcaLabel(l int) string {
	if l < 0 {
		return "–"
	}
	return fmt.Sprint(l + 1)
}

// sparklineSVG draws a 12-point-max trend line: 2px round-capped stroke
// in the de-emphasis hue with the latest point accented (8px dot inside
// a 2px surface ring). Colors ride the page's CSS custom properties so
// the sparkline follows light/dark automatically.
func sparklineSVG(vals []float64) template.HTML {
	const (
		w, h   = 140.0, 36.0
		pad    = 5.0
		maxPts = 12
	)
	if len(vals) > maxPts {
		vals = vals[len(vals)-maxPts:]
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	x := func(i int) float64 {
		if len(vals) == 1 {
			return w / 2
		}
		return pad + float64(i)/float64(len(vals)-1)*(w-2*pad)
	}
	y := func(v float64) float64 { return h - pad - (v-lo)/span*(h-2*pad) }
	var pts []string
	for i, v := range vals {
		pts = append(pts, fmt.Sprintf("%.1f,%.1f", x(i), y(v)))
	}
	lastX, lastY := x(len(vals)-1), y(vals[len(vals)-1])
	svg := fmt.Sprintf(`<svg width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img" aria-label="trend over recent ledger entries">`+
		`<polyline points="%s" fill="none" stroke="var(--spark)" stroke-width="2" stroke-linecap="round" stroke-linejoin="round"/>`+
		`<circle cx="%.1f" cy="%.1f" r="6" fill="var(--surface-1)"/>`+
		`<circle cx="%.1f" cy="%.1f" r="4" fill="var(--spark-accent)"/>`+
		`</svg>`,
		w, h, w, h, strings.Join(pts, " "), lastX, lastY, lastX, lastY)
	return template.HTML(svg)
}
