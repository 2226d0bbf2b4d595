package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
)

// metricDef names one reported number and its unit. The catalogue
// below is the benchmark's contract: every untraced run prints every
// end-to-end metric, every traced run every per-layer metric, on every
// workload (a layer a workload does not exercise reports 0).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the numbers a user of the system sees. What each means
// on each workload is tabled in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"claims_per_s", "claims/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"server_cpu_us_per_req", "us"},
	{"server_rss_mb", "MiB"},
	{"ok_frac", "share"},
	{"fuse_s", "s"},
	{"fuse_accuracy", "share"},
}

// perLayer are the traced run's numbers, grouped by module. The p99
// tails sit here rather than among the end-to-end metrics: on a 2-vCPU
// virtual machine they follow the neighbours' load (IQR/median up to
// 0.4 over ten seeds), wider than any bound a regression gate can use.
// Sources:
// [S] spans around public calls in the in-process replay, [M] deltas
// of the servers' own /v1/metrics, [C] client httptrace spans, [P]
// /proc. The traced.* entries are the traced run's own end-to-end
// numbers: set against an untraced run they give the tracing overhead.
var perLayer = []metricDef{
	// load generator
	{"gen.ingest_samples", "count"},
	{"gen.query_samples", "count"},
	{"gen.ingest_p99_ms", "ms"},
	{"gen.query_p99_ms", "ms"},
	{"fail_frac", "share"},
	// client/network [C]
	{"net.conn_wait_us", "us"},
	{"net.write_us", "us"},
	{"net.ttfb_us", "us"},
	{"net.read_us", "us"},
	{"net.server_queue_us", "us"},
	// cmd/slimfast HTTP [M]
	{"http.observe_handler_us", "us"},
	{"http.observe_outside_engine_us", "us"},
	{"http.estimates_handler_us", "us"},
	{"http.sources_handler_us", "us"},
	{"http.shed", "count"},
	{"http.timeouts", "count"},
	// internal/data [S]
	{"data.parse_csv_us_per_claim", "us"},
	// internal/stream [S][M]
	{"stream.observe_batch_us_per_claim", "us"},
	{"stream.observe_batch_allocs_per_claim", "count"},
	{"stream.refresh_ms", "ms"},
	{"stream.refreshes", "count"},
	{"stream.estimates_scan_ms", "ms"},
	{"stream.checkpoint_ms", "ms"},
	{"stream.checkpoint_bytes", "bytes"},
	{"stream.objects", "count"},
	{"stream.sources", "count"},
	// internal/query [S]
	{"query.exec_us.topk", "us"},
	{"query.exec_us.group", "us"},
	{"query.exec_us.point", "us"},
	{"query.exec_us.sources", "us"},
	{"query.write_us", "us"},
	{"query.rows_out", "count"},
	// internal/cluster [M][P]
	{"cluster.fanout_us", "us"},
	{"cluster.fanout_skew", "ratio"},
	{"cluster.barriers", "count"},
	{"cluster.retries", "count"},
	{"cluster.barrier_us", "us"},
	{"cluster.checkpoint_us", "us"},
	{"cluster.router_self_us", "us"},
	{"proc.router_cpu_share", "share"},
	// internal/core, internal/synth [S]
	{"core.compile_ms", "ms"},
	{"core.decide_ms", "ms"},
	{"core.fit_em_ms", "ms"},
	{"core.fit_erm_ms", "ms"},
	{"core.infer_ms", "ms"},
	{"core.em_iterations", "count"},
	{"core.fit_allocs", "count"},
	{"synth.generate_ms", "ms"},
	// tracing itself
	{"trace.span_overhead_frac", "share"},
	{"traced.setup_s", "s"},
	{"traced.claims_per_s", "claims/s"},
	{"traced.ingest_p50_ms", "ms"},
	{"traced.ingest_p90_ms", "ms"},
	{"traced.query_p50_ms", "ms"},
	{"traced.query_p90_ms", "ms"},
	{"traced.server_cpu_us_per_req", "us"},
	{"traced.server_rss_mb", "MiB"},
	{"traced.ok_frac", "share"},
	{"traced.fuse_s", "s"},
	{"traced.fuse_accuracy", "share"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// report collects one run's numbers. Percentile metrics carry the
// percentile actually reported and its sample count, printed beside
// the value.
type report struct {
	vals      map[string]float64
	notes     map[string]string
	attempted int64
	failed    int64
	problems  []string // reference-check failures; any makes the run incorrect
}

func newReport() *report {
	return &report{vals: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// setPct records a percentile metric with its evidence.
func (r *report) setPct(name string, p pctResult) {
	r.vals[name] = p.Value
	r.notes[name] = fmt.Sprintf("p%.2f of %d samples", p.Pct, p.N)
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// emit prints every metric of the chosen set as a human line, then
// the one-line JSON result. A metric the workload forgot to set is a
// benchmark bug and fails the run rather than printing a made-up 0.
func (r *report) emit(w io.Writer, defs []metricDef) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = mv{v, d.Unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# REFERENCE CHECK FAILED: %s\n", p)
	}
	for _, d := range defs {
		note := r.notes[d.Name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "# %-40s %14.6g %s%s\n", d.Name, r.vals[d.Name], d.Unit, note)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
