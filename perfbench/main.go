// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the program, checks every output against an oracle
// computed outside the timed region, and prints its metrics as the last
// line of standard output:
//
//	{"correct":true,"attempted":52,"failed":0,"metrics":{"run_ms_p50":{"value":571.2,"unit":"ms"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around each call into the program, writes them under -out,
// and prints the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one printed metric and its unit; BENCHMARK.json lists the
// same names with the same units (bench_test.go checks that).
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every workload with -trace 0.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_ms_p50", "ms"},
	{"run_ms_tail", "ms"},
	{"sim_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"lat_ms_p50.low", "ms"},
	{"lat_ms_tail.low", "ms"},
	{"lat_ms_p50.high", "ms"},
	{"lat_ms_tail.high", "ms"},
	{"slo_ok_frac", "fraction"},
}

// layerMetrics are printed by every workload with -trace 1. A layer the
// workload does not reach (the daemon on a batch workload) prints 0.
var layerMetrics = []metricDef{
	{"gen.generate_ms", "ms"},
	{"gen.prepare_ms", "ms"},
	{"graph.vertices", "count"},
	{"graph.arcs", "count"},
	{"graph.degree_skew", "ratio"},
	{"snapshot.build_ms", "ms"},
	{"snapshot.local_bytes", "bytes"},
	{"lcc.first_run_ms", "ms"},
	{"lcc.run_ms", "ms"},
	{"lcc.remote_reads", "count"},
	{"lcc.local_reads", "count"},
	{"lcc.remote_read_frac", "fraction"},
	{"lcc.comm_frac", "fraction"},
	{"lcc.rank_imbalance", "ratio"},
	{"sched.run_ms_w1", "ms"},
	{"sched.speedup", "ratio"},
	{"intersect.replay_ms", "ms"},
	{"intersect.calls", "count"},
	{"intersect.ops", "count"},
	{"intersect.share", "fraction"},
	{"rma.gets", "count"},
	{"rma.local_gets", "count"},
	{"rma.remote_mb", "MiB"},
	{"rma.get_cost_ms", "ms"},
	{"rma.flush_wait_ms", "ms"},
	{"clampi.adj.hits", "count"},
	{"clampi.adj.misses", "count"},
	{"clampi.adj.hit_rate", "fraction"},
	{"clampi.adj.inserts", "count"},
	{"clampi.adj.capacity_evictions", "count"},
	{"clampi.adj.conflict_evictions", "count"},
	{"clampi.adj.rejected_inserts", "count"},
	{"clampi.adj.hit_ms", "ms"},
	{"clampi.adj.overhead_ms", "ms"},
	{"clampi.offsets.hit_rate", "fraction"},
	{"clampi.host_ms", "ms"},
	{"serve.load_ms", "ms"},
	{"serve.run_ms_p50.low", "ms"},
	{"serve.run_ms_p50.high", "ms"},
	{"serve.queue_wait_ms_p50.low", "ms"},
	{"serve.queue_wait_ms_p50.high", "ms"},
	{"serve.queue_wait_ms_tail.low", "ms"},
	{"serve.queue_wait_ms_tail.high", "ms"},
	{"serve.served", "count"},
	{"serve.rejected", "count"},
	{"serve.timed_out", "count"},
	{"serve.failed", "count"},
	{"lccd.boot_ms", "ms"},
	{"http.residual_ms_p50.low", "ms"},
	{"http.residual_ms_p50.high", "ms"},
	{"http.residual_ms_tail.low", "ms"},
	{"http.residual_ms_tail.high", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.conn_wait_ms_p50.low", "ms"},
	{"loadgen.conn_wait_ms_p50.high", "ms"},
	{"loadgen.conn_wait_ms_tail.low", "ms"},
	{"loadgen.conn_wait_ms_tail.high", "ms"},
	{"loadgen.lag_ms_max.low", "ms"},
	{"loadgen.lag_ms_max.high", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	lccd     string // path of the lccd binary (serve-http only)
	out      string // directory for the span files of traced runs
}

// outcome is what a workload reports: the metric values by name, the
// operations attempted and failed, and any output mismatch.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	mismatch  []string
	notes     []string // human-readable lines printed before the result
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail counts a failed operation; a non-empty mismatch also marks the
// output wrong, which makes the command exit non-zero.
func (o *outcome) fail(mismatch string) {
	o.failed++
	if mismatch != "" && len(o.mismatch) < 20 {
		o.mismatch = append(o.mismatch, mismatch)
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// errInvalid marks a run whose measurement cannot be trusted (the load
// generator fell behind its schedule); it is reported, not scored.
var errInvalid = errors.New("invalid run")

var workloads = map[string]func(cfg config, o *outcome, rec *Recorder) error{
	"pull-rmat":     runBatch,
	"churn-uniform": runBatch,
	"serve-http":    runServe,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: pull-rmat, churn-uniform or serve-http")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the measurement runs")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	flag.StringVar(&cfg.lccd, "lccd", "", "path of the lccd binary (serve-http)")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory the span file of a traced run is written to")
	flag.Parse()
	cfg.trace = *trace == 1

	code, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(cfg config) (int, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	if n := runtime.GOMAXPROCS(0); n > runtime.NumCPU() {
		return 2, fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs", n, runtime.NumCPU())
	}
	var rec *Recorder
	if cfg.trace {
		rec = newRecorder()
	}
	o := &outcome{values: map[string]float64{}}
	if err := wl(cfg, o, rec); err != nil {
		return 3, err
	}
	if rec != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := rec.WriteFile(path); err != nil {
			return 3, err
		}
		o.notef("spans written to %s", path)
	}
	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	}
	line, err := resultLine(defs, o)
	if err != nil {
		return 3, err
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, m := range o.mismatch {
		fmt.Println("MISMATCH:", m)
	}
	fmt.Println(string(line))
	if len(o.mismatch) > 0 {
		return 1, fmt.Errorf("%s: %d output mismatch(es)", cfg.workload, len(o.mismatch))
	}
	return 0, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object. It refuses a metric the
// workload did not set and a value it set that defs does not declare, so
// the printed names are always exactly the declared ones.
func resultLine(defs []metricDef, o *outcome) ([]byte, error) {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	var extra []string
	for name := range o.values {
		if _, ok := metrics[name]; !ok && !declared(name) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(o.mismatch) == 0, o.attempted, o.failed, metrics})
}

func declared(name string) bool {
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// since is the wall time from t in milliseconds.
func since(t time.Time) float64 { return ms(float64(time.Since(t))) }
