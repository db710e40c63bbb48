// Command e2ebench is tvq's end-to-end benchmark. It generates every
// input from a seed, drives the library and the tvqd serving stack
// through their public entry points, checks every delivered match
// against an independent reference, and prints one JSON result line.
//
//	e2ebench -workload replay-dense -seed 1 -seconds 20 -trace 0
//	e2ebench -workload churn-fanout -seed 1 -seconds 20 -trace 1
//	e2ebench -workload serve-live -seed 1 -seconds 20 -repeat 10
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the workload runs twice, untraced and traced, and the result
// carries the per-layer metrics, self times and the tracing overhead.
// -repeat N runs the workload N times as child processes with seeds
// seed..seed+N-1 and prints the median and quartiles of every metric.
// The exit code is 0 only when every delivery matched the reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are the result line of every untraced run, on every
// workload.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"frames_per_sec", "frames/s"},
	{"deliver_p50_ms", "ms"},
	{"sustained_fps", "frames/s"},
	{"heap_live_mb", "MiB"},
}

// reportOnly are end-to-end metrics printed in the report but kept out
// of the result line: their run-to-run spread on a shared two-core
// machine (about 50% for serve-live's p99s, see README.md) is wider
// than any bound a result line may carry.
var reportOnly = []struct{ name, unit string }{
	{"deliver_p99_ms", "ms"},
	{"ingest_p99_ms", "ms"},
}

// serveSteps are the serve-live load steps, as feed counts at 30 fps
// per feed; refStep indexes the step whose latencies are the headline.
// On two cores the 32-feed step (960 fps) holds the latency limit with a
// wide margin and the 192-feed step (5760 fps) is far past what the
// stack sustains (about 2k frames/s); a 64-feed step passed in some runs
// and failed in others, which would make sustained_fps flip between
// steps from run to run.
var (
	serveSteps = []int{8, 16, 32, 192}
	refStep    = 1
)

// layerMetrics are printed by every traced run. A layer a workload does
// not reach reads 0 there; the layers driven directly (core, query
// evaluation, reorder, vr decode) are driven over every workload's own
// inputs.
var layerMetrics = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{}
	add := func(name, unit string) { m = append(m, struct{ name, unit string }{name, unit}) }
	for _, g := range []string{"naive", "mfs", "ssg"} {
		add("core."+g+".ns_per_frame", "ns")
		add("core."+g+".intersections_per_frame", "count")
		add("core."+g+".states_visited_per_frame", "count")
		add("core."+g+".ns_per_intersection", "ns")
		add("core."+g+".states_created_per_frame", "count")
		add("core."+g+".live_states", "count")
	}
	add("engine.group_us_per_frame", "us")
	add("engine.self_us_per_frame", "us")
	add("query.eval_ns_per_frame", "ns")
	add("query.matches_per_state", "ratio")
	add("query.patch_us", "us")
	add("tvq.process_us_per_batch", "us")
	add("tvq.self_us_per_batch", "us")
	add("tvq.sink_ns_per_delivery", "ns")
	add("tvq.deliveries_per_frame", "count")
	add("reorder.push_ns_per_frame", "ns")
	add("reorder.depth_max", "count")
	add("reorder.late_frames", "count")
	add("snapshot.encode_ms", "ms")
	add("snapshot.bytes", "bytes")
	add("vr.decode_ns_per_frame", "ns")
	add("vr.wire_bytes_per_frame", "bytes")
	add("server.handler_us_per_req", "us")
	add("server.self_us_per_req", "us")
	add("server.wait_us_per_req", "us")
	add("server.rejected", "count")
	add("server.stream_lag_us", "us")
	add("serve.gen_lag_ms", "ms")
	for i := range serveSteps {
		add(fmt.Sprintf("serve.deliver_p99_ms.s%d", i+1), "ms")
	}
	add("bench.self_us_per_frame", "us")
	add("trace.spans", "count")
	add("trace.overhead_pct", "%")
	return m
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds time.Duration
	// small shrinks every input to test size.
	small bool
	// corrupt, when positive, flips the digest of that 1-based delivery
	// of the first timed pass: the output check must then fail.
	corrupt int64
	// wrap, when set, wraps the tvqd handler (serve-live only).
	wrap func(http.Handler) http.Handler
	// log receives the human-readable report lines.
	log io.Writer
}

// outcome is what one timed run of a workload measured.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	// mismatch describes the first delivery that differed from the
	// reference; empty when every pass matched.
	mismatch string
	// notes are per-metric sample counts and percentile context.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records failed operations and keeps the first mismatch.
func (o *outcome) fail(n int64, why string) {
	if n <= 0 {
		return
	}
	o.failed += n
	if o.mismatch == "" {
		o.mismatch = why
	}
}

// runner is one workload with its inputs generated and its reference
// computed.
type runner interface {
	// measure runs the timed region for about d; tr is nil for the
	// untraced run.
	measure(tr *tracer, d time.Duration) (*outcome, error)
	// drive runs the layers this workload's inputs can feed directly
	// (traced run only) and adds their metrics to o.
	drive(o *outcome) error
	// close releases whatever measure left open.
	close()
}

type workload struct {
	name    string
	prepare func(cfg config) (runner, error)
}

var workloads = []workload{
	{"replay-dense", prepareReplay},
	{"serve-live", prepareServe},
	{"churn-fanout", prepareChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload: replay-dense, serve-live or churn-fanout")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	repeat := flag.Int("repeat", 0, "run N child processes with consecutive seeds and print quartiles")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its spans")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (replay-dense, serve-live, churn-fanout), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(os.Stdout, *name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, log: os.Stdout}
	res, err := run(w, cfg, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run prepares the workload and measures it, untraced or (traced) once
// without and once with tracing, and assembles the result.
func run(w workload, cfg config, traced bool, traceDir string) (*result, error) {
	r, err := w.prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if !traced {
		o, err := r.measure(nil, cfg.seconds)
		if err != nil {
			return nil, err
		}
		report(cfg.log, w.name, "untraced", o)
		return assemble(o, e2eMetrics), nil
	}

	// The untraced and the traced run share inputs and reference; each
	// gets half the measured time.
	half := cfg.seconds / 2
	base, err := r.measure(nil, half)
	if err != nil {
		return nil, err
	}
	report(cfg.log, w.name, "untraced", base)
	tr := newTracer()
	o, err := r.measure(tr, half)
	if err != nil {
		return nil, err
	}
	if err := r.drive(o); err != nil {
		return nil, err
	}
	tr.derive(o)
	o.set("trace.overhead_pct", overheadPct(base, o))
	report(cfg.log, w.name, "traced", o)
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "# spans written to %s\n", path)
	for _, l := range layerMetrics {
		fmt.Fprintf(cfg.log, "layer %-40s %14.4f %s\n", l.name, o.metrics[l.name], l.unit)
	}
	o.attempted += base.attempted
	o.failed += base.failed
	if o.mismatch == "" {
		o.mismatch = base.mismatch
	}
	return assemble(o, layerMetrics), nil
}

// overheadPct compares the traced run with the untraced one on the
// workload's headline number: throughput for the closed loops, median
// delivery latency for the open loop (whose throughput is its offered
// rate).
func overheadPct(base, traced *outcome) float64 {
	if _, open := base.metrics["serve.gen_lag_ms"]; open {
		b := base.metrics["deliver_p50_ms"]
		if b == 0 {
			return 0
		}
		return (traced.metrics["deliver_p50_ms"] - b) / b * 100
	}
	t := traced.metrics["frames_per_sec"]
	if t == 0 {
		return 0
	}
	return (base.metrics["frames_per_sec"]/t - 1) * 100
}

// assemble builds the result line from o, carrying the named metrics.
func assemble(o *outcome, names []struct{ name, unit string }) *result {
	res := &result{
		Correct:   o.mismatch == "" && o.failed == 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(names)),
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{Value: o.metrics[m.name], Unit: m.unit}
	}
	return res
}

// report prints a run's end-to-end numbers, sample notes and check
// status for a human reader.
func report(w io.Writer, name, mode string, o *outcome) {
	fmt.Fprintf(w, "# %s %s run\n", name, mode)
	for _, m := range append(e2eMetrics, reportOnly...) {
		fmt.Fprintf(w, "%-16s %14.4f %s\n", m.name, o.metrics[m.name], m.unit)
	}
	share := 0.0
	if o.attempted > 0 {
		share = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-16s %14.6f ratio (%d failed of %d attempted)\n", "failed_share", share, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	if o.mismatch != "" {
		fmt.Fprintf(w, "OUTPUT MISMATCH: %s\n", o.mismatch)
	}
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
