package main

import (
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// smallConfig runs a workload on test-sized inputs for about two
// seconds.
func smallConfig() config {
	return config{seed: 3, seconds: 2 * time.Second, small: true, log: io.Discard}
}

// layersOn are the per-layer metrics each workload must measure as
// non-zero (counts that may legitimately be zero, such as late frames
// and rejections, are left out).
var layersOn = map[string][]string{
	"replay-dense": {
		"core.naive.ns_per_frame", "core.mfs.ns_per_frame", "core.ssg.ns_per_frame",
		"core.ssg.intersections_per_frame", "core.ssg.states_visited_per_frame", "core.ssg.ns_per_intersection",
		"core.ssg.states_created_per_frame", "engine.group_us_per_frame", "engine.self_us_per_frame",
		"query.eval_ns_per_frame", "query.patch_us", "tvq.process_us_per_batch", "tvq.self_us_per_batch",
		"reorder.push_ns_per_frame", "snapshot.encode_ms", "snapshot.bytes",
		"vr.decode_ns_per_frame", "vr.wire_bytes_per_frame", "bench.self_us_per_frame", "trace.spans",
	},
	"churn-fanout": {
		"core.ssg.ns_per_frame", "engine.group_us_per_frame", "engine.self_us_per_frame",
		"query.eval_ns_per_frame", "query.matches_per_state", "query.patch_us",
		"tvq.process_us_per_batch", "tvq.sink_ns_per_delivery", "tvq.deliveries_per_frame",
		"reorder.push_ns_per_frame", "reorder.depth_max", "snapshot.encode_ms", "snapshot.bytes",
		"vr.decode_ns_per_frame", "trace.spans",
	},
	"serve-live": {
		"core.ssg.ns_per_frame", "engine.group_us_per_frame", "engine.self_us_per_frame",
		"vr.decode_ns_per_frame", "vr.wire_bytes_per_frame",
		"server.handler_us_per_req", "server.self_us_per_req", "server.wait_us_per_req", "server.stream_lag_us",
		"serve.gen_lag_ms", "serve.deliver_p99_ms.s1", "serve.deliver_p99_ms.s2",
		"tvq.deliveries_per_frame", "trace.spans",
	},
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig()
			var report strings.Builder
			cfg.log = &report
			res, err := run(w, cfg, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, res, e2eMetrics, nil)
			for _, m := range append(reportOnly, struct{ name, unit string }{"failed_share", "ratio"}) {
				if !strings.Contains(report.String(), m.name) || !strings.Contains(report.String(), " "+m.unit) {
					t.Errorf("report lacks %s in %s", m.name, m.unit)
				}
			}

			res, err = run(w, smallConfig(), true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed its output check")
			}
			checkMetrics(t, res, layerMetrics, layersOn[w.name])
		})
	}
}

// checkMetrics asserts that res carries exactly the named metrics, each
// with its unit; every end-to-end metric, and each name in nonZero,
// must be positive.
func checkMetrics(t *testing.T, res *result, want []struct{ name, unit string }, nonZero []string) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("metric %s: unit %q, want %q", m.name, got.Unit, m.unit)
		}
		if nonZero == nil && got.Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
		}
	}
	for _, name := range nonZero {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

// A single corrupted delivery must fail the output check on every
// workload.
func TestCorruptedDeliveryFailsCheck(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.corrupt = 5
			res, err := run(w, cfg, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted delivery passed the check: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// A handler that stalls one ingest request of the reference step must
// show in deliver_p99_ms and serve.gen_lag_ms: requests are timed from
// when they were due, so the requests queued behind the stall carry
// it.
func TestServeStallShowsInLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	w, _ := findWorkload("serve-live")
	measure := func(cfg config) *outcome {
		r, err := w.prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		o, err := r.measure(nil, cfg.seconds)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("run failed %d operations: %s", o.failed, o.mismatch)
		}
		return o
	}
	calm := measure(smallConfig())

	cfg := smallConfig()
	// The small run's first step sends 2 feeds × 30 frames, so the
	// 80th frame request falls in the second, reference step.
	var posts atomic.Int32
	cfg.wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/frames") && posts.Add(1) == 80 {
				time.Sleep(stall)
			}
			h.ServeHTTP(w, r)
		})
	}
	stalled := measure(cfg)

	for _, name := range []string{"deliver_p99_ms", "serve.gen_lag_ms"} {
		got := stalled.metrics[name]
		if got < float64(stall.Milliseconds())/2 || got <= calm.metrics[name] {
			t.Errorf("%s = %.3fms with a %v stall (%.3fms without): the stall is hidden", name, got, stall, calm.metrics[name])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCoverage(t *testing.T) {
	// [0,10] with children [2,4], [3,6], [8,12]: covered 4 + 2 (clipped).
	if got := coverage([][2]int64{{8, 12}, {2, 4}, {3, 6}}, 0, 10); got != 6 {
		t.Fatalf("coverage = %d, want 6", got)
	}
}
