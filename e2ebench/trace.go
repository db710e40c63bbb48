package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tvq"
)

// maxSpans bounds the tracer's memory; spans beyond it are counted and
// dropped.
const maxSpans = 4 << 20

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Req    int64  `json:"req"`    // frame or request id shared by one request's spans
}

// tracer keeps spans and counts in memory for the traced run and writes
// them out when the run ends. Spans are recorded around the benchmark's
// own calls into each layer; nothing inside the program is changed.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int64
	counts  map[string]float64

	// cur is the span of the call in flight into the session or
	// handler, and req its request id: engine observer callbacks, which
	// know neither, attach their group spans there.
	cur atomic.Int32
	req atomic.Int64
	// outer is the client-side span of the HTTP request in flight, the
	// parent of the handler span the server side records.
	outer atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{counts: make(map[string]float64)}
	t.cur.Store(-1)
	t.outer.Store(-1)
	return t
}

// begin opens a span and returns its index (-1 once full). Like every
// recording method it does nothing on a nil tracer, the untraced run.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	return t.add(name, nanotime(), 0, parent, req)
}

// end closes a span begun with begin.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := nanotime()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose bounds are already known.
func (t *tracer) add(name string, start, end int64, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// count adds v to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// observer is the engine's WithObserver hook in traced runs: each
// window group's generator-plus-evaluation time becomes an
// engine.group span under the call in flight.
func (t *tracer) observer() tvq.Option {
	return tvq.WithObserver(func(st tvq.ProcessStat) {
		end := nanotime()
		t.add("engine.group", end-int64(st.Elapsed), end, t.cur.Load(), t.req.Load())
	})
}

// spanStats aggregates all spans of one name.
type spanStats struct {
	n           int64
	total, self time.Duration
}

// stats derives, per span name, the count, total time and self time —
// a span's duration minus the part of it its child spans cover.
func (t *tracer) stats() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]spanStats)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		dur := s.End - s.Start
		covered := coverage(children[int32(i)], s.Start, s.End)
		st := out[s.Name]
		st.n++
		st.total += time.Duration(dur)
		st.self += time.Duration(dur - covered)
		out[s.Name] = st
	}
	return out
}

// coverage is the length of the union of intervals, clipped to
// [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// derive turns the recorded spans and counts into per-layer metrics.
func (t *tracer) derive(o *outcome) {
	st := t.stats()
	t.mu.Lock()
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	nspans := len(t.spans)
	dropped := t.dropped
	t.mu.Unlock()

	perN := func(d time.Duration, n float64, unit time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(unit) / n
	}
	frames := counts["frames"]
	group := st["engine.group"]
	o.set("engine.group_us_per_frame", perN(group.total, frames, time.Microsecond))
	// The engine's self time is its caller's span — Session.Process in
	// process, the tvqd handler when served — minus the group time.
	// tvq.Process's own self time also leaves out sink delivery.
	caller := st["tvq.Process"].self + st["tvq.deliver"].total
	if p := st["server.handler"]; p.n > 0 {
		caller = p.self
	}
	o.set("engine.self_us_per_frame", perN(caller, frames, time.Microsecond))
	if p := st["tvq.Process"]; p.n > 0 {
		o.set("tvq.process_us_per_batch", perN(p.total, float64(p.n), time.Microsecond))
		o.set("tvq.self_us_per_batch", perN(p.self, float64(p.n), time.Microsecond))
	}
	if d := counts["deliveries"]; d > 0 {
		o.set("tvq.sink_ns_per_delivery", counts["sink_ns"]/d)
	}
	o.set("tvq.deliveries_per_frame", perN(time.Duration(counts["deliveries"]), frames, 1))
	if f := st["bench.frame"]; f.n > 0 {
		o.set("bench.self_us_per_frame", perN(f.self, float64(f.n), time.Microsecond))
	}
	if h := st["server.handler"]; h.n > 0 {
		o.set("server.handler_us_per_req", perN(h.total, float64(h.n), time.Microsecond))
		o.set("server.self_us_per_req", perN(h.self, float64(h.n), time.Microsecond))
	}
	if r := st["server.request"]; r.n > 0 {
		o.set("server.wait_us_per_req", perN(r.self, float64(r.n), time.Microsecond))
	}
	o.set("trace.spans", float64(nspans))
	for _, name := range sortedKeys(st) {
		s := st[name]
		o.note("span %-16s n=%-8d total=%-12v self=%v", name, s.n, s.total, s.self)
	}
	if dropped > 0 {
		o.note("tracer dropped %d spans beyond its %d-span buffer", dropped, maxSpans)
	}
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
