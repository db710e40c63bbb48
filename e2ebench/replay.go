package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tvq"
	"tvq/internal/bench"
	"tvq/internal/vr"
)

// replay-dense: the M2 Table-6 profile (750 frames, 186 objects, 11.4
// objects/frame) under 30 MixedWorkload queries with the §6.2 window 300
// and duration 240, through one in-process tvq.Session with the default
// method (SSG), single feed, no HTTP, one frame per Process call.
//
// Why: the MCOS generator does almost all of the work. On the seed-1
// clip SSG's Process took 761 ms of 776 ms of engine time and query
// evaluation 3.5 ms, so this is the workload where work on the SSG
// inversion must show (frames_per_sec), and where query or server
// changes must not move anything.
//
// Generator cost varies about ±35% between M2 clips of different scene
// seeds — more than any bound worth gating on — so the scenes are a
// fixed corpus of replayClips clips (scene seeds 1..replayClips), each
// weighted equally, and the run seed draws the query set and the order
// in which the clips are replayed.
const (
	replayClips    = 8
	replayQueries  = 30
	replayWindow   = bench.DefaultWindow
	replayDuration = bench.DefaultDuration
)

type replayRunner struct {
	cfg     config
	queries []tvq.Query
	traces  []*vr.Trace
	clips   [][]tvq.FeedFrame
	recs    []*recorder
	ref     [][]digest
	refN    []int64
	open    *tvq.Session // the last pass's session, kept open for heap_live_mb
}

func prepareReplay(cfg config) (runner, error) {
	clips, scale := replayClips, 1
	if cfg.small {
		clips, scale = 2, 8
	}
	r := &replayRunner{
		cfg:     cfg,
		queries: bench.MixedWorkload(replayQueries, replayWindow/scale, replayDuration/scale, cfg.seed),
	}
	for _, i := range rand.New(rand.NewSource(cfg.seed)).Perm(clips) {
		ds, err := bench.Config{Seed: int64(i + 1), Scale: scale}.LoadDataset("M2")
		if err != nil {
			return nil, err
		}
		r.traces = append(r.traces, ds.Trace)
		r.clips = append(r.clips, feedFrames(ds.Trace.Frames()))
		r.recs = append(r.recs, newRecorder(ds.Trace.Len()))
	}
	var err error
	r.ref, r.refN, err = parallelReference(r.traces, func(_ int, t *vr.Trace) ([]digest, error) {
		return referenceDigests(t.Frames(), r.queries, nil, nil)
	})
	return r, err
}

// feedFrames wraps frames of feed 0 for Session.Process.
func feedFrames(frames []vr.Frame) []tvq.FeedFrame {
	out := make([]tvq.FeedFrame, len(frames))
	for i, f := range frames {
		out[i] = tvq.FeedFrame{Frame: f}
	}
	return out
}

// parallelReference computes one reference per trace on up to nproc
// goroutines (outside any timed region) and returns the digests with
// each reference's delivery count.
func parallelReference(traces []*vr.Trace, ref func(i int, t *vr.Trace) ([]digest, error)) ([][]digest, []int64, error) {
	out := make([][]digest, len(traces))
	counts := make([]int64, len(traces))
	errs := make([]error, len(traces))
	sem := make(chan struct{}, runtime.NumCPU())
	var wg sync.WaitGroup
	for i, t := range traces {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = ref(i, t)
			for _, d := range out[i] {
				counts[i] += d.n
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("reference: %w", err)
		}
	}
	return out, counts, nil
}

func (r *replayRunner) measure(tr *tracer, d time.Duration) (*outcome, error) {
	o := newOutcome()
	k := len(r.clips)
	log := newPassLog(r.clips)
	var setup, ingest, deliver, heap []float64
	var opts []tvq.Option
	if tr != nil {
		opts = append(opts, tr.observer())
	}
	start := time.Now()
	for pass := 0; !log.covered() || time.Since(start) < d; pass++ {
		i := pass % k
		r.close()
		runtime.GC()
		rec := r.recs[i]
		rec.reset()
		rec.timed = tr != nil
		rec.corrupt = 0
		if pass == 0 {
			rec.corrupt = r.cfg.corrupt
		}

		w0 := nanotime()
		s, err := tvq.Open(context.Background(), opts...)
		if err != nil {
			return nil, err
		}
		r.open = s
		for _, q := range r.queries {
			if _, err := s.Subscribe(q, tvq.WithSink(rec.sink())); err != nil {
				return nil, err
			}
		}
		setup = append(setup, float64(nanotime()-w0)/1e9)

		frames := r.clips[i]
		d0 := len(deliver)
		var procNs int64
		for fi := range frames {
			fs, ps := int32(-1), int32(-1)
			if tr != nil {
				fs = tr.begin("bench.frame", -1, int64(fi))
				ps = tr.begin("tvq.Process", fs, int64(fi))
				tr.cur.Store(ps)
				tr.req.Store(int64(fi))
				rec.firstNs = 0
			}
			t0 := nanotime()
			if _, err := s.Process(frames[fi : fi+1]); err != nil {
				return nil, fmt.Errorf("clip %d frame %d: %w", i, fi, err)
			}
			t1 := nanotime()
			if tr != nil {
				tr.end(ps)
				if rec.firstNs != 0 {
					tr.add("tvq.deliver", rec.firstNs, rec.lastNs, ps, int64(fi))
				}
				tr.end(fs)
			}
			procNs += t1 - t0
			ingest = append(ingest, float64(t1-t0)/1e6)
			// A frame's result is complete at its last delivery, or at the
			// call's return when it matched nothing.
			if last := rec.last[fi]; last != 0 {
				deliver = append(deliver, float64(last-t0)/1e6)
			} else {
				deliver = append(deliver, float64(t1-t0)/1e6)
			}
		}
		log.add(i, procNs, nanotime()-w0, deliver[d0:])
		heap = append(heap, heapLiveMB())

		bad, first := compareDigests(r.ref[i], rec.dig, func(f int) string {
			return fmt.Sprintf("clip %d frame %d", i, f)
		})
		o.fail(bad, first)
		o.attempted += int64(len(frames)) + r.refN[i]
		if tr != nil {
			tr.count("frames", float64(len(frames)))
			tr.count("deliveries", float64(rec.n))
			tr.count("sink_ns", float64(rec.sinkNs))
			rec.sinkNs = 0
		}
	}

	o.set("setup_s", median(setup))
	log.report(o)
	_, p99 := tail(o, "deliver (Process call to the frame's last sink delivery or, without matches, the call's return)", deliver)
	o.set("deliver_p99_ms", p99)
	_, p99 = tail(o, "ingest (Process call, one frame)", ingest)
	o.set("ingest_p99_ms", p99)
	o.set("heap_live_mb", median(heap))
	o.note("%d passes over %d clips in %.1fs; setup n=%d", log.passes(), k, time.Since(start).Seconds(), len(setup))
	return o, nil
}

func (r *replayRunner) drive(o *outcome) error {
	frames := r.traces[0].Frames()
	if err := driveCore(o, frames, r.queries); err != nil {
		return err
	}
	if err := driveReorder(o, shuffled(frames, churnBound, r.cfg.seed), churnBound); err != nil {
		return err
	}
	batches, err := encodeFrames(r.traces[0])
	if err != nil {
		return err
	}
	if err := driveDecode(o, batches); err != nil {
		return err
	}
	return drivePatch(o, frames, r.queries)
}

func (r *replayRunner) close() {
	if r.open != nil {
		r.open.Close()
		r.open = nil
	}
}

// heapLiveMB is the live heap after a full collection, in MiB. Runs
// report the median over their passes or steps, each taken with its
// session still open.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// minPasses is how many passes the closed loops make over every clip
// at least, so that each clip's median pass discards a pass the shared
// machine slowed: pass-to-pass rates of one clip varied by up to 20%
// within a run.
const minPasses = 3

// passLog keeps the closed loops' per-clip pass times. A clip counts
// with its median pass, and every clip weighs the same.
type passLog struct {
	frames     []int
	proc, wall [][]float64 // per clip, per pass, seconds
	p50        []float64   // per pass, median delivery latency in ms
}

func newPassLog(clips [][]tvq.FeedFrame) *passLog {
	l := &passLog{proc: make([][]float64, len(clips)), wall: make([][]float64, len(clips))}
	for _, c := range clips {
		l.frames = append(l.frames, len(c))
	}
	return l
}

// add records one pass over clip i: time in Process, wall time of the
// whole pass, and the pass's delivery latencies.
func (l *passLog) add(i int, procNs, wallNs int64, deliver []float64) {
	l.proc[i] = append(l.proc[i], float64(procNs)/1e9)
	l.wall[i] = append(l.wall[i], float64(wallNs)/1e9)
	l.p50 = append(l.p50, median(deliver))
}

// covered reports whether every clip has had minPasses passes.
func (l *passLog) covered() bool {
	for _, p := range l.proc {
		if len(p) < minPasses {
			return false
		}
	}
	return true
}

func (l *passLog) passes() int { return len(l.p50) }

// report sets frames_per_sec, sustained_fps and deliver_p50_ms: frames
// over the sum of the clips' median pass times, in Process and in wall
// time, and the median of the passes' median delivery latencies.
func (l *passLog) report(o *outcome) {
	var frames, proc, wall float64
	for i, n := range l.frames {
		frames += float64(n)
		proc += median(l.proc[i])
		wall += median(l.wall[i])
	}
	o.set("frames_per_sec", frames/proc)
	o.set("sustained_fps", frames/wall)
	o.set("deliver_p50_ms", median(l.p50))
	o.note("deliver_p50_ms: median of %d passes' medians", len(l.p50))
}
