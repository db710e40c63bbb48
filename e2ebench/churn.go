package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tvq"
	"tvq/internal/bench"
	"tvq/internal/cnf"
	"tvq/internal/reorder"
	"tvq/internal/vr"
)

// churn-fanout: the V2 profile (1700 frames, 6.3 occlusions/object) as
// a bounded shuffle (reorder.Shuffle, bound churnBound) fed one frame
// per call to a session opened with WithDisorderBound(churnBound) and
// the drop policy. It serves churnSubs standing subscriptions drawn
// from a churnShapes-shape catalog of low-threshold ≥ bodies (window
// 90), each delivering to a counting SinkFunc. Every churnEvery
// dispatched frames the benchmark cancels one subscription, subscribes
// a new one and writes Session.Snapshot into memory.
//
// Why: query evaluation and delivery dominate. With 100 such
// subscriptions on V2 a probe measured 2.06 s of evaluation against
// 0.44 s of generation, producing 2.2 M matches. It is also the only
// workload that exercises reorder, snapshot and plan patching, so
// writes (Subscribe/Cancel, snapshots) run beside reads (evaluation).
//
// Thresholds 2-4 and duration 45 keep one clip near a second of work.
// Match volume, and with it cost, varies several-fold between scenes
// and between randomly drawn catalogs, so both are fixed: a corpus of
// churnClips clips (scene seeds 1..churnClips) weighted equally, and a
// catalog drawn once from churnCatalogSeed with every shape standing
// churnSubs/churnShapes times. The run seed draws the order of clips
// and subscriptions, the shuffles and the churn schedule.
const (
	churnClips    = 4
	churnSubs     = 256
	churnShapes   = 64
	churnWindow   = 90
	churnDuration = 45
	churnBound    = 8
	churnEvery    = 50
	// churnCatalogSeed fixes the shape catalog, part of the workload's
	// definition like its profile.
	churnCatalogSeed = 64
)

// churnEvent is one scheduled churn step.
type churnEvent struct {
	after  int   // arrival index after whose Process call the step runs
	cursor int64 // frames dispatched to the engine by then
	cancel int   // query id cancelled
	add    tvq.Query
}

type churnClip struct {
	trace    *vr.Trace
	arrivals []tvq.FeedFrame
	shuffled []vr.Frame
	events   []churnEvent
	// released[fid] is the arrival whose Process call dispatched frame
	// fid to the engine.
	released []int
	rec      *recorder
}

type churnRunner struct {
	cfg     config
	queries []tvq.Query
	clips   []churnClip
	ref     [][]digest
	refN    []int64
	open    *tvq.Session
}

// churnCatalog draws the subscription shapes: one to two clauses of one
// to two ≥ conditions with thresholds 2-4.
func churnCatalog(rng *rand.Rand) [][]cnf.Disjunction {
	labels := []string{"person", "car", "truck", "bus"}
	shapes := make([][]cnf.Disjunction, churnShapes)
	for s := range shapes {
		for c := 1 + rng.Intn(2); c > 0; c-- {
			var d cnf.Disjunction
			for j := 1 + rng.Intn(2); j > 0; j-- {
				d = append(d, cnf.Condition{Label: labels[rng.Intn(len(labels))], Op: cnf.GE, N: 2 + rng.Intn(3)})
			}
			shapes[s] = append(shapes[s], d)
		}
	}
	return shapes
}

func prepareChurn(cfg config) (runner, error) {
	clips, subs, scale := churnClips, churnSubs, 1
	if cfg.small {
		clips, subs, scale = 2, 32, 4
	}
	shapes := churnCatalog(rand.New(rand.NewSource(churnCatalogSeed)))
	rng := rand.New(rand.NewSource(cfg.seed))
	query := func(id, shape int) tvq.Query {
		return tvq.Query{ID: id, Window: churnWindow, Duration: churnDuration, Clauses: shapes[shape]}
	}
	r := &churnRunner{cfg: cfg}
	for i, shape := range rng.Perm(subs) {
		r.queries = append(r.queries, query(i+1, shape%len(shapes)))
	}
	nextID := subs + 1
	var traces []*vr.Trace
	for _, i := range rng.Perm(clips) {
		ds, err := bench.Config{Seed: int64(i + 1), Scale: scale}.LoadDataset("V2")
		if err != nil {
			return nil, err
		}
		c := churnClip{trace: ds.Trace, rec: newRecorder(ds.Trace.Len()), released: make([]int, ds.Trace.Len())}
		c.shuffled = shuffled(ds.Trace.Frames(), churnBound, rng.Int63())
		c.arrivals = feedFrames(c.shuffled)

		// The schedule is fixed by the arrival order: a reorder.Buffer
		// replays the session's reorder stage to find after which
		// arrival each churnEvery-th frame is dispatched.
		live := make([]int, 0, subs)
		for _, q := range r.queries {
			live = append(live, q.ID)
		}
		b := reorder.New(churnBound, reorder.Drop, 0)
		var out []vr.Frame
		var cursor int64
		next := int64(churnEvery)
		for j, f := range c.shuffled {
			if out, err = b.Push(f, out[:0]); err != nil {
				return nil, fmt.Errorf("churn schedule: %w", err)
			}
			for _, f := range out {
				c.released[f.FID] = j
			}
			cursor += int64(len(out))
			if cursor < next {
				continue
			}
			victim := rng.Intn(len(live))
			ev := churnEvent{after: j, cursor: cursor, cancel: live[victim], add: query(nextID, rng.Intn(len(shapes)))}
			live[victim] = nextID
			nextID++
			c.events = append(c.events, ev)
			next = (cursor/churnEvery + 1) * churnEvery
		}
		traces = append(traces, ds.Trace)
		r.clips = append(r.clips, c)
	}
	var err error
	r.ref, r.refN, err = parallelReference(traces, func(i int, t *vr.Trace) ([]digest, error) {
		return referenceDigests(t.Frames(), r.queries, r.clips[i].events, nil)
	})
	return r, err
}

func (r *churnRunner) measure(tr *tracer, d time.Duration) (*outcome, error) {
	o := newOutcome()
	k := len(r.clips)
	arrivals := make([][]tvq.FeedFrame, k)
	for i, c := range r.clips {
		arrivals[i] = c.arrivals
	}
	log := newPassLog(arrivals)
	var setup, ingest, deliver, heap []float64
	var patchNs, snapNs, snapBytes, churns int64
	opts := []tvq.Option{tvq.WithDisorderBound(churnBound), tvq.WithLatePolicy(tvq.LateDrop)}
	if tr != nil {
		opts = append(opts, tr.observer())
	}
	var snap bytes.Buffer
	start := time.Now()
	for pass := 0; !log.covered() || time.Since(start) < d; pass++ {
		i := pass % k
		c := r.clips[i]
		r.close()
		runtime.GC()
		rec := c.rec
		rec.reset()
		rec.timed = tr != nil
		rec.corrupt = 0
		if pass == 0 {
			rec.corrupt = r.cfg.corrupt
		}
		arrived := make([]int64, len(c.arrivals))
		returned := make([]int64, len(c.arrivals))

		w0 := nanotime()
		s, err := tvq.Open(context.Background(), opts...)
		if err != nil {
			return nil, err
		}
		r.open = s
		subs := make(map[int]*tvq.Subscription, len(r.queries))
		for _, q := range r.queries {
			sub, err := s.Subscribe(q, tvq.WithSink(rec.sink()))
			if err != nil {
				return nil, err
			}
			subs[q.ID] = sub
		}
		setup = append(setup, float64(nanotime()-w0)/1e9)

		next := 0
		var procNs int64
		for j := range c.arrivals {
			fid := c.arrivals[j].Frame.FID
			fs, ps := int32(-1), int32(-1)
			if tr != nil {
				fs = tr.begin("bench.frame", -1, fid)
				ps = tr.begin("tvq.Process", fs, fid)
				tr.cur.Store(ps)
				tr.req.Store(fid)
				rec.firstNs = 0
			}
			t0 := nanotime()
			if _, err := s.Process(c.arrivals[j : j+1]); err != nil {
				return nil, fmt.Errorf("clip %d arrival %d: %w", i, j, err)
			}
			t1 := nanotime()
			if tr != nil {
				tr.end(ps)
				if rec.firstNs != 0 {
					tr.add("tvq.deliver", rec.firstNs, rec.lastNs, ps, fid)
				}
				tr.end(fs)
			}
			arrived[fid] = t0
			returned[j] = t1
			procNs += t1 - t0
			ingest = append(ingest, float64(t1-t0)/1e6)

			for next < len(c.events) && c.events[next].after == j {
				ev := c.events[next]
				next++
				ps := tr.begin("query.patch", -1, fid)
				p0 := nanotime()
				if err := subs[ev.cancel].Cancel(); err != nil {
					return nil, err
				}
				delete(subs, ev.cancel)
				sub, err := s.Subscribe(ev.add, tvq.WithSink(rec.sink()))
				if err != nil {
					return nil, err
				}
				subs[ev.add.ID] = sub
				p1 := nanotime()
				tr.end(ps)
				ss := tr.begin("snapshot.encode", -1, fid)
				snap.Reset()
				if err := s.Snapshot(&snap); err != nil {
					return nil, err
				}
				snapNs += nanotime() - p1
				tr.end(ss)
				patchNs += p1 - p0
				snapBytes += int64(snap.Len())
				churns++
			}
		}
		wallNs := nanotime() - w0
		heap = append(heap, heapLiveMB())
		// A frame's result is complete at its last delivery, or, when it
		// matched nothing, at the return of the call that dispatched it.
		d0 := len(deliver)
		for fid, last := range rec.last {
			if last == 0 {
				last = returned[c.released[fid]]
			}
			deliver = append(deliver, float64(last-arrived[fid])/1e6)
		}
		log.add(i, procNs, wallNs, deliver[d0:])

		bad, first := compareDigests(r.ref[i], rec.dig, func(f int) string {
			return fmt.Sprintf("clip %d frame %d", i, f)
		})
		o.fail(bad, first)
		if late := s.LateFrames(); late > 0 {
			o.fail(int64(late), fmt.Sprintf("clip %d: %d frames dropped as late", i, late))
		}
		o.attempted += int64(len(c.arrivals)) + r.refN[i] + int64(len(c.events))
		if tr != nil {
			tr.count("frames", float64(len(c.arrivals)))
			tr.count("deliveries", float64(rec.n))
			tr.count("sink_ns", float64(rec.sinkNs))
			rec.sinkNs = 0
		}
	}

	o.set("setup_s", median(setup))
	log.report(o)
	_, p99 := tail(o, "deliver (frame arrival to its last sink delivery or, without matches, the return of the call that dispatched it)", deliver)
	o.set("deliver_p99_ms", p99)
	_, p99 = tail(o, "ingest (Process call, one arrival)", ingest)
	o.set("ingest_p99_ms", p99)
	o.set("heap_live_mb", median(heap))
	if churns > 0 {
		o.set("query.patch_us", float64(patchNs)/float64(churns)/1e3)
		o.set("snapshot.encode_ms", float64(snapNs)/float64(churns)/1e6)
		o.set("snapshot.bytes", float64(snapBytes)/float64(churns))
	}
	o.note("%d passes over %d clips in %.1fs; %d churn steps", log.passes(), k, time.Since(start).Seconds(), churns)
	return o, nil
}

func (r *churnRunner) drive(o *outcome) error {
	c := r.clips[0]
	if err := driveCore(o, c.trace.Frames(), r.queries); err != nil {
		return err
	}
	if err := driveReorder(o, c.shuffled, churnBound); err != nil {
		return err
	}
	batches, err := encodeFrames(c.trace)
	if err != nil {
		return err
	}
	return driveDecode(o, batches)
}

func (r *churnRunner) close() {
	if r.open != nil {
		r.open.Close()
		r.open = nil
	}
}
