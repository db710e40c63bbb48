package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"tvq"
	"tvq/internal/bench"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/query"
	"tvq/internal/reorder"
	"tvq/internal/vr"
)

// Direct layer drives for the traced run: each calls one module's
// public functions over the workload's own inputs, outside any session,
// so that a layer's cost and work counts are measured where they arise.

// metered is a generator with work counters.
type metered interface {
	core.Generator
	Metrics() core.Metrics
}

// classFilter returns frames reduced to the classes the queries ask
// about — the frames the engine hands its generators — each a fresh set
// the generator may keep.
func classFilter(frames []vr.Frame, keep map[vr.Class]bool) []vr.Frame {
	out := make([]vr.Frame, len(frames))
	var ids []objset.ID
	for i, f := range frames {
		ids = ids[:0]
		f.Objects.Range(func(id objset.ID) bool {
			if keep[f.Classes[id]] {
				ids = append(ids, id)
			}
			return true
		})
		out[i] = vr.Frame{FID: f.FID, Objects: objset.FromSorted(append([]objset.ID(nil), ids...)), Classes: f.Classes, Owned: true}
	}
	return out
}

// driveCore runs Naive, MFS and SSG over the same class-filtered frames
// with the queries' window and minimum duration, and evaluates the
// queries over SSG's result states with a query.Evaluator.
func driveCore(o *outcome, frames []vr.Frame, queries []tvq.Query) error {
	ev, err := query.NewEvaluator(vr.StandardRegistry(), queries)
	if err != nil {
		return err
	}
	filtered := classFilter(frames, ev.Classes())
	cfg := core.Config{Window: ev.Window(), Duration: ev.MinDuration()}
	var classOf func(objset.ID) vr.Class
	if len(frames) > 0 {
		classes := frames[0].Classes
		classOf = func(id objset.ID) vr.Class { return classes[id] }
	}
	n := float64(len(filtered))
	for _, g := range []struct {
		name string
		gen  metered
	}{
		{"naive", core.NewNaive(cfg)},
		{"mfs", core.NewMFS(cfg)},
		{"ssg", core.NewSSG(cfg)},
	} {
		evaluate := g.name == "ssg"
		var genNs, evalNs int64
		var states, matches int
		for _, f := range filtered {
			t0 := nanotime()
			res := g.gen.Process(f)
			t1 := nanotime()
			genNs += t1 - t0
			if evaluate {
				ms := ev.EvaluateStates(res, classOf)
				evalNs += nanotime() - t1
				states += len(res)
				matches += len(ms)
			}
		}
		m := g.gen.Metrics()
		p := "core." + g.name + "."
		o.set(p+"ns_per_frame", float64(genNs)/n)
		o.set(p+"intersections_per_frame", float64(m.Intersections)/n)
		o.set(p+"states_visited_per_frame", float64(m.StatesVisited)/n)
		if m.Intersections > 0 {
			o.set(p+"ns_per_intersection", float64(genNs)/float64(m.Intersections))
		}
		o.set(p+"states_created_per_frame", float64(m.StatesCreated)/n)
		o.set(p+"live_states", float64(g.gen.StateCount()))
		if evaluate {
			o.set("query.eval_ns_per_frame", float64(evalNs)/n)
			if states > 0 {
				o.set("query.matches_per_state", float64(matches)/float64(states))
			}
		}
	}
	return nil
}

// driveReorder pushes a bounded shuffle of frames through a
// reorder.Buffer with the drop policy. Workloads whose own input is a
// shuffle pass it in; others shuffle theirs with the churn bound.
func driveReorder(o *outcome, arrivals []vr.Frame, bound int) error {
	b := reorder.New(bound, reorder.Drop, 0)
	var out []vr.Frame
	depth := 0
	var err error
	t0 := nanotime()
	for _, f := range arrivals {
		if out, err = b.Push(f, out[:0]); err != nil {
			return fmt.Errorf("reorder push of frame %d: %w", f.FID, err)
		}
		depth = max(depth, b.Depth())
	}
	o.set("reorder.push_ns_per_frame", float64(nanotime()-t0)/float64(len(arrivals)))
	o.set("reorder.depth_max", float64(depth))
	o.set("reorder.late_frames", float64(b.LateCount()))
	return nil
}

// shuffled is reorder.Shuffle with a seeded source.
func shuffled(frames []vr.Frame, bound int, seed int64) []vr.Frame {
	return reorder.Shuffle(frames, bound, rand.New(rand.NewSource(seed)))
}

// encodeFrames pre-encodes a trace as one binary batch per frame, the
// way a camera uplink ships frames.
func encodeFrames(t *vr.Trace) ([][]byte, error) {
	batches, _, err := bench.EncodeBatches(t, vr.Binary, vr.StandardRegistry(), 1)
	return batches, err
}

// driveDecode decodes one-frame binary batches with vr's FrameReader.
func driveDecode(o *outcome, batches [][]byte) error {
	reg := vr.StandardRegistry()
	var wire int
	t0 := nanotime()
	for i, b := range batches {
		if _, err := vr.Binary.NewFrameReader(bytes.NewReader(b), reg).Next(); err != nil && err != io.EOF {
			return fmt.Errorf("decode batch %d: %w", i, err)
		}
		wire += len(b)
	}
	n := float64(len(batches))
	o.set("vr.decode_ns_per_frame", float64(nanotime()-t0)/n)
	o.set("vr.wire_bytes_per_frame", float64(wire)/n)
	return nil
}

// patchRounds is how many Subscribe+Cancel pairs drivePatch times.
const patchRounds = 64

// drivePatch times Subscribe plus Cancel on a session carrying the
// workload's queries after it has seen prefix, with a query shaped like
// one of them, and times one Session.Snapshot into memory.
func drivePatch(o *outcome, prefix []vr.Frame, queries []tvq.Query) error {
	s, err := tvq.Open(context.Background(), tvq.WithQueries(queries...))
	if err != nil {
		return err
	}
	defer s.Close()
	for _, f := range prefix {
		if _, err := s.Process([]tvq.FeedFrame{{Frame: f}}); err != nil {
			return err
		}
	}
	probe := queries[0]
	var total time.Duration
	for i := 0; i < patchRounds; i++ {
		probe.ID = 1 << 20
		t0 := time.Now()
		sub, err := s.Subscribe(probe)
		if err != nil {
			return err
		}
		if err := sub.Cancel(); err != nil {
			return err
		}
		total += time.Since(t0)
		// Cancellation completes at the next Process; an empty batch
		// applies it without moving the cursor.
		if _, err := s.Process(nil); err != nil {
			return err
		}
	}
	o.set("query.patch_us", float64(total)/1e3/patchRounds)
	return driveSnapshot(o, s)
}

// driveSnapshot times one Session.Snapshot into memory.
func driveSnapshot(o *outcome, s *tvq.Session) error {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := s.Snapshot(&buf); err != nil {
		return err
	}
	o.set("snapshot.encode_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	o.set("snapshot.bytes", float64(buf.Len()))
	return nil
}
