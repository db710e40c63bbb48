package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/vr"
)

func TestFrameListInsert(t *testing.T) {
	var fl frameList
	if !fl.insert(5, false) {
		t.Fatal("first insert reported duplicate")
	}
	if !fl.insert(9, true) {
		t.Fatal("tail insert reported duplicate")
	}
	if fl.insert(5, true) {
		t.Fatal("duplicate insert reported new")
	}
	// Mid-list insert.
	if !fl.insert(7, true) {
		t.Fatal("mid insert reported duplicate")
	}
	want := []vr.FrameID{5, 7, 9}
	got := fl.fids()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fids = %v", got)
		}
	}
	if fl.marks != 2 {
		t.Errorf("marks = %d, want 2 (7 and 9)", fl.marks)
	}
	if !fl.contains(7) || fl.contains(6) {
		t.Error("contains wrong")
	}
}

func TestFrameListExpire(t *testing.T) {
	var fl frameList
	fl.insert(1, true)
	fl.insert(2, false)
	fl.insert(3, true)
	fl.expireBefore(3)
	if fl.len() != 1 || fl.marks != 1 {
		t.Fatalf("after expire: len=%d marks=%d", fl.len(), fl.marks)
	}
	fl.expireBefore(10)
	if fl.len() != 0 || fl.marks != 0 || fl.hasMarks() {
		t.Fatalf("after full expire: len=%d marks=%d", fl.len(), fl.marks)
	}
	// Expiring an empty list is a no-op.
	fl.expireBefore(20)
}

// TestFrameListFirstMirrorsHead drives frame lists through random
// sequences of tail and mid-list inserts, expiries, pool recycling and
// snapshot round trips, and requires first == entries[0].fid whenever
// the list is non-empty: expireBefore trusts first to skip lists with
// nothing to expire.
func TestFrameListFirstMirrorsHead(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var pool statePool
	s := pool.get()
	var lo vr.FrameID // everything below lo has been expired
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 5:
			s.frames.insert(lo+vr.FrameID(r.Intn(12)), r.Intn(2) == 0)
		case op < 8:
			lo += vr.FrameID(r.Intn(4))
			s.frames.expireBefore(lo)
		case op < 9:
			pool.put(s)
			s = pool.get()
		default:
			var w snapshot.Writer
			s.Objects = objset.New(1)
			encodeState(&w, s)
			rd := snapshot.NewReader(w.Bytes())
			s = decodeState(rd)
			if err := rd.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if e := s.frames.entries; len(e) > 0 && s.frames.first != e[0].fid {
			t.Fatalf("step %d: first = %d, entries start at %d (%s)", step, s.frames.first, e[0].fid, s.frames.String())
		}
		for _, e := range s.frames.entries {
			if e.fid < lo {
				t.Fatalf("step %d: fid %d survived expiry before %d", step, e.fid, lo)
			}
		}
	}
}

func TestFrameListHashDistinguishesSets(t *testing.T) {
	var a, b frameList
	a.insert(1, false)
	a.insert(2, false)
	b.insert(1, false)
	if a.hash() == b.hash() {
		t.Error("different frame sets share a hash")
	}
	if a.sameFrames(&b) || b.sameFrames(&a) {
		t.Error("different frame sets compare equal")
	}
	var c frameList
	c.insert(1, true) // marks must not affect grouping
	c.insert(2, true)
	if a.hash() != c.hash() {
		t.Error("marks changed the frame-set hash")
	}
	if !a.sameFrames(&c) {
		t.Error("marks changed frame-set equality")
	}
	// {1,23} vs {12,3}-style prefix confusion must not collide.
	var d, e frameList
	d.insert(1, false)
	d.insert(23, false)
	e.insert(12, false)
	e.insert(3, false)
	if d.hash() == e.hash() {
		t.Error("hash collision between {1 23} and {3 12}")
	}
}

func TestFrameListString(t *testing.T) {
	var fl frameList
	fl.insert(1, true)
	fl.insert(2, false)
	if got := fl.String(); got != "{*1 2}" {
		t.Errorf("String = %q", got)
	}
}

// TestFoldInvariant checks the documented invariant of State.fold: the
// blocker set is always a subset of the intersection of all unmarked
// frames' object sets minus the state's objects.
func TestFoldInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		objects := objset.New(1, 2)
		s := &State{Objects: objects}
		window := map[vr.FrameID]objset.Set{}
		for fid := vr.FrameID(0); fid < 15; fid++ {
			// Random superset of {1,2}.
			ids := []objset.ID{1, 2}
			for j := 0; j < r.Intn(4); j++ {
				ids = append(ids, objset.ID(3+r.Intn(5)))
			}
			of := objset.New(ids...)
			window[fid] = of
			s.fold(fid, of)
		}
		// Recompute the true rest-closure over unmarked frames.
		marks := map[vr.FrameID]bool{}
		for _, m := range s.MarkedFrames() {
			marks[m] = true
		}
		first := true
		var closure objset.Set
		for _, fid := range s.Frames() {
			if marks[fid] {
				continue
			}
			if first {
				closure = window[fid]
				first = false
			} else {
				closure = closure.Intersect(window[fid])
			}
		}
		if first {
			// No unmarked frames: hasExtra must be false.
			return !s.hasExtra
		}
		trueExtra := closure.Minus(objects)
		// Invariant: extra ⊆ trueExtra, and extra nonempty (an unmarked
		// fold always leaves at least one blocker).
		return s.hasExtra && s.extra.SubsetOf(trueExtra) && !s.extra.IsEmpty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFoldMarksFramesEqualToObjects: a frame whose object set equals the
// state's kills everything and must always be marked (the principal-state
// rule of §4.3.1).
func TestFoldMarksFramesEqualToObjects(t *testing.T) {
	s := &State{Objects: objset.New(1, 2)}
	s.fold(0, objset.New(1, 2, 3)) // superset: unmarked, blockers {3}
	s.fold(1, objset.New(1, 2))    // exact: marked
	marks := s.MarkedFrames()
	if len(marks) != 1 || marks[0] != 1 {
		t.Fatalf("marks = %v, want [1]", marks)
	}
}

// TestFoldDuplicateFrameIsNoop folds a present frame again, including
// the newest one with object sets that would mark it or shrink the
// blockers if fold looked at them, and requires marks, blockers and
// hasExtra to stay as they were.
func TestFoldDuplicateFrameIsNoop(t *testing.T) {
	s := &State{Objects: objset.New(1)}
	s.fold(0, objset.New(1, 2))
	extra := s.extra
	s.fold(0, objset.New(1, 2))
	if s.FrameCount() != 1 || !s.extra.Equal(extra) {
		t.Error("duplicate fold changed state")
	}

	s = &State{Objects: objset.New(1)}
	s.fold(0, objset.New(1, 2, 3))
	s.fold(1, objset.New(1, 2, 4))
	marks, extra, entries := s.frames.marks, s.extra.Clone(), s.frames.String()
	for _, of := range []objset.Set{objset.New(1), objset.New(1, 5), objset.New(1, 2, 4)} {
		s.fold(1, of)
		if s.frames.marks != marks || !s.extra.Equal(extra) || !s.hasExtra || s.frames.String() != entries {
			t.Fatalf("re-fold of fid 1 with %v changed the state: marks %d→%d, extra %v→%v, frames %s→%s",
				of, marks, s.frames.marks, extra, s.extra, entries, s.frames.String())
		}
	}

	// Before any blockers exist: a re-fold with an exact object set must
	// not mark an unmarked frame, nor a wider one unmark a marked frame.
	u := &State{Objects: objset.New(1)}
	u.fold(0, objset.New(1, 2))
	u.fold(0, objset.New(1))
	if u.frames.marks != 0 || !u.hasExtra || !u.extra.Equal(objset.New(2)) {
		t.Fatalf("re-fold of fid 0 changed the state: %s extra %v", u, u.extra)
	}
	v := &State{Objects: objset.New(1)}
	v.fold(0, objset.New(1))
	v.fold(0, objset.New(1, 2))
	if v.frames.marks != 1 || v.hasExtra {
		t.Fatalf("re-fold of marked fid 0 changed the state: %s hasExtra %v", v, v.hasExtra)
	}
}

func TestEmitMaximalityFilter(t *testing.T) {
	// Two states with the same frame set: only the larger object set is
	// an MCOS.
	big := &State{Objects: objset.New(1, 2, 3)}
	small := &State{Objects: objset.New(1, 2)}
	for fid := vr.FrameID(0); fid < 3; fid++ {
		big.frames.insert(fid, true)
		small.frames.insert(fid, true)
	}
	out := (&emitter{}).emit([]*State{small, big}, 2, true)
	if len(out) != 1 || !out[0].Objects.Equal(big.Objects) {
		t.Fatalf("emit = %v", out)
	}
}

func TestEmitDurationAndValidity(t *testing.T) {
	ok := &State{Objects: objset.New(1)}
	ok.frames.insert(0, true)
	ok.frames.insert(1, false)

	short := &State{Objects: objset.New(2)}
	short.frames.insert(0, true)

	// Distinct frame set {0, 2} so the maximality filter does not group
	// it with ok's {0, 1}.
	unmarked := &State{Objects: objset.New(3)}
	unmarked.frames.insert(0, false)
	unmarked.frames.insert(2, false)

	terminated := &State{Objects: objset.New(4), terminated: true}
	terminated.frames.insert(0, true)
	terminated.frames.insert(1, true)

	em := &emitter{}
	out := em.emit([]*State{ok, short, unmarked, terminated}, 2, true)
	if len(out) != 1 || !out[0].Objects.Equal(objset.New(1)) {
		t.Fatalf("emit = %v", out)
	}
	// Without the marks requirement the unmarked state qualifies too.
	out = em.emit([]*State{ok, short, unmarked, terminated}, 2, false)
	if len(out) != 2 {
		t.Fatalf("emit without marks = %v", out)
	}
}

func TestEmitDeterministicOrder(t *testing.T) {
	var states []*State
	for i := 5; i > 0; i-- {
		s := &State{Objects: objset.New(objset.ID(i))}
		s.frames.insert(0, true)
		states = append(states, s)
	}
	out := (&emitter{}).emit(states, 0, true)
	for i := 1; i < len(out); i++ {
		if objset.Compare(out[i-1].Objects, out[i].Objects) >= 0 {
			t.Fatal("emit output not sorted")
		}
	}
}

func TestOracleRejectsBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config accepted")
		}
	}()
	NewOracle(Config{Window: -1})
}

func TestOracleOutOfOrderPanics(t *testing.T) {
	o := NewOracle(Config{Window: 3, Duration: 1})
	o.Process(vr.Frame{FID: 0, Objects: objset.New(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order accepted")
		}
	}()
	o.Process(vr.Frame{FID: 2, Objects: objset.New(1)})
}

func TestGeneratorNames(t *testing.T) {
	cfg := Config{Window: 3, Duration: 1}
	names := map[string]Generator{
		"NAIVE":  NewNaive(cfg),
		"MFS":    NewMFS(cfg),
		"SSG":    NewSSG(cfg),
		"ORACLE": NewOracle(cfg),
	}
	for want, g := range names {
		if g.Name() != want {
			t.Errorf("Name = %q, want %q", g.Name(), want)
		}
	}
}
