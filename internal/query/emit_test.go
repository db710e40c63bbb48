package query

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// The tests in this file pin EvaluateStates' output — which matches, in
// which order, with which frames — against an independent oracle:
// cnf.EvalE decides each state's satisfied queries from its label
// counts, each query's own duration filters, and a comparison sort by
// (query id, object set) fixes the order. The plan places matches by
// query id over the generator's object-set order instead of sorting, so
// any drift in either half shows up here.

// emitWindow is the shared window of every query and feed in this file.
const emitWindow = 6

// emitLabels mixes the two classes classOf produces, a registered class
// that never occurs (bus) and an unregistered label (unicorn); the last
// two always count zero.
var emitLabels = []string{"person", "car", "bus", "unicorn"}

// emitHarness drives the evaluator under test and the oracle through the
// same churn sequence.
type emitHarness struct {
	reg    *vr.Registry
	ev     *Evaluator
	oracle *cnf.EvalE
	live   map[int]cnf.Query
}

func newEmitHarness(t testing.TB) *emitHarness {
	t.Helper()
	reg := vr.StandardRegistry()
	ev, err := NewEvaluator(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := cnf.NewEvalE()
	if err != nil {
		t.Fatal(err)
	}
	return &emitHarness{reg: reg, ev: ev, oracle: oracle, live: make(map[int]cnf.Query)}
}

// add registers q on both sides; a query id already live is skipped.
func (h *emitHarness) add(t testing.TB, q cnf.Query) {
	t.Helper()
	if _, ok := h.live[q.ID]; ok {
		return
	}
	if err := h.ev.Add(q); err != nil {
		t.Fatalf("Add(%v): %v", q, err)
	}
	if err := h.oracle.Add(q); err != nil {
		t.Fatalf("oracle Add(%v): %v", q, err)
	}
	h.live[q.ID] = q
}

func (h *emitHarness) remove(t testing.TB, id int) {
	t.Helper()
	_, live := h.live[id]
	if got := h.ev.Remove(id); got != live {
		t.Fatalf("Remove(%d) = %v, want %v", id, got, live)
	}
	if live {
		h.oracle.Remove(id)
		delete(h.live, id)
	}
}

// checkOrder asserts the plan's qid-ordered slot list covers exactly the
// live subscribers, ascending by query id.
func (h *emitHarness) checkOrder(t testing.TB) {
	t.Helper()
	p := h.ev.p
	if len(p.order) != len(p.slotOf) {
		t.Fatalf("order has %d slots, %d queries live", len(p.order), len(p.slotOf))
	}
	for i, slot := range p.order {
		if p.slotOf[p.subs[slot].qid] != slot {
			t.Fatalf("order[%d] = slot %d, which holds no live query", i, slot)
		}
		if i > 0 && p.subs[p.order[i-1]].qid >= p.subs[slot].qid {
			t.Fatalf("order not ascending by qid at %d: %v", i, p.order)
		}
	}
}

// oracle computes the expected EvaluateStates output for states.
func (h *emitHarness) expect(states []*core.State) []Match {
	var out []Match
	for _, s := range states {
		counts := make(map[string]int)
		s.Objects.Range(func(id objset.ID) bool {
			counts[h.reg.Name(classOf(id))]++
			return true
		})
		has := func(id uint32) bool { return s.Objects.Contains(objset.ID(id)) }
		for _, qid := range h.oracle.MatchesSet(counts, has) {
			if s.FrameCount() >= h.live[qid].Duration {
				out = append(out, Match{QueryID: qid, Objects: s.Objects, Frames: s.Frames()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].QueryID != out[j].QueryID {
			return out[i].QueryID < out[j].QueryID
		}
		return objset.Compare(out[i].Objects, out[j].Objects) < 0
	})
	return out
}

func (h *emitHarness) check(t testing.TB, form string, states []*core.State) {
	t.Helper()
	h.checkOrder(t)
	got := h.ev.EvaluateStates(states, classOf)
	want := h.expect(states)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s states, queries %v:\n got %+v\nwant %+v", form, h.live, got, want)
	}
	checkSharing(t, form, got)
}

// checkSharing asserts the Frames contract of one call's matches: every
// Frames slice has len == cap, so an append to it reallocates, and the
// matches of one state (one object set) hold the same single copy.
// Content is checked against each state's Frames() by the caller.
func checkSharing(t testing.TB, form string, got []Match) {
	t.Helper()
	copyOf := make(map[string]*vr.FrameID)
	for i, m := range got {
		if len(m.Frames) != cap(m.Frames) {
			t.Fatalf("%s: match %d (query %d, %v): len(Frames) %d != cap %d",
				form, i, m.QueryID, m.Objects, len(m.Frames), cap(m.Frames))
		}
		if len(m.Frames) == 0 {
			continue
		}
		key := m.Objects.String()
		if p, ok := copyOf[key]; !ok {
			copyOf[key] = &m.Frames[0]
		} else if p != &m.Frames[0] {
			t.Fatalf("%s: match %d (query %d, %v) holds its own Frames copy, not its state's shared one",
				form, i, m.QueryID, m.Objects)
		}
	}
}

// byteSource draws bounded values from a byte string, yielding zeros once
// it runs dry, so every fuzz input decodes to some finite scenario.
type byteSource []byte

func (b *byteSource) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// randQuery draws a query of one to three clauses, each one to three
// conditions over ≥, ≤, = and identity constraints.
func randQuery(id int, intn func(int) int) cnf.Query {
	q := cnf.Query{ID: id, Window: emitWindow, Duration: 1 + intn(emitWindow)}
	for range 1 + intn(3) {
		var d cnf.Disjunction
		for range 1 + intn(3) {
			if intn(5) == 0 {
				d = append(d, cnf.Condition{Identity: true, N: 1 + intn(8)})
				continue
			}
			d = append(d, cnf.Condition{
				Label: emitLabels[intn(len(emitLabels))],
				Op:    []cnf.Op{cnf.GE, cnf.LE, cnf.EQ}[intn(3)],
				N:     intn(4),
			})
		}
		q.Clauses = append(q.Clauses, d)
	}
	return q
}

// randFrame draws an object set over ids 1..8 (odd = person, even = car).
func randFrame(fid int, intn func(int) int) vr.Frame {
	var ids []objset.ID
	for id := objset.ID(1); id <= 8; id++ {
		if intn(2) == 0 {
			ids = append(ids, id)
		}
	}
	return vr.Frame{FID: vr.FrameID(fid), Objects: objset.New(ids...)}
}

// TestEvaluateStatesMatchesOracleUnderChurn is the plan≡EvalE
// differential: random query sets over ≥/≤/=/identity conditions are
// patched between evaluations (freed slots are reused, so slot order
// drifts away from query id order), and every evaluation — over states
// sorted as generators emit them, shuffled, and one at a time — must
// equal the oracle exactly, order and frames included.
func TestEvaluateStatesMatchesOracleUnderChurn(t *testing.T) {
	permuted := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newEmitHarness(t)
		gen := core.NewMFS(core.Config{Window: emitWindow, Duration: 1})
		for fid := 0; fid < 30; fid++ {
			for range rng.Intn(4) {
				id := 1 + rng.Intn(24)
				if _, ok := h.live[id]; ok {
					h.remove(t, id)
				} else {
					h.add(t, randQuery(id, rng.Intn))
				}
			}
			// Slot order differing from query id order is the case a
			// placement by slot instead of by query id gets wrong.
			if !slices.IsSorted(h.ev.p.order) {
				permuted++
			}
			states := gen.Process(randFrame(fid, rng.Intn))
			h.check(t, "sorted", states)
			shuffled := slices.Clone(states)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			h.check(t, "shuffled", shuffled)
			if len(states) > 0 {
				h.check(t, "single", states[rng.Intn(len(states)):][:1])
			}
		}
	}
	if permuted == 0 {
		t.Fatal("churn never made slot order differ from query id order")
	}
}

// FuzzEvaluateStates decodes its input into a query set, a churn
// sequence and a feed, and checks every evaluation against the EvalE
// oracle, with the states in generator order, permuted, or alone.
func FuzzEvaluateStates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 0, 2, 1, 3, 4, 9, 1, 7, 0, 3, 0x55, 0xaa, 0xff, 1, 2, 3})
	f.Add([]byte("shared plan emission order, fuzzed against the oracle"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		h := newEmitHarness(t)
		for range 1 + src.intn(6) {
			h.add(t, randQuery(1+src.intn(12), src.intn))
		}
		gen := core.NewMFS(core.Config{Window: emitWindow, Duration: 1})
		for fid := range 1 + src.intn(10) {
			for range src.intn(4) {
				if id := 1 + src.intn(12); src.intn(2) == 0 {
					h.remove(t, id)
				} else {
					h.add(t, randQuery(id, src.intn))
				}
			}
			states := gen.Process(randFrame(fid, src.intn))
			switch form := src.intn(3); {
			case form == 0 || len(states) == 0:
				h.check(t, "sorted", states)
			case form == 1:
				perm := slices.Clone(states)
				for i := len(perm) - 1; i > 0; i-- {
					j := src.intn(i + 1)
					perm[i], perm[j] = perm[j], perm[i]
				}
				h.check(t, "permuted", perm)
			default:
				h.check(t, "single", states[src.intn(len(states)):][:1])
			}
		}
	})
}

// sharedStateFixture is an evaluation with several queries per state:
// four queries, two of which share a body, over an MFS result set.
func sharedStateFixture(t *testing.T) (*Evaluator, []*core.State) {
	t.Helper()
	ev, err := NewEvaluator(vr.StandardRegistry(), []cnf.Query{
		mkQuery(t, 9, "car >= 1", 4, 1),
		mkQuery(t, 3, "(person >= 1 OR car >= 2)", 4, 2),
		mkQuery(t, 5, "car >= 1", 4, 3), // shares query 9's body
		mkQuery(t, 1, "person <= 1 AND #2", 4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	states := buildStates(t, []objset.Set{
		objset.New(1, 2, 4),
		objset.New(2, 3, 4),
		objset.New(1, 2, 3),
		objset.New(2, 4, 5, 6),
	}, 4, 1)
	return ev, states
}

// distinctStates counts the object sets — states — among matches.
func distinctStates(ms []Match) int {
	seen := make(map[string]bool)
	for _, m := range ms {
		seen[m.Objects.String()] = true
	}
	return len(seen)
}

// cloneMatches deep-copies matches, so later comparisons see any write
// through a shared Frames slice.
func cloneMatches(ms []Match) []Match {
	out := slices.Clone(ms)
	for i := range out {
		out[i].Frames = slices.Clone(out[i].Frames)
	}
	return out
}

// TestEvaluateStatesSharesFramesPerState pins the sharing contract of
// Match.Frames: matches of one state in one call share one copy of the
// state's frames (shifted by the start offset, if any), appending to
// one match's Frames never shows through another's, and the matches of
// one call stay intact through later calls.
func TestEvaluateStatesSharesFramesPerState(t *testing.T) {
	ev, states := sharedStateFixture(t)
	for _, start := range []vr.FrameID{0, 100} {
		got := ev.EvaluateStatesFrom(states, classOf, start)
		if distinctStates(got) >= len(got) {
			t.Fatalf("start %d: %d matches over %d states; the fixture must match some state twice",
				start, len(got), distinctStates(got))
		}
		checkSharing(t, "fixture", got)
		byObjects := make(map[string][]vr.FrameID)
		for _, s := range states {
			fr := s.Frames()
			for i := range fr {
				fr[i] += start
			}
			byObjects[s.Objects.String()] = fr
		}
		for _, m := range got {
			if want := byObjects[m.Objects.String()]; !slices.Equal(m.Frames, want) {
				t.Fatalf("start %d: query %d on %v: Frames %v, want %v", start, m.QueryID, m.Objects, m.Frames, want)
			}
		}

		// Append to every pair of matches of one state, in both orders:
		// each append must keep its own element, and no match may change.
		held := cloneMatches(got)
		for i := range got {
			for j := range got {
				if i == j || !got[i].Objects.Equal(got[j].Objects) {
					continue
				}
				n := len(got[i].Frames)
				a := append(got[i].Frames, -1)
				b := append(got[j].Frames, -2)
				if a[n] != -1 || b[n] != -2 {
					t.Fatalf("start %d: appends to matches %d and %d of one state wrote one array: %v, %v", start, i, j, a, b)
				}
			}
		}
		if !reflect.DeepEqual(got, held) {
			t.Fatalf("start %d: appending to Frames changed other matches:\n got %+v\nwant %+v", start, got, held)
		}

		// Later calls, shuffled input included, must not touch them.
		shuffled := slices.Clone(states)
		slices.Reverse(shuffled)
		for range 3 {
			ev.EvaluateStates(states, classOf)
			ev.EvaluateStatesFrom(shuffled, classOf, start+1)
		}
		if !reflect.DeepEqual(got, held) {
			t.Fatalf("start %d: matches changed after later calls:\n got %+v\nwant %+v", start, got, held)
		}
	}
}

// TestEvaluateStatesAllocs pins the allocation profile of a warm
// evaluation: exactly the result slice plus one Frames slice per
// distinct matched state, which all of its matches share, for
// generator-ordered and for shuffled input alike: 9 allocations for
// this fixture's 20 matches over 8 states.
func TestEvaluateStatesAllocs(t *testing.T) {
	ev, states := sharedStateFixture(t)
	shuffled := slices.Clone(states)
	slices.Reverse(shuffled)
	for _, in := range []struct {
		form   string
		states []*core.State
	}{{"sorted", states}, {"shuffled", shuffled}} {
		ms := ev.EvaluateStates(in.states, classOf) // warm scratch
		n, distinct := len(ms), distinctStates(ms)
		if n < 10 || distinct >= n {
			t.Fatalf("%s: %d matches over %d states; the feed should match states more than once", in.form, n, distinct)
		}
		allocs := testing.AllocsPerRun(100, func() { ev.EvaluateStates(in.states, classOf) })
		if allocs != float64(1+distinct) {
			t.Errorf("%s: %v allocs for %d matches over %d states, want %d (result slice + one Frames slice per state)",
				in.form, allocs, n, distinct, 1+distinct)
		}
	}
}
