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

// TestEvaluateStatesAllocs pins the allocation profile of a warm
// evaluation: exactly the result slice plus one Frames slice per match,
// for generator-ordered and for shuffled input alike. The comparison
// sort this replaced cost 29 allocations for these 20 matches: the 20
// Frames slices, six regrowths of the appended result, and three for
// sort.Slice (its reflective swapper and the boxed less closure).
func TestEvaluateStatesAllocs(t *testing.T) {
	reg := vr.StandardRegistry()
	ev, err := NewEvaluator(reg, []cnf.Query{
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
	shuffled := slices.Clone(states)
	slices.Reverse(shuffled)
	for _, in := range []struct {
		form   string
		states []*core.State
	}{{"sorted", states}, {"shuffled", shuffled}} {
		n := len(ev.EvaluateStates(in.states, classOf)) // warm scratch
		if n < 10 {
			t.Fatalf("%s: only %d matches; the feed should produce more", in.form, n)
		}
		allocs := testing.AllocsPerRun(100, func() { ev.EvaluateStates(in.states, classOf) })
		if allocs != float64(1+n) {
			t.Errorf("%s: %v allocs for %d matches, want %d (result slice + one Frames slice per match)",
				in.form, allocs, n, 1+n)
		}
	}
}
