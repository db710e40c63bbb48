// Package query is the Query Evaluation module of the paper's
// architecture (Figure 2, §5): it evaluates CNF count queries against the
// result state sets produced by the MCOS Generation layer, and implements
// the §5.3 result-driven pruning strategy that feeds back into state
// maintenance for ≥-only query sets.
//
// Evaluation runs over a shared multi-query plan (see plan.go): the
// registered query set is compiled once, predicates and clauses are
// hash-consed across queries, each distinct predicate is evaluated once
// per state, and matches fan out to the owning queries through bitset
// masks — so per-frame cost tracks the number of distinct predicates
// and bodies, not the number of subscriptions. Add and Remove patch the
// plan incrementally instead of recompiling it.
package query

import (
	"fmt"

	"tvq/internal/cnf"
	"tvq/internal/core"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// Match is one query hit: in the current window, the MCOS Objects
// appears in the frames Frames (at least the query's duration many) and
// its per-class counts satisfy the query.
//
// Objects and Frames are shared, read-only, by every match of the same
// state from one evaluation: Objects is the interned set and Frames one
// copy of the state's frame ids. Both stay valid after later frames are
// processed. Frames has len == cap, so appending to it reallocates and
// leaves the other matches untouched; writing its elements in place
// would change them too.
type Match struct {
	QueryID int
	Objects objset.Set
	Frames  []vr.FrameID
}

// Evaluator evaluates a dynamic set of queries, all sharing one window
// size, against result state sets. Queries with different windows belong
// in different evaluators (the engine groups them, as §3 prescribes).
// An empty evaluator is valid — it matches nothing and adopts the
// window of the first query added — so dynamic paths (a session opened
// with no queries, Subscribe before any frame) never hit a special
// case. An Evaluator is not safe for concurrent use: evaluation reuses
// internal scratch buffers.
type Evaluator struct {
	reg     *vr.Registry
	queries []cnf.Query // registration order, for Queries()
	window  int         // 0 while empty
	p       *plan
}

// NewEvaluator builds an evaluator over queries — possibly none. All
// queries must be valid, share the same window size and have distinct
// ids.
func NewEvaluator(reg *vr.Registry, queries []cnf.Query) (*Evaluator, error) {
	e := &Evaluator{reg: reg, p: newPlan(reg)}
	for _, q := range queries {
		if err := e.Add(q); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Add registers one query, patching the shared plan incrementally:
// predicates and clauses the query shares with registered ones are
// reused, new ones are interned, and the query claims a subscriber
// slot in its body's fan-out mask. On a warm plan (shapes seen before)
// Add allocates nothing.
//
//tvq:noalloc
func (e *Evaluator) Add(q cnf.Query) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if len(q.Clauses) == 0 {
		return fmt.Errorf("query: query %d has no clauses", q.ID)
	}
	if len(e.queries) > 0 && q.Window != e.window {
		return fmt.Errorf("query: query %d window %d differs from group window %d", q.ID, q.Window, e.window)
	}
	if e.p.has(q.ID) {
		return fmt.Errorf("query: duplicate query id %d", q.ID)
	}
	e.p.add(q)
	e.window = q.Window
	e.queries = append(e.queries, q)
	return nil
}

// Remove deregisters a query, releasing its subscriber slot and any
// predicate, clause or body handles no remaining query shares; it
// reports whether the query was present. Removing the last query
// leaves a valid empty evaluator.
//
//tvq:noalloc
func (e *Evaluator) Remove(id int) bool {
	if !e.p.remove(id) {
		return false
	}
	w := 0
	for _, q := range e.queries {
		if q.ID != id {
			e.queries[w] = q
			w++
		}
	}
	e.queries = e.queries[:w]
	if len(e.queries) == 0 {
		e.window = 0
	}
	return true
}

// Has reports whether a query with the given id is registered.
func (e *Evaluator) Has(id int) bool { return e.p.has(id) }

// Len returns the number of registered queries.
func (e *Evaluator) Len() int { return e.p.len() }

// Window returns the shared window size of the evaluator's queries, or
// zero for an empty evaluator (the typed zero value: no query, no
// window).
func (e *Evaluator) Window() int { return e.window }

// MinDuration returns the smallest duration among the queries — the
// push-down threshold for the MCOS generator (§3) — or zero for an
// empty evaluator.
func (e *Evaluator) MinDuration() int {
	if len(e.queries) == 0 {
		return 0
	}
	min := e.queries[0].Duration
	for _, q := range e.queries[1:] {
		if q.Duration < min {
			min = q.Duration
		}
	}
	return min
}

// Generation counts plan patches (Add/Remove); caches derived from the
// plan — the §5.3 termination memo — key on it.
func (e *Evaluator) Generation() uint64 { return e.p.gen }

// Classes returns the set of classes referenced by the queries, resolved
// through the registry; the engine uses it to drop unrequested classes
// before MCOS generation (§3). Labels that are not registered classes are
// skipped (they can never match and evaluate as count zero).
func (e *Evaluator) Classes() map[vr.Class]bool {
	keep := make(map[vr.Class]bool)
	for i := range e.p.labels {
		lx := &e.p.labels[i]
		if lx.live == 0 {
			continue
		}
		if c, ok := e.reg.Lookup(lx.label); ok {
			keep[c] = true
		}
	}
	return keep
}

// EvaluateStates runs the shared plan against a result state set and
// returns all matches ordered by (query id, object set) (§5.2 step 2).
// Each state's per-class counts drive one pass over the distinct
// predicates; satisfied bodies fan out to their subscribers, each
// re-checking its own duration (the generator push-down used the
// group's minimum). The order comes from placement, not a comparison
// sort: states are taken in object-set order (as generators emit them;
// other input is sorted first) and each match goes to its query's run
// of a layout ordered by query id. Each matched state's frame ids are
// copied once per call: all matches of one state share that Frames
// slice (and its Objects), read-only, and nothing in the evaluator
// aliases it, so the matches outlive later calls.
func (e *Evaluator) EvaluateStates(states []*core.State, classOf func(objset.ID) vr.Class) []Match {
	return e.EvaluateStatesFrom(states, classOf, 0)
}

// EvaluateStatesFrom is EvaluateStates for a generator that began at
// feed frame start: the generator numbers its frames from zero, and
// every reported frame id is shifted by start, inside the one copy each
// matched state gets. The engine uses it for window groups added while
// the feed was running.
func (e *Evaluator) EvaluateStatesFrom(states []*core.State, classOf func(objset.ID) vr.Class, start vr.FrameID) []Match {
	if len(e.queries) == 0 || len(states) == 0 {
		return nil
	}
	p := e.p
	states = p.inOrder(states)
	p.refreshLabels()
	p.collectHits(states, e.reg.Len(), classOf)
	out := p.place(states, start)
	clear(p.sorted)
	p.sorted = p.sorted[:0]
	return out
}

// GEOnly reports whether the §5.3 pruning strategy is applicable: every
// condition of every query uses ≥ (Proposition 1). The plan tracks the
// count of non-≥ predicates, so this is O(1).
func (e *Evaluator) GEOnly() bool { return e.p.nonGE == 0 }

// TerminatePredicate returns the state-termination predicate of §5.3, or
// nil when the query set contains non-≥ conditions. The predicate is
// given to core.Config.Terminate: a newly created state whose object set
// satisfies no query can be dropped immediately, because per-class counts
// of subsets are no larger and ≥ conditions are monotone in the counts.
//
// Decisions are memoized in a core.TerminateMemo keyed to the shared
// plan's generation: a Cancel that shrinks the query set (the only
// plan patch allowed under pruning) invalidates the cache, so the
// predicate always answers for the current plan. The returned predicate
// is not safe for concurrent use.
func (e *Evaluator) TerminatePredicate(classOf func(objset.ID) vr.Class) func(objset.Set) bool {
	if !e.GEOnly() {
		return nil
	}
	memo := core.NewTerminateMemo()
	var agg []int
	return func(objects objset.Set) bool {
		gen := e.p.gen
		if v, ok := memo.Lookup(gen, objects); ok {
			return v
		}
		nclasses := e.reg.Len()
		agg = agg[:0]
		for len(agg) < nclasses {
			agg = append(agg, 0)
		}
		objects.Range(func(id objset.ID) bool {
			if c := int(classOf(id)); c < nclasses {
				agg[c]++
			}
			return true
		})
		e.p.refreshLabels()
		v := len(e.p.satisfied(agg, objects)) == 0
		memo.Store(gen, objects, v)
		return v
	}
}

// Queries returns the evaluator's queries in registration order.
func (e *Evaluator) Queries() []cnf.Query { return e.queries }
