package core

import (
	"slices"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// SSG is the Strict State Graph generator of §4.3. States are nodes of a
// directed graph whose edges point from a state to states generated from
// it, so an edge (s, s') implies IDs' ⊂ IDs (Property 1) and no two
// children of a node contain one another (Property 2). The State
// Traversal (ST) algorithm walks the graph from its roots for every
// arriving frame: when the intersection between a node's object set and
// the arriving object set is empty, the entire subtree is skipped —
// subsets of a disjoint set are disjoint too — which is the pruning power
// the paper attributes to the graph. CNPS (Connecting the New Principal
// State, §4.3.5) then links the frame's own state to the top-level
// intersection states without violating Property 2.
//
// Node lookup is by interned object-set handle (one hash of the id
// stream plus an integer compare, no key strings), and most traversal
// steps skip even that through a node-local memo of the last target
// (see resolve). Traversal intersections go into a reusable scratch
// buffer, and dead states return their storage to a pool, so
// steady-state maintenance performs no allocations beyond genuine graph
// growth.
type SSG struct {
	cfg    Config
	intern *objset.Interner
	nodes  []*ssgNode // indexed by objset.Handle; nil when no such node
	live   int

	// rootOrder lists traversal entry points (parentless nodes) in the
	// order they became roots; dead or re-parented entries are skipped
	// and compacted lazily. The paper visits principal states in arrival
	// order; parentless nodes are their generalization once principal
	// states expire but their subtrees remain live.
	rootOrder []*ssgNode

	// principals lists nodes that are principal states (some window frame
	// has exactly their object set), in arrival order; used by the State
	// Marking Procedure rule 4. A node is listed at most once
	// (ssgNode.onPrincipalList).
	principals []*ssgNode

	// results is the previous frame's result node set (§4.3.7);
	// resultsNext is the double buffer the next set is built into.
	results     []*ssgNode
	resultsNext []*ssgNode

	next    vr.FrameID
	metrics Metrics

	// window buffers the object set of each live frame for the marking
	// rule (State.fold) when parents' frames merge into new states.
	window map[vr.FrameID]objset.Set

	// scratch, reused across frames
	touched    []*ssgNode
	stack      []*ssgNode // child snapshots for the recursive traversal
	roots      []*ssgNode
	cands      []*ssgNode // CNPS candidates
	selected   []*ssgNode // CNPS selection
	buf        objset.Scratch
	em         emitter
	pool       statePool
	emitStates []*State
}

type ssgNode struct {
	state    *State
	handle   objset.Handle
	children []*ssgNode
	parents  []*ssgNode

	// visited holds the id of the last frame whose traversal visited
	// this node (Algorithm 1 lines 1-2).
	visited vr.FrameID

	// createdAt is the frame whose traversal created this node; a node
	// still being assembled in the current frame absorbs the frames of
	// every parent that generates it, while older nodes are already
	// exact and skip that merge.
	createdAt vr.FrameID

	// createdBy holds the window frames whose object set equals this
	// node's object set: while non-empty the node is a principal state
	// (Definition 5). Sorted ascending.
	createdBy []vr.FrameID

	// resultMark is 1 + the id of the last frame that added this node to
	// the result set; collectResults uses it to deduplicate without a
	// per-frame set.
	resultMark vr.FrameID

	// memo is the node this node's intersection with an arriving frame
	// last resolved to (never the node itself). Consecutive frames mostly
	// share objects, so the next intersection usually equals memo's
	// object set, and since there is exactly one live node per interned
	// set, a live memo with an equal set is the node Interner.Lookup
	// would return; see resolve. removeNode clears it so dead nodes
	// cannot pin chains of other dead nodes.
	memo *ssgNode

	// resolved records what the intersection of the frame in visited
	// resolved to, so a second visit in the same frame (a node reached
	// from several parents) returns it without intersecting again.
	resolved resolution

	onRootList      bool
	onPrincipalList bool
	dead            bool
}

// resolution is the outcome of a node's first visit in a frame.
type resolution uint8

const (
	resolvedNone resolution = iota // empty intersection, or a terminated state
	resolvedSelf                   // the node's own set: it co-occurs in the frame
	resolvedMemo                   // the node in memo
)

// NewSSG returns a Strict State Graph generator for the given window
// parameters. It panics if cfg is invalid.
func NewSSG(cfg Config) *SSG {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &SSG{
		cfg:    cfg,
		intern: objset.NewInterner(),
		window: make(map[vr.FrameID]objset.Set),
	}
}

// Name implements Generator.
func (g *SSG) Name() string { return "SSG" }

// StateCount implements Generator.
func (g *SSG) StateCount() int { return g.live }

// Metrics returns work counters accumulated so far.
func (g *SSG) Metrics() Metrics { return g.metrics }

// setNode records n as the live node for handle h.
func (g *SSG) setNode(h objset.Handle, n *ssgNode) {
	for int(h) >= len(g.nodes) {
		g.nodes = append(g.nodes, nil)
	}
	g.nodes[h] = n
	g.live++
}

// newNode interns objects (cloning a scratch-backed value into owned
// storage) and creates its node with pooled state storage.
func (g *SSG) newNode(objects objset.Set, createdAt vr.FrameID) *ssgNode {
	h, _ := g.intern.Intern(objects)
	s := g.pool.get()
	s.Objects = g.intern.Of(h)
	n := &ssgNode{state: s, handle: h, createdAt: createdAt}
	g.setNode(h, n)
	g.metrics.StatesCreated++
	g.touched = append(g.touched, n)
	return n
}

// Process implements Generator: one round of the ST algorithm followed by
// CNPS and result-set maintenance (§4.3.7).
//
//tvq:noalloc
//tvq:ephemeral
func (g *SSG) Process(f vr.Frame) []*State {
	if f.FID != g.next {
		panic("core: frames must be processed in order starting at 0")
	}
	g.next++
	g.metrics.FramesProcessed++
	minFID := f.FID - vr.FrameID(g.cfg.Window) + 1
	g.touched = g.touched[:0]
	for fid := range g.window {
		if fid < minFID {
			delete(g.window, fid)
		}
	}
	// The window buffer (and any principal state interned from it)
	// outlives this call, so a borrowed frame is cloned: its storage
	// belongs to the caller and may be reused for the next frame. Clone
	// also picks the word-parallel bitmap form when the ids are dense.
	// An Owned frame's storage transfers to us, so Compact suffices.
	f.Objects = retainObjects(f)
	g.window[f.FID] = f.Objects

	// Periodic full sweep: traversal expires nodes lazily, so nodes in
	// subtrees that no recent frame intersected can hold expired frames.
	// They are never emitted (result maintenance re-checks), but sweeping
	// once per window keeps memory proportional to live states.
	if g.cfg.Window > 0 && f.FID > 0 && f.FID%vr.FrameID(g.cfg.Window) == 0 {
		g.sweep(minFID)
	}

	if !f.Objects.IsEmpty() {
		g.traverse(f, minFID)
	}

	return g.collectResults(f, minFID)
}

// traverse runs ST from every root, then creates/updates the frame's own
// principal state and connects it via CNPS.
func (g *SSG) traverse(f vr.Frame, minFID vr.FrameID) {
	// Candidates for CNPS: the state generated at the top level of each
	// root's subtree (Theorem 2: only states IDroot ∩ IDns can be
	// adjacent to the new principal state).
	candidates := g.cands[:0]

	roots := g.liveRoots()
	for _, r := range roots {
		if r.dead || len(r.parents) > 0 {
			continue // re-parented or removed during this very traversal
		}
		if c := g.visit(r, f, minFID); c != nil {
			candidates = append(candidates, c)
		}
	}

	ns := g.ensurePrincipal(f, minFID)
	g.cands = candidates[:0]
	g.connectPrincipal(ns, candidates)
	g.refreshPrincipals(f, minFID)
}

// visit implements one step of the ST algorithm on node n; it returns the
// node holding IDn ∩ IDns when n is a traversal root (the CNPS candidate
// from this subtree), or nil when the intersection is empty.
func (g *SSG) visit(n *ssgNode, f vr.Frame, minFID vr.FrameID) *ssgNode {
	if n.dead {
		return nil
	}
	if n.visited == f.FID {
		// Already handled via another path this frame; the candidate for
		// CNPS is what that visit resolved to. Only a target that died
		// since then (pruned from another root) sends us back to the
		// interner.
		switch {
		case n.resolved == resolvedNone:
			return nil
		case n.resolved == resolvedSelf:
			return n
		case !n.memo.dead:
			return n.memo
		}
		inter := n.state.Objects.IntersectInto(f.Objects, &g.buf)
		if inter.IsEmpty() {
			return nil
		}
		return g.resolve(n, inter)
	}
	n.visited = f.FID
	g.metrics.StatesVisited++
	g.touched = append(g.touched, n)

	// Snapshot the children onto the shared scratch stack: visits of the
	// subtree may re-home or remove entries of n.children, but the
	// snapshot keeps this node's iteration stable without allocating.
	// Every path that visits children truncates the stack back to base
	// before returning.
	base := len(g.stack)
	g.stack = append(g.stack, n.children...)

	// pruneState (Algorithm 1 line 3): expire frames; an invalid node
	// (no marked frames) or empty node leaves the graph immediately. Its
	// former children may still intersect the arriving frame, so they
	// are visited from here even though the node itself is gone.
	if g.pruneNode(n, minFID) {
		g.visitChildren(base, f, minFID)
		return nil
	}

	g.metrics.Intersections++
	inter := n.state.Objects.IntersectInto(f.Objects, &g.buf)
	if inter.IsEmpty() {
		// Every descendant has an object set ⊂ IDn, so every descendant
		// intersection is empty too: skip the whole subtree. This is the
		// SSG pruning step.
		n.resolved = resolvedNone
		g.stack = g.stack[:base]
		return nil
	}

	target := g.applyIntersection(n, inter, f)
	switch target {
	case nil:
		n.resolved = resolvedNone
	case n:
		n.resolved = resolvedSelf
	default:
		n.resolved = resolvedMemo // applyIntersection left target in n.memo
	}

	// Recurse into children (visitNext) via the snapshot. A target just
	// attached under n needs no visit of its own (its bookkeeping
	// happened at creation); any children it acquired were re-homed
	// siblings already present in the snapshot.
	g.visitChildren(base, f, minFID)
	return target
}

// visitChildren visits the child snapshot pushed onto g.stack from base
// to its top, then pops it. Each visit leaves the stack as it found it.
func (g *SSG) visitChildren(base int, f vr.Frame, minFID vr.FrameID) {
	for i, end := base, len(g.stack); i < end; i++ {
		g.visit(g.stack[i], f, minFID)
	}
	g.stack = g.stack[:base]
}

// applyIntersection materializes the state for inter = IDn ∩ IDns and
// performs frame bookkeeping (Graph Maintenance Procedure steps 3-4);
// key-frame marks are decided by the rest-closure rule in State.fold.
// inter may be scratch-backed; it is interned (copied) before being
// retained.
func (g *SSG) applyIntersection(n *ssgNode, inter objset.Set, f vr.Frame) *ssgNode {
	target := g.resolve(n, inter)
	switch {
	case target == n:
		// Step 3: the node itself co-occurs in the arriving frame.
		n.state.fold(f.FID, f.Objects)
		return n
	case target != nil:
		// Step 4.a: the state exists. A target created earlier in this
		// same traversal has only seen its first parent, so it absorbs
		// this parent's frames too; an older target is already exact
		// (every frame containing it was appended when it arrived).
		if target.createdAt == f.FID {
			g.foldMissing(target, n)
		}
		target.state.fold(f.FID, f.Objects)
		g.touched = append(g.touched, target)
		return target
	}
	if g.cfg.Terminate != nil && g.cfg.Terminate(inter) {
		g.metrics.StatesTerminated++
		return nil
	}
	target = g.newNode(inter, f.FID)
	n.memo = target
	g.foldMissing(target, n)
	target.state.fold(f.FID, f.Objects)
	g.attachChild(n, target)
	return target
}

// resolve returns the live node holding inter = IDn ∩ IDns, or nil when
// there is none. inter ⊆ IDn, so equal lengths mean inter is n's own
// set. Otherwise n's memo answers when it is live and holds inter:
// there is one live node per interned set, so it is exactly the node
// Interner.Lookup would find, without hashing inter or touching the
// interner's slots. A miss falls back to the interner and refreshes the
// memo.
func (g *SSG) resolve(n *ssgNode, inter objset.Set) *ssgNode {
	if inter.Len() == n.state.Objects.Len() {
		return n
	}
	if m := n.memo; m != nil && !m.dead && m.state.Objects.Equal(inter) {
		return m
	}
	h, ok := g.intern.Lookup(inter)
	if !ok {
		return nil
	}
	n.memo = g.nodes[h]
	return n.memo
}

// foldMissing folds every frame of parent that target lacks. A frame
// containing the parent's objects contains the target's (a subset), so
// the target's frame set stays exact (= all window frames containing it).
func (g *SSG) foldMissing(target, parent *ssgNode) {
	te := target.state.frames.entries
	i := 0
	for _, e := range parent.state.frames.entries {
		for i < len(te) && te[i].fid < e.fid {
			i++
		}
		if i < len(te) && te[i].fid == e.fid {
			continue
		}
		if of, ok := g.window[e.fid]; ok {
			target.state.fold(e.fid, of)
			te = target.state.frames.entries // insertion may reallocate
		}
	}
}

// attachChild adds edge (parent, child) and restores Property 2 one level
// deep (§4.3.4): an existing child contained in the new one is re-homed
// under it; if the new child is contained in an existing one it belongs
// under that child instead (that child's own visit generates it there).
func (g *SSG) attachChild(parent, child *ssgNode) {
	for i := 0; i < len(parent.children); i++ {
		sib := parent.children[i]
		if sib == child {
			return
		}
		if sib.state.Objects.ProperSubsetOf(child.state.Objects) {
			// Move sib under child: (parent, sib) → (child, sib). The
			// recursive attach keeps Property 2 among child's children.
			parent.children = append(parent.children[:i], parent.children[i+1:]...)
			i--
			detachParent(sib, parent)
			g.attachChild(child, sib)
		} else if child.state.Objects.ProperSubsetOf(sib.state.Objects) {
			g.attachChild(sib, child)
			return
		}
	}
	addEdge(parent, child)
}

func addEdge(parent, child *ssgNode) {
	for _, c := range parent.children {
		if c == child {
			return
		}
	}
	parent.children = append(parent.children, child)
	child.parents = append(child.parents, parent)
}

func detachParent(child, parent *ssgNode) {
	for i, p := range child.parents {
		if p == parent {
			child.parents = append(child.parents[:i], child.parents[i+1:]...)
			return
		}
	}
}

// ensurePrincipal creates or refreshes the node for the arriving frame's
// own object set: the new principal state (Definition 5).
func (g *SSG) ensurePrincipal(f vr.Frame, minFID vr.FrameID) *ssgNode {
	var ns *ssgNode
	if h, ok := g.intern.Lookup(f.Objects); ok {
		ns = g.nodes[h]
	} else {
		if g.cfg.Terminate != nil && g.cfg.Terminate(f.Objects) {
			g.metrics.StatesTerminated++
			return nil
		}
		ns = g.newNode(f.Objects, 0)
		ns.createdAt = 0
	}
	// The creating frame is always a key frame of its principal state:
	// its object set equals the state's, so fold marks it.
	ns.state.fold(f.FID, f.Objects)
	ns.createdBy = append(ns.createdBy, f.FID)
	// Test the flag, not len(createdBy) == 1: pruneNode may have emptied
	// createdBy during this traversal while ns is still listed, and
	// listing it twice would grow principals without bound.
	if !ns.onPrincipalList {
		ns.onPrincipalList = true
		g.principals = append(g.principals, ns)
	}
	g.ensureRoot(ns)
	return ns
}

// connectPrincipal implements CNPS (Algorithm 2): sort candidates by
// object-set size descending and connect ns to each candidate not already
// reachable from a previously selected one.
func (g *SSG) connectPrincipal(ns *ssgNode, candidates []*ssgNode) {
	if ns == nil || len(candidates) == 0 {
		return
	}
	// A candidate may have been pruned (and its state recycled) by a
	// later root's traversal after it was collected; drop those before
	// the sort touches their state.
	live := candidates[:0]
	for _, c := range candidates {
		if c != nil && !c.dead && c != ns {
			live = append(live, c)
		}
	}
	candidates = live
	slices.SortStableFunc(candidates, func(a, b *ssgNode) int {
		return b.state.Objects.Len() - a.state.Objects.Len()
	})
	selected := g.selected[:0]
	defer func() { g.selected = selected[:0] }()
	for _, c := range candidates {
		if c.dead {
			continue
		}
		if !c.state.Objects.ProperSubsetOf(ns.state.Objects) {
			continue // candidate not strictly below ns (e.g. equals it)
		}
		// Property 2 for ns's children: skip a candidate contained in an
		// already selected one (reachability via edges implies subset, so
		// this over-approximates the paper's reachable-set test safely:
		// every skipped candidate keeps its generating root as a parent
		// and stays reachable for traversal).
		redundant := false
		for _, s := range selected {
			if c == s || c.state.Objects.ProperSubsetOf(s.state.Objects) {
				redundant = true
				break
			}
		}
		if redundant {
			continue
		}
		// attachChild (not addEdge): a re-created principal state may
		// already carry children, and Property 2 must hold against them
		// too.
		g.attachChild(ns, c)
		selected = append(selected, c)
	}
}

// pruneNode expires old frames on n and removes it from the graph when it
// became empty or invalid; it reports whether the node was removed.
func (g *SSG) pruneNode(n *ssgNode, minFID vr.FrameID) bool {
	n.state.frames.expireBefore(minFID)
	for len(n.createdBy) > 0 && n.createdBy[0] < minFID {
		n.createdBy = n.createdBy[1:]
	}
	if n.state.frames.len() == 0 || !n.state.frames.hasMarks() {
		g.removeNode(n)
		return true
	}
	return false
}

// removeNode detaches n from the graph, releasing its interned handle
// and recycling its state storage. Children that lose their last parent
// are promoted to traversal roots so their subtrees stay reachable.
func (g *SSG) removeNode(n *ssgNode) {
	if n.dead {
		return
	}
	n.dead = true
	n.memo = nil
	g.metrics.StatesPruned++
	g.nodes[n.handle] = nil
	g.live--
	g.intern.Release(n.handle)
	for _, p := range n.parents {
		for i, c := range p.children {
			if c == n {
				p.children = append(p.children[:i], p.children[i+1:]...)
				break
			}
		}
	}
	n.parents = nil
	children := n.children
	n.children = nil
	for _, c := range children {
		detachParent(c, n)
		if len(c.parents) == 0 && !c.dead {
			g.ensureRoot(c)
		}
	}
	// The node struct itself may still sit on rootOrder/principals/
	// results until their lazy compaction (all guarded by dead), but the
	// state is unreachable from any live path and can be recycled.
	g.pool.put(n.state)
	n.state = nil
}

func (g *SSG) ensureRoot(n *ssgNode) {
	if n.onRootList || n.dead || len(n.parents) > 0 {
		return
	}
	n.onRootList = true
	g.rootOrder = append(g.rootOrder, n)
}

// liveRoots compacts rootOrder, dropping dead or re-parented entries, and
// returns the remaining traversal entry points in order.
func (g *SSG) liveRoots() []*ssgNode {
	out := g.rootOrder[:0]
	for _, n := range g.rootOrder {
		if n.dead || len(n.parents) > 0 {
			n.onRootList = false
			continue
		}
		out = append(out, n)
	}
	g.rootOrder = out
	// Return a copy (reusing the scratch buffer): traversal may promote
	// orphans onto rootOrder mid-iteration, and those were either
	// already visited (as children) or will be covered next frame.
	roots := append(g.roots[:0], out...)
	g.roots = roots[:0]
	return roots
}

func (g *SSG) refreshPrincipals(f vr.Frame, minFID vr.FrameID) {
	out := g.principals[:0]
	for _, n := range g.principals {
		if n.dead {
			continue
		}
		for len(n.createdBy) > 0 && n.createdBy[0] < minFID {
			n.createdBy = n.createdBy[1:]
		}
		if len(n.createdBy) > 0 {
			out = append(out, n)
		} else {
			n.onPrincipalList = false
		}
	}
	g.principals = out
}

// collectResults implements the result-set maintenance of §4.3.7:
// SR_{i'} = SR'_i ∪ SR_{G'} — the still-satisfied previous results plus
// the satisfied states touched by this frame's traversal. All buffers
// are generator-owned and reused across frames.
func (g *SSG) collectResults(f vr.Frame, minFID vr.FrameID) []*State {
	mark := f.FID + 1
	g.resultsNext = g.resultsNext[:0]
	for _, n := range g.results {
		g.considerResult(n, mark, minFID)
	}
	for _, n := range g.touched {
		g.considerResult(n, mark, minFID)
	}
	g.results, g.resultsNext = g.resultsNext, g.results

	states := g.emitStates[:0]
	for _, n := range g.results {
		states = append(states, n.state)
	}
	g.emitStates = states
	return g.em.emit(states, g.cfg.Duration, true)
}

// considerResult re-validates one candidate node and appends it to
// resultsNext when it belongs in this frame's result set; resultMark
// deduplicates nodes reachable both from the previous results and from
// this frame's traversal.
func (g *SSG) considerResult(n *ssgNode, mark vr.FrameID, minFID vr.FrameID) {
	if n == nil || n.dead || n.resultMark == mark {
		return
	}
	n.state.frames.expireBefore(minFID)
	if n.state.frames.len() == 0 || !n.state.frames.hasMarks() {
		g.removeNode(n)
		return
	}
	if n.state.frames.len() >= g.cfg.Duration {
		n.resultMark = mark
		g.resultsNext = append(g.resultsNext, n)
	}
}

// sweep removes dead weight graph-wide; see Process.
func (g *SSG) sweep(minFID vr.FrameID) {
	for _, n := range g.nodes {
		if n == nil || n.dead {
			continue
		}
		g.pruneNode(n, minFID)
	}
}
