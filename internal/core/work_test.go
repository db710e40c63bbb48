package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/snapshot"
	"tvq/internal/video"
	"tvq/internal/vr"
)

// benchClipM2 renders the M2 profile the way the root Figure 4
// benchmarks load it at benchScale 6: frames and objects divided by the
// scale, seed 1, perfect tracking, window 300/6 and duration 240/6.
func benchClipM2(t *testing.T) ([]vr.Frame, Config) {
	t.Helper()
	const scale = 6
	p := video.M2()
	p.Frames /= scale
	p.Objects = max(2, p.Objects/scale)
	sc, err := video.Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := sc.Render(vr.StandardRegistry())
	feed := make([]vr.Frame, tr.Len())
	for i := range feed {
		feed[i] = tr.Frame(i)
	}
	return feed, Config{Window: 300 / scale, Duration: 240 / scale}
}

// TestSSGWorkCountersGolden pins the amount of work SSG performs on
// fixed traces: intersections, visits, creations and prunings must stay
// exactly at the values recorded before the traversal's per-visit cost
// was cut (target memo, inline frame-list head, no re-fold). Those
// optimizations may change what a unit of work costs, never how many
// units there are. Every frame's results are also checked against the
// oracle, so a change that kept the counts but broke the output fails
// here too.
func TestSSGWorkCountersGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		feed func(t *testing.T) ([]vr.Frame, Config)
		want Metrics
	}{
		{
			name: "m2-benchscale6",
			feed: benchClipM2,
			want: Metrics{FramesProcessed: 125, StatesCreated: 2518, StatesPruned: 1641, Intersections: 110785, StatesVisited: 112237},
		},
		{
			name: "alloc-feed",
			feed: func(*testing.T) ([]vr.Frame, Config) {
				return allocFeed(400, 42), Config{Window: 30, Duration: 4}
			},
			want: Metrics{FramesProcessed: 400, StatesCreated: 2269, StatesPruned: 2079, Intersections: 72572, StatesVisited: 74461},
		},
		{
			name: "dense-random",
			feed: func(*testing.T) ([]vr.Frame, Config) {
				return randomFeed(rand.New(rand.NewSource(12)), 300, 10, 8), Config{Window: 20, Duration: 6}
			},
			want: Metrics{FramesProcessed: 300, StatesCreated: 866, StatesPruned: 781, Intersections: 19947, StatesVisited: 20593},
		},
		{
			name: "sparse-random",
			feed: func(*testing.T) ([]vr.Frame, Config) {
				return randomFeed(rand.New(rand.NewSource(13)), 300, 40, 6), Config{Window: 12, Duration: 3}
			},
			want: Metrics{FramesProcessed: 300, StatesCreated: 592, StatesPruned: 558, Intersections: 5276, StatesVisited: 5777},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			feed, cfg := tc.feed(t)
			g, oracle := NewSSG(cfg), NewOracle(cfg)
			for _, f := range feed {
				want := fmt.Sprint(resultMap(oracle.Process(f)))
				if got := fmt.Sprint(resultMap(g.Process(f))); got != want {
					t.Fatalf("frame %d: SSG emitted %s, oracle %s", f.FID, got, want)
				}
			}
			if got := g.Metrics(); got != tc.want {
				t.Errorf("work counters\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// principalDupFeed is the trace on which pruneNode used to empty a
// node's createdBy mid-traversal, so ensurePrincipal listed the node
// again while it was still on the principal list.
func principalDupFeed() []vr.Frame {
	return feedFrames([]objset.Set{
		objset.New(1, 2), objset.New(1, 2, 3), objset.New(1, 2, 4), objset.New(1, 2),
		objset.New(1, 2, 5), objset.New(1, 2, 6), objset.New(1, 2),
	})
}

// TestSSGPrincipalsListedOnce replays principalDupFeed with w=3. At
// fids 3 and 6, pruneNode expires the last creator frame of {1 2} during
// the traversal while the node is still on the principal list, and
// ensurePrincipal must not list it again. Before onPrincipalList it was
// listed three times after fid 6, one more each time the pattern
// repeated.
func TestSSGPrincipalsListedOnce(t *testing.T) {
	g := NewSSG(Config{Window: 3, Duration: 1})
	for _, f := range principalDupFeed() {
		g.Process(f)
		seen := make(map[*ssgNode]bool)
		for _, n := range g.principals {
			if seen[n] {
				t.Fatalf("fid %d: %v listed twice in principals", f.FID, n.state.Objects)
			}
			seen[n] = true
			if !n.onPrincipalList {
				t.Fatalf("fid %d: listed %v has onPrincipalList unset", f.FID, n.state.Objects)
			}
		}
	}
	if n := lookupNode(g, objset.New(1, 2)); n == nil || !n.onPrincipalList || len(n.createdBy) == 0 {
		t.Fatalf("{1 2} should be a listed principal state after fid 6: %+v", n)
	}
}

// TestSSGDecodeDedupesPrincipals restores a snapshot whose principal
// list names a node twice, as snapshots written before the list was
// deduplicated can, and requires the restored generator to list it once
// and to encode exactly like the deduplicated original.
func TestSSGDecodeDedupesPrincipals(t *testing.T) {
	cfg := Config{Window: 3, Duration: 1}
	g := NewSSG(cfg)
	for _, f := range principalDupFeed() {
		g.Process(f)
	}
	var clean snapshot.Writer
	if err := EncodeGenerator(&clean, g); err != nil {
		t.Fatal(err)
	}
	dup := lookupNode(g, objset.New(1, 2))
	g.principals = append(g.principals, dup, dup)
	var dirty snapshot.Writer
	if err := EncodeGenerator(&dirty, g); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(clean.Bytes(), dirty.Bytes()) {
		t.Fatal("duplicate principals did not reach the encoding; the test exercises nothing")
	}
	restored, err := DecodeGenerator(snapshot.NewReader(dirty.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var again snapshot.Writer
	if err := EncodeGenerator(&again, restored); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(clean.Bytes(), again.Bytes()) {
		t.Error("restored generator does not encode like the deduplicated original")
	}
}

// TestSSGRecycledMemoResolvesThroughInterner replays a trace on which a
// node's memoized target dies and its interned handle is reused for a
// different object set inside the window. The node's next intersection
// must resolve through the interner to the right node, never to the
// stale memo or to whatever now holds the recycled handle.
func TestSSGRecycledMemoResolvesThroughInterner(t *testing.T) {
	cfg := Config{Window: 3, Duration: 1}
	feed := feedFrames([]objset.Set{
		objset.New(1, 2), objset.New(2, 3), objset.New(2, 4, 5), objset.New(1, 3, 4),
		objset.New(1, 2, 5), objset.New(1, 2), objset.New(5),
	})
	g, oracle := NewSSG(cfg), NewOracle(cfg)
	check := func(f vr.Frame) {
		t.Helper()
		want := fmt.Sprint(resultMap(oracle.Process(f)))
		if got := fmt.Sprint(resultMap(g.Process(f))); got != want {
			t.Fatalf("frame %d: SSG emitted %s, oracle %s", f.FID, got, want)
		}
	}
	last := feed[len(feed)-1]
	for _, f := range feed[:len(feed)-1] {
		check(f)
	}

	n := lookupNode(g, objset.New(2, 5))
	if n == nil || n.memo == nil || !n.memo.dead {
		t.Fatalf("setup: {2 5} should hold a dead memo, got node %+v", n)
	}
	stale := n.memo
	if holder := g.nodes[stale.handle]; holder == nil || holder == stale {
		t.Fatalf("setup: the dead memo's handle %d should be recycled by a live node", stale.handle)
	}

	check(last)
	if n.dead || n.visited != last.FID || n.resolved != resolvedMemo {
		t.Fatalf("{2 5} should have resolved a target at fid %d", last.FID)
	}
	want := lookupNode(g, objset.New(5))
	if n.memo != want || want == nil || n.memo.dead {
		t.Errorf("{2 5} resolved to %p, want the live {5} node %p", n.memo, want)
	}
	checkGraphInvariants(t, g)
}

// TestSSGMemoIsExact checks, after every frame of random feeds, the two
// facts that make the target memo exact: a live memo is the node its
// handle is registered to (so it is the node Interner.Lookup returns for
// its set), and a dead node holds no memo that could pin other nodes.
func TestSSGMemoIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		cfg := Config{Window: 2 + r.Intn(8)}
		cfg.Duration = r.Intn(cfg.Window + 1)
		g, oracle := NewSSG(cfg), NewOracle(cfg)
		for _, f := range randomFeed(r, 60, 5+r.Intn(6), 5) {
			want := fmt.Sprint(resultMap(oracle.Process(f)))
			if got := fmt.Sprint(resultMap(g.Process(f))); got != want {
				t.Fatalf("trial %d frame %d: SSG emitted %s, oracle %s", trial, f.FID, got, want)
			}
			for _, n := range g.nodes {
				if n == nil || n.memo == nil || n.memo.dead {
					continue
				}
				if g.nodes[n.memo.handle] != n.memo {
					t.Fatalf("trial %d frame %d: live memo %v of %v is not registered at its handle",
						trial, f.FID, n.memo.state.Objects, n.state.Objects)
				}
			}
			for _, list := range [][]*ssgNode{g.rootOrder, g.principals, g.results} {
				for _, n := range list {
					if n.dead && n.memo != nil {
						t.Fatalf("trial %d frame %d: dead node keeps a memo", trial, f.FID)
					}
				}
			}
		}
	}
}
