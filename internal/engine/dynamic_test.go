package engine

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"tvq/internal/cnf"
	"tvq/internal/objset"
	"tvq/internal/vr"
)

// steadyFeed produces frames where objects 1 (person) and 2 (car) are
// always present, so any reasonable query matches predictably.
func steadyFeed(n int) []vr.Frame {
	classes := map[objset.ID]vr.Class{1: 0, 2: 1, 3: 0}
	frames := make([]vr.Frame, n)
	for i := range frames {
		s := objset.New(1, 2)
		if i%2 == 0 {
			s = objset.New(1, 2, 3)
		}
		frames[i] = vr.Frame{FID: vr.FrameID(i), Objects: s, Classes: classes}
	}
	return frames
}

func TestTumblingWindows(t *testing.T) {
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 10, 5)}
	eng, err := New(qs, Options{Windows: Tumbling})
	if err != nil {
		t.Fatal(err)
	}
	var matchFIDs []vr.FrameID
	for _, f := range steadyFeed(40) {
		if ms := eng.ProcessFrame(f); len(ms) > 0 {
			matchFIDs = append(matchFIDs, f.FID)
		}
	}
	want := []vr.FrameID{9, 19, 29, 39}
	if !reflect.DeepEqual(matchFIDs, want) {
		t.Fatalf("tumbling match frames = %v, want %v", matchFIDs, want)
	}
}

func TestTumblingMatchesSubsetOfSliding(t *testing.T) {
	tr := smallTrace(t, 21)
	qs := []cnf.Query{mkQuery(t, 1, "person >= 1", 12, 6)}
	slide, _ := New(qs, Options{})
	tumble, _ := New(qs, Options{Windows: Tumbling})
	for _, f := range tr.Frames() {
		sm := slide.ProcessFrame(f)
		tm := tumble.ProcessFrame(f)
		if (f.FID+1)%12 != 0 {
			if len(tm) != 0 {
				t.Fatalf("tumbling emitted mid-block at frame %d", f.FID)
			}
			continue
		}
		// At block boundaries both see the same window.
		if len(sm) != len(tm) {
			t.Fatalf("frame %d: sliding %d matches, tumbling %d", f.FID, len(sm), len(tm))
		}
	}
}

func TestAddQuerySameWindow(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	for _, f := range feed[:10] {
		eng.ProcessFrame(f)
	}
	if err := eng.AddQuery(mkQuery(t, 2, "person >= 1", 10, 5)); err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 1 {
		t.Fatalf("Groups = %d, want 1 (shared window)", eng.Groups())
	}
	// The new query references a class the old filter dropped, so the
	// group restarts; both queries match once d=5 frames re-accumulate.
	seen := map[int]bool{}
	for _, f := range feed[10:20] {
		for _, m := range eng.ProcessFrame(f) {
			seen[m.QueryID] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("matches after add = %v, want both queries", seen)
	}
}

func TestAddQuerySharedHistoryWhenNoRestartNeeded(t *testing.T) {
	// Both queries reference the same class and duration, so the new one
	// reuses the group's history and matches on the very next frame.
	eng, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	for _, f := range feed[:10] {
		eng.ProcessFrame(f)
	}
	if err := eng.AddQuery(mkQuery(t, 2, "car >= 1", 10, 7)); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, m := range eng.ProcessFrame(feed[10]) {
		seen[m.QueryID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("matches after add = %v, want both immediately", seen)
	}
}

func TestAddQueryNewWindow(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(40)
	for _, f := range feed[:20] {
		eng.ProcessFrame(f)
	}
	if err := eng.AddQuery(mkQuery(t, 2, "person >= 1", 6, 3)); err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 2 {
		t.Fatalf("Groups = %d, want 2", eng.Groups())
	}
	var q2frames []vr.FrameID
	for _, f := range feed[20:] {
		for _, m := range eng.ProcessFrame(f) {
			if m.QueryID == 2 {
				// Frame ids in matches must be feed-relative, not
				// generator-relative.
				for _, fid := range m.Frames {
					if fid < 20 {
						t.Fatalf("match frame %d predates query registration", fid)
					}
				}
				q2frames = append(q2frames, f.FID)
			}
		}
	}
	if len(q2frames) == 0 {
		t.Fatal("late-registered query never matched")
	}
	// First possible match: 3 frames after registration (d=3).
	if q2frames[0] < 22 {
		t.Fatalf("query 2 matched too early: %v", q2frames[0])
	}
}

func TestAddQueryValidation(t *testing.T) {
	eng, _ := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{})
	if err := eng.AddQuery(mkQuery(t, 1, "person >= 1", 10, 5)); err == nil {
		t.Error("duplicate id accepted")
	}
	bad := mkQuery(t, 2, "person >= 1", 10, 5)
	bad.Duration = 99
	if err := eng.AddQuery(bad); err == nil {
		t.Error("invalid query accepted")
	}
	pruned, _ := New([]cnf.Query{mkQuery(t, 1, "car >= 1", 10, 5)}, Options{Prune: true})
	if err := pruned.AddQuery(mkQuery(t, 2, "person >= 1", 10, 5)); err == nil {
		t.Error("AddQuery accepted under pruning")
	}
}

func TestAddQueryLoosensDuration(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "person >= 1", 10, 8)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	for _, f := range feed[:10] {
		eng.ProcessFrame(f)
	}
	// d=2 < group push-down 8: the group restarts to honor it.
	if err := eng.AddQuery(mkQuery(t, 2, "person >= 1", 10, 2)); err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, f := range feed[10:] {
		for _, m := range eng.ProcessFrame(f) {
			if m.QueryID == 2 {
				matched = true
				if len(m.Frames) < 2 {
					t.Fatalf("match below duration: %+v", m)
				}
			}
		}
	}
	if !matched {
		t.Fatal("loose-duration query never matched after group restart")
	}
}

// TestAddQueryRestartShiftsSharedFramesOnce pins the start offset of a
// restarted window group against the Frames sharing of evaluation: the
// matches of one state share one Frames copy, so the offset must go
// into that copy once, not be added per match. Two queries match the
// same states here; a per-match shift would move their frames by twice
// the group's start.
func TestAddQueryRestartShiftsSharedFramesOnce(t *testing.T) {
	q1 := mkQuery(t, 1, "person >= 1", 10, 8)
	q2 := mkQuery(t, 2, "car >= 1", 10, 2)
	eng, err := New([]cnf.Query{q1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(30)
	const start = 10
	for _, f := range feed[:start] {
		eng.ProcessFrame(f)
	}
	// d=2 < push-down 8 and car is filtered out: the group restarts.
	if err := eng.AddQuery(q2); err != nil {
		t.Fatal(err)
	}
	// The restarted group equals a fresh engine fed the suffix from
	// frame 0, with every reported frame id moved up by start.
	fresh, err := New([]cnf.Query{q1, q2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, f := range feed[start:] {
		got := eng.ProcessFrame(f)
		rf := f
		rf.FID -= start
		var want []string
		for _, m := range fresh.ProcessFrame(rf) {
			fr := slices.Clone(m.Frames)
			for i := range fr {
				fr[i] += start
			}
			m.Frames = fr
			want = append(want, matchKey(m))
		}
		var keys []string
		perState := make(map[string]int)
		for _, m := range got {
			keys = append(keys, matchKey(m))
			if perState[m.Objects.String()]++; perState[m.Objects.String()] == 2 {
				shared++
			}
		}
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("frame %d: restarted group reports\n%v\nwant\n%v", f.FID, keys, want)
		}
	}
	if shared == 0 {
		t.Fatal("no state matched both queries; the test cannot see a double shift")
	}
}

func TestRemoveQuery(t *testing.T) {
	eng, err := New([]cnf.Query{
		mkQuery(t, 1, "car >= 1", 10, 5),
		mkQuery(t, 2, "person >= 1", 10, 5),
		mkQuery(t, 3, "person >= 1", 20, 5),
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Groups() != 2 {
		t.Fatalf("Groups = %d", eng.Groups())
	}
	ok, err := eng.RemoveQuery(3)
	if err != nil || !ok {
		t.Fatalf("RemoveQuery(3) = %v, %v", ok, err)
	}
	if eng.Groups() != 1 {
		t.Errorf("empty group not dropped: %d", eng.Groups())
	}
	ok, _ = eng.RemoveQuery(3)
	if ok {
		t.Error("second removal reported found")
	}
	if _, err := eng.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	feed := steadyFeed(20)
	for _, f := range feed {
		for _, m := range eng.ProcessFrame(f) {
			if m.QueryID != 2 {
				t.Fatalf("removed query still matching: %+v", m)
			}
		}
	}
	if got := len(eng.Queries()); got != 1 {
		t.Errorf("Queries() = %d, want 1", got)
	}
}

func TestIdentityQueriesEndToEnd(t *testing.T) {
	// "#2 AND person >= 1": the specific car (id 2) together with any
	// person. Object 2 is a car present in every frame.
	eng, err := New([]cnf.Query{mkQuery(t, 1, "#2 AND person >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, f := range steadyFeed(20) {
		for _, m := range eng.ProcessFrame(f) {
			matched++
			if !m.Objects.Contains(2) {
				t.Fatalf("identity constraint violated: %v", m.Objects)
			}
		}
	}
	if matched == 0 {
		t.Fatal("identity query never matched")
	}

	// An id that never appears must never match.
	eng2, _ := New([]cnf.Query{mkQuery(t, 1, "#99", 10, 2)}, Options{})
	for _, f := range steadyFeed(20) {
		if ms := eng2.ProcessFrame(f); len(ms) != 0 {
			t.Fatalf("ghost identity matched: %+v", ms)
		}
	}
}

func TestIdentityQueriesWithPruning(t *testing.T) {
	// Identity constraints are subset-monotone, so §5.3 pruning applies.
	qs := []cnf.Query{mkQuery(t, 1, "#2 AND person >= 1", 10, 5)}
	plain, _ := New(qs, Options{})
	pruned, err := New(qs, Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range steadyFeed(25) {
		a := plain.ProcessFrame(f)
		b := pruned.ProcessFrame(f)
		if len(a) != len(b) {
			t.Fatalf("frame %d: pruning changed results (%d vs %d)", f.FID, len(a), len(b))
		}
	}
}

func TestStream(t *testing.T) {
	eng, err := New([]cnf.Query{mkQuery(t, 1, "person >= 1", 10, 5)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan vr.Frame)
	go func() {
		defer close(frames)
		for _, f := range steadyFeed(25) {
			frames <- f
		}
	}()
	got := 0
	for r := range eng.Stream(context.Background(), frames) {
		if len(r.Matches) == 0 {
			t.Fatal("empty stream result")
		}
		got++
	}
	if got == 0 {
		t.Fatal("stream produced nothing")
	}
}

func TestStreamCancellation(t *testing.T) {
	eng, _ := New([]cnf.Query{mkQuery(t, 1, "person >= 1", 10, 1)}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	frames := make(chan vr.Frame)
	out := eng.Stream(ctx, frames)
	feed := steadyFeed(1000)
	frames <- feed[0]
	cancel()
	// The goroutine must terminate and close the channel even though the
	// producer stops sending.
	for range out {
	}
}
