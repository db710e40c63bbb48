package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tvq/internal/objset"
	"tvq/internal/vr"
)

// TestProcessInputBufferReuse pins the input-ownership half of the
// Process contract: a generator takes its own copy of everything it
// retains from the frame, so an ingest loop may decode every frame into
// one reusable buffer. The hostile run below overwrites the shared
// buffer with the next frame's ids immediately after each Process call;
// its per-frame results must still be identical to a run over immutable
// frames. Before generators cloned what they retain, the window buffer
// aliased the caller's slice and the marking rule read the *next*
// frame's ids out of past window entries.
func TestProcessInputBufferReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		cfg := Config{Window: 3 + r.Intn(6)}
		cfg.Duration = r.Intn(cfg.Window + 1)
		feed := randomFeed(r, 20+r.Intn(20), 5+r.Intn(4), 5)

		for _, name := range []string{"naive", "mfs", "ssg"} {
			clean := generatorByName(name, cfg)
			dirty := generatorByName(name, cfg)

			var want []map[string]string
			for _, f := range feed {
				want = append(want, resultMap(clean.Process(f)))
			}

			// One shared buffer, rewritten in place for every frame.
			buf := make([]objset.ID, 0, 64)
			for i, f := range feed {
				buf = f.Objects.AppendTo(buf[:0])
				hostile := vr.Frame{FID: f.FID, Objects: objset.FromSorted(buf)}
				got := resultMap(dirty.Process(hostile))
				// Clobber the buffer with the next frame's ids (or garbage
				// on the last frame) before comparing: any retained alias
				// into buf is now poisoned.
				if i+1 < len(feed) {
					buf = feed[i+1].Objects.AppendTo(buf[:0])
				} else {
					for j := range buf {
						buf[j] = 0xdeadbeef
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want[i]) {
					t.Fatalf("%s trial %d frame %d: buffer-reuse run diverged\ngot  %v\nwant %v",
						name, trial, f.FID, got, want[i])
				}
			}
		}
	}
}

// TestResultsSurviveLaterFrames pins the output half of the contract as
// consumers rely on it across call boundaries: the object sets and frame
// slices reachable from a result snapshot (what query.Match retains)
// must keep their values as later frames are processed, states die, and
// interned handles are recycled. Like query evaluation, the snapshot
// holds one exact AppendFrames copy per state shared by two holders,
// and each holder appends to its slice: with len == cap the appends
// reallocate and must not show through the other holder.
func TestResultsSurviveLaterFrames(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	cfg := Config{Window: 5, Duration: 2}
	feed := randomFeed(r, 120, 6, 5)

	type snap struct {
		fid     vr.FrameID
		objects []objset.Set
		frames  [][]vr.FrameID
		render  []string
	}
	for _, name := range []string{"naive", "mfs", "ssg"} {
		gen := generatorByName(name, cfg)
		var snaps []snap
		for _, f := range feed {
			states := gen.Process(f)
			s := snap{fid: f.FID}
			for _, st := range states {
				// Copy exactly what query.Match copies: the Set value and
				// one exact frame-id copy, here shared by two holders.
				fr := st.AppendFrames(make([]vr.FrameID, 0, st.FrameCount()), 0)
				s.objects = append(s.objects, st.Objects, st.Objects)
				s.frames = append(s.frames, fr, fr)
			}
			for i := range s.objects {
				s.render = append(s.render, fmt.Sprintf("%s=%v", s.objects[i], s.frames[i]))
			}
			sort.Strings(s.render)
			for i := range s.frames {
				s.frames[i] = append(s.frames[i], -vr.FrameID(i)-1)
			}
			snaps = append(snaps, s)
		}
		// Re-render every snapshot after the whole feed: the Set values
		// and slices must not have been mutated behind the consumer's
		// back by state recycling, interner churn or the other holder.
		for _, s := range snaps {
			var again []string
			for i := range s.objects {
				fr := s.frames[i]
				if fr[len(fr)-1] != -vr.FrameID(i)-1 {
					t.Fatalf("%s: frame %d holder %d: appended id overwritten: %v", name, s.fid, i, fr)
				}
				again = append(again, fmt.Sprintf("%s=%v", s.objects[i], fr[:len(fr)-1]))
			}
			sort.Strings(again)
			if fmt.Sprint(again) != fmt.Sprint(s.render) {
				t.Fatalf("%s: results of frame %d changed after the feed ended\nheld %v\nnow  %v",
					name, s.fid, s.render, again)
			}
		}
	}
}

func generatorByName(name string, cfg Config) Generator {
	switch name {
	case "naive":
		return NewNaive(cfg)
	case "mfs":
		return NewMFS(cfg)
	case "ssg":
		return NewSSG(cfg)
	default:
		panic("unknown generator " + name)
	}
}
