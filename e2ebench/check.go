package main

import (
	"context"
	"encoding/json"
	"fmt"

	"tvq"
	"tvq/internal/objset"
)

// digest summarizes the deliveries of one frame: how many, and the sum
// of their hashes. The sum is order-free, so deliveries of different
// queries may arrive in any order within a frame.
type digest struct {
	n   int64
	sum uint64
}

func (d *digest) add(h uint64) {
	d.n++
	d.sum += h
}

func mix(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

// finish is the splitmix64 finalizer: it spreads every input bit over
// the result so that sums of hashes do not cancel structurally.
func finish(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

const hashSeed = 0xcbf29ce484222325

// hashDelivery hashes the fields a delivery carries: feed, frame,
// query, object ids and the frames the objects co-occur in. scratch is
// reused storage for the object ids.
func hashDelivery(d tvq.Delivery, scratch *[]objset.ID) uint64 {
	h := mix(mix(mix(hashSeed, uint64(d.Feed)), uint64(d.FID)), uint64(d.Match.QueryID))
	*scratch = d.Match.Objects.AppendTo((*scratch)[:0])
	h = mix(h, uint64(len(*scratch)))
	for _, id := range *scratch {
		h = mix(h, uint64(id))
	}
	h = mix(h, uint64(len(d.Match.Frames)))
	for _, f := range d.Match.Frames {
		h = mix(h, uint64(f))
	}
	return finish(h)
}

// hashLine hashes one JSONL stream line (without its newline).
func hashLine(line []byte) uint64 {
	h := uint64(hashSeed)
	for _, b := range line {
		h = mix(h, uint64(b))
	}
	return finish(h)
}

// streamLine is the JSONL schema of a tvqd match stream line, written
// here independently of the server's encoder so that the reference
// produces the bytes a correct stream must carry.
type streamLine struct {
	Feed    int64    `json:"feed"`
	FID     int64    `json:"fid"`
	Query   int      `json:"query"`
	Objects []uint32 `json:"objects"`
	Frames  []int64  `json:"frames"`
}

func encodeLine(d tvq.Delivery) ([]byte, error) {
	return json.Marshal(streamLine{
		Feed:    int64(d.Feed),
		FID:     d.FID,
		Query:   d.Match.QueryID,
		Objects: d.Match.Objects.IDs(),
		Frames:  d.Match.Frames,
	})
}

// compareDigests counts the deliveries that differ between the
// reference and a run, frame by frame: a frame whose digests differ
// counts its missing or extra deliveries, or all of them when the
// counts agree but the contents do not. It describes the first
// differing frame.
func compareDigests(ref, got []digest, label func(i int) string) (bad int64, first string) {
	for i := range ref {
		var g digest
		if i < len(got) {
			g = got[i]
		}
		if ref[i] == g {
			continue
		}
		n := ref[i].n - g.n
		if n < 0 {
			n = -n
		}
		if n == 0 {
			n = ref[i].n
		}
		bad += n
		if first == "" {
			first = fmt.Sprintf("%s: reference has %d deliveries, run has %d (digest %x vs %x)",
				label(i), ref[i].n, g.n, ref[i].sum, g.sum)
		}
	}
	for i := len(ref); i < len(got); i++ {
		if got[i].n != 0 {
			bad += got[i].n
			if first == "" {
				first = fmt.Sprintf("%s: %d deliveries the reference does not have", label(i), got[i].n)
			}
		}
	}
	return bad, first
}

// recorder is the benchmark's counting sink for in-process sessions.
// It digests every delivery by frame and stamps each frame's last
// delivery time. A session calls its sinks from the one goroutine that
// holds its processing lock, so the recorder needs no locking.
type recorder struct {
	dig     []digest
	last    []int64 // nanotime of each frame's last delivery, 0 = none
	n       int64   // deliveries so far
	corrupt int64   // 1-based delivery whose hash is flipped; 0 = none
	scratch []objset.ID
	// lines, when set, digests each delivery as the JSONL stream line
	// tvqd must send for it on feed lines.feed, for checking a served
	// stream.
	lines *lineFeed

	// Traced runs only: time spent in the sink and the interval the
	// current Process call's deliveries covered.
	timed           bool
	sinkNs          int64
	firstNs, lastNs int64
}

func newRecorder(frames int) *recorder {
	return &recorder{dig: make([]digest, frames), last: make([]int64, frames)}
}

// reset prepares the recorder for a fresh pass.
func (r *recorder) reset() {
	clear(r.dig)
	clear(r.last)
	r.n = 0
}

func (r *recorder) deliver(d tvq.Delivery) error {
	var start int64
	if r.timed {
		start = nanotime()
		if r.firstNs == 0 {
			r.firstNs = start
		}
	}
	var h uint64
	if r.lines != nil {
		d.Feed = r.lines.feed
		line, err := encodeLine(d)
		if err != nil {
			return err
		}
		h = hashLine(line)
	} else {
		h = hashDelivery(d, &r.scratch)
	}
	r.n++
	if r.n == r.corrupt {
		h ^= 1
	}
	if d.FID < 0 || d.FID >= int64(len(r.dig)) {
		return fmt.Errorf("delivery for frame %d outside the input's %d frames", d.FID, len(r.dig))
	}
	r.dig[d.FID].add(h)
	end := nanotime()
	r.last[d.FID] = end
	if r.timed {
		r.sinkNs += end - start
		r.lastNs = end
	}
	return nil
}

// lineFeed is the feed a reference run's deliveries are served on.
type lineFeed struct{ feed tvq.FeedID }

func (r *recorder) sink() tvq.Sink { return tvq.SinkFunc(r.deliver) }

// referenceDigests runs frames in order through a Naive single-engine
// session — the independent path every workload's output is checked
// against — subscribing queries at the start and applying churn events
// before the frames they precede. It returns the per-frame digests.
func referenceDigests(frames []tvq.Frame, queries []tvq.Query, events []churnEvent, lines *lineFeed) ([]digest, error) {
	s, err := tvq.Open(context.Background(), tvq.WithMethod(tvq.MethodNaive))
	if err != nil {
		return nil, err
	}
	defer s.Close()
	rec := newRecorder(len(frames))
	rec.lines = lines
	subs := make(map[int]*tvq.Subscription)
	for _, q := range queries {
		sub, err := s.Subscribe(q, tvq.WithSink(rec.sink()))
		if err != nil {
			return nil, err
		}
		subs[q.ID] = sub
	}
	next := 0
	for i, f := range frames {
		for next < len(events) && events[next].cursor == int64(i) {
			ev := events[next]
			if err := subs[ev.cancel].Cancel(); err != nil {
				return nil, err
			}
			delete(subs, ev.cancel)
			sub, err := s.Subscribe(ev.add, tvq.WithSink(rec.sink()))
			if err != nil {
				return nil, err
			}
			subs[ev.add.ID] = sub
			next++
		}
		if _, err := s.Process([]tvq.FeedFrame{{Frame: f}}); err != nil {
			return nil, err
		}
	}
	return rec.dig, nil
}
