package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tvq"
	"tvq/internal/bench"
	"tvq/internal/server"
	"tvq/internal/vr"
)

// serve-live: an open loop against the tvqd handler (server.New) on a
// loopback listener. Each step opens a server and a multi-feed session
// (workers = nproc, shard=feed) carrying three cheap queries over
// window 90 / duration 30 whose matches fire on most frames. Its feeds
// are M1-profile traces (sparse, 6 objects/frame), each from its own
// seed, pre-encoded as binary one-frame batches and sent at 30 fps per
// feed the way a camera uplink sends them, by one sender goroutine on
// one keep-alive connection; matches are read back from each query's
// JSONL /v1/queries/{id}/stream. The offered rate steps up by feed
// count (serveSteps). Every request is timed from when it was due, not
// from when it was sent, so a stall shows in the latency of everything
// queued behind it.
//
// Why: per-frame engine work is small, so HTTP dispatch, decode, the
// session lock, fan-out and stream writes set the latency. In a probe a
// one-frame POST had a p50 round trip of 122 µs, about 7.0k frames/s on
// M1. This is where server, vr and observability work must show, and
// where core work must not.
const (
	serveFPS      = 30
	serveWindow   = 90
	serveDuration = 30
	// serveLimitMs is the p99 delivery latency a step must stay within
	// to count as sustained. Stalls of the shared machine pushed a
	// 960 fps step's p99 to 115-130 ms in 2 of 10 runs; a limit below
	// that would make sustained_fps flip between steps run to run, while
	// a step past capacity fails on its backlog at any limit.
	serveLimitMs = 250
	// serveDrain is how long a step waits after its last send for the
	// remaining stream lines before counting them missing.
	serveDrain = 3 * time.Second
	// serveSetupProbes is how many extra stacks a run sets up and tears
	// down before its steps, to give setup_s more samples.
	serveSetupProbes = 12
)

var serveQueries = []string{"person >= 2", "person >= 4", "person >= 1 AND (car >= 1 OR truck >= 1)"}

// serveStep is one load step's inputs and reference.
type serveStep struct {
	feeds   int
	perFeed int
	// batches[i] is slot i of the schedule: frame i/feeds of feed
	// i%feeds. requests[i] is its whole ingest request.
	batches  [][]byte
	requests [][]byte
	frames   [][]vr.Frame // per feed, for the direct layer drives
	ref      []digest     // by key feed*perFeed+fid
}

type serveRunner struct {
	cfg     config
	steps   []*serveStep
	ref     int // index of the reference step
	queries []tvq.Query
	params  []server.QueryParams
}

func prepareServe(cfg config) (runner, error) {
	steps, ref := serveSteps, refStep
	window, duration := serveWindow, serveDuration
	if cfg.small {
		steps, ref = []int{2, 4}, 1
		window, duration = 20, 5
	}
	r := &serveRunner{cfg: cfg, ref: ref}
	for i, text := range serveQueries {
		q, err := tvq.ParseQuery(i+1, text, window, duration)
		if err != nil {
			return nil, err
		}
		r.queries = append(r.queries, q)
		r.params = append(r.params, server.QueryParams{ID: i + 1, Query: text, Window: window, Duration: duration})
	}
	m1, _ := tvq.DatasetByName("M1")
	perFeed := min(int(cfg.seconds.Seconds()*serveFPS)/len(steps)+1, m1.Frames)
	rng := rand.New(rand.NewSource(cfg.seed))
	var traces []*vr.Trace
	for _, feeds := range steps {
		st := &serveStep{feeds: feeds, perFeed: perFeed, batches: make([][]byte, feeds*perFeed)}
		for f := 0; f < feeds; f++ {
			ds, err := bench.Config{Seed: rng.Int63(), Scale: m1.Frames / perFeed}.LoadDataset("M1")
			if err != nil {
				return nil, err
			}
			batches, err := encodeFrames(ds.Trace)
			if err != nil {
				return nil, err
			}
			for j := 0; j < perFeed; j++ {
				st.batches[j*feeds+f] = batches[j]
			}
			st.frames = append(st.frames, ds.Trace.Frames()[:perFeed])
			traces = append(traces, ds.Trace)
		}
		for i, b := range st.batches {
			head := fmt.Sprintf("POST /v1/feeds/%d/frames?session=live HTTP/1.1\r\nHost: tvqd\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
				i%feeds, vr.Binary.ContentType(), len(b))
			st.requests = append(st.requests, append([]byte(head), b...))
		}
		r.steps = append(r.steps, st)
	}
	// traces holds each step's feeds in order, steps in order.
	feedOf := make([]tvq.FeedID, 0, len(traces))
	for _, st := range r.steps {
		for f := 0; f < st.feeds; f++ {
			feedOf = append(feedOf, tvq.FeedID(f))
		}
	}
	refs, _, err := parallelReference(traces, func(i int, t *vr.Trace) ([]digest, error) {
		return referenceDigests(t.Frames()[:perFeed], r.queries, nil, &lineFeed{feed: feedOf[i]})
	})
	if err != nil {
		return nil, err
	}
	for _, st := range r.steps {
		for f := 0; f < st.feeds; f++ {
			st.ref = append(st.ref, refs[0]...)
			refs = refs[1:]
		}
	}
	return r, nil
}

// stepResult is what one load step measured.
type stepResult struct {
	setup      float64
	rate       float64 // frames accepted per second of the step
	deliverP50 float64
	deliverP99 float64
	ingestP99  float64
	genLagP99  float64
	tailLagMs  float64 // median lag of the step's last tenth of sends
	backlog    int     // slots still unsent when the step ended
	streamLag  float64 // median µs from a POST's response to its frame's last line
	rejected   int64
	failed     int64
	attempted  int64
	mismatch   string
	sustained  bool
}

func (r *serveRunner) measure(tr *tracer, d time.Duration) (*outcome, error) {
	o := newOutcome()
	var setups, heap []float64
	// Extra stacks opened and closed before the steps give setup_s a
	// median over more than the steps' own set-ups.
	for k := 0; k < serveSetupProbes; k++ {
		w0 := nanotime()
		stk, err := r.open(r.steps[0], 0, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(nanotime()-w0)/1e9)
		stk.close()
	}
	sustained := 0.0
	for i, st := range r.steps {
		n := min(int(d.Seconds()*serveFPS)/len(r.steps), st.perFeed)
		var corrupt int64
		if i == 0 {
			corrupt = r.cfg.corrupt
		}
		res, err := r.runStep(st, n, corrupt, tr, func() { heap = append(heap, heapLiveMB()) })
		if err != nil {
			return nil, fmt.Errorf("step %d feeds: %w", st.feeds, err)
		}
		setups = append(setups, res.setup)
		o.attempted += res.attempted
		o.fail(res.failed, res.mismatch)
		o.set(fmt.Sprintf("serve.deliver_p99_ms.s%d", i+1), res.deliverP99)
		o.note("step %3d feeds (%4d fps offered): %8.1f fps accepted, deliver p50 %.3fms p99 %.3fms, ingest p99 %.3fms, gen lag p99 %.3fms, tail lag %.3fms, backlog %d, %d rejected, %d failed, sustained=%v",
			st.feeds, st.feeds*serveFPS, res.rate, res.deliverP50, res.deliverP99, res.ingestP99, res.genLagP99, res.tailLagMs, res.backlog, res.rejected, res.failed, res.sustained)
		if res.sustained {
			sustained = res.rate
		}
		if i == r.ref {
			o.set("frames_per_sec", res.rate)
			o.set("deliver_p50_ms", res.deliverP50)
			o.set("deliver_p99_ms", res.deliverP99)
			o.set("ingest_p99_ms", res.ingestP99)
			o.set("serve.gen_lag_ms", res.genLagP99)
			o.set("server.stream_lag_us", res.streamLag)
		}
		o.metrics["server.rejected"] += float64(res.rejected)
	}
	o.set("setup_s", median(setups))
	o.set("sustained_fps", sustained)
	o.set("heap_live_mb", median(heap))
	return o, nil
}

// runStep serves one load step end to end: it opens a server, its
// session and the match streams (the step's set-up), sends the first n
// frames of every feed on schedule, drains the streams, checks every
// line against the reference, calls atEnd while the session is still
// open, and tears everything down.
func (r *serveRunner) runStep(st *serveStep, n int, corrupt int64, tr *tracer, atEnd func()) (res stepResult, err error) {
	w0 := nanotime()
	stk, err := r.open(st, corrupt, tr)
	if err != nil {
		return res, err
	}
	defer stk.close()
	res.setup = float64(nanotime()-w0) / 1e9
	lines, up := stk.lines, stk.up

	// The schedule: slot i is due at start + i/(30·feeds) s. Sending
	// stops once the schedule has ended by more than the latency limit;
	// slots still unsent then are the step's backlog.
	slots := n * st.feeds
	interval := time.Second / time.Duration(serveFPS*st.feeds)
	due := make([]int64, slots)
	done := make([]int64, slots)
	lag := make([]float64, 0, slots)
	ingestMs := make([]float64, 0, slots)
	start := nanotime() + int64(10*time.Millisecond)
	stop := start + int64(slots-1)*int64(interval) + int64(serveLimitMs*time.Millisecond)
	sent := 0
	for ; sent < slots; sent++ {
		i := sent
		due[i] = start + int64(i)*int64(interval)
		if wait := due[i] - nanotime(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		now := nanotime()
		if now > stop {
			break
		}
		lag = append(lag, float64(now-due[i])/1e6)
		rs := tr.begin("server.request", -1, int64(i))
		if tr != nil {
			tr.outer.Store(rs)
			tr.req.Store(int64(i))
		}
		status, err := up.post(st.requests[i])
		tr.end(rs)
		done[i] = nanotime()
		ingestMs = append(ingestMs, float64(done[i]-due[i])/1e6)
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			if res.mismatch == "" {
				res.mismatch = fmt.Sprintf("slot %d: %v", i, err)
			}
		case status == http.StatusTooManyRequests:
			res.rejected++
			res.failed++
		case status != http.StatusOK:
			res.failed++
			if res.mismatch == "" {
				res.mismatch = fmt.Sprintf("slot %d (feed %d frame %d): status %d", i, i%st.feeds, i/st.feeds, status)
			}
		}
	}
	if sent == 0 {
		return res, fmt.Errorf("no frame sent before the step's deadline")
	}
	res.backlog = slots - sent
	res.rate = float64(sent) / (float64(done[sent-1]-start) / 1e9)

	// Drain: wait for every line the reference expects for the frames
	// sent, then compare.
	var expected int64
	want := make([]digest, len(st.ref))
	for i := 0; i < sent; i++ {
		k := st.key(i)
		want[k] = st.ref[k]
		expected += st.ref[k].n
	}
	deadline := time.Now().Add(serveDrain)
	for lines.count.Load() < expected && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	atEnd()
	stk.stopStreams()

	bad, first := compareDigests(want, lines.dig, func(k int) string {
		return fmt.Sprintf("feed %d frame %d", k/st.perFeed, k%st.perFeed)
	})
	if bad > 0 {
		res.failed += bad
		if res.mismatch == "" {
			res.mismatch = first
		}
	}
	if lines.bad > 0 {
		res.failed += lines.bad
		if res.mismatch == "" {
			res.mismatch = fmt.Sprintf("%d stream lines without a feed and frame id", lines.bad)
		}
	}
	res.attempted += expected

	// A frame's result is complete when its last match line arrives, or
	// at its POST's response when it matched nothing.
	var deliver, streamLag []float64
	for i := 0; i < sent; i++ {
		k := st.key(i)
		end := done[i]
		if st.ref[k].n > 0 {
			if end = lines.last[k]; end == 0 {
				continue // missing, counted above
			}
			streamLag = append(streamLag, float64(end-done[i])/1e3)
		}
		deliver = append(deliver, float64(end-due[i])/1e6)
	}
	tr.count("frames", float64(sent))
	tr.count("deliveries", float64(lines.count.Load()))
	res.deliverP50, res.deliverP99 = median(deliver), percentile(deliver, 99)
	res.ingestP99 = percentile(ingestMs, 99)
	res.streamLag = median(streamLag)
	res.tailLagMs = median(lag[len(lag)-len(lag)/10:])
	res.genLagP99 = percentile(lag, 99)
	res.sustained = res.failed == 0 && res.backlog == 0 &&
		res.deliverP99 <= serveLimitMs && res.ingestP99 <= serveLimitMs && res.tailLagMs <= serveLimitMs
	return res, nil
}

// key maps schedule slot i to its digest index feed*perFeed+fid.
func (st *serveStep) key(i int) int { return (i%st.feeds)*st.perFeed + i/st.feeds }

// stack is one step's serving stack: a tvqd server on a loopback
// listener, its multi-feed session, a reader per match stream, and the
// uplink connection frames are sent on.
type stack struct {
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	client  *http.Client
	cancel  context.CancelFunc
	readers sync.WaitGroup
	lines   *lineSink
	up      *uplink
}

// open builds a step's stack; its duration is the step's set-up time.
func (r *serveRunner) open(st *serveStep, corrupt int64, tr *tracer) (*stack, error) {
	var defaults []tvq.Option
	if tr != nil {
		defaults = append(defaults, tr.observer())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		srv:    server.New(server.Config{SessionDefaults: defaults}),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{DisableCompression: true}},
	}
	h := s.srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	if r.cfg.wrap != nil {
		h = r.cfg.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if err := s.start(ctx, ln.Addr().String(), st, r.params, corrupt); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start creates the session, connects the match streams and dials the
// uplink.
func (s *stack) start(ctx context.Context, addr string, st *serveStep, params []server.QueryParams, corrupt int64) error {
	base := "http://" + addr
	create, err := json.Marshal(map[string]any{
		"name": "live", "workers": runtime.NumCPU(), "shard": "feed", "queries": params,
	})
	if err != nil {
		return err
	}
	if err := postJSON(s.client, base+"/v1/sessions", create); err != nil {
		return err
	}
	keys := st.feeds * st.perFeed
	s.lines = &lineSink{dig: make([]digest, keys), last: make([]int64, keys), perFeed: st.perFeed, corrupt: corrupt}
	for _, q := range params {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/queries/%d/stream?session=live&format=jsonl&buffer=65536", base, q.ID), nil)
		if err != nil {
			return err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("stream %d: status %d", q.ID, resp.StatusCode)
		}
		s.readers.Add(1)
		go func() {
			defer s.readers.Done()
			defer resp.Body.Close()
			s.lines.read(resp.Body)
		}()
	}
	s.up, err = dialUplink(addr)
	return err
}

// stopStreams ends the match streams and waits for their readers.
func (s *stack) stopStreams() {
	s.cancel()
	s.readers.Wait()
}

// close tears the stack down and waits for every goroutine it started.
func (s *stack) close() {
	s.stopStreams()
	_ = s.srv.Shutdown()
	_ = s.hs.Close()
	<-s.served
	if s.up != nil {
		s.up.conn.Close()
	}
	s.client.CloseIdleConnections()
}

// lineSink collects the match-stream lines of one step from the stream
// reader goroutines.
type lineSink struct {
	perFeed int
	count   atomic.Int64
	corrupt int64 // 1-based line whose hash is flipped; 0 = none

	mu   sync.Mutex
	dig  []digest
	last []int64 // nanotime the key's last line arrived
	bad  int64
}

func (s *lineSink) read(body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		now := nanotime()
		h := hashLine(line)
		if s.count.Add(1) == s.corrupt {
			h ^= 1
		}
		feed, fid, ok := lineKey(line)
		s.mu.Lock()
		k := feed*s.perFeed + fid
		if !ok || fid >= s.perFeed || k >= len(s.dig) {
			s.bad++
		} else {
			s.dig[k].add(h)
			s.last[k] = now
		}
		s.mu.Unlock()
	}
}

// lineKey reads the feed and frame id at the head of a stream line,
// {"feed":F,"fid":N,...}, without decoding the rest.
func lineKey(line []byte) (feed, fid int, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"feed":`))
	if !ok {
		return 0, 0, false
	}
	i := bytes.IndexByte(rest, ',')
	if i < 0 {
		return 0, 0, false
	}
	if feed, ok = atoiBytes(rest[:i]); !ok {
		return 0, 0, false
	}
	rest, ok = bytes.CutPrefix(rest[i:], []byte(`,"fid":`))
	if !ok {
		return 0, 0, false
	}
	if i = bytes.IndexByte(rest, ','); i < 0 {
		return 0, 0, false
	}
	fid, ok = atoiBytes(rest[:i])
	return feed, fid, ok
}

// traceHandler wraps the tvqd handler with a server.handler span around
// every ingest request, the child of the client's request span.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/frames") {
			h.ServeHTTP(w, req)
			return
		}
		sp := tr.begin("server.handler", tr.outer.Load(), tr.req.Load())
		tr.cur.Store(sp)
		h.ServeHTTP(w, req)
		tr.end(sp)
	})
}

func postJSON(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// uplink is the camera side of the ingest path: one keep-alive HTTP/1.1
// connection carrying pre-encoded requests, with responses parsed in
// place. It allocates nothing per request, so the load generator adds
// no garbage to the process the server runs in.
type uplink struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialUplink(addr string) (*uplink, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &uplink{conn: conn, br: bufio.NewReader(conn)}, nil
}

// post writes one request and reads its response, returning the status.
func (u *uplink) post(req []byte) (int, error) {
	if _, err := u.conn.Write(req); err != nil {
		return 0, err
	}
	line, err := u.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	rest, ok := bytes.CutPrefix(line, []byte("HTTP/1.1 "))
	if !ok || len(rest) < 3 {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status, ok := atoiBytes(rest[:3])
	if !ok {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		if line, err = u.br.ReadSlice('\n'); err != nil {
			return status, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if length, ok = atoiBytes(bytes.TrimSpace(v)); !ok {
				return status, fmt.Errorf("malformed header %q", line)
			}
		}
	}
	if length < 0 {
		return status, fmt.Errorf("response %d without Content-Length", status)
	}
	_, err = u.br.Discard(length)
	return status, err
}

// atoiBytes parses a non-negative decimal without allocating.
func atoiBytes(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func (r *serveRunner) drive(o *outcome) error {
	st := r.steps[r.ref]
	frames := st.frames[0]
	if err := driveCore(o, frames, r.queries); err != nil {
		return err
	}
	if err := driveReorder(o, shuffled(frames, churnBound, r.cfg.seed), churnBound); err != nil {
		return err
	}
	if err := driveDecode(o, st.batches); err != nil {
		return err
	}
	return drivePatch(o, frames, r.queries)
}

func (r *serveRunner) close() {}
