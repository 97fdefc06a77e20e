package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
)

// span is one recorded interval. Spans of one session share the
// session span as parent; times are nanoseconds since the tracer began.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Clip   string `json:"clip,omitempty"`
}

// tracer keeps the traced run's spans in memory and counts the
// server's Frame calls through the sources it wraps. All methods are
// safe for concurrent use.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	active map[string]int64 // clip -> span of the session last playing it

	frameCalls atomic.Int64
	frameNanos atomic.Int64
	// delay, in nanoseconds, is added to every wrapped Frame call (the
	// slowdown drill).
	delay atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), active: map[string]int64{}}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset forgets the spans and counts recorded so far (set-up traffic),
// keeping the span ids unique.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.active = map[string]int64{}
	t.mu.Unlock()
	t.frameCalls.Store(0)
	t.frameNanos.Store(0)
}

// wrap is the catalogue wrapper installed on the traced run's servers.
func (t *tracer) wrap(name string, src core.Source) core.Source {
	return &timedSource{Source: src, clip: name, tr: t}
}

// timedSource times and counts the server's Frame calls.
type timedSource struct {
	core.Source
	clip string
	tr   *tracer
}

func (s *timedSource) Frame(i int) *frame.Frame {
	start := time.Now()
	if d := time.Duration(s.tr.delay.Load()); d > 0 {
		// Busy-wait rather than sleep: a slower renderer costs CPU, and
		// sleeping would overshoot by the timer's granularity.
		for time.Since(start) < d {
		}
	}
	f := s.Source.Frame(i)
	end := time.Now()
	s.tr.frameCalls.Add(1)
	s.tr.frameNanos.Add(end.Sub(start).Nanoseconds())
	s.tr.mu.Lock()
	parent := s.tr.active[s.clip]
	s.tr.mu.Unlock()
	s.tr.record(span{ID: s.tr.nextID.Add(1), Parent: parent, Name: "source.frame",
		Start: s.tr.ns(start), End: s.tr.ns(end), Clip: s.clip})
	return f
}

// sessionTrace is the traced state of one PlayContext call.
type sessionTrace struct {
	tr   *tracer
	id   int64
	clip string
	t0   time.Time

	mu        sync.Mutex
	dialAt    time.Time
	firstByte time.Time
	lastFrame time.Time
}

func (t *tracer) startSession(clip string, at time.Time) *sessionTrace {
	st := &sessionTrace{tr: t, id: t.nextID.Add(1), clip: clip, t0: at}
	t.mu.Lock()
	t.active[clip] = st.id
	t.mu.Unlock()
	return st
}

// dial is the client's Dial hook: it notes when the first attempt
// dialled and wraps the connection to catch the first response byte.
func (st *sessionTrace) dial(network, addr string) (net.Conn, error) {
	st.mu.Lock()
	if st.dialAt.IsZero() {
		st.dialAt = time.Now()
	}
	st.mu.Unlock()
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return &firstByteConn{Conn: c, st: st}, nil
}

type firstByteConn struct {
	net.Conn
	st   *sessionTrace
	seen bool
}

func (c *firstByteConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.seen {
		c.seen = true
		c.st.onFirstByte(time.Now())
	}
	return n, err
}

func (st *sessionTrace) onFirstByte(at time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.firstByte.IsZero() {
		return
	}
	st.firstByte = at
	st.lastFrame = at
	st.tr.record(span{ID: st.tr.nextID.Add(1), Parent: st.id, Name: "stream.first_byte",
		Start: st.tr.ns(st.dialAt), End: st.tr.ns(at), Clip: st.clip})
}

// onFrame records the decode span of one delivered frame: from the
// previous frame (or the first byte) to this OnFrame call.
func (st *sessionTrace) onFrame(at time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	from := st.lastFrame
	if from.IsZero() {
		from = st.t0
	}
	st.lastFrame = at
	st.tr.record(span{ID: st.tr.nextID.Add(1), Parent: st.id, Name: "client.decode",
		Start: st.tr.ns(from), End: st.tr.ns(at), Clip: st.clip})
}

// end closes the session span and returns the time from dial to the
// first response byte and from that byte to the end (zeros when no
// byte arrived).
func (st *sessionTrace) end(at time.Time) (toFirst, afterFirst time.Duration) {
	st.tr.record(span{ID: st.id, Name: "client.session", Start: st.tr.ns(st.t0), End: st.tr.ns(at), Clip: st.clip})
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.firstByte.IsZero() {
		return 0, 0
	}
	return st.firstByte.Sub(st.dialAt), at.Sub(st.firstByte)
}

// writeSpans writes the recorded spans as one JSON array.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
