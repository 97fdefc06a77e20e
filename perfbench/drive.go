package main

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/stream"
)

// sessionTTL abandons a session that has not finished in time; an
// abandoned session counts as failed.
const sessionTTL = 30 * time.Second

// sessionResult is what one timed session leaves behind.
type sessionResult struct {
	spec      sessionSpec
	res       *stream.PlayResult
	err       error
	abandoned bool
	ttff      time.Duration // PlayContext call to the first decoded frame
	firstByte time.Duration // dial to first response byte (traced runs)
	afterByte time.Duration // first response byte to the end (traced runs)
	digests   []uint64
	wrong     bool // set by verify
}

func (r *sessionResult) ok() bool { return r.err == nil && !r.wrong }

// frameDigest is FNV-1a over a frame's R, G, B bytes in pixel order.
func frameDigest(f *frame.Frame) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, p := range f.Pix {
		h = (h ^ uint64(p.R)) * prime
		h = (h ^ uint64(p.G)) * prime
		h = (h ^ uint64(p.B)) * prime
	}
	return h
}

func newClient(spec sessionSpec) *stream.Client {
	c := &stream.Client{
		Device:      display.ByName(spec.device),
		Retry:       stream.RetryPolicy{MaxAttempts: 4, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
		ReadTimeout: 10 * time.Second,
	}
	if spec.adaptive {
		c.Ladder = &adaptive.LadderConfig{}
	}
	return c
}

// refPlay is an untimed play: its frame digests and result.
type refPlay struct {
	digests []uint64
	res     *stream.PlayResult
}

// playRef plays spec once against addr without timing it.
func playRef(ctx context.Context, addr string, spec sessionSpec) (*refPlay, error) {
	rp := &refPlay{}
	c := newClient(spec)
	c.OnFrame = func(i int, f *frame.Frame, _ int) {
		if i == 0 {
			rp.digests = rp.digests[:0]
		}
		rp.digests = append(rp.digests, frameDigest(f))
	}
	ctx, cancel := context.WithTimeout(ctx, sessionTTL)
	defer cancel()
	var err error
	rp.res, err = c.PlayContext(ctx, addr, spec.clip, spec.quality())
	return rp, err
}

// playTimed plays one scheduled session, timing it from the
// PlayContext call; with a tracer it also records the session's spans.
func playTimed(addr string, spec sessionSpec, tr *tracer) *sessionResult {
	sr := &sessionResult{spec: spec}
	c := newClient(spec)
	t0 := time.Now()
	var st *sessionTrace
	if tr != nil {
		st = tr.startSession(spec.clip, t0)
		c.Dial = st.dial
	}
	c.OnFrame = func(i int, f *frame.Frame, _ int) {
		now := time.Now()
		if i == 0 {
			sr.ttff = now.Sub(t0)
			sr.digests = sr.digests[:0]
		}
		if st != nil {
			st.onFrame(now)
		}
		sr.digests = append(sr.digests, frameDigest(f))
	}
	ctx, cancel := context.WithTimeout(context.Background(), sessionTTL)
	defer cancel()
	sr.res, sr.err = c.PlayContext(ctx, addr, spec.clip, spec.quality())
	sr.abandoned = errors.Is(sr.err, context.DeadlineExceeded)
	if st != nil {
		sr.firstByte, sr.afterByte = st.end(time.Now())
	}
	return sr
}

// counters are node-registry totals summed over the nodes, plus the Go
// runtime's allocation and GC totals.
type counters map[string]float64

// nodeCounters are the registry families the benchmark reads. A key
// with a "|label=value" suffix sums only the matching series.
var nodeCounters = []string{
	"anncache_hits_total",
	"anncache_misses_total",
	"anncache_evictions_total",
	"anncache_singleflight_waits_total",
	"annstore_hits_total",
	"annstore_misses_total",
	"annstore_puts_total",
	"cluster_peer_fills_total",
	"cluster_fill_failures_total",
	"cluster_route_total|decision=fallback_compute",
	"stream_sessions_shed_total",
}

var runtimeCounters = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func snapshot(nodes []*node) (counters, error) {
	c := counters{}
	for _, n := range nodes {
		var sb strings.Builder
		if err := n.reg.WritePrometheus(&sb); err != nil {
			return nil, err
		}
		e, err := obs.ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			return nil, err
		}
		for _, key := range nodeCounters {
			name, label, _ := strings.Cut(key, "|")
			var labels []obs.Label
			if k, v, ok := strings.Cut(label, "="); ok {
				labels = append(labels, obs.L(k, v))
			}
			c[key] += e.Sum(name, labels...)
		}
	}
	samples := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		samples[i].Name = name
	}
	metrics.Read(samples)
	for _, s := range samples {
		c[s.Name] = float64(s.Value.Uint64())
	}
	return c, nil
}

func (c counters) minus(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// heapSampler records the peak of the Go heap in use.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// sample reads the heap in use, raises the peak, and returns the peak
// so far in bytes. Any goroutine may call it.
func (h *heapSampler) sample() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		p := h.peak.Load()
		if v <= p {
			return p
		}
		if h.peak.CompareAndSwap(p, v) {
			return v
		}
	}
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak.Load()
}

// phase is one timed phase: the sessions it ran, in schedule order.
type phase struct {
	results []*sessionResult
	elapsed time.Duration
	// heapPeak is the peak heap until the workload's ledgerWindow-th
	// session ended (or over the whole phase if fewer ended). A fixed
	// amount of work rather than a fixed time bounds it, because on
	// cold-miss the heap grows with every fresh clip served.
	heapPeak uint64
	delta    counters
}

// drive runs the timed phase: the workload's clients each play the
// next unclaimed schedule entry until dur has passed (or the schedule
// runs out), starting a session only after the previous one ended.
func drive(e *env, dur time.Duration, tr *tracer) (*phase, error) {
	sched := e.plan.schedule
	results := make([]*sessionResult, len(sched))
	runtime.GC()
	before, err := snapshot(e.nodes)
	if err != nil {
		return nil, err
	}
	hs := startHeapSampler()
	start := time.Now()
	deadline := start.Add(dur)
	var next, ended atomic.Int64
	var windowPeak atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				spec := sched[k]
				results[k] = playTimed(e.nodes[spec.node].addr, spec, tr)
				if ended.Add(1) == int64(e.w.ledgerWindow) {
					windowPeak.Store(hs.sample())
				}
			}
		}()
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), heapPeak: hs.finish()}
	if p := windowPeak.Load(); p > 0 {
		ph.heapPeak = p
	}
	after, err := snapshot(e.nodes)
	if err != nil {
		return nil, err
	}
	ph.delta = after.minus(before)
	n := int(next.Load())
	if n > len(sched) {
		n = len(sched)
	}
	ph.results = results[:n]
	return ph, nil
}
