package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/anncache"
	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/obs"
)

// Proxy is the optional intermediary of Figure 1: "a high-end machine with
// the ability to process the video stream in real-time, on-the-fly". It
// is a serving node like the Server — same session handler, same fetch
// resolver — whose catalogue fetches each clip untouched from an
// upstream server and performs the annotation analysis and compensation
// itself, serving clients exactly what the annotating server would
// have: "either the proxy or the server node suffices" (§3).
//
// The proxy assumes the upstream tier is unreliable: it can be given
// several upstream origins in failover order, each guarded by a circuit
// breaker — a dead or flapping origin is skipped until its half-open
// probe succeeds. Clips move over the cluster fetch RPC (CRC-checked,
// under a whole-exchange deadline), failed fetches are retried with
// backoff, and when every upstream is down a previously-fetched copy of
// the clip is served stale rather than failing the client.
type Proxy struct {
	nodeCore

	// brCfg and probeEvery shape the upstream peer set (nodeCore's
	// upstreams), rebuilt whenever either changes before Listen.
	brCfg      breaker.Config
	probeEvery time.Duration

	upstreamLat     *obs.Histogram
	upstreamRetries *obs.Counter
	staleServes     *obs.Counter
	failovers       *obs.Counter
	probesTotal     *obs.Counter

	// Upstream fetch behaviour.
	retry RetryPolicy
	dial  func(network, addr string) (net.Conn, error)
}

// upstreamDialTimeout bounds connecting to an upstream.
const upstreamDialTimeout = 5 * time.Second

// NewProxy builds a proxy over one or more upstream server addresses in
// failover order: fetches go to the first upstream whose breaker admits
// them, falling over to the next on failure.
func NewProxy(upstreams ...string) *Proxy {
	p := &Proxy{
		retry:      RetryPolicy{MaxAttempts: 3},
		brCfg:      cluster.DefaultBreakerConfig(),
		probeEvery: 500 * time.Millisecond,
	}
	p.initCore("proxy", p)
	p.upstreams = p.newUpstreams(upstreams)
	return p
}

// newUpstreams builds the upstream peer set under the current breaker
// and probe settings; the recovery prober counts its dials in
// proxy_upstream_probes_total.
func (p *Proxy) newUpstreams(addrs []string) *cluster.PeerSet {
	return cluster.NewPeerSet(addrs, p.brCfg, p.onBreakerChange, p.probeEvery, p.dialAddr,
		func() { p.probesTotal.Inc() })
}

// onBreakerChange logs and exports every breaker transition.
func (p *Proxy) onBreakerChange(addr string, from, to breaker.State) {
	p.logf("stream proxy: upstream %s breaker %s -> %s", addr, from, to)
	if r := p.obsReg; r != nil {
		l := obs.L("role", "proxy")
		r.Gauge("proxy_breaker_state",
			"Per-upstream breaker state (0 closed, 1 half-open, 2 open).",
			l, obs.L("upstream", addr)).Set(float64(to))
		if to == breaker.Open {
			r.Counter("proxy_breaker_opens_total",
				"Upstream breakers tripped open.", l, obs.L("upstream", addr)).Inc()
		}
	}
}

// SetBreakerConfig overrides the per-upstream circuit-breaker tuning
// (rolling failure window, open cool-down, probe budget); the
// OnStateChange callback, if any, is chained after the proxy's own
// logging/metrics hook. Call before Listen.
func (p *Proxy) SetBreakerConfig(cfg breaker.Config) {
	p.brCfg = cfg
	p.upstreams = p.newUpstreams(p.upstreams.Addrs())
}

// SetProbeInterval sets how often unhealthy upstreams are probed for
// recovery (dial-level reachability; 0 disables probing). Call before
// Listen.
func (p *Proxy) SetProbeInterval(d time.Duration) {
	p.probeEvery = d
	p.upstreams = p.newUpstreams(p.upstreams.Addrs())
}

// UpstreamAddrs returns the configured upstream addresses in failover
// order.
func (p *Proxy) UpstreamAddrs() []string { return p.upstreams.Addrs() }

// SetObserver installs a telemetry registry. Call before Listen.
func (p *Proxy) SetObserver(r *obs.Registry) {
	p.nodeCore.SetObserver(r)
	p.upstreamLat = r.Histogram("proxy_upstream_latency_seconds",
		"Time to fetch and decode a whole raw clip from the upstream server.",
		obs.DefLatencyBuckets, obs.L("role", "proxy"))
	p.upstreamRetries = r.Counter("proxy_upstream_retries_total",
		"Upstream fetch attempts retried after a failure.", obs.L("role", "proxy"))
	p.staleServes = r.Counter("proxy_stale_serves_total",
		"Sessions served from the stale clip cache because the upstream was down.",
		obs.L("role", "proxy"))
	p.failovers = r.Counter("proxy_failovers_total",
		"Fetches served by a non-primary upstream after failover.", obs.L("role", "proxy"))
	p.probesTotal = r.Counter("proxy_upstream_probes_total",
		"Recovery probes sent to unhealthy upstreams.", obs.L("role", "proxy"))
	for _, addr := range p.upstreams.Addrs() {
		st, _ := p.upstreams.State(addr)
		r.Gauge("proxy_breaker_state",
			"Per-upstream breaker state (0 closed, 1 half-open, 2 open).",
			obs.L("role", "proxy"), obs.L("upstream", addr)).Set(float64(st))
	}
}

// SetRetryPolicy overrides the upstream fetch retry behaviour (the zero
// value means 3 attempts with the default backoff). Call before Listen.
func (p *Proxy) SetRetryPolicy(r RetryPolicy) {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	p.retry = r
}

// SetDial overrides the upstream dial function (tests inject faulty or
// tracked links).
func (p *Proxy) SetDial(dial func(network, addr string) (net.Conn, error)) {
	p.dial = dial
}

// Listen starts accepting client connections.
func (p *Proxy) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts client connections from a caller-provided listener
// (chaos runs wrap a fault-injecting listener around a plain TCP one);
// the upstream recovery prober runs until the proxy drains.
func (p *Proxy) Serve(ln net.Listener) { p.serve(ln, p.clientSession) }

// clientSession adapts the shared handler to the session wrapper (a
// proxy has no admission queue).
func (p *Proxy) clientSession(conn net.Conn) error { return p.handle(conn, 0) }

// Ready implements the readiness contract for /readyz: nil while the
// proxy is accepting, not draining, and at least one upstream breaker is
// not open.
func (p *Proxy) Ready() error {
	if err := p.nodeCore.Ready(); err != nil {
		return err
	}
	if p.upstreams.AllOpen() {
		return errors.New("all upstream breakers open")
	}
	return nil
}

// lookup is the proxy's catalogue: it fetches the clip from the
// upstreams on every request (concurrent sessions share one in-flight
// fetch, but a cached copy never suppresses it), and only when every
// retry fails does it degrade to the stale cached copy.
func (p *Proxy) lookup(ctx context.Context, name string) (clipEntry, error) {
	key := anncache.Key{Kind: "clip", Digest: name, Quality: -1}
	v, err := p.cache.Do(key, func() (any, int64, error) {
		c, err := p.fetchClip(ctx, name)
		if err != nil {
			return nil, 0, err
		}
		w, h := c.src.Size()
		// The decoded frames dominate: 24 bytes per RGB pixel.
		return c, int64(c.src.TotalFrames()) * int64(w) * int64(h) * 24, nil
	})
	if err != nil {
		if p.ctx.Err() != nil {
			return clipEntry{}, p.ctx.Err()
		}
		// No upstream delivered the clip: degrade to the last good copy
		// if we have one.
		if sv, ok := p.cache.Peek(key); ok {
			p.staleServes.Inc()
			p.logf("stream proxy: upstream down, serving %q stale", name)
			c := sv.(clipEntry)
			c.stale = true
			return c, nil
		}
		return clipEntry{}, err
	}
	return v.(clipEntry), nil
}

// byDigest resolves a peer fetch through the upstream path: the hint
// names the clip to fetch, and its content must match the digest.
func (p *Proxy) byDigest(ctx context.Context, hint, digest string) (clipEntry, error) {
	if hint == "" {
		return clipEntry{}, fmt.Errorf("%w: proxy resolution needs a clip hint", cluster.ErrNotFound)
	}
	c, err := p.lookup(ctx, hint)
	if err != nil {
		return clipEntry{}, err
	}
	if c.digest != digest {
		return clipEntry{}, fmt.Errorf("%w: clip %q content digest mismatch", cluster.ErrNotFound, hint)
	}
	return c, nil
}

// stored reports nothing: the proxy holds only clips it fetched.
func (p *Proxy) stored(string) (clipEntry, bool) { return clipEntry{}, false }

// fetchClip pulls the clip from the upstreams with bounded retries. A
// clean not-found is the upstream's answer, not a failure: it is
// returned at once, without a retry.
func (p *Proxy) fetchClip(ctx context.Context, name string) (clipEntry, error) {
	retry := p.retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.upstreamRetries.Inc()
			select {
			case <-time.After(retry.delay(attempt, newBackoffRNG())):
			case <-p.ctx.Done():
				return clipEntry{}, p.ctx.Err()
			}
		}
		if p.ctx.Err() != nil {
			return clipEntry{}, p.ctx.Err()
		}
		start := time.Now()
		src, err := p.fetchOnce(ctx, name)
		if errors.Is(err, cluster.ErrNotFound) {
			return clipEntry{}, err
		}
		if err != nil {
			lastErr = err
			continue
		}
		p.upstreamLat.Observe(time.Since(start).Seconds())
		return clipEntry{name: name, src: src, digest: core.SourceDigest(src)}, nil
	}
	return clipEntry{}, fmt.Errorf("upstream unreachable after %d attempts: %w", retry.MaxAttempts, lastErr)
}

// fetchOnce tries each upstream in failover order until one answers
// cleanly; the peer set skips and settles each upstream's breaker. A
// success from a non-primary upstream counts as a failover.
func (p *Proxy) fetchOnce(ctx context.Context, name string) (core.Source, error) {
	addrs := p.upstreams.Addrs()
	if len(addrs) == 0 {
		return nil, errors.New("no upstreams configured")
	}
	var lastErr error
	for i, addr := range addrs {
		src, err := p.fetchFrom(ctx, addr, name)
		if err == nil && i > 0 {
			p.failovers.Inc()
		}
		if err == nil || errors.Is(err, cluster.ErrNotFound) {
			return src, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// fetchFrom fetches the clip's untouched stream from one upstream as a
// "clip" artifact and decodes it. The fetch carries this span's
// context, so the upstream's work joins the session's trace.
func (p *Proxy) fetchFrom(ctx context.Context, addr, name string) (src core.Source, err error) {
	fctx, sp := obs.StartSpanCtx(ctx, "proxy.fetch_raw")
	defer sp.End()
	sp.SetAttr("upstream", addr)
	defer func() {
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
	}()
	payload, err := p.upstreams.Fetch(fctx, addr, cluster.FetchRequest{Kind: "clip", Digest: name, Quality: -1})
	if err != nil {
		return nil, err
	}
	return decodeClip(payload)
}

// decodeClip decodes a "clip" payload — a container stream of the
// untouched encoded frames — into an in-memory source.
func decodeClip(payload []byte) (core.Source, error) {
	reader, err := container.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hdr := reader.Header()
	dec, err := codec.NewDecoder(hdr.W, hdr.H)
	if err != nil {
		return nil, err
	}
	mem := &memSource{w: hdr.W, h: hdr.H, fps: hdr.FPS}
	for {
		ef, err := reader.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f, err := dec.Decode(ef)
		if err != nil {
			return nil, err
		}
		mem.frames = append(mem.frames, f)
	}
	if len(mem.frames) == 0 {
		return nil, errors.New("upstream sent empty stream")
	}
	if hdr.FrameCount > 0 && len(mem.frames) < hdr.FrameCount {
		return nil, fmt.Errorf("%w: upstream sent %d of %d frames",
			ErrTruncatedStream, len(mem.frames), hdr.FrameCount)
	}
	return mem, nil
}

func (p *Proxy) dialAddr(addr string) (net.Conn, error) {
	if p.dial != nil {
		return p.dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, upstreamDialTimeout)
}

// memSource is a decoded in-memory clip.
type memSource struct {
	w, h, fps int
	frames    []*frame.Frame
}

func (m *memSource) Size() (int, int)         { return m.w, m.h }
func (m *memSource) FPS() int                 { return m.fps }
func (m *memSource) TotalFrames() int         { return len(m.frames) }
func (m *memSource) Frame(i int) *frame.Frame { return m.frames[i] }
