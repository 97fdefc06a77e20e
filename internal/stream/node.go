package stream

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anncache"
	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
)

// Per-connection deadlines of every serving node: handshakeTimeout
// bounds reading the negotiation request, and writeTimeout is re-armed
// before every write, so a client that stops draining its socket
// cannot pin a session goroutine.
const (
	handshakeTimeout = 10 * time.Second
	writeTimeout     = 30 * time.Second
)

// clipEntry is one resolved clip: its catalogue name, decoded source
// and content digest. stale marks a proxy's last good copy, served
// because every upstream failed.
type clipEntry struct {
	name   string
	src    core.Source
	digest string
	stale  bool
}

// catalogue maps a clip name to its source and content digest — the
// one thing the server and proxy roles differ in. Errors for clips the
// catalogue does not know wrap cluster.ErrNotFound.
type catalogue interface {
	// lookup resolves a client's clip name.
	lookup(ctx context.Context, name string) (clipEntry, error)
	// byDigest resolves a peer fetch's content digest, starting from
	// the requester's clip-name hint.
	byDigest(ctx context.Context, hint, digest string) (clipEntry, error)
	// stored returns a clip this node holds at rest — the source of a
	// "clip" fetch. A proxy stores nothing.
	stored(name string) (clipEntry, bool)
}

// nodeCore is the serving node the Server and Proxy share: one process
// that accepts connections, dispatches each by its 4-byte magic (client
// sessions vs peer artifact fetches), answers both through one session
// handler and one fetch resolver over its catalogue (server.go, beside
// the send path), owns the artifact cache/store tier, and drains
// cleanly. Embedding it lets a single
// streamd node simultaneously serve clients, fetch artifacts from
// cluster peers, and answer peer fetches over the same listener.
type nodeCore struct {
	// role labels logs, metrics and session spans ("server" or "proxy").
	role string
	cat  catalogue
	enc  EncodeConfig

	logMu sync.Mutex
	logFn func(format string, args ...any)

	obsReg *obs.Registry
	sm     serverMetrics

	// ctx is cancelled by Close; sessions check it between frames so a
	// shutdown (or a client stalled past its write deadline) releases
	// the goroutine promptly.
	ctx    context.Context
	cancel context.CancelFunc

	// drainCh closes when a graceful shutdown begins: queued admissions
	// shed immediately while in-flight sessions keep streaming, and
	// background probers (upstream recovery, cluster peer health) stop.
	drainCh   chan struct{}
	drainOnce sync.Once
	draining  atomic.Bool

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers sync.WaitGroup

	// cache holds every artifact the offline pipeline produces, keyed
	// by content digest, with single-flight dedup across sessions.
	cache *anncache.Cache
	// store, when set, is the persistent tier under the cache.
	store *annstore.Store
	// annWorkers is the worker-pool size of the annotation pipeline and
	// of variant encoding.
	annWorkers int

	// cnode, when set, shards artifact ownership across the member
	// list: local misses fill from the shard owner before computing.
	cnode *cluster.Node
	// upstreams is the proxy's breaker-guarded upstream origins in
	// failover order (nil for a server). Its recovery prober runs,
	// like cnode's, from serve until drain.
	upstreams *cluster.PeerSet
}

// initCore readies the embedded node (called from the role
// constructors).
func (n *nodeCore) initCore(role string, cat catalogue) {
	n.role = role
	n.cat = cat
	n.logFn = log.Printf
	n.ctx, n.cancel = context.WithCancel(context.Background())
	n.drainCh = make(chan struct{})
	n.conns = map[net.Conn]struct{}{}
	n.cache = anncache.New(DefaultCacheCapacity)
	n.annWorkers = runtime.GOMAXPROCS(0)
}

// SetLogf replaces the node's logger (tests silence it). Safe to call
// while the node is accepting connections.
func (n *nodeCore) SetLogf(f func(string, ...any)) {
	n.logMu.Lock()
	n.logFn = f
	n.logMu.Unlock()
	if n.cnode != nil {
		n.cnode.SetLogf(f)
	}
}

// logf logs through the current logger; the mutex makes SetLogf safe
// against concurrent session goroutines.
func (n *nodeCore) logf(format string, args ...any) {
	n.logMu.Lock()
	f := n.logFn
	n.logMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// SetObserver installs a telemetry registry. Call before Listen. (The
// proxy shadows this to add its upstream metric families.)
func (n *nodeCore) SetObserver(r *obs.Registry) {
	n.obsReg = r
	n.sm = newServerMetrics(r, n.role)
	n.cache.SetObserver(r, obs.L("role", n.role))
	if n.store != nil {
		n.store.SetObserver(r, obs.L("role", n.role))
	}
	if n.cnode != nil {
		n.cnode.SetObserver(r, obs.L("role", n.role))
	}
}

// SetAnnotateWorkers sets the worker-pool size of the annotation
// pipeline and of variant encoding (<= 1 selects the sequential
// paths). Call before Listen.
func (n *nodeCore) SetAnnotateWorkers(workers int) { n.annWorkers = workers }

// SetCacheCapacity bounds the artifact cache to capacityBytes (<= 0 is
// unlimited), evicting immediately if already over.
func (n *nodeCore) SetCacheCapacity(capacityBytes int64) { n.cache.SetCapacity(capacityBytes) }

// SetStore installs a persistent artifact store as the second tier
// beneath the memory cache: lookups go memory → disk → (peer fill) →
// compute, and computed artifacts are written through. The store
// publishes its metrics on the node's registry, whichever of SetStore
// and SetObserver is called first. Call before Listen.
func (n *nodeCore) SetStore(st *annstore.Store) {
	n.store = st
	if st != nil && n.obsReg != nil {
		st.SetObserver(n.obsReg, obs.L("role", n.role))
	}
}

// SetCluster joins the node to a sharded serving cluster: artifact
// misses route through cn's rendezvous hash and fill from the shard
// owner. (Every node answers peer fetches, clustered or not.) The node
// starts cn's health prober and stops it on drain. Call before Listen.
func (n *nodeCore) SetCluster(cn *cluster.Node) {
	n.cnode = cn
	if cn == nil {
		return
	}
	n.logMu.Lock()
	f := n.logFn
	n.logMu.Unlock()
	cn.SetLogf(f)
	if n.obsReg != nil {
		cn.SetObserver(n.obsReg, obs.L("role", n.role))
	}
}

// Cluster returns the attached cluster node (nil when unclustered).
func (n *nodeCore) Cluster() *cluster.Node { return n.cnode }

// tier is the local two-level artifact lookup (no peer fill) — what
// peer-facing resolution and unclustered nodes use.
func (n *nodeCore) tier() tier {
	return tier{cache: n.cache, store: n.store, workers: n.annWorkers}
}

// tierFor is the cluster-aware lookup for clip: memory → disk → shard
// owner → compute. The clip name rides each fetch as the hint that
// lets an owner map the one-way content digest back to its catalog.
func (n *nodeCore) tierFor(clip string) tier {
	return tier{cache: n.cache, store: n.store, node: n.cnode, clip: clip, workers: n.annWorkers}
}

// serve installs ln and accepts connections, running handler for each
// inside the shared session wrapper (conn bookkeeping, panic
// isolation, error accounting).
func (n *nodeCore) serve(ln net.Listener, handler func(net.Conn) error) {
	n.mu.Lock()
	n.ln = ln
	if !n.closed {
		// Recovery probers run while the node serves; beginDrain
		// stops them, and a drained node does not restart them.
		if n.upstreams != nil {
			n.upstreams.Start()
		}
		if n.cnode != nil {
			n.cnode.Start()
		}
	}
	n.mu.Unlock()
	go n.acceptLoop(ln, handler)
}

func (n *nodeCore) acceptLoop(ln net.Listener, handler func(net.Conn) error) {
	acceptWithBackoff(ln, "stream "+n.role, n.logf, n.sm.acceptErrors, func(conn net.Conn) {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.handlers.Add(1)
		n.mu.Unlock()
		n.sm.connsTotal.Inc()
		n.sm.activeConns.Add(1)
		go n.session(conn, handler)
	})
}

// session runs one accepted connection through the role handler with
// teardown and panic isolation: a panic anywhere in the session is
// recovered here — the session dies, the process (and every other
// session) survives.
func (n *nodeCore) session(conn net.Conn, handler func(net.Conn) error) {
	defer n.handlers.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		conn.Close()
		n.sm.activeConns.Add(-1)
	}()
	defer func() {
		if r := recover(); r != nil {
			n.sm.panics.Inc()
			n.logf("stream %s: session panic (recovered): %v\n%s", n.role, r, debug.Stack())
		}
	}()
	if err := handler(conn); err != nil && !errors.Is(err, io.EOF) {
		n.sm.sessErrors.Inc()
		n.logf("stream %s: %v", n.role, err)
	}
}

// beginDrain stops the listener and flips the node to draining:
// /readyz-style checks fail immediately, queued admissions shed,
// background probers stop, but in-flight sessions keep streaming.
func (n *nodeCore) beginDrain() {
	n.draining.Store(true)
	n.sm.draining.Set(1)
	n.drainOnce.Do(func() { close(n.drainCh) })
	n.mu.Lock()
	n.closed = true
	if n.ln != nil {
		n.ln.Close()
	}
	n.mu.Unlock()
	// Peer-health probing must not outlive the node's useful life: a
	// draining node neither routes, fills nor fetches upstream. Stop
	// waits for each prober to exit.
	if n.upstreams != nil {
		n.upstreams.Stop()
	}
	if n.cnode != nil {
		n.cnode.Stop()
	}
}

// Shutdown gracefully stops the node: it stops accepting, sheds any
// admission queue, and lets in-flight sessions finish. If ctx expires
// first, remaining sessions are cancelled and their connections
// closed; the context error is returned. A nil return means every
// session drained cleanly.
func (n *nodeCore) Shutdown(ctx context.Context) error {
	n.beginDrain()
	done := make(chan struct{})
	go func() {
		n.handlers.Wait()
		close(done)
	}()
	select {
	case <-done:
		n.cancel()
		return nil
	case <-ctx.Done():
		n.cancel()
		n.mu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the listener, cancels in-flight sessions and closes
// active connections (an immediate, non-draining shutdown).
func (n *nodeCore) Close() {
	n.beginDrain()
	n.cancel()
	n.mu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	n.handlers.Wait()
}

// Ready implements the readiness contract for /readyz: nil while the
// node is accepting and not draining. (The proxy shadows this to also
// require a non-open upstream breaker.)
func (n *nodeCore) Ready() error {
	if n.draining.Load() {
		return errors.New("draining")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return errors.New("not serving")
	}
	if n.closed {
		return errors.New("closed")
	}
	return nil
}

// serveFetch answers one peer AFR2 fetch on a connection whose magic
// has already been consumed: resolve the artifact and write it back
// CRC-trailed, or a clean typed failure. Resolver errors are normal
// cluster weather (unknown digest, encoder mismatch, upstream down) —
// the requester falls back to computing locally — so they answer the
// peer rather than erroring the session. A request carrying the
// requester's span context joins its trace.
func (n *nodeCore) serveFetch(ctx context.Context, conn net.Conn) error {
	req, err := cluster.ReadFetchRequestBody(conn)
	if err != nil {
		return err
	}
	ctx, sp := obs.StartSpanCtx(obs.WithSpanContext(ctx, req.Trace), "cluster.fetch_serve")
	defer sp.End()
	sp.SetAttr("kind", req.Kind)
	if r := n.obsReg; r != nil {
		r.Counter("cluster_fetch_served_total",
			"Peer fetch-artifact requests answered (success or clean refusal).",
			obs.L("role", n.role), obs.L("kind", req.Kind)).Inc()
	}
	payload, err := n.resolveFetchRequest(ctx, req)
	if err != nil {
		sp.SetAttr("error", err.Error())
		code := uint8(cluster.CodeUnavailable)
		if errors.Is(err, cluster.ErrNotFound) {
			code = cluster.CodeNotFound
		}
		return cluster.WriteFetchError(conn, code, err.Error())
	}
	sp.SetAttrInt("bytes", int64(len(payload)))
	return cluster.WriteFetchResponse(conn, payload)
}
