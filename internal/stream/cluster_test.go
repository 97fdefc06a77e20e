package stream

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/annstore"
	"repro/internal/breaker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/obs"
)

// The clustered-serving end-to-end checks: a fleet of streamd server
// nodes sharing one catalog must compute each artifact exactly once
// fleet-wide (rendezvous routing + peer fill), serve bit-identical
// streams from every node, and survive the shard owner dying mid-stream
// — in-flight sessions finish untouched, new sessions fall back to
// breaker-guarded local compute, and a restarted owner rejoins warm
// from its store without a recompute herd.

// clusterTestBreaker trips after one failure and retries quickly, so
// churn tests converge in milliseconds instead of seconds.
var clusterTestBreaker = breaker.Config{
	Window: time.Second, Buckets: 4,
	FailureRate: 0.5, MinSamples: 1,
	OpenFor: 50 * time.Millisecond, HalfOpenProbes: 1, CloseAfter: 1,
}

type clusterTestNode struct {
	srv   *Server
	addr  string
	reg   *obs.Registry
	store *annstore.Store
	dir   string
}

// kill tears the node down hard (listener, sessions, store), as a
// crashed process would.
func (n *clusterTestNode) kill() {
	n.srv.Close()
	if n.store != nil {
		n.store.Close()
	}
}

// bootClusterServer starts one clustered server on addr with the given
// peer list; dir, when non-empty, backs it with a persistent store (the
// restart tests reopen the same dir).
func bootClusterServer(t *testing.T, addr string, peers []string, dir string) *clusterTestNode {
	t.Helper()
	s := NewServer(testCatalog())
	s.SetLogf(quiet)
	node := &clusterTestNode{srv: s, reg: obs.NewRegistry(), dir: dir}
	if dir != "" {
		st, err := annstore.Open(dir, annstore.Options{MaxBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		node.store = st
		s.SetStore(st)
	}
	cn, err := cluster.New(cluster.Config{
		Self: addr, Peers: peers,
		Breaker:    clusterTestBreaker,
		ProbeEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCluster(cn)
	s.SetObserver(node.reg)
	a, err := s.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	node.addr = a.String()
	t.Cleanup(node.kill)
	return node
}

// startClusterFleet boots n clustered servers on loopback, each knowing
// all the others, with per-node stores when withStores is set.
func startClusterFleet(t *testing.T, n int, withStores bool) []*clusterTestNode {
	t.Helper()
	// Reserve concrete ports first: every node must know the full
	// member list before it starts.
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = reserveAddr(t)
	}
	nodes := make([]*clusterTestNode, n)
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		dir := ""
		if withStores {
			dir = t.TempDir()
		}
		nodes[i] = bootClusterServer(t, addrs[i], peers, dir)
	}
	return nodes
}

// reserveAddr picks a free loopback port and releases it immediately —
// the tiny reuse window is fine for tests.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// playDigests plays clip "night" at quality q and returns per-frame
// pixel digests (the bit-identity fingerprint). onFrame, when non-nil,
// observes each frame index as it decodes.
func playDigests(t *testing.T, addr string, q float64, onFrame func(i int)) []uint64 {
	t.Helper()
	var digests []uint64
	client := &Client{Device: display.IPAQ5555()}
	client.OnFrame = func(i int, f *frame.Frame, backlight int) {
		if i == 0 {
			digests = digests[:0]
		}
		digests = append(digests, frameDigest(f))
		if onFrame != nil {
			onFrame(i)
		}
	}
	if _, err := client.Play(addr, "night", q); err != nil {
		t.Fatalf("play via %s: %v", addr, err)
	}
	return digests
}

func assertSameDigests(t *testing.T, want, got []uint64, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: frame %d differs", what, i)
		}
	}
}

func spanCount(reg *obs.Registry, name string) uint64 {
	return reg.Histogram(obs.SpanMetric, "", nil, obs.L("span", name)).Count()
}

func fleetSpanCount(nodes []*clusterTestNode, name string) uint64 {
	var total uint64
	for _, n := range nodes {
		total += spanCount(n.reg, name)
	}
	return total
}

func routeCount(n *clusterTestNode, decision string) uint64 {
	return n.reg.Counter("cluster_route_total", "",
		obs.L("role", "server"), obs.L("decision", decision)).Value()
}

func fillCount(n *clusterTestNode) uint64 {
	return n.reg.Counter("cluster_peer_fills_total", "", obs.L("role", "server")).Value()
}

// TestClusterExactlyOneComputeFleetWide plays the same clip through
// every node of a 3-node cluster in turn: each session must be
// bit-identical to a standalone server's, and the annotation pipeline
// and variant encoder must each have run exactly once across the whole
// fleet — every other node filled from the shard owner.
func TestClusterExactlyOneComputeFleetWide(t *testing.T) {
	_, refAddr := startServer(t)
	ref := playDigests(t, refAddr, 0.10, nil)

	nodes := startClusterFleet(t, 3, false)
	for i, n := range nodes {
		got := playDigests(t, n.addr, 0.10, nil)
		assertSameDigests(t, ref, got, n.addr)
		_ = i
	}

	if got := fleetSpanCount(nodes, "annotate.build_track"); got != 1 {
		t.Errorf("annotation pipeline ran %d times fleet-wide, want exactly 1", got)
	}
	if got := fleetSpanCount(nodes, "stream.compensate_encode"); got != 1 {
		t.Errorf("variant encoder ran %d times fleet-wide, want exactly 1", got)
	}
	var fills, served uint64
	for _, n := range nodes {
		fills += fillCount(n)
		for _, kind := range []string{"track", "variant", "levels"} {
			served += n.reg.Counter("cluster_fetch_served_total", "",
				obs.L("role", "server"), obs.L("kind", kind)).Value()
		}
	}
	if fills < 2 {
		t.Errorf("only %d peer fills fleet-wide; non-owners should have filled, not computed", fills)
	}
	if served < fills {
		t.Errorf("owners served %d fetches but requesters recorded %d fills", served, fills)
	}
}

// TestClusterPeerFillSingleFlight hits one cold non-owner node with
// four concurrent sessions: the cache's single-flight must fan them
// into at most one peer fetch per artifact kind, and the fleet still
// computes everything exactly once.
func TestClusterPeerFillSingleFlight(t *testing.T) {
	_, refAddr := startServer(t)
	ref := playDigests(t, refAddr, 0.10, nil)

	nodes := startClusterFleet(t, 3, false)
	// Pick a node that does not own the clip's track: its first session
	// must fill the track from a peer.
	src := testCatalog()["night"]
	dg := core.SourceDigest(src)
	members := nodes[0].srv.Cluster().Members()
	trackOwner := cluster.Owner(members, cluster.RouteKey("track", dg))
	var cold *clusterTestNode
	for _, n := range nodes {
		if n.addr != trackOwner {
			cold = n
			break
		}
	}

	const sessions = 4
	results := make([][]uint64, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var digests []uint64
			client := &Client{Device: display.IPAQ5555()}
			client.OnFrame = func(fi int, f *frame.Frame, backlight int) {
				if fi == 0 {
					digests = digests[:0]
				}
				digests = append(digests, frameDigest(f))
			}
			if _, err := client.Play(cold.addr, "night", 0.10); err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			results[i] = digests
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got == nil {
			t.Fatalf("session %d produced no frames", i)
		}
		assertSameDigests(t, ref, got, "concurrent session")
		_ = i
	}
	// Three artifact kinds exist (track, variant, levels); four
	// concurrent misses per kind must have fanned into at most one
	// fetch each.
	if fills := fillCount(cold); fills < 1 || fills > 3 {
		t.Errorf("cold node made %d peer fills for 4 concurrent sessions, want 1..3 (single-flight fan-in)", fills)
	}
	if got := fleetSpanCount(nodes, "annotate.build_track"); got != 1 {
		t.Errorf("annotation pipeline ran %d times fleet-wide, want exactly 1", got)
	}
}

// TestClusterChaosOwnerDeathMidStream is the churn drill: kill the
// variant shard owner while a client is mid-stream on another node.
// The in-flight session must finish bit-identical (its artifacts are
// already local); a new session needing a fresh artifact must fall
// back to breaker-guarded local compute, still bit-identical; and the
// owner restarting on the same address with its store intact must
// rejoin warm — zero pipeline runs, no recompute herd.
func TestClusterChaosOwnerDeathMidStream(t *testing.T) {
	_, refAddr := startServer(t)
	refLow := playDigests(t, refAddr, 0.10, nil)
	refHigh := playDigests(t, refAddr, 0.20, nil)

	nodes := startClusterFleet(t, 3, true)
	src := testCatalog()["night"]
	dg := core.SourceDigest(src)
	members := nodes[0].srv.Cluster().Members()
	ownerAddr := cluster.Owner(members, cluster.RouteKey("variant", dg))
	var owner, other *clusterTestNode
	for _, n := range nodes {
		if n.addr == ownerAddr {
			owner = n
		} else if other == nil {
			other = n
		}
	}
	if owner == nil || other == nil {
		t.Fatal("could not split fleet into owner and non-owner")
	}

	// In-flight: stream from a non-owner and kill the owner a few
	// frames in. The non-owner filled its artifacts at session start,
	// so delivery must finish bit-identical.
	var once sync.Once
	inflight := playDigests(t, other.addr, 0.10, func(i int) {
		if i == 3 {
			once.Do(owner.kill)
		}
	})
	assertSameDigests(t, refLow, inflight, "in-flight session over owner death")
	if fills := fillCount(other); fills < 1 {
		t.Fatalf("non-owner made %d peer fills before the kill; the in-flight check proved nothing", fills)
	}

	// New session at a quality the fleet has not computed: the owner is
	// dead, so the peer fetch fails, the breaker opens, and this node
	// computes locally — the client still sees exact bytes.
	fresh := playDigests(t, other.addr, 0.20, nil)
	assertSameDigests(t, refHigh, fresh, "post-death fallback session")
	if fb := routeCount(other, "fallback_compute"); fb < 1 {
		t.Errorf("fallback_compute route count %d, want >= 1 after owner death", fb)
	}

	// Restart the owner on the same address with the same store: it
	// must come back warm and serve its shard from disk — zero
	// annotation pipeline runs on the restarted node.
	var peers []string
	for _, n := range nodes {
		if n != owner {
			peers = append(peers, n.addr)
		}
	}
	restarted := bootClusterServer(t, owner.addr, peers, owner.dir)
	again := playDigests(t, restarted.addr, 0.10, nil)
	assertSameDigests(t, refLow, again, "restarted owner session")
	if got := spanCount(restarted.reg, "annotate.build_track"); got != 0 {
		t.Errorf("restarted owner ran the annotation pipeline %d times, want 0 (store-warm rejoin)", got)
	}

	// The survivors' probers must notice the owner is back: routing for
	// its shard returns to it once the breaker closes.
	deadline := time.Now().Add(3 * time.Second)
	for {
		addr, self := other.srv.Cluster().Owner("variant", dg)
		if addr == owner.addr && !self {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never routed back to the restarted owner (stuck at %s)", addr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterProxiesComputeOnce clusters two proxies over one upstream
// server and plays the clip once through each: both streams must match
// a standalone proxy's, and the annotation pipeline and variant encoder
// must each run exactly once across the pair (the non-owner fills from
// the proxy that owns the shard).
func TestClusterProxiesComputeOnce(t *testing.T) {
	_, upstream := startServer(t)
	ref := NewProxy(upstream)
	ref.SetLogf(quiet)
	refAddr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	want := playDigests(t, refAddr.String(), 0.10, nil)

	addrs := []string{reserveAddr(t), reserveAddr(t)}
	regs := make([]*obs.Registry, len(addrs))
	for i, addr := range addrs {
		p := NewProxy(upstream)
		p.SetLogf(quiet)
		cn, err := cluster.New(cluster.Config{
			Self: addr, Peers: []string{addrs[1-i]},
			Breaker:    clusterTestBreaker,
			ProbeEvery: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.SetCluster(cn)
		regs[i] = obs.NewRegistry()
		p.SetObserver(regs[i])
		if _, err := p.Listen(addr); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
	}
	for _, addr := range addrs {
		assertSameDigests(t, want, playDigests(t, addr, 0.10, nil), "clustered proxy "+addr)
	}
	for _, name := range []string{"annotate.build_track", "stream.compensate_encode"} {
		var runs uint64
		for _, reg := range regs {
			runs += spanCount(reg, name)
		}
		if runs != 1 {
			t.Errorf("%s ran %d times across the proxy pair, want exactly 1", name, runs)
		}
	}
}
