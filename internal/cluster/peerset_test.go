package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/breaker"
	"repro/internal/obs"
)

// fakeClock is a breaker clock tests advance by hand.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// tripOnce is a breaker config that opens on one failure.
func tripOnce(openFor time.Duration) breaker.Config {
	return breaker.Config{
		Window: time.Second, Buckets: 4, FailureRate: 0.5,
		MinSamples: 1, OpenFor: openFor, HalfOpenProbes: 1, CloseAfter: 1,
	}
}

func refuseDial(string) (net.Conn, error) { return nil, errors.New("refused") }

// fail settles one admitted call on addr as a failure.
func fail(t *testing.T, s *PeerSet, addr string) {
	t.Helper()
	done, ok := s.Allow(addr)
	if !ok {
		t.Fatalf("breaker for %s rejected the call", addr)
	}
	done(false)
}

func TestPeerSetKeepsFailoverOrder(t *testing.T) {
	addrs := []string{"10.0.0.3:1", " 10.0.0.1:1", "", "10.0.0.2:1 "}
	s := NewPeerSet(addrs, DefaultBreakerConfig(), nil, 0, refuseDial, nil)
	want := []string{"10.0.0.3:1", "10.0.0.1:1", "10.0.0.2:1"}
	got := s.Addrs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Addrs() = %v, want %v", got, want)
	}
	// Each address has its own breaker: tripping one leaves the others.
	s = NewPeerSet(want, tripOnce(time.Hour), nil, 0, refuseDial, nil)
	fail(t, s, want[1])
	for i, a := range want {
		st, member := s.State(a)
		if !member {
			t.Fatalf("%s not a member", a)
		}
		if wantOpen := i == 1; (st == breaker.Open) != wantOpen {
			t.Errorf("%s state %v, want open=%v", a, st, wantOpen)
		}
	}
	if _, ok := s.Allow("10.9.9.9:1"); ok {
		t.Error("Allow admitted a call to a non-member")
	}
	if _, member := s.State("10.9.9.9:1"); member {
		t.Error("State reports a non-member as a member")
	}
}

func TestPeerSetCallbackSeesEveryTransition(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	cfg := tripOnce(time.Second)
	cfg.Now = clk.Now
	var mu sync.Mutex
	var seen, chained []string
	cfg.OnStateChange = func(from, to breaker.State) {
		mu.Lock()
		chained = append(chained, from.String()+"->"+to.String())
		mu.Unlock()
	}
	a, b := "10.0.0.1:1", "10.0.0.2:1"
	s := NewPeerSet([]string{a, b}, cfg, func(addr string, from, to breaker.State) {
		mu.Lock()
		seen = append(seen, addr+" "+from.String()+"->"+to.String())
		mu.Unlock()
	}, 0, refuseDial, nil)

	fail(t, s, a) // closed -> open
	clk.Advance(2 * time.Second)
	fail(t, s, a) // open -> half-open (admitted probe), then -> open
	clk.Advance(2 * time.Second)
	done, ok := s.Allow(a) // open -> half-open
	if !ok {
		t.Fatal("half-open probe rejected")
	}
	done(true) // half-open -> closed

	want := []string{
		a + " closed->open",
		a + " open->half-open",
		a + " half-open->open",
		a + " open->half-open",
		a + " half-open->closed",
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("callback saw %v, want %v", seen, want)
	}
	if len(chained) != len(want) {
		t.Errorf("config's own OnStateChange saw %d transitions, want %d", len(chained), len(want))
	}
}

func TestPeerSetProberRecoversPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the peer goes down

	var mu sync.Mutex
	var seen []string
	sawAll := func(want ...string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, w := range want {
			found := false
			for _, s := range seen {
				found = found || s == w
			}
			if !found {
				return false
			}
		}
		return true
	}
	var probes atomic.Int64
	dial := func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, time.Second) }
	s := NewPeerSet([]string{addr}, tripOnce(5*time.Millisecond), func(_ string, from, to breaker.State) {
		mu.Lock()
		seen = append(seen, from.String()+"->"+to.String())
		mu.Unlock()
	}, 2*time.Millisecond, dial, func() { probes.Add(1) })
	fail(t, s, addr)
	s.Start()
	defer s.Stop()

	// While the peer is down, probes are admitted and fail.
	waitUntil(t, "a failed half-open probe", func() bool {
		return sawAll("open->half-open", "half-open->open")
	})
	if st, _ := s.State(addr); st == breaker.Closed {
		t.Fatal("breaker closed while the peer was down")
	}

	// The peer comes back on the same address; the next probe closes
	// the breaker without any real traffic.
	back, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	defer back.Close()
	go func() {
		for {
			c, err := back.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	waitUntil(t, "the breaker to close", func() bool {
		st, _ := s.State(addr)
		return st == breaker.Closed
	})
	if !sawAll("half-open->closed") {
		t.Errorf("transitions %v lack half-open->closed", seen)
	}
	if probes.Load() < 2 {
		t.Errorf("onProbe called %d times, want >= 2", probes.Load())
	}
}

func TestPeerSetStartStopIdempotent(t *testing.T) {
	var dials atomic.Int64
	dial := func(string) (net.Conn, error) {
		dials.Add(1)
		return nil, errors.New("down")
	}
	s := NewPeerSet([]string{"10.0.0.1:1"}, tripOnce(time.Millisecond), nil, time.Millisecond, dial, nil)
	s.Stop() // before Start: a no-op
	fail(t, s, "10.0.0.1:1")
	s.Start()
	s.Start() // idempotent
	waitUntil(t, "probe dials", func() bool { return dials.Load() >= 3 })
	s.Stop()
	s.Stop() // idempotent
	after := dials.Load()
	time.Sleep(20 * time.Millisecond)
	if got := dials.Load(); got != after {
		t.Fatalf("prober kept dialing after Stop (%d -> %d)", after, got)
	}

	// Probing disabled, or nothing to probe: Start launches nothing.
	for _, idle := range []*PeerSet{
		NewPeerSet([]string{"10.0.0.1:1"}, tripOnce(time.Millisecond), nil, 0, dial, nil),
		NewPeerSet(nil, tripOnce(time.Millisecond), nil, time.Millisecond, dial, nil),
	} {
		idle.Start()
		if idle.probeStop != nil {
			t.Error("Start launched a prober with probing disabled or no peers")
		}
		idle.Stop()
	}
}

func TestPeerSetProberGoroutinesReturnToBase(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		s := NewPeerSet([]string{"10.0.0.1:1", "10.0.0.2:1"}, tripOnce(time.Millisecond), nil,
			time.Millisecond, refuseDial, nil)
		fail(t, s, "10.0.0.1:1")
		s.Start()
		time.Sleep(2 * time.Millisecond)
		s.Stop()
	}
	waitUntil(t, "goroutines to return to base", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

func TestPeerSetAllOpen(t *testing.T) {
	if NewPeerSet(nil, DefaultBreakerConfig(), nil, 0, refuseDial, nil).AllOpen() {
		t.Error("an empty set reports all open")
	}
	a, b := "10.0.0.1:1", "10.0.0.2:1"
	s := NewPeerSet([]string{a, b}, tripOnce(time.Hour), nil, 0, refuseDial, nil)
	if s.AllOpen() {
		t.Error("fresh set reports all open")
	}
	fail(t, s, a)
	if s.AllOpen() {
		t.Error("one closed breaker left, yet AllOpen")
	}
	fail(t, s, b)
	if !s.AllOpen() {
		t.Error("every breaker open, yet not AllOpen")
	}
}

// waitUntil polls cond until true or fails the test after a few seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerSetFetchCarriesTrace: the fetch client stamps the caller's
// span context on the request, so the serving node's work joins the
// caller's trace.
func TestPeerSetFetchCarriesTrace(t *testing.T) {
	got := make(chan obs.SpanContext, 1)
	peer := fetchServer(t, func(conn net.Conn, req FetchRequest) {
		got <- req.Trace
		WriteFetchResponse(conn, []byte("clip bytes"))
	})
	dial := func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	s := NewPeerSet([]string{peer}, DefaultBreakerConfig(), nil, 0, dial, nil)
	sc := obs.SpanContext{Trace: obs.TraceID{0xab}, Span: obs.SpanID{0x01}, Sampled: true}
	ctx := obs.WithSpanContext(context.Background(), sc)
	if _, err := s.Fetch(ctx, peer, FetchRequest{Kind: "clip", Digest: "night", Quality: -1}); err != nil {
		t.Fatal(err)
	}
	if tr := <-got; tr != sc {
		t.Fatalf("peer saw span context %+v, want %+v", tr, sc)
	}
}
