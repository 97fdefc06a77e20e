package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/obs"
)

// DefaultFetchTimeout bounds one whole fetch RPC (write request + read
// response) unless the peer set's owner configures another.
const DefaultFetchTimeout = 15 * time.Second

// DefaultBreakerConfig is the breaker tuning of every peer set whose
// owner does not override it: cluster peers and proxy upstreams alike.
func DefaultBreakerConfig() breaker.Config {
	return breaker.Config{
		Window: 10 * time.Second, Buckets: 10,
		FailureRate: 0.5, MinSamples: 2,
		OpenFor: 3 * time.Second, HalfOpenProbes: 1, CloseAfter: 1,
	}
}

// peer is one remote address with its health breaker.
type peer struct {
	addr string
	br   *breaker.Breaker
}

// PeerSet is an ordered set of remote addresses, each guarded by its
// own circuit breaker, plus the recovery prober that dials unhealthy
// ones back to health and the fetch RPC client that talks to them. A
// cluster node's peers and a proxy's upstream origins are both peer
// sets. The address list is fixed at construction, so lookups take no
// lock; all methods are safe for concurrent use.
type PeerSet struct {
	peers []peer

	probeEvery time.Duration
	dial       func(addr string) (net.Conn, error)
	onProbe    func()

	// fetchTimeout bounds one whole fetch RPC; maxBytes bounds its
	// accepted payload (<= 0 selects DefaultMaxArtifactBytes).
	fetchTimeout time.Duration
	maxBytes     int64

	probeMu   sync.Mutex
	probeStop chan struct{}
	probeDone chan struct{}
}

// NewPeerSet builds one breaker per address from br, keeping the order
// (blank entries are dropped). onChange sees every breaker transition
// with its address, before br's own OnStateChange, if any. Once
// started, the prober dials every peer whose breaker is not closed each
// probeEvery (0 disables probing), calling onProbe before each dial.
func NewPeerSet(addrs []string, br breaker.Config, onChange func(addr string, from, to breaker.State),
	probeEvery time.Duration, dial func(addr string) (net.Conn, error), onProbe func()) *PeerSet {
	s := &PeerSet{probeEvery: probeEvery, dial: dial, onProbe: onProbe, fetchTimeout: DefaultFetchTimeout}
	for _, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		cfg := br
		user := cfg.OnStateChange
		cfg.OnStateChange = func(from, to breaker.State) {
			if onChange != nil {
				onChange(a, from, to)
			}
			if user != nil {
				user(from, to)
			}
		}
		s.peers = append(s.peers, peer{addr: a, br: breaker.New(cfg)})
	}
	return s
}

// Addrs returns the addresses in failover order.
func (s *PeerSet) Addrs() []string {
	addrs := make([]string, len(s.peers))
	for i, p := range s.peers {
		addrs[i] = p.addr
	}
	return addrs
}

func (s *PeerSet) find(addr string) *breaker.Breaker {
	for i := range s.peers {
		if s.peers[i].addr == addr {
			return s.peers[i].br
		}
	}
	return nil
}

// Allow asks addr's breaker to admit one call; the caller settles it
// with done(success). ok is false when the breaker rejects the call or
// addr is not in the set.
func (s *PeerSet) Allow(addr string) (done func(success bool), ok bool) {
	br := s.find(addr)
	if br == nil {
		return nil, false
	}
	return br.Allow()
}

// Fetch runs one fetch RPC against addr under its breaker: dial, one
// deadline over the whole exchange (DefaultFetchTimeout or ctx's, if
// sooner), and the request stamped with ctx's span context. A clean
// remote miss (ErrNotFound) settles the breaker as a success — the peer
// answered correctly — while dial, framing, checksum and timeout
// failures count against it. Every failure is one of the package's
// typed errors, and wrong bytes are never returned.
func (s *PeerSet) Fetch(ctx context.Context, addr string, req FetchRequest) ([]byte, error) {
	req.Trace = obs.SpanContextFrom(ctx)
	frame, err := encodeFetchRequest(req)
	if err != nil {
		return nil, err
	}
	br := s.find(addr)
	if br == nil {
		return nil, fmt.Errorf("%w: %s is not a member", ErrPeerUnavailable, addr)
	}
	done, ok := br.Allow()
	if !ok {
		return nil, fmt.Errorf("%w: breaker open for %s", ErrPeerUnavailable, addr)
	}
	payload, err := s.exchange(ctx, addr, frame)
	done(err == nil || errors.Is(err, ErrNotFound))
	return payload, err
}

// exchange sends one framed request to addr and reads the answer.
func (s *PeerSet) exchange(ctx context.Context, addr string, frame []byte) ([]byte, error) {
	conn, err := s.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrPeerUnavailable, addr, err)
	}
	defer conn.Close()
	deadline := time.Now().Add(s.fetchTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn.SetDeadline(deadline)
	if _, err := conn.Write(frame); err != nil {
		return nil, fmt.Errorf("%w: send to %s: %v", ErrPeerUnavailable, addr, err)
	}
	return ReadFetchResponse(conn, s.maxBytes)
}

// State reports addr's breaker state; member is false when addr is not
// in the set.
func (s *PeerSet) State(addr string) (st breaker.State, member bool) {
	br := s.find(addr)
	if br == nil {
		return breaker.Closed, false
	}
	return br.State(), true
}

// AllOpen reports whether the set is non-empty and every breaker in it
// is open.
func (s *PeerSet) AllOpen() bool {
	for _, p := range s.peers {
		if p.br.State() != breaker.Open {
			return false
		}
	}
	return len(s.peers) > 0
}

// Start launches the recovery prober, driving unhealthy peers' breakers
// open -> half-open -> closed as they come back, without waiting for
// real traffic to route there. Idempotent; a no-op when probing is
// disabled or the set is empty.
func (s *PeerSet) Start() {
	if s.probeEvery <= 0 || len(s.peers) == 0 {
		return
	}
	s.probeMu.Lock()
	defer s.probeMu.Unlock()
	if s.probeStop != nil {
		return
	}
	s.probeStop = make(chan struct{})
	s.probeDone = make(chan struct{})
	go s.probeLoop(s.probeStop, s.probeDone)
}

func (s *PeerSet) probeLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, p := range s.peers {
				if p.br.State() == breaker.Closed {
					continue
				}
				brDone, ok := p.br.Allow()
				if !ok {
					continue
				}
				if s.onProbe != nil {
					s.onProbe()
				}
				conn, err := s.dial(p.addr)
				if err == nil {
					conn.Close()
				}
				brDone(err == nil)
			}
		}
	}
}

// Stop halts the recovery prober and waits for it to exit. Idempotent
// and a no-op before Start, so shutdown paths call it unconditionally
// and probe goroutines never outlive their owner.
func (s *PeerSet) Stop() {
	s.probeMu.Lock()
	stop, done := s.probeStop, s.probeDone
	s.probeStop, s.probeDone = nil, nil
	s.probeMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
