package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stream"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client starts its next session only after the previous one ended.
type workload struct {
	name    string
	why     string
	clients int
	nodes   int
	// clips is the catalogue size (fresh workloads size it from the
	// schedule instead).
	clips int
	// fresh makes every session ask for a clip no server has seen.
	fresh bool
	// zipf skews clip popularity; otherwise clips are drawn uniformly.
	zipf bool
	// adaptiveTenths of the sessions play the adaptive ladder.
	adaptiveTenths int
	// prewarm plays every (clip, rung, device) once during set-up.
	prewarm bool
	// restart closes the nodes after the pre-warm and reopens them on
	// their stores with empty caches of a quarter of the working set.
	restart bool
	// tailPct is the percentile ttff_tail_ms reports. It is fixed per
	// workload, at a level that leaves well over ten sessions beyond it
	// at the reference box's rate, so runs of different speed report
	// the same percentile.
	tailPct float64
	// setupReps is how many times an untraced run sets the workload
	// up; setup_s is the median. Cheap set-ups repeat more, so every
	// workload spends a few seconds on it.
	setupReps int
	// ledgerWindow is the schedule prefix saved_pct and
	// wire_bytes_per_frame are summed over, and the number of ended
	// sessions heap_peak_mb is measured until. It is under half of what
	// the slowest run seen on the reference box completed, so both
	// ledger figures depend on the seed only and the heap figure on a
	// fixed amount of work.
	ledgerWindow int
}

var workloads = []workload{
	{
		name:         "cold-miss",
		why:          "every session asks for a clip no server has seen: digest, annotation, compensation, encoding and store writes do the work",
		clients:      1,
		nodes:        1,
		fresh:        true,
		tailPct:      70,
		setupReps:    9,
		ledgerWindow: 20,
	},
	{
		name:           "warm-replay",
		why:            "a cache holding every artifact over a disk store: the zero-copy send path and client decoding do the work, encoding none",
		clients:        2,
		nodes:          1,
		clips:          4,
		adaptiveTenths: 3,
		prewarm:        true,
		tailPct:        90,
		setupReps:      3,
		ledgerWindow:   600,
	},
	{
		name:         "store-cluster",
		why:          "three restarted nodes with quarter-size caches: eviction, store reads, peer fills and first-touch digests do the work",
		clients:      2,
		nodes:        3,
		clips:        6,
		zipf:         true,
		prewarm:      true,
		restart:      true,
		tailPct:      90,
		setupReps:    3,
		ledgerWindow: 600,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// node is one in-process server with its own registry and store.
type node struct {
	srv   *stream.Server
	addr  string
	reg   *obs.Registry
	store *annstore.Store
	dir   string
}

// env is a booted workload: its nodes over one catalogue.
type env struct {
	w       workload
	plan    *plan
	catalog map[string]core.Source
	nodes   []*node
}

func (e *env) close() {
	closeNodes(e.nodes)
	e.nodes = nil
}

// closeNodes stops each server, then closes its store.
func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.srv.Close()
		n.store.Close()
	}
}

func quiet(string, ...any) {}

// reserveAddrs picks free loopback ports; clustered nodes need every
// member's address before any member starts.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// bootNodes starts one server per address, each over its own store
// directory and registry, clustered when there is more than one.
func bootNodes(cat map[string]core.Source, addrs, dirs []string, cacheBytes int64) ([]*node, error) {
	var nodes []*node
	fail := func(err error) ([]*node, error) {
		closeNodes(nodes)
		return nil, err
	}
	for i, addr := range addrs {
		srv := stream.NewServer(cat)
		srv.SetLogf(quiet)
		if cacheBytes > 0 {
			srv.SetCacheCapacity(cacheBytes)
		}
		if len(addrs) > 1 {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			cn, err := cluster.New(cluster.Config{Self: addr, Peers: peers})
			if err != nil {
				return fail(err)
			}
			srv.SetCluster(cn)
		}
		reg := obs.NewRegistry()
		srv.SetObserver(reg)
		st, err := annstore.Open(dirs[i], annstore.Options{})
		if err != nil {
			return fail(fmt.Errorf("open store: %w", err))
		}
		// The node's own SetObserver reaches the cache and the cluster
		// node but not the store, so the store is wired here.
		st.SetObserver(reg, obs.L("role", "server"))
		srv.SetStore(st)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			st.Close()
			return fail(err)
		}
		srv.Serve(ln)
		nodes = append(nodes, &node{srv: srv, addr: addr, reg: reg, store: st, dir: dirs[i]})
	}
	return nodes, nil
}

// setup boots the workload under dir: catalogue, servers and stores,
// then the workload's pre-warm or restart. wrap, when set, wraps every
// served source (the traced run's Frame timing).
func setup(w workload, p *plan, dir string, wrap func(string, core.Source) core.Source) (*env, error) {
	e := &env{w: w, plan: p, catalog: p.catalog(wrap)}
	addrs, err := reserveAddrs(w.nodes)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, w.nodes)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("store%d", i))
	}
	if e.nodes, err = bootNodes(e.catalog, addrs, dirs, 0); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if p.warmup != nil {
		// One cold session outside the schedule pays the process's
		// one-time costs before anything is timed.
		spec := sessionSpec{clip: p.warmup.Name, rung: rungs[0], device: devices[0].Name}
		if _, err := playRef(context.Background(), e.nodes[0].addr, spec); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if w.prewarm {
		if err := prewarm(e); err != nil {
			return nil, err
		}
	}
	if w.restart {
		ws, err := workingSet(e.nodes)
		if err != nil {
			return nil, err
		}
		e.close()
		if e.nodes, err = bootNodes(e.catalog, addrs, dirs, ws/4); err != nil {
			return nil, err
		}
	}
	ok = true
	return e, nil
}

// prewarm plays every (clip, rung, device) of the catalogue once,
// rotating across the nodes, with at most two sessions in flight.
// Clips vary fastest, so the two sessions in flight rarely wait on one
// computation.
func prewarm(e *env) error {
	var specs []sessionSpec
	for _, d := range devices {
		for _, r := range rungs {
			for _, c := range e.plan.clips {
				specs = append(specs, sessionSpec{clip: c.Name, rung: r, device: d.Name, node: len(specs) % len(e.nodes)})
			}
		}
	}
	return forEach(len(specs), 2, func(i int) error {
		s := specs[i]
		if _, err := playRef(context.Background(), e.nodes[s.node].addr, s); err != nil {
			return fmt.Errorf("pre-warm %s rung %d on %s: %w", s.clip, s.rung, s.device, err)
		}
		return nil
	})
}

// workingSet is the payload size of every distinct artifact the nodes
// stored.
func workingSet(nodes []*node) (int64, error) {
	seen := map[annstore.Key]bool{}
	var total int64
	for _, n := range nodes {
		for _, k := range n.store.Keys() {
			if seen[k] {
				continue
			}
			seen[k] = true
			b, ok := n.store.Get(k)
			if !ok {
				return 0, fmt.Errorf("store %s lost %v", n.dir, k)
			}
			total += int64(len(b))
		}
	}
	return total, nil
}

// forEach runs fn(0..n-1) on at most workers goroutines and returns the
// first error.
func forEach(n, workers int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if stop || i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// setupRepeated generates the plan and sets the workload up reps
// times, keeping the last env; it reports the median set-up time.
func setupRepeated(w workload, seed int64, sessions int, dir string, reps int) (*env, float64, error) {
	var times []float64
	var e *env
	for r := 0; r < reps; r++ {
		if e != nil {
			e.close()
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("setup%d", r-1))); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		e, err = setup(w, makePlan(w, seed, sessions), filepath.Join(dir, fmt.Sprintf("setup%d", r)), nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// storeDirs lists the nodes' store directories.
func (e *env) storeDirs() []string {
	var dirs []string
	for _, n := range e.nodes {
		dirs = append(dirs, n.dir)
	}
	return dirs
}
