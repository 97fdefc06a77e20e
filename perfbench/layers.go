package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/annotation"
	"repro/internal/annstore"
	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/compensate"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/scene"
)

// The layer replay calls each layer's public functions on the first
// replayClips distinct clips of the schedule, replayReps times where a
// call is per clip, and reports medians.
const (
	replayClips = 2
	replayReps  = 3
	// serverQScale is the stream server's default quantiser scale; its
	// default GOP is one second of frames.
	serverQScale = 4
)

// encSuffix is the store-key suffix a variant carries under the
// server's default encoder settings (GOP, quantiser scale).
var encSuffix = fmt.Sprintf("+g%dq%d", clipFPS, serverQScale)

// layerTimes are the layer replay's measurements.
type layerTimes struct {
	renderUS      float64 // Source.Frame, per frame
	digestMS      float64 // core.SourceDigest, per clip
	annotateMS    float64 // core.AnnotatePipeline, per clip
	statsUS       float64 // scene.StatsOf, per frame
	detectUS      float64 // scene.Detect, per frame
	buildMS       float64 // annotation.FromStats, per clip
	compensateUS  float64 // compensate.Plan.Compensated, per frame and rung
	encodeMS      float64 // codec.Encoder.Encode, per frame
	decodeUS      float64 // codec.Decoder.Decode, per frame
	bytesPerFrame float64 // encoded payload bytes per frame
	putMS         float64 // annstore.Store.Put of a variant, fsync included
	getMS         float64 // annstore.Store.GetRef plus reading the payload
	openMS        float64 // annstore.Open on a set-up store directory
	fetchMS       float64 // cluster.Node.Fetch of a variant from its owner
}

func seconds(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// sampleSources returns the replay's clips as the served catalogue
// holds them (wrapped in a traced run, so an injected delay shows in
// the replay too).
func sampleSources(p *plan, cat map[string]core.Source) ([]string, []core.Source) {
	var names []string
	var srcs []core.Source
	seen := map[string]bool{}
	for _, s := range p.schedule {
		if seen[s.clip] {
			continue
		}
		seen[s.clip] = true
		names = append(names, s.clip)
		srcs = append(srcs, cat[s.clip])
		if len(names) == replayClips {
			break
		}
	}
	return names, srcs
}

// replayLayers times each layer on the plan's sample clips. storeDirs
// are the workload's set-up store directories (closed by now); scratch
// is an empty directory the replay may use.
func replayLayers(p *plan, cat map[string]core.Source, storeDirs []string, scratch string) (*layerTimes, error) {
	ctx := context.Background()
	names, srcs := sampleSources(p, cat)
	var (
		render, digest, annotate, stats, detect, build []float64
		comp, enc, dec                                 []float64
		bytes, encoded                                 int
		payloads                                       [][]byte
		digests                                        []string
	)
	workers := runtime.GOMAXPROCS(0)
	for _, src := range srcs {
		n := src.TotalFrames()
		fps := src.FPS()
		w, h := src.Size()
		frames := make([]*frame.Frame, n)
		render = append(render, seconds(func() {
			for i := range frames {
				frames[i] = src.Frame(i)
			}
		})/float64(n))

		var dg string
		for r := 0; r < replayReps; r++ {
			digest = append(digest, seconds(func() { dg = core.SourceDigest(src) }))
		}
		digests = append(digests, dg)
		cfg := scene.DefaultConfig(fps)
		var track *annotation.Track
		for r := 0; r < replayReps; r++ {
			var err error
			annotate = append(annotate, seconds(func() {
				track, _, err = core.AnnotatePipeline(ctx, src, cfg, nil, core.AnnotateOptions{Workers: workers})
			}))
			if err != nil {
				return nil, err
			}
		}
		var fstats []scene.FrameStats
		var scenes []scene.Scene
		for r := 0; r < replayReps; r++ {
			fstats = make([]scene.FrameStats, n)
			stats = append(stats, seconds(func() {
				for i, f := range frames {
					fstats[i] = scene.StatsOf(f)
				}
			})/float64(n))
			detect = append(detect, seconds(func() { scenes = scene.Detect(cfg, fstats) })/float64(n))
			build = append(build, seconds(func() { annotation.FromStats(fps, scenes, fstats, nil) }))
		}

		for _, qi := range rungs {
			e, err := codec.NewEncoder(w, h, fps, serverQScale)
			if err != nil {
				return nil, err
			}
			d, err := codec.NewDecoder(w, h)
			if err != nil {
				return nil, err
			}
			// Compensate and encode as the server does, then decode as
			// the client does, each in its own pass.
			cur := track.NewCursor(qi)
			var payload []byte
			var efs []*codec.EncodedFrame
			for _, f := range frames {
				target, _ := cur.Next()
				t0 := time.Now()
				cf := core.CompensateFrame(f, target, compensate.ContrastEnhancement)
				t1 := time.Now()
				ef, err := e.Encode(cf)
				if err != nil {
					return nil, err
				}
				comp = append(comp, t1.Sub(t0).Seconds())
				enc = append(enc, time.Since(t1).Seconds())
				efs = append(efs, ef)
				bytes += len(ef.Data)
				encoded++
				if payload, err = container.AppendFramePacket(payload, ef); err != nil {
					return nil, err
				}
			}
			for _, ef := range efs {
				t0 := time.Now()
				if _, err := d.Decode(ef); err != nil {
					return nil, err
				}
				dec = append(dec, time.Since(t0).Seconds())
			}
			payloads = append(payloads, payload)
		}
	}

	lt := &layerTimes{
		renderUS:      median(render) * 1e6,
		digestMS:      median(digest) * 1e3,
		annotateMS:    median(annotate) * 1e3,
		statsUS:       median(stats) * 1e6,
		detectUS:      median(detect) * 1e6,
		buildMS:       median(build) * 1e3,
		compensateUS:  median(comp) * 1e6,
		encodeMS:      median(enc) * 1e3,
		decodeUS:      median(dec) * 1e6,
		bytesPerFrame: float64(bytes) / float64(encoded),
	}
	var err error
	if lt.putMS, lt.getMS, err = replayStore(payloads, filepath.Join(scratch, "store")); err != nil {
		return nil, err
	}
	var opens []float64
	for _, dir := range storeDirs {
		for r := 0; r < replayReps; r++ {
			var st *annstore.Store
			opens = append(opens, seconds(func() { st, err = annstore.Open(dir, annstore.Options{}) }))
			if err != nil {
				return nil, err
			}
			st.Close()
		}
	}
	lt.openMS = median(opens) * 1e3
	if lt.fetchMS, err = replayFetch(p, names, digests, filepath.Join(scratch, "cluster")); err != nil {
		return nil, err
	}
	return lt, nil
}

// replayStore times Put of each variant-sized payload into a fresh
// store, then GetRef plus a read of each.
func replayStore(payloads [][]byte, dir string) (putMS, getMS float64, err error) {
	st, err := annstore.Open(dir, annstore.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	keys := make([]annstore.Key, len(payloads))
	var puts, gets []float64
	for i, b := range payloads {
		keys[i] = annstore.Key{Kind: "variant", Digest: fmt.Sprintf("replay%d", i), Quality: rungs[i%len(rungs)]}
		puts = append(puts, seconds(func() { err = st.Put(keys[i], b) }))
		if err != nil {
			return 0, 0, err
		}
	}
	for i, k := range keys {
		gets = append(gets, seconds(func() { err = readRef(st, k, len(payloads[i])) }))
		if err != nil {
			return 0, 0, err
		}
	}
	return median(puts) * 1e3, median(gets) * 1e3, nil
}

func readRef(st *annstore.Store, k annstore.Key, want int) error {
	ref, ok := st.GetRef(k)
	if !ok {
		return fmt.Errorf("store lost %v", k)
	}
	f, err := os.Open(ref.Path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, ref.Len)
	if _, err := f.ReadAt(buf, ref.Off); err != nil {
		return err
	}
	if len(buf) != want {
		return fmt.Errorf("store returned %d bytes for %v, want %d", len(buf), k, want)
	}
	return nil
}

// replayFetch boots a two-node cluster over the sample clips and times
// a warm Node.Fetch of each clip's variant from its owner.
func replayFetch(p *plan, names, digests []string, dir string) (float64, error) {
	cat := p.catalog(nil)
	sub := map[string]core.Source{}
	for _, name := range names {
		sub[name] = cat[name]
	}
	addrs, err := reserveAddrs(2)
	if err != nil {
		return 0, err
	}
	dirs := []string{filepath.Join(dir, "a"), filepath.Join(dir, "b")}
	nodes, err := bootNodes(sub, addrs, dirs, 0)
	if err != nil {
		return 0, err
	}
	defer closeNodes(nodes)
	ctx := context.Background()
	var fetches []float64
	for i, name := range names {
		owner := cluster.Owner(addrs, cluster.RouteKey("variant", digests[i]))
		requester := nodes[0]
		if requester.addr == owner {
			requester = nodes[1]
		}
		req := cluster.FetchRequest{Kind: "variant", Digest: digests[i], Suffix: encSuffix, Quality: rungs[0], Clip: name}
		// The first fetch makes the owner compute the variant.
		if _, err := requester.srv.Cluster().Fetch(ctx, owner, req); err != nil {
			return 0, fmt.Errorf("fetch %s from owner: %w", name, err)
		}
		for r := 0; r < replayReps; r++ {
			fetches = append(fetches, seconds(func() { _, err = requester.srv.Cluster().Fetch(ctx, owner, req) }))
			if err != nil {
				return 0, err
			}
		}
	}
	return median(fetches) * 1e3, nil
}
