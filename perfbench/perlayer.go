package main

import (
	"fmt"
	"io"
)

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of a traced run from the
// traced phase (ph, s), its untraced twin (base), the layer replay and
// the wrapped sources' Frame totals, and prints the cold-miss
// breakdown.
func perLayer(out io.Writer, w workload, ph *phase, s, base summary, lt *layerTimes, frameCalls, frameNanos int64) []metric {
	var firstBytes []float64
	var served, retries int
	var afterByte float64
	for _, r := range ph.results {
		if r.res != nil {
			retries += r.res.Retries
		}
		if !r.ok() {
			continue
		}
		served += r.res.Frames
		firstBytes = append(firstBytes, ms(r.firstByte.Seconds()))
		afterByte += r.afterByte.Seconds()
	}
	firstByteMS := median(firstBytes)
	d := ph.delta
	sessions := float64(len(ph.results))

	frameUS := ratio(float64(frameNanos), float64(frameCalls)) / 1e3
	if frameCalls == 0 {
		fmt.Fprintf(out, "video.frame_us: the servers made no Frame calls in the timed phase; the layer replay's render time is reported\n")
		frameUS = lt.renderUS
	}

	// The cold-miss path before the first byte: digest, annotation, then
	// per frame a render, compensation and encoding at one rung, then
	// the store writes.
	putsPerSession := ratio(d["annstore_puts_total"], sessions)
	parts := []struct {
		name string
		ms   float64
	}{
		{"digest", lt.digestMS},
		{"annotate", lt.annotateMS},
		{"render", clipFrames * frameUS / 1e3},
		{"compensate", clipFrames * lt.compensateUS / 1e3},
		{"encode", clipFrames * lt.encodeMS},
		{"store_put", putsPerSession * lt.putMS},
	}
	covered := 0.0
	fmt.Fprintf(out, "cold-miss breakdown as shares of stream.first_byte_ms = %.3f ms:\n", firstByteMS)
	var shares []metric
	for _, p := range parts {
		covered += p.ms
		share := ratio(p.ms, firstByteMS)
		shares = append(shares, metric{"trace.share." + p.name, share, "ratio"})
		fmt.Fprintf(out, "  %-12s %10.3f ms  %6.1f%%\n", p.name, p.ms, 100*share)
	}
	coverage := ratio(covered, firstByteMS)
	flag := ""
	if coverage < 0.9 {
		flag = "  UNATTRIBUTED: the replayed layers explain less than 90% of the first byte"
	}
	fmt.Fprintf(out, "  %-12s %10.3f ms  %6.1f%%%s\n", "covered", covered, 100*coverage, flag)
	if w.name != "cold-miss" {
		fmt.Fprintf(out, "  (the breakdown models a cold miss; on %s most sessions are served from cache)\n", w.name)
	}

	overhead := []metric{
		{"trace.overhead.ttff_p50_ms", s.ttffP50 - base.ttffP50, "ms"},
		{"trace.overhead.ttff_tail_ms", s.ttffTail.value - base.ttffTail.value, "ms"},
		{"trace.overhead.frames_per_s", s.framesPerS - base.framesPerS, "frames/s"},
		{"trace.overhead.heap_peak_mb", s.heapPeakMB - base.heapPeakMB, "MiB"},
	}
	fmt.Fprintf(out, "tracing overhead (traced minus untraced phase): ttff_p50 %+.3f ms, ttff_tail %+.3f ms, frames/s %+.1f, heap %+.2f MiB\n",
		overhead[0].value, overhead[1].value, overhead[2].value, overhead[3].value)

	ms := []metric{
		{"video.frame_calls_per_served_frame", ratio(float64(frameCalls), float64(served)), "calls/frame"},
		{"video.frame_us", frameUS, "us"},
		{"core.digest_ms", lt.digestMS, "ms"},
		{"core.annotate_ms", lt.annotateMS, "ms"},
		{"scene.stats_us_per_frame", lt.statsUS, "us"},
		{"scene.detect_us_per_frame", lt.detectUS, "us"},
		{"annotation.build_ms", lt.buildMS, "ms"},
		{"compensate.us_per_frame", lt.compensateUS, "us"},
		{"codec.encode_ms_per_frame", lt.encodeMS, "ms"},
		{"codec.decode_us_per_frame", lt.decodeUS, "us"},
		{"codec.bytes_per_frame", lt.bytesPerFrame, "B"},
		{"anncache.hit_ratio", ratio(d["anncache_hits_total"], d["anncache_hits_total"]+d["anncache_misses_total"]), "ratio"},
		{"anncache.evictions", d["anncache_evictions_total"], "count"},
		{"anncache.singleflight_waits", d["anncache_singleflight_waits_total"], "count"},
		{"annstore.hit_ratio", ratio(d["annstore_hits_total"], d["annstore_hits_total"]+d["annstore_misses_total"]), "ratio"},
		{"annstore.puts", d["annstore_puts_total"], "count"},
		{"annstore.put_ms", lt.putMS, "ms"},
		{"annstore.get_ms", lt.getMS, "ms"},
		{"annstore.open_ms", lt.openMS, "ms"},
		{"cluster.peer_fills", d["cluster_peer_fills_total"], "count"},
		{"cluster.fill_failures", d["cluster_fill_failures_total"], "count"},
		{"cluster.fallback_computes", d["cluster_route_total|decision=fallback_compute"], "count"},
		{"cluster.fetch_ms", lt.fetchMS, "ms"},
		{"stream.first_byte_ms", firstByteMS, "ms"},
		{"stream.client_us_per_frame", ratio(afterByte, float64(served)) * 1e6, "us"},
		{"stream.retries", float64(retries), "count"},
		{"stream.sessions_shed", d["stream_sessions_shed_total"], "count"},
		{"go.alloc_mb_per_session", ratio(d["/gc/heap/allocs:bytes"], sessions) / (1 << 20), "MiB"},
		{"go.gc_cycles", d["/gc/cycles/total:gc-cycles"], "count"},
		{"trace.cold_coverage", coverage, "ratio"},
	}
	ms = append(ms, shares...)
	return append(ms, overhead...)
}
