package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail is a tail latency with the percentile it sits at.
type tail struct {
	value   float64
	pct     float64 // share of samples at or below value, in percent
	beyond  int     // samples above value
	samples int
}

// tailOf reports the highest percentile of xs that still has at least
// tailBeyond samples above it: the (tailBeyond+1)-th largest sample.
// The tail never drops below the median, so with fewer than
// 2*tailBeyond+1 samples it is the median and fewer samples lie beyond.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	j := n - 1 - tailBeyond
	if m := (n - 1) / 2; j < m {
		j = m
	}
	return rankOf(xs, j)
}

// tailAt reports the pct-th percentile of xs by nearest rank.
func tailAt(xs []float64, pct float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	rank := int(math.Ceil(pct / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return rankOf(xs, rank-1)
}

// rankOf describes the j-th smallest of xs (0-based) as a tail.
func rankOf(xs []float64, j int) tail {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return tail{value: s[j], pct: 100 * float64(j+1) / float64(n), beyond: n - 1 - j, samples: n}
}

// summary is the end-to-end outcome of one timed phase.
type summary struct {
	attempted int
	failed    int // errors, abandons and wrong sessions together
	abandoned int
	wrong     int

	ttffP50  float64 // ms
	ttffTail tail    // ms, at the workload's fixed tail percentile
	// ttffFar is the highest percentile with tailBeyond samples beyond
	// it; it is printed but not gated (see tailPct).
	ttffFar    tail
	framesPerS float64
	heapPeakMB float64

	savedPct          float64
	wireBytesPerFrame float64
	window            int // sessions the two ledger figures cover
}

// summarize folds a verified phase into its end-to-end figures. The
// ledger figures cover the first ledgerWindow sessions of the
// schedule, which every run completes, so they depend on the seed only.
func summarize(w workload, ph *phase) summary {
	s := summary{attempted: len(ph.results)}
	var ttffs []float64
	frames := 0
	for _, r := range ph.results {
		switch {
		case r.abandoned:
			s.abandoned++
		case r.wrong:
			s.wrong++
		}
		if !r.ok() {
			s.failed++
			continue
		}
		ttffs = append(ttffs, ms(r.ttff.Seconds()))
		frames += r.res.Frames
	}
	s.ttffP50 = median(ttffs)
	s.ttffTail = tailAt(ttffs, w.tailPct)
	s.ttffFar = tailOf(ttffs)
	s.framesPerS = float64(frames) / ph.elapsed.Seconds()
	s.heapPeakMB = float64(ph.heapPeak) / (1 << 20)

	var saved, baseline float64
	var wire, wframes int64
	for i, r := range ph.results {
		if i >= w.ledgerWindow {
			break
		}
		if !r.ok() {
			continue
		}
		s.window++
		saved += r.res.Ledger.SavedJoules
		baseline += r.res.Ledger.BaselineJoules
		wire += r.res.Ledger.WireBytes
		wframes += int64(r.res.Frames)
	}
	if baseline > 0 {
		s.savedPct = 100 * saved / baseline
	}
	if wframes > 0 {
		s.wireBytesPerFrame = float64(wire) / float64(wframes)
	}
	return s
}

func ms(seconds float64) float64 { return seconds * 1000 }

// completedShare is the share of attempted sessions that completed
// with verified output.
func (s summary) completedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.attempted-s.failed) / float64(s.attempted)
}

// metric is one named figure with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd lists the end-to-end metrics of an untraced run.
func endToEnd(s summary, setupS float64) []metric {
	return []metric{
		{"setup_s", setupS, "s"},
		{"ttff_p50_ms", s.ttffP50, "ms"},
		{"ttff_tail_ms", s.ttffTail.value, "ms"},
		{"frames_per_s", s.framesPerS, "frames/s"},
		{"completed_share", s.completedShare(), "ratio"},
		{"heap_peak_mb", s.heapPeakMB, "MiB"},
		{"saved_pct", s.savedPct, "%"},
		{"wire_bytes_per_frame", s.wireBytesPerFrame, "B"},
	}
}

// printSummary writes the human-readable lines of a timed phase.
func printSummary(out io.Writer, w workload, s summary) {
	fmt.Fprintf(out, "sessions: %d attempted, %d failed (failed_share %.4f: %d abandoned, %d wrong)\n",
		s.attempted, s.failed, 1-s.completedShare(), s.abandoned, s.wrong)
	short := ""
	if s.ttffTail.beyond < tailBeyond {
		short = fmt.Sprintf(" (fewer than %d beyond: too few sessions for this percentile)", tailBeyond)
	}
	fmt.Fprintf(out, "ttff_tail_ms is p%.1f of %d samples, %d beyond it%s\n",
		s.ttffTail.pct, s.ttffTail.samples, s.ttffTail.beyond, short)
	fmt.Fprintf(out, "ttff at the highest percentile with %d beyond (not gated): p%.1f = %.3f ms\n",
		tailBeyond, s.ttffFar.pct, s.ttffFar.value)
	note := ""
	if s.window < w.ledgerWindow {
		note = fmt.Sprintf(" (fewer than the %d-session window completed: these figures now depend on timing)", w.ledgerWindow)
	}
	fmt.Fprintf(out, "saved_pct and wire_bytes_per_frame cover the first %d scheduled sessions%s\n", s.window, note)
	fmt.Fprintf(out, "heap_peak_mb covers the timed phase until %d sessions ended\n", w.ledgerWindow)
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(out io.Writer, correct bool, attempted, failed int, ms []metric) error {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		r.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
