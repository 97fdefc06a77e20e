package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/scene"
	"repro/internal/stream"
	"repro/internal/video"
)

// planFingerprint is a plan's schedule plus the content digest of every
// clip it names.
func planFingerprint(p *plan) ([]sessionSpec, []string) {
	var digests []string
	for _, c := range p.clips {
		digests = append(digests, core.SourceDigest(core.ClipSource{Clip: c}))
	}
	return p.schedule, digests
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s1, d1 := planFingerprint(makePlan(w, 7, 12))
			s2, d2 := planFingerprint(makePlan(w, 7, 12))
			if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) {
				t.Fatal("seed 7 generated two different plans")
			}
			s3, d3 := planFingerprint(makePlan(w, 8, 12))
			if reflect.DeepEqual(s1, s3) {
				t.Error("seeds 7 and 8 generated the same schedule")
			}
			for i := range d1 {
				if d1[i] == d3[i] {
					t.Errorf("clip %d has the same content under seeds 7 and 8", i)
				}
			}
		})
	}
}

// TestSceneCutsSurviveDetection checks that the scene detector finds
// every cut between scenes of different classes in the generated clips:
// a missed cut would merge a dark scene into a brighter one and take
// its savings, which would make saved_pct depend on the seed.
func TestSceneCutsSurviveDetection(t *testing.T) {
	w, _ := workloadByName("warm-replay")
	for seed := int64(1); seed <= 5; seed++ {
		for _, c := range makePlan(w, seed, 1).clips {
			_, scenes, err := core.Annotate(core.ClipSource{Clip: c}, scene.DefaultConfig(clipFPS), nil)
			if err != nil {
				t.Fatal(err)
			}
			starts := map[int]bool{}
			for _, sc := range scenes {
				starts[sc.Start] = true
			}
			// genScene's background bands tell the classes apart.
			class := func(sp video.SceneSpec) sceneClass {
				switch {
				case sp.BaseLuma < 0.35:
					return classDark
				case sp.BaseLuma < 0.6:
					return classMid
				}
				return classBright
			}
			at := 0
			for i, sp := range c.Scenes {
				if i > 0 && class(sp) != class(c.Scenes[i-1]) && !starts[at] {
					t.Errorf("seed %d, %s: no scene detected at the cut at frame %d", seed, c.Name, at)
				}
				at += sp.Frames
			}
		}
	}
}

func TestScheduleMix(t *testing.T) {
	w, _ := workloadByName("warm-replay")
	p := makePlan(w, 3, 300)
	rungCount := map[int]int{}
	adaptive := 0
	for _, s := range p.schedule {
		rungCount[s.rung]++
		if s.adaptive {
			adaptive++
		}
	}
	for _, r := range rungs {
		if rungCount[r] != 100 {
			t.Errorf("rung %d drawn %d times of 300, want 100", r, rungCount[r])
		}
	}
	if adaptive != 90 {
		t.Errorf("%d of 300 sessions adaptive, want 90", adaptive)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			// Reverse order, so the rule must sort.
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		beyond  int
		samples int
	}{
		{n: 100, value: 90, pct: 90, beyond: 10, samples: 100},
		{n: 1000, value: 990, pct: 99, beyond: 10, samples: 1000},
		{n: 25, value: 15, pct: 60, beyond: 10, samples: 25},
		{n: 21, value: 11, pct: 100 * 11.0 / 21, beyond: 10, samples: 21},
		// Too few samples for ten beyond: the tail stays at the median.
		{n: 15, value: 8, pct: 100 * 8.0 / 15, beyond: 7, samples: 15},
		{n: 1, value: 1, pct: 100, beyond: 0, samples: 1},
	} {
		got := tailOf(seq(tc.n))
		want := tail{value: tc.value, pct: tc.pct, beyond: tc.beyond, samples: tc.samples}
		if got != want {
			t.Errorf("tailOf(1..%d) = %+v, want %+v", tc.n, got, want)
		}
		above := 0
		for _, x := range seq(tc.n) {
			if x > got.value {
				above++
			}
		}
		if above != got.beyond {
			t.Errorf("n=%d: %d samples above the tail, reported %d", tc.n, above, got.beyond)
		}
	}

	// The gated tail sits at the workload's fixed percentile, whatever
	// the sample count.
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 100, pct: 90, value: 90, beyond: 10},
		{n: 700, pct: 90, value: 630, beyond: 70},
		{n: 25, pct: 60, value: 15, beyond: 10},
		{n: 46, pct: 70, value: 33, beyond: 13},
		{n: 1, pct: 60, value: 1, beyond: 0},
	} {
		got := tailAt(seq(tc.n), tc.pct)
		if got.value != tc.value || got.beyond != tc.beyond || got.samples != tc.n {
			t.Errorf("tailAt(1..%d, p%v) = %+v, want value %v with %d beyond", tc.n, tc.pct, got, tc.value, tc.beyond)
		}
	}
}

func okResult() *sessionResult {
	return &sessionResult{
		spec:    sessionSpec{rung: 1},
		res:     &stream.PlayResult{Frames: 24, Ledger: &power.Report{SavedJoules: 1, BaselineJoules: 4, WireBytes: 2400}},
		ttff:    time.Millisecond,
		digests: make([]uint64, 24),
	}
}

func TestFailedShareCountsRefusedAbandonedAndWrong(t *testing.T) {
	// A refused session: nothing listens at the address, so every
	// connection attempt is refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	refused := playTimed(addr, sessionSpec{clip: "none", rung: 1, device: devices[0].Name}, nil)
	if refused.err == nil {
		t.Fatal("a session against a closed port succeeded")
	}
	abandoned := &sessionResult{err: fmt.Errorf("stream: %w", context.DeadlineExceeded), abandoned: true}
	wrong := okResult()
	wrong.wrong = true

	w, _ := workloadByName("cold-miss")
	ph := &phase{results: []*sessionResult{okResult(), refused, abandoned, wrong}, elapsed: time.Second}
	s := summarize(w, ph)
	if s.attempted != 4 || s.failed != 3 || s.abandoned != 1 || s.wrong != 1 {
		t.Fatalf("summary %+v: want 4 attempted, 3 failed (1 abandoned, 1 wrong)", s)
	}
	if got := s.completedShare(); got != 0.25 {
		t.Errorf("completed share %v, want 0.25", got)
	}
	if s.framesPerS != 24 {
		t.Errorf("frames/s %v, want 24: only verified sessions count", s.framesPerS)
	}
	if s.savedPct != 25 || s.window != 1 {
		t.Errorf("saved_pct %v over %d sessions, want 25 over 1", s.savedPct, s.window)
	}
}

// TestSlowdownDrill injects a fixed delay into every server Frame call
// of every other cold-miss session and checks that both gates see it:
// the Frame time rises by the delay, and TTFF rises by about the delay
// summed over a session's Frame calls (less the part the parallel
// annotation workers overlap). Slowed and plain sessions alternate and
// are compared in pairs, so a drift in the host's speed hits both
// sides alike.
func TestSlowdownDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("plays 16 cold-miss sessions")
	}
	if raceEnabled {
		t.Skip("the race detector distorts the timings the drill compares")
	}
	const delay = 3 * time.Millisecond
	w, _ := workloadByName("cold-miss")
	tr := newTracer()
	p := makePlan(w, 5, 16)
	e, err := setup(w, p, t.TempDir(), tr.wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()

	var ttffRise, frameRise []float64
	var calls, slowed int64
	var base [2]float64 // the plain session of the current pair
	for k, spec := range p.schedule {
		slow := k%2 == 1
		d := time.Duration(0)
		if slow {
			d = delay
		}
		tr.delay.Store(int64(d))
		c0, n0 := tr.frameCalls.Load(), tr.frameNanos.Load()
		r := playTimed(e.nodes[0].addr, spec, tr)
		if r.err != nil {
			t.Fatal(r.err)
		}
		c, n := tr.frameCalls.Load()-c0, tr.frameNanos.Load()-n0
		ttff, frameUS := ms(r.ttff.Seconds()), float64(n)/float64(c)/1e3
		if !slow {
			base = [2]float64{ttff, frameUS}
			continue
		}
		ttffRise = append(ttffRise, ttff-base[0])
		frameRise = append(frameRise, frameUS-base[1])
		calls += c
		slowed++
	}
	injected := float64(calls) / float64(slowed) * float64(delay) / float64(time.Millisecond)
	tRise, fRise := median(ttffRise), median(frameRise)
	t.Logf("paired medians: video.frame_us +%.0f us, ttff_p50_ms +%.0f ms; %d Frame calls and %.0f ms injected per session",
		fRise, tRise, calls/slowed, injected)

	delayUS := float64(delay.Microseconds())
	if fRise < 0.8*delayUS || fRise > 1.5*delayUS {
		t.Errorf("video.frame_us rose by %.0f us, want about the injected %.0f us", fRise, delayUS)
	}
	if tRise < 0.5*injected || tRise > 1.5*injected {
		t.Errorf("ttff_p50_ms rose by %.0f ms, want about the %.0f ms injected per session", tRise, injected)
	}
}

func TestVerifyFlagsWrongFramesAndSavings(t *testing.T) {
	w, _ := workloadByName("warm-replay")
	p := makePlan(w, 9, 4)
	e, err := setup(workload{name: w.name, clients: 1, nodes: 1}, p, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	var results []*sessionResult
	for _, spec := range p.schedule[:3] {
		r := playTimed(e.nodes[0].addr, spec, nil)
		if r.err != nil {
			t.Fatal(r.err)
		}
		results = append(results, r)
	}
	results[1].digests[3] ^= 1
	results[2].res.Ledger.SavedJoules *= 1.001
	if err := verify(p, results); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true, true} {
		if results[i].wrong != want {
			t.Errorf("session %d: wrong = %v, want %v", i, results[i].wrong, want)
		}
	}
	if !errors.Is(finish(io.Discard, summary{attempted: 2, wrong: 1}, nil), errWrong) {
		t.Error("a run with a wrong session did not fail")
	}
}
