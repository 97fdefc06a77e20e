package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/anncache"
	"repro/internal/core"
	"repro/internal/display"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/scene"
	"repro/internal/video"
)

// encodeBomb panics the third time any one frame is rendered. A server
// session renders each frame once for the content digest and once for
// the annotation pipeline, so the panic fires on an encode worker.
type encodeBomb struct {
	core.Source
	mu    sync.Mutex
	calls map[int]int
}

func (b *encodeBomb) Frame(i int) *frame.Frame {
	b.mu.Lock()
	b.calls[i]++
	n := b.calls[i]
	b.mu.Unlock()
	if n == 3 {
		panic(fmt.Sprintf("bomb: frame %d rendered a third time", i))
	}
	return b.Source.Frame(i)
}

// TestEncodePanicIsolated: a panic on a parallel encode worker is a
// session panic like any other. The session dies and is counted, the
// process survives, and the next session streams normally.
func TestEncodePanicIsolated(t *testing.T) {
	cat := testCatalog()
	cat["encbomb"] = &encodeBomb{Source: cat["night"], calls: map[int]int{}}
	reg := obs.NewRegistry()
	s := NewServer(cat)
	var logMu sync.Mutex
	var logs strings.Builder
	s.SetLogf(func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logs, format+"\n", args...)
		logMu.Unlock()
	})
	s.SetObserver(reg)
	s.SetAnnotateWorkers(3)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	bombClient := &Client{Device: display.IPAQ5555(), Retry: RetryPolicy{MaxAttempts: 1}}
	if _, err := bombClient.Play(addr.String(), "encbomb", 0.10); err == nil {
		t.Fatal("playing the panicking clip unexpectedly succeeded")
	}
	if got := reg.Counter("stream_session_panics_total", "", obs.L("role", "server")).Value(); got != 1 {
		t.Errorf("stream_session_panics_total = %d, want 1", got)
	}
	logMu.Lock()
	logged := logs.String()
	logMu.Unlock()
	if !strings.Contains(logged, "rendered a third time") || !strings.Contains(logged, "encode worker goroutine") {
		t.Errorf("session log does not show the encode worker's panic:\n%s", logged)
	}
	res, err := (&Client{Device: display.IPAQ5555()}).Play(addr.String(), "night", 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 20 {
		t.Errorf("frames after panic = %d, want 20", res.Frames)
	}
}

// gatedBomb blocks every Frame call until release closes, then panics.
type gatedBomb struct {
	core.Source
	entered chan struct{}
	once    sync.Once
	release chan struct{}
}

func (b *gatedBomb) Frame(i int) *frame.Frame {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	panic("bomb: encode worker")
}

// TestEncodePanicReachesCacheWaiters: a worker panic surfaces on the
// goroutine computing the variant, so the artifact cache settles the
// flight. A session waiting on the same variant gets
// anncache.ErrComputePanicked instead of hanging, and nothing is cached.
func TestEncodePanicReachesCacheWaiters(t *testing.T) {
	src, track, _, cfg, qi := buildServingFixture(t)
	reg := obs.NewRegistry()
	cache := anncache.New(0)
	cache.SetObserver(reg)
	tr := tier{cache: cache, workers: 3}
	bomb := &gatedBomb{Source: src, entered: make(chan struct{}), release: make(chan struct{})}
	ctx := context.Background()

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		variantFor(ctx, tr, "bomb", bomb, track, qi, cfg)
	}()
	<-bomb.entered
	waiter := make(chan error, 1)
	go func() {
		_, err := variantFor(ctx, tr, "bomb", bomb, track, qi, cfg)
		waiter <- err
	}()
	waits := reg.Counter("anncache_singleflight_waits_total", "", obs.L("kind", "variant"))
	waitFor(t, "the second lookup to join the flight", func() bool { return waits.Value() == 1 })
	close(bomb.release)

	if p := <-leader; p == nil || !strings.Contains(fmt.Sprint(p), "bomb: encode worker") {
		t.Errorf("computing goroutine recovered %v, want the worker's panic", p)
	}
	if err := <-waiter; !errors.Is(err, anncache.ErrComputePanicked) {
		t.Errorf("waiter err = %v, want anncache.ErrComputePanicked", err)
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries after a panicked compute", cache.Len())
	}
}

// BenchmarkPrepareVariant measures a cold-miss variant: compensating
// and encoding one 24-frame 120×90 rung as a server session does, on
// one worker and on GOMAXPROCS workers (whole GOPs in parallel).
func BenchmarkPrepareVariant(b *testing.B) {
	src := core.ClipSource{Clip: video.MustNew("bench-variant", 120, 90, 10, 7, []video.SceneSpec{
		{Frames: 8, BaseLuma: 0.15, LumaSpread: 0.2, MaxLuma: 0.8, HighlightFrac: 0.01, Chroma: 0.4, Motion: 1.5, Hue: 0.6},
		{Frames: 8, BaseLuma: 0.45, LumaSpread: 0.3, MaxLuma: 0.95, HighlightFrac: 0.03, Chroma: 0.5, Motion: 2.5, Hue: 0.2},
		{Frames: 8, BaseLuma: 0.7, LumaSpread: 0.25, MaxLuma: 1.0, HighlightFrac: 0.05, Chroma: 0.3, Motion: 1, Hue: 0.9},
	})}
	ctx := context.Background()
	track, _, err := core.AnnotatePipeline(ctx, src, scene.DefaultConfig(src.FPS()), nil, core.AnnotateOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := EncodeConfig{}.withDefaults(src.FPS())
	qi := track.QualityIndex(0.10)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=gomaxprocs", runtime.GOMAXPROCS(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prepareVariant(ctx, src, track, qi, cfg, bc.workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N*src.TotalFrames()), "ms/frame")
		})
	}
}
