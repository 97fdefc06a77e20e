package codec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/frame"
)

// EncodeGOPs encodes the n frames frameAt(0..n-1) of a w×h sequence and
// returns them in order, byte-identical to feeding them to one Encoder.
// Up to workers goroutines share the work, each taking whole GOPs: an
// I-frame resets everything Encode carries from frame to frame (the
// reference is read only by P-frames), so a GOP coded on its own is the
// same GOP the sequential encoder produces. frameAt is called once per
// index, concurrently when workers > 1.
//
// ctx is checked before every frame; cancelling it returns ctx.Err().
// No goroutine outlives the call, and a panic in a worker is re-raised
// on the calling goroutine once every worker has stopped.
func EncodeGOPs(ctx context.Context, w, h, gop, qscale, n, workers int, frameAt func(i int) *frame.Frame) ([]*EncodedFrame, error) {
	if _, err := NewEncoder(w, h, gop, qscale); err != nil {
		return nil, err
	}
	out := make([]*EncodedFrame, n)
	gops := (n + gop - 1) / gop
	errs := make([]error, gops)
	var next atomic.Int64
	var stop atomic.Bool
	// run codes GOPs until none are left or any worker has failed.
	run := func() {
		enc, _ := NewEncoder(w, h, gop, qscale)
		for !stop.Load() {
			g := int(next.Add(1) - 1)
			if g >= gops {
				return
			}
			enc.reset()
			for i := g * gop; i < min(n, (g+1)*gop) && !stop.Load(); i++ {
				err := ctx.Err()
				if err == nil {
					out[i], err = enc.Encode(frameAt(i))
				}
				if err != nil {
					errs[g] = err
					stop.Store(true)
					return
				}
			}
		}
	}

	if workers = min(workers, gops); workers <= 1 {
		run()
	} else {
		var wg sync.WaitGroup
		var once sync.Once
		var crash *workerPanic
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						once.Do(func() { crash = &workerPanic{val: r, stack: debug.Stack()} })
						stop.Store(true)
					}
				}()
				run()
			}()
		}
		wg.Wait()
		if crash != nil {
			panic(crash)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// workerPanic is a worker goroutine's panic re-raised on the caller. Its
// text carries the worker's stack, which the re-raise would lose.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("%v\n\nencode worker goroutine:\n%s", p.val, p.stack)
}
