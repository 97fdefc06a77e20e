package codec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/frame"
)

// TestEncodeGOPsMatchesGolden: any worker count reproduces the
// sequential encoder's bytes, including a final partial GOP.
func TestEncodeGOPsMatchesGolden(t *testing.T) {
	for _, gc := range goldenClips() {
		src := gc.frames()
		for _, workers := range []int{1, 2, 3, 16} {
			t.Run(fmt.Sprintf("%s/workers=%d", gc.name, workers), func(t *testing.T) {
				got, err := EncodeGOPs(context.Background(), gc.w, gc.h, gc.gop, gc.q,
					len(src), workers, func(i int) *frame.Frame { return src[i] })
				if err != nil {
					t.Fatal(err)
				}
				if h := streamHash(got); h != gc.wantHash {
					t.Errorf("stream hash = %s, want %s", h, gc.wantHash)
				}
			})
		}
	}
}

func TestEncodeGOPsValidation(t *testing.T) {
	f := frame.New(16, 16)
	at := func(int) *frame.Frame { return f }
	if _, err := EncodeGOPs(context.Background(), 16, 16, 0, 4, 3, 2, at); err == nil {
		t.Error("accepted gop 0")
	}
	if _, err := EncodeGOPs(context.Background(), 8, 8, 2, 4, 5, 2, at); err == nil {
		t.Error("accepted frames that do not match the dimensions")
	}
	got, err := EncodeGOPs(context.Background(), 16, 16, 2, 4, 0, 2, at)
	if err != nil || len(got) != 0 {
		t.Errorf("empty sequence = %d frames, %v", len(got), err)
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// worker that has signalled the WaitGroup may still be unwinding.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the call (base %d):\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEncodeGOPsCancel: cancelling mid-encode returns ctx.Err(), and
// no encode goroutine survives the call, however often it is repeated.
// The cancel fires while a GOP still has frames left, so some worker
// always checks the context again.
func TestEncodeGOPsCancel(t *testing.T) {
	const gop = 5
	src := fastMotionFrames(48, 32, 40)()
	base := runtime.NumGoroutine()
	for rep := 0; rep < 20; rep++ {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := EncodeGOPs(ctx, 48, 32, gop, 4, len(src), workers, func(i int) *frame.Frame {
				if i == gop*(1+rep%7)+rep%(gop-1) {
					cancel()
				}
				return src[i]
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		}
	}
	waitGoroutines(t, base)
}

// TestEncodeGOPsWorkerPanic: a panic on a worker goroutine reaches the
// caller, carrying the worker's message and stack, after every worker
// has stopped.
func TestEncodeGOPsWorkerPanic(t *testing.T) {
	src := fastMotionFrames(48, 32, 40)()
	base := runtime.NumGoroutine()
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		EncodeGOPs(context.Background(), 48, 32, 5, 4, len(src), 4, func(i int) *frame.Frame {
			if i == 17 {
				panic("bomb: frame 17")
			}
			return src[i]
		})
	}()
	if recovered == nil {
		t.Fatal("worker panic did not reach the caller")
	}
	if msg := fmt.Sprint(recovered); !strings.Contains(msg, "bomb: frame 17") ||
		!strings.Contains(msg, "parallel_test.go") {
		t.Errorf("panic value lost the worker's message or stack:\n%s", msg)
	}
	waitGoroutines(t, base)
}
