package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/frame"
	"repro/internal/pixel"
	"repro/internal/video"
)

// goldenClip is one pinned encoder configuration: its frames, the
// encoder parameters and the SHA-256 of the encoded stream.
type goldenClip struct {
	name     string
	w, h     int
	gop, q   int
	frames   func() []*frame.Frame
	wantHash string
}

func clipFrames(c *video.Clip) func() []*frame.Frame {
	return func() []*frame.Frame {
		out := make([]*frame.Frame, c.TotalFrames())
		for i := range out {
			out[i] = c.Frame(i)
		}
		return out
	}
}

// fastMotionFrames renders n frames of textured noise that jumps by
// exactly ±SearchRange pixels on both axes between consecutive frames,
// so the best full-pel vector of every macroblock sits on the corner of
// the search window and border macroblocks search far outside the plane.
func fastMotionFrames(w, h, n int) func() []*frame.Frame {
	steps := [][2]int{{SearchRange, SearchRange}, {-SearchRange, -SearchRange},
		{SearchRange, -SearchRange}, {-SearchRange, SearchRange}}
	texture := func(x, y int) uint8 {
		v := uint32(x)*0x9E3779B1 ^ uint32(y)*0x85EBCA77
		v ^= v >> 15
		v *= 0x2C1B3C6D
		v ^= v >> 12
		return uint8(v)
	}
	return func() []*frame.Frame {
		out := make([]*frame.Frame, n)
		ox, oy := 0, 0
		for i := range out {
			f := frame.New(w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					l := texture(x+ox, y+oy)
					f.Set(x, y, pixel.RGB{R: l, G: l/2 + 64, B: 255 - l})
				}
			}
			out[i] = f
			ox += steps[i%len(steps)][0]
			oy += steps[i%len(steps)][1]
		}
		return out
	}
}

func goldenClips() []goldenClip {
	moving := []video.SceneSpec{
		{Frames: 10, BaseLuma: 0.3, LumaSpread: 0.3, MaxLuma: 0.9, HighlightFrac: 0.02, Chroma: 0.5, Motion: 1.5, Hue: 0.2},
		{Frames: 8, BaseLuma: 0.6, LumaSpread: 0.4, MaxLuma: 1.0, HighlightFrac: 0.1, Chroma: 0.8, Motion: 3, Flicker: 0.05, Hue: 0.7},
		{Frames: 6, BaseLuma: 0.2, LumaSpread: 1.0, MaxLuma: 1.0, HighlightFrac: 0.05, Chroma: 1, Motion: 7, Hue: 0.4},
	}
	return []goldenClip{
		{name: "120x90 gop10", w: 120, h: 90, gop: 10, q: 4,
			frames:   clipFrames(video.MustNew("golden-120", 120, 90, 10, 11, moving)),
			wantHash: "ca9d298e1f4b671fb6f7e5e1c10acf0919b1e504fcd4b9546674903ac303d26c"},
		{name: "37x23 gop10", w: 37, h: 23, gop: 10, q: 4,
			frames:   clipFrames(video.MustNew("golden-37", 37, 23, 10, 12, moving)),
			wantHash: "0b5315ea949c7d207e87d2f077b659bcaaadb2295b113a7021e8e36048b17160"},
		{name: "16x16 gop10", w: 16, h: 16, gop: 10, q: 6,
			frames:   clipFrames(video.MustNew("golden-16", 16, 16, 10, 13, moving[:2])),
			wantHash: "0ba91636c55d89883e31d86eb0b78000d2fa49c762306287d628470b054fe96b"},
		{name: "48x32 gop1", w: 48, h: 32, gop: 1, q: 4,
			frames:   clipFrames(video.MustNew("golden-gop1", 48, 32, 10, 14, moving[1:])),
			wantHash: "b211d19b94aab19de62f2b3028708c8844807f47ef093c40f19a3ee9a513b6c5"},
		{name: "50x34 gop100", w: 50, h: 34, gop: 100, q: 2,
			frames:   clipFrames(video.MustNew("golden-gop100", 50, 34, 10, 15, moving)),
			wantHash: "af136f1b7e17d1533fd1c39c8f6084c083e75583a69fa4f06230e1b5ee7a6fa8"},
		{name: "fast 72x40 gop100", w: 72, h: 40, gop: 100, q: 4,
			frames:   fastMotionFrames(72, 40, 9),
			wantHash: "81f5acd63577953047e3c3d327aa94f51a603b9d5046fe4772d8b8470852725f"},
	}
}

// streamHash is the SHA-256 over (Type, len(Data), Data) of every frame.
func streamHash(frames []*EncodedFrame) string {
	h := sha256.New()
	var hdr [5]byte
	for _, ef := range frames {
		hdr[0] = byte(ef.Type)
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(ef.Data)))
		h.Write(hdr[:])
		h.Write(ef.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func encodeSequential(t testing.TB, gc goldenClip, src []*frame.Frame) []*EncodedFrame {
	t.Helper()
	enc, err := NewEncoder(gc.w, gc.h, gc.gop, gc.q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*EncodedFrame, len(src))
	for i, f := range src {
		if out[i], err = enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEncoderGolden pins the encoder's output bytes. Every encoder
// optimisation must leave these hashes unchanged: the stream, store and
// zero-copy goldens downstream all rest on the codec being
// deterministic down to the bit.
func TestEncoderGolden(t *testing.T) {
	for _, gc := range goldenClips() {
		t.Run(gc.name, func(t *testing.T) {
			got := streamHash(encodeSequential(t, gc, gc.frames()))
			if got != gc.wantHash {
				t.Errorf("stream hash = %s, want %s", got, gc.wantHash)
			}
		})
	}
}

// codedMB is one non-skipped macroblock of a P frame.
type codedMB struct {
	mx, my int
	mv     motionVector
}

// motionVectors parses the macroblock layer of a P frame and returns
// the position and half-pel vector of every coded macroblock.
func motionVectors(t *testing.T, ef *EncodedFrame, w, h int) []codedMB {
	t.Helper()
	r := NewBitReader(ef.Data)
	var levels [BlockSize * BlockSize]int32
	var mbs []codedMB
	for my := 0; my < h; my += MBSize {
		for mx := 0; mx < w; mx += MBSize {
			skip, err := r.ReadBit()
			if err != nil {
				t.Fatal(err)
			}
			if skip == 1 {
				continue
			}
			vx, err1 := r.ReadSE()
			vy, err2 := r.ReadSE()
			if err1 != nil || err2 != nil {
				t.Fatal("truncated motion vector")
			}
			mbs = append(mbs, codedMB{mx, my, motionVector{int(vx), int(vy)}})
			for b := 0; b < 6; b++ {
				if err := readBlock(r, &levels); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return mbs
}

// TestGoldenFastMotionReachesSearchRange guards the fast-motion golden
// clip's purpose: border macroblocks of its P frames must carry vectors
// at the edge of the search window, or the golden would not cover
// searches that reach outside the plane.
func TestGoldenFastMotionReachesSearchRange(t *testing.T) {
	gc := goldenClips()[len(goldenClips())-1]
	frames := encodeSequential(t, gc, gc.frames())
	var reachX, reachY bool
	for _, ef := range frames[1:] {
		for _, mb := range motionVectors(t, ef, gc.w, gc.h) {
			if mb.mx > 0 && mb.my > 0 && mb.mx+MBSize < gc.w && mb.my+MBSize < gc.h {
				continue
			}
			reachX = reachX || absInt(mb.mv.X) >= 2*SearchRange
			reachY = reachY || absInt(mb.mv.Y) >= 2*SearchRange
		}
	}
	if !reachX || !reachY {
		t.Errorf("no border vector reaches ±SearchRange (x %v, y %v)", reachX, reachY)
	}
}
