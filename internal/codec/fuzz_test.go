package codec

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDecodeFrame drives the frame decoder with arbitrary payloads for
// both frame types; it must never panic.
func FuzzDecodeFrame(f *testing.F) {
	c := clip(&testing.T{})
	enc, err := NewEncoder(c.W, c.H, 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	var iData, pData []byte
	for i := 0; i < 2; i++ {
		ef, err := enc.Encode(c.Frame(i))
		if err != nil {
			f.Fatal(err)
		}
		if ef.Type == IFrame {
			iData = ef.Data
		} else {
			pData = ef.Data
		}
	}
	f.Add(uint8(0), uint8(4), iData)
	f.Add(uint8(1), uint8(4), pData)
	f.Add(uint8(0), uint8(31), []byte{0xFF, 0x00, 0xAA})
	f.Fuzz(func(t *testing.T, ft uint8, q uint8, data []byte) {
		dec, err := NewDecoder(c.W, c.H)
		if err != nil {
			t.Fatal(err)
		}
		// Prime a reference so P frames have one.
		prime := &EncodedFrame{Type: IFrame, QScale: 4, Data: iData}
		if _, err := dec.Decode(prime); err != nil {
			t.Fatal(err)
		}
		dec.Decode(&EncodedFrame{Type: FrameType(ft % 2), QScale: int(q), Data: data})
	})
}

// FuzzMotionSearch is a differential check of the encoder's motion
// search against referenceSearchMotion. The reference plane is a
// shifted copy of the current one plus noise; mode picks the texture
// (bits 0-1: noise, period-2 stripes, checkerboard, flat), how coarsely
// samples are quantised (bits 2-4) and the noise amplitude (bits 5-6).
// Periodic and coarse textures make SAD ties common, so the search's
// tie-breaking is exercised too. The macroblock may be a partial one at
// the right or bottom edge. The vector, the zero-vector SAD and the
// half-pel predictions the residual coder reads must all match what
// the clamped Plane.At reads give.
func FuzzMotionSearch(f *testing.F) {
	f.Add(uint8(47), uint8(31), uint8(0), int8(3), int8(-2), uint8(0), int64(1))
	f.Add(uint8(15), uint8(15), uint8(0), int8(8), int8(8), uint8(0), int64(2))
	f.Add(uint8(36), uint8(22), uint8(5), int8(-9), int8(9), uint8(0x28), int64(3))
	f.Add(uint8(47), uint8(47), uint8(4), int8(1), int8(0), uint8(1), int64(4))
	f.Add(uint8(47), uint8(47), uint8(4), int8(1), int8(0), uint8(2), int64(5))
	f.Add(uint8(40), uint8(40), uint8(8), int8(11), int8(-11), uint8(0x7c), int64(6))
	f.Fuzz(func(t *testing.T, wRaw, hRaw, mbRaw uint8, sx, sy int8, mode uint8, seed int64) {
		w, h := 1+int(wRaw)%48, 1+int(hRaw)%48
		rng := rand.New(rand.NewSource(seed))
		shift, noise := mode>>2&7, int(mode>>5&3)
		cur, ref := NewPlane(w, h), NewPlane(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := 128
				switch mode & 3 {
				case 0:
					v = rng.Intn(256)
				case 1:
					v = 200 * (x % 2)
				case 2:
					v = 200 * ((x + y) % 2)
				}
				cur.Pix[y*w+x] = uint8(v) >> shift << shift
			}
		}
		dx, dy := int(sx)%(SearchRange+4), int(sy)%(SearchRange+4)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := int(cur.At(x+dx, y+dy)) + rng.Intn(2*noise+1) - noise
				ref.Pix[y*w+x] = uint8(max(0, min(255, v))) >> shift << shift
			}
		}
		mbw, mbh := (w+MBSize-1)/MBSize, (h+MBSize-1)/MBSize
		k := int(mbRaw) % (mbw * mbh)
		mx, my := k%mbw*MBSize, k/mbw*MBSize

		var cp, rp paddedPlane
		cp.fill(cur)
		rp.fill(ref)
		sadZero := sadFullPel(&cp, &rp, mx, my, 0, 0, 0, math.MaxInt)
		if want := referenceMBSAD(cur, ref, mx, my, 0, 0); sadZero != want {
			t.Fatalf("zero-vector SAD = %d, reference %d", sadZero, want)
		}
		got := searchMotion(&cp, &rp, mx, my, sadZero)
		want := referenceSearchMotion(cur, ref, mx, my)
		if got != want {
			t.Fatalf("%dx%d MB (%d,%d): vector %v, reference %v", w, h, mx, my, got, want)
		}
		// The residual coder predicts luma at the vector and chroma at
		// half of it, from 8×8 blocks.
		var pred [BlockSize * BlockSize]uint8
		for _, hv := range []motionVector{got, {got.X / 2, got.Y / 2}} {
			for by := my; by < my+MBSize; by += BlockSize {
				for bx := mx; bx < mx+MBSize; bx += BlockSize {
					rp.halfPelBlock(pred[:], BlockSize, bx, by, hv.X, hv.Y)
					for i, p := range pred {
						x, y := bx+i%BlockSize, by+i/BlockSize
						if r := halfPelSample(ref, 2*x+hv.X, 2*y+hv.Y); int(p) != r {
							t.Fatalf("prediction at (%d,%d) vector %v = %d, reference %d", x, y, hv, p, r)
						}
					}
				}
			}
		}
	})
}
