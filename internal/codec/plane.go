// Package codec implements the video compression substrate standing in for
// the Berkeley MPEG tools decoder used by the paper's player (§5): a
// block-transform codec with BT.601 4:2:0 chroma subsampling, 8×8 DCT,
// uniform quantisation, zig-zag run-length scanning with Exp-Golomb
// entropy coding, and motion-compensated P frames. It gives the client a
// realistic decode workload and a real bitstream for the annotation track
// to ride on; it is not bit-compatible with MPEG-1.
package codec

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/pixel"
)

// Plane is a single-component raster with its own dimensions (chroma
// planes are subsampled).
type Plane struct {
	W, H int
	Pix  []uint8
}

// NewPlane returns a zeroed plane.
func NewPlane(w, h int) *Plane {
	return &Plane{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the sample at (x, y), clamping coordinates to the plane edge
// (edge extension, as block and motion reads may poke outside).
func (p *Plane) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// Set stores v at (x, y); out-of-bounds writes are dropped.
func (p *Plane) Set(x, y int, v uint8) {
	if x < 0 || x >= p.W || y < 0 || y >= p.H {
		return
	}
	p.Pix[y*p.W+x] = v
}

// Clone deep-copies the plane.
func (p *Plane) Clone() *Plane {
	q := &Plane{W: p.W, H: p.H, Pix: make([]uint8, len(p.Pix))}
	copy(q.Pix, p.Pix)
	return q
}

// Picture is a YCbCr 4:2:0 image: full-resolution luma, half-resolution
// chroma in both dimensions.
type Picture struct {
	Y, Cb, Cr *Plane
}

// NewPicture allocates a picture for a w×h frame. Dimensions are rounded
// up internally to even values for subsampling.
func NewPicture(w, h int) *Picture {
	cw, ch := (w+1)/2, (h+1)/2
	return &Picture{Y: NewPlane(w, h), Cb: NewPlane(cw, ch), Cr: NewPlane(cw, ch)}
}

// FromFrame converts an RGB frame to a 4:2:0 picture. Chroma is averaged
// over each 2×2 luma quad.
func FromFrame(f *frame.Frame) *Picture {
	pic := NewPicture(f.W, f.H)
	pic.fromFrame(f)
	return pic
}

// fromFrame overwrites every sample of pic (sized for f) with f's
// conversion.
func (pic *Picture) fromFrame(f *frame.Frame) {
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			yc := pixel.ToYCbCr(f.At(x, y))
			pic.Y.Set(x, y, yc.Y)
		}
	}
	for cy := 0; cy < pic.Cb.H; cy++ {
		for cx := 0; cx < pic.Cb.W; cx++ {
			var cb, cr, n int
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					x, y := cx*2+dx, cy*2+dy
					if x >= f.W || y >= f.H {
						continue
					}
					yc := pixel.ToYCbCr(f.At(x, y))
					cb += int(yc.Cb)
					cr += int(yc.Cr)
					n++
				}
			}
			if n > 0 {
				pic.Cb.Set(cx, cy, uint8((cb+n/2)/n))
				pic.Cr.Set(cx, cy, uint8((cr+n/2)/n))
			}
		}
	}
}

// ToFrame converts the picture back to an RGB frame of the given size
// (chroma is replicated over each 2×2 quad).
func (pic *Picture) ToFrame() *frame.Frame {
	f := frame.New(pic.Y.W, pic.Y.H)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			yc := pixel.YCbCr{
				Y:  pic.Y.At(x, y),
				Cb: pic.Cb.At(x/2, y/2),
				Cr: pic.Cr.At(x/2, y/2),
			}
			f.Set(x, y, pixel.ToRGB(yc))
		}
	}
	return f
}

// Clone deep-copies the picture.
func (pic *Picture) Clone() *Picture {
	return &Picture{Y: pic.Y.Clone(), Cb: pic.Cb.Clone(), Cr: pic.Cr.Clone()}
}

func (pic *Picture) planes() [3]*Plane { return [3]*Plane{pic.Y, pic.Cb, pic.Cr} }

// padBorder is how far a paddedPlane extends past each edge. P-frame
// coding reads at most MBSize-1 samples past the last whole macroblock
// (a partial one at the right or bottom edge), SearchRange further for
// the vector, and one more each for the half-pel floor and the
// bilinear neighbour; chroma reads reach less far.
const padBorder = SearchRange + MBSize + 2

// paddedPlane is a copy of a Plane edge-extended by padBorder samples on
// every side: the sample stored for (x, y) is exactly what Plane.At
// clamps (x, y) to, so block reads that reach past the edge index a
// plain strided array. Its buffer is reused across fills.
type paddedPlane struct {
	stride int
	pix    []uint8
	origin int // index of sample (0, 0)
}

// fill replaces the contents with the edge extension of p.
func (pp *paddedPlane) fill(p *Plane) {
	pp.stride = p.W + 2*padBorder
	n := pp.stride * (p.H + 2*padBorder)
	if cap(pp.pix) < n {
		pp.pix = make([]uint8, n)
	}
	pp.pix = pp.pix[:n]
	pp.origin = padBorder*pp.stride + padBorder
	for y := 0; y < p.H; y++ {
		src := p.Pix[y*p.W : (y+1)*p.W]
		row := pp.pix[pp.offset(-padBorder, y):pp.offset(p.W+padBorder, y)]
		left, right := row[:padBorder], row[padBorder+p.W:]
		for x := range left {
			left[x] = src[0]
		}
		copy(row[padBorder:], src)
		for x := range right {
			right[x] = src[p.W-1]
		}
	}
	first := pp.pix[pp.offset(-padBorder, 0):pp.offset(-padBorder, 1)]
	last := pp.pix[pp.offset(-padBorder, p.H-1):pp.offset(-padBorder, p.H)]
	for y := 1; y <= padBorder; y++ {
		copy(pp.pix[pp.offset(-padBorder, -y):], first)
		copy(pp.pix[pp.offset(-padBorder, p.H-1+y):], last)
	}
}

// offset returns the index of sample (x, y).
func (pp *paddedPlane) offset(x, y int) int { return pp.origin + y*pp.stride + x }

// halfPelBlock writes the n×n prediction at (x0, y0) displaced by the
// half-pel vector (hvx, hvy) into pred, row-major: sample (x, y) equals
// halfPelSample(p, 2*(x0+x)+hvx, 2*(y0+y)+hvy) on the unpadded plane,
// since (2k+h)>>1 = k + h>>1 and (2k+h)&1 = h&1.
func (pp *paddedPlane) halfPelBlock(pred []uint8, n, x0, y0, hvx, hvy int) {
	o := pp.offset(x0+(hvx>>1), y0+(hvy>>1))
	s := pp.stride
	for y := 0; y < n; y++ {
		dst := pred[y*n : (y+1)*n]
		r0 := pp.pix[o : o+n+1]
		r1 := pp.pix[o+s : o+s+n+1]
		switch {
		case hvx&1 == 0 && hvy&1 == 0:
			copy(dst, r0)
		case hvy&1 == 0:
			for x := range dst {
				dst[x] = uint8((int(r0[x]) + int(r0[x+1]) + 1) >> 1)
			}
		case hvx&1 == 0:
			for x := range dst {
				dst[x] = uint8((int(r0[x]) + int(r1[x]) + 1) >> 1)
			}
		default:
			for x := range dst {
				dst[x] = uint8((int(r0[x]) + int(r0[x+1]) + int(r1[x]) + int(r1[x+1]) + 2) >> 2)
			}
		}
		o += s
	}
}

// copyTile copies the n×n tile at (x0, y0) into dst, dropping the
// samples that fall outside dst.
func (pp *paddedPlane) copyTile(dst *Plane, x0, y0, n int) {
	w := min(n, dst.W-x0)
	for y := y0; y < min(y0+n, dst.H); y++ {
		o := pp.offset(x0, y)
		copy(dst.Pix[y*dst.W+x0:y*dst.W+x0+w], pp.pix[o:o+w])
	}
}

// validateDims checks encoder/decoder dimension agreement.
func validateDims(w, h int) error {
	if w <= 0 || h <= 0 || w > 4096 || h > 4096 {
		return fmt.Errorf("codec: unsupported dimensions %dx%d", w, h)
	}
	return nil
}
