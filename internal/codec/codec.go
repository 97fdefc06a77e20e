package codec

import (
	"fmt"
	"math"

	"repro/internal/frame"
)

// FrameType distinguishes intra-coded and predicted frames.
type FrameType uint8

const (
	// IFrame is intra coded: decodable without a reference.
	IFrame FrameType = iota
	// PFrame is predicted from the previous decoded frame with
	// per-macroblock motion compensation.
	PFrame
)

func (t FrameType) String() string {
	switch t {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// MBSize is the motion-compensation macroblock edge (16×16 luma).
const MBSize = 16

// SearchRange is the motion search window radius in pixels.
const SearchRange = 8

// skipSADThreshold is the per-macroblock luma SAD below which a zero-mv
// macroblock is coded as skipped.
const skipSADThreshold = 2 * MBSize * MBSize

// EncodedFrame is one compressed frame.
type EncodedFrame struct {
	Type   FrameType
	QScale int
	Data   []byte
}

// Size returns the encoded payload size in bytes (header excluded).
func (e *EncodedFrame) Size() int { return len(e.Data) }

// Encoder compresses a frame sequence. The zero value is not usable; use
// NewEncoder.
type Encoder struct {
	W, H   int
	GOP    int // I-frame every GOP frames (>=1)
	QScale int
	ref    *Picture // last reconstructed picture (closed loop)
	count  int

	// Buffers reused across frames so that steady-state encoding does
	// not allocate pictures: the converted input, the picture the next
	// reconstruction is written into, and the edge-extended copies of
	// the current and reference planes that P-frame coding reads.
	cur    *Picture
	spare  *Picture
	curPad [3]paddedPlane
	refPad [3]paddedPlane
}

// NewEncoder returns an encoder for w×h frames with an I-frame every gop
// frames at the given quantiser scale.
func NewEncoder(w, h, gop, qscale int) (*Encoder, error) {
	if err := validateDims(w, h); err != nil {
		return nil, err
	}
	if gop < 1 {
		return nil, fmt.Errorf("codec: gop %d < 1", gop)
	}
	return &Encoder{W: w, H: h, GOP: gop, QScale: clampQScale(qscale)}, nil
}

// Encode compresses the next frame of the sequence.
func (e *Encoder) Encode(f *frame.Frame) (*EncodedFrame, error) {
	if f.W != e.W || f.H != e.H {
		return nil, fmt.Errorf("codec: frame %dx%d does not match encoder %dx%d",
			f.W, f.H, e.W, e.H)
	}
	if e.cur == nil {
		e.cur = NewPicture(e.W, e.H)
	}
	pic := e.cur
	pic.fromFrame(f)
	ft := PFrame
	if e.count%e.GOP == 0 || e.ref == nil {
		ft = IFrame
	}
	e.count++

	w := &BitWriter{}
	// Every sample of recon is overwritten below, so the picture the
	// previous reference used is recycled.
	recon := e.spare
	if recon == nil {
		recon = NewPicture(e.W, e.H)
	}
	if ft == IFrame {
		encodeIntraPlane(w, pic.Y, recon.Y, e.QScale)
		encodeIntraPlane(w, pic.Cb, recon.Cb, e.QScale)
		encodeIntraPlane(w, pic.Cr, recon.Cr, e.QScale)
	} else {
		cp, rp := pic.planes(), e.ref.planes()
		for i := range cp {
			e.curPad[i].fill(cp[i])
			e.refPad[i].fill(rp[i])
		}
		encodePredicted(w, &e.curPad, &e.refPad, recon, e.QScale)
	}
	e.spare, e.ref = e.ref, recon
	return &EncodedFrame{Type: ft, QScale: e.QScale, Data: w.Bytes()}, nil
}

// reset restarts the sequence: the next frame is an I-frame, and
// nothing of the frames before it is read again.
func (e *Encoder) reset() {
	e.count = 0
	e.spare, e.ref = e.ref, nil
}

// Decoder decompresses a frame sequence produced by Encoder.
type Decoder struct {
	W, H int
	ref  *Picture
}

// NewDecoder returns a decoder for w×h frames.
func NewDecoder(w, h int) (*Decoder, error) {
	if err := validateDims(w, h); err != nil {
		return nil, err
	}
	return &Decoder{W: w, H: h}, nil
}

// Decode decompresses the next frame.
func (d *Decoder) Decode(ef *EncodedFrame) (*frame.Frame, error) {
	q := ef.QScale
	if q < MinQScale || q > MaxQScale {
		return nil, fmt.Errorf("%w: qscale %d", ErrBitstream, q)
	}
	r := NewBitReader(ef.Data)
	pic := NewPicture(d.W, d.H)
	switch ef.Type {
	case IFrame:
		if err := decodeIntraPlane(r, pic.Y, q); err != nil {
			return nil, err
		}
		if err := decodeIntraPlane(r, pic.Cb, q); err != nil {
			return nil, err
		}
		if err := decodeIntraPlane(r, pic.Cr, q); err != nil {
			return nil, err
		}
	case PFrame:
		if d.ref == nil {
			return nil, fmt.Errorf("%w: P frame with no reference", ErrBitstream)
		}
		if err := decodePredicted(r, pic, d.ref, q); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrBitstream, ef.Type)
	}
	d.ref = pic
	return pic.ToFrame(), nil
}

// --- intra coding ---

// encodeIntraPlane codes every 8×8 block of src and writes the
// reconstruction into rec (the encoder-side decoded picture). The DC
// coefficient is coded differentially against the previous block's DC
// (raster order within the plane), as neighbouring blocks share their
// average brightness.
func encodeIntraPlane(w *BitWriter, src, rec *Plane, qscale int) {
	var blk, coef Block
	var levels [BlockSize * BlockSize]int32
	prevDC := int32(0)
	for by := 0; by < src.H; by += BlockSize {
		for bx := 0; bx < src.W; bx += BlockSize {
			loadBlock(src, bx, by, &blk, 128)
			FDCT(&blk, &coef)
			quantize(&coef, &levels, true, qscale)
			trueDC := levels[0]
			levels[0] = trueDC - prevDC
			writeBlock(w, &levels)
			levels[0] = trueDC
			prevDC = trueDC
			dequantize(&levels, &coef, true, qscale)
			IDCT(&coef, &blk)
			storeBlock(rec, bx, by, &blk, 128)
		}
	}
}

func decodeIntraPlane(r *BitReader, dst *Plane, qscale int) error {
	var blk, coef Block
	var levels [BlockSize * BlockSize]int32
	prevDC := int32(0)
	for by := 0; by < dst.H; by += BlockSize {
		for bx := 0; bx < dst.W; bx += BlockSize {
			if err := readBlock(r, &levels); err != nil {
				return err
			}
			levels[0] += prevDC
			prevDC = levels[0]
			dequantize(&levels, &coef, true, qscale)
			IDCT(&coef, &blk)
			storeBlock(dst, bx, by, &blk, 128)
		}
	}
	return nil
}

// --- predicted coding ---

// Motion vectors are in half-pel units (the precision MPEG-1 uses): a
// vector of (3, -2) means 1.5 pixels right, 1 pixel up.
type motionVector struct{ X, Y int }

// halfPelSample reads the reference plane at half-pel position (hx, hy)
// (units of half pixels), bilinearly averaging the straddled samples.
func halfPelSample(p *Plane, hx, hy int) int {
	x, y := hx>>1, hy>>1
	fx, fy := hx&1, hy&1
	switch {
	case fx == 0 && fy == 0:
		return int(p.At(x, y))
	case fy == 0:
		return (int(p.At(x, y)) + int(p.At(x+1, y)) + 1) / 2
	case fx == 0:
		return (int(p.At(x, y)) + int(p.At(x, y+1)) + 1) / 2
	default:
		return (int(p.At(x, y)) + int(p.At(x+1, y)) +
			int(p.At(x, y+1)) + int(p.At(x+1, y+1)) + 2) / 4
	}
}

// encodePredicted codes cur as a P frame against ref. Both are the
// edge-extended copies of the three planes (Y, Cb, Cr), so every read
// the motion search and the residual prediction make is a plain
// strided access that returns what Plane.At would clamp to.
func encodePredicted(w *BitWriter, cur, ref *[3]paddedPlane, rec *Picture, qscale int) {
	for my := 0; my < rec.Y.H; my += MBSize {
		for mx := 0; mx < rec.Y.W; mx += MBSize {
			// Skip decision first: a static macroblock costs one SAD,
			// not a full motion search.
			sadZero := sadFullPel(&cur[0], &ref[0], mx, my, 0, 0, 0, math.MaxInt)
			if sadZero < skipSADThreshold {
				w.WriteBit(1) // skip
				ref[0].copyTile(rec.Y, mx, my, MBSize)
				ref[1].copyTile(rec.Cb, mx/2, my/2, MBSize/2)
				ref[2].copyTile(rec.Cr, mx/2, my/2, MBSize/2)
				continue
			}
			mv := searchMotion(&cur[0], &ref[0], mx, my, sadZero)
			w.WriteBit(0)
			w.WriteSE(int32(mv.X))
			w.WriteSE(int32(mv.Y))
			// Luma: four 8×8 residual blocks.
			for dy := 0; dy < MBSize; dy += BlockSize {
				for dx := 0; dx < MBSize; dx += BlockSize {
					codeResidualBlock(w, &cur[0], &ref[0], rec.Y,
						mx+dx, my+dy, mv.X, mv.Y, qscale)
				}
			}
			// Chroma: one 8×8 block per component at half resolution;
			// the luma half-pel vector becomes a chroma half-pel vector
			// of half the magnitude.
			codeResidualBlock(w, &cur[1], &ref[1], rec.Cb,
				mx/2, my/2, mv.X/2, mv.Y/2, qscale)
			codeResidualBlock(w, &cur[2], &ref[2], rec.Cr,
				mx/2, my/2, mv.X/2, mv.Y/2, qscale)
		}
	}
}

func decodePredicted(r *BitReader, pic, ref *Picture, qscale int) error {
	for my := 0; my < pic.Y.H; my += MBSize {
		for mx := 0; mx < pic.Y.W; mx += MBSize {
			skip, err := r.ReadBit()
			if err != nil {
				return err
			}
			if skip == 1 {
				copyMB(pic, ref, mx, my)
				continue
			}
			mvx, err := r.ReadSE()
			if err != nil {
				return err
			}
			mvy, err := r.ReadSE()
			if err != nil {
				return err
			}
			if abs32(mvx) > 2*SearchRange+1 || abs32(mvy) > 2*SearchRange+1 {
				return fmt.Errorf("%w: motion vector (%d,%d) out of range", ErrBitstream, mvx, mvy)
			}
			for dy := 0; dy < MBSize; dy += BlockSize {
				for dx := 0; dx < MBSize; dx += BlockSize {
					if err := decodeResidualBlock(r, pic.Y, ref.Y,
						mx+dx, my+dy, int(mvx), int(mvy), qscale); err != nil {
						return err
					}
				}
			}
			if err := decodeResidualBlock(r, pic.Cb, ref.Cb,
				mx/2, my/2, int(mvx)/2, int(mvy)/2, qscale); err != nil {
				return err
			}
			if err := decodeResidualBlock(r, pic.Cr, ref.Cr,
				mx/2, my/2, int(mvx)/2, int(mvy)/2, qscale); err != nil {
				return err
			}
		}
	}
	return nil
}

// searchMotion finds the motion vector minimising luma SAD at (mx,my):
// an exhaustive full-pel search over ±SearchRange followed by a half-pel
// refinement of the winner's eight neighbours. sadZero is the SAD of the
// zero vector. It returns the best half-pel vector.
//
// Each candidate's sum starts at its vector-length bias and stops once
// it reaches the best so far; a stopped candidate could only have lost
// the strict comparison, so the early exit never changes the winner.
func searchMotion(cur, ref *paddedPlane, mx, my, sadZero int) motionVector {
	bestFull := motionVector{}
	bestSAD := sadZero
	for vy := -SearchRange; vy <= SearchRange; vy++ {
		for vx := -SearchRange; vx <= SearchRange; vx++ {
			if vx == 0 && vy == 0 {
				continue
			}
			// Bias toward shorter vectors to stabilise the field.
			bias := 4 * (absInt(vx) + absInt(vy))
			if s := sadFullPel(cur, ref, mx, my, vx, vy, bias, bestSAD); s < bestSAD {
				bestSAD = s
				bestFull = motionVector{vx, vy}
			}
		}
	}
	// Half-pel refinement around the full-pel winner.
	best := motionVector{2 * bestFull.X, 2 * bestFull.Y}
	var pred [MBSize * MBSize]uint8
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			hv := motionVector{2*bestFull.X + dx, 2*bestFull.Y + dy}
			ref.halfPelBlock(pred[:], MBSize, mx, my, hv.X, hv.Y)
			if s := sad16(cur.pix[cur.offset(mx, my):], cur.stride, pred[:], MBSize, 0, bestSAD); s < bestSAD {
				bestSAD = s
				best = hv
			}
		}
	}
	return best
}

// sadFullPel returns sum plus the SAD between the current macroblock at
// (mx,my) and the reference one displaced by the full-pel vector
// (vx,vy), stopping early as sad16 does.
func sadFullPel(cur, ref *paddedPlane, mx, my, vx, vy, sum, limit int) int {
	return sad16(cur.pix[cur.offset(mx, my):], cur.stride,
		ref.pix[ref.offset(mx+vx, my+vy):], ref.stride, sum, limit)
}

// sad16 returns sum plus the SAD between the 16×16 blocks starting at
// a[0] and b[0] with row strides as and bs. It stops after any row
// where the running sum reaches limit, returning a value >= limit.
func sad16(a []uint8, as int, b []uint8, bs int, sum, limit int) int {
	for y := 0; y < MBSize && sum < limit; y++ {
		ra := (*[MBSize]uint8)(a[y*as : y*as+MBSize])
		rb := (*[MBSize]uint8)(b[y*bs : y*bs+MBSize])
		for x := 0; x < MBSize; x++ {
			d := int(ra[x]) - int(rb[x])
			m := d >> 63 // branch-free |d|
			sum += (d ^ m) - m
		}
	}
	return sum
}

// copyMB copies one macroblock (luma + both chroma tiles) from ref to dst.
func copyMB(dst, ref *Picture, mx, my int) {
	copyTile(dst.Y, ref.Y, mx, my, MBSize)
	copyTile(dst.Cb, ref.Cb, mx/2, my/2, MBSize/2)
	copyTile(dst.Cr, ref.Cr, mx/2, my/2, MBSize/2)
}

// copyTile copies an n×n tile at (x0, y0), row-wise via copy for interior
// tiles and through the clamping accessors at plane edges.
func copyTile(dst, ref *Plane, x0, y0, n int) {
	if x0 >= 0 && y0 >= 0 && x0+n <= dst.W && y0+n <= dst.H && dst.W == ref.W && dst.H == ref.H {
		for y := 0; y < n; y++ {
			o := (y0+y)*dst.W + x0
			copy(dst.Pix[o:o+n], ref.Pix[o:o+n])
		}
		return
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dst.Set(x0+x, y0+y, ref.At(x0+x, y0+y))
		}
	}
}

// codeResidualBlock transforms and writes one 8×8 motion-compensated
// residual (half-pel vector hvx/hvy), reconstructing into rec.
func codeResidualBlock(w *BitWriter, cur, ref *paddedPlane, rec *Plane, bx, by, hvx, hvy, qscale int) {
	var res, coef Block
	var levels [BlockSize * BlockSize]int32
	var pred [BlockSize * BlockSize]uint8
	ref.halfPelBlock(pred[:], BlockSize, bx, by, hvx, hvy)
	co := cur.offset(bx, by)
	for y := 0; y < BlockSize; y++ {
		c := (*[BlockSize]uint8)(cur.pix[co : co+BlockSize])
		for x := 0; x < BlockSize; x++ {
			res[y*BlockSize+x] = float64(int(c[x]) - int(pred[y*BlockSize+x]))
		}
		co += cur.stride
	}
	FDCT(&res, &coef)
	quantize(&coef, &levels, false, qscale)
	writeBlock(w, &levels)
	dequantize(&levels, &coef, false, qscale)
	IDCT(&coef, &res)
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			rec.Set(bx+x, by+y, clampSample(float64(pred[y*BlockSize+x])+res[y*BlockSize+x]))
		}
	}
}

func decodeResidualBlock(r *BitReader, dst, ref *Plane, bx, by, hvx, hvy, qscale int) error {
	var res, coef Block
	var levels [BlockSize * BlockSize]int32
	if err := readBlock(r, &levels); err != nil {
		return err
	}
	dequantize(&levels, &coef, false, qscale)
	IDCT(&coef, &res)
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			pred := halfPelSample(ref, 2*(bx+x)+hvx, 2*(by+y)+hvy)
			dst.Set(bx+x, by+y, clampSample(float64(pred)+res[y*BlockSize+x]))
		}
	}
	return nil
}

// --- block entropy coding ---

// eobMarker terminates a block's (run, level) list; runs are at most 63 so
// the value is unambiguous.
const eobMarker = 64

// writeBlock writes the quantised levels of one block as zig-zag (run,
// level) pairs in Exp-Golomb code, terminated by an EOB marker.
func writeBlock(w *BitWriter, levels *[BlockSize * BlockSize]int32) {
	run := uint32(0)
	for _, idx := range ZigZag {
		v := levels[idx]
		if v == 0 {
			run++
			continue
		}
		w.WriteUE(run)
		w.WriteSE(v)
		run = 0
	}
	w.WriteUE(eobMarker)
}

// readBlock parses one block written by writeBlock.
func readBlock(r *BitReader, levels *[BlockSize * BlockSize]int32) error {
	for i := range levels {
		levels[i] = 0
	}
	pos := 0
	for {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		if run == eobMarker {
			return nil
		}
		if run > eobMarker {
			return fmt.Errorf("%w: invalid run %d", ErrBitstream, run)
		}
		pos += int(run)
		if pos >= len(levels) {
			return fmt.Errorf("%w: run overflows block", ErrBitstream)
		}
		v, err := r.ReadSE()
		if err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("%w: zero level", ErrBitstream)
		}
		levels[ZigZag[pos]] = v
		pos++
	}
}

// --- helpers ---

func loadBlock(p *Plane, bx, by int, blk *Block, bias float64) {
	if bx >= 0 && by >= 0 && bx+BlockSize <= p.W && by+BlockSize <= p.H {
		for y := 0; y < BlockSize; y++ {
			o := (by+y)*p.W + bx
			r := (*[BlockSize]uint8)(p.Pix[o : o+BlockSize])
			b := blk.row(y)
			for x := 0; x < BlockSize; x++ {
				b[x] = float64(r[x]) - bias
			}
		}
		return
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			blk[y*BlockSize+x] = float64(p.At(bx+x, by+y)) - bias
		}
	}
}

func storeBlock(p *Plane, bx, by int, blk *Block, bias float64) {
	if bx >= 0 && by >= 0 && bx+BlockSize <= p.W && by+BlockSize <= p.H {
		for y := 0; y < BlockSize; y++ {
			o := (by+y)*p.W + bx
			r := (*[BlockSize]uint8)(p.Pix[o : o+BlockSize])
			b := blk.row(y)
			for x := 0; x < BlockSize; x++ {
				r[x] = clampSample(b[x] + bias)
			}
		}
		return
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			p.Set(bx+x, by+y, clampSample(blk[y*BlockSize+x]+bias))
		}
	}
}

func clampSample(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
