package seqcache

import (
	"encoding/binary"
	"fmt"
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/dataset"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/sharedfs"
)

// The cache artifact format. The existing ".slam" sequence format is
// deliberately lossy — depth is quantised to millimetre uint16, poses
// round-trip through quaternions — which is fine for dataset exchange
// but fatal here: a cache hit must be *byte-identical* to a fresh
// render, or cached and uncached campaigns diverge in their last
// floating-point bits and the reports stop matching. So cache entries
// serialise raw: float32 depth bits, the full 3×3 rotation matrix and
// translation as float64 bits, nothing quantised, nothing derived.
//
// An artifact is this payload sealed in the sharedfs.Frame (magic
// "SQC1", version 1), which embeds the key and checksums everything.
// Payload layout (all little-endian):
//
//	u32 len(name) | name
//	u32 width | u32 height | f64 fx fy cx cy        (intrinsics)
//	u32 frame count
//	per frame:
//	  i64 index | f64 time | u8 flags (1 GT, 2 depth, 4 RGB)
//	  [flags&1] 9×f64 rotation (row major) | 3×f64 translation
//	  [flags&2] u32 dw | u32 dh | dw*dh × f32 depth
//	  [flags&4] u32 rw | u32 rh | 3*rw*rh × u8 RGB
//
// Decoding treats *every* defect as data damage — the caller maps that
// to a miss and re-renders, because re-rendering is always safe while
// trusting a damaged frame never is.

var frame = sharedfs.Frame{Magic: "SQC1", Version: 1}

const (
	flagGT    = 1
	flagDepth = 2
	flagRGB   = 4

	// Sanity caps applied before any allocation during decode, so a
	// corrupt length field costs an error, not an OOM.
	maxStringLen = 1 << 12
	maxFrames    = 1 << 21
	maxImageDim  = 1 << 15
)

// Encode serialises a rendered sequence as a cache artifact keyed by
// key. Encoding is a pure function of its inputs — every process
// rendering the same key produces identical bytes, which is what makes
// concurrent cache writers benign (last atomic rename wins, the winner
// indistinguishable from the loser).
func Encode(key string, seq *dataset.MemorySequence) []byte {
	e := &encoder{}
	e.str(seq.SeqName)
	e.u32(uint32(seq.Intr.Width))
	e.u32(uint32(seq.Intr.Height))
	e.f64(seq.Intr.Fx)
	e.f64(seq.Intr.Fy)
	e.f64(seq.Intr.Cx)
	e.f64(seq.Intr.Cy)
	e.u32(uint32(len(seq.Frames)))
	for _, f := range seq.Frames {
		e.i64(int64(f.Index))
		e.f64(f.Time)
		var flags uint8
		if f.HasGT {
			flags |= flagGT
		}
		if f.Depth != nil {
			flags |= flagDepth
		}
		if f.RGB != nil {
			flags |= flagRGB
		}
		e.u8(flags)
		if f.HasGT {
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					e.f64(f.GroundTruth.R.M[r][c])
				}
			}
			e.f64(f.GroundTruth.T.X)
			e.f64(f.GroundTruth.T.Y)
			e.f64(f.GroundTruth.T.Z)
		}
		if f.Depth != nil {
			e.u32(uint32(f.Depth.Width))
			e.u32(uint32(f.Depth.Height))
			e.f32s(f.Depth.Pix)
		}
		if f.RGB != nil {
			e.u32(uint32(f.RGB.Width))
			e.u32(uint32(f.RGB.Height))
			e.bytes(f.RGB.Pix)
		}
	}
	return frame.Seal(key, e.buf)
}

// Decode parses a cache artifact: the frame first, then every
// structural invariant of the payload. The returned key is the one the
// artifact was sealed under. Any error means the bytes cannot be
// trusted — the caller should treat the file as a miss, never as an I/O
// fault.
func Decode(data []byte) (key string, seq *dataset.MemorySequence, err error) {
	key, payload, err := frame.Open(data)
	if err != nil {
		return "", nil, err
	}
	if seq, err = decodeSequence(payload); err != nil {
		return "", nil, err
	}
	return key, seq, nil
}

// decodeSequence parses an SQC1 payload.
func decodeSequence(payload []byte) (*dataset.MemorySequence, error) {
	d := &decoder{data: payload}
	seq := &dataset.MemorySequence{SeqName: d.str()}
	seq.Intr = camera.Intrinsics{
		Width: int(d.u32()), Height: int(d.u32()),
		Fx: d.f64(), Fy: d.f64(), Cx: d.f64(), Cy: d.f64(),
	}
	n := d.u32()
	if n > maxFrames {
		return nil, fmt.Errorf("seqcache: implausible frame count %d", n)
	}
	if d.err == nil {
		seq.Frames = make([]*dataset.Frame, 0, n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		f := &dataset.Frame{Index: int(d.i64()), Time: d.f64()}
		flags := d.u8()
		if flags&flagGT != 0 {
			f.HasGT = true
			var se3 math3.SE3
			for r := 0; r < 3; r++ {
				for c := 0; c < 3; c++ {
					se3.R.M[r][c] = d.f64()
				}
			}
			se3.T.X, se3.T.Y, se3.T.Z = d.f64(), d.f64(), d.f64()
			f.GroundTruth = se3
		}
		if flags&flagDepth != 0 {
			w, h := d.u32(), d.u32()
			if w > maxImageDim || h > maxImageDim {
				return nil, fmt.Errorf("seqcache: implausible depth size %dx%d", w, h)
			}
			f.Depth = &imgproc.DepthMap{Width: int(w), Height: int(h), Pix: d.f32s(int(w) * int(h))}
		}
		if flags&flagRGB != 0 {
			w, h := d.u32(), d.u32()
			if w > maxImageDim || h > maxImageDim {
				return nil, fmt.Errorf("seqcache: implausible rgb size %dx%d", w, h)
			}
			pix := d.take(3 * int(w) * int(h))
			f.RGB = &imgproc.RGB{Width: int(w), Height: int(h), Pix: append([]uint8(nil), pix...)}
		}
		seq.Frames = append(seq.Frames, f)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("seqcache: %d trailing bytes after last frame", len(d.data)-d.off)
	}
	return seq, nil
}

// encoder appends little-endian primitives to a growing buffer.
type encoder struct{ buf []byte }

func (e *encoder) bytes(b []byte) { e.buf = append(e.buf, b...) }
func (e *encoder) u8(v uint8)     { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)   { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i64(v int64)    { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}
func (e *encoder) f32s(v []float32) {
	for _, x := range v {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(x))
	}
}
func (e *encoder) str(s string) {
	if len(s) > maxStringLen {
		s = s[:maxStringLen] // never produce an artifact Decode rejects
	}
	e.u32(uint32(len(s)))
	e.bytes([]byte(s))
}

// decoder reads little-endian primitives with a sticky error; after the
// first bounds violation every read returns zero values, so the decode
// loop needs no per-field error plumbing.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) {
		d.err = fmt.Errorf("seqcache: artifact truncated at offset %d", d.off)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) i64() int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (d *decoder) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *decoder) f32s(n int) []float32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (d *decoder) str() string {
	n := d.u32()
	if n > maxStringLen {
		d.err = fmt.Errorf("seqcache: implausible string length %d", n)
		return ""
	}
	return string(d.take(int(n)))
}
