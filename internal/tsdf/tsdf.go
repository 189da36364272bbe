// Package tsdf implements the dense truncated signed-distance-function
// volume at the heart of KinectFusion: depth-image integration, trilinear
// sampling, surface ray-casting and mesh extraction.
//
// The volume is a cube of Res³ voxels spanning Size metres, positioned by
// Origin (the world coordinate of the corner of voxel (0,0,0)). Each voxel
// stores a TSDF value normalised to [-1, 1] (distance divided by the
// truncation band mu) and an integration weight.
package tsdf

import (
	"fmt"
	"math"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
	"slamgo/internal/parallel"
)

// Volume is the dense TSDF grid.
type Volume struct {
	Res    int        // voxels per side
	Size   float64    // metres per side
	Origin math3.Vec3 // world position of the min corner

	// D holds normalised TSDF values in [-1,1]; W holds weights. Both are
	// indexed [z*Res*Res + y*Res + x].
	D []float32
	W []float32
}

// New allocates a volume of res³ voxels spanning size metres with its min
// corner at origin. All voxels start at TSDF=1 (free/unknown) with zero
// weight.
func New(res int, size float64, origin math3.Vec3) *Volume {
	if res < 2 {
		panic(fmt.Sprintf("tsdf: resolution %d too small", res))
	}
	n := res * res * res
	v := &Volume{
		Res: res, Size: size, Origin: origin,
		D: make([]float32, n),
		W: make([]float32, n),
	}
	for i := range v.D {
		v.D[i] = 1
	}
	return v
}

// VoxelSize returns the edge length of one voxel in metres.
func (v *Volume) VoxelSize() float64 { return v.Size / float64(v.Res) }

// Reset returns every voxel to the unobserved state.
func (v *Volume) Reset() {
	for i := range v.D {
		v.D[i] = 1
		v.W[i] = 0
	}
}

// index returns the linear index for voxel (x,y,z); callers guarantee
// bounds.
func (v *Volume) index(x, y, z int) int { return (z*v.Res+y)*v.Res + x }

// At returns the stored TSDF value and weight at voxel coordinates.
func (v *Volume) At(x, y, z int) (d, w float32) {
	i := v.index(x, y, z)
	return v.D[i], v.W[i]
}

// setAt stores a TSDF/weight pair (test helper and integration inner
// loop).
func (v *Volume) setAt(x, y, z int, d, w float32) {
	i := v.index(x, y, z)
	v.D[i] = d
	v.W[i] = w
}

// VoxelCenter returns the world coordinate of the centre of voxel (x,y,z).
func (v *Volume) VoxelCenter(x, y, z int) math3.Vec3 {
	s := v.VoxelSize()
	return v.Origin.Add(math3.V3(
		(float64(x)+0.5)*s,
		(float64(y)+0.5)*s,
		(float64(z)+0.5)*s,
	))
}

// Contains reports whether world point p falls inside the volume cube.
func (v *Volume) Contains(p math3.Vec3) bool {
	q := p.Sub(v.Origin)
	return q.X >= 0 && q.Y >= 0 && q.Z >= 0 &&
		q.X < v.Size && q.Y < v.Size && q.Z < v.Size
}

// Interp samples the TSDF at world point p by trilinear interpolation.
// ok is false when p lies outside the interpolable interior or touches
// unobserved voxels (weight 0).
func (v *Volume) Interp(p math3.Vec3) (val float64, ok bool) {
	s := v.VoxelSize()
	g := p.Sub(v.Origin).Scale(1 / s).Sub(math3.Splat3(0.5))
	x0 := int(math.Floor(g.X))
	y0 := int(math.Floor(g.Y))
	z0 := int(math.Floor(g.Z))
	if x0 < 0 || y0 < 0 || z0 < 0 || x0+1 >= v.Res || y0+1 >= v.Res || z0+1 >= v.Res {
		return 0, false
	}
	fx := g.X - float64(x0)
	fy := g.Y - float64(y0)
	fz := g.Z - float64(z0)

	var acc float64
	for dz := 0; dz < 2; dz++ {
		wz := fz
		if dz == 0 {
			wz = 1 - fz
		}
		for dy := 0; dy < 2; dy++ {
			wy := fy
			if dy == 0 {
				wy = 1 - fy
			}
			for dx := 0; dx < 2; dx++ {
				wx := fx
				if dx == 0 {
					wx = 1 - fx
				}
				i := v.index(x0+dx, y0+dy, z0+dz)
				if v.W[i] <= 0 {
					return 0, false
				}
				acc += float64(v.D[i]) * wx * wy * wz
			}
		}
	}
	return acc, true
}

// SampleRelaxed samples the TSDF at p tolerating partially observed
// neighbourhoods: observed corners are combined with renormalised
// trilinear weights. This is what the ray-caster uses — with a narrow
// truncation band (mu on the order of the voxel size) the fully-observed
// shell around the surface can be thinner than one voxel, and the strict
// Interp would make the surface invisible. ok is false when the observed
// corner weight mass is too small to trust.
//
// The eight corners are unrolled in (dz, dy, dx) order with each weight
// formed as wx*wy*wz, the order of Interp's loop, so the sums round the
// same way; the four corner pairs are read as two-element sub-slices of
// one base index, which leaves no bounds checks on the corner reads.
func (v *Volume) SampleRelaxed(p math3.Vec3) (val float64, ok bool) {
	s := v.VoxelSize()
	g := p.Sub(v.Origin).Scale(1 / s).Sub(math3.Splat3(0.5))
	x0 := int(math.Floor(g.X))
	y0 := int(math.Floor(g.Y))
	z0 := int(math.Floor(g.Z))
	if x0 < 0 || y0 < 0 || z0 < 0 || x0+1 >= v.Res || y0+1 >= v.Res || z0+1 >= v.Res {
		return 0, false
	}
	fx := g.X - float64(x0)
	fy := g.Y - float64(y0)
	fz := g.Z - float64(z0)
	ax, ay, az := 1-fx, 1-fy, 1-fz

	// Corner pairs along x at (y0, z0), (y0+1, z0), (y0, z0+1), (y0+1, z0+1).
	r := v.Res
	i00 := (z0*r+y0)*r + x0
	i01 := i00 + r
	i10 := i00 + r*r
	i11 := i10 + r
	d00, w00 := v.D[i00:i00+2], v.W[i00:i00+2]
	d01, w01 := v.D[i01:i01+2], v.W[i01:i01+2]
	d10, w10 := v.D[i10:i10+2], v.W[i10:i10+2]
	d11, w11 := v.D[i11:i11+2], v.W[i11:i11+2]

	var acc, wsum float64
	if w00[0] > 0 {
		w := ax * ay * az
		acc += float64(d00[0]) * w
		wsum += w
	}
	if w00[1] > 0 {
		w := fx * ay * az
		acc += float64(d00[1]) * w
		wsum += w
	}
	if w01[0] > 0 {
		w := ax * fy * az
		acc += float64(d01[0]) * w
		wsum += w
	}
	if w01[1] > 0 {
		w := fx * fy * az
		acc += float64(d01[1]) * w
		wsum += w
	}
	if w10[0] > 0 {
		w := ax * ay * fz
		acc += float64(d10[0]) * w
		wsum += w
	}
	if w10[1] > 0 {
		w := fx * ay * fz
		acc += float64(d10[1]) * w
		wsum += w
	}
	if w11[0] > 0 {
		w := ax * fy * fz
		acc += float64(d11[0]) * w
		wsum += w
	}
	if w11[1] > 0 {
		w := fx * fy * fz
		acc += float64(d11[1]) * w
		wsum += w
	}
	if wsum < 0.25 {
		return 0, false
	}
	return acc / wsum, true
}

// Gradient estimates the TSDF spatial gradient at p via central
// differences of trilinear samples; used for surface normals.
func (v *Volume) Gradient(p math3.Vec3) (math3.Vec3, bool) {
	h := v.VoxelSize()
	xp, ok1 := v.SampleRelaxed(p.Add(math3.V3(h, 0, 0)))
	xm, ok2 := v.SampleRelaxed(p.Sub(math3.V3(h, 0, 0)))
	yp, ok3 := v.SampleRelaxed(p.Add(math3.V3(0, h, 0)))
	ym, ok4 := v.SampleRelaxed(p.Sub(math3.V3(0, h, 0)))
	zp, ok5 := v.SampleRelaxed(p.Add(math3.V3(0, 0, h)))
	zm, ok6 := v.SampleRelaxed(p.Sub(math3.V3(0, 0, h)))
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return math3.Vec3{}, false
	}
	g := math3.V3(xp-xm, yp-ym, zp-zm)
	if g.Norm() < 1e-12 {
		return math3.Vec3{}, false
	}
	return g.Normalized(), true
}

// Integrate fuses one depth image into the volume.
//
// pose is camera-to-world; mu is the truncation band in metres; maxWeight
// caps the running average so the map can adapt to drift.
//
// Each x-row of voxels is clipped to the span whose voxels can pass the
// per-voxel tests (see rowClip), and the exact tests run only inside it.
// The row walk keeps its sequential camera-frame accumulation, so D and W
// are bit-identical to visiting every voxel.
//
// The returned cost is the paper's modelled kernel cost, which the device
// model turns into reported runtime: every voxel projected every frame,
// which is what makes volume resolution the paper's dominant performance
// parameter. It does not count the voxels actually visited, so a frame
// with no valid depth or an empty frustum costs the same as any other.
func (v *Volume) Integrate(depth *imgproc.DepthMap, pose math3.SE3, in camera.Intrinsics, mu float64, maxWeight float32) imgproc.Cost {
	n := int64(v.Res) * int64(v.Res) * int64(v.Res)
	cost := imgproc.Cost{Ops: n * 14, Bytes: n * 10}
	if mu <= 0 {
		mu = v.VoxelSize() * 4
	}
	zmax, fusable := farthestDepth(depth)
	if !fusable {
		return cost
	}
	worldToCam := pose.Inverse()
	s := v.VoxelSize()
	// The camera-frame point advances by a constant delta per x step,
	// saving a full transform per voxel.
	dx := worldToCam.R.Col(0).Scale(s)
	clip := rowClip{in: in, dx: dx, zfar: zmax + mu, res: v.Res}

	parallel.For(v.Res, 0, func(zlo, zhi int) {
		for z := zlo; z < zhi; z++ {
			for y := 0; y < v.Res; y++ {
				base := v.Origin.Add(math3.V3(0.5*s, (float64(y)+0.5)*s, (float64(z)+0.5)*s))
				pc := worldToCam.Apply(base)
				xlo, xhi := clip.span(pc)
				if xlo > xhi {
					continue
				}
				// Skipped voxels still take their steps, so pc reaches
				// xlo with the bits the full walk would give it.
				for x := 1; x <= xlo; x++ {
					pc = pc.Add(dx)
				}
				for x := xlo; x <= xhi; x++ {
					if x > xlo {
						pc = pc.Add(dx)
					}
					if pc.Z <= 1e-6 {
						continue
					}
					u := in.Fx*pc.X/pc.Z + in.Cx
					vv := in.Fy*pc.Y/pc.Z + in.Cy
					ui := int(u + 0.5)
					vi := int(vv + 0.5)
					if ui < 0 || vi < 0 || ui >= in.Width || vi >= in.Height {
						continue
					}
					zm := depth.At(ui, vi)
					if zm <= 0 {
						continue
					}
					// Signed distance along the ray, projected on Z.
					sdfVal := float64(zm) - pc.Z
					if sdfVal < -mu {
						continue // behind the surface: occluded, skip
					}
					t := math3.Clamp(sdfVal/mu, -1, 1)
					i := (z*v.Res+y)*v.Res + x
					wOld := v.W[i]
					wNew := wOld + 1
					v.D[i] = float32((float64(v.D[i])*float64(wOld) + t) / float64(wNew))
					if wNew > maxWeight {
						wNew = maxWeight
					}
					v.W[i] = wNew
				}
			}
		}
	})
	return cost
}

// farthestDepth returns the largest depth in d and whether d holds any
// depth Integrate would fuse. Integrate rejects only depths ≤ 0, so a NaN
// counts as fusable and lifts the bound to +Inf.
func farthestDepth(d *imgproc.DepthMap) (zmax float64, fusable bool) {
	var m float32
	for _, z := range d.Pix {
		if z > m {
			m = z
		} else if z != z {
			return math.Inf(1), true
		}
	}
	return float64(m), m > 0
}

// rowClip bounds the voxels of one x-row that can pass Integrate's
// per-voxel tests. Along a row the camera-frame centre is p0 + x·dx, so
// each test is a half-line in x:
//
//   - in front of the camera: Z > 1e-6;
//   - projects into the image, as int(u+0.5) and int(v+0.5) define it:
//     −1.5 < u < Width−0.5 and likewise for v. For Z > 0, u > u0 holds
//     exactly when Fx·X + (Cx−u0)·Z > 0, which is linear in the point;
//   - no farther than the deepest measurement plus mu (zfar): beyond it
//     sdfVal < −mu for every pixel.
//
// Each half-line is loosened by a bound on the rounding of the sequential
// walk, of the perspective divide and of its own coefficients, which also
// keeps rows whose x coefficient is near zero whole or empty as the exact
// tests would. The intersection is widened by one voxel on each side, so
// every voxel outside the span fails an exact test.
type rowClip struct {
	in   camera.Intrinsics
	dx   math3.Vec3
	zfar float64
	res  int
}

// span returns the inclusive voxel range [xlo, xhi] of the row starting
// at camera-frame point p0; xlo > xhi when no voxel can pass.
func (c rowClip) span(p0 math3.Vec3) (xlo, xhi int) {
	in, d := c.in, c.dx
	// reach bounds every coordinate the walk visits. e·reach bounds, per
	// unit of coefficient, the rounding of res sequential additions and
	// of the few operations behind each test, many times over; e·|k|
	// bounds the rounding of a constant term k.
	reach := max(math.Abs(p0.X), math.Abs(p0.Y), math.Abs(p0.Z)) +
		float64(c.res)*max(math.Abs(d.X), math.Abs(d.Y), math.Abs(d.Z))
	e := 4 * float64(c.res+16) * 0x1p-52
	tol := e * reach
	ku := math.Abs(in.Fx) + math.Abs(in.Cx) + float64(in.Width) + 2
	kv := math.Abs(in.Fy) + math.Abs(in.Cy) + float64(in.Height) + 2

	h := interval{lo: 0, hi: float64(c.res - 1)}
	h.keep(p0.Z-1e-6, d.Z, tol+e*1e-6)
	uLo, uHi := in.Cx+1.5, float64(in.Width)-0.5-in.Cx
	h.keep(in.Fx*p0.X+uLo*p0.Z, in.Fx*d.X+uLo*d.Z, tol*ku)
	h.keep(uHi*p0.Z-in.Fx*p0.X, uHi*d.Z-in.Fx*d.X, tol*ku)
	vLo, vHi := in.Cy+1.5, float64(in.Height)-0.5-in.Cy
	h.keep(in.Fy*p0.Y+vLo*p0.Z, in.Fy*d.Y+vLo*d.Z, tol*kv)
	h.keep(vHi*p0.Z-in.Fy*p0.Y, vHi*d.Z-in.Fy*d.Y, tol*kv)
	h.keep(c.zfar-p0.Z, -d.Z, tol+e*math.Abs(c.zfar))

	lo := min(h.lo, float64(c.res))
	hi := max(h.hi, -1)
	return max(int(math.Ceil(lo))-1, 0), min(int(math.Floor(hi))+1, c.res-1)
}

// interval is a range of real x narrowed by half-line constraints.
type interval struct{ lo, hi float64 }

// keep narrows the interval to the x where a + b·x > −tol. A NaN bound
// (from a non-finite pose or depth) leaves the interval as it is.
func (h *interval) keep(a, b, tol float64) {
	switch {
	case b > 0:
		if x := (-tol - a) / b; x > h.lo {
			h.lo = x
		}
	case b < 0:
		if x := (-tol - a) / b; x < h.hi {
			h.hi = x
		}
	case a <= -tol:
		h.lo = math.Inf(1)
	}
}
