package tsdf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slamgo/internal/camera"
	"slamgo/internal/imgproc"
	"slamgo/internal/math3"
)

// referenceIntegrate is Integrate without row clipping: every voxel of
// every row is projected and tested. It is the golden model the clipped
// kernel must match bit for bit.
func referenceIntegrate(v *Volume, depth *imgproc.DepthMap, pose math3.SE3, in camera.Intrinsics, mu float64, maxWeight float32) imgproc.Cost {
	if mu <= 0 {
		mu = v.VoxelSize() * 4
	}
	worldToCam := pose.Inverse()
	s := v.VoxelSize()
	for z := 0; z < v.Res; z++ {
		for y := 0; y < v.Res; y++ {
			base := v.Origin.Add(math3.V3(0.5*s, (float64(y)+0.5)*s, (float64(z)+0.5)*s))
			pc := worldToCam.Apply(base)
			dx := worldToCam.R.Col(0).Scale(s)
			for x := 0; x < v.Res; x++ {
				if x > 0 {
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
				sdfVal := float64(zm) - pc.Z
				if sdfVal < -mu {
					continue
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
	n := int64(v.Res) * int64(v.Res) * int64(v.Res)
	return imgproc.Cost{Ops: n * 14, Bytes: n * 10}
}

// referenceSampleRelaxed is SampleRelaxed as a loop over the eight
// corners.
func referenceSampleRelaxed(v *Volume, p math3.Vec3) (float64, bool) {
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
	var acc, wsum float64
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
					continue
				}
				w := wx * wy * wz
				acc += float64(v.D[i]) * w
				wsum += w
			}
		}
	}
	if wsum < 0.25 {
		return 0, false
	}
	return acc / wsum, true
}

// referenceGradient is Gradient over referenceSampleRelaxed.
func referenceGradient(v *Volume, p math3.Vec3) (math3.Vec3, bool) {
	h := v.VoxelSize()
	xp, ok1 := referenceSampleRelaxed(v, p.Add(math3.V3(h, 0, 0)))
	xm, ok2 := referenceSampleRelaxed(v, p.Sub(math3.V3(h, 0, 0)))
	yp, ok3 := referenceSampleRelaxed(v, p.Add(math3.V3(0, h, 0)))
	ym, ok4 := referenceSampleRelaxed(v, p.Sub(math3.V3(0, h, 0)))
	zp, ok5 := referenceSampleRelaxed(v, p.Add(math3.V3(0, 0, h)))
	zm, ok6 := referenceSampleRelaxed(v, p.Sub(math3.V3(0, 0, h)))
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return math3.Vec3{}, false
	}
	g := math3.V3(xp-xm, yp-ym, zp-zm)
	if g.Norm() < 1e-12 {
		return math3.Vec3{}, false
	}
	return g.Normalized(), true
}

// lookAt returns the camera-to-world pose of a camera at eye whose
// optical axis (+Z) points at target.
func lookAt(eye, target math3.Vec3) math3.SE3 {
	z := target.Sub(eye).Normalized()
	hint := math3.V3(0, 1, 0)
	if math.Abs(z.Y) > 0.9 {
		hint = math3.V3(1, 0, 0)
	}
	x := hint.Cross(z).Normalized()
	return math3.SE3{R: math3.Mat3FromCols(x, z.Cross(x), z), T: eye}
}

// axisRotation returns a rotation whose entries are exactly 0 or ±1, so
// one or two components of the row step dx are exactly zero.
func axisRotation(rng *rand.Rand) math3.Mat3 {
	axes := []math3.Vec3{math3.V3(1, 0, 0), math3.V3(0, 1, 0), math3.V3(0, 0, 1)}
	i := rng.Intn(3)
	j := (i + 1 + rng.Intn(2)) % 3
	z, x := axes[i], axes[j]
	if rng.Intn(2) == 0 {
		z = z.Neg()
	}
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	return math3.Mat3FromCols(x, z.Cross(x), z)
}

func randomUnit(rng *rand.Rand) math3.Vec3 {
	for {
		p := math3.V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
		if n := p.Norm(); n > 0.1 && n <= 1 {
			return p.Scale(1 / n)
		}
	}
}

// randomPose draws a camera pose of the given kind relative to a volume
// centred at c with half-extent r.
func randomPose(rng *rand.Rand, kind string, c math3.Vec3, r float64) math3.SE3 {
	inside := c.Add(math3.V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1).Scale(0.9 * r))
	outside := c.Add(randomUnit(rng).Scale(r * (1.8 + 2*rng.Float64())))
	jitter := randomUnit(rng).Scale(0.3 * r)
	switch kind {
	case "inside":
		q := math3.QuatFromAxisAngle(randomUnit(rng), rng.Float64()*2*math.Pi)
		return math3.SE3From(q, inside)
	case "outside":
		return lookAt(outside, c.Add(jitter))
	case "facing-away":
		return lookAt(outside, outside.Add(outside.Sub(c)).Add(jitter))
	case "axis-aligned":
		t := inside
		if rng.Intn(2) == 0 {
			t = outside
		}
		return math3.SE3{R: axisRotation(rng), T: t}
	case "near-axis":
		tilt := math3.QuatFromAxisAngle(randomUnit(rng), 1e-9*rng.Float64()).Mat3()
		t := inside
		if rng.Intn(2) == 0 {
			t = outside
		}
		return math3.SE3{R: axisRotation(rng).Mul(tilt), T: t}
	}
	panic("unknown pose kind " + kind)
}

// randomFrame draws a depth map of the given kind: a noisy surface at
// random depth with holes, a flat wall (which makes the far bound tight),
// a sparse scatter of far and near readings, shallow readings with a few
// NaNs (which Integrate fuses, so they lift the far bound), or no valid
// depth at all.
func randomFrame(rng *rand.Rand, kind string, in camera.Intrinsics, far float64) *imgproc.DepthMap {
	d := imgproc.NewDepthMap(in.Width, in.Height)
	switch kind {
	case "holes":
		base := 0.2 + rng.Float64()*far
		hx, hy := rng.Intn(in.Width), rng.Intn(in.Height)
		for y := 0; y < in.Height; y++ {
			for x := 0; x < in.Width; x++ {
				if rng.Float64() < 0.1 || (x > hx && x < hx+in.Width/4 && y > hy && y < hy+in.Height/4) {
					continue
				}
				d.Set(x, y, float32(base+0.3*far*rng.Float64()*float64(x)/float64(in.Width)))
			}
		}
	case "wall":
		z := float32(0.2 + rng.Float64()*far)
		for i := range d.Pix {
			if rng.Float64() >= 0.05 {
				d.Pix[i] = z
			}
		}
	case "sparse":
		for k := 0; k < 1+rng.Intn(20); k++ {
			d.Set(rng.Intn(in.Width), rng.Intn(in.Height), float32(0.05+rng.Float64()*2*far))
		}
	case "nan":
		for i := range d.Pix {
			d.Pix[i] = float32(0.2 + rng.Float64()*far/3)
		}
		for k := 0; k < 3; k++ {
			d.Pix[rng.Intn(len(d.Pix))] = float32(math.NaN())
		}
	case "zero":
	default:
		panic("unknown frame kind " + kind)
	}
	return d
}

// TestIntegrateClippedMatchesReference fuses several frames per volume
// through the clipped kernel and the unclipped reference and demands
// bit-identical D, W and Cost, over resolutions that are not powers of
// two, random truncation bands and weight caps, cameras inside, outside
// and facing away from the volume or axis-aligned (exactly or within
// 1e-9 rad, so row steps have zero or near-zero components), and depth
// maps with holes, flat walls, sparse readings, NaN readings or no
// valid depth.
func TestIntegrateClippedMatchesReference(t *testing.T) {
	poses := []string{"inside", "outside", "facing-away", "axis-aligned", "near-axis"}
	frames := []string{"holes", "wall", "sparse", "nan", "zero"}
	rng := rand.New(rand.NewSource(15))
	for _, res := range []int{7, 16, 23, 37, 64} {
		for _, kind := range poses {
			for rep := 0; rep < 2; rep++ {
				size := 1 + 3*rng.Float64()
				origin := math3.V3(rng.Float64()*2-1, rng.Float64()*2-1, rng.Float64()*2-1)
				c := origin.Add(math3.Splat3(size / 2))
				in := camera.Kinect640().ScaledTo(24+rng.Intn(60), 18+rng.Intn(45))
				in.Cx += rng.Float64()*4 - 2
				in.Cy += rng.Float64()*4 - 2
				got, want := New(res, size, origin), New(res, size, origin)
				mu := size / float64(res) * (0.5 + 5*rng.Float64())
				if rep == 1 {
					mu = 0 // Integrate's default band
				}
				maxWeight := float32(1 + rng.Intn(6))
				name := fmt.Sprintf("res%d/%s/%d", res, kind, rep)
				for f := 0; f < 2*len(frames); f++ {
					pose := randomPose(rng, kind, c, size/2)
					depth := randomFrame(rng, frames[f%len(frames)], in, 3*size)
					gc := got.Integrate(depth, pose, in, mu, maxWeight)
					wc := referenceIntegrate(want, depth, pose, in, mu, maxWeight)
					if gc != wc {
						t.Fatalf("%s frame %d: cost %+v, reference %+v", name, f, gc, wc)
					}
					if mismatch := diffVolumes(got, want); mismatch != "" {
						t.Fatalf("%s frame %d (%s depth): %s", name, f, frames[f%len(frames)], mismatch)
					}
				}
			}
		}
	}
}

// diffVolumes reports the first voxel whose D or W bits differ, and how
// many differ in total.
func diffVolumes(got, want *Volume) string {
	bad, first := 0, -1
	for i := range want.D {
		if math.Float32bits(got.D[i]) != math.Float32bits(want.D[i]) ||
			math.Float32bits(got.W[i]) != math.Float32bits(want.W[i]) {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad == 0 {
		return ""
	}
	r := want.Res
	return fmt.Sprintf("%d voxels differ; first (x=%d y=%d z=%d): D,W = %v,%v, reference %v,%v",
		bad, first%r, first/r%r, first/(r*r), got.D[first], got.W[first], want.D[first], want.W[first])
}

// TestIntegrateCostIsFullVolume pins Integrate's cost contract: the
// modelled full-volume kernel cost, whatever the frame contributes.
func TestIntegrateCostIsFullVolume(t *testing.T) {
	in := testCam()
	for _, res := range []int{16, 23} {
		n := int64(res) * int64(res) * int64(res)
		want := imgproc.Cost{Ops: n * 14, Bytes: n * 10}
		cases := []struct {
			name  string
			depth *imgproc.DepthMap
			pose  math3.SE3
		}{
			{"no valid depth", imgproc.NewDepthMap(in.Width, in.Height), math3.SE3Identity()},
			{"empty frustum", flatWall(in, 1.5), lookAt(math3.V3(0, 0, -3), math3.V3(0, 0, -6))},
			{"wall", flatWall(in, 1.5), math3.SE3Identity()},
		}
		for _, c := range cases {
			v := testVolume(res)
			if got := v.Integrate(c.depth, c.pose, in, 0.2, 100); got != want {
				t.Fatalf("res %d, %s: cost %+v, want %+v", res, c.name, got, want)
			}
			touched := false
			for i := range v.W {
				touched = touched || v.W[i] != 0
			}
			if touched != (c.name == "wall") {
				t.Fatalf("res %d, %s: volume touched = %v", res, c.name, touched)
			}
		}
	}
}

// samplePoints draws n points around v: uniform in the interior, in the
// last interpolable cell along a random subset of axes (x0+1 == Res-1),
// on exact voxel-centre planes (a zero fraction), and outside the volume.
func samplePoints(rng *rand.Rand, v *Volume, n int) []math3.Vec3 {
	s := v.VoxelSize()
	r := float64(v.Res)
	pts := make([]math3.Vec3, n)
	for k := range pts {
		var g [3]float64
		for a := range g {
			switch k % 4 {
			case 0:
				g[a] = 0.5 + rng.Float64()*(r-1)
			case 1:
				if rng.Intn(2) == 0 {
					g[a] = r - 1.5 + rng.Float64()
				} else {
					g[a] = 0.5 + rng.Float64()*(r-1)
				}
			case 2:
				g[a] = 0.5 + float64(rng.Intn(v.Res))
			case 3:
				g[a] = -0.5*r + rng.Float64()*2*r
			}
		}
		pts[k] = v.Origin.Add(math3.V3(g[0], g[1], g[2]).Scale(s))
	}
	return pts
}

// TestSampleRelaxedMatchesReference demands bit-identical samples and
// gradients from the unrolled sampler and the loop it replaced, over
// volumes with random TSDF values and randomly unobserved (W == 0)
// voxels, so every subset of observed corners occurs.
func TestSampleRelaxedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, res := range []int{5, 19, 32} {
		v := New(res, 0.5+rng.Float64()*3, math3.V3(rng.Float64()-0.5, rng.Float64()-0.5, rng.Float64()))
		unobserved := 0.1 + 0.5*rng.Float64()
		for i := range v.D {
			v.D[i] = float32(rng.Float64()*2 - 1)
			if rng.Float64() >= unobserved {
				v.W[i] = float32(1 + rng.Intn(100))
			}
		}
		oks := 0
		for k, p := range samplePoints(rng, v, 1_000_000) {
			got, gok := v.SampleRelaxed(p)
			want, wok := referenceSampleRelaxed(v, p)
			if gok != wok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("res %d point %d %v: sample %v,%v, reference %v,%v", res, k, p, got, gok, want, wok)
			}
			if gok {
				oks++
			}
			if k%8 != 0 {
				continue
			}
			gg, ggok := v.Gradient(p)
			wg, wgok := referenceGradient(v, p)
			if ggok != wgok || gg != wg {
				t.Fatalf("res %d point %d %v: gradient %v,%v, reference %v,%v", res, k, p, gg, ggok, wg, wgok)
			}
		}
		if oks < 100_000 {
			t.Fatalf("res %d: only %d samples succeeded; the test covers too little", res, oks)
		}
	}
}
