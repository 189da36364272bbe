package kfusion

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"slamgo/internal/dataset"
	"slamgo/internal/imgproc"
)

// TestPipelineDeterministicWithPooledBuffers runs the same sequence
// through two pipelines and demands bit-identical trajectories: the
// recycled buffers must behave exactly like fresh allocations, and the
// chunk-ordered kernel reductions must not depend on scheduling.
func TestPipelineDeterministicWithPooledBuffers(t *testing.T) {
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 8, FPS: 30, Noisy: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VolumeResolution = 64
	cfg.ComputeSizeRatio = 2

	run := func() []FrameResult {
		f0, _ := seq.Frame(0)
		p, err := New(cfg, seq.Intrinsics(), f0.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		var out []FrameResult
		for i := 0; i < seq.Len(); i++ {
			f, _ := seq.Frame(i)
			r, err := p.ProcessFrame(f.Depth)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, *r)
		}
		return out
	}

	a, b := run(), run()
	for i := range a {
		if a[i].Pose != b[i].Pose {
			t.Fatalf("frame %d: pose diverges between identical runs", i)
		}
		if a[i].Tracked != b[i].Tracked || a[i].Integrated != b[i].Integrated {
			t.Fatalf("frame %d: control flow diverges between identical runs", i)
		}
		if a[i].KernelCosts != b[i].KernelCosts {
			t.Fatalf("frame %d: kernel costs diverge between identical runs", i)
		}
	}
}

// TestPipelineBitIdenticalAcrossWorkerCounts runs the same sequence with
// every kernel's parallel region limited to one worker and to four, and
// demands bit-identical frame results, ray-cast reference maps and
// volumes: the clipped integration and the ray-caster split their work in
// fixed chunks, so scheduling must never reach the output.
func TestPipelineBitIdenticalAcrossWorkerCounts(t *testing.T) {
	seq, err := dataset.LivingRoomKT(0, dataset.PresetOptions{
		Width: 160, Height: 120, Frames: 8, FPS: 30, Noisy: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.VolumeResolution = 96
	cfg.ComputeSizeRatio = 2

	type trace struct {
		results []FrameResult
		refs    []uint64
		volume  uint64
	}
	run := func(workers int) trace {
		// The kernels size their parallel regions by GOMAXPROCS.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		f0, _ := seq.Frame(0)
		p, err := New(cfg, seq.Intrinsics(), f0.GroundTruth)
		if err != nil {
			t.Fatal(err)
		}
		var tr trace
		for i := 0; i < seq.Len(); i++ {
			f, _ := seq.Frame(i)
			r, err := p.ProcessFrame(f.Depth)
			if err != nil {
				t.Fatal(err)
			}
			res := *r
			res.KernelTimes = [4]time.Duration{}
			tr.results = append(tr.results, res)
			if ref, ok := p.Reference(); ok {
				tr.refs = append(tr.refs, mapBits(ref.Vertices), mapBits(ref.Normals))
			}
		}
		v := p.Volume()
		h := fnv.New64a()
		for i := range v.D {
			writeBits(h, uint64(math.Float32bits(v.D[i]))<<32|uint64(math.Float32bits(v.W[i])))
		}
		tr.volume = h.Sum64()
		return tr
	}

	one, four := run(1), run(4)
	for i := range one.results {
		if one.results[i] != four.results[i] {
			t.Fatalf("frame %d: result with 1 worker %+v, with 4 %+v", i, one.results[i], four.results[i])
		}
	}
	if len(one.refs) == 0 || len(one.refs) != len(four.refs) {
		t.Fatalf("reference maps: %d with 1 worker, %d with 4", len(one.refs), len(four.refs))
	}
	for i := range one.refs {
		if one.refs[i] != four.refs[i] {
			t.Fatalf("reference map %d differs between 1 and 4 workers", i)
		}
	}
	if one.volume != four.volume {
		t.Fatal("volume D/W bits differ between 1 and 4 workers")
	}
}

// mapBits fingerprints a vertex or normal map: its mask and the bits of
// every valid point.
func mapBits(m *imgproc.VertexMap) uint64 {
	h := fnv.New64a()
	for i, ok := range m.Mask {
		if !ok {
			writeBits(h, 0)
			continue
		}
		p := m.Points[i]
		writeBits(h, 1)
		writeBits(h, math.Float64bits(p.X))
		writeBits(h, math.Float64bits(p.Y))
		writeBits(h, math.Float64bits(p.Z))
	}
	return h.Sum64()
}

func writeBits(h hash.Hash64, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	h.Write(b[:])
}
