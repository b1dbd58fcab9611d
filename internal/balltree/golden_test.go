package balltree

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"hdidx/internal/dataset"
	"hdidx/internal/query"
)

func putInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func putFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// digestTree writes every node of t, walked depth-first from Root:
// level, center, radius, the rectangle in an SR-tree, and the leaf
// rows in page order.
func digestTree(h hash.Hash, t *Tree) {
	var walk func(n *Node)
	walk = func(n *Node) {
		putInt(h, n.Level)
		putFloats(h, n.Center...)
		putFloats(h, n.Radius)
		if t.kind == SR {
			putFloats(h, n.Rect.Lo...)
			putFloats(h, n.Rect.Hi...)
		}
		putInt(h, len(n.Points))
		for _, p := range n.Points {
			putFloats(h, p...)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// TestGolden pins the three structures bit for bit: the trees built
// from a fixed dataset (a full build and a forced-height mini build of
// each, and an M-tree under L1), the predictions of each at a scaled
// and a full sample with and without compensation, and the measured
// accesses on each geometry's full tree. The digests were taken from
// the three separate SS-, SR- and M-tree packages this one replaced.
func TestGolden(t *testing.T) {
	data := dataset.Spec{Name: "g", N: 4000, Dim: 8, Clusters: 12, VarianceDecay: 0.9, ClusterStd: 0.1}.
		Generate(rand.New(rand.NewSource(20))).Points
	full := BuildParams{LeafCap: 32, DirCap: 10}
	forced := BuildParams{LeafCap: 7.5, DirCap: 10, Height: 4}
	got := map[string]string{}
	sum := func(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)) }

	h := sha256.New()
	digestTree(h, Build(SS, data, full, 0))
	digestTree(h, Build(SS, data[:1000], forced, 0))
	got["SS"] = sum(h)

	h = sha256.New()
	digestTree(h, Build(SR, data, full, 0))
	digestTree(h, Build(SR, data[:1000], forced, 0))
	got["SR"] = sum(h)

	h = sha256.New()
	digestTree(h, Build(M, data, full, 7))
	digestTree(h, Build(M, data[:1000], forced, 8))
	digestTree(h, BuildM(data, full, l1, 7))
	got["M"] = sum(h)

	rng := rand.New(rand.NewSource(21))
	centers := make([][]float64, 40)
	for i := range centers {
		centers[i] = data[rng.Intn(len(data))]
	}
	spheres := query.ComputeSpheres(data, centers, 10)
	g := Geometry{Dim: 8, PageBytes: 1024, Utilization: 0.95}
	for _, tc := range kinds {
		h := sha256.New()
		for i, c := range []struct {
			zeta float64
			comp bool
		}{{0.25, true}, {0.25, false}, {1, true}} {
			p, err := Predict(tc.kind, data, c.zeta, c.comp, g, spheres, rand.New(rand.NewSource(int64(30+i))))
			if err != nil {
				t.Fatal(err)
			}
			putFloats(h, p.PerQuery...)
			putFloats(h, p.Mean)
		}
		got["predict "+tc.name] = sum(h)
	}

	h = sha256.New()
	putFloats(h, MeasureLeafAccesses(Build(SS, data, g.Params(SS), 0), spheres)...)
	putFloats(h, MeasureLeafAccesses(Build(SR, data, g.Params(SR), 0), spheres)...)
	putFloats(h, MeasureLeafAccesses(Build(M, data, g.Params(M), 9), spheres)...)
	got["measure"] = sum(h)

	for name, want := range map[string]string{
		"SS":         "cab293c4185d831f63e69dbad889ef6961f19d08fe54d2903ef61e031117928b",
		"SR":         "d959edceb0214c56c325dbad9880709a95bab8013ac28001188c0385b2541e63",
		"M":          "c67b56c6a8adb06f547e5ef16002bf9e3410a8a851cd170f6e3bed49d645baaf",
		"predict SS": "1bb29d02442bf420cd94e1c105f89053a3232eefbe2008756f824befda56591b",
		"predict SR": "6d0413ad9fa8b6b26d894191783173ebf69d6280888867fa12c0ff078d9ba4ee",
		"predict M":  "7bbe5d4ec2bf82faf6e1270e1cf08ced5b071d8261ab055c0c9720054b31642f",
		"measure":    "766e3a2cf9ee979399e8d89dd324054581ddeda67d2b123e0284566128a78ed4",
	} {
		if got[name] != want {
			t.Errorf("%s digest %s, want %s", name, got[name], want)
		}
	}
}
