package rtree

import (
	"math"
	"testing"
)

func TestGeometryCapacitiesTexture60(t *testing.T) {
	// The paper's TEXTURE60 anchors: 8 KB pages, 60 dimensions.
	g := NewGeometry(60)
	if got := g.MaxDataCapacity(); got != 34 {
		t.Errorf("MaxDataCapacity = %d, want 34", got)
	}
	if got := g.EffDataCapacity(); got != 32 {
		t.Errorf("EffDataCapacity = %d, want 32", got)
	}
	if got := g.MaxDirCapacity(); got != 16 {
		t.Errorf("MaxDirCapacity = %d, want 16", got)
	}
	if got := g.EffDirCapacity(); got != 15 {
		t.Errorf("EffDirCapacity = %d, want 15", got)
	}
}

func TestTopologyTexture60MatchesPaper(t *testing.T) {
	// Paper Section 5: TEXTURE60 index has height 5 and 8,641 leaf
	// pages; sigma_upper = M/N = 0.0363 for M = 10,000.
	topo := NewTopology(275465, NewGeometry(60))
	if topo.Height != 5 {
		t.Errorf("height = %d, want 5", topo.Height)
	}
	leaves := topo.Leaves()
	if leaves < 8000 || leaves > 9000 {
		t.Errorf("leaves = %d, want ~8641", leaves)
	}
	sigma := math.Min(10000.0/275465.0, 1)
	if math.Abs(sigma-0.0363) > 0.0001 {
		t.Errorf("sigma_upper = %v, want 0.0363", sigma)
	}
}

func TestTopologyUniform8D(t *testing.T) {
	// Paper Section 5.2: 100,000 uniform 8-d points -> height 3.
	topo := NewTopology(100000, NewGeometry(8))
	if topo.Height != 3 {
		t.Errorf("height = %d, want 3", topo.Height)
	}
}

func TestTopologyHighDim(t *testing.T) {
	// 617 dimensions: 3 points per max page, dir cap clamps to >= 2.
	g := NewGeometry(617)
	if g.MaxDataCapacity() != 3 {
		t.Errorf("MaxDataCapacity = %d, want 3", g.MaxDataCapacity())
	}
	if g.EffDataCapacity() < 1 {
		t.Error("EffDataCapacity must be >= 1")
	}
	if g.EffDirCapacity() < 2 {
		t.Error("EffDirCapacity must be >= 2")
	}
	topo := NewTopology(7800, g)
	if topo.Height < 2 {
		t.Errorf("height = %d", topo.Height)
	}
}

func TestTopologyNodeCountsConsistent(t *testing.T) {
	topo := NewTopology(275465, NewGeometry(60))
	if topo.NodesAtLevel(topo.Height) != 1 {
		t.Errorf("root level has %d nodes", topo.NodesAtLevel(topo.Height))
	}
	for l := 2; l <= topo.Height; l++ {
		below, here := topo.NodesAtLevel(l-1), topo.NodesAtLevel(l)
		if here > below {
			t.Errorf("level %d has %d nodes, below has %d", l, here, below)
		}
		if ceilDiv(below, topo.EffDirCapacity()) != here {
			t.Errorf("level %d: ceil(%d/%d) != %d", l, below, topo.EffDirCapacity(), here)
		}
	}
}

func TestSubtreeCapacityAndPts(t *testing.T) {
	topo := NewTopology(275465, NewGeometry(60))
	if got := topo.SubtreeCapacity(1); got != 32 {
		t.Errorf("SubtreeCapacity(1) = %v, want 32", got)
	}
	if got := topo.SubtreeCapacity(2); got != 32*15 {
		t.Errorf("SubtreeCapacity(2) = %v, want 480", got)
	}
	if got := topo.Pts(topo.Height); got != 275465 {
		t.Errorf("Pts(height) = %v, want N", got)
	}
	if got := topo.Pts(1); math.Abs(got-275465.0/float64(topo.Leaves())) > 1e-9 {
		t.Errorf("Pts(1) = %v", got)
	}
}

func TestCapacityScalesWithItems(t *testing.T) {
	topo := NewTopology(100000, NewGeometry(8))
	full := topo.Capacity(2, float64(topo.N))
	half := topo.Capacity(2, float64(topo.N)/2)
	if math.Abs(full-2*half) > 1e-9 {
		t.Errorf("capacity not linear in items: %v vs %v", full, half)
	}
}

func TestHUpperBoundsTexture60(t *testing.T) {
	// For TEXTURE60 with M = 10,000 the paper evaluates h_upper in
	// {2, 3, 4}; all of them must be admissible.
	topo := NewTopology(275465, NewGeometry(60))
	min, max, err := topo.HUpperBounds(10000, true)
	if err != nil {
		t.Fatal(err)
	}
	if min > 2 || max < 4 {
		t.Errorf("bounds = [%d, %d], want to include [2, 4]", min, max)
	}
}

func TestChooseHUpperPrefersSigmaLowerOne(t *testing.T) {
	// The heuristic picks h_upper so the unsampled lower tree size is
	// closest to M. For TEXTURE60/M=10,000 the paper's best value is 3
	// (sigma_lower = 1).
	topo := NewTopology(275465, NewGeometry(60))
	h, err := topo.ChooseHUpper(10000, true)
	if err != nil {
		t.Fatal(err)
	}
	if h != 3 {
		t.Errorf("ChooseHUpper = %d, want 3", h)
	}
}

func TestHUpperBoundsErrorWhenTreeTooFlat(t *testing.T) {
	topo := NewTopology(10, NewGeometry(8)) // height 1
	if _, _, err := topo.HUpperBounds(5, true); err == nil {
		t.Error("expected error for height-1 tree")
	}
}

func TestUpperLeafLevel(t *testing.T) {
	topo := NewTopology(275465, NewGeometry(60))
	if got := topo.UpperLeafLevel(2); got != 4 {
		t.Errorf("UpperLeafLevel(2) = %d, want 4", got)
	}
	if got := topo.UpperLeafLevel(topo.Height); got != 1 {
		t.Errorf("UpperLeafLevel(height) = %d, want 1", got)
	}
}

func TestNewTopologyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopology(0, NewGeometry(8))
}

func TestGeometryPageSizeSweep(t *testing.T) {
	// Larger pages must increase capacities and reduce height.
	prevLeaves := 1 << 30
	for _, pb := range []int{8192, 16384, 32768, 65536} {
		g := Geometry{Dim: 60, PageBytes: pb, Utilization: 0.95}
		topo := NewTopology(275465, g)
		if topo.Leaves() >= prevLeaves {
			t.Errorf("page size %d: leaves %d did not decrease", pb, topo.Leaves())
		}
		prevLeaves = topo.Leaves()
	}
}
