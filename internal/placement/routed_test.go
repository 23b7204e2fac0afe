package placement

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
)

// These tests pin the routed-distance matching path of Hierarchical: uneven
// trees (which admit no balanced abstract tree) and shaped fabrics (torus)
// match groups to nodes through the per-edge distance model, like every
// other multi-switch fabric.

// fabricCost prices an assignment's inter-node traffic over the routed
// fabric graph: volume × path latency for every cross-node pair.
func fabricCost(mach *numasim.Machine, a *Assignment, m *comm.Matrix) float64 {
	g := mach.Topology().FabricGraph()
	total := 0.0
	n := m.Order()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vol := m.At(i, j)
			if vol == 0 || a.TaskPU[i] < 0 || a.TaskPU[j] < 0 {
				continue
			}
			ni, nj := mach.ClusterNodeOfPU(a.TaskPU[i]), mach.ClusterNodeOfPU(a.TaskPU[j])
			if ni != nj {
				total += vol * g.PathLatency(ni, nj)
			}
		}
	}
	return total
}

// TestHierarchicalUnevenDepthAware: on the rack:2 node:2,3 platform the
// balanced-tree matcher cannot build (uneven arity), but the distance model
// still sees the rack boundary: partner blocks land in the same rack. The
// NoFabricMatch variant keeps the identity mapping and splits both pairs
// across the racks.
func TestHierarchicalUnevenDepthAware(t *testing.T) {
	p, err := numasim.NewPlatform("rack:2 node:2,3 pack:1 core:4", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine()
	// 5 blocks of 4 tasks, one block per node; blocks (0,2) and (1,3) exchange
	// a medium slot-to-slot volume, block 4 is standalone.
	c := 4
	m := comm.New(5 * c)
	for b := 0; b < 5; b++ {
		for i := 0; i < c; i++ {
			for j := i + 1; j < c; j++ {
				m.AddSym(b*c+i, b*c+j, 100)
			}
		}
	}
	for b := 0; b < 2; b++ {
		for i := 0; i < c; i++ {
			m.AddSym(b*c+i, (b+2)*c+i, 10)
		}
	}

	rackOfBlock := func(a *Assignment, b int) map[int]bool {
		racks := map[int]bool{}
		for i := 0; i < c; i++ {
			node := mach.ClusterNodeOfPU(a.TaskPU[b*c+i])
			racks[mach.RackOfClusterNode(node)] = true
		}
		return racks
	}
	sameRack := func(a *Assignment, x, y int) bool {
		ra, rb := rackOfBlock(a, x), rackOfBlock(a, y)
		if len(ra) != 1 || len(rb) != 1 {
			t.Fatalf("block %d or %d split across racks: %v %v", x, y, ra, rb)
		}
		for r := range ra {
			return rb[r]
		}
		return false
	}

	aware, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		if !sameRack(aware, pair[0], pair[1]) {
			t.Errorf("distance matching split partner blocks %v across the racks", pair)
		}
	}

	tree, err := Hierarchical{NoFabricMatch: true}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	together := 0
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		if sameRack(tree, pair[0], pair[1]) {
			together++
		}
	}
	if together == 2 {
		t.Error("NoFabricMatch on an uneven fabric kept both partner pairs together; the identity mapping should not see the rack boundary")
	}
	if ac, tc := fabricCost(mach, aware, m), fabricCost(mach, tree, m); !(ac < tc) {
		t.Errorf("distance matching cost %.0f not below the identity fallback's %.0f", ac, tc)
	}
}

// TestHierarchicalTorusDistanceMatch: on a torus the distance matcher must
// recover adjacency the identity layout lacks. Blocks (0,3) and (1,2) couple
// heavily; on the 2x2 torus cells 0 and 3 are diagonal (2 hops), so the
// identity mapping of the NoFabricMatch arm pays double the routed latency of
// an adjacency-respecting relabeling.
func TestHierarchicalTorusDistanceMatch(t *testing.T) {
	p, err := numasim.NewPlatform("torus:2x2 pack:1 core:4", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine()
	c := 4
	m := comm.New(4 * c)
	for b := 0; b < 4; b++ {
		for i := 0; i < c; i++ {
			for j := i + 1; j < c; j++ {
				m.AddSym(b*c+i, b*c+j, 100)
			}
		}
	}
	for _, pair := range [][2]int{{0, 3}, {1, 2}} {
		for i := 0; i < c; i++ {
			m.AddSym(pair[0]*c+i, pair[1]*c+i, 10)
		}
	}

	aware, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Hierarchical{NoFabricMatch: true}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	ac, tc := fabricCost(mach, aware, m), fabricCost(mach, tree, m)
	if !(ac < tc) {
		t.Errorf("torus distance matching cost %.0f not below the unmatched arm's %.0f", ac, tc)
	}
	g := mach.Topology().FabricGraph()
	for _, pair := range [][2]int{{0, 3}, {1, 2}} {
		ni := mach.ClusterNodeOfPU(aware.TaskPU[pair[0]*c])
		nj := mach.ClusterNodeOfPU(aware.TaskPU[pair[1]*c])
		if len(g.PathEdges(ni, nj)) != 1 {
			t.Errorf("partner blocks %v placed %d hops apart, want adjacent", pair, len(g.PathEdges(ni, nj)))
		}
	}
}
