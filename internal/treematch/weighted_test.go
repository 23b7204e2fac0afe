package treematch

import (
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

// TestPartitionAcrossQuadrants pins the ROADMAP "quadrant partitions on
// lattices" item: on the 8×8 unit stencil the optimal 4-way partition is
// the four 4×4 quadrants, keeping intra volume 192 of 224 (cutting 16
// edges). Greedy seeding snakes into slabs (176), KL cannot cross the
// energy barrier, and coarsening stops at a center-block optimum (180); the
// spectral-bisection candidate must reach the quadrant cut.
func TestPartitionAcrossQuadrants(t *testing.T) {
	m := comm.Stencil2D(8, 8, 1, 0)
	groups, err := PartitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	intra := intraVolume(m, groups)
	if intra < 192 {
		t.Fatalf("4-way partition of the 8x8 stencil keeps intra volume %.0f, want 192 (the quadrant cut)", intra)
	}
	for gi, g := range groups {
		if len(g) != 16 {
			t.Errorf("group %d has %d members, want 16", gi, len(g))
		}
	}
}

func TestWeightedSizes(t *testing.T) {
	for _, tc := range []struct {
		p    int
		caps []int
		want []int
	}{
		{48, []int{8, 4, 8, 4, 8, 4, 8, 4}, []int{8, 4, 8, 4, 8, 4, 8, 4}},
		{12, []int{8, 4}, []int{8, 4}},
		{10, []int{8, 4}, []int{7, 3}},
		{5, []int{2, 2}, []int{3, 2}}, // remainder to the lower index on ties
		{3, []int{1, 1, 4}, []int{1, 0, 2}},
	} {
		got := weightedSizes(tc.p, tc.caps)
		if len(got) != len(tc.want) {
			t.Fatalf("weightedSizes(%d, %v) = %v", tc.p, tc.caps, got)
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != tc.want[i] {
				t.Errorf("weightedSizes(%d, %v) = %v, want %v", tc.p, tc.caps, got, tc.want)
				break
			}
		}
		if sum != tc.p {
			t.Errorf("weightedSizes(%d, %v) sums to %d", tc.p, tc.caps, sum)
		}
	}
}

func TestPartitionAcrossWeighted(t *testing.T) {
	// 12 tasks in two cliques of 8 and 4 on capacities 8 and 4: the weighted
	// partition must recover the cliques exactly (cut 0).
	m := comm.New(12)
	clique := func(ids []int) {
		for _, i := range ids {
			for _, j := range ids {
				if i != j {
					m.Set(i, j, 10)
				}
			}
		}
	}
	big := []int{0, 1, 2, 3, 4, 5, 6, 7}
	small := []int{8, 9, 10, 11}
	clique(big)
	clique(small)
	m.AddSym(0, 8, 1) // light bridge so the graph is connected

	groups, err := PartitionAcrossWeighted(m, []int{8, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) != 8 || len(groups[1]) != 4 {
		t.Fatalf("group sizes %d/%d, want 8/4", len(groups[0]), len(groups[1]))
	}
	for _, e := range groups[0] {
		if e >= 8 {
			t.Fatalf("entity %d of the small clique landed in the big group: %v", e, groups)
		}
	}
	// Positional capacities: swapping the capacity order must swap the
	// group contents.
	swapped, err := PartitionAcrossWeighted(m, []int{4, 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(swapped[0]) != 4 || len(swapped[1]) != 8 {
		t.Fatalf("swapped capacities gave sizes %d/%d, want 4/8", len(swapped[0]), len(swapped[1]))
	}
}

func TestPartitionAcrossWeightedEqualMatchesUnweighted(t *testing.T) {
	m := comm.Stencil2D(8, 4, 1000, 0)
	w, err := PartitionAcrossWeighted(m, []int{6, 6, 6, 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := PartitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != len(u) {
		t.Fatalf("group counts differ: %d vs %d", len(w), len(u))
	}
	for g := range w {
		if len(w[g]) != len(u[g]) {
			t.Fatalf("equal-capacity weighted partition differs from PartitionAcross: %v vs %v", w, u)
		}
		for i := range w[g] {
			if w[g][i] != u[g][i] {
				t.Fatalf("equal-capacity weighted partition differs from PartitionAcross: %v vs %v", w, u)
			}
		}
	}
}

func TestPartitionAcrossWeightedErrors(t *testing.T) {
	if _, err := PartitionAcrossWeighted(comm.New(4), nil, Options{}); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := PartitionAcrossWeighted(comm.New(4), []int{2, 0}, Options{}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestNodeSubtrees(t *testing.T) {
	// Heterogeneous platform: one 2x8 node and one 1x4 node.
	ps, err := topology.ParsePlatform("node:{pack:2 core:8 | pack:1 core:4}")
	if err != nil {
		t.Fatal(err)
	}
	fused, err := ps.FusedSpec()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.FromSpec(fused)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := NodeSubtrees(topo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("%d node subtrees, want 2", len(trees))
	}
	if trees[0].Leaves() != 16 || trees[1].Leaves() != 4 {
		t.Errorf("subtree leaves %d/%d, want 16/4", trees[0].Leaves(), trees[1].Leaves())
	}
	// Homogeneous clusters yield one identical tree per node, below the
	// cluster arity.
	homTopo, err := topology.FromSpec("node:4 pack:2 core:8")
	if err != nil {
		t.Fatal(err)
	}
	hom, err := NodeSubtrees(homTopo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(hom) != 4 {
		t.Fatalf("%d subtrees, want 4", len(hom))
	}
	for i, tr := range hom {
		if got := tr.Arities(); tr.Leaves() != 16 || !reflect.DeepEqual(got, []int{2, 8}) {
			t.Errorf("subtree %d arities %v, want [2 8] (16 leaves)", i, got)
		}
	}
}
