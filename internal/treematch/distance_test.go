package treematch

import (
	"errors"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

// treeDistanceMatrix lowers a balanced tree's hop distances into the
// distance-model form.
func treeDistanceMatrix(tree *Tree) [][]float64 {
	n := tree.Leaves()
	dist := make([][]float64, n)
	for a := 0; a < n; a++ {
		dist[a] = make([]float64, n)
		for b := 0; b < n; b++ {
			dist[a][b] = float64(tree.LeafDistance(a, b))
		}
	}
	return dist
}

// ringMatrix is a ring of heavy neighbour traffic plus a light long pair.
func ringMatrix(t *testing.T, n int) *comm.Matrix {
	t.Helper()
	m := comm.New(n)
	for i := 0; i < n; i++ {
		m.Add(i, (i+1)%n, 100)
	}
	m.Add(0, n/2, 1)
	return m
}

// bruteForceCost returns the minimum distance-weighted cost over every
// class-preserving permutation of the leaves (nil classes place no
// constraint), the exact reference for small fabrics.
func bruteForceCost(dist [][]float64, m *comm.Matrix, classes []int) float64 {
	n := len(dist)
	assign := make([]int, n)
	used := make([]bool, n)
	best := math.Inf(1)
	var rec func(e int)
	rec = func(e int) {
		if e == n {
			best = math.Min(best, DistanceCost(dist, m, assign))
			return
		}
		for l := 0; l < n; l++ {
			if used[l] || (classes != nil && classes[l] != classes[e]) {
				continue
			}
			used[l] = true
			assign[e] = l
			rec(e + 1)
			used[l] = false
		}
	}
	rec(0)
	return best
}

// TestAssignByDistanceMatchesBruteForceOnTrees pins optimality on the
// small balanced fabrics hierarchical placement matches onto: under the
// routed latency model of a flat, racked and pod-tiered tree, the matcher's
// cost equals the minimum over all class-preserving permutations, classes
// present or not.
func TestAssignByDistanceMatchesBruteForceOnTrees(t *testing.T) {
	for _, spec := range []string{
		"cluster:4 pack:1 core:2",
		"rack:2 node:4 pack:1 core:2",
		"pod:2 rack:2 node:2 pack:1 core:2",
	} {
		topo, err := topology.FromSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		dist := topo.FabricGraph().LatencyMatrix()
		n := len(dist)
		// A dense random affinity: the swap-refined greedy alone misses
		// the optimum on it, so only the exact search passes.
		m := comm.Random(n, 0.6, 100, 7)
		classes := make([]int, n)
		for i := range classes {
			classes[i] = i % 2
		}
		for _, cl := range [][]int{nil, classes} {
			got, err := AssignByDistance(dist, m, cl, cl)
			if err != nil {
				t.Fatalf("%s: AssignByDistance: %v", spec, err)
			}
			for e, l := range got {
				if cl != nil && cl[l] != cl[e] {
					t.Fatalf("%s: entity %d (class %d) on leaf %d (class %d)", spec, e, cl[e], l, cl[l])
				}
			}
			cost, want := DistanceCost(dist, m, got), bruteForceCost(dist, m, cl)
			if math.Abs(cost-want) > 1e-9*want {
				t.Errorf("%s (classes=%v): cost %v, brute-force minimum %v", spec, cl != nil, cost, want)
			}
		}
	}
}

// TestAssignByDistanceClassedTree: under a balanced tree's hop distances
// (pods of 2 racks of 2 nodes, leaf classes alternating big/small per
// rack), heavy entity pairs (0,5), (1,4), (2,7), (3,6) land rack-adjacent —
// which the identity assignment does not deliver — while every entity keeps
// its class, and mismatched class multisets are rejected.
func TestAssignByDistanceClassedTree(t *testing.T) {
	tree, err := NewTree([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	dist := treeDistanceMatrix(tree)
	m := comm.New(8)
	for _, pr := range [][2]int{{0, 5}, {1, 4}, {2, 7}, {3, 6}} {
		m.AddSym(pr[0], pr[1], 100)
	}
	entityClass := []int{0, 1, 0, 1, 0, 1, 0, 1} // group sizes 8,4,8,4,...
	leafClass := []int{0, 1, 0, 1, 0, 1, 0, 1}
	a, err := AssignByDistance(dist, m, entityClass, leafClass)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 8)
	for g, leaf := range a {
		if leafClass[leaf] != entityClass[g] {
			t.Errorf("group %d (class %d) on leaf %d (class %d)", g, entityClass[g], leaf, leafClass[leaf])
		}
		if seen[leaf] {
			t.Fatalf("leaf %d assigned twice", leaf)
		}
		seen[leaf] = true
	}
	// Every heavy pair must share a rack: distance 2 on the [2 2 2] tree.
	for _, pr := range [][2]int{{0, 5}, {1, 4}, {2, 7}, {3, 6}} {
		if d := tree.LeafDistance(a[pr[0]], a[pr[1]]); d != 2 {
			t.Errorf("pair %v at distance %d, want 2 (same rack); assignment %v", pr, d, a)
		}
	}
	if _, err := AssignByDistance(dist, m, []int{0, 0, 0, 0, 0, 0, 0, 0}, leafClass); err == nil {
		t.Error("mismatched class multisets accepted")
	}
}

// TestAssignByDistanceOnTorus checks that the distance matcher beats round
// robin under a routed torus distance model with ring traffic.
func TestAssignByDistanceOnTorus(t *testing.T) {
	topo, err := topology.FromSpec("torus:4x4 pack:1 core:1")
	if err != nil {
		t.Fatal(err)
	}
	dist := topo.FabricGraph().LatencyMatrix()
	n := len(dist)
	m := ringMatrix(t, n)
	seed, err := SFCSeed([]int{4, 4}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AssignByDistance(dist, m, nil, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if c, rr := DistanceCost(dist, m, got), DistanceCost(dist, m, identity); c > rr {
		t.Errorf("matched cost %v worse than identity %v", c, rr)
	}
	seen := make([]bool, n)
	for _, l := range got {
		if l < 0 || l >= n || seen[l] {
			t.Fatalf("assignment %v is not a permutation", got)
		}
		seen[l] = true
	}
}

func TestAssignByDistanceUneven(t *testing.T) {
	// rack:2 node:2,3 — uneven, so no balanced abstract tree (ErrUneven)
	// spans the fabric; the distance model handles it through the routed
	// tree graph. The heavy pair must land inside one rack, not across the
	// uplink.
	topo, err := topology.FromSpec("rack:2 node:2,3 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTopology(topo, topology.Cluster); !errors.Is(err, ErrUneven) {
		t.Fatalf("balanced tree over an uneven fabric: err %v, want ErrUneven", err)
	}
	g := topo.FabricGraph()
	dist := g.LatencyMatrix()
	m := comm.New(5)
	m.Add(0, 1, 1000) // heavy pair
	m.Add(2, 3, 1)
	got, err := AssignByDistance(dist, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist[got[0]][got[1]] != dist[0][1] {
		t.Errorf("heavy pair placed at distance %v, want intra-rack %v (assignment %v)",
			dist[got[0]][got[1]], dist[0][1], got)
	}
}

func TestAssignByDistanceSeedValidation(t *testing.T) {
	dist := [][]float64{{0, 1}, {1, 0}}
	m := comm.New(2)
	m.Add(0, 1, 5)
	if _, err := AssignByDistance(dist, m, nil, nil, []int{0}); err == nil {
		t.Error("short seed accepted")
	}
	if _, err := AssignByDistance(dist, m, nil, nil, []int{0, 0}); err == nil {
		t.Error("non-permutation seed accepted")
	}
	if _, err := AssignByDistance(dist, m, []int{0, 1}, []int{0, 1}, []int{1, 0}); err == nil {
		t.Error("class-violating seed accepted")
	}
}
