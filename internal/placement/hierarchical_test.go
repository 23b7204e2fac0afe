package placement

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/treematch"
)

func clusterMachine(t *testing.T, nodes int, nodeSpec string) *numasim.Machine {
	t.Helper()
	c, err := numasim.NewPlatform(fmt.Sprintf("cluster:%d %s", nodes, nodeSpec), numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c.Machine()
}

// interNodeCut sums the volume between tasks placed on different cluster
// nodes: the traffic an assignment sends over the fabric.
func interNodeCut(mach *numasim.Machine, m *comm.Matrix, taskPU []int) float64 {
	var s float64
	for i := 0; i < m.Order(); i++ {
		for j := i + 1; j < m.Order(); j++ {
			if mach.ClusterNodeOfPU(taskPU[i]) != mach.ClusterNodeOfPU(taskPU[j]) {
				s += m.At(i, j) + m.At(j, i)
			}
		}
	}
	return s
}

func TestHierarchicalValidAssignment(t *testing.T) {
	mach := clusterMachine(t, 4, "pack:2 l3:1 core:6")
	m := comm.Stencil2D(8, 6, 1000, 10) // 48 tasks on 48 cores
	a, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy != "hierarchical" {
		t.Errorf("policy = %q", a.Policy)
	}
	topo := mach.Topology()
	used := map[int]int{}
	for i, pu := range a.TaskPU {
		if pu < 0 || pu >= topo.NumPUs() {
			t.Fatalf("task %d on PU %d out of range", i, pu)
		}
		used[pu]++
	}
	// One task per core: no PU may be oversubscribed.
	for pu, n := range used {
		if n > 1 {
			t.Errorf("PU %d carries %d tasks, want 1", pu, n)
		}
	}
	// All four nodes carry work.
	nodes := map[int]bool{}
	for _, pu := range a.TaskPU {
		nodes[mach.ClusterNodeOfPU(pu)] = true
	}
	if len(nodes) != 4 {
		t.Errorf("%d cluster nodes carry tasks, want 4", len(nodes))
	}
}

// TestHierarchicalBeatsFlatAndRR is the structural heart of the tentpole:
// on a multi-node stencil, explicit node-level cut minimization must move
// less volume over the fabric — and cost less under the machine's transfer
// model — than flat TreeMatch on the whole cluster tree and than round-robin
// across nodes.
func TestHierarchicalBeatsFlatAndRR(t *testing.T) {
	mach := clusterMachine(t, 4, "pack:2 l3:1 core:6")
	m := comm.Stencil2D(8, 6, 1000, 10)

	hier, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RoundRobinNodes{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}

	hCut := interNodeCut(mach, m, hier.TaskPU)
	fCut := interNodeCut(mach, m, flat.TaskPU)
	rCut := interNodeCut(mach, m, rr.TaskPU)
	if hCut > fCut {
		t.Errorf("hierarchical cuts %.0f bytes across the fabric, flat treematch %.0f", hCut, fCut)
	}
	if hCut >= rCut {
		t.Errorf("hierarchical cut %.0f not below round-robin cut %.0f", hCut, rCut)
	}

	hCost := MappingCost(mach, m, hier.TaskPU)
	fCost := MappingCost(mach, m, flat.TaskPU)
	rCost := MappingCost(mach, m, rr.TaskPU)
	if hCost > fCost {
		t.Errorf("hierarchical mapping cost %.0f above flat %.0f", hCost, fCost)
	}
	if hCost >= rCost {
		t.Errorf("hierarchical mapping cost %.0f not below round-robin %.0f", hCost, rCost)
	}
}

func TestHierarchicalSingleMachineFallsBack(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:4")
	m := comm.Stencil2D(4, 2, 1000, 10)
	a, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Policy != "hierarchical" {
		t.Errorf("policy = %q", a.Policy)
	}
	for i := range a.TaskPU {
		if a.TaskPU[i] != tm.TaskPU[i] {
			t.Fatalf("single-machine hierarchical diverges from treematch at task %d: %d vs %d",
				i, a.TaskPU[i], tm.TaskPU[i])
		}
	}
}

func TestHierarchicalOversubscription(t *testing.T) {
	mach := clusterMachine(t, 2, "pack:1 l3:1 core:4")
	m := comm.Stencil2D(4, 4, 1000, 10) // 16 tasks on 8 cores
	a, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualArity < 2 {
		t.Errorf("virtual arity %d, want >= 2", a.VirtualArity)
	}
	for i, pu := range a.TaskPU {
		if pu < 0 || pu >= mach.Topology().NumPUs() {
			t.Fatalf("task %d on PU %d out of range", i, pu)
		}
	}
}

func TestRoundRobinNodesSpreads(t *testing.T) {
	mach := clusterMachine(t, 3, "pack:1 core:4")
	m := comm.Ring(6, 1000)
	a, err := RoundRobinNodes{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if got, want := mach.ClusterNodeOfPU(a.TaskPU[i]), i%3; got != want {
			t.Errorf("task %d on node %d, want %d", i, got, want)
		}
	}
}

func TestPartitionAcross(t *testing.T) {
	// Two 4-cliques with heavy internal volume and one thin link between
	// them: the 2-way partition must recover the cliques.
	m := comm.New(8)
	for _, g := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for _, i := range g {
			for _, j := range g {
				if i < j {
					m.AddSym(i, j, 1000)
				}
			}
		}
	}
	m.AddSym(3, 4, 1)
	groups, err := treematch.PartitionAcross(m, 2, treematch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("%d groups, want 2", len(groups))
	}
	node := make([]int, 8)
	for g, members := range groups {
		if len(members) != 4 {
			t.Fatalf("group %d has %d members, want 4", g, len(members))
		}
		for _, e := range members {
			node[e] = g
		}
	}
	for _, pair := range [][2]int{{0, 3}, {4, 7}} {
		if node[pair[0]] != node[pair[1]] {
			t.Errorf("clique members %d and %d split across groups", pair[0], pair[1])
		}
	}
	if node[0] == node[4] {
		t.Error("both cliques on one group")
	}
}
