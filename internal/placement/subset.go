package placement

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/treematch"
)

// AssignFreeSlots is the place-into-subset entry point the online scheduler
// (internal/sched) builds on: it runs the Hierarchical flow restricted to an
// arbitrary set of free core slots instead of the whole (empty) machine.
// free[n] lists the free core level-indices (global, ascending) of cluster
// node n; nodes outside the scheduler's chosen domain pass empty lists. The
// same three levels apply — partition the task graph across the nodes that
// hold free slots (group g sized for node g's free capacity), match groups to
// nodes through the fabric's routed latency model, then map each group onto
// its node's free cores by structural hop distance — so a job admitted into a
// fragmented machine still lands with fabric- and cache-aware locality.
func AssignFreeSlots(mach *numasim.Machine, m *comm.Matrix, free [][]int, opts treematch.Options) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: subset assignment requires a machine")
	}
	topo := mach.Topology()
	nodes := topo.NumClusterNodes()
	if len(free) != nodes {
		return nil, fmt.Errorf("placement: free-slot view covers %d nodes, machine has %d", len(free), nodes)
	}
	numCores := topo.NumCores()
	seen := make(map[int]bool)
	var active []int // cluster nodes holding free slots, ascending
	total := 0
	for n, slots := range free {
		if len(slots) == 0 {
			continue
		}
		if !sort.IntsAreSorted(slots) {
			return nil, fmt.Errorf("placement: free slots of node %d not ascending", n)
		}
		for _, c := range slots {
			if c < 0 || c >= numCores {
				return nil, fmt.Errorf("placement: free slot core %d out of range [0,%d)", c, numCores)
			}
			if seen[c] {
				return nil, fmt.Errorf("placement: free slot core %d listed twice", c)
			}
			if cn := topo.ClusterNodeOf(topo.Cores()[c]); cn != nil && cn != topo.ClusterNodes()[n] {
				return nil, fmt.Errorf("placement: core %d is not on cluster node %d", c, n)
			}
			seen[c] = true
		}
		active = append(active, n)
		total += len(slots)
	}
	p := m.Order()
	if p == 0 {
		return &Assignment{Policy: "subset", TaskPU: []int{}, ControlPU: []int{}}, nil
	}
	if p > total {
		return nil, fmt.Errorf("placement: %d tasks exceed %d free slots", p, total)
	}

	a := &Assignment{
		Policy:    "subset",
		TaskPU:    make([]int, p),
		ControlPU: make([]int, p),
	}
	for t := range a.ControlPU {
		a.ControlPU[t] = -1
	}

	if len(active) == 1 {
		local, err := mapOntoFreeCores(mach, m, free[active[0]])
		if err != nil {
			return nil, err
		}
		for t, c := range local {
			a.TaskPU[t] = firstPU(topo, c)
		}
		return a, nil
	}

	// Level 1: split the task graph across the nodes with free slots, group
	// g sized for active node g's free capacity.
	caps := make([]int, len(active))
	for i, n := range active {
		caps[i] = len(free[n])
	}
	groups, groupMatrix, err := treematch.PartitionAcrossWeightedMatrix(m, caps, opts)
	if err != nil {
		return nil, err
	}

	// Level 2: match groups to the active nodes through the routed latency
	// model, restricted to the active submatrix. Uneven free capacities are
	// the common case under churn, so the matching is capacity-classed
	// exactly as Hierarchical's: group g may land only on a node with the
	// same free capacity it was sized for.
	nodeOf := make([]int, len(groups)) // group -> index into active
	for g := range nodeOf {
		nodeOf[g] = g
	}
	if fg := topo.FabricGraph(); fg != nil && len(active) > 1 {
		full := fg.LatencyMatrix()
		dist := make([][]float64, len(active))
		for i, ni := range active {
			dist[i] = make([]float64, len(active))
			for j, nj := range active {
				dist[i][j] = full[ni][nj]
			}
		}
		entityClass, leafClass := capacityClasses(caps, caps)
		assignment, err := treematch.AssignByDistance(dist, groupMatrix, entityClass, leafClass)
		if err != nil {
			return nil, fmt.Errorf("placement: subset fabric matching: %w", err)
		}
		copy(nodeOf, assignment)
	}

	// Level 3: map each group onto its node's free cores.
	for g, tasks := range groups {
		if len(tasks) == 0 {
			continue
		}
		node := active[nodeOf[g]]
		sub, err := m.Submatrix(tasks)
		if err != nil {
			return nil, err
		}
		local, err := mapOntoFreeCores(mach, sub, free[node])
		if err != nil {
			return nil, err
		}
		for i, task := range tasks {
			a.TaskPU[task] = firstPU(topo, local[i])
		}
	}
	return a, nil
}

// mapOntoFreeCores maps m's tasks onto a subset of the given free cores of a
// single cluster node, minimizing bytes x structural hop distance. The task
// matrix is zero-extended to the slot count so the matcher chooses which free
// cores to occupy — dummy tasks absorb the leftover slots — and the returned
// slice gives each real task's core level index.
func mapOntoFreeCores(mach *numasim.Machine, m *comm.Matrix, slots []int) ([]int, error) {
	p := m.Order()
	if p > len(slots) {
		return nil, fmt.Errorf("placement: %d tasks exceed %d free cores on node", p, len(slots))
	}
	topo := mach.Topology()
	ext := m
	if p < len(slots) {
		var err error
		ext, err = m.ExtendZero(len(slots))
		if err != nil {
			return nil, err
		}
	}
	dist := make([][]float64, len(slots))
	for i, ci := range slots {
		dist[i] = make([]float64, len(slots))
		for j, cj := range slots {
			if i == j {
				continue
			}
			dist[i][j] = float64(topo.HopDistance(topo.Cores()[ci], topo.Cores()[cj]))
		}
	}
	assignment, err := treematch.AssignByDistance(dist, ext, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("placement: subset intra-node matching: %w", err)
	}
	out := make([]int, p)
	for t := 0; t < p; t++ {
		out[t] = slots[assignment[t]]
	}
	return out, nil
}
