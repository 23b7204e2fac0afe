package placement

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// Hierarchical is the multi-level placement policy for clustered platforms:
// the task graph is first partitioned across the cluster nodes with a cut-
// minimizing, capacity-weighted grouping (treematch.PartitionAcrossWeighted:
// group sizes proportional to node core counts, so a heterogeneous
// platform's small nodes are not oversubscribed) — every cut byte crosses
// the interconnect fabric, so the node-level cut dominates the cost — and
// the ordinary Algorithm 1 then maps each node's task group onto that
// node's own intra-machine tree from the group's sub-matrix. On a machine
// without a cluster level it degrades to the plain TreeMatch policy.
//
// On a multi-switch or shaped fabric (a rack tier, optionally a pod tier
// above, or a torus/dragonfly) placement is three-level: the aggregated
// group-to-group matrix is itself matched onto the fabric's routed distance
// model (treematch.AssignByDistance over the fabric graph's all-pairs
// latency matrix), so groups that exchange heavy residual volume land close
// — in the same rack and pod, or adjacent on a torus — and only light
// traffic crosses the uplinks. On heterogeneous platforms the matching is
// capacity-class constrained, because a group sized for an 8-core node can
// only run on an 8-core node. On a flat single-switch fabric every
// group-to-node assignment prices identically, so the matching is skipped
// and group g runs on node g, which keeps the result deterministic.
//
// Compared with running flat TreeMatch on the whole cluster tree, the
// explicit top split optimizes the fabric cut directly instead of letting it
// emerge from bottom-up core-level grouping, and keeps the per-node
// instances small.
type Hierarchical struct {
	// Options tunes the underlying grouping heuristic at all levels.
	Options treematch.Options
	// NoDistribute disables the per-node NUMA distribution step, mirroring
	// TreeMatch.NoDistribute.
	NoDistribute bool
	// NoFabricMatch disables the group→node matching on multi-switch
	// fabrics, pinning partition group g to cluster node g as on a flat
	// fabric. This is the fabric-blind (depth-blind) arm of ablations A10
	// and A11: the node-level cut is still minimized, but where each group
	// lands relative to the rack and pod boundaries is left to chance.
	NoFabricMatch bool
	// CapacityBlind disables the capacity weighting of the node-level
	// partition, giving every node the equal share ceil(p/k) regardless of
	// its core count. This is the capacity-blind arm of ablation A11: on a
	// heterogeneous platform the small nodes oversubscribe and the large
	// ones idle.
	CapacityBlind bool
	// SpreadDomains is the fault-aware initial-placement arm: after the
	// group→node matching, the two most heavily coupled partition groups —
	// the critical pair whose joint loss would stall the computation — are
	// forced onto different racks when the matching co-located them, via the
	// cheapest capacity-class-preserving swap under the fabric's routed
	// latency model. The clustering objective co-locates exactly such pairs,
	// so this deliberately trades some locality for blast-radius isolation:
	// a rack-level failure (a ToR sever, a correlated node kill) can then
	// take out at most one member of the pair.
	SpreadDomains bool
	// Workers bounds the worker pool that runs the per-node Algorithm 1
	// stage: the per-node mappings are independent (each works on its own
	// sub-matrix against the shared read-only task matrix), so on a
	// 1000-node placement they shard across CPUs. 0 means GOMAXPROCS;
	// 1 forces the historical sequential order. Results are merged in
	// group order regardless, so the assignment is identical at any
	// worker count.
	Workers int
}

// Name implements Policy.
func (Hierarchical) Name() string { return "hierarchical" }

// Assign implements Policy.
func (p Hierarchical) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: hierarchical requires a machine")
	}
	topo := mach.Topology()
	nodes := len(topo.ClusterNodes())
	if nodes <= 1 {
		a, err := TreeMatch{Options: p.Options, NoDistribute: p.NoDistribute}.Assign(mach, m)
		if err != nil {
			return nil, err
		}
		a.Policy = p.Name()
		return a, nil
	}

	nodeTrees, err := treematch.NodeSubtrees(topo, topology.Core)
	if err != nil {
		return nil, err
	}
	// Per-node core capacities and each node's first core index in the fused
	// machine's left-to-right core order.
	caps := make([]int, nodes)
	coreBase := make([]int, nodes)
	for i, tree := range nodeTrees {
		caps[i] = tree.Leaves()
		if i > 0 {
			coreBase[i] = coreBase[i-1] + caps[i-1]
		}
	}

	// Level 1: split the task graph across the cluster nodes, minimizing
	// the volume that must cross the fabric; group g is sized for node g's
	// capacity (or for the equal share when capacity-blind).
	partCaps := caps
	if p.CapacityBlind {
		partCaps = make([]int, nodes)
		for i := range partCaps {
			partCaps[i] = 1
		}
	}
	// On a torus headed for distance matching, declare the grid to the
	// partitioner: the space-filling-curve chain candidate joins the
	// portfolio. The fabric-blind arm keeps the unmodified options, since no
	// matching will place the curve's chain onto the grid.
	shape := topo.FabricShape()
	partOpts := p.Options
	if shape != nil && shape.Kind == "torus" && !p.NoFabricMatch {
		partOpts.SFCDims = shape.Dims
	}
	groups, groupMatrix, err := treematch.PartitionAcrossWeightedMatrix(m, partCaps, partOpts)
	if err != nil {
		return nil, err
	}

	// Level 2 (multi-switch and shaped fabrics): match the aggregated group
	// matrix onto the fabric's routed distance model, so groups with heavy
	// residual traffic land close (in the same rack and pod, or adjacent on
	// a torus). On a flat single-switch fabric every group→node assignment
	// prices identically, so the matching is skipped and the identity keeps
	// A9 and older results bit-stable.
	nodeOf := make([]int, len(groups))
	for g := range nodeOf {
		nodeOf[g] = g
	}
	if !p.NoFabricMatch && (topo.NumRacks() > 1 || topo.NumPods() > 1 || shape != nil) {
		var groupCaps, nodeCaps []int
		if !p.CapacityBlind {
			groupCaps, nodeCaps = partCaps, caps
		}
		assignment, err := matchGroupsByDistance(topo, groupMatrix, groupCaps, nodeCaps)
		if err != nil {
			return nil, fmt.Errorf("placement: hierarchical fabric matching: %w", err)
		}
		copy(nodeOf, assignment)
	}
	if p.SpreadDomains && topo.NumRacks() > 1 && topo.FabricGraph() != nil {
		spreadCriticalPair(mach, topo, groupMatrix, partCaps, nodeOf)
	}

	a := &Assignment{
		Policy:       p.Name(),
		TaskPU:       make([]int, m.Order()),
		ControlPU:    make([]int, m.Order()),
		Strategy:     treematch.ControlHyperthread,
		VirtualArity: 1,
	}
	opts := p.Options
	opts.Distribute = !p.NoDistribute
	// Per-node SMT ways: the fused machine's global minimum would deny
	// hyperthread control pairing on a node all of whose cores are
	// 2-threaded just because some *other* member is not — each node's
	// bindings should reflect its own hardware.
	ways := make([]int, nodes)
	for _, c := range topo.Cores() {
		n := topo.ClusterNodeOf(c).LevelIndex
		if w := len(c.Children); ways[n] == 0 || w < ways[n] {
			ways[n] = w
		}
	}
	for i := range ways {
		if ways[i] < 1 {
			ways[i] = 1
		}
	}
	// Bottom level: the ordinary Algorithm 1 on each node's sub-matrix and
	// intra-machine tree, including the control-thread adaptation. The
	// per-node instances are independent, so they run across a bounded
	// worker pool; results land in a per-group slot and are merged in group
	// order below, which keeps the assignment bit-identical to a sequential
	// run at any worker count.
	type nodeMapResult struct {
		res *treematch.Result
		err error
	}
	results := make([]nodeMapResult, len(groups))
	jobs := make([]int, 0, len(groups))
	for g, group := range groups {
		if len(group) > 0 {
			jobs = append(jobs, g)
		}
	}
	runNode := func(g int) nodeMapResult {
		node := nodeOf[g]
		sub, err := m.Submatrix(groups[g])
		if err != nil {
			return nodeMapResult{err: err}
		}
		res, err := treematch.Map(treematch.Target{Tree: nodeTrees[node], SMTWays: ways[node]}, sub, opts)
		if err != nil {
			return nodeMapResult{err: fmt.Errorf("placement: hierarchical node %d: %w", node, err)}
		}
		return nodeMapResult{res: res}
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, g := range jobs {
			results[g] = runNode(g)
		}
	} else {
		feed := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range feed {
					results[g] = runNode(g)
				}
			}()
		}
		for _, g := range jobs {
			feed <- g
		}
		close(feed)
		wg.Wait()
	}

	nonEmpty := 0
	for g, group := range groups {
		if len(group) == 0 {
			continue
		}
		node := nodeOf[g]
		if results[g].err != nil {
			return nil, results[g].err
		}
		res := results[g].res
		for local, task := range group {
			core := coreBase[node] + res.Assignment[local]
			a.TaskPU[task] = firstPU(topo, core)
			switch {
			case res.Control[local] < 0:
				a.ControlPU[task] = -1
			case res.Strategy == treematch.ControlHyperthread:
				a.ControlPU[task] = secondPU(topo, coreBase[node]+res.Control[local])
			default:
				a.ControlPU[task] = firstPU(topo, coreBase[node]+res.Control[local])
			}
		}
		// Nodes of different sizes may resolve the control threads
		// differently; report the most conservative strategy in force on
		// any node (hyperthread < spare-cores < unmapped), so the summary
		// never overstates what the bindings deliver.
		nonEmpty++
		if res.Strategy > a.Strategy {
			a.Strategy = res.Strategy
		}
		if res.VirtualArity > a.VirtualArity {
			a.VirtualArity = res.VirtualArity
		}
	}
	if nonEmpty == 0 {
		a.Strategy = treematch.ControlUnmapped
	}
	return a, nil
}

// matchGroupsByDistance decides which cluster node each partition group runs
// on through the routed distance model: the fabric graph's all-pairs latency
// matrix prices every candidate, so balanced and uneven trees, tori and
// dragonflies all get the same traffic-aware group→node matching. Group g,
// sized for capacity groupCaps[g], may only land on a node of the same
// capacity (nil capacities place no constraint). On a torus without
// capacity classes the space-filling-curve embedding joins as a seed
// candidate; it wins only when strictly cheaper.
func matchGroupsByDistance(topo *topology.Topology, groupMatrix *comm.Matrix, groupCaps, nodeCaps []int) ([]int, error) {
	dist := topo.FabricGraph().LatencyMatrix()
	entityClass, leafClass := capacityClasses(groupCaps, nodeCaps)
	var seeds [][]int
	if shape := topo.FabricShape(); shape != nil && shape.Kind == "torus" && entityClass == nil {
		if seed, err := treematch.SFCSeed(shape.Dims, groupMatrix); err == nil {
			seeds = append(seeds, seed)
		}
	}
	return treematch.AssignByDistance(dist, groupMatrix, entityClass, leafClass, seeds...)
}

// capacityClasses numbers the distinct capacities of the groups and the
// nodes they are matched onto (first seen, groups first), the class
// constraint of treematch.AssignByDistance: group g may only land on a node
// whose capacity equals groupCaps[g]. Homogeneous input — every capacity
// equal — places no constraint and yields nil classes.
func capacityClasses(groupCaps, nodeCaps []int) (entityClass, leafClass []int) {
	homogeneous := true
	for _, caps := range [][]int{groupCaps, nodeCaps} {
		for _, c := range caps {
			homogeneous = homogeneous && c == groupCaps[0]
		}
	}
	if homogeneous {
		return nil, nil
	}
	classOf := map[int]int{}
	class := func(capacity int) int {
		c, ok := classOf[capacity]
		if !ok {
			c = len(classOf)
			classOf[capacity] = c
		}
		return c
	}
	entityClass = make([]int, len(groupCaps))
	for g, c := range groupCaps {
		entityClass[g] = class(c)
	}
	leafClass = make([]int, len(nodeCaps))
	for n, c := range nodeCaps {
		leafClass[n] = class(c)
	}
	return entityClass, leafClass
}

// spreadCriticalPair implements Hierarchical.SpreadDomains: if the two most
// heavily coupled partition groups landed in the same rack, swap one of them
// with a group on a different rack so a single rack failure cannot take both.
// Only swaps between groups of the same partition capacity are considered
// (the same capacity-class constraint the matching itself honors), and among
// the valid spreading swaps the one with the lowest total mapped cost under
// the fabric's routed latency model wins, first-wins on ties. A no-op when
// the pair is already rack-separated, when no valid swap exists, or when the
// group matrix carries no traffic at all.
func spreadCriticalPair(mach *numasim.Machine, topo *topology.Topology, groupMatrix *comm.Matrix, partCaps, nodeOf []int) {
	n := groupMatrix.Order()
	if n < 3 {
		return
	}
	g1, g2 := -1, -1
	heaviest := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := groupMatrix.At(i, j) + groupMatrix.At(j, i); v > heaviest {
				g1, g2, heaviest = i, j, v
			}
		}
	}
	if g1 < 0 || mach.RackOfClusterNode(nodeOf[g1]) != mach.RackOfClusterNode(nodeOf[g2]) {
		return
	}
	dist := topo.FabricGraph().LatencyMatrix()
	mappedCost := func(assign []int) float64 {
		var c float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if v := groupMatrix.At(i, j) + groupMatrix.At(j, i); v > 0 {
					c += v * dist[assign[i]][assign[j]]
				}
			}
		}
		return c
	}
	bestCost := math.Inf(1)
	bestMoved, bestPartner := -1, -1
	trial := make([]int, n)
	for _, moved := range []int{g1, g2} {
		anchor := g1 + g2 - moved
		for h := 0; h < n; h++ {
			if h == g1 || h == g2 || partCaps[h] != partCaps[moved] {
				continue
			}
			if mach.RackOfClusterNode(nodeOf[h]) == mach.RackOfClusterNode(nodeOf[anchor]) {
				continue
			}
			copy(trial, nodeOf)
			trial[moved], trial[h] = nodeOf[h], nodeOf[moved]
			if c := mappedCost(trial); c < bestCost {
				bestCost, bestMoved, bestPartner = c, moved, h
			}
		}
	}
	if bestMoved >= 0 {
		nodeOf[bestMoved], nodeOf[bestPartner] = nodeOf[bestPartner], nodeOf[bestMoved]
	}
}

// RoundRobinNodes deals tasks across the cluster nodes round-robin:
// consecutive tasks land on different nodes, the affinity-blind cluster
// baseline (the multi-node analogue of Scatter). Within a node, cores fill
// sequentially. Control threads are left to the OS.
type RoundRobinNodes struct{}

// Name implements Policy.
func (RoundRobinNodes) Name() string { return "rr-nodes" }

// Assign implements Policy.
func (RoundRobinNodes) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: rr-nodes requires a machine")
	}
	topo := mach.Topology()
	nodes := topo.NumClusterNodes()
	cores := topo.NumCores()
	coresPerNode := cores / nodes
	a := unboundControls(m.Order(), "rr-nodes")
	for i := range a.TaskPU {
		node := i % nodes
		slot := i / nodes
		core := node*coresPerNode + slot%coresPerNode
		a.TaskPU[i] = firstPU(topo, core)
	}
	a.VirtualArity = (m.Order() + cores - 1) / cores
	return a, nil
}
