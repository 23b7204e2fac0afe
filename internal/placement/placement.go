// Package placement is the paper's primary contribution: the topology-aware
// placement module of the ORWL runtime. It extracts the application's
// affinity matrix from the runtime, obtains the machine topology (the HWLOC
// role), computes a thread→core binding with the TreeMatch-based
// Algorithm 1 — including the oversubscription and control-thread
// adaptations — and applies the binding to the runtime.
//
// Baseline policies (compact, scatter, round-robin, random, no-bind) are
// provided for the comparisons and ablations in the evaluation.
//
// # Objective function and units
//
// Policies minimize treematch's structural objective — bytes × tree hops
// over the declared affinity matrix; on clusters, Hierarchical first
// minimizes the fabric cut in bytes and, on multi-switch fabrics, the
// routed-latency-weighted residual (see treematch.PartitionAcross and
// treematch.AssignByDistance). The policies themselves never handle cycles. The
// bridge to priced time is the contention derivation applied after a
// placement is chosen: SetContention declares per-NUMA-node accessor
// counts, and SetFabricContention the per-link crossing stream counts at
// every fabric level (NICs, rack uplinks, pod uplinks); the simulator
// (internal/numasim) then charges CPU cycles —
// network cycles for fabric paths — against those declarations. Whether the
// structural optimum coincides with the priced optimum is not guaranteed;
// internal/comm's package documentation spells out where the two diverge.
package placement

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// Assignment is a computed placement for the tasks of a program.
type Assignment struct {
	// Policy is the name of the policy that produced the assignment.
	Policy string
	// TaskPU maps each task to the PU its computation thread is bound to;
	// -1 leaves the task to the OS scheduler.
	TaskPU []int
	// ControlPU maps each task to the PU of its control thread; -1 leaves
	// it unmapped.
	ControlPU []int
	// Strategy records how control threads were handled (TreeMatch only;
	// baselines always report ControlUnmapped).
	Strategy treematch.ControlStrategy
	// VirtualArity is >1 when the tasks oversubscribe the cores.
	VirtualArity int
}

// Policy computes an assignment of program tasks to the machine, given the
// program's affinity matrix.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Assign computes the placement of m.Order() tasks on the machine.
	Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error)
}

// firstPU returns the OS index of the first PU of the core with the given
// level index.
func firstPU(topo *topology.Topology, core int) int {
	return topo.Cores()[core].Children[0].OSIndex
}

// secondPU returns the second hyperthread of a core, or -1 without SMT.
func secondPU(topo *topology.Topology, core int) int {
	c := topo.Cores()[core]
	if len(c.Children) < 2 {
		return -1
	}
	return c.Children[1].OSIndex
}

// TreeMatch is the paper's policy: Algorithm 1 on the core-level topology
// tree, with the distribution requirement ("distribute threads over NUMA
// nodes") enabled by default.
type TreeMatch struct {
	// Options tunes the underlying grouping heuristic.
	Options treematch.Options
	// NoDistribute disables the tree-restriction distribution step, for
	// the ablation that isolates its contribution.
	NoDistribute bool
}

// Name implements Policy.
func (TreeMatch) Name() string { return "treematch" }

// Assign implements Policy: it builds the abstract tree whose leaves are
// the physical cores, runs Algorithm 1 (with the control-thread and
// oversubscription adaptations), and translates core slots to PUs:
// computation threads go to each core's first hyperthread, and control
// threads to the second one when the strategy is hyperthread pairing.
func (p TreeMatch) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: treematch requires a machine")
	}
	topo := mach.Topology()
	tree, err := treematch.FromTopology(topo, topology.Core)
	if err != nil {
		return nil, err
	}
	opts := p.Options
	opts.Distribute = !p.NoDistribute
	// The per-core minimum (not the first core's fan-out) decides whether
	// hyperthread pairing is available: see topology.SMTWays.
	res, err := treematch.Map(treematch.Target{Tree: tree, SMTWays: topo.SMTWays()}, m, opts)
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		Policy:       p.Name(),
		TaskPU:       make([]int, m.Order()),
		ControlPU:    make([]int, m.Order()),
		Strategy:     res.Strategy,
		VirtualArity: res.VirtualArity,
	}
	for i := 0; i < m.Order(); i++ {
		a.TaskPU[i] = firstPU(topo, res.Assignment[i])
		switch {
		case res.Control[i] < 0:
			a.ControlPU[i] = -1
		case res.Strategy == treematch.ControlHyperthread:
			a.ControlPU[i] = secondPU(topo, res.Control[i])
		default:
			a.ControlPU[i] = firstPU(topo, res.Control[i])
		}
	}
	return a, nil
}

// Compact packs task i onto core i modulo the core count, filling sockets
// in order. Control threads are left to the OS.
type Compact struct{}

// Name implements Policy.
func (Compact) Name() string { return "compact" }

// Assign implements Policy.
func (Compact) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: compact requires a machine")
	}
	topo := mach.Topology()
	a := unboundControls(m.Order(), "compact")
	for i := range a.TaskPU {
		a.TaskPU[i] = firstPU(topo, i%topo.NumCores())
	}
	a.VirtualArity = (m.Order() + topo.NumCores() - 1) / topo.NumCores()
	return a, nil
}

// Scatter strides tasks across the sockets round-robin: consecutive tasks
// land on different sockets — the worst reasonable layout for a stencil.
type Scatter struct{}

// Name implements Policy.
func (Scatter) Name() string { return "scatter" }

// Assign implements Policy. Cores are dealt out socket by socket in
// round-robin order — consecutive tasks land on different sockets for as
// long as more than one socket still has free cores — which stays correct
// on uneven machines where the sockets do not evenly divide the cores (the
// old arithmetic `(k/sockets) % (cores/sockets)` aliased cores there, and
// divided by zero with more sockets than cores).
func (Scatter) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: scatter requires a machine")
	}
	topo := mach.Topology()
	order := scatterOrder(topo)
	a := unboundControls(m.Order(), "scatter")
	for i := range a.TaskPU {
		a.TaskPU[i] = firstPU(topo, order[i%len(order)])
	}
	a.VirtualArity = (m.Order() + len(order) - 1) / len(order)
	return a, nil
}

// scatterOrder lists the core level-indices in socket-interleaved order:
// every socket's first core, then every socket's second core, and so on,
// skipping sockets that have run out of cores.
func scatterOrder(topo *topology.Topology) []int {
	cores := topo.Cores()
	packs := topo.Level(topo.DepthOf(topology.Package))
	var queues [][]int
	if len(packs) > 0 {
		index := make(map[*topology.Object]int, len(packs))
		for i, p := range packs {
			index[p] = i
		}
		queues = make([][]int, len(packs))
		for c, core := range cores {
			i := index[core.Ancestor(topology.Package)]
			queues[i] = append(queues[i], c)
		}
	} else {
		all := make([]int, len(cores))
		for c := range all {
			all[c] = c
		}
		queues = [][]int{all}
	}
	order := make([]int, 0, len(cores))
	for pos := 0; len(order) < len(cores); pos++ {
		for _, q := range queues {
			if pos < len(q) {
				order = append(order, q[pos])
			}
		}
	}
	return order
}

// Random binds tasks to a seed-determined random permutation of the cores.
type Random struct {
	Seed int64
}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Assign implements Policy.
func (p Random) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: random requires a machine")
	}
	topo := mach.Topology()
	rng := rand.New(rand.NewSource(p.Seed))
	perm := rng.Perm(topo.NumCores())
	a := unboundControls(m.Order(), "random")
	for i := range a.TaskPU {
		a.TaskPU[i] = firstPU(topo, perm[i%len(perm)])
	}
	a.VirtualArity = (m.Order() + len(perm) - 1) / len(perm)
	return a, nil
}

// NoBind leaves every thread to the OS scheduler: the paper's "ORWL
// NoBind" configuration.
type NoBind struct{}

// Name implements Policy.
func (NoBind) Name() string { return "nobind" }

// Assign implements Policy.
func (NoBind) Assign(_ *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	a := unboundControls(m.Order(), "nobind")
	for i := range a.TaskPU {
		a.TaskPU[i] = -1
	}
	a.VirtualArity = 1
	return a, nil
}

// unboundControls builds an assignment skeleton with every control thread
// unmapped.
func unboundControls(order int, policy string) *Assignment {
	a := &Assignment{
		Policy:       policy,
		TaskPU:       make([]int, order),
		ControlPU:    make([]int, order),
		Strategy:     treematch.ControlUnmapped,
		VirtualArity: 1,
	}
	for i := range a.ControlPU {
		a.ControlPU[i] = -1
	}
	return a
}

// Apply binds the runtime's tasks (and control threads) according to the
// assignment. The assignment order must match the runtime's task order —
// which it does when the matrix came from rt.CommMatrix().
func Apply(rt *orwl.Runtime, a *Assignment) error {
	tasks := rt.Tasks()
	if len(tasks) != len(a.TaskPU) {
		return fmt.Errorf("placement: assignment order %d, runtime has %d tasks", len(a.TaskPU), len(tasks))
	}
	for i, t := range tasks {
		if err := rt.Bind(t, a.TaskPU[i]); err != nil {
			return err
		}
		if err := rt.BindControl(t, a.ControlPU[i]); err != nil {
			return err
		}
	}
	return nil
}

// Place runs the paper's full pipeline on an ORWL program: extract the
// affinity matrix from the runtime, compute the placement with the policy,
// and apply it. It returns the assignment for inspection.
func Place(rt *orwl.Runtime, pol Policy) (*Assignment, error) {
	a, err := pol.Assign(rt.Machine(), rt.CommMatrix())
	if err != nil {
		return nil, err
	}
	if err := Apply(rt, a); err != nil {
		return nil, err
	}
	return a, nil
}

// SetContention derives the static contention model of the machine from an
// assignment. heavy[i] marks the tasks with a significant per-iteration
// working set (for LK23, the main operations; frontier ops move only
// strips); nil means all tasks are heavy.
//
// Every memory node is charged the machine-wide average pressure — total
// heavy streams divided by the node count — because the data of an
// iterative block workload is spread across the nodes by construction
// (bound: one block home per task's node; unbound: uniform roaming first
// touch). Unbound heavy tasks additionally cross the inter-socket fabric
// with probability (nodes-1)/nodes, which sets the remote-stream count;
// bound tasks stream locally and add none.
func SetContention(mach *numasim.Machine, a *Assignment, heavy []bool) {
	nodes := mach.Topology().NumNUMANodes()
	total, unbound := 0, 0
	for i, pu := range a.TaskPU {
		if heavy != nil && i < len(heavy) && !heavy[i] {
			continue
		}
		total++
		if pu < 0 {
			unbound++
		}
	}
	perNode := (total + nodes - 1) / nodes
	for n := 0; n < nodes; n++ {
		mach.SetAccessors(n, perNode)
	}
	remote := 0
	if nodes > 1 {
		remote = unbound * (nodes - 1) / nodes
	}
	mach.SetRemoteStreams(remote)
}

// SetFabricContention derives the cluster-fabric contention from an
// assignment and the program's affinity matrix, per link and per fabric
// level: every task that exchanges volume with a task placed on another
// cluster node contributes one stream on its node's NIC link, and — at
// every outer fabric level (rack uplinks, pod uplinks) where some partner
// sits in a different group — one stream on its own group's uplink at that
// level. The counts are declared with numasim.Machine.SetLinkStreams, so a
// transfer is capped by the most contended link on its path: partitions
// that balance the crossing streams across NICs, racks and pods sustain
// more bandwidth than ones that funnel them, even at equal total cut. An
// unbound task on a multi-node machine roams and is counted on every link
// of every level. A no-op on single-machine topologies.
func SetFabricContention(mach *numasim.Machine, a *Assignment, m *comm.Matrix) {
	nodes := mach.Topology().NumClusterNodes()
	levels := mach.NumFabricLevels()
	if nodes <= 1 {
		return
	}
	if levels == 0 {
		setRoutedFabricContention(mach, a, m)
		return
	}
	counts := make([][]int, levels)
	for l := range counts {
		counts[l] = make([]int, mach.FabricLevelSize(l))
	}
	crossesAt := make([]bool, levels)
	for i := 0; i < m.Order() && i < len(a.TaskPU); i++ {
		partnerUnbound, hasTraffic := false, false
		for l := range crossesAt {
			crossesAt[l] = false
		}
		for j := 0; j < m.Order() && j < len(a.TaskPU); j++ {
			if i == j || m.At(i, j)+m.At(j, i) == 0 {
				continue
			}
			hasTraffic = true
			pj := a.TaskPU[j]
			if a.TaskPU[i] < 0 || pj < 0 {
				partnerUnbound = true
				continue
			}
			ci, cj := mach.ClusterNodeOfPU(a.TaskPU[i]), mach.ClusterNodeOfPU(pj)
			for l := 0; l < levels && mach.FabricGroupOf(l, ci) != mach.FabricGroupOf(l, cj); l++ {
				crossesAt[l] = true
			}
		}
		switch {
		case !hasTraffic:
			// A task that exchanges no volume contributes no stream, bound
			// or not (the old global model's guard, preserved).
		case a.TaskPU[i] < 0:
			// An unbound endpoint can stream over any link; count it on all
			// of them, the conservative reading of the old global model.
			for l := range counts {
				for g := range counts[l] {
					counts[l][g]++
				}
			}
		case crossesAt[0] || partnerUnbound:
			// A bound task whose partner is unbound may end up streaming
			// anywhere, so its own links at every level carry the stream.
			ci := mach.ClusterNodeOfPU(a.TaskPU[i])
			for l := range counts {
				if crossesAt[l] || partnerUnbound {
					counts[l][mach.FabricGroupOf(l, ci)]++
				}
			}
		}
	}
	for l, c := range counts {
		mach.SetLinkStreams(l, c)
	}
}

// setRoutedFabricContention is the shaped-fabric (torus/dragonfly) arm of
// SetFabricContention: with no level structure to address links by, streams
// are counted per routed edge. Every task with cross-node traffic contributes
// one stream to each edge on the routed path to any of its partners' nodes;
// a task with an unbound endpoint (its own, or a partner's) may stream over
// any link and is counted on every edge, the conservative reading of the
// tree model's roaming rule. A no-op on fabrics without a routed graph.
func setRoutedFabricContention(mach *numasim.Machine, a *Assignment, m *comm.Matrix) {
	g := mach.FabricGraph()
	if g == nil {
		return
	}
	counts := make([]int, g.NumEdges())
	used := make([]bool, g.NumEdges())
	for i := 0; i < m.Order() && i < len(a.TaskPU); i++ {
		partnerUnbound, hasTraffic := false, false
		for e := range used {
			used[e] = false
		}
		for j := 0; j < m.Order() && j < len(a.TaskPU); j++ {
			if i == j || m.At(i, j)+m.At(j, i) == 0 {
				continue
			}
			hasTraffic = true
			pj := a.TaskPU[j]
			if a.TaskPU[i] < 0 || pj < 0 {
				partnerUnbound = true
				continue
			}
			ci, cj := mach.ClusterNodeOfPU(a.TaskPU[i]), mach.ClusterNodeOfPU(pj)
			if ci == cj {
				continue
			}
			for _, e := range mach.RoutedPathEdges(ci, cj) {
				used[e] = true
			}
		}
		switch {
		case !hasTraffic:
		case a.TaskPU[i] < 0 || partnerUnbound:
			for e := range counts {
				counts[e]++
			}
		default:
			for e, u := range used {
				if u {
					counts[e]++
				}
			}
		}
	}
	mach.SetEdgeStreams(counts)
}
