// Package numasim is a deterministic virtual-time simulator of a NUMA
// shared-memory machine. It substitutes for the 192-core SMP of the paper's
// evaluation, which cannot be reproduced directly in Go: the Go scheduler
// offers no core pinning, and the development container has two cores.
//
// The simulator does not interpret instructions. Instead, execution contexts
// (Proc) carry a virtual clock in CPU cycles, and the workload charges three
// kinds of costs against it:
//
//   - Compute: arithmetic, converted through a flops-per-cycle rate;
//   - memory traffic (MemRead/MemWrite): bytes moved between the Proc's
//     current PU and the NUMA node holding a Region, priced by latency,
//     distance-degraded bandwidth, and per-node contention;
//   - transfers (TransferCost): the cost of handing data from one PU to
//     another, used by the ORWL runtime when a lock (and the data it
//     protects) moves between tasks — cheap under a shared cache, expensive
//     across sockets.
//
// All costs are pure functions of (topology, placement, workload), so the
// resulting makespan — the maximum of the final clocks — is deterministic
// and independent of the real Go scheduler. Contention is modelled with
// static per-node accessor counts derived from the placement, which keeps
// the engine order-insensitive (see DESIGN.md §5.2).
//
// # Units
//
// Every cost in this package is measured in CPU cycles of the simulated
// clock (ClockHz); CyclesToSeconds converts to simulated seconds.
// Intra-machine charges derive from cache/memory latencies and bandwidths;
// transfers that cross a cluster-node boundary charge network cycles
// instead — the accumulated per-link latency of the actual hop path (NIC
// links, plus rack uplinks across racks and pod uplinks across pods;
// fabricLatencyCycles) and streaming at the bottleneck link bandwidth, each
// link shared by its declared crossing streams (per-edge SetEdgeStreams, or
// the per-level SetLinkStreams form on tree fabrics; a link without a
// declared count is uncapped). The simulator prices whatever placement it is
// given; it does not optimize. The placement side optimizes a structural
// byte×hop objective whose units never appear here — internal/comm's
// package documentation records where the two models are known to diverge.
package numasim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/topology"
)

// Config holds the microarchitectural constants of the simulated machine.
// Zero fields are replaced by the defaults of DefaultConfig.
type Config struct {
	// FlopsPerCycle is the per-core arithmetic throughput (FLOP/cycle).
	FlopsPerCycle float64
	// CacheBandwidthBytesPerCycle is the bandwidth of transfers served by a
	// shared cache (used for on-chip handoffs).
	CacheBandwidthBytesPerCycle float64
	// SMTComputeInflation is the factor applied to compute costs when two
	// bound Procs share a physical core (>= 1; 1 disables the effect).
	SMTComputeInflation float64
	// MigrationPenaltyCycles is charged every time an unbound Proc is
	// migrated by the simulated OS scheduler (pipeline drain + cache refill
	// latency, on top of the cold-cache effect on subsequent traffic).
	MigrationPenaltyCycles float64
	// MinCacheMissFactor bounds from below the fraction of a working set
	// that must be re-streamed from memory per sweep when the set fits in
	// the last-level cache (some traffic always escapes: cold misses,
	// write-backs, conflict misses).
	MinCacheMissFactor float64
	// InterconnectBandwidth is the aggregate bandwidth, in bytes/second, of
	// the machine's inter-socket fabric. Every remote memory stream shares
	// it (see SetRemoteStreams); 2011-era 24-socket SMPs sustained a few
	// GB/s per socket of cross-traffic, ~55 GB/s machine-wide.
	InterconnectBandwidth float64
}

// DefaultConfig returns constants plausible for the 2016-era machine of the
// paper (2-wide SSE floating point, ~32 B/cycle cache transfers).
func DefaultConfig() Config {
	return Config{
		FlopsPerCycle:               2,
		CacheBandwidthBytesPerCycle: 16,
		SMTComputeInflation:         1.6,
		MigrationPenaltyCycles:      50_000,
		MinCacheMissFactor:          0.15,
		InterconnectBandwidth:       55e9,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.FlopsPerCycle == 0 {
		c.FlopsPerCycle = d.FlopsPerCycle
	}
	if c.CacheBandwidthBytesPerCycle == 0 {
		c.CacheBandwidthBytesPerCycle = d.CacheBandwidthBytesPerCycle
	}
	if c.SMTComputeInflation == 0 {
		c.SMTComputeInflation = d.SMTComputeInflation
	}
	if c.MigrationPenaltyCycles == 0 {
		c.MigrationPenaltyCycles = d.MigrationPenaltyCycles
	}
	if c.MinCacheMissFactor == 0 {
		c.MinCacheMissFactor = d.MinCacheMissFactor
	}
	if c.InterconnectBandwidth == 0 {
		c.InterconnectBandwidth = d.InterconnectBandwidth
	}
	return c
}

// Machine is a simulated NUMA machine built over a hardware topology. After
// setup (binding Procs, setting accessor counts) it is read-only and safe
// for concurrent use by many Procs.
type Machine struct {
	topo *topology.Topology
	cfg  Config

	clockHz float64
	// nodeOf[pu] is the NUMA node index local to each PU.
	nodeOf []int
	// coreOf[pu] is the core index of each PU.
	coreOf []int
	// cnodeOf[pu] is the cluster-node index of each PU (0 on a single
	// machine).
	cnodeOf []int
	// cnodeOfNUMA[node] is the cluster-node index of each NUMA node.
	cnodeOfNUMA []int
	// fabricLevels[l] lists the link objects of fabric level l, innermost
	// first: level 0 the cluster nodes (NIC links), level 1 the racks (ToR
	// uplinks), level 2 the pods (pod uplinks) — see topology.FabricLevels.
	// Nil on single-machine topologies.
	fabricLevels [][]*topology.Object
	// fabricGroupOf[l][c] is the index, within fabric level l, of cluster
	// node c's ancestor (the identity at level 0). Two cluster nodes'
	// hop path includes both endpoint links of every level where their
	// group indices differ.
	fabricGroupOf [][]int
	// fabricLinkLat[l][g] and fabricLinkBW[l][g] are the latency and
	// bandwidth attributes of link g at fabric level l, flattened out of the
	// topology objects once at construction so the per-transfer pricing paths
	// never chase object pointers.
	fabricLinkLat [][]float64
	fabricLinkBW  [][]float64
	// fabricCumLat[c][d] is the cached fabric distance table: the summed
	// latency of cluster node c's own-side links over fabric levels < d.
	// Since the hop path between two nodes diverging at level d traverses
	// both endpoint links of every level below d, its total latency is
	// fabricCumLat[from][d] + fabricCumLat[to][d] — two lookups instead of a
	// tree walk. Built once per topology in New.
	fabricCumLat [][]float64
	// fabricGraph is the routed fabric graph (topology.FabricGraph): the
	// torus/dragonfly graph on a shaped fabric, the compiled tree otherwise.
	// Nil on single-machine topologies. Shaped fabrics have no fabricLevels —
	// they price along routed edge paths instead of the per-level tables.
	fabricGraph *topology.FabricGraph
	// edgeLat[e] and edgeBW[e] are the fabric graph's edge attributes,
	// flattened once at construction for the pricing hot paths.
	edgeLat []float64
	edgeBW  []float64
	// levelEdge[l][g] is the fabric-graph edge id of link g at tree fabric
	// level l — the bridge that lets the per-level SetLinkStreams form
	// address the per-edge stream storage. Empty on shaped fabrics.
	levelEdge [][]int
	// l3Share[pu] is the slice of the innermost shared cache a PU can count
	// on, in bytes (cache size / PUs sharing it).
	l3Share []int64

	// Fault state, installed by ApplyFaultEvents. These fields are written
	// only while every Proc is quiesced — before Run, or inside an epoch
	// hook, which the barrier's lock edges order before any task's
	// subsequent charge — so the pricing hot paths read them without taking
	// mu. On a healthy machine all three stay at their zero values and every
	// fault branch below is skipped, keeping no-fault pricing bit-identical.
	//
	// deadCNode[c] marks cluster node c unreachable (nil until a kill).
	deadCNode []bool
	// edgeFaultFactor[e] is the remaining bandwidth fraction of fabric edge
	// e: 1 healthy, (0,1) degraded, 0 severed. Nil until an edge fault.
	edgeFaultFactor []float64
	// hasSevered records that some edge factor is 0, so memCostCycles must
	// check routed paths for unreachability.
	hasSevered bool
	// routingPolicy selects minimal or Valiant routing on the fabric graph.
	// Like the fault state it only changes while the machine is quiesced,
	// so pricing reads it without the lock. RouteMinimal (the zero value)
	// keeps pricing bit-identical to earlier revisions.
	routingPolicy RoutingPolicy

	mu sync.Mutex
	// accessors[node] is the static contention degree of each memory node:
	// how many execution streams hit it concurrently in steady state.
	accessors []int
	// remoteStreams is the static number of memory streams crossing the
	// inter-socket fabric in steady state; they share
	// cfg.InterconnectBandwidth.
	remoteStreams int
	// edgeStreams[e], when edgeStreams is non-nil and edgeStreams[e] >= 0,
	// is the number of crossing streams touching fabric-graph edge e; a
	// negative entry (or a nil slice) leaves that edge uncapped. A transfer
	// is capped by the most contended edge on its routed path, so balancing
	// the crossing streams across the fabric recovers bandwidth. On tree
	// fabrics SetLinkStreams addresses this same storage through levelEdge,
	// so per-level declarations price identically through the per-edge
	// path. The slice is replaced wholesale
	// on every update (copy-on-write), so a snapshot taken under the lock
	// stays consistent outside it.
	edgeStreams []int
	// boundPerPU counts bound Procs per PU. SMT compute inflation applies
	// when at least two PUs of the same core are occupied (hyperthread
	// sharing); several Procs time-multiplexed on one PU do not inflate —
	// they overlap in virtual time, an optimistic but deliberate choice
	// documented in DESIGN.md.
	boundPerPU []int
	// pusOfCore lists the PU indices under each core.
	pusOfCore [][]int
}

// New builds a simulated machine over the given topology.
func New(topo *topology.Topology, cfg Config) (*Machine, error) {
	if topo == nil {
		return nil, fmt.Errorf("numasim: nil topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("numasim: invalid topology: %w", err)
	}
	m := &Machine{
		topo:        topo,
		cfg:         cfg.withDefaults(),
		clockHz:     topo.Root().Attr.ClockHz,
		nodeOf:      make([]int, topo.NumPUs()),
		coreOf:      make([]int, topo.NumPUs()),
		cnodeOf:     make([]int, topo.NumPUs()),
		cnodeOfNUMA: make([]int, topo.NumNUMANodes()),
		l3Share:     make([]int64, topo.NumPUs()),
		accessors:   make([]int, topo.NumNUMANodes()),
		boundPerPU:  make([]int, topo.NumPUs()),
		pusOfCore:   make([][]int, topo.NumCores()),
	}
	if m.clockHz == 0 {
		m.clockHz = 2.27e9
	}
	for i, pu := range topo.PUs() {
		m.nodeOf[i] = topo.NUMANodeOf(pu).LevelIndex
		core := pu.Ancestor(topology.Core).LevelIndex
		m.coreOf[i] = core
		m.pusOfCore[core] = append(m.pusOfCore[core], i)
		m.l3Share[i] = cacheShare(topo, pu)
		if c := topo.ClusterNodeOf(pu); c != nil {
			m.cnodeOf[i] = c.LevelIndex
		}
	}
	for n, node := range topo.NUMANodes() {
		if c := topo.ClusterNodeOf(node); c != nil {
			m.cnodeOfNUMA[n] = c.LevelIndex
		}
	}
	if levels := topo.FabricLevels(); len(levels) > 0 {
		m.fabricLevels = levels
		m.fabricGroupOf = make([][]int, len(levels))
		for l, lv := range levels {
			kind := lv[0].Kind
			m.fabricGroupOf[l] = make([]int, len(topo.ClusterNodes()))
			for c, node := range topo.ClusterNodes() {
				m.fabricGroupOf[l][c] = node.Ancestor(kind).LevelIndex
			}
		}
		// Flatten the link attributes and build the per-node cumulative
		// latency prefixes that turn the hop-path walk into table lookups.
		m.fabricLinkLat = make([][]float64, len(levels))
		m.fabricLinkBW = make([][]float64, len(levels))
		for l, lv := range levels {
			lat := make([]float64, len(lv))
			bw := make([]float64, len(lv))
			for g, link := range lv {
				lat[g] = link.Attr.LatencyCycles
				bw[g] = link.Attr.BandwidthBytesPerSec
			}
			m.fabricLinkLat[l] = lat
			m.fabricLinkBW[l] = bw
		}
		m.fabricCumLat = make([][]float64, len(topo.ClusterNodes()))
		for c := range m.fabricCumLat {
			cum := make([]float64, len(levels)+1)
			for l := range levels {
				cum[l+1] = cum[l] + m.fabricLinkLat[l][m.fabricGroupOf[l][c]]
			}
			m.fabricCumLat[c] = cum
		}
	}
	if g := topo.FabricGraph(); g != nil {
		m.fabricGraph = g
		m.edgeLat = make([]float64, g.NumEdges())
		m.edgeBW = make([]float64, g.NumEdges())
		for i, e := range g.Edges() {
			m.edgeLat[i] = e.LatencyCycles
			m.edgeBW[i] = e.BandwidthBytesPerSec
		}
		m.levelEdge = make([][]int, g.NumLevels())
		for l := range m.levelEdge {
			m.levelEdge[l] = g.LevelEdges(l)
		}
	}
	for i := range m.accessors {
		m.accessors[i] = 1
	}
	return m, nil
}

// cacheShare returns the bytes of the innermost large shared cache available
// to one PU: the largest cache above it divided by the number of PUs below
// that cache.
func cacheShare(topo *topology.Topology, pu *topology.Object) int64 {
	var best int64
	for cur := pu.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind.IsCache() && cur.Attr.CacheSize > 0 {
			share := cur.Attr.CacheSize / int64(countPUs(cur))
			if share > best {
				best = share
			}
		}
	}
	return best
}

func countPUs(o *topology.Object) int {
	if o.Kind == topology.PU {
		return 1
	}
	n := 0
	for _, c := range o.Children {
		n += countPUs(c)
	}
	return n
}

// Topology returns the underlying hardware topology.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Config returns the effective microarchitectural constants.
func (m *Machine) Config() Config { return m.cfg }

// ClockHz returns the simulated core frequency.
func (m *Machine) ClockHz() float64 { return m.clockHz }

// NodeOfPU returns the NUMA node index local to the given PU.
func (m *Machine) NodeOfPU(pu int) int { return m.nodeOf[pu] }

// SetAccessors declares the static contention degree of a memory node: the
// number of execution streams that hit it concurrently in steady state. The
// node's bandwidth is shared equally among them. Placement code calls this
// once the task layout is known; the default is 1 (no contention).
func (m *Machine) SetAccessors(node, count int) {
	if count < 1 {
		count = 1
	}
	m.mu.Lock()
	m.accessors[node] = count
	m.mu.Unlock()
}

// Accessors returns the contention degree of a node.
func (m *Machine) Accessors(node int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.accessors[node]
}

// ResetAccessors restores every node to contention degree 1 and clears the
// remote-stream and per-edge fabric-stream counts.
func (m *Machine) ResetAccessors() {
	m.mu.Lock()
	for i := range m.accessors {
		m.accessors[i] = 1
	}
	m.remoteStreams = 0
	m.edgeStreams = nil
	m.mu.Unlock()
}

// SetRemoteStreams declares how many memory streams cross the inter-socket
// fabric in steady state; each remote access is additionally capped by an
// equal share of Config.InterconnectBandwidth. Placement code derives this
// from the task layout; 0 disables the cap.
func (m *Machine) SetRemoteStreams(n int) {
	if n < 0 {
		n = 0
	}
	m.mu.Lock()
	m.remoteStreams = n
	m.mu.Unlock()
}

// RemoteStreams returns the declared fabric contention degree.
func (m *Machine) RemoteStreams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.remoteStreams
}

// NumFabricLevels returns the number of link levels of the cluster fabric,
// innermost first: 0 on a single machine, 1 on a flat (single-switch)
// cluster (the NIC links), 2 with a rack tier (+ ToR uplinks), 3 with a pod
// tier (+ pod uplinks). Shaped (torus/dragonfly) fabrics have no levels —
// 0 here, with FabricGraph carrying the per-edge structure.
func (m *Machine) NumFabricLevels() int { return len(m.fabricLevels) }

// NumFabricEdges returns the number of edges of the routed fabric graph
// (0 on a single machine).
func (m *Machine) NumFabricEdges() int {
	if m.fabricGraph == nil {
		return 0
	}
	return m.fabricGraph.NumEdges()
}

// FabricGraph returns the routed fabric graph the machine prices
// cross-node transfers along, or nil on a single machine.
func (m *Machine) FabricGraph() *topology.FabricGraph { return m.fabricGraph }

// FabricLevelSize returns the number of links at a fabric level (the number
// of cluster nodes, racks, or pods).
func (m *Machine) FabricLevelSize(level int) int { return len(m.fabricLevels[level]) }

// FabricGroupOf returns the index, within the given fabric level, of the
// group containing cluster node c (at level 0, c itself). Two cluster nodes'
// transfer traverses both endpoint links of every level where their group
// indices differ.
func (m *Machine) FabricGroupOf(level, c int) int { return m.fabricGroupOf[level][c] }

// SetEdgeStreams declares the per-edge fabric contention over the routed
// fabric graph: counts[e] is the number of crossing streams touching edge e
// of FabricGraph().Edges(). A transfer is capped by the most contended edge
// on its routed path, so a placement that balances the crossing streams
// across the fabric sustains more bandwidth than one that funnels them
// through a single edge, even at equal total cut. A negative count leaves
// that edge uncapped; passing nil reverts every edge. A mis-sized slice
// panics (a programming error, like an out-of-range index): zero-filling
// missing edges would silently model them as uncontended. This is the
// general form behind the per-level SetLinkStreams wrapper.
func (m *Machine) SetEdgeStreams(counts []int) {
	if m.fabricGraph == nil {
		panic("numasim: SetEdgeStreams on a single-machine topology (no fabric)")
	}
	if counts != nil && len(counts) != m.fabricGraph.NumEdges() {
		panic(fmt.Sprintf("numasim: SetEdgeStreams got %d counts for %d fabric edges",
			len(counts), m.fabricGraph.NumEdges()))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if counts == nil {
		m.edgeStreams = nil
		return
	}
	// Copy-on-write: effectiveBandwidth snapshots the slice under the lock
	// and reads the snapshot outside, so in-place mutation would race.
	m.edgeStreams = append([]int(nil), counts...)
}

// SetLinkStreams declares the per-link fabric contention of one tree-fabric
// level: counts[i] is the number of crossing streams touching link i of that
// level (level 0: cluster node i's NIC; level 1: rack i's uplink; level 2:
// pod i's uplink). The per-level form is a wrapper over the per-edge storage
// of SetEdgeStreams — the level's links map onto fabric-graph edge ids, so
// the declaration prices identically through the per-edge path. Passing nil
// reverts the level's links to uncapped. A mis-sized slice panics (a
// programming error, like an out-of-range index): zero-filling missing
// links would silently model them as uncontended. Shaped (torus/dragonfly)
// fabrics have no levels — declare per-edge counts there.
func (m *Machine) SetLinkStreams(level int, counts []int) {
	if level < 0 || level >= len(m.fabricLevels) {
		panic(fmt.Sprintf("numasim: SetLinkStreams level %d on a %d-level fabric", level, len(m.fabricLevels)))
	}
	if counts != nil && len(counts) != len(m.fabricLevels[level]) {
		panic(fmt.Sprintf("numasim: SetLinkStreams got %d counts for %d links at fabric level %d",
			len(counts), len(m.fabricLevels[level]), level))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := m.copyEdgeStreamsLocked()
	for g, e := range m.levelEdge[level] {
		if counts == nil {
			next[e] = -1
		} else {
			next[e] = counts[g]
		}
	}
	m.edgeStreams = next
}

// copyEdgeStreamsLocked returns a fresh copy of the per-edge stream counts,
// all unset (-1) when none are declared yet. Copy-on-write: the caller
// installs the copy wholesale, so snapshots taken under the lock stay
// consistent outside it.
func (m *Machine) copyEdgeStreamsLocked() []int {
	next := make([]int, m.fabricGraph.NumEdges())
	if m.edgeStreams == nil {
		for i := range next {
			next[i] = -1
		}
		return next
	}
	copy(next, m.edgeStreams)
	return next
}

// EdgeStreams returns the declared crossing-stream count of fabric-graph
// edge e, 0 (uncapped) while the edge's count is unset.
func (m *Machine) EdgeStreams(e int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return edgeStreamCount(m.edgeStreams, e)
}

// LinkStreams returns the declared crossing-stream count of link i at the
// given tree-fabric level, 0 (uncapped) while the link's per-edge count is
// unset.
func (m *Machine) LinkStreams(level, i int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if level >= len(m.levelEdge) {
		return 0
	}
	return edgeStreamCount(m.edgeStreams, m.levelEdge[level][i])
}

// NICStreams returns the declared crossing-stream count of cluster node c's
// NIC link, 0 (uncapped) when none is set.
func (m *Machine) NICStreams(c int) int { return m.LinkStreams(0, c) }

// UplinkStreams returns the declared crossing-stream count of rack r's
// uplink, 0 (uncapped) when none is set or on a single-switch fabric.
func (m *Machine) UplinkStreams(r int) int {
	if len(m.fabricLevels) < 2 {
		return 0
	}
	return m.LinkStreams(1, r)
}

// ClusterNodeOfPU returns the cluster-node index of a PU (0 on a single
// machine).
func (m *Machine) ClusterNodeOfPU(pu int) int { return m.cnodeOf[pu] }

// ClusterNodeOfNode returns the cluster-node index of a NUMA node (0 on a
// single machine).
func (m *Machine) ClusterNodeOfNode(node int) int { return m.cnodeOfNUMA[node] }

// RackOfClusterNode returns the rack index of a cluster node (0 on a
// single-switch fabric, where every node hangs off one switch).
func (m *Machine) RackOfClusterNode(c int) int {
	if len(m.fabricGroupOf) < 2 {
		return 0
	}
	return m.fabricGroupOf[1][c]
}

// SameRack reports whether two cluster nodes share a top-of-rack switch
// (always true on a single-switch fabric).
func (m *Machine) SameRack(fromC, toC int) bool {
	return len(m.fabricGroupOf) < 2 || m.fabricGroupOf[1][fromC] == m.fabricGroupOf[1][toC]
}

// fabricDivergence returns the first fabric level at which two cluster
// nodes share a group — the level their hop path turns around at. Group
// containment is hierarchical, so every level below it contributes both
// endpoint links to the path, and no level above it contributes any.
// Returns len(fabricLevels) if the nodes share no fabric group at all.
func (m *Machine) fabricDivergence(fromC, toC int) int {
	for l := range m.fabricLevels {
		if m.fabricGroupOf[l][fromC] == m.fabricGroupOf[l][toC] {
			return l
		}
	}
	return len(m.fabricLevels)
}

// fabricLatencyCycles prices the latency of the hop path between two
// distinct cluster nodes: at every level where the nodes' groups differ, the
// message traverses both endpoint links of that level (node → ToR and
// ToR → node; across racks additionally ToR → spine and spine → ToR; across
// pods the pod uplinks on top). On a single-switch fabric this is the
// familiar two-link price. The per-level sums are precomputed in the
// fabricCumLat distance table, so the price is two lookups at the
// divergence level instead of a walk over the fabric tree.
func (m *Machine) fabricLatencyCycles(fromC, toC int) float64 {
	if len(m.fabricLevels) == 0 {
		if m.routingPolicy == RouteValiant {
			var lat float64
			for _, e := range m.RoutedPathEdges(fromC, toC) {
				lat += m.edgeLat[e]
			}
			return lat
		}
		// Shaped fabric: the routed-path latency cache inside the graph
		// (pinned equal to the reference walk over Route).
		return m.fabricGraph.PathLatency(fromC, toC)
	}
	cf, ct := m.fabricCumLat[fromC], m.fabricCumLat[toC]
	for l := range m.fabricLevels {
		if m.fabricGroupOf[l][fromC] == m.fabricGroupOf[l][toC] {
			return cf[l] + ct[l]
		}
	}
	d := len(m.fabricLevels)
	return cf[d] + ct[d]
}

// fabricLatencyCyclesWalk is the reference implementation of
// fabricLatencyCycles: it re-walks the fabric tree per call, reading the
// link attributes off the topology objects. Kept (unexported) for the
// cache-equality test and the cached-vs-walked benchmark.
func (m *Machine) fabricLatencyCyclesWalk(fromC, toC int) float64 {
	if len(m.fabricLevels) == 0 {
		var lat float64
		edges := m.fabricGraph.Edges()
		for _, e := range m.routeWalk(fromC, toC) {
			lat += edges[e].LatencyCycles
		}
		return lat
	}
	var lat float64
	for l, links := range m.fabricLevels {
		gf, gt := m.fabricGroupOf[l][fromC], m.fabricGroupOf[l][toC]
		if gf == gt {
			break
		}
		lat += links[gf].Attr.LatencyCycles + links[gt].Attr.LatencyCycles
	}
	return lat
}

// fabricBandwidth returns the bytes/second a stream between two distinct
// cluster nodes can sustain: the bottleneck over the edges of its routed
// path, each edge's bandwidth shared among the streams declared to cross it
// (per-edge counts from SetEdgeStreams or the SetLinkStreams wrapper; an
// edge without a count is uncapped). The stream-count state is passed in by
// the caller — effectiveBandwidth snapshots it under the machine lock it
// already holds, so the hot path takes the lock once. On tree fabrics the path includes,
// at every fabric level where the endpoints' groups differ, both endpoint
// links of that level, read from the flattened fabricLinkBW table and
// addressed into the per-edge stream storage through levelEdge — the same
// arithmetic the per-level model used. Shaped fabrics bottleneck over the
// routed PathEdges.
func (m *Machine) fabricBandwidth(fromC, toC int, streams []int) float64 {
	bw := math.Inf(1)
	if len(m.fabricLevels) == 0 {
		for _, e := range m.RoutedPathEdges(fromC, toC) {
			ebw := m.edgeBW[e]
			if m.edgeFaultFactor != nil {
				ebw *= m.edgeFaultFactor[e]
			}
			if b := shareLink(ebw, edgeStreamCount(streams, e)); b < bw {
				bw = b
			}
		}
		return bw
	}
	d := m.fabricDivergence(fromC, toC)
	for l := 0; l < d; l++ {
		gf, gt := m.fabricGroupOf[l][fromC], m.fabricGroupOf[l][toC]
		for _, g := range [2]int{gf, gt} {
			lbw := m.fabricLinkBW[l][g]
			if m.edgeFaultFactor != nil {
				lbw *= m.edgeFaultFactor[m.levelEdge[l][g]]
			}
			if b := shareLink(lbw, edgeStreamCount(streams, m.levelEdge[l][g])); b < bw {
				bw = b
			}
		}
	}
	return bw
}

// fabricBandwidthWalk is the reference implementation of fabricBandwidth,
// reading the link attributes off the topology objects (or the graph's
// uncached Route) per call. Kept (unexported) for the cache-equality test.
func (m *Machine) fabricBandwidthWalk(fromC, toC int, streams []int) float64 {
	bw := math.Inf(1)
	if len(m.fabricLevels) == 0 {
		edges := m.fabricGraph.Edges()
		for _, e := range m.routeWalk(fromC, toC) {
			ebw := edges[e].BandwidthBytesPerSec
			if m.edgeFaultFactor != nil {
				ebw *= m.edgeFaultFactor[e]
			}
			if b := shareLink(ebw, edgeStreamCount(streams, e)); b < bw {
				bw = b
			}
		}
		return bw
	}
	for l, links := range m.fabricLevels {
		gf, gt := m.fabricGroupOf[l][fromC], m.fabricGroupOf[l][toC]
		if gf == gt {
			break
		}
		for _, g := range [2]int{gf, gt} {
			lbw := links[g].Attr.BandwidthBytesPerSec
			if m.edgeFaultFactor != nil {
				lbw *= m.edgeFaultFactor[m.levelEdge[l][g]]
			}
			if b := shareLink(lbw, edgeStreamCount(streams, m.levelEdge[l][g])); b < bw {
				bw = b
			}
		}
	}
	return bw
}

// edgeStreamCount returns the contention degree of one fabric edge: its
// per-edge count when declared (non-negative), 0 (uncapped) otherwise.
func edgeStreamCount(streams []int, e int) int {
	if streams == nil || streams[e] < 0 {
		return 0
	}
	return streams[e]
}

// shareLink divides a link's bandwidth among its crossing streams.
func shareLink(bw float64, streams int) float64 {
	if streams > 1 {
		return bw / float64(streams)
	}
	return bw
}

// effectiveBandwidth returns the bytes/second a stream on pu can sustain
// from the given node: the node's bandwidth divided by its contention
// degree; remote streams are further capped by the hop-degraded link
// bandwidth and by their share of the interconnect fabric. A stream that
// crosses a cluster-node boundary is capped by the bottleneck fabric link on
// its hop path — NICs and, across racks, uplinks, each shared by its
// declared crossing streams — instead of the SMP interconnect model.
func (m *Machine) effectiveBandwidth(pu, node int) float64 {
	nodeObj := m.topo.NUMANodes()[node]
	m.mu.Lock()
	acc := m.accessors[node]
	remote := m.remoteStreams
	// Snapshot the fabric stream state in the same critical section; the
	// slices are replaced wholesale, never mutated in place, so reading the
	// snapshot outside the lock is safe.
	streams := m.edgeStreams
	m.mu.Unlock()
	bw := nodeObj.Attr.BandwidthBytesPerSec / float64(acc)
	if m.nodeOf[pu] == node {
		return bw
	}
	if m.cnodeOf[pu] != m.cnodeOfNUMA[node] {
		if link := m.fabricBandwidth(m.cnodeOf[pu], m.cnodeOfNUMA[node], streams); link < bw {
			bw = link
		}
		return bw
	}
	if link := m.topo.BandwidthBytesPerSec(m.topo.PU(pu), nodeObj); link < bw {
		bw = link
	}
	if remote > 0 {
		if share := m.cfg.InterconnectBandwidth / float64(remote); share < bw {
			bw = share
		}
	}
	return bw
}

// memLatencyCycles returns the access latency from a PU to a node. Crossing
// a cluster-node boundary charges the fabric's per-link latency on top of
// the target node's memory latency (network cycles instead of the ccNUMA
// hop penalty).
func (m *Machine) memLatencyCycles(pu, node int) float64 {
	local := m.topo.NUMANodes()[m.nodeOf[pu]]
	target := m.topo.NUMANodes()[node]
	base := target.Attr.LatencyCycles
	if local == target {
		return base
	}
	if m.cnodeOf[pu] != m.cnodeOfNUMA[node] {
		return base + m.fabricLatencyCycles(m.cnodeOf[pu], m.cnodeOfNUMA[node])
	}
	hops := m.topo.HopDistance(local, target)
	return base * (1 + float64(hops)/2)
}

// memCostCycles prices moving the given number of bytes between a PU and a
// memory node: one latency plus the streaming time at effective bandwidth.
func (m *Machine) memCostCycles(pu, node int, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	if m.deadCNode != nil {
		if m.deadCNode[m.cnodeOf[pu]] {
			// A dead PU executes nothing: the access cannot complete.
			// Infinity, not an error — pricing paths are pure cost
			// functions, and an Inf surfaces loudly in any gain comparison
			// or makespan instead of silently pricing the impossible.
			return math.Inf(1)
		}
		if m.deadCNode[m.cnodeOfNUMA[node]] {
			// The source memory died with its node, but its contents
			// survive in the checkpoint store: the access re-materializes
			// the bytes from there instead — the same rule
			// MigrationCostCycles prices an evacuation by, and the reason a
			// surviving task can still read a dead partner's last release.
			node = m.CheckpointNode()
		}
	}
	if m.hasSevered && m.severedPath(m.cnodeOf[pu], m.cnodeOfNUMA[node]) {
		// A severed routed path partitions two live nodes; unlike a kill,
		// neither side's memory is lost, so there is no checkpoint to
		// re-materialize from — the access cannot complete.
		return math.Inf(1)
	}
	bw := m.effectiveBandwidth(pu, node)
	if bw <= 0 {
		return m.memLatencyCycles(pu, node)
	}
	bytesPerCycle := bw / m.clockHz
	return m.memLatencyCycles(pu, node) + bytes/bytesPerCycle
}

// TransferCost prices handing bytes produced on fromPU to a consumer on
// toPU, the cost the ORWL runtime charges when a lock moves between tasks:
//
//   - same PU: free (data already in the local cache);
//   - PUs under a shared cache: that cache's latency plus on-chip bandwidth;
//   - same NUMA node: one memory round through the local node;
//   - remote: one memory round priced at the remote distance;
//   - across a cluster-node boundary: the remote round charges network
//     cycles — per-link fabric latency plus streaming at the link bandwidth
//     — instead of cache or ccNUMA memory cycles (see memLatencyCycles and
//     effectiveBandwidth).
func (m *Machine) TransferCost(fromPU, toPU int, bytes float64) float64 {
	if fromPU == toPU {
		return 0
	}
	if fromPU < 0 || toPU < 0 { // unbound end: price as a remote-ish access
		node := 0
		if toPU >= 0 {
			node = m.nodeOf[toPU]
		} else if fromPU >= 0 {
			node = m.nodeOf[fromPU]
		}
		pu := toPU
		if pu < 0 {
			pu = 0
		}
		return m.memCostCycles(pu, node, bytes)
	}
	a, b := m.topo.PU(fromPU), m.topo.PU(toPU)
	if c := m.topo.SharedCache(a, b); c != nil {
		return c.Attr.LatencyCycles + bytes/m.cfg.CacheBandwidthBytesPerCycle
	}
	// The producer's data sits in (or near) the producer's node; the
	// consumer streams it from there.
	return m.memCostCycles(toPU, m.nodeOf[fromPU], bytes)
}

// MigrationCostCycles predicts what moving a bound execution stream from
// fromPU to toPU costs: the migration penalty plus one pull of the given
// working-set bytes from the old PU's node to the new PU (the region
// re-homing copy plus the cold-cache refill it stands for). It is a pure
// function of the current contention state — the prediction an adaptive
// placement engine weighs against the expected communication gain before
// committing to a re-placement (the actual charges happen in
// Proc.MigrateTo and Proc.MigrateRegion). A negative fromPU (unbound
// stream) prices the pull as a node-0 fetch, the serial-init default.
func (m *Machine) MigrationCostCycles(fromPU, toPU int, workingSetBytes float64) float64 {
	if fromPU == toPU {
		return 0
	}
	fromNode := 0
	if fromPU >= 0 {
		fromNode = m.nodeOf[fromPU]
	}
	// When the source node died its memory is gone, and memCostCycles
	// re-materializes the working set from the checkpoint node instead —
	// the price an evacuation pays.
	return m.cfg.MigrationPenaltyCycles + m.memCostCycles(toPU, fromNode, workingSetBytes)
}

// CheckpointCostCycles prices writing a task's working set out to its own
// node's memory — the checkpoint image a preempting scheduler must persist
// before it reclaims the slot mid-service. The respawn on the new cores is
// priced separately by MigrationCostCycles, which pulls the image from the
// old node; together they are the checkpoint/respawn bill a preempted job
// pays when it restarts. A negative pu (unbound stream) has no dirty state
// to flush and checkpoints for free.
func (m *Machine) CheckpointCostCycles(pu int, workingSetBytes float64) float64 {
	if pu < 0 {
		return 0
	}
	return m.memCostCycles(pu, m.nodeOf[pu], workingSetBytes)
}

// MissFactor returns the fraction of a working set that must be re-streamed
// from memory on every sweep, given the PU's share of the last-level cache:
// 1 when the set does not fit at all, decreasing linearly to
// MinCacheMissFactor when it fits entirely.
func (m *Machine) MissFactor(pu int, workingSet int64) float64 {
	share := m.l3Share[pu]
	if share <= 0 || workingSet <= 0 {
		return 1
	}
	ratio := float64(workingSet) / float64(share)
	if ratio >= 1 {
		return 1
	}
	f := m.cfg.MinCacheMissFactor + (1-m.cfg.MinCacheMissFactor)*ratio
	return f
}

// CyclesToSeconds converts virtual cycles to simulated seconds.
func (m *Machine) CyclesToSeconds(cycles float64) float64 {
	return cycles / m.clockHz
}

// bindPU registers a bound Proc on a PU (for SMT compute inflation).
func (m *Machine) bindPU(pu, delta int) {
	m.mu.Lock()
	m.boundPerPU[pu] += delta
	m.mu.Unlock()
}

// computeInflation returns the compute-cost factor for a PU:
// SMTComputeInflation when at least two distinct PUs of the PU's core are
// occupied by bound Procs (hyperthread resource sharing), 1 otherwise.
func (m *Machine) computeInflation(pu int) float64 {
	if pu < 0 {
		return 1
	}
	m.mu.Lock()
	occupied := 0
	for _, p := range m.pusOfCore[m.coreOf[pu]] {
		if m.boundPerPU[p] > 0 {
			occupied++
		}
	}
	m.mu.Unlock()
	if occupied >= 2 {
		return m.cfg.SMTComputeInflation
	}
	return 1
}
