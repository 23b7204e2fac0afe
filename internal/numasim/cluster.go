package numasim

import (
	"fmt"

	"repro/internal/topology"
)

// Platform is a simulated multi-machine cluster built from a single topology
// spec: a set of (possibly heterogeneous) member Machines joined by an
// interconnect fabric of any depth — flat single-switch, racked (ToR +
// spine), or pod-tiered (ToR + pod switch + core switch) — priced with
// per-level link latency and bandwidth. The platform is simulated through a
// single fused Machine whose topology carries the fabric tiers above the
// per-node trees, so that lock handoffs and region pulls crossing a node
// boundary charge network cycles instead of cache or memory cycles (see
// Machine.TransferCost). The member Machines expose each node's
// shared-memory view for per-node placement (hierarchical TreeMatch runs
// Algorithm 1 on one member's topology).
type Platform struct {
	fused   *Machine
	members []*Machine
	levels  []FabricLevel
}

// FabricLevel describes the links of one fabric tier, innermost first:
// level 0 the per-node NIC links, level 1 the rack uplinks, level 2 the pod
// uplinks.
type FabricLevel struct {
	// LatencyCycles is the per-link latency of one link at this level in CPU
	// cycles; a message traverses both endpoint links of every level below
	// (and including) the first tier the endpoints share.
	LatencyCycles float64
	// BandwidthBytesPerSec is the per-link bandwidth at this level, shared by
	// every stream declared to cross the link.
	BandwidthBytesPerSec float64
}

// Fabric is the link-attribute override block of the experiment configs:
// NIC and rack-uplink latencies and bandwidths, plus a rack count the
// experiment builders turn into a rack tier of the platform spec. Zero
// fields take the defaults of topology.DefaultAttrs (a 2016-era
// 10-Gigabit-Ethernet class network with 2×10GbE-class rack uplinks);
// Defaults bridges the block to NewPlatformAttrs.
//
// Deprecated: express the fabric in the platform spec and override link
// attributes via NewPlatformAttrs; this struct cannot describe a pod tier.
type Fabric struct {
	// LinkLatencyCycles is the latency of one fabric (NIC) link in CPU
	// cycles; a message between two nodes of the same switch traverses two
	// such links.
	LinkLatencyCycles float64
	// LinkBandwidthBytesPerSec is the bandwidth of one fabric (NIC) link.
	LinkBandwidthBytesPerSec float64
	// Racks splits the cluster nodes across that many top-of-rack switches
	// (each rack gets an equal share of the nodes; the node count must be
	// divisible). 0 or 1 keeps the flat single-switch fabric. A message
	// between nodes in different racks traverses two NIC links plus two rack
	// uplinks.
	Racks int
	// UplinkLatencyCycles is the latency of one rack uplink (top-of-rack
	// switch to spine) in CPU cycles.
	UplinkLatencyCycles float64
	// UplinkBandwidthBytesPerSec is the bandwidth of one rack uplink, shared
	// by every stream leaving the rack.
	UplinkBandwidthBytesPerSec float64
}

// Defaults merges the fabric's non-zero link attributes onto
// topology.DefaultAttrs, the bridge from the override block to
// NewPlatformAttrs.
func (f Fabric) Defaults() topology.Defaults {
	def := topology.DefaultAttrs()
	if f.LinkLatencyCycles > 0 {
		def.NetLatencyCycles = f.LinkLatencyCycles
	}
	if f.LinkBandwidthBytesPerSec > 0 {
		def.NetBandwidth = f.LinkBandwidthBytesPerSec
	}
	if f.UplinkLatencyCycles > 0 {
		def.UplinkLatencyCycles = f.UplinkLatencyCycles
	}
	if f.UplinkBandwidthBytesPerSec > 0 {
		def.UplinkBandwidth = f.UplinkBandwidthBytesPerSec
	}
	return def
}

// NewPlatform builds a platform from a full topology spec with default link
// attributes. The spec names the fabric tiers from the outside in and the
// member machines, which may differ per node:
//
//	cluster:4 pack:2 core:8                          four identical nodes
//	rack:2 node:2,3 pack:2 core:8                    uneven racks
//	rack:2 node:{pack:2 core:8 | pack:1 core:4}      heterogeneous members
//	pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}   three switch tiers
//
// See topology.ParsePlatform for the grammar. A spec without fabric tiers
// yields a single-node platform.
func NewPlatform(spec string, cfg Config) (*Platform, error) {
	return NewPlatformAttrs(spec, topology.DefaultAttrs(), cfg)
}

// NewPlatformAttrs is NewPlatform with explicit physical attributes (link
// latencies and bandwidths per fabric tier, cache and memory constants for
// the members).
func NewPlatformAttrs(spec string, def topology.Defaults, cfg Config) (*Platform, error) {
	ps, err := topology.ParsePlatform(spec)
	if err != nil {
		return nil, fmt.Errorf("numasim: platform spec: %w", err)
	}
	fusedSpec, err := ps.FusedSpec()
	if err != nil {
		return nil, fmt.Errorf("numasim: platform spec: %w", err)
	}
	fusedTopo, err := topology.FromSpecAttrs(fusedSpec, def)
	if err != nil {
		return nil, fmt.Errorf("numasim: fused platform spec: %w", err)
	}
	fused, err := New(fusedTopo, cfg)
	if err != nil {
		return nil, err
	}
	p := &Platform{fused: fused}
	for _, lv := range fusedTopo.FabricLevels() {
		p.levels = append(p.levels, FabricLevel{
			LatencyCycles:        lv[0].Attr.LatencyCycles,
			BandwidthBytesPerSec: lv[0].Attr.BandwidthBytesPerSec,
		})
	}
	for i, member := range ps.Members {
		// Each member gets its own topology instance so per-node state
		// (accessors, bound Procs) stays independent.
		mt, err := topology.FromSpecAttrs(member, def)
		if err != nil {
			return nil, fmt.Errorf("numasim: platform member %d: %w", i, err)
		}
		mm, err := New(mt, cfg)
		if err != nil {
			return nil, err
		}
		p.members = append(p.members, mm)
	}
	return p, nil
}

// Machine returns the fused platform-wide simulation machine the runtime
// executes on: PUs, cores and NUMA nodes of all members in left-to-right
// order, with fabric-priced cross-node costs.
func (c *Platform) Machine() *Machine { return c.fused }

// Nodes returns the number of cluster nodes.
func (c *Platform) Nodes() int { return len(c.members) }

// Node returns the i-th member machine: the shared-memory view of one
// cluster node, used for per-node placement.
func (c *Platform) Node(i int) *Machine { return c.members[i] }

// NodeCores returns the number of physical cores of the i-th member, the
// capacity weight of capacity-aware partitioning.
func (c *Platform) NodeCores(i int) int { return c.members[i].Topology().NumCores() }

// Heterogeneous reports whether the members differ in core count.
func (c *Platform) Heterogeneous() bool {
	for i := 1; i < len(c.members); i++ {
		if c.NodeCores(i) != c.NodeCores(0) {
			return true
		}
	}
	return false
}

// FabricLevels returns the per-level link attributes of the fabric,
// innermost first (NICs, then rack uplinks, then pod uplinks). Empty on a
// single-node platform.
func (c *Platform) FabricLevels() []FabricLevel {
	return append([]FabricLevel(nil), c.levels...)
}

// Racks returns the number of top-of-rack switches (1 on a flat fabric).
func (c *Platform) Racks() int {
	if r := c.fused.Topology().NumRacks(); r > 0 {
		return r
	}
	return 1
}

// Pods returns the number of pod switches (0 without a pod tier).
func (c *Platform) Pods() int { return c.fused.Topology().NumPods() }

// RackOfNode returns the rack index of a cluster node (0 on a flat fabric).
func (c *Platform) RackOfNode(i int) int { return c.fused.RackOfClusterNode(i) }

// NodeOfPU returns the cluster-node index owning a fused-machine PU.
func (c *Platform) NodeOfPU(pu int) int { return c.fused.ClusterNodeOfPU(pu) }
