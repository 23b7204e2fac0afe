package numasim

import (
	"testing"

	"repro/internal/topology"
)

// rackCluster builds 2 racks × 2 nodes of 4 cores for the fabric tests.
func rackCluster(t *testing.T) *Platform {
	t.Helper()
	c, err := NewPlatform("rack:2 node:2 pack:1 core:4 pu:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlatformRacks(t *testing.T) {
	c := rackCluster(t)
	if got := c.Racks(); got != 2 {
		t.Fatalf("Racks = %d, want 2", got)
	}
	topo := c.Machine().Topology()
	if topo.NumRacks() != 2 || topo.NumClusterNodes() != 4 {
		t.Fatalf("fused shape: %d racks, %d nodes", topo.NumRacks(), topo.NumClusterNodes())
	}
	for node, wantRack := range []int{0, 0, 1, 1} {
		if got := c.RackOfNode(node); got != wantRack {
			t.Errorf("RackOfNode(%d) = %d, want %d", node, got, wantRack)
		}
	}
	if c.Machine().SameRack(0, 2) {
		t.Error("nodes 0 and 2 must be in different racks")
	}
	if !c.Machine().SameRack(2, 3) {
		t.Error("nodes 2 and 3 must share rack 1")
	}
}

// TestFabricHopPathPricing: a lock handoff between racks pays both NIC links
// and both uplinks, one within a rack only the NIC links — so the cross-rack
// transfer is strictly more expensive, and the flat-fabric price is
// unchanged from a rackless cluster of the same nodes.
func TestFabricHopPathPricing(t *testing.T) {
	c := rackCluster(t)
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 4
	const bytes = 1 << 20
	intraNode := m.TransferCost(0, 1, bytes)         // same machine
	intraRack := m.TransferCost(0, perNode, bytes)   // node 0 → node 1
	crossRack := m.TransferCost(0, 2*perNode, bytes) // node 0 → node 2
	if !(intraNode < intraRack && intraRack < crossRack) {
		t.Fatalf("want intra-node %.0f < intra-rack %.0f < cross-rack %.0f cycles",
			intraNode, intraRack, crossRack)
	}
	// The latency difference is exactly the two uplink traversals (bandwidth
	// terms match while the uplink is not the bottleneck).
	def := topology.DefaultAttrs()
	wantDelta := 2 * def.UplinkLatencyCycles
	if got := crossRack - intraRack; got != wantDelta {
		t.Errorf("cross-rack surcharge = %.0f cycles, want %.0f (two uplinks)", got, wantDelta)
	}

	// A flat 4-node cluster prices the same node pair like the intra-rack
	// path: racks only add cost where a rack boundary is crossed.
	flat, err := NewPlatform("cluster:4 pack:1 core:4 pu:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.Machine().TransferCost(0, 2*perNode, bytes); got != intraRack {
		t.Errorf("flat-fabric transfer = %.0f cycles, want %.0f (two NIC links)", got, intraRack)
	}
}

// TestPerLinkFabricContention: with per-link stream counts, a transfer is
// capped by the most contended link on its path. Funneling all streams
// through one node's NIC throttles transfers to that node but leaves other
// paths at full speed — the property that rewards balanced partitions.
func TestPerLinkFabricContention(t *testing.T) {
	c := rackCluster(t)
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 4
	const bytes = 8 << 20

	free := m.TransferCost(0, perNode, bytes)

	// 8 streams all hitting node 1's NIC; nodes 0/2/3 uncontended.
	m.SetLinkStreams(0, []int{1, 8, 1, 1})
	m.SetLinkStreams(1, []int{1, 1})
	hot := m.TransferCost(0, perNode, bytes)            // into the hot NIC
	cold := m.TransferCost(2*perNode, 3*perNode, bytes) // rack 1, both NICs cold
	if hot <= free {
		t.Errorf("transfer into contended NIC (%.0f) not above uncontended (%.0f)", hot, free)
	}
	if cold != free {
		t.Errorf("transfer on uncontended path = %.0f, want %.0f (per-link isolation)", cold, free)
	}

	// Uplink contention throttles only rack-crossing transfers.
	m.SetLinkStreams(0, []int{1, 1, 1, 1})
	m.SetLinkStreams(1, []int{8, 8})
	intra := m.TransferCost(0, perNode, bytes)
	cross := m.TransferCost(0, 2*perNode, bytes)
	if intra != free {
		t.Errorf("intra-rack transfer pays uplink contention: %.0f vs %.0f", intra, free)
	}
	crossFree := free + 2*topology.DefaultAttrs().UplinkLatencyCycles
	if cross <= crossFree {
		t.Errorf("cross-rack transfer under uplink contention = %.0f, want above %.0f", cross, crossFree)
	}

	// The per-link getters report the declared counts; ResetAccessors
	// clears them.
	if m.NICStreams(2) != 1 || m.UplinkStreams(1) != 8 {
		t.Errorf("per-link getters: nic=%d uplink=%d, want 1/8", m.NICStreams(2), m.UplinkStreams(1))
	}
	m.ResetAccessors()
	if m.NICStreams(0) != 0 || m.UplinkStreams(0) != 0 {
		t.Error("ResetAccessors must clear per-link stream counts")
	}
	if got := m.TransferCost(0, perNode, bytes); got != free {
		t.Errorf("after reset transfer = %.0f, want %.0f", got, free)
	}
}

// TestFabricLinkStreamsRevert: clearing a level's per-link counts returns
// its links to the uncapped fabric, the state before any declaration.
func TestFabricLinkStreamsRevert(t *testing.T) {
	c := rackCluster(t)
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 4
	const bytes = 4 << 20

	free := m.TransferCost(0, perNode, bytes)
	m.SetLinkStreams(0, []int{6, 6, 6, 6})
	if got := m.TransferCost(0, perNode, bytes); got <= free {
		t.Fatalf("transfer over 6-stream NICs %.0f not above uncapped %.0f", got, free)
	}
	m.SetLinkStreams(0, nil)
	if got := m.NICStreams(0); got != 0 {
		t.Errorf("NICStreams after revert = %d, want 0 (uncapped)", got)
	}
	if got := m.TransferCost(0, perNode, bytes); got != free {
		t.Errorf("transfer after revert = %.0f, want the uncapped price %.0f", got, free)
	}
}
