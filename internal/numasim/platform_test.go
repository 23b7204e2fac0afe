package numasim

import (
	"testing"

	"repro/internal/topology"
)

// TestPlatformUnevenRacks is the regression test for the uneven-fabric
// rejection: an earlier cluster builder parsed "rack:2 node:2,3 ..." and
// then refused it with "uneven fabric level not supported"; the platform
// path must build a working simulation machine from it.
func TestPlatformUnevenRacks(t *testing.T) {
	p, err := NewPlatform("rack:2 node:2,3 pack:1 core:4", Config{})
	if err != nil {
		t.Fatalf("uneven racks rejected: %v", err)
	}
	if p.Nodes() != 5 {
		t.Fatalf("%d nodes, want 5", p.Nodes())
	}
	mach := p.Machine()
	if got := mach.Topology().NumRacks(); got != 2 {
		t.Fatalf("%d racks, want 2", got)
	}
	// Rack 0 holds nodes 0-1, rack 1 holds nodes 2-4.
	wantRack := []int{0, 0, 1, 1, 1}
	for c, want := range wantRack {
		if got := mach.RackOfClusterNode(c); got != want {
			t.Errorf("node %d in rack %d, want %d", c, got, want)
		}
	}
	// The fabric prices: same-rack transfers cost two NIC links, cross-
	// rack transfers add the uplinks.
	sameRack := mach.TransferCost(0, 4, 1024)   // node 0 -> node 1
	crossRack := mach.TransferCost(0, 12, 1024) // node 0 -> node 3
	if !(sameRack > 0 && crossRack > sameRack) {
		t.Errorf("fabric pricing: same-rack %.0f, cross-rack %.0f", sameRack, crossRack)
	}
}

func TestPlatformHeterogeneousMembers(t *testing.T) {
	p, err := NewPlatform("rack:2 node:{pack:2 core:8 | pack:1 core:4}", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 2 || !p.Heterogeneous() {
		t.Fatalf("nodes=%d heterogeneous=%v", p.Nodes(), p.Heterogeneous())
	}
	if p.NodeCores(0) != 16 || p.NodeCores(1) != 4 {
		t.Errorf("node cores %d/%d, want 16/4", p.NodeCores(0), p.NodeCores(1))
	}
	if got := p.Machine().Topology().NumCores(); got != 20 {
		t.Errorf("fused machine has %d cores, want 20", got)
	}
	// Member machines expose their own shared-memory views.
	if got := p.Node(1).Topology().NumCores(); got != 4 {
		t.Errorf("member 1 view has %d cores, want 4", got)
	}
}

// TestPodFabricPricing pins the three latency regimes of a pod fabric: the
// hop path accumulates NIC links inside a rack, adds rack uplinks across
// racks, and pod uplinks across pods.
func TestPodFabricPricing(t *testing.T) {
	p, err := NewPlatform("pod:2 rack:2 node:2 pack:1 core:2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine()
	def := topology.DefaultAttrs()
	// PUs per node: 2. Node 0 PUs 0-1; node 1 PUs 2-3 (same rack); node 2
	// PUs 4-5 (same pod, other rack); node 4 PUs 8-9 (other pod). One byte
	// per probe: the NIC is the bandwidth bottleneck of every path (the
	// uplinks are wider by default), so cost differences are pure per-link
	// latency.
	bytes := 1.0
	sameRack := mach.TransferCost(0, 2, bytes)
	crossRack := mach.TransferCost(0, 4, bytes)
	crossPod := mach.TransferCost(0, 8, bytes)
	wantSame := 2 * def.NetLatencyCycles
	wantRack := wantSame + 2*def.UplinkLatencyCycles
	wantPod := wantRack + 2*def.PodUplinkLatencyCycles
	if diff := sameRack - crossRack; diff >= 0 {
		t.Errorf("same-rack %.0f not cheaper than cross-rack %.0f", sameRack, crossRack)
	}
	if diff := crossRack - crossPod; diff >= 0 {
		t.Errorf("cross-rack %.0f not cheaper than cross-pod %.0f", crossRack, crossPod)
	}
	near := func(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }
	if got := crossRack - sameRack; !near(got, wantRack-wantSame) {
		t.Errorf("rack uplink surcharge %.0f cycles, want %.0f", got, wantRack-wantSame)
	}
	if got := crossPod - crossRack; !near(got, wantPod-wantRack) {
		t.Errorf("pod uplink surcharge %.0f cycles, want %.0f", got, wantPod-wantRack)
	}
}

func TestSetLinkStreamsValidation(t *testing.T) {
	p, err := NewPlatform("rack:2 node:2 pack:1 core:2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine()
	for _, bad := range []func(){
		func() { mach.SetLinkStreams(0, []int{1}) },       // 4 nodes
		func() { mach.SetLinkStreams(1, []int{1, 2, 3}) }, // 2 racks
		func() { mach.SetLinkStreams(2, []int{1}) },       // no pod level
		func() { mach.SetLinkStreams(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("mis-sized SetLinkStreams did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestPlatformFusedSpecRoundTrips pins that a platform's own fused spec —
// the normalized form it logs and Topology.Spec() reports — feeds back
// into NewPlatform and rebuilds the same heterogeneous shape.
func TestPlatformFusedSpecRoundTrips(t *testing.T) {
	orig, err := NewPlatform("rack:2 node:{pack:2 core:8 | pack:1 core:4}", Config{})
	if err != nil {
		t.Fatal(err)
	}
	fused := orig.Machine().Topology().Spec()
	again, err := NewPlatform(fused, Config{})
	if err != nil {
		t.Fatalf("fused spec %q does not round-trip: %v", fused, err)
	}
	if again.Nodes() != orig.Nodes() || !again.Heterogeneous() {
		t.Fatalf("round trip of %q: %d nodes hetero=%v, want %d/true",
			fused, again.Nodes(), again.Heterogeneous(), orig.Nodes())
	}
	for i := 0; i < orig.Nodes(); i++ {
		if again.NodeCores(i) != orig.NodeCores(i) {
			t.Errorf("round trip node %d has %d cores, want %d", i, again.NodeCores(i), orig.NodeCores(i))
		}
	}
}

// TestFabricStreamsPartialLevels pins that per-level declarations are
// independent: with only the rack uplinks declared, transfers that stay
// inside a rack price as uncapped, and only rack-crossing transfers feel the
// uplink counts.
func TestFabricStreamsPartialLevels(t *testing.T) {
	p, err := NewPlatform("pod:2 rack:2 node:2 pack:1 core:2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine()
	const bytes = 1 << 22
	// PUs per node: 2. Node 0 PUs 0-1; node 1 PUs 2-3 (same rack); node 2
	// PUs 4-5 (same pod, other rack).
	sameRack := mach.TransferCost(0, 2, bytes)
	crossRack := mach.TransferCost(0, 4, bytes)
	uplink := make([]int, mach.FabricLevelSize(1))
	for i := range uplink {
		uplink[i] = 64
	}
	mach.SetLinkStreams(1, uplink)
	if got := mach.TransferCost(0, 2, bytes); got != sameRack {
		t.Errorf("same-rack transfer with only uplinks declared = %.0f, want the uncapped %.0f", got, sameRack)
	}
	if got := mach.TransferCost(0, 4, bytes); got <= crossRack {
		t.Errorf("cross-rack transfer over 64-stream uplinks = %.0f, want above the uncapped %.0f", got, crossRack)
	}
	for _, l := range []int{0, 2} {
		for i := 0; i < mach.FabricLevelSize(l); i++ {
			if got := mach.LinkStreams(l, i); got != 0 {
				t.Errorf("undeclared level %d link %d reports %d streams, want 0", l, i, got)
			}
		}
	}
}
