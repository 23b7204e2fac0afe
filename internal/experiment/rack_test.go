package experiment

import (
	"testing"
)

// testRackCfg is the reduced scale of the rack tests: 2 racks × 2 nodes of 8
// cores keep runtimes in milliseconds.
func testRackCfg() RackConfig {
	return RackConfig{Iters: 10, Seed: 42}
}

func TestRackConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     RackConfig
		wantErr bool
	}{
		{"defaults", RackConfig{}, false},
		{"reduced", testRackCfg(), false},
		{"one rack", RackConfig{Racks: 1}, true},
		{"odd blocks", RackConfig{Racks: 3, NodesPerRack: 1}, true},
		{"negative iters", RackConfig{Iters: -1}, true},
		{"indivisible sockets", RackConfig{CoresPerNode: 10, CoresPerSocket: 4}, true},
		{"negative pair volume", RackConfig{PairBytes: -1}, true},
	}
	for _, tc := range tests {
		if err := tc.cfg.Validate(); (err != nil) != tc.wantErr {
			t.Errorf("%s: Validate() = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestRunRackUnknownMode(t *testing.T) {
	if _, err := RunRack("nope", testRackCfg()); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestAblationRack is the A10 acceptance property: on the rack-skewed
// stencil, fabric-aware three-level placement strictly beats the
// fabric-blind hierarchical variant, which strictly beats flat TreeMatch on
// the whole cluster tree. Asserted on the default 2×2 shape, on 4 racks of
// 2 nodes, and on the 2×3 shape cmd/ablate derives from its 48-core
// default.
func TestAblationRack(t *testing.T) {
	shapes := map[string]RackConfig{
		"2x2x8": testRackCfg(),
		"4x2x8": {Racks: 4, NodesPerRack: 2, Iters: 10, Seed: 42},
		"2x3x8": {Racks: 2, NodesPerRack: 3, Iters: 10, Seed: 42},
	}
	for name, cfg := range shapes {
		rows, err := AblationRack(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != len(RackModes()) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(RackModes()))
		}
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r.Name] = r.Seconds
		}
		aware := byName["rack/rack-aware"]
		blind := byName["rack/rack-blind"]
		flat := byName["rack/flat"]
		if aware <= 0 || blind <= 0 || flat <= 0 {
			t.Fatalf("%s: missing rows: %+v", name, rows)
		}
		if !(aware < blind) {
			t.Errorf("%s: fabric-aware %.6fs not strictly below fabric-blind %.6fs", name, aware, blind)
		}
		if !(blind < flat) {
			t.Errorf("%s: fabric-blind %.6fs not strictly below flat treematch %.6fs", name, blind, flat)
		}
	}
}

// TestRunRackDeterministic pins bit-reproducibility of every arm.
func TestRunRackDeterministic(t *testing.T) {
	cfg := testRackCfg()
	for _, mode := range RackModes() {
		a, err := RunRack(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunRack(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seconds != b.Seconds {
			t.Errorf("%s not deterministic: %.9f vs %.9f", mode, a.Seconds, b.Seconds)
		}
	}
}

// TestRackClusterShape checks the simulated fabric the scenario builds: the
// rack tier exists and the uplink defaults to an oversubscribed NIC-class
// trunk.
func TestRackClusterShape(t *testing.T) {
	c, err := RackCluster(testRackCfg())
	if err != nil {
		t.Fatal(err)
	}
	if c.Racks() != 2 || c.Nodes() != 4 {
		t.Fatalf("shape: %d racks, %d nodes", c.Racks(), c.Nodes())
	}
	levels := c.FabricLevels()
	if nic, uplink := levels[0].BandwidthBytesPerSec, levels[1].BandwidthBytesPerSec; uplink != nic {
		t.Errorf("uplink bandwidth %.3g, want the oversubscribed NIC-class default %.3g", uplink, nic)
	}
}

// TestRackConfigFrom pins the shape derivation used by cmd/ablate.
func TestRackConfigFrom(t *testing.T) {
	cfg := RackConfigFrom(Config{Rows: 4096, Cols: 4096, Iters: 10, Cores: 48, Seed: 7})
	if cfg.Racks != 2 || cfg.NodesPerRack != 3 || cfg.CoresPerNode != 8 {
		t.Errorf("48 cores → %dx%dx%d, want 2x3x8", cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode)
	}
	small := RackConfigFrom(Config{Rows: 1024, Cols: 1024, Iters: 1, Cores: 8, Seed: 7})
	if small.NodesPerRack != 1 {
		t.Errorf("8 cores → %d nodes per rack, want the 1-node floor", small.NodesPerRack)
	}
}
