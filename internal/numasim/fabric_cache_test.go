package numasim

import (
	"testing"

	"repro/internal/topology"
)

// The cached fabric distance table must price every cluster-node pair
// exactly like the reference tree walk, on every fabric depth the spec
// language can express.

// fabricCacheSpecs spans flat, racked, and pod-depth tree fabrics (even and
// uneven node counts) plus shaped torus/dragonfly fabrics, which price along
// routed edge paths instead of the per-level tables.
var fabricCacheSpecs = []string{
	"cluster:6 pack:1 core:2",
	"rack:2 node:3 pack:1 core:2",
	"rack:3 node:2,3,1 pack:1 core:2",
	"pod:2 rack:2 node:2 pack:1 core:2",
	"pod:2 rack:2,1 node:2 pack:1 core:4",
	"torus:2x3 pack:1 core:2",
	"torus:2x2x2 pack:1 core:1",
	"dragonfly:2,2,2 pack:1 core:2",
}

func TestFabricLatencyCacheMatchesWalk(t *testing.T) {
	for _, spec := range fabricCacheSpecs {
		plat, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m := plat.Machine()
		n := len(m.Topology().ClusterNodes())
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				cached := m.fabricLatencyCycles(from, to)
				walked := m.fabricLatencyCyclesWalk(from, to)
				if cached != walked {
					t.Errorf("%s: latency(%d,%d) cached %v != walked %v",
						spec, from, to, cached, walked)
				}
			}
		}
	}
}

// TestFabricLatencyCacheCustomAttrs pins the cache against a spec whose link
// latencies differ per level, so a wrong level/group indexing cannot cancel
// out.
func TestFabricLatencyCacheCustomAttrs(t *testing.T) {
	def := topology.DefaultAttrs()
	def.NetLatencyCycles = 101
	def.UplinkLatencyCycles = 1009
	def.PodUplinkLatencyCycles = 10007
	plat, err := NewPlatformAttrs("pod:2 rack:2 node:2 pack:1 core:2", def, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := plat.Machine()
	n := len(m.Topology().ClusterNodes())
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if cached, walked := m.fabricLatencyCycles(from, to), m.fabricLatencyCyclesWalk(from, to); cached != walked {
				t.Errorf("latency(%d,%d) cached %v != walked %v", from, to, cached, walked)
			}
		}
	}
	// Spot-check the absolute prices: same rack = 2 NICs; across racks adds
	// 2 uplinks; across pods adds 2 pod uplinks on top.
	if got := m.fabricLatencyCycles(0, 1); got != 2*101 {
		t.Errorf("same-rack latency %v, want %v", got, 2*101)
	}
	if got := m.fabricLatencyCycles(0, 2); got != 2*101+2*1009 {
		t.Errorf("cross-rack latency %v, want %v", got, 2*101+2*1009)
	}
	if got := m.fabricLatencyCycles(0, 4); got != 2*101+2*1009+2*10007 {
		t.Errorf("cross-pod latency %v, want %v", got, 2*101+2*1009+2*10007)
	}
}

func TestFabricBandwidthCacheMatchesWalk(t *testing.T) {
	for _, spec := range fabricCacheSpecs {
		plat, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		m := plat.Machine()
		n := len(m.Topology().ClusterNodes())
		// Exercise the uncapped fabric, full per-edge counts, and a mix of
		// set and unset (-1, uncapped) edges.
		ne := m.NumFabricEdges()
		full := make([]int, ne)
		mixed := make([]int, ne)
		for e := range full {
			full[e] = 1 + e%3
			mixed[e] = full[e]
			if e%2 == 1 {
				mixed[e] = -1
			}
		}
		for si, streams := range [][]int{nil, full, mixed} {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					if from == to {
						continue
					}
					cached := m.fabricBandwidth(from, to, streams)
					walked := m.fabricBandwidthWalk(from, to, streams)
					if cached != walked {
						t.Errorf("%s stream state %d: bandwidth(%d,%d) cached %v != walked %v",
							spec, si, from, to, cached, walked)
					}
				}
			}
		}
	}
}

// TestLinkStreamsPriceIdenticallyPerEdge pins the satellite guarantee of
// the per-edge refactor: declaring contention through the per-level
// SetLinkStreams wrapper produces the same per-edge stream state — and so
// the same transfer prices — as declaring the equivalent counts directly
// with SetEdgeStreams.
func TestLinkStreamsPriceIdenticallyPerEdge(t *testing.T) {
	for _, spec := range fabricCacheSpecs {
		platA, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		platB, err := NewPlatform(spec, Config{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		a, b := platA.Machine(), platB.Machine()
		g := a.FabricGraph()
		perEdge := make([]int, g.NumEdges())
		for e := range perEdge {
			perEdge[e] = -1
		}
		if a.NumFabricLevels() == 0 {
			// Shaped fabric: no per-level form exists; only the direct
			// per-edge declaration applies.
			for e := range perEdge {
				perEdge[e] = 1 + e%4
			}
			a.SetEdgeStreams(perEdge)
			b.SetEdgeStreams(perEdge)
		} else {
			for l := 0; l < a.NumFabricLevels(); l++ {
				counts := make([]int, a.FabricLevelSize(l))
				for i := range counts {
					counts[i] = 1 + (l+i)%4
				}
				a.SetLinkStreams(l, counts)
				for i, e := range g.LevelEdges(l) {
					perEdge[e] = counts[i]
				}
			}
			b.SetEdgeStreams(perEdge)
		}
		n := len(a.Topology().ClusterNodes())
		for e := 0; e < a.NumFabricEdges(); e++ {
			if a.EdgeStreams(e) != b.EdgeStreams(e) {
				t.Fatalf("%s: EdgeStreams(%d): wrapper %d != per-edge %d", spec, e, a.EdgeStreams(e), b.EdgeStreams(e))
			}
		}
		for from := 0; from < n; from++ {
			for to := 0; to < n; to++ {
				if from == to {
					continue
				}
				pa := a.fabricBandwidth(from, to, a.edgeStreams)
				pb := b.fabricBandwidth(from, to, b.edgeStreams)
				if pa != pb {
					t.Errorf("%s: bandwidth(%d,%d) via wrapper %v != per-edge %v", spec, from, to, pa, pb)
				}
			}
		}
	}
}

// The benchmark pair quantifies what the distance table saves per transfer
// priced: run with `go test -bench FabricLatency ./internal/numasim`.
func benchmarkFabricLatency(b *testing.B, f func(m *Machine, from, to int) float64) {
	plat, err := NewPlatform("pod:2 rack:4 node:8 pack:1 core:2", Config{})
	if err != nil {
		b.Fatal(err)
	}
	m := plat.Machine()
	n := len(m.Topology().ClusterNodes())
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := i % n
		to := (i*7 + 1) % n
		if from == to {
			to = (to + 1) % n
		}
		sink += f(m, from, to)
	}
	_ = sink
}

func BenchmarkFabricLatencyCached(b *testing.B) {
	benchmarkFabricLatency(b, func(m *Machine, from, to int) float64 {
		return m.fabricLatencyCycles(from, to)
	})
}

func BenchmarkFabricLatencyWalk(b *testing.B) {
	benchmarkFabricLatency(b, func(m *Machine, from, to int) float64 {
		return m.fabricLatencyCyclesWalk(from, to)
	})
}
