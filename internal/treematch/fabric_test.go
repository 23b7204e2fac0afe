package treematch

import (
	"testing"

	"repro/internal/comm"
)

// TestPartitionAcrossMatrix: the emitted aggregated matrix is the quotient
// of the affinity matrix over the returned groups.
func TestPartitionAcrossMatrix(t *testing.T) {
	m := comm.New(6)
	m.AddSym(0, 1, 10)
	m.AddSym(2, 3, 10)
	m.AddSym(4, 5, 10)
	m.AddSym(1, 2, 1)
	groups, agg, err := PartitionAcrossMatrix(m, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Order() != 3 {
		t.Fatalf("aggregated order = %d, want 3", agg.Order())
	}
	want, err := m.Aggregate(groups)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Equal(want, 0) {
		t.Error("aggregated matrix does not match m.Aggregate(groups)")
	}
	// The heavy pairs stay together, so every diagonal entry carries them.
	for g := 0; g < 3; g++ {
		if agg.At(g, g) != 20 {
			t.Errorf("group %d intra volume = %.0f, want 20", g, agg.At(g, g))
		}
	}
}

// TestPartitionAcrossBalancedStreams: among equal-cut partitions the
// portfolio prefers the one whose most exposed group sends fewer streams
// across the boundary — the property per-link fabric contention rewards.
func TestPartitionAcrossBalancedStreams(t *testing.T) {
	// 8×4 halo grid, 4 groups of 8: vertical slices and 4×2 blocks tie on
	// cut volume, but slices expose 8 crossing entities on the middle groups
	// while blocks expose at most 6.
	bx, by := 8, 4
	m := comm.New(bx * by)
	id := func(x, y int) int { return y*bx + x }
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			if x+1 < bx {
				m.AddSym(id(x, y), id(x+1, y), 1)
			}
			if y+1 < by {
				m.AddSym(id(x, y), id(x, y+1), 1)
			}
		}
	}
	groups, err := PartitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, peak := crossingStats(m, groups)
	if peak > 6 {
		t.Errorf("most exposed group sends %d streams, want a balanced partition (<= 6)", peak)
	}
}
