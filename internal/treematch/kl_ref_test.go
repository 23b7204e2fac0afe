package treematch

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
)

// refRefineGroups is the historical full pairwise KL: every gain re-sums
// the intra-group affinities through At. refineGroups must make exactly
// the same swaps.
func refRefineGroups(m *comm.Matrix, groups [][]int, passes int) {
	k := len(groups)
	intra := func(e int, g []int, excl int) float64 {
		var s float64
		for _, u := range g {
			if u != e && u != excl {
				s += m.At(e, u) + m.At(u, e)
			}
		}
		return s
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for g1 := 0; g1 < k; g1++ {
			for g2 := g1 + 1; g2 < k; g2++ {
				for xi := range groups[g1] {
					for yi := range groups[g2] {
						x, y := groups[g1][xi], groups[g2][yi]
						gain := intra(x, groups[g2], y) + intra(y, groups[g1], x) -
							intra(x, groups[g1], -1) - intra(y, groups[g2], -1)
						if gain > 1e-12 {
							groups[g1][xi], groups[g2][yi] = y, x
							improved = true
						}
					}
				}
			}
		}
		if !improved {
			return
		}
	}
}

// refTryBestBoundarySwap is the historical boundary swap, which looks up
// every candidate pair's weight through At.
func refTryBestBoundarySwap(m *comm.Matrix, groups [][]int, group []int, a, b int) bool {
	ga, gb := groups[a], groups[b]
	da := boundaryD(nil, m, ga, group, a, b)
	db := boundaryD(nil, m, gb, group, b, a)
	candA := topByD(nil, ga, da)
	candB := topByD(nil, gb, db)
	const eps = 1e-12
	bestGain := eps
	bestXi, bestYi := -1, -1
	for _, xi := range candA {
		x := ga[xi]
		for _, yi := range candB {
			y := gb[yi]
			w := m.At(x, y) + m.At(y, x)
			if gain := da[xi] + db[yi] - (w + w); gain > bestGain {
				bestGain, bestXi, bestYi = gain, xi, yi
			}
		}
	}
	if bestXi < 0 {
		return false
	}
	x, y := ga[bestXi], gb[bestYi]
	ga[bestXi], gb[bestYi] = y, x
	group[x], group[y] = b, a
	return true
}

// klTestMatrix builds an order-n matrix with asymmetric non-integer
// volumes, one-sided entries, explicit zeros and a few dense rows, in
// sparse or dense storage.
func klTestMatrix(n int, sparse bool, rng *rand.Rand) *comm.Matrix {
	m := comm.New(n)
	if sparse {
		m = comm.NewSparse(n)
	}
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			m.AddSym(i, j, float64(rng.Intn(8))) // integer ties
		case 1:
			m.Set(i, j, rng.Float64()*7) // one direction only
		case 2:
			m.Set(i, j, 2.5)
			m.Set(i, j, 0) // explicit zero
		default:
			m.Add(i, j, rng.Float64()*0.1)
		}
	}
	hub := rng.Intn(n)
	for j := 0; j < n; j++ {
		if j%3 == 0 {
			m.AddSym(hub, j, 0.75)
		}
	}
	return m
}

// randomGroups splits 0..n-1 into groups of the given sizes in a random
// order.
func randomGroups(n int, sizes []int, rng *rand.Rand) [][]int {
	perm := rng.Perm(n)
	groups := make([][]int, len(sizes))
	for gi, s := range sizes {
		groups[gi] = append([]int(nil), perm[:s]...)
		perm = perm[s:]
	}
	return groups
}

func cloneGroups(groups [][]int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	return out
}

// TestRefineGroupsMatchesReference: the table-driven KL makes the same
// swaps, slot for slot, as the At-driven reference — on sparse and dense
// matrices, uneven group sizes, and unions both below and above the stack
// table's capacity.
func TestRefineGroupsMatchesReference(t *testing.T) {
	shapes := [][]int{
		{2, 2, 2, 2, 2, 2},
		{3, 5, 4},
		{8, 8, 8, 8},
		{1, 7, 2},
		{20, 9, 15}, // unions of 29, 35 and 24 entities: heap and stack tables
	}
	for si, sizes := range shapes {
		n := 0
		for _, s := range sizes {
			n += s
		}
		for trial := 0; trial < 6; trial++ {
			rng := rand.New(rand.NewSource(int64(100*si + trial)))
			m := klTestMatrix(n, trial%2 == 0, rng)
			groups := randomGroups(n, sizes, rng)
			want := cloneGroups(groups)
			refineGroups(m, groups, 4)
			refRefineGroups(m, want, 4)
			if !reflect.DeepEqual(groups, want) {
				t.Errorf("sizes %v trial %d: groups %v, reference %v", sizes, trial, groups, want)
			}
		}
	}
}

// TestTryBestBoundarySwapMatchesReference: every swap the table-driven
// boundary step picks is the one the At-driven reference picks, across a
// sequence of swaps on groups wider than the candidate cap, on sparse and
// dense matrices.
func TestTryBestBoundarySwapMatchesReference(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial)))
			const n = 300
			m := klTestMatrix(n, trial%2 == 0, rng)
			sizes := []int{140, 100, 60}
			groups := randomGroups(n, sizes, rng)
			want := cloneGroups(groups)
			group, wantGroup := make([]int, n), make([]int, n)
			for gi, g := range groups {
				for _, e := range g {
					group[e], wantGroup[e] = gi, gi
				}
			}
			sc := newBoundaryScratch(n)
			swaps := 0
			for step := 0; step < 12; step++ {
				a, b := rng.Intn(3), rng.Intn(3)
				if a == b {
					continue
				}
				got := sc.tryBestBoundarySwap(m, groups, group, a, b)
				ref := refTryBestBoundarySwap(m, want, wantGroup, a, b)
				if got != ref || !reflect.DeepEqual(groups, want) || !reflect.DeepEqual(group, wantGroup) {
					t.Fatalf("step %d (%d,%d): swapped=%v groups differ from reference (swapped=%v)", step, a, b, got, ref)
				}
				if got {
					swaps++
				}
			}
			if swaps == 0 {
				t.Fatal("no step swapped: the comparison exercised nothing")
			}
			for e, p := range sc.pos {
				if p != -1 {
					t.Fatalf("position index left entity %d at %d", e, p)
				}
			}
		})
	}
}
