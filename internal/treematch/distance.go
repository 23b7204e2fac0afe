package treematch

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// AssignByDistance maps each entity of the matrix onto a distinct leaf,
// minimizing the distance-weighted communication cost subject to an optional
// class constraint: entity g may only occupy leaves with leafClass[leaf] ==
// entityClass[g] (nil classes place no constraint). dist[a][b] is any
// symmetric leaf-to-leaf distance: routed-path latencies of a tree, torus or
// dragonfly fabric, or structural hop counts inside one machine. This is the
// capacity-aware group→node matching of hierarchical placement — a group
// sized for an 8-core node must land on an 8-core node, and within that
// constraint groups exchanging heavy residual volume should land close.
//
// Each optional seed is a complete candidate assignment (entity → leaf) that
// enters the portfolio alongside the greedy solution; every candidate is
// improved by class-preserving pairwise-swap refinement and the cheapest
// wins (ties towards the earlier candidate, greedy first). When the
// constrained permutation space is small (node counts of practical
// fabrics) the exact branch-and-bound tightens the incumbent further;
// beyond classedSearchLimit permutations the refined portfolio solution
// stands.
func AssignByDistance(dist [][]float64, m *comm.Matrix, entityClass, leafClass []int, seeds ...[]int) ([]int, error) {
	p := m.Order()
	if len(dist) != p {
		return nil, fmt.Errorf("treematch: AssignByDistance maps %d entities over a %d-leaf distance matrix", p, len(dist))
	}
	for _, row := range dist {
		if len(row) != p {
			return nil, fmt.Errorf("treematch: AssignByDistance distance matrix is not square")
		}
	}
	if entityClass == nil {
		entityClass = make([]int, p)
	}
	if leafClass == nil {
		leafClass = make([]int, p)
	}
	if len(entityClass) != p || len(leafClass) != p {
		return nil, fmt.Errorf("treematch: AssignByDistance got %d entity classes and %d leaf classes for %d entities",
			len(entityClass), len(leafClass), p)
	}
	entityPerClass := map[int]int{}
	leavesPerClass := map[int]int{}
	for i := 0; i < p; i++ {
		entityPerClass[entityClass[i]]++
		leavesPerClass[leafClass[i]]++
	}
	for c, n := range entityPerClass {
		if leavesPerClass[c] != n {
			return nil, fmt.Errorf("treematch: AssignByDistance class %d has %d entities but %d leaves", c, n, leavesPerClass[c])
		}
	}
	if len(entityPerClass) != len(leavesPerClass) {
		return nil, fmt.Errorf("treematch: AssignByDistance classes mismatch: %d entity classes, %d leaf classes",
			len(entityPerClass), len(leavesPerClass))
	}

	aff, vol := pairAffinity(m)
	order := affinityOrder(aff, vol)

	// Greedy incumbent: place in affinity-attachment order on the cheapest
	// class-compatible free leaf (ties towards the lower leaf index).
	used := make([]bool, p)
	assignment := make([]int, p)
	increment := func(pos int, e, leaf int) float64 {
		s := 0.0
		for q := 0; q < pos; q++ {
			partner := order[q]
			if a := aff[e][partner]; a != 0 {
				s += a * dist[leaf][assignment[partner]]
			}
		}
		return s
	}
	for pos, e := range order {
		bestLeaf, bestInc := -1, math.Inf(1)
		for l := 0; l < p; l++ {
			if used[l] || leafClass[l] != entityClass[e] {
				continue
			}
			if inc := increment(pos, e, l); inc < bestInc {
				bestLeaf, bestInc = l, inc
			}
		}
		used[bestLeaf] = true
		assignment[e] = bestLeaf
	}
	refineDistanceSwaps(dist, aff, entityClass, assignment)
	best := append([]int(nil), assignment...)
	bestCost := DistanceCost(dist, m, best)

	// Seed candidates: refine each and keep the cheapest (strictly better
	// than the incumbent, so the greedy solution wins ties).
	for si, seed := range seeds {
		if len(seed) != p {
			return nil, fmt.Errorf("treematch: AssignByDistance seed %d has %d entries for %d entities", si, len(seed), p)
		}
		taken := make([]bool, p)
		for e, l := range seed {
			if l < 0 || l >= p || taken[l] {
				return nil, fmt.Errorf("treematch: AssignByDistance seed %d is not a permutation of the leaves", si)
			}
			taken[l] = true
			if leafClass[l] != entityClass[e] {
				return nil, fmt.Errorf("treematch: AssignByDistance seed %d places entity %d on a leaf of the wrong class", si, e)
			}
		}
		cand := append([]int(nil), seed...)
		refineDistanceSwaps(dist, aff, entityClass, cand)
		if c := DistanceCost(dist, m, cand); c < bestCost {
			best, bestCost = cand, c
		}
	}

	space := 1.0
	for _, n := range entityPerClass {
		for f := 2; f <= n; f++ {
			space *= float64(f)
		}
	}
	if space > classedSearchLimit {
		return best, nil
	}

	copy(assignment, best)
	for i := range used {
		used[i] = false
	}
	var rec func(pos int, cost float64)
	rec = func(pos int, cost float64) {
		if cost >= bestCost {
			return // the increment is nonnegative, so the partial cost bounds
		}
		if pos == p {
			bestCost = cost
			copy(best, assignment)
			return
		}
		e := order[pos]
		for l := 0; l < p; l++ {
			if used[l] || leafClass[l] != entityClass[e] {
				continue
			}
			used[l] = true
			assignment[e] = l
			rec(pos+1, cost+increment(pos, e, l))
			used[l] = false
		}
	}
	rec(0, 0)
	return best, nil
}

// pairAffinity symmetrizes the matrix into pairwise affinities and per-entity
// total volumes.
func pairAffinity(m *comm.Matrix) (aff [][]float64, vol []float64) {
	p := m.Order()
	aff = make([][]float64, p)
	for i := range aff {
		aff[i] = make([]float64, p)
		for j := range aff[i] {
			if i != j {
				aff[i][j] = m.At(i, j) + m.At(j, i)
			}
		}
	}
	vol = make([]float64, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			vol[i] += aff[i][j]
		}
	}
	return aff, vol
}

// affinityOrder is the affinity-attachment placement order: start from the
// heaviest entity and always continue with the unplaced entity most strongly
// tied to the placed set (ties towards total volume, then the lower index).
func affinityOrder(aff [][]float64, vol []float64) []int {
	p := len(aff)
	order := make([]int, 0, p)
	placed := make([]bool, p)
	score := make([]float64, p)
	for len(order) < p {
		pick := -1
		for i := 0; i < p; i++ {
			if placed[i] {
				continue
			}
			if pick < 0 || score[i] > score[pick] ||
				(score[i] == score[pick] && vol[i] > vol[pick]) {
				pick = i
			}
		}
		placed[pick] = true
		order = append(order, pick)
		for j := 0; j < p; j++ {
			if !placed[j] {
				score[j] += aff[pick][j]
			}
		}
	}
	return order
}

// refineDistanceSwaps improves an assignment with pairwise swaps between
// same-class entities (a bounded Kernighan–Lin pass on the leaf
// permutation): swap the leaves of e1 and e2 whenever that strictly lowers
// the distance-weighted cost. Each pass scans all same-class pairs once.
// The distance between e1 and e2 themselves is swap-invariant under a
// symmetric model, so only their edges to third parties enter the delta.
func refineDistanceSwaps(dist [][]float64, aff [][]float64, entityClass, assignment []int) {
	p := len(assignment)
	for pass := 0; pass < classedRefinePasses; pass++ {
		improved := false
		for e1 := 0; e1 < p; e1++ {
			for e2 := e1 + 1; e2 < p; e2++ {
				if entityClass[e1] != entityClass[e2] {
					continue
				}
				l1, l2 := assignment[e1], assignment[e2]
				delta := 0.0
				for j := 0; j < p; j++ {
					if j == e1 || j == e2 {
						continue
					}
					lj := assignment[j]
					if a := aff[e1][j]; a != 0 {
						delta += a * (dist[l2][lj] - dist[l1][lj])
					}
					if a := aff[e2][j]; a != 0 {
						delta += a * (dist[l1][lj] - dist[l2][lj])
					}
				}
				if delta < -1e-12 {
					assignment[e1], assignment[e2] = l2, l1
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// DistanceCost returns the distance-weighted communication cost of an
// assignment under an arbitrary leaf distance model: the sum over all entity
// pairs of their communication volume multiplied by the distance between
// their leaves.
func DistanceCost(dist [][]float64, m *comm.Matrix, assignment []int) float64 {
	var s float64
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j != i {
				s += v * dist[assignment[i]][assignment[j]]
			}
		})
	}
	return s
}

// classedRefinePasses bounds the swap refinement of every candidate.
const classedRefinePasses = 8

// classedSearchLimit bounds the constrained permutation space — the
// product of the per-class factorials — the exact branch-and-bound of
// AssignByDistance walks; beyond it the refined portfolio solution stands.
// Two classes of 4 (A11's default shape, 576 permutations) or of 6 (518k)
// stay under it; two classes of 8 (1.6e9) or a single class of 10 (3.6e6)
// fall back.
const classedSearchLimit = 3e6
