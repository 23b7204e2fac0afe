package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
)

// refSetFabricContention is the historical O(n²) derivation: every task
// scans every other task through At. SetFabricContention must declare
// exactly the stream counts it declares.
func refSetFabricContention(mach *numasim.Machine, a *Assignment, m *comm.Matrix) {
	nodes := mach.Topology().NumClusterNodes()
	levels := mach.NumFabricLevels()
	if nodes <= 1 {
		return
	}
	if levels == 0 {
		refSetRoutedFabricContention(mach, a, m)
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
		case a.TaskPU[i] < 0:
			for l := range counts {
				for g := range counts[l] {
					counts[l][g]++
				}
			}
		case crossesAt[0] || partnerUnbound:
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

// refSetRoutedFabricContention is the historical O(n²) routed arm.
func refSetRoutedFabricContention(mach *numasim.Machine, a *Assignment, m *comm.Matrix) {
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

// edgeStreamsOf reads back every fabric edge's declared stream count.
func edgeStreamsOf(mach *numasim.Machine) []int {
	out := make([]int, mach.NumFabricEdges())
	for e := range out {
		out[e] = mach.EdgeStreams(e)
	}
	return out
}

// contentionMatrix builds an order-n test matrix exercising every corner of
// the traffic predicate At(i,j)+At(j,i) != 0: asymmetric non-integer
// volumes, one-sided entries, explicit zeros, and pairs whose two directions
// cancel exactly.
func contentionMatrix(n int, sparse bool, rng *rand.Rand) *comm.Matrix {
	m := comm.New(n)
	if sparse {
		m = comm.NewSparse(n)
	}
	for k := 0; k < 3*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		switch rng.Intn(5) {
		case 0:
			m.AddSym(i, j, rng.Float64()*10)
		case 1:
			m.Set(i, j, rng.Float64()*3) // one direction only
		case 2:
			v := float64(rng.Intn(4) + 1)
			m.Set(i, j, v)
			m.Set(j, i, -v) // the two directions cancel
		case 3:
			m.Set(i, j, 1.5)
			m.Set(i, j, 0) // explicit zero (stored in sparse mode)
		default:
			m.Add(i, j, 0.25)
		}
	}
	return m
}

// TestSetFabricContentionMatchesReference: the nonzero sweep declares the
// same per-edge stream counts as the O(n²) scan on rack, pod, torus and
// dragonfly fabrics (both routing policies on the shaped ones), for sparse
// and dense matrices, unbound tasks, and assignments shorter than the
// matrix order.
func TestSetFabricContentionMatchesReference(t *testing.T) {
	specs := []struct {
		spec    string
		valiant bool
	}{
		{"rack:2 node:2 pack:1 core:4 pu:1", false},
		{"pod:2 rack:2 node:2 pack:1 core:2", false},
		{"torus:3x3 pack:1 core:2", false},
		{"torus:3x3 pack:1 core:2", true},
		{"dragonfly:2,3,2 pack:1 core:2", true},
	}
	for _, sc := range specs {
		newMach := func() *numasim.Machine {
			p, err := numasim.NewPlatform(sc.spec, numasim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			mach := p.Machine()
			if sc.valiant {
				if err := mach.SetRoutingPolicy(numasim.RouteValiant); err != nil {
					t.Fatal(err)
				}
			}
			return mach
		}
		got, want := newMach(), newMach()
		pus := got.Topology().NumPUs()
		for trial := 0; trial < 12; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			n := 8 + rng.Intn(40)
			m := contentionMatrix(n, trial%2 == 0, rng)
			taskPU := make([]int, n-trial%3) // trial%3 > 0: shorter than the order
			for i := range taskPU {
				taskPU[i] = rng.Intn(pus)
				if trial%4 == 1 && rng.Intn(6) == 0 {
					taskPU[i] = -1
				}
			}
			a := &Assignment{TaskPU: taskPU}
			SetFabricContention(got, a, m)
			refSetFabricContention(want, a, m)
			if g, w := edgeStreamsOf(got), edgeStreamsOf(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s valiant=%v trial %d: edge streams %v, reference %v", sc.spec, sc.valiant, trial, g, w)
			}
		}
	}
}

// TestForEachTrafficPairPredicate pins the pair predicate on hand-built
// corner cases: cancelling directions and explicit zeros carry no traffic,
// a one-sided entry does, and tasks at or beyond n are ignored.
func TestForEachTrafficPairPredicate(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		m := comm.New(5)
		if sparse {
			m = comm.NewSparse(5)
		}
		m.Set(0, 1, 2)
		m.Set(1, 0, -2) // cancels
		m.Set(1, 2, 0.5)
		m.Set(3, 2, 0) // explicit zero
		m.Set(2, 4, 7) // beyond n = 4
		m.Set(3, 3, 9) // diagonal
		seen := map[string]bool{}
		forEachTrafficPair(m, 4, func(i, j int) {
			if i > j {
				i, j = j, i
			}
			seen[fmt.Sprint(i, j)] = true
		})
		if want := map[string]bool{"1 2": true}; !reflect.DeepEqual(seen, want) {
			t.Errorf("sparse=%v: traffic pairs %v, want %v", sparse, seen, want)
		}
	}
}
