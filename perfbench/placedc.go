package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// placeDC places two 10k-task graphs on a 100-node, 4-rack datacenter: a
// 9-point stencil, which has locality to find, and a degree-8 random graph,
// which has none. The rack tier makes the hierarchical policy match groups
// to nodes, so partition, matching, per-node Algorithm 1 and fabric
// contention derivation all run. Only the random graph depends on the seed.
type placeDC struct {
	mach   *numasim.Machine
	inputs []*dcInput
}

type dcInput struct {
	name string
	m    *comm.Matrix
	a    *placement.Assignment
	op   int
}

const (
	dcSpec  = "rack:4 node:25 pack:1 core:8"
	dcSide  = 100 // the stencil is dcSide × dcSide tasks
	dcTasks = dcSide * dcSide
)

func (w *placeDC) setup(r *rep, seed int64) error {
	var plat *numasim.Platform
	err := r.call("numasim.platform", dcSpec, func() (err error) {
		plat, err = numasim.NewPlatform(dcSpec, numasim.Config{})
		return err
	})
	if err != nil {
		return err
	}
	w.mach = plat.Machine()
	gens := []struct {
		name string
		gen  func() *comm.Matrix
	}{
		{"stencil", func() *comm.Matrix { return comm.Stencil2DSparse(dcSide, dcSide, 64, 8) }},
		{"random", func() *comm.Matrix { return comm.RandomSparse(dcTasks, 8, 100, seed) }},
	}
	w.inputs = nil
	for _, g := range gens {
		in := &dcInput{name: g.name}
		r.call("comm.gen", g.name, func() error { in.m = g.gen(); return nil })
		w.inputs = append(w.inputs, in)
	}
	return nil
}

func (w *placeDC) timed(r *rep) {
	for _, in := range w.inputs {
		err := r.call("placement.assign", "Hierarchical.Assign "+in.name, func() (err error) {
			in.a, err = placement.Hierarchical{}.Assign(w.mach, in.m)
			return err
		})
		in.op = r.op(err)
		if err != nil {
			continue
		}
		r.call("placement.contention", "SetFabricContention "+in.name, func() error {
			placement.SetFabricContention(w.mach, in.a, in.m)
			return nil
		})
		r.op(nil)
	}
}

// replay repeats the two heavy stages of Hierarchical.Assign: the
// capacity-weighted partition across nodes, then Algorithm 1 on each node's
// sub-matrix, one node after another. Each group is mapped onto the node
// the timed run put it on; the group→node matching itself is not replayed.
func (w *placeDC) replay(r *rep) {
	topo := w.mach.Topology()
	trees, err := treematch.NodeSubtrees(topo, topology.Core)
	if err != nil {
		r.op(fmt.Errorf("replay: %w", err))
		return
	}
	caps := make([]int, len(trees))
	for i, t := range trees {
		caps[i] = t.Leaves()
	}
	for _, in := range w.inputs {
		if in.a == nil {
			continue
		}
		var groups [][]int
		err := r.call("treematch.partition", "PartitionAcrossWeightedMatrix "+in.name, func() (err error) {
			groups, _, err = treematch.PartitionAcrossWeightedMatrix(in.m, caps, treematch.Options{})
			return err
		})
		if r.op(err); err != nil {
			continue
		}
		for _, group := range groups {
			if len(group) == 0 {
				continue
			}
			node := w.mach.ClusterNodeOfPU(in.a.TaskPU[group[0]])
			err := r.call("treematch.map", in.name, func() error {
				sub, err := in.m.Submatrix(group)
				if err != nil {
					return err
				}
				_, err = treematch.Map(treematch.Target{Tree: trees[node], SMTWays: topo.SMTWays()}, sub,
					treematch.Options{Distribute: true})
				return err
			})
			r.op(err)
		}
	}
}

// check verifies each assignment and computes its cut fraction from the
// matrix's neighbour lists, independently of the placement code.
func (w *placeDC) check(r *rep) {
	topo := w.mach.Topology()
	nodes := topo.NumClusterNodes()
	capacity := make([]int, nodes)
	for _, c := range topo.Cores() {
		capacity[topo.ClusterNodeOf(c).LevelIndex]++
	}
	for _, in := range w.inputs {
		r.add("comm.nnz", float64(in.m.NNZ()))
		if in.a == nil {
			continue
		}
		n := in.m.Order()
		if len(in.a.TaskPU) != n {
			r.fail(in.op, "%s: %d tasks placed, matrix order %d", in.name, len(in.a.TaskPU), n)
			continue
		}
		perNode := make([]int, nodes)
		nodeOf := make([]int, n)
		bad := false
		for t, pu := range in.a.TaskPU {
			if pu < 0 || pu >= topo.NumPUs() {
				r.fail(in.op, "%s: task %d on invalid PU %d", in.name, t, pu)
				bad = true
				break
			}
			nodeOf[t] = w.mach.ClusterNodeOfPU(pu)
			perNode[nodeOf[t]]++
		}
		if bad {
			continue
		}
		for node, got := range perNode {
			// The partition sizes groups in proportion to node capacity.
			lo := n * capacity[node] / topo.NumCores()
			if got != lo && got != lo+1 {
				r.fail(in.op, "%s: node %d holds %d tasks, its capacity share is %d", in.name, node, got, lo)
				break
			}
		}
		var cross, total float64
		for i := 0; i < n; i++ {
			in.m.ForEachNeighbor(i, func(j int, v float64) {
				total += v
				if nodeOf[i] != nodeOf[j] {
					cross += v
				}
			})
		}
		if total <= 0 {
			r.fail(in.op, "%s: matrix carries no volume", in.name)
			continue
		}
		r.set("quality.cut_frac_"+in.name, cross/total)
	}
}
