package main

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/experiment"
	"repro/internal/kernels"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// lk23Fig1 is the paper's Figure 1: Livermore Kernel 23 on a 16384² matrix
// for 100 iterations on the 24-socket, 8-core SMP, at the seven default core
// counts, as ORWL with TreeMatch binding, ORWL unbound, and the OpenMP
// baseline. Placement here is single-node Algorithm 1; the rest of the time
// is the orwl/numasim simulation. The seed drives the simulated OS scheduler
// of the unbound threads.
type lk23Fig1 struct {
	seed   int64
	points []*lk23Point
}

type lk23Point struct {
	cores        int
	bind, nobind *lk23Arm
	ompSeconds   float64
	ompOp        int
}

// lk23Arm is one ORWL run: its own machine, runtime and program.
type lk23Arm struct {
	mach *numasim.Machine
	rt   *orwl.Runtime
	prog *kernels.Program
	m    *comm.Matrix
	a    *placement.Assignment
	ops  []int
	sim  float64
}

const (
	lk23Size         = 16384
	lk23Iters        = 100
	lk23CoresPerPack = 8
)

func (w *lk23Fig1) setup(r *rep, seed int64) error {
	w.seed = seed
	w.points = nil
	for _, cores := range experiment.DefaultFigure1Points() {
		p := &lk23Point{cores: cores}
		var err error
		if p.bind, err = newLK23Arm(r, cores, seed); err != nil {
			return err
		}
		if p.nobind, err = newLK23Arm(r, cores, seed); err != nil {
			return err
		}
		w.points = append(w.points, p)
	}
	return nil
}

func newLK23Arm(r *rep, cores int, seed int64) (*lk23Arm, error) {
	spec := fmt.Sprintf("pack:%d l3:1 core:%d pu:1", cores/lk23CoresPerPack, lk23CoresPerPack)
	arm := &lk23Arm{}
	err := r.call("numasim.platform", spec, func() error {
		topo, err := topology.FromSpec(spec)
		if err != nil {
			return err
		}
		arm.mach, err = numasim.New(topo, numasim.Config{})
		return err
	})
	if err != nil {
		return nil, err
	}
	arm.rt = orwl.NewRuntime(orwl.Options{Machine: arm.mach, Seed: seed})
	bx, by := experiment.BlockGrid(cores)
	err = r.call("kernels.build", spec, func() (err error) {
		arm.prog, err = kernels.Build(arm.rt, lk23Size, lk23Size, kernels.BuildOptions{
			BX: bx, BY: by, Iters: lk23Iters, Costs: kernels.LK23Costs,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.call("orwl.commmatrix", spec, func() error { arm.m = arm.rt.CommMatrix(); return nil })
	return arm, nil
}

// run places the arm's tasks with pol, derives contention and simulates.
func (arm *lk23Arm) run(r *rep, pol placement.Policy, span, runSpan string) {
	detail := fmt.Sprintf("%d cores", arm.mach.Topology().NumCores())
	err := r.call(span, detail, func() (err error) {
		arm.a, err = pol.Assign(arm.mach, arm.m)
		return err
	})
	arm.ops = append(arm.ops, r.op(err))
	if err != nil {
		return
	}
	err = r.call("placement.apply", detail, func() error { return placement.Apply(arm.rt, arm.a) })
	arm.ops = append(arm.ops, r.op(err))
	if err != nil {
		return
	}
	// The main operation of each block, every ninth task, streams the
	// block's working set each iteration; frontier operations move strips.
	heavy := make([]bool, len(arm.prog.Tasks))
	for i := range heavy {
		heavy[i] = i%9 == 0
	}
	r.call("placement.contention", detail, func() error {
		placement.SetContention(arm.mach, arm.a, heavy)
		return nil
	})
	err = r.call(runSpan, detail, arm.rt.Run)
	arm.ops = append(arm.ops, r.op(err))
	if err == nil {
		arm.sim = arm.rt.MakespanSeconds()
	}
}

func (w *lk23Fig1) timed(r *rep) {
	for _, p := range w.points {
		p.bind.run(r, placement.TreeMatch{}, "placement.assign", "orwl.run_bind")
		p.nobind.run(r, placement.NoBind{}, "placement.nobind", "orwl.run_nobind")
		var res experiment.Result
		err := r.call("omp.run", fmt.Sprintf("%d cores", p.cores), func() (err error) {
			res, err = experiment.Run(experiment.OpenMP, experiment.Config{Cores: p.cores, Seed: w.seed})
			return err
		})
		if p.ompOp = r.op(err); err == nil {
			p.ompSeconds = res.Seconds
		}
	}
}

// replay repeats the Algorithm 1 call inside TreeMatch.Assign at each core
// count.
func (w *lk23Fig1) replay(r *rep) {
	for _, p := range w.points {
		topo := p.bind.mach.Topology()
		err := r.call("treematch.map", fmt.Sprintf("%d cores", p.cores), func() error {
			tree, err := treematch.FromTopology(topo, topology.Core)
			if err != nil {
				return err
			}
			_, err = treematch.Map(treematch.Target{Tree: tree, SMTWays: topo.SMTWays()}, p.bind.m,
				treematch.Options{Distribute: true})
			return err
		})
		r.op(err)
	}
}

func (w *lk23Fig1) check(r *rep) {
	for _, p := range w.points {
		for _, arm := range []*lk23Arm{p.bind, p.nobind} {
			r.add("orwl.tasks", float64(len(arm.prog.Tasks)))
			r.add("comm.nnz", float64(arm.m.NNZ()))
			if arm.sim <= 0 || math.IsInf(arm.sim, 0) || math.IsNaN(arm.sim) {
				for _, i := range arm.ops {
					r.fail(i, "%d cores: makespan %v is not finite and positive", p.cores, arm.sim)
				}
			}
		}
		if p.ompSeconds <= 0 || math.IsInf(p.ompSeconds, 0) || math.IsNaN(p.ompSeconds) {
			r.fail(p.ompOp, "%d cores: OpenMP makespan %v is not finite and positive", p.cores, p.ompSeconds)
		}
		if a := p.bind.a; a != nil {
			for t, pu := range a.TaskPU {
				if pu < 0 || pu >= p.bind.mach.Topology().NumPUs() {
					r.fail(p.bind.ops[0], "%d cores: bound task %d on invalid PU %d", p.cores, t, pu)
					break
				}
			}
		}
		for _, t := range p.nobind.prog.Tasks {
			r.add("numasim.migrations", float64(t.Proc().Stats().Migrations))
		}
		r.set(fmt.Sprintf("lk23.bind_sim_s@%d", p.cores), p.bind.sim)
		r.set(fmt.Sprintf("lk23.nobind_sim_s@%d", p.cores), p.nobind.sim)
		r.set(fmt.Sprintf("lk23.omp_sim_s@%d", p.cores), p.ompSeconds)
	}
	last := w.points[len(w.points)-1]
	r.set("quality.sim_s", last.bind.sim)
	r.set("quality.bind_speedup", last.nobind.sim/last.bind.sim)
}
