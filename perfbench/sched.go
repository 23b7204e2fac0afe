package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/treematch"
)

// schedPhase2 replays seeded job streams through the online scheduler under
// four policy sets, each adding one decision kind: FIFO dispatch, then
// backfill, preemption and defragmentation. The difference between
// consecutive sets is the host cost of that decision kind. Arrivals are
// fixed by the seed in simulated time and do not depend on the scheduler's
// decisions (an open loop). Each job of the first stream is also placed
// once with AssignFreeSlots on an idle platform's free-slot view, the
// many-tiny-calls use of placement that place-dc does not make.
type schedPhase2 struct {
	runs  []*schedRun // stream-major, policy-minor
	probe struct {
		mach     *numasim.Machine
		jobs     []sched.JobSpec // the first stream
		matrices []*comm.Matrix
		free     [][]int
	}
}

type schedRun struct {
	policy      string
	jobs        []sched.JobSpec
	mach        *numasim.Machine
	s           *sched.Scheduler
	fingerprint string
	rep         *sched.Report
	op          int
	jobOps      []int
}

const schedSpec = "rack:2 node:4 pack:2 core:4 pu:1"

// The A16 stream mix (sizes 2–16, 35% constrained, three priority classes,
// a 20% tail of 8× longer jobs, 4 KiB halos) at churn 1.5. At that arrival
// rate the queue stays bounded: the median turnaround of 400-job streams
// matches that of 200-job streams. One stream's host cost varies with its
// arrival sequence, so each repetition replays schedStreams of them.
const (
	schedStreams = 16
	schedJobs    = 200
	schedChurn   = 1.5
)

func streamConfig(seed int64) sched.StreamConfig {
	return sched.StreamConfig{
		Jobs:               schedJobs,
		Seed:               seed,
		Sizes:              []int{2, 3, 4, 6, 8, 12, 16},
		Churn:              schedChurn,
		ConstraintFraction: 0.35,
		PreferredTier:      "node",
		RequiredTier:       "rack",
		LongFraction:       0.2,
		LongFactor:         8,
		VolumeBytes:        4 << 10,
		PriorityClasses:    3,
	}
}

var schedPolicies = []struct {
	name string
	opts sched.Options
}{
	{"fifo", sched.Options{Policy: sched.TopoAware}},
	{"backfill", sched.Options{Policy: sched.TopoAware, Backfill: true}},
	{"preempt", sched.Options{Policy: sched.TopoAware, Backfill: true, Preempt: true}},
	{"full", sched.Options{Policy: sched.TopoAware, Backfill: true, Preempt: true, Defrag: true}},
}

func newSchedMachine(r *rep) (*numasim.Machine, error) {
	var plat *numasim.Platform
	err := r.call("numasim.platform", schedSpec, func() (err error) {
		plat, err = numasim.NewPlatform(schedSpec, numasim.Config{})
		return err
	})
	if err != nil {
		return nil, err
	}
	return plat.Machine(), nil
}

func (w *schedPhase2) setup(r *rep, seed int64) error {
	w.runs = nil
	for k := 0; k < schedStreams; k++ {
		var jobs []sched.JobSpec
		// Sub-seeds of different seeds never collide while k < 1000.
		err := r.call("sched.generate", fmt.Sprintf("stream %d", k), func() (err error) {
			jobs, err = sched.GenerateStream(streamConfig(seed*1000 + int64(k)))
			return err
		})
		if err != nil {
			return err
		}
		if k == 0 {
			w.probe.jobs = jobs
		}
		for _, p := range schedPolicies {
			mach, err := newSchedMachine(r)
			if err != nil {
				return err
			}
			s, err := sched.New(mach, p.opts)
			if err != nil {
				return err
			}
			w.runs = append(w.runs, &schedRun{policy: p.name, jobs: jobs, mach: mach, s: s,
				fingerprint: s.Capacity().Fingerprint()})
		}
	}
	mach, err := newSchedMachine(r)
	if err != nil {
		return err
	}
	w.probe.mach = mach
	w.probe.matrices = nil
	for _, job := range w.probe.jobs {
		var m *comm.Matrix
		err := r.call("comm.gen", job.Name, func() (err error) {
			m, err = job.Matrix()
			return err
		})
		if err != nil {
			return err
		}
		w.probe.matrices = append(w.probe.matrices, m)
	}
	c, err := sched.NewCapacity(mach.Topology())
	if err != nil {
		return err
	}
	nodes := make([]int, mach.Topology().NumClusterNodes())
	for i := range nodes {
		nodes[i] = i
	}
	w.probe.free = c.FreeSlots(nodes)
	return nil
}

func (w *schedPhase2) timed(r *rep) {
	for _, run := range w.runs {
		err := r.call("sched.run_"+run.policy, fmt.Sprintf("%d jobs", len(run.jobs)), func() (err error) {
			run.rep, err = run.s.Run(run.jobs)
			return err
		})
		run.op = r.op(err)
		run.jobOps = run.jobOps[:0]
		for range run.jobs {
			run.jobOps = append(run.jobOps, r.op(nil))
		}
	}
	for i, m := range w.probe.matrices {
		err := r.call("placement.probe", w.probe.jobs[i].Name, func() error {
			_, err := placement.AssignFreeSlots(w.probe.mach, m, w.probe.free, treematch.Options{})
			return err
		})
		r.op(err)
	}
}

func (w *schedPhase2) replay(*rep) {}

func (w *schedPhase2) check(r *rep) {
	var turnaround []float64
	var util, frag float64
	for _, run := range w.runs {
		rep := run.rep
		if rep == nil {
			continue
		}
		if rep.Admitted+rep.Rejected != len(run.jobs) || len(rep.Jobs) != len(run.jobs) {
			r.fail(run.op, "%s: %d admitted + %d rejected of %d jobs", run.policy, rep.Admitted, rep.Rejected, len(run.jobs))
			continue
		}
		if fp := run.s.Capacity().Fingerprint(); fp != run.fingerprint {
			r.fail(run.op, "%s: free capacity after the run differs from before it", run.policy)
		}
		if err := run.s.Capacity().Validate(); err != nil {
			r.fail(run.op, "%s: capacity index: %v", run.policy, err)
		}
		for i, j := range rep.Jobs {
			if j.Rejected {
				r.fail(run.jobOps[i], "%s: job %s rejected: %s", run.policy, j.Name, j.RejectReason)
				continue
			}
			sum := j.ArriveCycles + j.WaitCycles + j.ServiceCycles
			if math.Abs(sum-j.FinishCycles) > 1e-9*math.Max(1, j.FinishCycles) {
				r.fail(run.jobOps[i], "%s: job %s: arrive+wait+service %v != finish %v", run.policy, j.Name, sum, j.FinishCycles)
			}
		}
		if a, b, core := overlap(rep.Jobs); a >= 0 {
			r.fail(run.jobOps[a], "%s: core %d held by jobs %s and %s at once", run.policy, core, rep.Jobs[a].Name, rep.Jobs[b].Name)
			r.fail(run.jobOps[b], "%s: core %d held by jobs %s and %s at once", run.policy, core, rep.Jobs[a].Name, rep.Jobs[b].Name)
		}
		r.add("sched.backfills."+run.policy, float64(rep.Backfills))
		r.add("sched.preemptions."+run.policy, float64(rep.Preemptions))
		r.add("sched.defrag_moves."+run.policy, float64(rep.DefragMigrations))
		if run.policy != "full" {
			continue
		}
		r.add("sched.admitted", float64(rep.Admitted))
		r.add("sched.backfills", float64(rep.Backfills))
		r.add("sched.preemptions", float64(rep.Preemptions))
		r.add("sched.defrag_moves", float64(rep.DefragMigrations))
		util += rep.BusyUtilization / schedStreams
		frag += rep.FragmentationAvg / schedStreams
		for _, j := range rep.Jobs {
			turnaround = append(turnaround, run.mach.CyclesToSeconds(j.FinishCycles-j.ArriveCycles))
		}
	}
	for _, m := range w.probe.matrices {
		r.add("comm.nnz", float64(m.NNZ()))
	}
	r.set("quality.turnaround_p50_s", percentile(turnaround, 0.50))
	r.set("quality.turnaround_p95_s", percentile(turnaround, 0.95))
	r.set("quality.util", util)
	r.set("sched.frag_avg", frag)
}

// overlap finds two jobs whose residency segments hold the same core at the
// same time, returning their indices and the core, or -1s.
func overlap(jobs []sched.JobStat) (a, b, core int) {
	type hold struct {
		start, finish float64
		job           int
	}
	byCore := map[int][]hold{}
	for i, j := range jobs {
		for _, s := range j.Segments {
			if s.FinishCycles <= s.StartCycles {
				continue // a job preempted the instant it started holds nothing
			}
			for _, c := range s.Cores {
				byCore[c] = append(byCore[c], hold{s.StartCycles, s.FinishCycles, i})
			}
		}
	}
	for c, hs := range byCore {
		sort.Slice(hs, func(x, y int) bool { return hs[x].start < hs[y].start })
		latest := 0 // the hold seen so far that finishes last
		for k := 1; k < len(hs); k++ {
			if hs[k].start < hs[latest].finish {
				return hs[latest].job, hs[k].job, c
			}
			if hs[k].finish > hs[latest].finish {
				latest = k
			}
		}
	}
	return -1, -1, -1
}
