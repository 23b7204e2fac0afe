// Command sched replays a multi-tenant job stream through the online
// topology-aware scheduler and reports every job's fate: wait, placement
// domain, service cycles, plus the run's aggregate cycle time, makespan,
// utilization and fragmentation (see docs/SCHEDULER.md).
//
//	sched                                           # seeded stream, defaults
//	sched -platform "pod:2 rack:2 node:2 pack:2 core:4 pu:1"
//	sched -jobs 60 -seed 42 -churn 8                # heavier synthetic load
//	sched -workload jobs.txt                        # replay a workload file
//	sched -policy topo-blind -fit worst -queue reject
//	sched -backfill -preempt -defrag -priorities 3  # the phase-2 policy stack
//
// A workload file holds one job per line in the grammar of
// sched.ParseJobSpec ("#" starts a comment):
//
//	job etl arrive=0 work=2e6 tasks=8 pattern=stencil:4x2 vol=65536 prio=2 required=rack preferred=node
//
// Without -workload, a stream is generated from the seeded workload model
// (-jobs, -seed, -churn, -constraints, -preferred, -required, plus
// -priorities and -long-fraction for the phase-2 mix); the same generator
// drives the A15 and A16 ablations, so a CLI run reproduces any ablation
// cell exactly. The phase-2 policies are opt-in: -backfill enables
// conservative backfill, -preempt priority preemption, and -defrag
// migration-based defragmentation gated at -defrag-threshold.
// -cpuprofile and -memprofile write pprof CPU and heap profiles of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/numasim"
	"repro/internal/profile"
	"repro/internal/sched"
)

func main() {
	var (
		platform    = flag.String("platform", "rack:2 node:4 pack:2 core:4 pu:1", "platform topology spec")
		workload    = flag.String("workload", "", "workload file to replay (one job per line; empty = generate a seeded stream)")
		jobs        = flag.Int("jobs", 40, "generated stream length (ignored with -workload)")
		seed        = flag.Int64("seed", 7, "generated stream seed (ignored with -workload)")
		churn       = flag.Float64("churn", 4, "generated arrival-rate churn factor (ignored with -workload)")
		constraints = flag.Float64("constraints", 0.3, "fraction of generated jobs carrying topology constraints (ignored with -workload)")
		preferred   = flag.String("preferred", "node", "preferred tier of constrained generated jobs")
		required    = flag.String("required", "rack", "required tier of constrained generated jobs")
		policy      = flag.String("policy", "topo-aware", "scheduler policy: topo-aware, topo-blind, first-fit")
		fit         = flag.String("fit", "best", "domain scoring rule: best or worst")
		queue       = flag.String("queue", "wait", "required-tier-full policy: wait or reject")
		backfill    = flag.Bool("backfill", false, "conservative backfill: dispatch small jobs past a blocked head inside its earliest-start window")
		preempt     = flag.Bool("preempt", false, "priority preemption: checkpoint-and-requeue lower-priority jobs for a blocked required-constrained head")
		defrag      = flag.Bool("defrag", false, "defragmentation: migrate one running job to compact a domain when the priced gain beats the bill")
		defragThr   = flag.Float64("defrag-threshold", 0, "fragmentation weight in [0,1] arming -defrag (0 = always armed)")
		priorities  = flag.Int("priorities", 0, "priority-class count of generated constrained jobs (0 or 1 = all priority 0; ignored with -workload)")
		longFrac    = flag.Float64("long-fraction", 0, "fraction of generated jobs with 8x work (heavy tail; ignored with -workload)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile, taken when the run ends, to this file")
	)
	flag.Parse()

	opts, err := buildOptions(*policy, *fit, *queue, *backfill, *preempt, *defrag, *defragThr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sched: %v\n", err)
		os.Exit(1)
	}
	stream, err := buildStream(*jobs, *seed, *churn, *constraints, *preferred, *required, *priorities, *longFrac)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sched: %v\n", err)
		os.Exit(1)
	}
	err = profile.Run(*cpuProfile, *memProfile, func() error {
		return run(os.Stdout, *platform, *workload, stream, opts)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sched: %v\n", err)
		os.Exit(1)
	}
}

// buildOptions validates the policy flags into scheduler options.
func buildOptions(policy, fit, queue string, backfill, preempt, defrag bool, defragThr float64) (sched.Options, error) {
	var opts sched.Options
	var err error
	if opts.Policy, err = sched.ParsePolicy(policy); err != nil {
		return sched.Options{}, fmt.Errorf("-policy: %v", err)
	}
	if opts.Fit, err = sched.ParseFit(fit); err != nil {
		return sched.Options{}, fmt.Errorf("-fit: %v", err)
	}
	if opts.Queue, err = sched.ParseQueuePolicy(queue); err != nil {
		return sched.Options{}, fmt.Errorf("-queue: %v", err)
	}
	if defragThr < 0 || defragThr > 1 {
		return sched.Options{}, fmt.Errorf("-defrag-threshold: weight %v outside [0,1]", defragThr)
	}
	opts.Backfill = backfill
	opts.Preempt = preempt
	opts.Defrag = defrag
	opts.DefragThreshold = defragThr
	return opts, nil
}

// buildStream validates the generator flags into a stream configuration.
// The configuration is only consulted when no -workload file is given. Each
// out-of-range flag is named in the error; zero is rejected where the
// generator would otherwise silently substitute its default (-jobs 0 would
// run a 40-job stream).
func buildStream(jobs int, seed int64, churn, constraints float64, preferred, required string, priorities int, longFrac float64) (sched.StreamConfig, error) {
	switch {
	case jobs < 1 || jobs > 1<<20:
		return sched.StreamConfig{}, fmt.Errorf("-jobs: %d jobs outside [1,%d]", jobs, 1<<20)
	case !(churn > 0) || math.IsInf(churn, 0):
		return sched.StreamConfig{}, fmt.Errorf("-churn: churn %v must be positive and finite", churn)
	case !(constraints >= 0 && constraints <= 1):
		return sched.StreamConfig{}, fmt.Errorf("-constraints: fraction %v outside [0,1]", constraints)
	case priorities < 0 || priorities > 100:
		return sched.StreamConfig{}, fmt.Errorf("-priorities: %d priority classes outside [0,100]", priorities)
	case !(longFrac >= 0 && longFrac <= 1):
		return sched.StreamConfig{}, fmt.Errorf("-long-fraction: long fraction %v outside [0,1]", longFrac)
	}
	cfg := sched.StreamConfig{
		Jobs:               jobs,
		Seed:               seed,
		Churn:              churn,
		ConstraintFraction: constraints,
		PreferredTier:      preferred,
		RequiredTier:       required,
		PriorityClasses:    priorities,
		LongFraction:       longFrac,
	}
	if err := cfg.Validate(); err != nil {
		return sched.StreamConfig{}, err
	}
	return cfg, nil
}

// loadJobs reads the workload: the named file when set, else a stream from
// the seeded generator.
func loadJobs(workload string, stream sched.StreamConfig) ([]sched.JobSpec, error) {
	if workload == "" {
		return sched.GenerateStream(stream)
	}
	f, err := os.Open(workload)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	jobs, err := sched.ParseWorkload(f)
	if err != nil {
		return nil, fmt.Errorf("-workload %s: %v", workload, err)
	}
	return jobs, nil
}

// run is the whole command behind the flag parsing, separated so tests can
// drive it: build the platform, obtain the job stream, replay it through
// the scheduler and render the per-job report.
func run(w io.Writer, platform, workload string, stream sched.StreamConfig, opts sched.Options) error {
	jobs, err := loadJobs(workload, stream)
	if err != nil {
		return err
	}
	plat, err := numasim.NewPlatform(platform, numasim.Config{})
	if err != nil {
		return err
	}
	mach := plat.Machine()
	s, err := sched.New(mach, opts)
	if err != nil {
		return err
	}
	rep, err := s.Run(jobs)
	if err != nil {
		return err
	}
	fmt.Fprint(w, sched.FormatReport(rep, mach))
	return nil
}
