// Command ablate runs the ablation studies of the reproduction: the design
// choices of the paper's placement module isolated one at a time (see
// DESIGN.md §4 for the index).
//
//	ablate                  # run every ablation at a reduced scale
//	ablate -exp policies    # placement policies (A1)
//	ablate -exp control     # control-thread strategies (A2)
//	ablate -exp oversub     # oversubscription (A3)
//	ablate -exp granularity # block granularity (A4)
//	ablate -exp topology    # machine shapes (A5)
//	ablate -exp distribute  # NUMA distribution (A6)
//	ablate -exp ompsched    # OpenMP loop schedules (A7)
//	ablate -exp adaptive    # epoch-based adaptive re-placement (A8)
//	ablate -exp cluster     # multi-node hierarchical placement (A9)
//	ablate -exp rack        # rack-tier fabric, three-level placement (A10)
//	ablate -exp hetero      # heterogeneous pod-tier platform (A11)
//	ablate -exp shift       # cross-fabric adaptive migration (A12)
//	ablate -exp torus       # torus halo exchange, routed fabric (A13)
//	ablate -exp fault       # fault injection, mid-run resilience (A14)
//	ablate -exp sched       # online multi-tenant scheduler (A15)
//	ablate -exp sched2      # backfill, preemption, defragmentation (A16)
//	ablate -exp scale       # placement-latency benchmark tier (S1)
//	ablate -full            # paper-scale matrix and iterations
//
// -exp also accepts a comma-separated list (-exp adaptive,cluster,shift).
// The scale study is a benchmark tier, not an ablation: it reports the
// wall-clock latency of the placement pipeline itself on datacenter-scale
// grids (tasks × nodes set by -scale-tasks/-scale-nodes), so it is excluded
// from "all" and must be selected by name.
// The fault ablation's failure schedule can be overridden from the command
// line: -fault-kill "node@epoch", -fault-degrade "level:link:factor@epoch"
// and -fault-sever "level:link@epoch" each accept a comma-separated list,
// and together they replace the default correlated kill+degrade scenario.
// The scheduler ablation's workload and policy knobs are likewise
// overridable: -sched-jobs and -sched-churn reshape the job stream,
// -sched-constraints sets the constrained fraction, and -sched-fit /
// -sched-queue select the domain scoring rule (best, worst) and the
// required-tier-full policy (wait, reject) of every arm. The same -sched-*
// knobs reshape the phase-2 ablation's stream too, and -sched2-priorities /
// -sched2-defrag-threshold additionally set its priority-class count and
// the fragmentation weight that arms defragmentation.
// With -json the results are emitted as one machine-readable JSON document
// on stdout — per-ablation rows with simulated seconds and cycle counts,
// plus the asserted orderings and their verdicts — and the exit status is
// non-zero when any asserted ordering is violated. The CI bench-smoke job
// runs the reduced-shape A8–A12 this way and archives the document as the
// BENCH artifact. -cpuprofile and -memprofile write pprof CPU and heap
// profiles of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/topology"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "ablation: policies, control, oversub, granularity, topology, distribute, ompsched, adaptive, cluster, rack, hetero, shift, torus, fault, sched, sched2, scale, all (a comma-separated list selects several; scale is excluded from all)")
		full         = flag.Bool("full", false, "paper-scale configuration (16384^2, 100 iterations, 192 cores; overrides -rows/-cols/-iters/-cores)")
		jsonF        = flag.Bool("json", false, "emit one machine-readable JSON report on stdout (rows, cycle counts, ordering verdicts); exit non-zero on any ordering violation")
		seed         = flag.Int64("seed", 7, "simulated OS scheduler seed")
		rows         = flag.Int("rows", 4096, "matrix rows (reduced scale)")
		cols         = flag.Int("cols", 4096, "matrix columns (reduced scale)")
		iters        = flag.Int("iters", 10, "iterations (reduced scale)")
		cores        = flag.Int("cores", 48, "number of cores (reduced scale)")
		scaleTasks   = flag.String("scale-tasks", "", "comma-separated task counts for -exp scale (default 10000,100000)")
		scaleNodes   = flag.String("scale-nodes", "", "comma-separated cluster-node counts for -exp scale (default 100,1000,10000)")
		faultKill    = flag.String("fault-kill", "", "comma-separated \"node@epoch\" node kills for -exp fault (any fault flag overrides the default correlated failure)")
		faultDegrade = flag.String("fault-degrade", "", "comma-separated \"level:link:factor@epoch\" fabric-link degrades for -exp fault")
		faultSever   = flag.String("fault-sever", "", "comma-separated \"level:link@epoch\" fabric-link severs for -exp fault")
		schedJobs    = flag.Int("sched-jobs", 0, "jobs per stream for -exp sched (0 = experiment default)")
		schedChurn   = flag.Float64("sched-churn", 0, "arrival-rate churn factor for -exp sched (0 = experiment default)")
		schedConstr  = flag.Float64("sched-constraints", 0, "fraction of jobs carrying topology constraints for -exp sched (0 = experiment default)")
		schedFit     = flag.String("sched-fit", "", "domain scoring rule for -exp sched: best or worst (empty = best)")
		schedQueue   = flag.String("sched-queue", "", "required-tier-full policy for -exp sched: wait or reject (empty = wait)")
		sched2Prio   = flag.Int("sched2-priorities", 0, "priority-class count of the -exp sched2 stream (0 = experiment default)")
		sched2Defrag = flag.Float64("sched2-defrag-threshold", 0, "fragmentation weight in [0,1] arming the -exp sched2 full arm's defragmentation (0 = always armed)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile, taken when the run ends, to this file")
	)
	flag.Parse()

	cfg, err := buildConfig(*rows, *cols, *iters, *cores, *seed, *full)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
	if scaleOverrides.tasks, err = parseIntList(*scaleTasks); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: -scale-tasks: %v\n", err)
		os.Exit(1)
	}
	if scaleOverrides.nodes, err = parseIntList(*scaleNodes); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: -scale-nodes: %v\n", err)
		os.Exit(1)
	}
	if faultOverrides.events, err = parseFaultEvents(*faultKill, *faultDegrade, *faultSever); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
	if err = buildSchedOverrides(*schedJobs, *schedChurn, *schedConstr, *schedFit, *schedQueue); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
	if err = buildSched2Overrides(*sched2Prio, *sched2Defrag); err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
	err = profile.Run(*cpuProfile, *memProfile, func() error {
		return run(os.Stdout, cfg, *exp, *jsonF)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
}

// ablation is one runnable study of the suite.
type ablation struct {
	name  string // -exp selector
	id    string // stable identifier (A1..A13)
	title string
	run   func(experiment.Config) ([]experiment.AblationRow, error)
}

// ablations returns the full suite in report order.
func ablations() []ablation {
	return []ablation{
		{"policies", "A1", "A1: placement policies (LK23, blocks = cores)", experiment.AblationPolicies},
		{"control", "A2", "A2: control-thread strategies", experiment.AblationControlThreads},
		{"oversub", "A3", "A3: oversubscription (blocks vs cores)", experiment.AblationOversubscription},
		{"granularity", "A4", "A4: block granularity", experiment.AblationGranularity},
		{"topology", "A5", "A5: topology shapes (192 cores each)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			return experiment.AblationTopology(c, experiment.DefaultTopologyCases())
		}},
		{"distribute", "A6", "A6: NUMA distribution (cluster + distribute vs cluster only)", experiment.AblationDistribution},
		{"ompsched", "A7", "A7: OpenMP loop schedules vs bound ORWL", experiment.AblationOMPSchedule},
		{"adaptive", "A8", "A8: adaptive re-placement (static vs epoch feedback vs oracle)", experiment.AblationAdaptive},
		{"cluster", "A9", "A9: multi-node placement (hierarchical vs flat vs rr-nodes vs one big node)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			return experiment.AblationCluster(experiment.ClusterConfigFrom(c))
		}},
		{"rack", "A10", "A10: rack-tier fabric (fabric-aware vs fabric-blind vs flat treematch)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			return experiment.AblationRack(experiment.RackConfigFrom(c))
		}},
		{"hetero", "A11", "A11: heterogeneous pod-tier platform (aware vs capacity-blind vs depth-blind)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			return experiment.AblationHetero(experiment.HeteroConfigFrom(c))
		}},
		{"shift", "A12", "A12: cross-fabric adaptive migration (static vs adaptive-flat vs adaptive-fabric vs oracle)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			return experiment.AblationShift(experiment.ShiftConfigFrom(c))
		}},
		{"torus", "A13", "A13: torus halo exchange on the routed fabric (sfc vs tree-matched vs rr)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			return experiment.AblationTorus(experiment.TorusConfigFrom(c))
		}},
		{"fault", "A14", "A14: fault injection and mid-run resilience (fault-aware vs spread vs fault-blind vs static-respawn)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			fc := experiment.FaultConfigFrom(c)
			fc.Events = faultOverrides.events
			return experiment.AblationFault(fc)
		}},
		{"sched", "A15", "A15: online multi-tenant scheduler (topo-aware vs topo-blind vs first-fit)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			sc := experiment.SchedConfigFrom(c)
			sc.Jobs = schedOverrides.jobs
			sc.Churn = schedOverrides.churn
			sc.ConstraintFraction = schedOverrides.constraints
			sc.Fit = schedOverrides.fit
			sc.Queue = schedOverrides.queue
			return experiment.AblationSched(sc)
		}},
		{"sched2", "A16", "A16: phase-2 scheduler policies (backfill + preemption + defrag vs backfill-only vs fifo)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			sc := experiment.Sched2ConfigFrom(c)
			sc.Jobs = schedOverrides.jobs
			sc.Churn = schedOverrides.churn
			sc.ConstraintFraction = schedOverrides.constraints
			sc.Fit = schedOverrides.fit
			sc.Queue = schedOverrides.queue
			sc.PriorityClasses = sched2Overrides.priorities
			sc.DefragThreshold = sched2Overrides.defragThreshold
			return experiment.AblationSched2(sc)
		}},
	}
}

// sched2Overrides carries the parsed -sched2-* flag values to the phase-2
// scheduler ablation; zero values select the experiment defaults.
var sched2Overrides struct {
	priorities      int
	defragThreshold float64
}

// buildSched2Overrides validates the -sched2-* flag values; the experiment
// re-validates the assembled configuration.
func buildSched2Overrides(priorities int, defragThreshold float64) error {
	if priorities < 0 || priorities > 100 {
		return fmt.Errorf("-sched2-priorities: class count %d outside [0,100]", priorities)
	}
	if defragThreshold < 0 || defragThreshold > 1 {
		return fmt.Errorf("-sched2-defrag-threshold: weight %v outside [0,1]", defragThreshold)
	}
	sched2Overrides.priorities = priorities
	sched2Overrides.defragThreshold = defragThreshold
	return nil
}

// schedOverrides carries the parsed -sched-* flag values to the scheduler
// ablation; zero values select the experiment defaults.
var schedOverrides struct {
	jobs        int
	churn       float64
	constraints float64
	fit         sched.Fit
	queue       sched.QueuePolicy
}

// buildSchedOverrides validates the -sched-* flag values. The numeric knobs
// only enforce the flag-layer contract (non-negative; zero = default); the
// stream generator re-validates the assembled configuration.
func buildSchedOverrides(jobs int, churn, constraints float64, fit, queue string) error {
	if jobs < 0 {
		return fmt.Errorf("-sched-jobs: job count %d must be non-negative", jobs)
	}
	if churn < 0 {
		return fmt.Errorf("-sched-churn: churn %v must be non-negative", churn)
	}
	if constraints < 0 || constraints > 1 {
		return fmt.Errorf("-sched-constraints: fraction %v outside [0,1]", constraints)
	}
	schedOverrides.jobs = jobs
	schedOverrides.churn = churn
	schedOverrides.constraints = constraints
	schedOverrides.fit = sched.BestFit
	if fit != "" {
		f, err := sched.ParseFit(fit)
		if err != nil {
			return fmt.Errorf("-sched-fit: %v", err)
		}
		schedOverrides.fit = f
	}
	schedOverrides.queue = sched.QueueWait
	if queue != "" {
		q, err := sched.ParseQueuePolicy(queue)
		if err != nil {
			return fmt.Errorf("-sched-queue: %v", err)
		}
		schedOverrides.queue = q
	}
	return nil
}

// scaleOverrides carries the -scale-tasks/-scale-nodes flag values to the
// scale study; empty slices select the experiment.ScaleConfig defaults.
var scaleOverrides struct{ tasks, nodes []int }

// extraAblations returns the selectable-by-name studies excluded from "all":
// the benchmark tiers, which measure real wall time rather than simulated
// program time and would dominate a full ablation run.
func extraAblations() []ablation {
	return []ablation{
		{"scale", "S1", "S1: placement latency at datacenter scale (wall time)", func(c experiment.Config) ([]experiment.AblationRow, error) {
			sc := experiment.ScaleConfigFrom(c)
			sc.Tasks = scaleOverrides.tasks
			sc.Nodes = scaleOverrides.nodes
			return experiment.AblationScale(sc)
		}},
	}
}

// faultOverrides carries the parsed -fault-kill/-fault-degrade/-fault-sever
// events to the fault ablation; nil keeps the experiment's built-in
// correlated kill+degrade scenario.
var faultOverrides struct{ events []experiment.FaultEventSpec }

// parseFaultEvents parses the fault-schedule flags into experiment
// coordinates. The flag layer enforces the entry syntax (including the
// 1-based epoch); whether the named nodes, links and epochs exist on the
// built platform — and whether the entries conflict — is checked by the
// fault experiment itself, after the shape is known. All three flags empty
// yields nil, selecting the default failure scenario.
func parseFaultEvents(kill, degrade, sever string) ([]experiment.FaultEventSpec, error) {
	var out []experiment.FaultEventSpec
	for _, entry := range splitList(kill) {
		parts, epoch, err := parseFaultEntry("-fault-kill", entry, 1)
		if err != nil {
			return nil, err
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("-fault-kill: bad node %q in %q", parts[0], entry)
		}
		out = append(out, experiment.FaultEventSpec{
			Epoch: epoch, Kind: topology.FaultKillNode, Node: node,
		})
	}
	for _, entry := range splitList(degrade) {
		parts, epoch, err := parseFaultEntry("-fault-degrade", entry, 3)
		if err != nil {
			return nil, err
		}
		level, err1 := strconv.Atoi(parts[0])
		link, err2 := strconv.Atoi(parts[1])
		factor, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("-fault-degrade: bad level:link:factor in %q", entry)
		}
		out = append(out, experiment.FaultEventSpec{
			Epoch: epoch, Kind: topology.FaultDegradeEdge, Level: level, Link: link, Factor: factor,
		})
	}
	for _, entry := range splitList(sever) {
		parts, epoch, err := parseFaultEntry("-fault-sever", entry, 2)
		if err != nil {
			return nil, err
		}
		level, err1 := strconv.Atoi(parts[0])
		link, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("-fault-sever: bad level:link in %q", entry)
		}
		out = append(out, experiment.FaultEventSpec{
			Epoch: epoch, Kind: topology.FaultSeverEdge, Level: level, Link: link,
		})
	}
	return out, nil
}

// parseFaultEntry splits one "body@epoch" fault-flag entry into the
// colon-separated body fields (exactly wantParts of them) and the epoch.
func parseFaultEntry(flagName, entry string, wantParts int) ([]string, int, error) {
	body, epochStr, ok := strings.Cut(entry, "@")
	if !ok {
		return nil, 0, fmt.Errorf("%s: entry %q has no @epoch", flagName, entry)
	}
	epoch, err := strconv.Atoi(epochStr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: bad epoch %q in %q", flagName, epochStr, entry)
	}
	if epoch < 1 {
		return nil, 0, fmt.Errorf("%s: epoch %d in %q is not 1-based", flagName, epoch, entry)
	}
	parts := strings.Split(body, ":")
	if len(parts) != wantParts {
		return nil, 0, fmt.Errorf("%s: entry %q has %d field(s), want %d", flagName, entry, len(parts), wantParts)
	}
	return parts, epoch, nil
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty items; an empty value yields nil.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseIntList parses a comma-separated list of positive integers; an empty
// string yields nil.
func parseIntList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("count %d must be positive", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// selectAblations resolves a -exp value ("all", one name, or a
// comma-separated list) against the suite, preserving report order. "all"
// selects the sixteen ablations; the benchmark tiers (extraAblations) only
// run when named explicitly.
func selectAblations(exp string) ([]ablation, error) {
	all := ablations()
	if exp == "all" {
		return all, nil
	}
	all = append(all, extraAblations()...)
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range all {
			if a.name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	var out []ablation
	for _, a := range all {
		if want[a.name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// run executes the selected ablations and renders them human-readable or as
// the machine-readable JSON report. In JSON mode an ordering violation is
// reported through the error return after the full document is written, so
// a CI consumer archives the evidence and still fails the job.
func run(w io.Writer, cfg experiment.Config, exp string, asJSON bool) error {
	selected, err := selectAblations(exp)
	if err != nil {
		return err
	}
	var report benchReport
	violated := false
	for _, a := range selected {
		rows, err := a.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", a.name, err)
		}
		if !asJSON {
			fmt.Fprint(w, experiment.FormatAblation(a.title, rows))
			fmt.Fprintln(w)
			continue
		}
		res := benchAblation{Exp: a.name, ID: a.id, Title: a.title}
		for _, r := range rows {
			res.Rows = append(res.Rows, benchRow{
				Name:        r.Name,
				Seconds:     r.Seconds,
				Cycles:      experiment.SimCycles(r.Seconds),
				Detail:      r.Detail,
				WallSeconds: r.WallSeconds,
			})
		}
		for _, o := range experiment.AblationOrderings(a.name) {
			ok := experiment.CheckOrderings(rows, []experiment.Ordering{o}) == nil
			if !ok {
				violated = true
			}
			res.Orderings = append(res.Orderings, benchOrdering{Relation: o.String(), OK: ok})
		}
		report.Ablations = append(report.Ablations, res)
	}
	if asJSON {
		report.Schema = benchSchema
		report.Seed = cfg.Seed
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
		if violated {
			return fmt.Errorf("asserted ablation ordering violated (see the JSON report)")
		}
	}
	return nil
}

// benchSchema versions the JSON document; bump on incompatible changes.
const benchSchema = "repro-bench/1"

// benchReport is the machine-readable bench document of -json mode.
type benchReport struct {
	Schema    string          `json:"schema"`
	Seed      int64           `json:"seed"`
	Ablations []benchAblation `json:"ablations"`
}

// benchAblation is one ablation's rows and ordering verdicts.
type benchAblation struct {
	Exp       string          `json:"exp"`
	ID        string          `json:"id"`
	Title     string          `json:"title"`
	Rows      []benchRow      `json:"rows"`
	Orderings []benchOrdering `json:"orderings,omitempty"`
}

// benchRow is one configuration's simulated cost. Benchmark-tier rows carry
// wall_seconds (real pipeline latency) instead of a simulated cost.
type benchRow struct {
	Name        string  `json:"name"`
	Seconds     float64 `json:"seconds"`
	Cycles      float64 `json:"cycles"`
	Detail      string  `json:"detail,omitempty"`
	WallSeconds float64 `json:"wall_seconds,omitempty"`
}

// benchOrdering is one asserted relation and whether it held.
type benchOrdering struct {
	Relation string `json:"relation"`
	OK       bool   `json:"ok"`
}

// buildConfig assembles and validates the ablation configuration from the
// flag values; -full overrides the scale flags with the paper's setup.
func buildConfig(rows, cols, iters, cores int, seed int64, full bool) (experiment.Config, error) {
	cfg := experiment.Config{Rows: rows, Cols: cols, Iters: iters, Cores: cores, Seed: seed}
	if full {
		cfg = experiment.Config{Seed: seed}
	}
	if err := cfg.Validate(); err != nil {
		return experiment.Config{}, err
	}
	return cfg, nil
}
