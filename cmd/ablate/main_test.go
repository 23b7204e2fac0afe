package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/profile"
	"repro/internal/sched"
	"repro/internal/topology"
)

func TestBuildConfigValidation(t *testing.T) {
	tests := []struct {
		name                     string
		rows, cols, iters, cores int
		full                     bool
		wantErr                  string
	}{
		{"reduced scale", 4096, 4096, 10, 48, false, ""},
		{"full overrides bad scale flags", -1, -1, -1, -1, true, ""},
		{"negative cores", 4096, 4096, 10, -48, false, "core count"},
		{"tiny grid", 2, 4096, 10, 48, false, "too small"},
		{"negative iters", 4096, 4096, -10, 48, false, "iteration count"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildConfig(tc.rows, tc.cols, tc.iters, tc.cores, 7, tc.full)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid config, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSelectAblations(t *testing.T) {
	all, err := selectAblations("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 16 || all[0].id != "A1" || all[15].id != "A16" {
		t.Fatalf("all selects %d ablations (%+v), want A1..A16", len(all), all)
	}
	list, err := selectAblations("shift,adaptive")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].name != "adaptive" || list[1].name != "shift" {
		t.Fatalf("list selection %+v, want adaptive then shift in report order", list)
	}
	for _, bad := range []string{"nonsense", "shift,nonsense", ",", ""} {
		if _, err := selectAblations(bad); err == nil {
			t.Errorf("selector %q accepted", bad)
		}
	}
}

// TestRunJSONReport drives the machine-readable mode end to end on the A12
// ablation: the report must carry the schema marker, per-row seconds and
// cycle counts (consistent with each other), and the asserted orderings
// with passing verdicts.
func TestRunJSONReport(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, cfg, "shift", true); err != nil {
		t.Fatalf("run -json: %v\n%s", err, buf.String())
	}
	var report benchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Schema != benchSchema {
		t.Errorf("schema %q, want %q", report.Schema, benchSchema)
	}
	if report.Seed != 42 {
		t.Errorf("seed %d, want 42", report.Seed)
	}
	if len(report.Ablations) != 1 {
		t.Fatalf("%d ablations, want 1: %+v", len(report.Ablations), report)
	}
	a := report.Ablations[0]
	if a.ID != "A12" || a.Exp != "shift" {
		t.Errorf("ablation identity %s/%s, want A12/shift", a.ID, a.Exp)
	}
	if len(a.Rows) != len(experiment.ShiftModes()) {
		t.Errorf("%d rows, want %d", len(a.Rows), len(experiment.ShiftModes()))
	}
	for _, r := range a.Rows {
		if r.Seconds <= 0 || r.Cycles <= 0 {
			t.Errorf("row %s has non-positive cost: %+v", r.Name, r)
		}
		if want := experiment.SimCycles(r.Seconds); r.Cycles != want {
			t.Errorf("row %s cycles %v inconsistent with seconds (want %v)", r.Name, r.Cycles, want)
		}
	}
	if len(a.Orderings) != len(experiment.AblationOrderings("shift")) {
		t.Fatalf("%d ordering verdicts, want %d", len(a.Orderings), len(experiment.AblationOrderings("shift")))
	}
	for _, o := range a.Orderings {
		if !o.OK {
			t.Errorf("asserted ordering %q violated in the reduced-shape run", o.Relation)
		}
	}
}

// TestParseFaultEvents drives the fault-schedule flag syntax through its
// edge cases: every malformed entry must produce a clean flag-layer error
// (never a panic or a silently dropped entry), and well-formed entries must
// land in experiment coordinates exactly.
func TestParseFaultEvents(t *testing.T) {
	cases := []struct {
		name                 string
		kill, degrade, sever string
		want                 []experiment.FaultEventSpec
		wantErr              string
	}{
		{name: "all empty", want: nil},
		{name: "one kill", kill: "4@2", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultKillNode, Node: 4},
		}},
		{name: "kill list with spaces", kill: " 4@2 , 5@3 ", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultKillNode, Node: 4},
			{Epoch: 3, Kind: topology.FaultKillNode, Node: 5},
		}},
		{name: "degrade", degrade: "1:0:0.5@2", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultDegradeEdge, Level: 1, Link: 0, Factor: 0.5},
		}},
		{name: "sever", sever: "0:3@4", want: []experiment.FaultEventSpec{
			{Epoch: 4, Kind: topology.FaultSeverEdge, Level: 0, Link: 3},
		}},
		{name: "kill and degrade combine", kill: "4@2", degrade: "1:1:0.25@2", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultKillNode, Node: 4},
			{Epoch: 2, Kind: topology.FaultDegradeEdge, Level: 1, Link: 1, Factor: 0.25},
		}},
		{name: "kill without epoch", kill: "4", wantErr: "no @epoch"},
		{name: "kill bad node", kill: "x@2", wantErr: "bad node"},
		{name: "kill bad epoch", kill: "4@x", wantErr: "bad epoch"},
		{name: "kill epoch zero", kill: "4@0", wantErr: "not 1-based"},
		{name: "kill negative epoch", kill: "4@-1", wantErr: "not 1-based"},
		{name: "kill too many fields", kill: "4:1@2", wantErr: "want 1"},
		{name: "degrade missing factor", degrade: "1:0@2", wantErr: "want 3"},
		{name: "degrade bad factor", degrade: "1:0:x@2", wantErr: "bad level:link:factor"},
		{name: "sever missing link", sever: "0@1", wantErr: "want 2"},
		{name: "sever bad link", sever: "0:x@1", wantErr: "bad level:link"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFaultEvents(tc.kill, tc.degrade, tc.sever)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v / err %v, want error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("event %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestRunFaultSemanticErrors pins that syntactically valid fault flags whose
// entries cannot apply to the built platform fail with a clean error from
// the experiment layer — an unknown node id, an epoch beyond the run, and
// two conflicting events on one link at one epoch.
func TestRunFaultSemanticErrors(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	cases := []struct {
		name                 string
		kill, degrade, sever string
		wantErr              string
	}{
		{name: "unknown node", kill: "99@1", wantErr: "unknown cluster node"},
		{name: "epoch beyond run", kill: "4@50", wantErr: "beyond the run"},
		{name: "degrade factor out of range", degrade: "1:0:1.5@1", wantErr: "outside (0,1)"},
		{name: "unknown fabric level", sever: "9:0@1", wantErr: "fabric level"},
		{name: "conflicting events", degrade: "1:0:0.5@1", sever: "1:0@1", wantErr: "conflicting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := parseFaultEvents(tc.kill, tc.degrade, tc.sever)
			if err != nil {
				t.Fatalf("flag layer rejected %q/%q/%q: %v", tc.kill, tc.degrade, tc.sever, err)
			}
			faultOverrides.events = events
			defer func() { faultOverrides.events = nil }()
			var buf bytes.Buffer
			err = run(&buf, cfg, "fault", false)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run: got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunHumanReport pins the default rendering path.
func TestRunHumanReport(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	var buf bytes.Buffer
	if err := run(&buf, cfg, "shift", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "A12") || !strings.Contains(out, "shift/adaptive-fabric") {
		t.Errorf("human report misses the A12 rows:\n%s", out)
	}
}

// TestBuildSchedOverrides drives the -sched-* flag validation: malformed
// values must fail at the flag layer with a message naming the flag, and
// well-formed values must land in the override set exactly.
func TestBuildSchedOverrides(t *testing.T) {
	cases := []struct {
		name        string
		jobs        int
		churn       float64
		constraints float64
		fit, queue  string
		wantFit     sched.Fit
		wantQueue   sched.QueuePolicy
		wantErr     string
	}{
		{name: "all defaults", wantFit: sched.BestFit, wantQueue: sched.QueueWait},
		{name: "explicit knobs", jobs: 20, churn: 8, constraints: 0.5,
			fit: "worst", queue: "reject", wantFit: sched.WorstFit, wantQueue: sched.QueueReject},
		{name: "best fit by name", fit: "best", wantFit: sched.BestFit, wantQueue: sched.QueueWait},
		{name: "negative jobs", jobs: -1, wantErr: "-sched-jobs"},
		{name: "negative churn", churn: -0.5, wantErr: "-sched-churn"},
		{name: "constraints above one", constraints: 1.5, wantErr: "-sched-constraints"},
		{name: "unknown fit", fit: "snuggest", wantErr: "-sched-fit"},
		{name: "unknown queue", queue: "drop", wantErr: "-sched-queue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				schedOverrides.jobs, schedOverrides.churn, schedOverrides.constraints = 0, 0, 0
				schedOverrides.fit, schedOverrides.queue = sched.BestFit, sched.QueueWait
			}()
			err := buildSchedOverrides(tc.jobs, tc.churn, tc.constraints, tc.fit, tc.queue)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if schedOverrides.jobs != tc.jobs || schedOverrides.churn != tc.churn ||
				schedOverrides.constraints != tc.constraints {
				t.Errorf("overrides %+v, want jobs=%d churn=%v constraints=%v",
					schedOverrides, tc.jobs, tc.churn, tc.constraints)
			}
			if schedOverrides.fit != tc.wantFit || schedOverrides.queue != tc.wantQueue {
				t.Errorf("fit/queue = %v/%v, want %v/%v",
					schedOverrides.fit, schedOverrides.queue, tc.wantFit, tc.wantQueue)
			}
		})
	}
}

// TestBuildSched2Overrides drives the -sched2-* flag validation the same
// way: out-of-range values name the flag, valid values land verbatim.
func TestBuildSched2Overrides(t *testing.T) {
	cases := []struct {
		name       string
		priorities int
		threshold  float64
		wantErr    string
	}{
		{name: "all defaults"},
		{name: "explicit knobs", priorities: 5, threshold: 0.4},
		{name: "negative priorities", priorities: -1, wantErr: "-sched2-priorities"},
		{name: "priorities above hundred", priorities: 101, wantErr: "-sched2-priorities"},
		{name: "threshold above one", threshold: 1.5, wantErr: "-sched2-defrag-threshold"},
		{name: "negative threshold", threshold: -0.1, wantErr: "-sched2-defrag-threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				sched2Overrides.priorities, sched2Overrides.defragThreshold = 0, 0
			}()
			err := buildSched2Overrides(tc.priorities, tc.threshold)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if sched2Overrides.priorities != tc.priorities || sched2Overrides.defragThreshold != tc.threshold {
				t.Errorf("overrides %+v, want priorities=%d threshold=%v",
					sched2Overrides, tc.priorities, tc.threshold)
			}
		})
	}
}

// TestProfileFlags runs the command body under -cpuprofile/-memprofile the
// way main does: a bad path fails naming its flag before any ablation runs,
// and good paths leave both profiles next to the report.
func TestProfileFlags(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	body := func(buf *bytes.Buffer) func() error {
		return func() error { return run(buf, cfg, "policies", false) }
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "missing", "x.prof")
	for flag, paths := range map[string][2]string{"-cpuprofile": {bad, ""}, "-memprofile": {"", bad}} {
		var buf bytes.Buffer
		err := profile.Run(paths[0], paths[1], body(&buf))
		if err == nil || !strings.HasPrefix(err.Error(), flag+":") {
			t.Errorf("bad %s path: error %v, want one naming the flag", flag, err)
		}
		if buf.Len() != 0 {
			t.Errorf("bad %s path: the run went ahead", flag)
		}
	}
	var buf bytes.Buffer
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := profile.Run(cpu, mem, body(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "A1") {
		t.Errorf("profiled run lost its report:\n%s", buf.String())
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", p, err)
		}
	}
}
