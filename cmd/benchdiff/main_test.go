package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseDoc = `{
  "schema": "repro-bench/1",
  "seed": 7,
  "ablations": [
    {"exp": "scale", "id": "S1", "title": "S1", "rows": [
      {"name": "scale/stencil/10k-tasks/100-nodes", "seconds": 0, "cycles": 0, "wall_seconds": 1.0},
      {"name": "scale/random/10k-tasks/100-nodes", "seconds": 0, "cycles": 0, "wall_seconds": 2.0}
    ]},
    {"exp": "shift", "id": "A12", "title": "A12", "rows": [
      {"name": "phase/static", "seconds": 3.5, "cycles": 1e9}
    ]}
  ]
}`

func TestDiffPassesWithinFactor(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseDoc)
	cur := writeReport(t, dir, "cur.json", strings.NewReplacer(
		`"wall_seconds": 1.0`, `"wall_seconds": 1.9`,
		`"wall_seconds": 2.0`, `"wall_seconds": 0.5`,
	).Replace(baseDoc))
	var buf bytes.Buffer
	if err := diff(&buf, base, cur, 2); err != nil {
		t.Fatalf("within-factor run failed: %v\n%s", err, buf.String())
	}
	// Simulated rows (no wall_seconds) are not part of the gate.
	if strings.Contains(buf.String(), "phase/static") {
		t.Errorf("simulated row leaked into the wall-time table:\n%s", buf.String())
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseDoc)
	cur := writeReport(t, dir, "cur.json",
		strings.Replace(baseDoc, `"wall_seconds": 1.0`, `"wall_seconds": 2.5`, 1))
	var buf bytes.Buffer
	err := diff(&buf, base, cur, 2)
	if err == nil {
		t.Fatalf("2.5x regression passed a 2x gate:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "scale/scale/stencil/10k-tasks/100-nodes") {
		t.Errorf("error does not name the regressed row: %v", err)
	}
}

func TestDiffFailsOnMissingRow(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseDoc)
	cur := writeReport(t, dir, "cur.json",
		strings.Replace(baseDoc, `"wall_seconds": 2.0`, `"wall_seconds": 0`, 1))
	var buf bytes.Buffer
	err := diff(&buf, base, cur, 2)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("dropped row not reported: %v\n%s", err, buf.String())
	}
}

const manifestDoc = `{
  "schema": "repro-bench-manifest/1",
  "tiers": [
    {"exp": "scale", "artifact": "BENCH_A.json", "flags": ["-scale-tasks", "10000"], "factor": 2},
    {"exp": "adaptive,shift", "artifact": "BENCH_B.json", "flags": [], "factor": 0}
  ]
}`

const simOnlyDoc = `{
  "schema": "repro-bench/1",
  "ablations": [{"exp": "shift", "rows": [{"name": "phase/static", "seconds": 3.5}]}]
}`

// TestManifestPasses: a complete manifest — every gated tier has a
// wall-carrying baseline, every committed BENCH file is referenced.
func TestManifestPasses(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "BENCH_A.json", baseDoc)
	writeReport(t, dir, "BENCH_B.json", simOnlyDoc)
	manifest := writeReport(t, dir, "manifest.json", manifestDoc)
	var buf bytes.Buffer
	if err := checkManifest(&buf, manifest); err != nil {
		t.Fatalf("complete manifest failed: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"cycle- and wall-gated x2", "cycle-gated"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("manifest table misses %q:\n%s", want, buf.String())
		}
	}
}

// TestManifestFailsOnUnreferencedBaseline: a committed BENCH file no tier
// claims means a baseline silently stopped being gated.
func TestManifestFailsOnUnreferencedBaseline(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "BENCH_A.json", baseDoc)
	writeReport(t, dir, "BENCH_B.json", simOnlyDoc)
	writeReport(t, dir, "BENCH_ORPHAN.json", baseDoc)
	manifest := writeReport(t, dir, "manifest.json", manifestDoc)
	err := checkManifest(io.Discard, manifest)
	if err == nil || !strings.Contains(err.Error(), "BENCH_ORPHAN.json") {
		t.Fatalf("orphan baseline not reported: %v", err)
	}
}

// TestManifestFailsOnBadTiers: a gated tier without a usable baseline, a
// wall-less baseline, duplicate artifacts and schema drift all fail.
func TestManifestFailsOnBadTiers(t *testing.T) {
	cases := []struct {
		name     string
		manifest string
		files    map[string]string
		wantErr  string
	}{
		{"missing baseline", manifestDoc, map[string]string{"BENCH_B.json": simOnlyDoc}, "BENCH_A.json"},
		{"baseline without walls", manifestDoc,
			map[string]string{"BENCH_A.json": simOnlyDoc, "BENCH_B.json": simOnlyDoc}, "no wall_seconds"},
		{"wrong schema", strings.Replace(manifestDoc, "repro-bench-manifest/1", "repro-bench-manifest/999", 1),
			nil, "schema"},
		{"no tiers", `{"schema": "repro-bench-manifest/1", "tiers": []}`, nil, "no tiers"},
		{"unnamed artifact", `{"schema": "repro-bench-manifest/1", "tiers": [{"exp": "scale", "factor": 0}]}`,
			nil, "required"},
		{"negative factor", `{"schema": "repro-bench-manifest/1", "tiers": [{"exp": "a", "artifact": "x.json", "factor": -1}]}`,
			nil, "negative factor"},
		{"duplicate artifact", `{"schema": "repro-bench-manifest/1", "tiers": [
			{"exp": "a", "artifact": "x.json", "factor": 0},
			{"exp": "b", "artifact": "x.json", "factor": 0}]}`, nil, "already claimed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range tc.files {
				writeReport(t, dir, name, body)
			}
			manifest := writeReport(t, dir, "manifest.json", tc.manifest)
			err := checkManifest(io.Discard, manifest)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRepoManifestComplete pins the committed manifest itself: it must pass
// the completeness check against the committed bench/ baselines, so adding
// a BENCH file without wiring it into the CI loop fails here first.
func TestRepoManifestComplete(t *testing.T) {
	if err := checkManifest(io.Discard, filepath.Join("..", "..", "bench", "manifest.json")); err != nil {
		t.Fatalf("committed bench/manifest.json incomplete: %v", err)
	}
}

func TestDiffRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", baseDoc)
	wrongSchema := writeReport(t, dir, "schema.json",
		strings.Replace(baseDoc, "repro-bench/1", "repro-bench/999", 1))
	noWalls := writeReport(t, dir, "nowalls.json", `{
  "schema": "repro-bench/1",
  "ablations": [{"exp": "shift", "rows": [{"name": "phase/static", "seconds": 3.5}]}]
}`)
	var buf bytes.Buffer
	if err := diff(&buf, base, wrongSchema, 2); err == nil {
		t.Error("mismatched schema accepted")
	}
	if err := diff(&buf, noWalls, base, 2); err == nil {
		t.Error("baseline without wall rows accepted")
	}
	if err := diff(&buf, base, base, -1); err == nil {
		t.Error("negative factor accepted")
	}
	if err := diff(&buf, filepath.Join(dir, "absent.json"), base, 2); err == nil {
		t.Error("missing baseline file accepted")
	}
}

// TestDiffCycleGate pins the always-on cycle gate: any cycles difference on
// a row present in both documents fails, at every factor including the
// wall-skipping 0; rows present on one side only are not compared; and
// factor 0 ignores wall times entirely.
func TestDiffCycleGate(t *testing.T) {
	cases := []struct {
		name    string
		base    string
		cur     string
		factor  float64
		wantErr string // "" means the diff must pass
	}{
		{"identical", baseDoc, baseDoc, 2, ""},
		{"identical, walls skipped", baseDoc, baseDoc, 0, ""},
		{"perturbed simulated row", baseDoc,
			strings.Replace(baseDoc, `"cycles": 1e9`, `"cycles": 1000000001`, 1), 2, "shift/phase/static"},
		{"perturbed row, walls skipped", baseDoc,
			strings.Replace(baseDoc, `"cycles": 1e9`, `"cycles": 999999999.5`, 1), 0, "shift/phase/static"},
		{"perturbed wall row", baseDoc,
			strings.Replace(baseDoc, `"cycles": 0, "wall_seconds": 2.0`, `"cycles": 3, "wall_seconds": 2.0`, 1), 2,
			"scale/scale/random/10k-tasks/100-nodes"},
		{"row only in baseline", baseDoc,
			strings.Replace(baseDoc, `"name": "phase/static"`, `"name": "phase/renamed"`, 1), 2, ""},
		{"wall regression ignored at factor 0", baseDoc,
			strings.Replace(baseDoc, `"wall_seconds": 1.0`, `"wall_seconds": 50`, 1), 0, ""},
		{"simulated-only baseline at factor 0", simOnlyDoc, simOnlyDoc, 0, ""},
		{"simulated-only baseline, perturbed", simOnlyDoc,
			strings.Replace(simOnlyDoc, `"seconds": 3.5}`, `"seconds": 3.5, "cycles": 7}`, 1), 0, "phase/static"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeReport(t, dir, "base.json", tc.base)
			cur := writeReport(t, dir, "cur.json", tc.cur)
			var buf bytes.Buffer
			err := diff(&buf, base, cur, tc.factor)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("diff failed: %v\n%s", err, buf.String())
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "cycles") {
				t.Fatalf("got %v, want a cycles failure naming %q\n%s", err, tc.wantErr, buf.String())
			}
		})
	}
}
