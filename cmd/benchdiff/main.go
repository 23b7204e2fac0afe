// Command benchdiff gates regressions between two bench documents produced
// by cmd/ablate -json:
//
//	benchdiff -base BENCH_6.json -cur BENCH_new.json
//	benchdiff -base BENCH_6.json -cur BENCH_new.json -factor 3
//	benchdiff -base BENCH_5.json -cur BENCH_new.json -factor 0
//	benchdiff -manifest bench/manifest.json
//
// Two checks run. The cycle gate is always on: every row present in both
// documents must report bit-identical simulated cycles, because the
// simulator is deterministic and a moved cycle count means the placement or
// the pricing changed. The wall gate compares the rows carrying
// wall_seconds (the benchmark tiers): every wall row of the baseline must
// still exist in the current document — silently dropping a grid point is
// itself a failure — and must not exceed factor × its baseline wall time
// (default 2, absorbing runner-to-runner machine variance while still
// catching an optimization being backed out). Factor 0 skips the wall gate,
// for tiers whose rows carry no wall_seconds. The comparison table is
// printed either way; the exit status is non-zero on any cycle difference,
// wall regression or missing wall row. New rows in the current document
// pass freely: they have no baseline yet.
//
// -manifest checks the bench-gate manifest instead of diffing: every tier
// must be well-formed (artifact named, non-negative factor, and — for
// factor > 0 — a committed baseline next to the manifest that carries wall
// rows), and every committed BENCH_*.json beside the manifest must be
// referenced by some tier, so a baseline cannot silently stop being gated.
// The CI bench-smoke job loops over the same manifest to regenerate and
// gate each tier.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		base     = flag.String("base", "", "baseline bench JSON (required without -manifest)")
		cur      = flag.String("cur", "", "current bench JSON (required without -manifest)")
		factor   = flag.Float64("factor", 2, "allowed wall-time growth factor over the baseline (0 skips the wall gate)")
		manifest = flag.String("manifest", "", "bench-gate manifest to check for completeness instead of diffing")
	)
	flag.Parse()
	if *manifest != "" {
		if *base != "" || *cur != "" {
			fmt.Fprintln(os.Stderr, "benchdiff: -manifest excludes -base/-cur")
			os.Exit(2)
		}
		if err := checkManifest(os.Stdout, *manifest); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *base == "" || *cur == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -cur are both required")
		os.Exit(2)
	}
	if err := diff(os.Stdout, *base, *cur, *factor); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

// benchManifest mirrors the bench/manifest.json schema the CI bench-smoke
// loop consumes.
type benchManifest struct {
	Schema string `json:"schema"`
	Tiers  []struct {
		Exp      string   `json:"exp"`
		Artifact string   `json:"artifact"`
		Flags    []string `json:"flags"`
		Factor   float64  `json:"factor"`
	} `json:"tiers"`
}

const manifestSchema = "repro-bench-manifest/1"

// checkManifest validates the bench-gate manifest: well-formed tiers,
// wall-carrying baselines for every gated tier, and no committed baseline
// left unreferenced.
func checkManifest(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m benchManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if m.Schema != manifestSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, m.Schema, manifestSchema)
	}
	if len(m.Tiers) == 0 {
		return fmt.Errorf("%s: no tiers", path)
	}
	dir := filepath.Dir(path)
	referenced := map[string]bool{}
	var bad []string
	for i, tier := range m.Tiers {
		if tier.Exp == "" || tier.Artifact == "" {
			bad = append(bad, fmt.Sprintf("tier %d: exp and artifact are both required", i))
			continue
		}
		if tier.Factor < 0 {
			bad = append(bad, fmt.Sprintf("tier %d (%s): negative factor %v", i, tier.Exp, tier.Factor))
		}
		if referenced[tier.Artifact] {
			bad = append(bad, fmt.Sprintf("tier %d (%s): artifact %s already claimed by an earlier tier", i, tier.Exp, tier.Artifact))
		}
		referenced[tier.Artifact] = true
		verdict := "cycle-gated"
		if tier.Factor > 0 {
			verdict = fmt.Sprintf("cycle- and wall-gated x%g", tier.Factor)
			baseline := filepath.Join(dir, tier.Artifact)
			rows, err := load(baseline)
			switch {
			case err != nil:
				bad = append(bad, fmt.Sprintf("tier %d (%s): baseline %s: %v", i, tier.Exp, baseline, err))
			case countWalls(rows) == 0:
				bad = append(bad, fmt.Sprintf("tier %d (%s): baseline %s carries no wall_seconds rows to gate on", i, tier.Exp, baseline))
			}
		}
		fmt.Fprintf(w, "  %-40s -> %-14s %s\n", tier.Exp, tier.Artifact, verdict)
	}
	committed, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	for _, f := range committed {
		if !referenced[filepath.Base(f)] {
			bad = append(bad, fmt.Sprintf("committed baseline %s is not referenced by any manifest tier", f))
		}
	}
	if len(bad) > 0 {
		msg := bad[0]
		for _, m := range bad[1:] {
			msg += "; " + m
		}
		return fmt.Errorf("%d manifest check(s) failed: %s", len(bad), msg)
	}
	return nil
}

// benchReport mirrors the subset of the cmd/ablate -json schema benchdiff
// consumes (see benchSchema there).
type benchReport struct {
	Schema    string `json:"schema"`
	Ablations []struct {
		Exp  string `json:"exp"`
		Rows []struct {
			Name        string  `json:"name"`
			Cycles      float64 `json:"cycles"`
			WallSeconds float64 `json:"wall_seconds"`
		} `json:"rows"`
	} `json:"ablations"`
}

const benchSchema = "repro-bench/1"

// benchRow is one row of a bench document: its simulated cycles, and its
// wall time (0 on simulated-only rows).
type benchRow struct {
	cycles, wall float64
}

// load reads a bench document into its rows, keyed by "exp/name".
func load(path string) (map[string]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, benchSchema)
	}
	rows := map[string]benchRow{}
	for _, a := range rep.Ablations {
		for _, r := range a.Rows {
			rows[a.Exp+"/"+r.Name] = benchRow{cycles: r.Cycles, wall: r.WallSeconds}
		}
	}
	return rows, nil
}

// countWalls returns how many rows carry a wall time.
func countWalls(rows map[string]benchRow) int {
	n := 0
	for _, r := range rows {
		if r.wall > 0 {
			n++
		}
	}
	return n
}

// diff compares the two documents — cycles on every shared row, and wall
// times on the baseline's wall rows unless factor is 0 — printing the table
// to w and returning an error describing every cycle difference, wall
// regression and missing wall row.
func diff(w io.Writer, basePath, curPath string, factor float64) error {
	if factor < 0 {
		return fmt.Errorf("factor %v must not be negative", factor)
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	cur, err := load(curPath)
	if err != nil {
		return err
	}
	if factor > 0 && countWalls(base) == 0 {
		return fmt.Errorf("%s carries no wall_seconds rows to gate on", basePath)
	}
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	shared := 0
	for _, k := range keys {
		b := base[k]
		c, ok := cur[k]
		if ok {
			shared++
			if c.cycles != b.cycles {
				fmt.Fprintf(w, "  %-52s %.17g -> %.17g cycles  CHANGED\n", k, b.cycles, c.cycles)
				bad = append(bad, fmt.Sprintf("%s: %.17g cycles vs baseline %.17g", k, c.cycles, b.cycles))
			}
		}
		if factor == 0 || b.wall <= 0 {
			continue
		}
		if c.wall <= 0 {
			fmt.Fprintf(w, "  %-52s %9.3fs  MISSING\n", k, b.wall)
			bad = append(bad, fmt.Sprintf("%s: present in baseline, missing from current", k))
			continue
		}
		verdict := "ok"
		if c.wall > b.wall*factor {
			verdict = fmt.Sprintf("REGRESSED (> x%g)", factor)
			bad = append(bad, fmt.Sprintf("%s: %.3fs vs baseline %.3fs (x%.2f > x%g)", k, c.wall, b.wall, c.wall/b.wall, factor))
		}
		fmt.Fprintf(w, "  %-52s %9.3fs -> %9.3fs  x%-5.2f %s\n", k, b.wall, c.wall, c.wall/b.wall, verdict)
	}
	fmt.Fprintf(w, "  cycles compared on %d shared rows\n", shared)
	if len(bad) > 0 {
		msg := bad[0]
		for _, m := range bad[1:] {
			msg += "; " + m
		}
		return fmt.Errorf("%d bench check(s) failed: %s", len(bad), msg)
	}
	return nil
}
