package experiment

import (
	"fmt"
	"time"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
)

// A13: torus halo exchange. A routed torus prices communication by hop
// distance along dimension-order routes, so where each application block
// lands on the grid matters: a layout that keeps logically adjacent blocks
// on physically adjacent nodes pays one hop per halo, a scrambled layout
// pays the torus diameter. The scenario scrambles the blocks' logical grid
// cells with a coprime stride, so the positional group→node order (the
// balanced-tree model's only option on a shaped fabric) inherits the
// scramble, and compares three arms: the routed distance matcher with its
// space-filling-curve seed, the tree-only matcher (which skips shaped
// fabrics), and the affinity-blind round-robin dealer.

// TorusConfig parameterizes one torus halo-exchange run.
type TorusConfig struct {
	// Dims is the torus shape, every dimension at least 2 (default 4x4).
	// The platform has one cluster node per cell.
	Dims []int
	// CoresPerNode and CoresPerSocket shape each member machine (defaults
	// 4 and 4: single-socket nodes).
	CoresPerNode, CoresPerSocket int
	// Iters is the iteration count (default 8).
	Iters int
	// Scramble seeds the deterministic shuffle that assigns block b its
	// logical grid cell. A shuffle (rather than a coprime stride) is
	// required: any affine permutation of a torus keeps much of its
	// adjacency — on a 4x4 grid, stride 5 maps every neighbour pair to
	// another neighbour pair — and the positional group→node order would
	// accidentally stay near-optimal. 0 picks 1; negative disables the
	// scramble (identity layout — diagnostics only, every arm then starts
	// adjacency-optimal).
	Scramble int64
	// BlockBytes is each task's working set (default 1 MiB).
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged between grid
	// neighbours inside a node-sized block (default 1 MiB): the heavy
	// coupling that makes the blocks the min-cut partition groups, and the
	// traffic an affinity-blind dealer pays over the fabric when it splits
	// a block across nodes.
	HaloBytes float64
	// WireBytes is the per-iteration volume between slot-aligned tasks of
	// logically adjacent blocks (default 96 KiB): the traffic whose hop
	// count the block layout decides.
	WireBytes float64
	// Fabric overrides the interconnect parameters; zero fields keep the
	// defaults (10GbE-class links on every torus edge).
	Fabric numasim.Fabric
	// Seed drives the simulated OS scheduler.
	Seed int64
}

func (c TorusConfig) withDefaults() TorusConfig {
	if len(c.Dims) == 0 {
		c.Dims = []int{4, 4}
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 4
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 4
	}
	if c.Iters == 0 {
		c.Iters = 8
	}
	if c.Scramble == 0 {
		c.Scramble = 1
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 1 << 20
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 1 << 20
	}
	if c.WireBytes == 0 {
		c.WireBytes = 96 << 10
	}
	return c
}

func (c TorusConfig) cells() int {
	n := 1
	for _, d := range c.Dims {
		n *= d
	}
	return n
}

// torusPerm is the deterministic block→cell shuffle (Fisher–Yates over a
// self-contained xorshift generator, so the layout is bit-stable across
// runs and toolchains). Negative seeds return the identity.
func torusPerm(cells int, seed int64) []int {
	perm := make([]int, cells)
	for i := range perm {
		perm[i] = i
	}
	if seed < 0 {
		return perm
	}
	s := uint64(seed)*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := cells - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Validate rejects configurations the torus pipeline cannot run.
func (c TorusConfig) Validate() error {
	d := c.withDefaults()
	cells := d.cells()
	switch {
	case len(d.Dims) == 0:
		return fmt.Errorf("experiment: torus scenario needs at least one dimension")
	case cells < 4:
		return fmt.Errorf("experiment: torus scenario needs at least 4 cells, got %d", cells)
	case d.CoresPerNode < 2 || d.CoresPerSocket < 1:
		return fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", d.CoresPerNode, d.CoresPerSocket)
	case d.CoresPerNode%d.CoresPerSocket != 0:
		return fmt.Errorf("experiment: %d cores per node not divisible into sockets of %d", d.CoresPerNode, d.CoresPerSocket)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.BlockBytes < 0 || d.HaloBytes < 0 || d.WireBytes < 0:
		return fmt.Errorf("experiment: negative volume in torus config")
	}
	for _, dim := range d.Dims {
		if dim < 2 {
			return fmt.Errorf("experiment: torus dimension %d below 2 (dims %v)", dim, d.Dims)
		}
	}
	return nil
}

// TorusCluster builds the simulated torus platform for a configuration via
// the spec-driven platform path: one single-switch member machine per torus
// cell, NIC-class links on every torus edge.
func TorusCluster(cfg TorusConfig) (*numasim.Platform, error) {
	cfg = cfg.withDefaults()
	dims := ""
	for i, d := range cfg.Dims {
		if i > 0 {
			dims += "x"
		}
		dims += fmt.Sprint(d)
	}
	spec := fmt.Sprintf("torus:%s pack:%d l3:1 core:%d pu:1",
		dims, cfg.CoresPerNode/cfg.CoresPerSocket, cfg.CoresPerSocket)
	return numasim.NewPlatformAttrs(spec, cfg.Fabric.Defaults(), numasim.Config{})
}

// TorusModes lists the placement arms of the torus ablation in report
// order: the routed distance matcher with its space-filling-curve seed
// first (the speedup base), then the balanced-tree-only matcher (which
// skips shaped fabrics and keeps the scrambled positional order), then the
// affinity-blind round-robin dealer.
func TorusModes() []string {
	return []string{"sfc", "tree-matched", "rr"}
}

// TorusResult reports one torus halo-exchange run.
type TorusResult struct {
	Mode    string
	Seconds float64
	// WallSeconds is the real time the placement pipeline took, the
	// figure the bench tier gates.
	WallSeconds float64
}

// String renders a one-line summary.
func (r TorusResult) String() string {
	return fmt.Sprintf("%-13s time=%8.3fs place=%6.4fs wall", r.Mode, r.Seconds, r.WallSeconds)
}

// torusNeighbors returns the row-major cell ids adjacent to cell on the
// grid (±1 per dimension, wrapping). A dimension of length 2 has a single
// neighbor in that direction (the wrap coincides), deduplicated here.
func torusNeighbors(dims []int, cell int) []int {
	coords := make([]int, len(dims))
	c := cell
	for k := len(dims) - 1; k >= 0; k-- {
		coords[k] = c % dims[k]
		c /= dims[k]
	}
	var out []int
	seen := map[int]bool{cell: true}
	for k := range dims {
		for _, d := range []int{1, dims[k] - 1} {
			n := 0
			for j := range dims {
				x := coords[j]
				if j == k {
					x = (x + d) % dims[j]
				}
				n = n*dims[j] + x
			}
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// buildTorus constructs the torus halo-exchange workload: one task per
// core, grouped into node-sized blocks; block b sits on the logical grid
// cell the Scramble shuffle deals it. Task i of block b
//
//   - reads HaloBytes from its grid neighbours inside the block (a 2-row
//     stencil grid, the heavy stationary coupling that keeps the blocks the
//     min-cut partition groups),
//   - exchanges WireBytes with task i of every logically adjacent block
//     (±1 per torus dimension of the blocks' scrambled cells, wrapping),
//   - and writes its own block location.
//
// All volumes are whole bytes, so the run is bit-deterministic regardless
// of goroutine interleaving.
func buildTorus(rt *orwl.Runtime, cfg TorusConfig) error {
	cfg = cfg.withDefaults()
	blocks := cfg.cells()
	c := cfg.CoresPerNode
	n := blocks * c
	locs := make([]*orwl.Location, n)
	for i := 0; i < n; i++ {
		locs[i] = rt.NewLocation(fmt.Sprintf("blk%d.%d", i/c, i%c), cfg.BlockBytes)
	}
	// cellOf scrambles block → logical cell; blockAt inverts it.
	cellOf := torusPerm(blocks, cfg.Scramble)
	blockAt := make([]int, blocks)
	for b, cell := range cellOf {
		blockAt[cell] = b
	}
	cells := float64(cfg.BlockBytes / 8)
	for i := 0; i < n; i++ {
		b, slot := i/c, i%c
		task := rt.AddTask(fmt.Sprintf("t%d.%d", b, slot), nil)
		var handles []*orwl.Handle
		// Heavy stencil grid inside the node block: 2 rows of c/2 columns
		// (one row when the block is too narrow).
		gw := c / 2
		if gw < 1 {
			gw = 1
		}
		sx, sy := slot%gw, slot/gw
		for _, d := range [][2]int{{0, -1}, {0, 1}, {1, 0}, {-1, 0}} {
			nx, ny := sx+d[0], sy+d[1]
			if nx < 0 || nx >= gw || ny < 0 || ny*gw+nx >= c {
				continue
			}
			handles = append(handles, task.NewHandleVol(locs[b*c+ny*gw+nx], orwl.Read, cfg.HaloBytes, 0))
		}
		// Slot-aligned wire exchange with every logically adjacent block.
		for _, cell := range torusNeighbors(cfg.Dims, cellOf[b]) {
			handles = append(handles, task.NewHandleVol(locs[blockAt[cell]*c+slot], orwl.Read, cfg.WireBytes, 0))
		}
		w := task.NewHandleVol(locs[i], orwl.Write, cfg.HaloBytes, 1)
		region := locs[i].Region()
		block := cfg.BlockBytes
		task.SetFunc(func(t *orwl.Task) error {
			for it := 0; it < cfg.Iters; it++ {
				last := it == cfg.Iters-1
				for _, h := range handles {
					if err := h.Acquire(); err != nil {
						return err
					}
					if err := releaseOrNext(h, last); err != nil {
						return err
					}
				}
				if err := w.Acquire(); err != nil {
					return err
				}
				if p := t.Proc(); p != nil {
					p.Compute(11 * cells) // LK23's flops per cell
					p.SweepWorkingSet(region, block)
				}
				if err := releaseOrNext(w, last); err != nil {
					return err
				}
				t.EndIteration()
			}
			return nil
		})
	}
	return nil
}

// torusPolicy returns the placement policy of one torus arm.
func torusPolicy(mode string) (placement.Policy, error) {
	switch mode {
	case "sfc":
		// The default hierarchical pipeline: on a shaped fabric the
		// group→node matching runs through the routed distance model with
		// the space-filling-curve seed (and the partitioner's portfolio
		// gains the curve-chain candidate).
		return placement.Hierarchical{}, nil
	case "tree-matched":
		// What a balanced-tree matcher does on a shaped fabric, which admits
		// no balanced abstract tree: the group→node matching is skipped (no
		// curve seed, no curve chain in the partition) and the partition
		// keeps the positional group→node order — which inherits the
		// scramble.
		return placement.Hierarchical{NoFabricMatch: true}, nil
	case "rr":
		return placement.RoundRobinNodes{}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown torus mode %q", mode)
	}
}

// RunTorus executes the torus halo-exchange workload under one placement
// mode ("sfc", "tree-matched" or "rr"; see TorusModes).
func RunTorus(mode string, cfg TorusConfig) (TorusResult, error) {
	if err := cfg.Validate(); err != nil {
		return TorusResult{}, err
	}
	cfg = cfg.withDefaults()
	pol, err := torusPolicy(mode)
	if err != nil {
		return TorusResult{}, err
	}
	cluster, err := TorusCluster(cfg)
	if err != nil {
		return TorusResult{}, err
	}
	mach := cluster.Machine()
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: cfg.Seed})
	if err := buildTorus(rt, cfg); err != nil {
		return TorusResult{}, err
	}
	start := time.Now()
	a, err := placement.Place(rt, pol)
	if err != nil {
		return TorusResult{}, err
	}
	wall := time.Since(start).Seconds()
	placement.SetContention(mach, a, nil)
	placement.SetFabricContention(mach, a, rt.CommMatrix())
	if err := rt.Run(); err != nil {
		return TorusResult{}, err
	}
	return TorusResult{Mode: mode, Seconds: rt.MakespanSeconds(), WallSeconds: wall}, nil
}

// AblationTorus (A13) compares the placement arms on the torus halo
// exchange: routed distance matching with the space-filling-curve seed,
// the balanced-tree-only matcher, and round-robin.
func AblationTorus(cfg TorusConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var rows []AblationRow
	for _, mode := range TorusModes() {
		res, err := RunTorus(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation torus, %s: %w", mode, err)
		}
		rows = append(rows, AblationRow{
			Name:        "torus/" + mode,
			Seconds:     res.Seconds,
			WallSeconds: res.WallSeconds,
			Detail: fmt.Sprintf("torus %v x %d cores, scramble %d",
				cfg.Dims, cfg.CoresPerNode, cfg.Scramble),
		})
	}
	return rows, nil
}

// TorusConfigFrom derives the torus configuration from the common ablation
// Config: a 4x4 torus with single-socket nodes scaled so the total core
// count comes close to cfg.Cores (minimum 2 cores per node so the
// intra-block stencil exists).
func TorusConfigFrom(cfg Config) TorusConfig {
	cfg = cfg.withDefaults()
	per := cfg.Cores / 16
	if per < 2 {
		per = 2
	}
	return TorusConfig{
		Dims:           []int{4, 4},
		CoresPerNode:   per,
		CoresPerSocket: per,
		Seed:           cfg.Seed,
	}
}
