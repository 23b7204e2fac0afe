package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
)

// The cluster experiment (A9) takes the placement pipeline beyond the single
// SMP of the paper: the LK23 block stencil runs on a simulated multi-machine
// cluster whose nodes are joined by a network fabric, and the hierarchical
// two-level policy — cut-minimizing partition across nodes, then Algorithm 1
// per node — is compared against flat TreeMatch on the whole cluster tree,
// round-robin across nodes, and a fabric-free single machine of the same
// total core count (the price of distribution itself).

// ClusterConfig parameterizes one multi-node stencil run.
type ClusterConfig struct {
	// Nodes is the number of cluster machines (default 4, minimum 2 for the
	// scenario to exercise the fabric).
	Nodes int
	// CoresPerNode and CoresPerSocket shape each machine (defaults 12 and
	// 6): every node is CoresPerNode/CoresPerSocket sockets with a shared
	// L3 and one NUMA node per socket.
	CoresPerNode, CoresPerSocket int
	// Iters is the number of stencil iterations (default 30).
	Iters int
	// BlockBytes is each task's working set (default 2 MiB): the block it
	// sweeps per iteration and drags along when migrated.
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged with each edge
	// neighbour (default 256 KiB).
	HaloBytes float64
	// Fabric overrides the interconnect parameters; zero fields keep the
	// 10GbE-class defaults.
	Fabric numasim.Fabric
	// Seed drives the simulated OS scheduler.
	Seed int64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 12
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 6
	}
	if c.Iters == 0 {
		c.Iters = 30
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 2 << 20
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 256 << 10
	}
	return c
}

// Validate rejects configurations the cluster pipeline cannot run.
func (c ClusterConfig) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Nodes < 2:
		return fmt.Errorf("experiment: cluster needs at least 2 nodes, got %d", d.Nodes)
	case d.CoresPerNode < 1 || d.CoresPerSocket < 1:
		return fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", d.CoresPerNode, d.CoresPerSocket)
	case d.CoresPerNode%d.CoresPerSocket != 0:
		return fmt.Errorf("experiment: %d cores per node not divisible into sockets of %d", d.CoresPerNode, d.CoresPerSocket)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.BlockBytes < 0 || d.HaloBytes < 0:
		return fmt.Errorf("experiment: negative block or halo size")
	}
	return nil
}

// Cluster builds the simulated cluster for a configuration via the
// spec-driven platform path. A Fabric.Racks override splits the nodes
// evenly across that many top-of-rack switches.
func Cluster(cfg ClusterConfig) (*numasim.Platform, error) {
	cfg = cfg.withDefaults()
	nodeSpec := fmt.Sprintf("pack:%d l3:1 core:%d pu:1",
		cfg.CoresPerNode/cfg.CoresPerSocket, cfg.CoresPerSocket)
	spec := fmt.Sprintf("cluster:%d %s", cfg.Nodes, nodeSpec)
	if r := cfg.Fabric.Racks; r > 1 {
		if cfg.Nodes%r != 0 {
			return nil, fmt.Errorf("experiment: %d cluster nodes not divisible across %d racks", cfg.Nodes, r)
		}
		spec = fmt.Sprintf("rack:%d cluster:%d %s", r, cfg.Nodes/r, nodeSpec)
	}
	return numasim.NewPlatformAttrs(spec, cfg.Fabric.Defaults(), numasim.Config{})
}

// ClusterModes lists the placement arms of the cluster ablation in report
// order: the hierarchical two-level policy first (the speedup base), then
// flat TreeMatch on the whole cluster tree, round-robin across nodes, and
// the fabric-free single machine.
func ClusterModes() []string {
	return []string{"hierarchical", "flat", "rr-nodes", "bignode"}
}

// buildClusterStencil constructs the multi-node block stencil on the
// runtime: one task per core, arranged in the most square bx×by grid. Task
// (x,y) writes its own block location and reads the block of each edge
// neighbour every iteration, so every task pair cut apart by the node
// partition sends its halo volume over the fabric once per iteration. All
// volumes are whole bytes, so the run is bit-deterministic regardless of
// goroutine interleaving (the phase-shift scenario's discipline).
func buildClusterStencil(rt *orwl.Runtime, cfg ClusterConfig) error {
	cfg = cfg.withDefaults()
	n := cfg.Nodes * cfg.CoresPerNode
	bx, by := BlockGrid(n)
	id := func(x, y int) int { return y*bx + x }
	locs := make([]*orwl.Location, n)
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			locs[id(x, y)] = rt.NewLocation(fmt.Sprintf("blk(%d,%d)", x, y), cfg.BlockBytes)
		}
	}
	cells := float64(cfg.BlockBytes / 8)
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			i := id(x, y)
			task := rt.AddTask(fmt.Sprintf("b(%d,%d)", x, y), nil)
			var halos []*orwl.Handle
			for _, d := range [][2]int{{0, -1}, {0, 1}, {1, 0}, {-1, 0}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= bx || ny < 0 || ny >= by {
					continue
				}
				halos = append(halos, task.NewHandleVol(locs[id(nx, ny)], orwl.Read, cfg.HaloBytes, 0))
			}
			w := task.NewHandleVol(locs[i], orwl.Write, cfg.HaloBytes, 1)
			region := locs[i].Region()
			block := cfg.BlockBytes
			task.SetFunc(func(t *orwl.Task) error {
				for it := 0; it < cfg.Iters; it++ {
					last := it == cfg.Iters-1
					for _, h := range halos {
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
	}
	return nil
}

// clusterPolicy returns the placement policy and machine of one ablation
// arm.
func clusterPolicy(mode string, cfg ClusterConfig) (*numasim.Machine, placement.Policy, error) {
	switch mode {
	case "hierarchical", "flat", "rr-nodes":
		c, err := Cluster(cfg)
		if err != nil {
			return nil, nil, err
		}
		var pol placement.Policy
		switch mode {
		case "hierarchical":
			pol = placement.Hierarchical{}
		case "flat":
			pol = placement.TreeMatch{}
		default:
			pol = placement.RoundRobinNodes{}
		}
		return c.Machine(), pol, nil
	case "bignode":
		// The same total core count in one shared-memory machine: no
		// fabric, the upper bound distribution has to pay for.
		total := cfg.Nodes * cfg.CoresPerNode
		m, err := machineFromSpec(fmt.Sprintf("pack:%d l3:1 core:%d pu:1",
			total/cfg.CoresPerSocket, cfg.CoresPerSocket))
		if err != nil {
			return nil, nil, err
		}
		return m, placement.TreeMatch{}, nil
	default:
		return nil, nil, fmt.Errorf("experiment: unknown cluster mode %q", mode)
	}
}

// RunCluster executes the multi-node stencil under one placement mode and
// returns its simulated processing time.
func RunCluster(mode string, cfg ClusterConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.withDefaults()
	mach, pol, err := clusterPolicy(mode, cfg)
	if err != nil {
		return Result{}, err
	}
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: cfg.Seed})
	if err := buildClusterStencil(rt, cfg); err != nil {
		return Result{}, err
	}
	a, err := placement.Place(rt, pol)
	if err != nil {
		return Result{}, err
	}
	placement.SetContention(mach, a, nil)
	placement.SetFabricContention(mach, a, rt.CommMatrix())
	if err := rt.Run(); err != nil {
		return Result{}, err
	}
	tasks := cfg.Nodes * cfg.CoresPerNode
	return Result{
		Impl:     ORWLBind,
		Cores:    tasks,
		Blocks:   tasks,
		Tasks:    tasks,
		Seconds:  rt.MakespanSeconds(),
		Policy:   a.Policy,
		Strategy: a.Strategy.String(),
	}, nil
}

// AblationCluster (A9) compares the placement arms on the multi-node
// stencil.
func AblationCluster(cfg ClusterConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	var rows []AblationRow
	for _, mode := range ClusterModes() {
		res, err := RunCluster(mode, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation cluster, %s: %w", mode, err)
		}
		detail := fmt.Sprintf("%d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode)
		if mode == "bignode" {
			detail = fmt.Sprintf("1 machine x %d cores", cfg.Nodes*cfg.CoresPerNode)
		}
		rows = append(rows, AblationRow{Name: "cluster/" + mode, Seconds: res.Seconds, Detail: detail})
	}
	return rows, nil
}

// ClusterConfigFrom derives the cluster configuration from the common
// ablation Config: the core count splits across 4 nodes (2 when it is too
// small). A core count the node count does not divide is rounded down to
// nodes × (cores/nodes); the Detail column of every A9 row prints the
// effective shape, so the adjustment is visible in the report.
func ClusterConfigFrom(cfg Config) ClusterConfig {
	cfg = cfg.withDefaults()
	nodes := 4
	if cfg.Cores < 16 {
		nodes = 2
	}
	perNode := cfg.Cores / nodes
	if perNode < 1 {
		perNode = 1
	}
	perSocket := cfg.CoresPerSocket
	if perSocket > perNode || perNode%perSocket != 0 {
		perSocket = perNode
	}
	return ClusterConfig{
		Nodes:          nodes,
		CoresPerNode:   perNode,
		CoresPerSocket: perSocket,
		Seed:           cfg.Seed,
	}
}
