// Package treematch implements Algorithm 1 of the paper: a TreeMatch-based
// mapping of a communication matrix onto a hardware topology tree, extended
// to handle oversubscription (more tasks than computing resources) and the
// control threads of the ORWL runtime.
//
// The algorithm works on an abstract balanced tree described only by the
// arity of each internal level; leaves are the computing resources (cores,
// or PUs). Starting from the leaf level, processes are grouped by
// communication affinity into groups whose size is the arity of the level
// above, the matrix is aggregated over the groups, and the procedure recurses
// until the root. The resulting hierarchy of groups is then matched to the
// topology tree, assigning every process to a leaf (MapGroups).
//
// # Objective function and units
//
// The package optimizes a structural objective: minimize the sum over all
// entity pairs of (declared volume in bytes) × (tree hop distance between
// the assigned leaves) — see Cost. The node-level partitioner
// (PartitionAcross) minimizes the cut volume in bytes, preferring, among
// equal cuts, the partition whose most exposed group sends the fewest
// crossing streams. Nothing in this package is priced in cycles: hop
// distances are dimensionless tree metrics, and how many cycles a byte at a
// given distance actually costs is the machine simulator's business
// (internal/numasim). The two views agree on direction but not exactly on
// magnitude — see the discrepancy note in internal/comm's package
// documentation.
package treematch

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// ErrUneven marks topologies (or subtrees) whose fan-outs differ within a
// level: TreeMatch's distance model needs a balanced tree, so tree
// derivation rejects them with an error wrapping this sentinel, which
// callers can test for with errors.Is.
var ErrUneven = errors.New("treematch: uneven topology")

// Tree is the abstract topology tree TreeMatch operates on: a balanced tree
// given by the arity of each internal level. The number of leaves is the
// product of the arities. Tree is immutable; the oversubscription step
// returns a new, deeper tree.
type Tree struct {
	arities []int // arities[d] is the fan-out of nodes at depth d
	leaves  int
	// suffix[d] is the number of leaves below one node at depth d.
	suffix []int
}

// NewTree builds an abstract tree from the fan-out of each internal level,
// root first. Every arity must be positive; a tree with no levels has a
// single leaf (the root itself is the only resource).
func NewTree(arities []int) (*Tree, error) {
	leaves := 1
	for d, a := range arities {
		if a <= 0 {
			return nil, fmt.Errorf("treematch: arity %d at depth %d must be positive", a, d)
		}
		if leaves > 1<<26/a {
			return nil, fmt.Errorf("treematch: tree too large (>%d leaves)", 1<<26)
		}
		leaves *= a
	}
	t := &Tree{arities: append([]int(nil), arities...), leaves: leaves}
	t.suffix = make([]int, len(arities)+1)
	t.suffix[len(arities)] = 1
	for d := len(arities) - 1; d >= 0; d-- {
		t.suffix[d] = t.suffix[d+1] * arities[d]
	}
	return t, nil
}

// FromTopology derives the abstract tree whose leaves are the objects of the
// given kind (typically topology.Core, the paper's computing resource, or
// topology.PU). Levels of arity 1 are collapsed, since they provide no
// placement choice. The i-th leaf of the abstract tree corresponds to the
// i-th object of that kind in the topology's left-to-right order.
func FromTopology(t *topology.Topology, leaf topology.Kind) (*Tree, error) {
	depth := t.DepthOf(leaf)
	if depth < 0 {
		return nil, fmt.Errorf("treematch: topology has no %v level", leaf)
	}
	var arities []int
	for d := 0; d < depth; d++ {
		// TreeMatch's distance model needs a balanced tree: every object of
		// a level must have the same fan-out. Uneven machines (representable
		// since the spec grammar grew comma counts) are rejected explicitly —
		// a first-object arity product that happens to match the leaf count
		// would otherwise model the wrong locality.
		a := t.Arity(d)
		for _, o := range t.Level(d) {
			if len(o.Children) != a {
				return nil, fmt.Errorf("%w: %v has %d children, siblings have %d",
					ErrUneven, o, len(o.Children), a)
			}
		}
		if a > 1 {
			arities = append(arities, a)
		}
	}
	tree, err := NewTree(arities)
	if err != nil {
		return nil, err
	}
	if tree.Leaves() != len(t.Level(depth)) {
		return nil, fmt.Errorf("treematch: internal error: %d abstract leaves for %d %v objects",
			tree.Leaves(), len(t.Level(depth)), leaf)
	}
	return tree, nil
}

// NodeSubtrees derives one abstract balanced tree per cluster node of a
// clustered topology: the levels strictly below each cluster node down to
// the objects of the given leaf kind. The nodes may differ from each other
// (a heterogeneous platform), but each node's own subtree must be balanced —
// TreeMatch's distance model needs uniform fan-outs within the tree it maps
// onto. On a topology without a cluster level the whole machine is the
// single node. Capacity-aware hierarchical placement maps each node's task
// group onto that node's own subtree with the ordinary Algorithm 1.
func NodeSubtrees(t *topology.Topology, leaf topology.Kind) ([]*Tree, error) {
	clusterDepth := t.DepthOf(topology.Cluster)
	if clusterDepth < 0 {
		tree, err := FromTopology(t, leaf)
		if err != nil {
			return nil, err
		}
		return []*Tree{tree}, nil
	}
	leafDepth := t.DepthOf(leaf)
	if leafDepth < 0 {
		return nil, fmt.Errorf("treematch: topology has no %v level", leaf)
	}
	nodes := t.ClusterNodes()
	trees := make([]*Tree, len(nodes))
	for i, node := range nodes {
		tree, err := subtreeOf(node, leafDepth)
		if err != nil {
			return nil, fmt.Errorf("treematch: cluster node %d: %w", i, err)
		}
		trees[i] = tree
	}
	return trees, nil
}

// subtreeOf builds the abstract balanced tree rooted at one topology object,
// down to the given absolute depth: the per-depth fan-outs become the
// arities (arity-1 levels collapsed), with every object at a depth required
// to share its fan-out within this subtree only.
func subtreeOf(root *topology.Object, toDepth int) (*Tree, error) {
	var arities []int
	level := []*topology.Object{root}
	for d := root.Depth; d < toDepth; d++ {
		a := len(level[0].Children)
		var next []*topology.Object
		for _, o := range level {
			if len(o.Children) != a {
				return nil, fmt.Errorf("%w: %v has %d children, siblings have %d",
					ErrUneven, o, len(o.Children), a)
			}
			next = append(next, o.Children...)
		}
		if a > 1 {
			arities = append(arities, a)
		}
		level = next
	}
	return NewTree(arities)
}

// Depth returns the number of levels including the leaf level; a tree with
// no internal levels has depth 1.
func (t *Tree) Depth() int { return len(t.arities) + 1 }

// Leaves returns the number of leaves (computing resources).
func (t *Tree) Leaves() int { return t.leaves }

// Arity returns the fan-out of nodes at the given internal depth.
func (t *Tree) Arity(depth int) int { return t.arities[depth] }

// Arities returns a copy of the per-level fan-outs, root first.
func (t *Tree) Arities() []int { return append([]int(nil), t.arities...) }

// Extend returns a new tree with an extra bottom level of the given arity:
// every leaf gains `arity` virtual children. This is the
// manage_oversubscription step: virtual resources let the grouping proceed
// when there are more processes than physical leaves.
func (t *Tree) Extend(arity int) (*Tree, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("treematch: extension arity %d must be positive", arity)
	}
	return NewTree(append(t.Arities(), arity))
}

// Restrict returns a tree with at least minLeaves leaves in which the
// deepest levels' arities are reduced as much as possible. This implements
// the paper's distribution requirement ("we cluster threads that share
// data, and at the same time, distribute threads over NUMA nodes"): when
// there are fewer processes than leaves, shrinking the per-node capacity
// forces the mapping to spread groups across the upper levels (NUMA nodes)
// instead of piling communicating groups onto one socket. The original
// tree is unchanged.
func (t *Tree) Restrict(minLeaves int) (*Tree, error) {
	if minLeaves <= 0 {
		return nil, fmt.Errorf("treematch: Restrict needs a positive target, got %d", minLeaves)
	}
	if minLeaves >= t.leaves {
		return t, nil
	}
	arities := t.Arities()
	for {
		reduced := false
		// Reduce the deepest reducible level first: capacity shrinks close
		// to the leaves, spreading load across the levels above.
		for d := len(arities) - 1; d >= 0; d-- {
			if arities[d] <= 1 {
				continue
			}
			leaves := 1
			for i, a := range arities {
				if i == d {
					a--
				}
				leaves *= a
			}
			if leaves >= minLeaves {
				arities[d]--
				reduced = true
				break
			}
		}
		if !reduced {
			return NewTree(arities)
		}
	}
}

// AncestorIndex returns the index, among all nodes at the given depth, of
// the ancestor of the given leaf. Depth 0 is the root (always index 0);
// depth Depth()-1 is the leaf itself.
func (t *Tree) AncestorIndex(leaf, depth int) int {
	return leaf / t.suffix[depth]
}

// LCADepth returns the depth of the lowest common ancestor of two leaves.
func (t *Tree) LCADepth(a, b int) int {
	if a == b {
		return t.Depth() - 1
	}
	d := t.Depth() - 2
	for d >= 0 && t.AncestorIndex(a, d) != t.AncestorIndex(b, d) {
		d--
	}
	return d
}

// LeafDistance returns the hop distance between two leaves: the number of
// tree edges on the path between them (0 for the same leaf). TreeMatch
// minimizes communication weighted by this distance.
func (t *Tree) LeafDistance(a, b int) int {
	return 2 * (t.Depth() - 1 - t.LCADepth(a, b))
}

// String renders the arity list, e.g. "tree[24 8]" for the paper's machine.
func (t *Tree) String() string {
	return fmt.Sprintf("tree%v", t.arities)
}

// EmbedLeaf maps a leaf index of a restricted tree (obtained from
// orig.Restrict) back onto the leaf of the original tree it occupies: each
// restricted node stands for the same-position node of the original, using
// its first children. Both trees must have the same depth with
// restricted.Arity(d) <= orig.Arity(d) at every level.
func EmbedLeaf(orig, restricted *Tree, leaf int) (int, error) {
	if orig.Depth() != restricted.Depth() {
		return 0, fmt.Errorf("treematch: EmbedLeaf depth mismatch %d vs %d", orig.Depth(), restricted.Depth())
	}
	if leaf < 0 || leaf >= restricted.Leaves() {
		return 0, fmt.Errorf("treematch: EmbedLeaf leaf %d out of range", leaf)
	}
	out := 0
	rest := leaf
	for d := 0; d < len(restricted.arities); d++ {
		digit := rest / restricted.suffix[d+1]
		rest %= restricted.suffix[d+1]
		if digit >= orig.arities[d] {
			return 0, fmt.Errorf("treematch: EmbedLeaf arity overflow at depth %d", d)
		}
		out += digit * orig.suffix[d+1]
	}
	return out, nil
}

// embedMapping rewrites a Mapping's leaf indices from the restricted tree's
// leaf space into the original tree's. A no-op when both trees coincide.
func embedMapping(orig, restricted *Tree, mp *Mapping) {
	if orig == restricted {
		return
	}
	for i, leaf := range mp.Assignment {
		out, err := EmbedLeaf(orig, restricted, leaf)
		if err != nil {
			// Restrict preserves depth and never increases arities, so this
			// is unreachable; panic loudly rather than corrupt a mapping.
			panic(err)
		}
		mp.Assignment[i] = out
	}
}
