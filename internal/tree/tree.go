// Package tree implements the solution space of the OCT problem: rooted
// category trees in which every non-leaf category contains the union of its
// children's items, and every item belongs to a bounded number of
// root-to-leaf branches (one, on most platforms).
//
// The package provides construction primitives used by the algorithms
// (adding and removing categories, reparenting, item assignment), validity
// checking against the model of Section 2.1, scoring S(Q, W, T), and
// rendering/serialization for the CLI tools.
package tree

import (
	"fmt"
	"sort"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// Node is one category in the tree. The root holds all items of the tree.
//
// Nodes are frozen once their tree is published to the serving plane; the
// lock-free read path depends on it. Mutate only through the tree's
// //oct:ctor methods and the Set*/Append* build-phase setters.
//
//oct:immutable frozen with the owning Tree after publication
type Node struct {
	// ID is a stable identifier unique within the tree.
	ID int
	// Items is the category's item set.
	Items intset.Set
	// Label is a human-readable name (typically inherited from the input
	// sets the category covers).
	Label string
	// Covers lists the input sets this category was built to cover
	// (annotation maintained by the algorithms; not used for scoring).
	Covers []oct.SetID

	parent   *Node
	children []*Node
}

// Parent returns the parent category, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the child categories. Callers must not mutate the slice.
func (n *Node) Children() []*Node { return n.children }

// IsLeaf reports whether the category has no children.
func (n *Node) IsLeaf() bool { return len(n.children) == 0 }

// Depth returns the number of edges from the root to n.
func (n *Node) Depth() int {
	d := 0
	for p := n.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// SetItems replaces the category's item set. Build-phase only: algorithms
// rewrite item sets while shaping the tree, never after publication.
//
//oct:ctor
func (n *Node) SetItems(items intset.Set) { n.Items = items }

// SetLabel replaces the category's label. Build-phase only.
//
//oct:ctor
func (n *Node) SetLabel(label string) { n.Label = label }

// AppendCovers records additional input sets this category covers.
// Build-phase only.
//
//oct:ctor
func (n *Node) AppendCovers(ids ...oct.SetID) { n.Covers = append(n.Covers, ids...) }

// SetCovers replaces the category's cover annotation. Build-phase only: the
// delta engine rewrites covers from per-rebuild dense IDs to its stable set
// IDs before diffing, and the edit-script applier restores them on patched
// clones.
//
//oct:ctor
func (n *Node) SetCovers(ids []oct.SetID) { n.Covers = ids }

// Tree is a category tree. The zero value is not usable; construct with New.
//
// A Tree is built single-threaded through the //oct:ctor methods below and
// frozen the moment it is handed to serve.Publisher.Publish (or any other
// atomic hand-off); after that, readers walk it without locks.
//
//oct:immutable frozen after hand-off to the serving plane
type Tree struct {
	root   *Node
	nextID int
	nodes  map[int]*Node
}

// New creates a tree whose root initially holds the given items.
//
//oct:ctor
func New(rootItems intset.Set) *Tree {
	t := &Tree{nodes: make(map[int]*Node)}
	t.root = &Node{ID: 0, Items: rootItems, Label: "root"}
	t.nodes[0] = t.root
	t.nextID = 1
	return t
}

// Root returns the root category.
func (t *Tree) Root() *Node { return t.root }

// Node returns the category with the given ID, or nil.
func (t *Tree) Node(id int) *Node { return t.nodes[id] }

// Len returns the number of categories including the root.
func (t *Tree) Len() int { return len(t.nodes) }

// AddCategory creates a new category with the given items under parent
// (the root if parent is nil). Ancestor item sets are NOT updated
// automatically; use AddItems, FillUnions or rely on construction order.
// It panics if parent belongs to a different tree.
//
//oct:ctor
func (t *Tree) AddCategory(parent *Node, items intset.Set, label string) *Node {
	if parent == nil {
		parent = t.root
	}
	if t.nodes[parent.ID] != parent {
		panic("tree: AddCategory with foreign parent node")
	}
	n := &Node{ID: t.nextID, Items: items, Label: label, parent: parent}
	t.nextID++
	parent.children = append(parent.children, n)
	t.nodes[n.ID] = n
	return n
}

// AddItems inserts items into n and every ancestor of n, preserving the
// union invariant. The walk stops at the first node that already contains
// every item: under the union invariant the remaining ancestors are
// supersets of that node, so they contain the items too. It suits one
// change to a finished tree (Reparent uses it); a builder that places
// items at many categories calls FillUnions once instead, since each
// AddItems call that reaches the root copies the root's set.
//
//oct:ctor
func (t *Tree) AddItems(n *Node, items intset.Set) {
	for cur := n; cur != nil; cur = cur.parent {
		if items.SubsetOf(cur.Items) {
			return
		}
		cur.Items = cur.Items.Union(items)
	}
}

// FillUnions sets every category's items to the union of its own items and
// its children's, in one post-order pass, so the whole tree meets the
// union invariant. A builder sets each category's own items (the items it
// is the most specific category for) and calls FillUnions once: every
// category's set is then built once, where an AddItems call per category
// copies each ancestor's set again. A category with no items of its own
// and one non-empty child shares that child's set (sets are never mutated
// in place).
//
//oct:ctor
func (t *Tree) FillUnions() {
	fillUnion(t.root, nil)
}

// fillUnion fills n's subtree, children first, and returns the scratch
// slice of input sets for reuse.
//
//oct:ctor
func fillUnion(n *Node, sets []intset.Set) []intset.Set {
	for _, c := range n.children {
		sets = fillUnion(c, sets)
	}
	sets = sets[:0]
	if len(n.Items) > 0 {
		sets = append(sets, n.Items)
	}
	for _, c := range n.children {
		if len(c.Items) > 0 {
			sets = append(sets, c.Items)
		}
	}
	switch len(sets) {
	case 0:
	case 1:
		n.Items = sets[0]
	case 2:
		n.Items = sets[0].Union(sets[1])
	default:
		n.Items = intset.UnionAll(sets)
	}
	return sets
}

// RemoveItems deletes items from n and every descendant of n. Ancestors are
// left untouched; callers remove from the highest node that should lose the
// items.
//
//oct:ctor
func (t *Tree) RemoveItems(n *Node, items intset.Set) {
	n.Items = n.Items.Diff(items)
	for _, c := range n.children {
		t.RemoveItems(c, items)
	}
}

// Reparent moves n (with its whole subtree) under newParent and restores the
// union invariant along the new ancestor chain. It panics on attempts to
// create a cycle.
//
//oct:ctor
func (t *Tree) Reparent(n, newParent *Node) {
	if n == t.root {
		panic("tree: cannot reparent the root")
	}
	for p := newParent; p != nil; p = p.parent {
		if p == n {
			panic("tree: Reparent would create a cycle")
		}
	}
	t.detach(n)
	n.parent = newParent
	newParent.children = append(newParent.children, n)
	t.AddItems(newParent, n.Items)
}

// RemoveCategory deletes n, splicing its children onto n's parent. The root
// cannot be removed.
//
//oct:ctor
func (t *Tree) RemoveCategory(n *Node) {
	if n == t.root {
		panic("tree: cannot remove the root")
	}
	parent := n.parent
	t.detach(n)
	for _, c := range n.children {
		c.parent = parent
		parent.children = append(parent.children, c)
	}
	n.children = nil
	delete(t.nodes, n.ID)
}

// Graft moves n (with its whole subtree) under newParent without touching
// any item set — unlike Reparent, which restores the union invariant along
// the new ancestor chain. It is the raw primitive treediff's edit-script
// applier uses: scripts carry the exact final item set of every changed
// category, so invariant repair during intermediate states would only
// corrupt untouched ancestors. It panics on attempts to move the root, to
// create a cycle, or to graft across trees.
//
//oct:ctor
func (t *Tree) Graft(n, newParent *Node) {
	if n == t.root {
		panic("tree: cannot graft the root")
	}
	if t.nodes[n.ID] != n || t.nodes[newParent.ID] != newParent {
		panic("tree: Graft with foreign node")
	}
	for p := newParent; p != nil; p = p.parent {
		if p == n {
			panic("tree: Graft would create a cycle")
		}
	}
	t.detach(n)
	n.parent = newParent
	newParent.children = append(newParent.children, n)
}

// Clone returns a structurally independent deep copy of the tree: fresh Node
// structs with the same IDs, labels, parent/child wiring, and nextID
// allocation point. Item sets and cover slices are shared with the original —
// both are replaced wholesale (never mutated in place) by every build-phase
// setter, so a clone may be reshaped freely while the original stays frozen.
// This is how a consumer applies a treediff edit script to a published
// (immutable) snapshot tree: clone, patch the clone, publish the clone.
//
//oct:ctor
func (t *Tree) Clone() *Tree {
	ct := &Tree{nextID: t.nextID, nodes: make(map[int]*Node, len(t.nodes))}
	var rec func(n *Node, parent *Node) *Node
	rec = func(n, parent *Node) *Node {
		cn := &Node{ID: n.ID, Items: n.Items, Label: n.Label, Covers: n.Covers, parent: parent}
		ct.nodes[cn.ID] = cn
		cn.children = make([]*Node, len(n.children))
		for i, c := range n.children {
			cn.children[i] = rec(c, cn)
		}
		return cn
	}
	ct.root = rec(t.root, nil)
	return ct
}

//oct:ctor
func (t *Tree) detach(n *Node) {
	siblings := n.parent.children
	for i, c := range siblings {
		if c == n {
			n.parent.children = append(siblings[:i], siblings[i+1:]...)
			return
		}
	}
	panic("tree: node missing from its parent's children")
}

// Walk visits every category in depth-first preorder.
func (t *Tree) Walk(visit func(*Node)) {
	var rec func(*Node)
	rec = func(n *Node) {
		visit(n)
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(t.root)
}

// Categories returns all categories in preorder.
func (t *Tree) Categories() []*Node {
	out := make([]*Node, 0, len(t.nodes))
	t.Walk(func(n *Node) { out = append(out, n) })
	return out
}

// Leaves returns all leaf categories in preorder.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			out = append(out, n)
		}
	})
	return out
}

// Validate checks the two model requirements of Section 2.1:
//
//  1. every non-leaf category contains the union of its children's items;
//  2. every item belongs to at most bound(i) most-specific categories (one
//     per branch), i.e. appears only on that many root-to-leaf branches.
//
// cfg supplies per-item bounds; pass the zero Config for the standard
// single-branch rule.
func (t *Tree) Validate(cfg oct.Config) error {
	// Requirement 1: union containment.
	var err error
	t.Walk(func(n *Node) {
		if err != nil {
			return
		}
		for _, c := range n.children {
			if !c.Items.SubsetOf(n.Items) {
				err = fmt.Errorf("tree: category %d (%q) does not contain child %d (%q)", n.ID, n.Label, c.ID, c.Label)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	// Requirement 2: count, per item, the most-specific categories holding
	// it. Because of requirement 1, the categories holding item i form a
	// union of root-to-node paths; the number of distinct branches equals
	// the number of nodes holding i none of whose children holds i.
	counts := make(map[intset.Item]int)
	t.Walk(func(n *Node) {
		for _, it := range n.Items {
			inChild := false
			for _, c := range n.children {
				if c.Items.Contains(it) {
					inChild = true
					break
				}
			}
			if !inChild {
				counts[it]++
			}
		}
	})
	for it, cnt := range counts {
		if b := cfg.Bound(it); cnt > b {
			return fmt.Errorf("tree: item %d appears in %d most-specific categories, bound is %d", it, cnt, b)
		}
	}
	return nil
}

// BestCover returns the category of T with the maximum similarity to q under
// (variant, delta), together with that score. Ties prefer the deeper (more
// specific) category, matching the user behaviour the model captures.
func (t *Tree) BestCover(v sim.Variant, q intset.Set, delta float64) (*Node, float64) {
	var best *Node
	bestScore := 0.0
	bestDepth := -1
	t.Walk(func(n *Node) {
		s := sim.Score(v, q, n.Items, delta)
		if s > bestScore || (s == bestScore && s > 0 && n.Depth() > bestDepth) {
			best, bestScore, bestDepth = n, s, n.Depth()
		}
	})
	return best, bestScore
}

// Score computes S(Q, W, T) = Σ W(q)·max_C S(q, C) for the instance under
// cfg (using per-set thresholds).
func (t *Tree) Score(inst *oct.Instance, cfg oct.Config) float64 {
	total := 0.0
	for _, s := range inst.Sets {
		_, sc := t.BestCover(cfg.Variant, s.Items, cfg.Delta0(s))
		total += s.Weight * sc
	}
	return total
}

// NormalizedScore divides Score by the total input weight, the paper's
// [0, 1] normalization. It returns 0 for zero-weight instances.
func (t *Tree) NormalizedScore(inst *oct.Instance, cfg oct.Config) float64 {
	tw := inst.TotalWeight()
	if tw == 0 {
		return 0
	}
	return t.Score(inst, cfg) / tw
}

// Stats summarizes the tree's structure.
type Stats struct {
	Categories int
	Leaves     int
	MaxDepth   int
	Items      int
	// AvgBranching is the mean child count over non-leaf categories.
	AvgBranching float64
}

// ComputeStats derives Stats for the tree.
func (t *Tree) ComputeStats() Stats {
	var st Stats
	internal := 0
	childSum := 0
	t.Walk(func(n *Node) {
		st.Categories++
		if d := n.Depth(); d > st.MaxDepth {
			st.MaxDepth = d
		}
		if n.IsLeaf() {
			st.Leaves++
		} else {
			internal++
			childSum += len(n.children)
		}
	})
	st.Items = t.root.Items.Len()
	if internal > 0 {
		st.AvgBranching = float64(childSum) / float64(internal)
	}
	return st
}

// SortChildren orders every node's children by descending size then ID, for
// deterministic rendering and tests.
//
//oct:ctor
func (t *Tree) SortChildren() {
	t.Walk(func(n *Node) {
		sort.Slice(n.children, func(i, j int) bool {
			a, b := n.children[i], n.children[j]
			if a.Items.Len() != b.Items.Len() {
				return a.Items.Len() > b.Items.Len()
			}
			return a.ID < b.ID
		})
	})
}
