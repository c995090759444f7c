// Package mis implements Maximum Weight Independent Set solvers over
// conflict graphs and conflict hypergraphs with edges of sizes 2 and 3,
// which is exactly the structure CTCR produces (Section 3 of the paper).
//
// The paper delegates to two external solvers: the exact branch-and-reduce
// solver of Lamm et al. [22] for graphs (Exact variant) and the
// partitioning-based algorithm of Halldórsson and Losievskaja [15] for
// sparse hypergraphs. This package provides from-scratch equivalents:
//
//   - an exact branch-and-bound solver with weighted kernelization
//     (degree-0/1, neighborhood removal, domination) that solves sparse
//     instances optimally, component by component;
//   - a weight/degree greedy heuristic with (1,2)-swap local search as the
//     anytime fallback;
//   - a partitioning-based solver for hypergraphs in the spirit of [15].
//
// An independent set in the hypergraph is a vertex set containing no
// complete hyperedge: both endpoints of a 2-edge, or all three vertices of a
// 3-edge.
package mis

import (
	"fmt"
	"slices"
	"sort"
)

// Hypergraph is a vertex-weighted hypergraph with edges of sizes 2 and 3.
// Vertices are the dense range [0, N).
type Hypergraph struct {
	n       int
	weights []float64
	adj     [][]int32  // sorted neighbor lists (2-edges)
	tris    [][3]int32 // 3-edges, each sorted ascending
	triOf   [][]int32  // vertex -> indices into tris
}

// NewHypergraph creates a graph with n vertices of the given weights (all 1
// when weights is nil).
func NewHypergraph(n int, weights []float64) *Hypergraph {
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != n {
		panic(fmt.Sprintf("mis: %d weights for %d vertices", len(weights), n))
	}
	return &Hypergraph{
		n:       n,
		weights: weights,
		adj:     make([][]int32, n),
		triOf:   make([][]int32, n),
	}
}

// N returns the number of vertices.
func (g *Hypergraph) N() int { return g.n }

// Weight returns the weight of vertex v.
func (g *Hypergraph) Weight(v int) float64 { return g.weights[v] }

// AddEdge inserts the 2-edge (u, v). Duplicate and self edges are ignored.
// Edges added in ascending order of their endpoints — BuildHypergraph's
// sorted 2-conflicts, the delta engine's ascending local IDs — append to
// both neighbor lists without a search.
func (g *Hypergraph) AddEdge(u, v int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	au, av := g.adj[u], g.adj[v]
	if (len(au) == 0 || au[len(au)-1] < int32(v)) && (len(av) == 0 || av[len(av)-1] < int32(u)) {
		g.adj[u] = append(au, int32(v))
		g.adj[v] = append(av, int32(u))
		return
	}
	if containsInt32(au, int32(v)) {
		return
	}
	g.adj[u] = insertSorted(g.adj[u], int32(v))
	g.adj[v] = insertSorted(g.adj[v], int32(u))
}

// AddTriangle inserts the 3-edge {u, v, w}. Degenerate triples (repeated
// vertices) are rejected, and a 3-edge fully containing an existing 2-edge
// is redundant but harmless.
func (g *Hypergraph) AddTriangle(u, v, w int) {
	if u == v || v == w || u == w {
		panic("mis: AddTriangle with repeated vertex")
	}
	t := sort3(int32(u), int32(v), int32(w))
	for _, ti := range g.triOf[t[0]] {
		if g.tris[ti] == t {
			return
		}
	}
	idx := int32(len(g.tris))
	g.tris = append(g.tris, t)
	for _, x := range t {
		g.triOf[x] = append(g.triOf[x], idx)
	}
}

// Degree returns the 2-edge degree of v.
func (g *Hypergraph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted 2-edge neighbors of v. Callers must not
// mutate the slice.
func (g *Hypergraph) Neighbors(v int) []int32 { return g.adj[v] }

// Edges returns the number of 2-edges.
func (g *Hypergraph) Edges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Triangles returns the number of 3-edges.
func (g *Hypergraph) Triangles() int { return len(g.tris) }

// HasEdge reports whether (u, v) is a 2-edge.
func (g *Hypergraph) HasEdge(u, v int) bool {
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	return containsInt32(g.adj[u], int32(v))
}

// IsIndependent reports whether the vertex set is independent: no 2-edge
// inside it and no 3-edge entirely inside it.
func (g *Hypergraph) IsIndependent(set []int) bool {
	in := make([]bool, g.n)
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.adj[v] {
			if in[u] {
				return false
			}
		}
		for _, ti := range g.triOf[v] {
			t := g.tris[ti]
			if in[t[0]] && in[t[1]] && in[t[2]] {
				return false
			}
		}
	}
	return true
}

// SetWeight returns the total weight of the vertex set.
func (g *Hypergraph) SetWeight(set []int) float64 {
	total := 0.0
	for _, v := range set {
		total += g.weights[v]
	}
	return total
}

// Components partitions vertices into connected components, where 3-edges
// also connect their vertices. Solving per component keeps exact search
// feasible on the sparse conflict graphs the paper reports.
func (g *Hypergraph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	var stack []int32
	for s := 0; s < g.n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		stack = append(stack[:0], int32(s))
		var members []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, int(v))
			for _, u := range g.adj[v] {
				if comp[u] < 0 {
					comp[u] = id
					stack = append(stack, u)
				}
			}
			for _, ti := range g.triOf[v] {
				for _, u := range g.tris[ti] {
					if comp[u] < 0 {
						comp[u] = id
						stack = append(stack, u)
					}
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	return comps
}

// Induced builds the subhypergraph induced by the given distinct vertices,
// returning it along with the mapping from new vertex index to original
// vertex. 3-edges are kept only when all three vertices are present, and
// are numbered in the order a scan of vertices first meets them.
func (g *Hypergraph) Induced(vertices []int) (*Hypergraph, []int) {
	return g.induced(vertices, make([]int32, g.n))
}

// induced is Induced over caller-owned scratch: pos holds one zero per
// vertex of g and is zeroed again on return, so a caller cutting many
// subgraphs out of one graph allocates it once. It runs in time linear in
// the given vertices' adjacency and triangle lists.
func (g *Hypergraph) induced(vertices []int, pos []int32) (*Hypergraph, []int) {
	orig := make([]int, len(vertices))
	weights := make([]float64, len(vertices))
	ascending := true
	for i, v := range vertices {
		pos[v] = int32(i) + 1 // 0 marks "not in the subgraph"
		orig[i] = v
		weights[i] = g.weights[v]
		if i > 0 && v < vertices[i-1] {
			ascending = false
		}
	}
	sub := NewHypergraph(len(vertices), weights)

	// 2-edges: each filtered list is sorted already when vertices ascend
	// (pos is then monotone), and shares one backing array.
	total := 0
	for _, v := range vertices {
		for _, u := range g.adj[v] {
			if pos[u] != 0 {
				total++
			}
		}
	}
	buf := make([]int32, 0, total)
	for i, v := range vertices {
		start := len(buf)
		for _, u := range g.adj[v] {
			if j := pos[u]; j != 0 {
				buf = append(buf, j-1)
			}
		}
		if len(buf) > start {
			sub.adj[i] = buf[start:len(buf):len(buf)]
			if !ascending {
				slices.Sort(sub.adj[i])
			}
		}
	}

	// 3-edges: a scan of vertices first meets a kept triangle at its member
	// with the smallest position, so it is numbered there.
	for i, v := range vertices {
		for _, ti := range g.triOf[v] {
			t := g.tris[ti]
			p0, p1, p2 := pos[t[0]], pos[t[1]], pos[t[2]]
			if p0 == 0 || p1 == 0 || p2 == 0 || min(p0, p1, p2) != int32(i)+1 {
				continue
			}
			idx := int32(len(sub.tris))
			st := sort3(p0-1, p1-1, p2-1)
			sub.tris = append(sub.tris, st)
			for _, x := range st {
				sub.triOf[x] = append(sub.triOf[x], idx)
			}
		}
	}

	for _, v := range vertices {
		pos[v] = 0
	}
	return sub, orig
}

func containsInt32(s []int32, v int32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

func insertSorted(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func sort3(a, b, c int32) [3]int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}
