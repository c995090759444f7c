package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"

	"categorytree/internal/ctcr"
	"categorytree/internal/intset"
	"categorytree/internal/invariant"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/tree"
	"categorytree/internal/treediff"
)

// builtTree is a /build response as the benchmark checked it.
type builtTree struct {
	tree       *tree.Tree
	categories int
	score      float64 // normalized score, recomputed by the benchmark
}

// buildResponse is the part of octserve's /build reply the checks read.
type buildResponse struct {
	Categories int             `json:"categories"`
	Tree       json.RawMessage `json:"tree"`
}

// checkBuild validates one /build response: the tree parses, satisfies the
// model's invariants and its own score bookkeeping, and has the category
// count the server reported. The score is recomputed here, not taken from
// the server.
func checkBuild(body []byte, inst *oct.Instance, cfg oct.Config) (*builtTree, error) {
	var resp buildResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding build response: %w", err)
	}
	t, err := tree.ReadJSON(bytes.NewReader(resp.Tree))
	if err != nil {
		return nil, err
	}
	if err := invariant.Check(t, cfg); err != nil {
		return nil, err
	}
	if err := invariant.ScoreConsistency(t, inst, cfg); err != nil {
		return nil, err
	}
	if t.Len() != resp.Categories {
		return nil, fmt.Errorf("response says %d categories, tree has %d", resp.Categories, t.Len())
	}
	return &builtTree{tree: t, categories: t.Len(), score: tree.NewScorer(t).NormalizedScore(inst, cfg)}, nil
}

// checkBuilds checks every response of every build kind and keeps the
// first tree of each. Repeated builds of one instance must return the same
// tree: the pipeline is deterministic.
func (r *run) checkBuilds() map[string]*builtTree {
	out := map[string]*builtTree{}
	for _, k := range r.in.kinds {
		for i, body := range r.builds[k.name].bodies {
			bt, err := checkBuild(body, k.inst, k.cfg())
			if err == nil && out[k.name] != nil && !treediff.Equal(bt.tree, out[k.name].tree) {
				err = fmt.Errorf("differs from the first build of the same instance")
			}
			if r.op(wrap(fmt.Sprintf("build %s response %d", k.name, i), err)) && out[k.name] == nil {
				out[k.name] = bt
			}
		}
		r.builds[k.name].bodies = nil
	}
	return out
}

// categorizeAnswer is the part of a /categorize reply the oracle checks.
type categorizeAnswer struct {
	Matched  bool    `json:"matched"`
	Category *int    `json:"category"`
	Depth    int     `json:"depth"`
	Size     int     `json:"size"`
	Score    float64 `json:"score"`
}

// servedNode is a category of the published tree under the id the server
// gave it (tree.ReadJSON renumbers, so the ids come from the raw JSON).
type servedNode struct {
	depth int
	items intset.Set
}

type jsonNode struct {
	ID       int        `json:"id"`
	Items    []int32    `json:"items"`
	Children []jsonNode `json:"children"`
}

func servedNodes(treeJSON []byte) (map[int]servedNode, error) {
	var root jsonNode
	if err := json.Unmarshal(treeJSON, &root); err != nil {
		return nil, err
	}
	out := map[int]servedNode{}
	var walk func(n jsonNode, depth int)
	walk = func(n jsonNode, depth int) {
		items := make([]intset.Item, len(n.Items))
		for i, it := range n.Items {
			items[i] = intset.Item(it)
		}
		out[n.ID] = servedNode{depth: depth, items: intset.New(items...)}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out, nil
}

// checkServeAnswers compares the sampled items= answers against the scan
// oracle tree.Scorer.BestCover over the published tree. Equal-score
// categories may tie; the served one must then have the oracle's score and
// depth, be a real category of the published tree, and score what the
// answer claims.
func (r *run) checkServeAnswers() {
	obs := r.serve
	var resp buildResponse
	if err := json.Unmarshal(obs.treeBody, &resp); err != nil {
		r.op(fmt.Errorf("serve oracle: decoding published build: %w", err))
		return
	}
	t, err := tree.ReadJSON(bytes.NewReader(resp.Tree))
	if err != nil {
		r.op(fmt.Errorf("serve oracle: %w", err))
		return
	}
	nodes, err := servedNodes(resp.Tree)
	if err != nil {
		r.op(fmt.Errorf("serve oracle: %w", err))
		return
	}
	sc := tree.NewScorer(t)
	k := r.in.kind("tj")
	for _, a := range obs.checks {
		q := r.in.serveSets[a.key]
		r.op(wrap("categorize oracle items="+r.in.serveKeys[a.key], checkAnswer(a.body, q, sc, nodes, k.variant, k.delta)))
	}
}

func checkAnswer(body []byte, q intset.Set, sc *tree.Scorer, nodes map[int]servedNode, v sim.Variant, delta float64) error {
	var ans categorizeAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return err
	}
	want, wantScore := sc.BestCover(v, q, delta)
	if ans.Matched != (want != nil) || math.Abs(ans.Score-wantScore) > sim.Eps {
		return fmt.Errorf("served matched=%v score=%v, oracle matched=%v score=%v", ans.Matched, ans.Score, want != nil, wantScore)
	}
	if want == nil {
		return nil
	}
	if ans.Category == nil {
		return fmt.Errorf("matched answer without a category")
	}
	n, ok := nodes[*ans.Category]
	switch {
	case !ok:
		return fmt.Errorf("category %d is not in the published tree", *ans.Category)
	case n.depth != ans.Depth || n.items.Len() != ans.Size:
		return fmt.Errorf("category %d: served depth %d size %d, tree has %d and %d", *ans.Category, ans.Depth, ans.Size, n.depth, n.items.Len())
	case n.depth != want.Depth():
		return fmt.Errorf("served depth %d, oracle's best is at depth %d", n.depth, want.Depth())
	case math.Abs(sim.Score(v, q, n.items, delta)-ans.Score) > sim.Eps:
		return fmt.Errorf("category %d scores %v, answer claims %v", *ans.Category, sim.Score(v, q, n.items, delta), ans.Score)
	}
	return nil
}

// checkChurnTree compares the tree the churn server serves with a
// from-scratch CTCR build of the benchmark's mirror of the live catalog.
// The server stamps covers with stable set ids; the reference is stamped the
// same way before the comparison.
func (r *run) checkChurnTree(ctx context.Context, served []byte) error {
	t, err := tree.ReadJSON(bytes.NewReader(served))
	if err != nil {
		return err
	}
	inst, stableOf := r.churn.mirror.compact()
	ref, err := ctcr.BuildContext(ctx, inst, r.in.kind("exact").cfg(), ctcr.DefaultOptions())
	if err != nil {
		return err
	}
	ref.Tree.Walk(func(n *tree.Node) {
		if len(n.Covers) == 0 {
			return
		}
		stamped := make([]oct.SetID, len(n.Covers))
		for i, q := range n.Covers {
			stamped[i] = oct.SetID(stableOf[q])
		}
		n.SetCovers(stamped)
	})
	if !treediff.Equal(t, ref.Tree) {
		return fmt.Errorf("served tree (%d categories) differs from a from-scratch build of the live catalog (%d categories)", t.Len(), ref.Tree.Len())
	}
	return nil
}
