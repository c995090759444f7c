package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"categorytree/internal/dataset"
	"categorytree/internal/delta"
	"categorytree/internal/experiments"
	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
	"categorytree/internal/xrand"
)

// Input sizes. They are fixed by the benchmark, not by flags: a later change
// must run the same inputs as its parent for the numbers to compare.
const (
	datasetScale  = 0.1   // dataset C at one tenth of the paper's size
	syntheticN    = 20000 // experiments.SyntheticScale sets for exact and churn
	syntheticSeed = 1
	serveKeys     = 16384 // distinct items= keys, 4x the 4096-entry read cache
	serveZipfS    = 0.9   // key popularity skew of the serve mix
	serveQShare   = 0.01  // share of q= text queries in the serve mix
	serveMixLen   = 1 << 18
	churnKeys     = 8192 // distinct items= keys read beside the churn writer
	churnBatch    = 50   // mutations per /catalog/delta batch
	synthPool     = 12   // items per SyntheticScale group pool
	maxQueryLen   = 512  // items= ids per request, at most
)

// buildKind is one of the three /build request shapes of the build workload.
type buildKind struct {
	name    string // tj, pr or exact: the suffix of its metric names
	variant sim.Variant
	delta   float64
	inst    *oct.Instance
	raw     []byte // the instance as JSON, exactly as sent inline
	body    []byte // the POST /build body
}

func (k *buildKind) cfg() oct.Config { return oct.Config{Variant: k.variant, Delta: k.delta} }

// inputs is everything one run feeds the program, all derived from the seed.
type inputs struct {
	seed  int64
	kinds []*buildKind // tj, pr, exact
	// titles maps each item of the dataset-C instances to its product title;
	// it is the server's -titles corpus for q= queries.
	titles []string
	// serveKeys are the distinct items= query strings of the serve mix and
	// serveSets the same result sets parsed, for the oracle check.
	serveKeys []string
	serveSets []intset.Set
	// labels are the q= query strings (input-set labels of the tj instance).
	labels []string
	// serveMix is the request sequence: i >= 0 is serveKeys[i], i < 0 is
	// labels[-i-1].
	serveMix []int32
	// churnKeys are the items= reads beside the churn writer.
	churnKeys []string
}

func (in *inputs) kind(name string) *buildKind {
	for _, k := range in.kinds {
		if k.name == name {
			return k
		}
	}
	panic("perfbench: unknown build kind " + name)
}

// generate makes the run's inputs. The three build instances have a fixed
// shape: dataset C from the dataset's own spec seed, and the synthetic
// instance from syntheticSeed. Their build cost differs by up to a third
// between generator seeds, which would swamp any change a run is meant to
// detect. The run seed renames their items instead, so no two seeds send
// the same bytes while the overlap structure, and with it the cost, stays
// put; the set order is kept, so conflict resolution explores the same
// search. The request mixes and the mutation batches are drawn from the
// seed directly.
func generate(seed int64, cacheDir string) (*inputs, error) {
	tjBase, prBase, titles, err := datasetC(cacheDir)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed)
	itemPerm := rng.Split(1).Perm(tjBase.Universe)
	in := &inputs{seed: seed, titles: make([]string, len(titles))}
	for old, title := range titles {
		in.titles[itemPerm[old]] = title
	}
	tj := relabel(tjBase, itemPerm)
	pr := relabel(prBase, itemPerm)
	synth := experiments.SyntheticScale(syntheticSeed, syntheticN)
	exact := relabel(synth, poolPerm(rng.Split(2), synth.Universe))
	for _, k := range []*buildKind{
		{name: "tj", variant: sim.ThresholdJaccard, delta: 0.8, inst: tj},
		{name: "pr", variant: sim.PerfectRecall, delta: 0.6, inst: pr},
		{name: "exact", variant: sim.Exact, delta: 1, inst: exact},
	} {
		var buf bytes.Buffer
		if err := k.inst.WriteJSON(&buf); err != nil {
			return nil, err
		}
		k.raw = buf.Bytes()
		body, err := json.Marshal(map[string]any{
			"algorithm": "ctcr",
			"variant":   k.variant.String(),
			"delta":     k.delta,
			"instance":  json.RawMessage(k.raw),
		})
		if err != nil {
			return nil, err
		}
		k.body = body
		in.kinds = append(in.kinds, k)
	}
	in.makeServeMix(rng.Split(4))
	in.churnKeys = perturbedKeys(rng.Split(5), exact, churnKeys)
	return in, nil
}

// datasetC returns the preprocessed dataset-C instances (threshold-jaccard
// δ=0.8 and perfect-recall δ=0.6) and the catalog titles. Preprocessing
// takes seconds per variant and does not depend on the run seed, so the
// result is cached under cacheDir, which the caller keys by the benchmark
// binary's hash: a change to any generator code is a different binary and
// regenerates.
func datasetC(cacheDir string) (tj, pr *oct.Instance, titles []string, err error) {
	tjPath := filepath.Join(cacheDir, "c-tj.json")
	prPath := filepath.Join(cacheDir, "c-pr.json")
	titlesPath := filepath.Join(cacheDir, "c-titles.txt")
	if tj, pr, titles, err = readDatasetC(tjPath, prPath, titlesPath); err == nil {
		return tj, pr, titles, nil
	}
	raw, err := dataset.GenerateRaw(dataset.C.Scale(datasetScale))
	if err != nil {
		return nil, nil, nil, err
	}
	tj, _ = raw.Instance(sim.ThresholdJaccard, 0.8)
	pr, _ = raw.Instance(sim.PerfectRecall, 0.6)
	titles = raw.Catalog.Titles()
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	for path, write := range map[string]func(io.Writer) error{
		tjPath:     tj.WriteJSON,
		prPath:     pr.WriteJSON,
		titlesPath: func(w io.Writer) error { return writeLines(w, titles) },
	} {
		if err := writeFile(path, write); err != nil {
			return nil, nil, nil, err
		}
	}
	return tj, pr, titles, nil
}

func readDatasetC(tjPath, prPath, titlesPath string) (tj, pr *oct.Instance, titles []string, err error) {
	if tj, err = readInstance(tjPath); err != nil {
		return
	}
	if pr, err = readInstance(prPath); err != nil {
		return
	}
	f, err := os.Open(titlesPath)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		titles = append(titles, sc.Text())
	}
	if err = sc.Err(); err == nil && len(titles) != tj.Universe {
		err = fmt.Errorf("perfbench: cached titles: %d lines for %d items", len(titles), tj.Universe)
	}
	return
}

func readInstance(path string) (*oct.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return oct.ReadJSON(f)
}

func writeLines(w io.Writer, lines []string) error {
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// fileHash returns a short hex digest of the file at path.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// relabel renames inst's items through itemPerm. The overlap structure,
// and with it every similarity, is unchanged.
func relabel(inst *oct.Instance, itemPerm []int) *oct.Instance {
	out := &oct.Instance{Universe: inst.Universe, Sets: make([]oct.InputSet, len(inst.Sets))}
	for i, s := range inst.Sets {
		items := make([]intset.Item, s.Items.Len())
		for k, it := range s.Items.Slice() {
			items[k] = intset.Item(itemPerm[it])
		}
		s.Items = intset.New(items...)
		out.Sets[i] = s
	}
	return out
}

// poolPerm is an item permutation of a SyntheticScale universe that moves
// whole per-group pools and shuffles items within each, so every pool stays
// a contiguous block of synthPool ids, as the churn generator's adds expect.
func poolPerm(rng *xrand.RNG, universe int) []int {
	perm := make([]int, universe)
	for g, to := range rng.Perm(universe / synthPool) {
		for i, j := range rng.Perm(synthPool) {
			perm[g*synthPool+i] = to*synthPool + j
		}
	}
	return perm
}

// makeServeMix builds the serve workload's keys and request sequence: Zipf
// popularity over serveKeys distinct items= result sets (more than the read
// cache holds, so hits, index lookups and misses all carry weight), with
// serveQShare of the requests replaced by q= text queries over the set
// labels.
func (in *inputs) makeServeMix(rng *xrand.RNG) {
	tj := in.kind("tj").inst
	in.serveKeys = perturbedKeys(rng.Split(1), tj, serveKeys)
	in.serveSets = make([]intset.Set, len(in.serveKeys))
	for i, k := range in.serveKeys {
		in.serveSets[i] = parseItems(k)
	}
	seen := map[string]bool{}
	for _, s := range tj.Sets {
		if s.Label != "" && !seen[s.Label] {
			seen[s.Label] = true
			in.labels = append(in.labels, s.Label)
		}
	}
	zipf := xrand.NewZipf(rng.Split(2), len(in.serveKeys), serveZipfS)
	pick := rng.Split(3)
	in.serveMix = make([]int32, serveMixLen)
	for i := range in.serveMix {
		if len(in.labels) > 0 && pick.Float64() < serveQShare {
			in.serveMix[i] = -int32(pick.Intn(len(in.labels))) - 1
		} else {
			in.serveMix[i] = int32(zipf.Next())
		}
	}
}

// serveURL returns the /categorize URL path of serve-mix entry i.
func (in *inputs) serveURL(i int) string {
	k := in.serveMix[i%len(in.serveMix)]
	if k >= 0 {
		return "/categorize?items=" + in.serveKeys[k]
	}
	return "/categorize?q=" + url.QueryEscape(in.labels[-k-1])
}

// perturbedKeys draws n distinct items= query strings from inst's sets: a
// quarter are a set as is, the rest drop ~10% of its items and add one to
// three items from anywhere in the universe, the way a real result set
// differs from the query log's. Sets above maxQueryLen items are cut to a
// random window of that many, as one result page would be.
func perturbedKeys(rng *xrand.RNG, inst *oct.Instance, n int) []string {
	keys := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for len(keys) < n {
		src := inst.Sets[rng.Intn(len(inst.Sets))].Items.Slice()
		if len(src) > maxQueryLen {
			off := rng.Intn(len(src) - maxQueryLen + 1)
			src = src[off : off+maxQueryLen]
		}
		items := append([]intset.Item(nil), src...)
		if rng.Float64() >= 0.25 {
			kept := items[:0]
			for _, it := range items {
				if rng.Float64() >= 0.1 {
					kept = append(kept, it)
				}
			}
			items = kept
			for a := 1 + rng.Intn(3); a > 0; a-- {
				items = append(items, intset.Item(rng.Intn(inst.Universe)))
			}
		}
		set := intset.New(items...)
		if set.Empty() {
			continue
		}
		key := joinItems(set)
		if !seen[key] {
			seen[key] = true
			keys = append(keys, key)
		}
	}
	return keys
}

func joinItems(s intset.Set) string {
	var sb strings.Builder
	for i, it := range s.Slice() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(int(it)))
	}
	return sb.String()
}

func parseItems(key string) intset.Set {
	parts := strings.Split(key, ",")
	items := make([]intset.Item, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			panic("perfbench: malformed generated key " + key)
		}
		items = append(items, intset.Item(v))
	}
	return intset.New(items...)
}

// mirror is the benchmark's own copy of the live catalog behind
// /catalog/delta: stable ids are slot indices, assigned to adds in order
// exactly as the delta engine assigns them, so every generated batch names
// only sets that are live on the server.
type mirror struct {
	universe int
	sets     []oct.InputSet
	live     []bool
}

func newMirror(inst *oct.Instance) *mirror {
	m := &mirror{universe: inst.Universe, sets: append([]oct.InputSet(nil), inst.Sets...)}
	m.live = make([]bool, len(m.sets))
	for i := range m.live {
		m.live[i] = true
	}
	return m
}

// batch draws the next batch of size mutations — ~30% adds from the same
// per-group item pools as experiments.SyntheticScale, ~30% removes and
// ~40% reweights of distinct live sets — and applies it to the mirror.
func (m *mirror) batch(rng *xrand.RNG, size int) []delta.Mutation {
	muts := make([]delta.Mutation, 0, size)
	used := make(map[int]bool, size)
	target := func() (int, bool) {
		for tries := 0; tries < 64; tries++ {
			id := rng.Intn(len(m.sets))
			if m.live[id] && !used[id] {
				used[id] = true
				return id, true
			}
		}
		return 0, false
	}
	for len(muts) < size {
		switch r := rng.Float64(); {
		case r < 0.3:
			base := rng.Intn(m.universe/synthPool) * synthPool
			n := 2 + rng.Intn(4)
			items := make([]intset.Item, n)
			for i, v := range rng.SampleK(synthPool, n) {
				items[i] = intset.Item(base + v)
			}
			mut := delta.Add(items, 1+rng.Float64()*9, "")
			muts = append(muts, mut)
			// Added sets are not targeted by later mutations of the same
			// batch, so the batch reads the same whatever order it lands in.
			used[len(m.sets)] = true
			m.sets = append(m.sets, oct.InputSet{Items: intset.New(items...), Weight: mut.Weight})
			m.live = append(m.live, true)
		case r < 0.6:
			if id, ok := target(); ok {
				muts = append(muts, delta.Remove(id))
				m.live[id] = false
			}
		default:
			if id, ok := target(); ok {
				mut := delta.Reweight(id, 1+rng.Float64()*9)
				muts = append(muts, mut)
				m.sets[id].Weight = mut.Weight
			}
		}
	}
	return muts
}

// compact returns the live catalog in stable-id order, as
// delta.Engine.Compact numbers it, plus each compact set's stable id.
func (m *mirror) compact() (*oct.Instance, []int) {
	inst := &oct.Instance{Universe: m.universe}
	var stableOf []int
	for id, s := range m.sets {
		if m.live[id] {
			inst.Sets = append(inst.Sets, s)
			stableOf = append(stableOf, id)
		}
	}
	return inst, stableOf
}
