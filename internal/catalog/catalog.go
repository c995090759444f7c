// Package catalog generates synthetic e-commerce product repositories that
// stand in for the private XYZ catalogs of the paper's evaluation.
//
// A catalog is a list of products with domain-specific attributes (brand,
// color, product type, …) drawn from Zipf-skewed popularity distributions,
// plus titles composed from the attribute values (so lexical search over
// titles approximates attribute search, the property the result-set
// substrate relies on). The generator also builds the "existing tree" — the
// manually-shaped type → brand taxonomy that serves both as the ET baseline
// and as the branch-scatter filter of the preprocessing pipeline.
//
// Two domains mirror the paper's datasets: Fashion (datasets A, B, C) and
// Electronics (datasets D, E), the latter with cross-type accessories such
// as memory cards that fit both cameras and phones — the paper's motivating
// example for query-driven categorization.
package catalog

import (
	"fmt"
	"sync"

	"categorytree/internal/intset"
	"categorytree/internal/search"
	"categorytree/internal/tree"
	"categorytree/internal/xrand"
)

// Product is one catalog item.
type Product struct {
	// ID is the dense item identifier (the OCT universe index).
	ID intset.Item
	// Title is the display title, composed from attribute values.
	Title string
	// Attrs maps attribute name to value (e.g. "brand" → "nike").
	Attrs map[string]string
}

// Catalog is a product repository of one domain.
type Catalog struct {
	// Domain is "fashion" or "electronics".
	Domain string
	// Products are indexed by ID.
	Products []Product
	// AttrNames lists the attribute dimensions of the domain, in
	// generation order.
	AttrNames []string
	// Accessories maps accessory product types to the host types they fit
	// (e.g. "memory card" → camera, phone). The existing tree files
	// accessories under their hosts — the fragmentation the paper's
	// Example 1.1 motivates fixing.
	Accessories map[string][]string

	indexOnce sync.Once
	index     *search.Index
}

// Len returns the number of products.
func (c *Catalog) Len() int { return len(c.Products) }

// SearchIndex returns the search index over the product titles, one
// document per item ID. It is built on the first call and shared by every
// later one (preprocessing runs once per variant and δ over the same
// catalog), so Products must not change after it.
func (c *Catalog) SearchIndex() *search.Index {
	c.indexOnce.Do(func() {
		c.index = search.NewIndex()
		for _, p := range c.Products {
			c.index.Add(int32(p.ID), p.Title)
		}
		c.index.Build()
	})
	return c.index
}

// Titles returns all product titles indexed by item ID.
func (c *Catalog) Titles() []string {
	out := make([]string, len(c.Products))
	for i, p := range c.Products {
		out[i] = p.Title
	}
	return out
}

// ItemsWith returns the set of items whose attribute attr equals value.
func (c *Catalog) ItemsWith(attr, value string) intset.Set {
	b := intset.NewBuilder(64)
	for _, p := range c.Products {
		if p.Attrs[attr] == value {
			b.Add(p.ID)
		}
	}
	return b.Build()
}

// domainSpec describes how to synthesize one domain.
type domainSpec struct {
	name  string
	attrs []attrSpec
	// accessories lists product types that semantically span several other
	// types (e.g. memory cards): their titles mention the types they fit.
	accessories map[string][]string
	titleNoise  []string
}

type attrSpec struct {
	name   string
	values []string
	skew   float64
	// perType optionally restricts the attribute to some product types
	// (empty = all).
	perType []string
}

func fashionSpec() domainSpec {
	return domainSpec{
		name: "fashion",
		attrs: []attrSpec{
			{name: "type", skew: 0.8, values: []string{
				"shirt", "pants", "dress", "shoes", "jacket", "skirt", "socks", "hat", "scarf", "belt", "sweater", "shorts"}},
			{name: "brand", skew: 1.0, values: []string{
				"nike", "adidas", "puma", "reebok", "umbro", "zara", "gap", "levis", "gucci", "prada", "uniqlo", "hm", "asics", "fila"}},
			{name: "color", skew: 0.7, values: []string{
				"black", "white", "red", "blue", "green", "grey", "pink", "yellow", "navy", "beige"}},
			{name: "gender", skew: 0.3, values: []string{"men", "women", "kids"}},
			{name: "material", skew: 0.6, values: []string{
				"cotton", "polyester", "wool", "leather", "denim", "linen"}},
			{name: "sleeve", skew: 0.4, values: []string{"long sleeve", "short sleeve"},
				perType: []string{"shirt", "dress", "sweater", "jacket"}},
		},
		titleNoise: []string{"classic", "premium", "sport", "casual", "slim", "vintage", "2020", "new"},
	}
}

func electronicsSpec() domainSpec {
	return domainSpec{
		name: "electronics",
		attrs: []attrSpec{
			{name: "type", skew: 0.8, values: []string{
				"phone", "camera", "laptop", "tv", "headphones", "tablet", "smartwatch", "speaker", "monitor", "router", "memory card", "charger", "case", "tripod", "keyboard", "mouse"}},
			{name: "brand", skew: 1.0, values: []string{
				"samsung", "apple", "sony", "lg", "canon", "nikon", "dell", "hp", "lenovo", "bose", "jbl", "sandisk", "logitech", "asus"}},
			{name: "color", skew: 0.6, values: []string{"black", "white", "silver", "grey", "blue", "red", "gold"}},
			{name: "capacity", skew: 0.7, values: []string{"32gb", "64gb", "128gb", "256gb", "512gb", "1tb"},
				perType: []string{"phone", "laptop", "tablet", "memory card"}},
			{name: "screen", skew: 0.5, values: []string{"13 inch", "15 inch", "24 inch", "32 inch", "55 inch", "65 inch"},
				perType: []string{"laptop", "tv", "monitor", "tablet"}},
		},
		accessories: map[string][]string{
			"memory card": {"camera", "phone"},
			"charger":     {"phone", "laptop", "tablet"},
			"case":        {"phone", "tablet", "camera"},
			"tripod":      {"camera"},
		},
		titleNoise: []string{"pro", "max", "ultra", "plus", "wireless", "4k", "hd", "2020", "gen"},
	}
}

// GenerateFashion synthesizes a Fashion catalog of n products.
func GenerateFashion(rng *xrand.RNG, n int) *Catalog {
	return generate(rng, n, fashionSpec())
}

// GenerateElectronics synthesizes an Electronics catalog of n products.
func GenerateElectronics(rng *xrand.RNG, n int) *Catalog {
	return generate(rng, n, electronicsSpec())
}

func generate(rng *xrand.RNG, n int, spec domainSpec) *Catalog {
	c := &Catalog{Domain: spec.name, Accessories: spec.accessories}
	for _, a := range spec.attrs {
		c.AttrNames = append(c.AttrNames, a.name)
	}
	samplers := make([]*xrand.Zipf, len(spec.attrs))
	for i, a := range spec.attrs {
		samplers[i] = xrand.NewZipf(rng.Split(int64(i)+100), len(a.values), a.skew)
	}
	prodRng := rng.Split(7)
	for id := 0; id < n; id++ {
		attrs := make(map[string]string, len(spec.attrs))
		for i, a := range spec.attrs {
			if len(a.perType) > 0 && !contains(a.perType, attrs["type"]) {
				continue
			}
			attrs[a.name] = a.values[samplers[i].Next()]
		}
		title := composeTitle(prodRng, attrs, spec, id)
		c.Products = append(c.Products, Product{ID: intset.Item(id), Title: title, Attrs: attrs})
	}
	return c
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// composeTitle renders a product title from its attributes, mentioning the
// host types of accessories ("sandisk 64gb memory card for camera phone") so
// search-driven result sets cut across the existing type hierarchy.
func composeTitle(rng *xrand.RNG, attrs map[string]string, spec domainSpec, id int) string {
	parts := []string{}
	order := []string{"color", "brand", "capacity", "screen", "material", "sleeve", "gender", "type"}
	for _, a := range order {
		if v := attrs[a]; v != "" {
			parts = append(parts, v)
		}
	}
	if hosts := spec.accessories[attrs["type"]]; len(hosts) > 0 {
		parts = append(parts, "for")
		parts = append(parts, hosts...)
	}
	if len(spec.titleNoise) > 0 && rng.Bool(0.5) {
		parts = append(parts, spec.titleNoise[rng.Intn(len(spec.titleNoise))])
	}
	parts = append(parts, fmt.Sprintf("m%d", id%977)) // model-number tail
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}

// ExistingTree builds the manual taxonomy the platform is assumed to run:
// root → product type → brand, each item in exactly one leaf. Accessory
// types are NOT given their own top-level category; their items are split
// across the host types they fit ("Cameras → Memory Cards", "Phones →
// Memory Cards"), reproducing the fragmented categorization of the paper's
// Example 1.1 that query-driven reconstruction repairs. It stands in for
// the paper's ET baseline and anchors the scatter filter and the
// conservative-update experiments (Table 1).
func (c *Catalog) ExistingTree() *tree.Tree {
	t := tree.New(nil)
	byType := make(map[string]map[string][]intset.Item)
	var typeOrder []string
	addTo := func(ty, sub string, id intset.Item) {
		if byType[ty] == nil {
			byType[ty] = make(map[string][]intset.Item)
			typeOrder = append(typeOrder, ty)
		}
		byType[ty][sub] = append(byType[ty][sub], id)
	}
	for _, p := range c.Products {
		ty := p.Attrs["type"]
		if hosts := c.Accessories[ty]; len(hosts) > 0 {
			// File the accessory under one of its host types, cycling by
			// item id — the taxonomist's arbitrary single-branch choice.
			host := hosts[int(p.ID)%len(hosts)]
			addTo(host, ty, p.ID)
			continue
		}
		addTo(ty, p.Attrs["brand"], p.ID)
	}
	for _, ty := range typeOrder {
		var typeItems []intset.Item
		for _, items := range byType[ty] {
			typeItems = append(typeItems, items...)
		}
		tn := t.AddCategory(nil, intset.New(typeItems...), ty)
		brands := make([]string, 0, len(byType[ty]))
		for br := range byType[ty] {
			brands = append(brands, br)
		}
		sortStrings(brands)
		for _, br := range brands {
			label := br
			if label == "" {
				label = ty + "-other"
			}
			t.AddCategory(tn, intset.New(byType[ty][br]...), label+" "+ty)
		}
	}
	t.Root().SetItems(intset.Range(0, intset.Item(len(c.Products))))
	return t
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// ExistingCategories extracts the existing tree's non-root categories as
// candidate input sets (the conservative-update workflow of Section 2.3 and
// Table 1).
func (c *Catalog) ExistingCategories() []ExistingCategory {
	t := c.ExistingTree()
	var out []ExistingCategory
	t.Walk(func(n *tree.Node) {
		if n == t.Root() || n.Items.Len() == 0 {
			return
		}
		out = append(out, ExistingCategory{Label: n.Label, Items: n.Items})
	})
	return out
}

// ExistingCategory is one existing-tree category exported as input data.
type ExistingCategory struct {
	Label string
	Items intset.Set
}
