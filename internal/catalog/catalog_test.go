package catalog

import (
	"strings"
	"testing"

	"categorytree/internal/oct"
	"categorytree/internal/xrand"
)

func TestGenerateFashionShape(t *testing.T) {
	c := GenerateFashion(xrand.New(1), 500)
	if c.Len() != 500 || c.Domain != "fashion" {
		t.Fatalf("catalog: %d products, domain %s", c.Len(), c.Domain)
	}
	for i, p := range c.Products {
		if int(p.ID) != i {
			t.Fatal("IDs must be dense and ordered")
		}
		if p.Attrs["type"] == "" || p.Attrs["brand"] == "" {
			t.Fatalf("product %d missing core attributes: %v", i, p.Attrs)
		}
		if !strings.Contains(p.Title, p.Attrs["brand"]) || !strings.Contains(p.Title, p.Attrs["type"]) {
			t.Fatalf("title %q must mention brand and type", p.Title)
		}
	}
	// Sleeve only on sleeved types.
	for _, p := range c.Products {
		if p.Attrs["sleeve"] != "" {
			ty := p.Attrs["type"]
			if ty != "shirt" && ty != "dress" && ty != "sweater" && ty != "jacket" {
				t.Fatalf("type %q should not have a sleeve attribute", ty)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateElectronics(xrand.New(9), 200)
	b := GenerateElectronics(xrand.New(9), 200)
	for i := range a.Products {
		if a.Products[i].Title != b.Products[i].Title {
			t.Fatal("generation must be deterministic in the seed")
		}
	}
}

func TestZipfSkewOnBrands(t *testing.T) {
	c := GenerateFashion(xrand.New(2), 3000)
	counts := map[string]int{}
	for _, p := range c.Products {
		counts[p.Attrs["brand"]]++
	}
	top, bottom := 0, 1<<30
	for _, n := range counts {
		if n > top {
			top = n
		}
		if n < bottom {
			bottom = n
		}
	}
	if top < 3*bottom {
		t.Fatalf("brand popularity should be skewed: top %d vs bottom %d", top, bottom)
	}
}

func TestItemsWithMatchesAttrs(t *testing.T) {
	c := GenerateFashion(xrand.New(3), 400)
	nikes := c.ItemsWith("brand", "nike")
	if nikes.Len() == 0 {
		t.Fatal("no nike items in 400 fashion products")
	}
	for _, it := range nikes.Slice() {
		if c.Products[it].Attrs["brand"] != "nike" {
			t.Fatal("ItemsWith returned a non-matching item")
		}
	}
	brands := map[string]bool{}
	for _, p := range c.Products {
		if v := p.Attrs["brand"]; v != "" {
			brands[v] = true
		}
	}
	total := 0
	for v := range brands {
		total += c.ItemsWith("brand", v).Len()
	}
	if total != c.Len() {
		t.Fatalf("brand partition covers %d of %d items", total, c.Len())
	}
}

func TestExistingTreeValidAndComplete(t *testing.T) {
	c := GenerateElectronics(xrand.New(4), 600)
	et := c.ExistingTree()
	if err := et.Validate(oct.Config{}); err != nil {
		t.Fatalf("existing tree invalid: %v", err)
	}
	if et.Root().Items.Len() != c.Len() {
		t.Fatal("existing tree must contain all items")
	}
	st := et.ComputeStats()
	if st.MaxDepth != 2 {
		t.Fatalf("existing tree depth = %d, want 2 (type → brand)", st.MaxDepth)
	}
	// Leaves partition the catalog.
	seen := map[int32]bool{}
	for _, leaf := range et.Leaves() {
		for _, it := range leaf.Items.Slice() {
			if seen[it] {
				t.Fatalf("item %d in two leaves", it)
			}
			seen[it] = true
		}
	}
	if len(seen) != c.Len() {
		t.Fatalf("leaves cover %d of %d items", len(seen), c.Len())
	}
}

func TestAccessoriesMentionHosts(t *testing.T) {
	c := GenerateElectronics(xrand.New(5), 4000)
	found := false
	for _, p := range c.Products {
		if p.Attrs["type"] == "memory card" {
			found = true
			if !strings.Contains(p.Title, "camera") || !strings.Contains(p.Title, "phone") {
				t.Fatalf("memory card title %q should mention its host types", p.Title)
			}
		}
	}
	if !found {
		t.Fatal("no memory cards generated in 4000 electronics products")
	}
}

func TestExistingCategories(t *testing.T) {
	c := GenerateFashion(xrand.New(6), 300)
	cats := c.ExistingCategories()
	if len(cats) == 0 {
		t.Fatal("no existing categories")
	}
	for _, cat := range cats {
		if cat.Items.Len() == 0 || cat.Label == "" {
			t.Fatalf("bad category %+v", cat)
		}
	}
}
