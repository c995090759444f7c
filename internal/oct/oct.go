// Package oct defines the Optimal Category Tree problem instance: the input
// ⟨Q, W⟩ of weighted candidate categories over a universe of items, together
// with the problem-variant configuration (similarity function, thresholds,
// per-item branch bounds).
//
// An Instance is pure data; algorithms (internal/ctcr, internal/cct) and the
// scorer (internal/tree) consume it. Instances are serializable to JSON so
// the cmd tools can exchange them.
package oct

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"categorytree/internal/intset"
	"categorytree/internal/sim"
)

// SetID indexes an input set within an Instance.
type SetID int

// InputSet is one candidate category: an item set with a weight reflecting
// how valuable covering it is (e.g. the daily frequency of the search query
// it came from), an optional per-set threshold override, and provenance
// metadata used for labeling and the Table 1 contribution analysis.
type InputSet struct {
	Items  intset.Set `json:"items"`
	Weight float64    `json:"weight"`
	// Delta overrides the instance default threshold for this set when > 0.
	Delta float64 `json:"delta,omitempty"`
	// Label carries the search query text or existing-category name the set
	// was derived from; categories covering this set inherit it.
	Label string `json:"label,omitempty"`
	// Source tags where the set came from: "query", "existing", "property".
	Source string `json:"source,omitempty"`
}

// Instance is a complete OCT problem input.
type Instance struct {
	// Universe is the number of items; items are the dense range
	// [0, Universe).
	Universe int `json:"universe"`
	// Sets is Q with its weights W.
	Sets []InputSet `json:"sets"`
}

// Config selects the OCT problem variant to solve.
type Config struct {
	// Variant is the similarity function family.
	Variant sim.Variant
	// Delta is the default threshold δ ∈ (0, 1]; input sets may override it
	// individually. Ignored (treated as 1) for the Exact variant.
	Delta float64
	// ItemBounds optionally bounds the number of branches each item may
	// appear on. nil means every item is bounded by DefaultItemBound.
	ItemBounds []int
	// DefaultItemBound is the bound applied when ItemBounds is nil or an
	// item has no entry; 0 is treated as the ubiquitous single-branch bound.
	DefaultItemBound int
}

// Delta0 returns the effective threshold of set q under cfg.
func (c Config) Delta0(s InputSet) float64 {
	if c.Variant == sim.Exact {
		return 1
	}
	if s.Delta > 0 {
		return s.Delta
	}
	return c.Delta
}

// Bound returns the branch bound of item i.
func (c Config) Bound(i intset.Item) int {
	if c.ItemBounds != nil && int(i) < len(c.ItemBounds) && c.ItemBounds[i] > 0 {
		return c.ItemBounds[i]
	}
	if c.DefaultItemBound > 0 {
		return c.DefaultItemBound
	}
	return 1
}

// Validate checks cfg for structural errors.
func (c Config) Validate() error {
	if c.Variant != sim.Exact && (c.Delta <= 0 || c.Delta > 1) {
		return fmt.Errorf("oct: delta %v outside (0, 1]", c.Delta)
	}
	if c.DefaultItemBound < 0 {
		return fmt.Errorf("oct: negative default item bound %d", c.DefaultItemBound)
	}
	for i, b := range c.ItemBounds {
		if b < 0 {
			return fmt.Errorf("oct: negative bound %d for item %d", b, i)
		}
	}
	return nil
}

// N returns |Q|.
func (inst *Instance) N() int { return len(inst.Sets) }

// TotalWeight returns Σ W(q), the normalization denominator of the paper's
// score-based evaluation (Section 5.3).
func (inst *Instance) TotalWeight() float64 {
	total := 0.0
	for _, s := range inst.Sets {
		total += s.Weight
	}
	return total
}

// Set returns the items of input set id.
func (inst *Instance) Set(id SetID) intset.Set { return inst.Sets[id].Items }

// Weight returns W(q) for input set id.
func (inst *Instance) Weight(id SetID) float64 { return inst.Sets[id].Weight }

// Validate checks the instance for malformed inputs: items outside the
// universe, empty sets, negative weights, or out-of-range per-set deltas.
// Algorithms call it before running so corrupted data fails fast.
func (inst *Instance) Validate() error {
	if inst.Universe < 0 {
		return errors.New("oct: negative universe size")
	}
	for i, s := range inst.Sets {
		if s.Items.Len() == 0 {
			return fmt.Errorf("oct: input set %d is empty", i)
		}
		if s.Weight < 0 {
			return fmt.Errorf("oct: input set %d has negative weight %v", i, s.Weight)
		}
		if s.Delta < 0 || s.Delta > 1 {
			return fmt.Errorf("oct: input set %d has delta %v outside [0, 1]", i, s.Delta)
		}
		items := s.Items.Slice()
		for k := 1; k < len(items); k++ {
			if items[k-1] >= items[k] {
				return fmt.Errorf("oct: input set %d is not sorted/duplicate-free at index %d", i, k)
			}
		}
		if items[0] < 0 || int(items[len(items)-1]) >= inst.Universe {
			return fmt.Errorf("oct: input set %d has items outside universe [0, %d)", i, inst.Universe)
		}
	}
	return nil
}

// Ranking returns set IDs in the CTCR rank order of Section 3.2: by size
// descending, then by weight ascending, ties broken by ID for determinism.
// The returned slice r satisfies rank(r[k]) = k+1 (the largest set has
// rank 1).
func (inst *Instance) Ranking() []SetID {
	ids := make([]SetID, len(inst.Sets))
	for i := range ids {
		ids[i] = SetID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		sa, sb := inst.Sets[ids[a]], inst.Sets[ids[b]]
		if sa.Items.Len() != sb.Items.Len() {
			return sa.Items.Len() > sb.Items.Len()
		}
		// Two-sided ordering instead of a float != guard (octlint: floateq).
		if sa.Weight < sb.Weight {
			return true
		}
		if sa.Weight > sb.Weight {
			return false
		}
		return ids[a] < ids[b]
	})
	return ids
}

// AllItems returns the union of all input sets.
func (inst *Instance) AllItems() intset.Set {
	sets := make([]intset.Set, len(inst.Sets))
	for i, s := range inst.Sets {
		sets[i] = s.Items
	}
	return intset.UnionAll(sets)
}

// WriteJSON serializes the instance.
func (inst *Instance) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(inst)
}

// ReadJSON deserializes an instance and validates it.
func ReadJSON(r io.Reader) (*Instance, error) {
	var inst Instance
	if err := json.NewDecoder(r).Decode(&inst); err != nil {
		return nil, fmt.Errorf("oct: decoding instance: %w", err)
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return &inst, nil
}
