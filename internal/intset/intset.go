// Package intset implements a compact sorted integer set used to represent
// item sets (candidate categories, tree categories, query result sets)
// throughout the library.
//
// A Set is an immutable-by-convention sorted slice of distinct int32 item
// identifiers. All binary operations (intersection, union, difference) run in
// O(|a|+|b|) by merging, and membership tests run in O(log n). The zero value
// is the empty set and is ready to use.
//
// Sets are the hot data structure of the whole system: conflict detection
// performs O(n^2) pairwise intersection-size computations, and item
// assignment repeatedly unions and subtracts category contents, so these
// primitives avoid allocation wherever a size alone is needed.
package intset

import (
	"fmt"
	"sort"
	"strings"
)

// Item identifies a single item in the universe. Items are dense small
// integers assigned by the catalog; int32 halves the memory footprint of the
// 1.2M-item datasets relative to int.
type Item = int32

// Set is a sorted slice of distinct items. Callers must not mutate a Set
// after sharing it; all package functions return fresh slices.
type Set []Item

// New builds a Set from arbitrary (possibly unsorted, duplicated) items.
func New(items ...Item) Set {
	if len(items) == 0 {
		return nil
	}
	s := make(Set, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// Deduplicate in place.
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// FromSorted wraps an already sorted, duplicate-free slice without copying.
// It panics if the input violates the invariant, since a malformed Set would
// corrupt every downstream merge.
func FromSorted(items []Item) Set {
	for i := 1; i < len(items); i++ {
		if items[i-1] >= items[i] {
			panic(fmt.Sprintf("intset: FromSorted input not strictly increasing at index %d (%d >= %d)", i, items[i-1], items[i]))
		}
	}
	return Set(items)
}

// Range builds the set {lo, lo+1, ..., hi-1}.
func Range(lo, hi Item) Set {
	if hi <= lo {
		return nil
	}
	s := make(Set, 0, hi-lo)
	for v := lo; v < hi; v++ {
		s = append(s, v)
	}
	return s
}

// Len reports the number of items in s.
func (s Set) Len() int { return len(s) }

// Empty reports whether s has no items.
func (s Set) Empty() bool { return len(s) == 0 }

// Contains reports whether v is a member of s. The binary search is open
// coded: sort.Search's closure argument counts as an allocation to the
// hot-path analyzer, and Contains runs inside //oct:hotpath functions.
func (s Set) Contains(v Item) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Equal reports whether s and t contain exactly the same items.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// IntersectSize returns |s ∩ t| without allocating.
func (s Set) IntersectSize(t Set) int {
	// Galloping search pays off when one side is much smaller; the conflict
	// detector intersects every query pair, and result-set sizes are skewed.
	if len(s) > len(t) {
		s, t = t, s
	}
	if len(s) == 0 {
		return 0
	}
	if len(t) >= 16*len(s) {
		return gallopIntersectSize(s, t)
	}
	n := 0
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func gallopIntersectSize(small, big Set) int {
	n := 0
	lo := 0
	for _, v := range small {
		// Exponential probe from lo for v in big.
		step := 1
		hi := lo
		for hi < len(big) && big[hi] < v {
			lo = hi + 1
			hi += step
			step *= 2
		}
		if hi > len(big) {
			hi = len(big)
		}
		k := lo + sort.Search(hi-lo, func(i int) bool { return big[lo+i] >= v })
		if k < len(big) && big[k] == v {
			n++
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(big) {
			break
		}
	}
	return n
}

// Intersects reports whether s and t share at least one item. It short
// circuits on the first match.
func (s Set) Intersects(t Set) bool {
	if len(s) == 0 || len(t) == 0 {
		return false
	}
	if s[len(s)-1] < t[0] || t[len(t)-1] < s[0] {
		return false
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t.Clone()
	}
	if len(t) == 0 {
		return s.Clone()
	}
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// UnionSize returns |s ∪ t| without allocating.
func (s Set) UnionSize(t Set) int {
	return len(s) + len(t) - s.IntersectSize(t)
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	if len(s) == 0 {
		return nil
	}
	if len(t) == 0 {
		return s.Clone()
	}
	var out Set
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(t) || s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// SubsetOf reports whether every item of s is in t.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	return s.IntersectSize(t) == len(s)
}

// ProperSubsetOf reports whether s ⊂ t strictly.
func (s Set) ProperSubsetOf(t Set) bool {
	return len(s) < len(t) && s.SubsetOf(t)
}

// Jaccard returns the Jaccard index |s∩t| / |s∪t|. The Jaccard of two empty
// sets is defined as 1 (they are identical).
func (s Set) Jaccard(t Set) float64 {
	if len(s) == 0 && len(t) == 0 {
		return 1
	}
	inter := s.IntersectSize(t)
	union := len(s) + len(t) - inter
	return float64(inter) / float64(union)
}

// UnionAll returns the union of all the given sets. It merges pairwise in a
// balanced fashion so the total work is O(N log k) for N total items across
// k sets.
func UnionAll(sets []Set) Set {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0].Clone()
	}
	// Balanced binary merge. Each round writes its results over the front
	// of work: result i/2 lands at or before the pair it was read from.
	work := make([]Set, len(sets))
	copy(work, sets)
	for len(work) > 1 {
		next := work[:0]
		for i := 0; i < len(work); i += 2 {
			if i+1 < len(work) {
				next = append(next, work[i].Union(work[i+1]))
			} else {
				next = append(next, work[i])
			}
		}
		work = next
	}
	return work[0]
}

// String renders the set like {1, 2, 3} for debugging and error messages.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('}')
	return b.String()
}

// Slice returns the underlying sorted slice. Callers must not mutate it.
func (s Set) Slice() []Item { return s }
