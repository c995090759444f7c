package oct

import (
	"bytes"
	"strings"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/sim"
)

func validInstance() *Instance {
	return &Instance{
		Universe: 10,
		Sets: []InputSet{
			{Items: intset.New(0, 1, 2), Weight: 2, Label: "black shirt", Source: "query"},
			{Items: intset.New(2, 3), Weight: 1, Label: "nike shirt", Source: "query"},
			{Items: intset.New(5, 6, 7, 8), Weight: 1.5, Label: "long sleeve", Source: "existing"},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validInstance().Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"empty set", func(i *Instance) { i.Sets[0].Items = nil }},
		{"negative weight", func(i *Instance) { i.Sets[1].Weight = -1 }},
		{"delta out of range", func(i *Instance) { i.Sets[0].Delta = 1.5 }},
		{"item outside universe", func(i *Instance) { i.Sets[2].Items = intset.New(5, 99) }},
		{"negative universe", func(i *Instance) { i.Universe = -1 }},
		{"unsorted items", func(i *Instance) { i.Sets[0].Items = intset.Set{3, 1} }},
		{"duplicate items", func(i *Instance) { i.Sets[0].Items = intset.Set{1, 1} }},
	}
	for _, tc := range cases {
		inst := validInstance()
		tc.mut(inst)
		if err := inst.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed instance", tc.name)
		}
	}
}

func TestTotalWeight(t *testing.T) {
	if got := validInstance().TotalWeight(); got != 4.5 {
		t.Fatalf("TotalWeight = %v, want 4.5", got)
	}
}

func TestRankingOrder(t *testing.T) {
	inst := &Instance{
		Universe: 20,
		Sets: []InputSet{
			{Items: intset.New(0, 1), Weight: 5},           // size 2, heavy
			{Items: intset.New(0, 1, 2, 3), Weight: 1},     // size 4
			{Items: intset.New(4, 5), Weight: 1},           // size 2, light
			{Items: intset.New(6, 7, 8, 9, 10), Weight: 2}, // size 5
		},
	}
	r := inst.Ranking()
	// Largest first; among size-2 sets the lighter one ranks first
	// ("among same-size sets, we assign a higher ranking to the heavier
	// ones" — heavier ⇒ later ⇒ placed lower in the tree).
	want := []SetID{3, 1, 2, 0}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranking = %v, want %v", r, want)
		}
	}
}

func TestConfigDelta0(t *testing.T) {
	cfg := Config{Variant: sim.ThresholdJaccard, Delta: 0.7}
	if got := cfg.Delta0(InputSet{}); got != 0.7 {
		t.Errorf("default delta = %v, want 0.7", got)
	}
	if got := cfg.Delta0(InputSet{Delta: 0.4}); got != 0.4 {
		t.Errorf("override delta = %v, want 0.4", got)
	}
	exact := Config{Variant: sim.Exact}
	if got := exact.Delta0(InputSet{Delta: 0.4}); got != 1 {
		t.Errorf("exact delta = %v, want 1", got)
	}
}

func TestConfigBound(t *testing.T) {
	cfg := Config{}
	if got := cfg.Bound(3); got != 1 {
		t.Errorf("zero config bound = %d, want 1", got)
	}
	cfg = Config{DefaultItemBound: 2}
	if got := cfg.Bound(3); got != 2 {
		t.Errorf("default bound = %d, want 2", got)
	}
	cfg = Config{ItemBounds: []int{1, 3}, DefaultItemBound: 1}
	if got := cfg.Bound(1); got != 3 {
		t.Errorf("per-item bound = %d, want 3", got)
	}
	if got := cfg.Bound(9); got != 1 {
		t.Errorf("out-of-range item bound = %d, want 1", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Variant: sim.ThresholdJaccard, Delta: 0},
		{Variant: sim.ThresholdJaccard, Delta: 1.2},
		{Variant: sim.ThresholdJaccard, Delta: 0.5, DefaultItemBound: -1},
		{Variant: sim.ThresholdJaccard, Delta: 0.5, ItemBounds: []int{1, -2}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Exact variant does not need a delta.
	exact := Config{Variant: sim.Exact}
	if err := exact.Validate(); err != nil {
		t.Fatalf("exact config rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	inst := validInstance()
	var buf bytes.Buffer
	if err := inst.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != inst.N() || got.Universe != inst.Universe {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, inst)
	}
	for i := range inst.Sets {
		if !got.Sets[i].Items.Equal(inst.Sets[i].Items) || got.Sets[i].Weight != inst.Sets[i].Weight || got.Sets[i].Label != inst.Sets[i].Label {
			t.Fatalf("set %d mismatch", i)
		}
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"universe": 2, "sets": [{"items": [5], "weight": 1}]}`)); err == nil {
		t.Fatal("ReadJSON should reject out-of-universe items")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Fatal("ReadJSON should reject malformed JSON")
	}
}
