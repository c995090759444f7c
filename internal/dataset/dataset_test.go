package dataset

import (
	"bytes"
	"testing"

	"categorytree/internal/sim"
)

func TestSpecs(t *testing.T) {
	if len(All()) != 5 {
		t.Fatal("expected five datasets A-E")
	}
	// Paper sizes.
	if A.Items != 28_000 || C.Items != 340_000 || D.Items != 1_200_000 {
		t.Fatal("paper item counts wrong")
	}
	if !E.Uniform {
		t.Fatal("dataset E uses uniform weights (public data)")
	}
	if _, err := ByName("C"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("Z"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestScaleFloors(t *testing.T) {
	s := A.Scale(0.001)
	if s.Items < 400 || s.RawQueries < 60 {
		t.Fatalf("scale floors violated: %+v", s)
	}
	if A.Scale(1) != A {
		t.Fatal("Scale(1) must be identity")
	}
}

func TestGenerateSmallScaleAllDatasets(t *testing.T) {
	for _, spec := range All() {
		small := spec.Scale(0.02)
		b, err := Generate(small, sim.ThresholdJaccard, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if b.Instance.N() == 0 {
			t.Fatalf("%s: empty instance", spec.Name)
		}
		if b.Catalog.Len() != small.Items {
			t.Fatalf("%s: catalog size %d, want %d", spec.Name, b.Catalog.Len(), small.Items)
		}
		if b.Existing.Root().Items.Len() != small.Items {
			t.Fatalf("%s: existing tree incomplete", spec.Name)
		}
		if spec.Uniform {
			// Pre-merge weights are uniform 1; merged sets carry the sum,
			// so every weight is a positive integer.
			for _, s := range b.Instance.Sets {
				if s.Weight < 1 || s.Weight != float64(int(s.Weight)) {
					t.Fatalf("%s: weight %v not an integral merge of uniform 1s", spec.Name, s.Weight)
				}
			}
		}
		// The pipeline must have cleaned something.
		if b.Stats.DroppedRare == 0 && b.Stats.Merged == 0 {
			t.Fatalf("%s: pipeline had no effect: %+v", spec.Name, b.Stats)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := B.Scale(0.02)
	a, err := Generate(s, sim.PerfectRecall, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(s, sim.PerfectRecall, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Instance.N() != b.Instance.N() {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Instance.Sets {
		if !a.Instance.Sets[i].Items.Equal(b.Instance.Sets[i].Items) {
			t.Fatal("instance sets differ between runs")
		}
	}
}

func TestPostMergeCountsRoughlyMatchTargets(t *testing.T) {
	// At scale 0.1, dataset A targets ≈45 post-preprocessing queries; the
	// pipeline's yield should be within a loose factor of the raw count.
	b, err := Generate(A.Scale(0.1), sim.ThresholdJaccard, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	n := b.Instance.N()
	raw := b.Spec.RawQueries
	if n < raw/5 || n > raw {
		t.Fatalf("final %d queries from %d raw; expected between %d and %d", n, raw, raw/5, raw)
	}
}

// TestGenerateWritesIdenticalJSON: Generate is a pure function of its
// arguments down to the bytes of the instance it writes, so two calls in
// one process, which iterate their maps in different orders, agree byte for
// byte. Dataset C at a tenth of its size has relevance ties at the search
// step's result cap, which float sums in map order would flip, moving
// items between sets.
func TestGenerateWritesIdenticalJSON(t *testing.T) {
	spec := C.Scale(0.1)
	if testing.Short() {
		spec = C.Scale(0.02)
	}
	var first []byte
	for run := 0; run < 2; run++ {
		b, err := Generate(spec, sim.PerfectRecall, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Instance.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d wrote a different instance (%d bytes vs %d)", run, buf.Len(), len(first))
		}
	}
}
