package baseline

import (
	"context"
	"fmt"
	"math"
	"testing"

	"categorytree/internal/intset"
	"categorytree/internal/oct"
	"categorytree/internal/sim"
)

// twoGroupInstance has items 0-4 always co-occurring and items 5-9 always
// co-occurring: any reasonable item clustering separates the groups.
func twoGroupInstance() *oct.Instance {
	inst := &oct.Instance{Universe: 10}
	for k := 0; k < 4; k++ {
		inst.Sets = append(inst.Sets, oct.InputSet{Items: intset.Range(0, 5), Weight: 1, Label: fmt.Sprintf("left-%d", k)})
		inst.Sets = append(inst.Sets, oct.InputSet{Items: intset.Range(5, 10), Weight: 1, Label: fmt.Sprintf("right-%d", k)})
	}
	return inst
}

func TestICQSeparatesCooccurrenceGroups(t *testing.T) {
	inst := twoGroupInstance()
	tr, err := BuildICQ(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatalf("IC-Q tree invalid: %v", err)
	}
	if tr.Root().Items.Len() != 10 {
		t.Fatal("IC-Q tree must place every item")
	}
	// Some category should match each group exactly (they are perfectly
	// separable by membership).
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.95}
	if got := tr.NormalizedScore(inst, cfg); got != 1 {
		t.Fatalf("normalized score = %v, want 1 (clean separation)", got)
	}
}

func TestICSClustersByTitleSimilarity(t *testing.T) {
	inst := twoGroupInstance()
	titles := make([]string, 10)
	for i := 0; i < 5; i++ {
		titles[i] = fmt.Sprintf("nike black shirt model %d", i)
	}
	for i := 5; i < 10; i++ {
		titles[i] = fmt.Sprintf("sony dslr camera zoom %d", i)
	}
	// 256 hash buckets keep the two token vocabularies from colliding.
	vecs := TitleEmbeddings(titles, 256)
	tr, err := BuildICS(context.Background(), inst, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatalf("IC-S tree invalid: %v", err)
	}
	// IC-S is semantics-only and noisier than IC-Q (the paper's ranking);
	// it should still separate these two lexically disjoint groups well.
	cfg := oct.Config{Variant: sim.ThresholdJaccard, Delta: 0.8}
	if got := tr.NormalizedScore(inst, cfg); got < 0.5 {
		t.Fatalf("normalized score = %v, want ≥ 0.5", got)
	}
}

func TestSamplingPathAssignsEveryItem(t *testing.T) {
	// Universe larger than the sample limit exercises nearest-leaf
	// assignment.
	const n = sampleLimit + 100
	inst := &oct.Instance{Universe: n}
	inst.Sets = append(inst.Sets,
		oct.InputSet{Items: intset.Range(0, n/2), Weight: 1},
		oct.InputSet{Items: intset.Range(n/2, n), Weight: 1},
	)
	tr, err := BuildICQ(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root().Items.Len() != n {
		t.Fatalf("root holds %d items, want %d", tr.Root().Items.Len(), n)
	}
	if err := tr.Validate(oct.Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildICSValidatesVectorCount(t *testing.T) {
	inst := twoGroupInstance()
	if _, err := BuildICS(context.Background(), inst, make([][]float64, 3)); err == nil {
		t.Fatal("mismatched vector count should error")
	}
}

func TestTitleEmbeddingsProperties(t *testing.T) {
	vecs := TitleEmbeddings([]string{"red shirt", "red shirt", "blue camera lens"}, 16)
	// Identical titles → identical vectors.
	for k := range vecs[0] {
		if vecs[0][k] != vecs[1][k] {
			t.Fatal("identical titles must embed identically")
		}
	}
	// Unit norm.
	norm := 0.0
	for _, x := range vecs[2] {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("norm² = %v, want 1", norm)
	}
	// Different titles should differ somewhere.
	same := true
	for k := range vecs[0] {
		if vecs[0][k] != vecs[2][k] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct titles embedded identically")
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Nike Air-Max 90, Black/White!")
	want := []string{"nike", "air", "max", "90", "black", "white"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
}

func TestEmptyUniverseErrors(t *testing.T) {
	inst := &oct.Instance{Universe: 0}
	if _, err := BuildICQ(context.Background(), inst); err == nil {
		t.Fatal("empty universe should error")
	}
}
