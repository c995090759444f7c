package baseline

import (
	"context"
	"errors"
	"testing"

	"categorytree/internal/obs"
	"categorytree/internal/tree"
)

// TestBaselinesHonourContext checks that IC-Q and IC-S cluster under the
// caller's context: the clustering records into the registry the context
// carries, and a canceled context stops the build.
func TestBaselinesHonourContext(t *testing.T) {
	inst := twoGroupInstance()
	vecs := make([][]float64, inst.Universe)
	for i := range vecs {
		vecs[i] = []float64{float64(i / 5), 1}
	}
	for _, b := range []struct {
		name  string
		build func(context.Context) (*tree.Tree, error)
	}{
		{"IC-Q", func(ctx context.Context) (*tree.Tree, error) { return BuildICQ(ctx, inst) }},
		{"IC-S", func(ctx context.Context) (*tree.Tree, error) { return BuildICS(ctx, inst, vecs) }},
	} {
		reg := obs.NewRegistry()
		if _, err := b.build(obs.WithRegistry(context.Background(), reg)); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if got := reg.Snapshot().Timers["cluster.agglomerative"].Count; got != 1 {
			t.Errorf("%s: cluster.agglomerative recorded %d times in the context's registry, want 1", b.name, got)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := b.build(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a canceled context: err = %v, want context.Canceled", b.name, err)
		}
	}
}
