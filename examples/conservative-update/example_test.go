package main

import (
	"context"
	"fmt"
	"log"

	ct "categorytree"
	"categorytree/internal/delta"
)

// Example runs the conservative-update workflow on a toy catalog so
// `go test ./...` exercises this example deterministically: the existing
// tree's categories join the input as weighted sets, and day-2 churn lands
// on the delta engine instead of a from-scratch rebuild.
func Example() {
	inst := &ct.Instance{Universe: 6, Sets: []ct.InputSet{
		{Items: ct.NewSet(0, 1, 2), Weight: 3, Label: "shirts", Source: "query"},
		{Items: ct.NewSet(3, 4), Weight: 2, Label: "cameras", Source: "query"},
		{Items: ct.NewSet(0, 1), Weight: 1, Label: "tees", Source: "existing"},
	}}
	cfg := ct.Config{Variant: ct.Exact}
	res, err := ct.BuildCTCR(inst, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d categories, optimal=%v\n",
		res.Tree.ComputeStats().Categories, res.OptimalMIS)

	ctx := context.Background()
	eng, err := delta.NewContext(ctx, inst, cfg, delta.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Rebuild(ctx); err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Apply(ctx, []delta.Mutation{
		delta.Add(ct.NewSet(3, 4, 5), 2, "lenses"),
		delta.Remove(2),
	})
	if err != nil {
		log.Fatal(err)
	}
	b, err := eng.Rebuild(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delta: %d mutations, %d live sets, %d tree edits\n",
		rep.Mutations, eng.Stats().Live, b.Edits.Len())
	// Output:
	// built 5 categories, optimal=true
	// delta: 2 mutations, 3 live sets, 4 tree edits
}
