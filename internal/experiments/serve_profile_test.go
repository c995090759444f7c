package experiments

import (
	"context"
	"testing"

	"categorytree/internal/obs"
	"categorytree/internal/obs/flight"
)

// BenchmarkServePhaseFlight and BenchmarkServePhaseBaseline run the serve
// experiment's load phase at the overhead harness's concurrency, so `go test
// -bench ServePhase -cpuprofile` profiles exactly what the overhead gate
// measures.
func BenchmarkServePhaseFlight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reg := obs.NewRegistry()
		rec := flight.New(flight.Options{Registry: reg})
		if _, err := servePhase(context.Background(), Options{Seed: 1, Scale: 1}, 100, 1000, rec, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServePhaseBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := servePhase(context.Background(), Options{Seed: 1, Scale: 1}, 100, 1000, nil, obs.NewRegistry()); err != nil {
			b.Fatal(err)
		}
	}
}
