GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint fmt fuzz bench bench-baseline bench-new bench-gate scale-smoke flight-dump explain-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full local static-analysis gate, mirroring the CI lint job (minus the
# tools that need a network to install: staticcheck, govulncheck).
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/octlint ./...
	$(GO) run ./cmd/escapecheck ./...

fmt:
	gofmt -w .

# Fuzz the Section-2 tree invariants and the delta mutation decoder;
# FUZZTIME=5m make fuzz for a deep run.
fuzz:
	for target in FuzzIntset FuzzCTCRBuild FuzzCCTBuild FuzzCCTBuildLarge; do \
		$(GO) test ./internal/invariant/ -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done
	$(GO) test ./internal/delta/ -run '^$$' -fuzz '^FuzzDeltaApply$$' -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# Packages whose benchmarks feed the failing CI regression gate, and the
# exact sampling CI uses: 10 iterations gives the Mann-Whitney test enough
# samples to reach p < 0.05 (a single-iteration baseline never can). CI's
# bench-gate job runs `make bench-new`, so this is the only list.
BENCH_GATE_PKGS = ./internal/conflict/ ./internal/mis/ ./internal/assign/ ./internal/ctcr/ ./internal/tree/ ./internal/serve/ ./internal/obs/flight/ ./internal/delta/
BENCH_GATE_ARGS = -run '^$$' -bench . -count=10 -benchtime=100ms -benchmem

# Regenerate BENCH_baseline.txt exactly the way CI consumes it: the full
# suite at one iteration (feeds the smoke compare and the missing-benchmark
# check), then -count=10 sections for the gated packages (feeds the failing
# gate). Commit the result whenever benchmarks are added or intentionally
# change performance.
bench-baseline:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./... > BENCH_baseline.txt
	$(GO) test $(BENCH_GATE_ARGS) $(BENCH_GATE_PKGS) >> BENCH_baseline.txt

# Fresh -count=10 samples over the gated packages, into bench_new.txt.
bench-new:
	$(GO) test $(BENCH_GATE_ARGS) $(BENCH_GATE_PKGS) > bench_new.txt

# The failing regression gate, as CI runs it: the fresh samples judged
# against the committed baseline (fail only on a statistically significant
# >25% geomean slowdown).
bench-gate: bench-new
	$(GO) run ./cmd/benchgate -baseline BENCH_baseline.txt -new bench_new.txt

# Capture a flight-recorder diagnostics bundle (wide-event ring, SLO burn
# rates, retained Chrome traces, Prometheus metrics, goroutine profile) by
# replaying a deterministic read-path workload in-process. CI runs this on
# test or bench-gate failure and uploads the bundle as an artifact.
FLIGHT_OUT ?= flight-dump
flight-dump:
	$(GO) run ./cmd/flightdump -out $(FLIGHT_OUT)

# End-to-end provenance smoke: generate a small instance, record a delta
# build's ledger alongside a from-scratch reference of the same final
# catalog, render the delta trace, and diff the two ledgers. Exercises the
# whole explain stack (recorder → seal → JSON → trace/diff) the way a
# developer would when asking why a build did what it did. CI runs this on
# failure and uploads EXPLAIN_OUT as an artifact.
EXPLAIN_OUT ?= explain-smoke
explain-smoke:
	mkdir -p $(EXPLAIN_OUT)
	$(GO) run ./cmd/octgen -scale 0.002 -out $(EXPLAIN_OUT)/instance.json
	printf '%s' '{"batches":[[{"op":"add","items":[1,2,3,4,5,6],"weight":30,"label":"smoke-add"},{"op":"reweight","id":4,"weight":200}],[{"op":"remove","id":9},{"op":"add","items":[20,21,22,23],"weight":12,"label":"smoke-add-2"}]]}' > $(EXPLAIN_OUT)/muts.json
	$(GO) run ./cmd/octexplain build -in $(EXPLAIN_OUT)/instance.json \
		-mutations $(EXPLAIN_OUT)/muts.json \
		-o $(EXPLAIN_OUT)/delta.json -reference-out $(EXPLAIN_OUT)/full.json
	$(GO) run ./cmd/octexplain trace $(EXPLAIN_OUT)/delta.json > $(EXPLAIN_OUT)/trace.txt
	$(GO) run ./cmd/octexplain diff $(EXPLAIN_OUT)/full.json $(EXPLAIN_OUT)/delta.json | tee $(EXPLAIN_OUT)/diff.txt

# The past-the-ceiling CCT run: a 50k-set synthetic build through the
# scaled clustering strategies plus their micro-benchmarks. SCALEFLAGS=-short
# shrinks the instances to the cluster.MaxPoints+1 boundary.
SCALEFLAGS ?=
scale-smoke:
	$(GO) test $(SCALEFLAGS) -bench '^BenchmarkCCTScale$$' -benchtime=1x -benchmem -run '^$$' .
	$(GO) test $(SCALEFLAGS) -bench 'LargeN$$' -benchtime=1x -benchmem -run '^$$' ./internal/cluster/
