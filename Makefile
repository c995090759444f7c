GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race lint fmt fuzz bench bench-gate scale-smoke flight-dump explain-smoke

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

# The failing regression gate, as CI runs it: this working tree judged
# against BASE, a git ref (CI passes the pull request's base commit), on one
# machine in one run, so the verdict measures the change rather than the
# host. BASE is extracted with git archive; both trees' test
# binaries for the gated packages are built once and run in
# BENCH_GATE_ROUNDS rounds. In each round a package's two binaries run back
# to back, each from its own package directory, and the side that goes
# first alternates by round, so drift over the run lands on both sides
# alike. Each run is one sample per benchmark; cmd/benchgate fails on a
# statistically significant (Mann-Whitney, p < 0.05) >25% geomean sec/op
# or allocs/op regression. A package or benchmark missing at BASE is
# listed unpaired, not judged.
BENCH_GATE_PKGS = ./internal/conflict/ ./internal/mis/ ./internal/assign/ ./internal/ctcr/ ./internal/tree/ ./internal/serve/ ./internal/obs/flight/ ./internal/delta/
BENCH_GATE_ROUNDS = 10
BENCH_GATE_DIR = $(CURDIR)/.bench_gate
bench-gate:
	$(if $(BASE),,$(error set BASE to the git ref to judge against, e.g. make bench-gate BASE=main))
	rm -rf $(BENCH_GATE_DIR) bench_base.txt bench_new.txt
	mkdir -p $(BENCH_GATE_DIR)/base/src
	git archive $(BASE) | tar -x -C $(BENCH_GATE_DIR)/base/src
	for pkg in $(BENCH_GATE_PKGS); do \
		$(GO) test -c -o $(BENCH_GATE_DIR)/new/$$pkg/bench.test $$pkg || exit 1; \
		[ ! -d $(BENCH_GATE_DIR)/base/src/$$pkg ] || (cd $(BENCH_GATE_DIR)/base/src && \
			$(GO) test -c -o $(BENCH_GATE_DIR)/base/$$pkg/bench.test $$pkg) || exit 1; \
	done
	for r in $$(seq $(BENCH_GATE_ROUNDS)); do \
		echo "bench-gate: round $$r of $(BENCH_GATE_ROUNDS)" >&2; \
		sides="new base"; [ $$((r % 2)) = 1 ] || sides="base new"; \
		for pkg in $(BENCH_GATE_PKGS); do for side in $$sides; do \
			bin=$(BENCH_GATE_DIR)/$$side/$$pkg/bench.test; dir=$$pkg; \
			[ $$side = new ] || dir=$(BENCH_GATE_DIR)/base/src/$$pkg; \
			[ ! -f $$bin ] || (cd $$dir && $$bin -test.run '^$$' -test.bench . -test.count 1 \
				-test.benchtime 100ms -test.benchmem -test.timeout 10m >> $(CURDIR)/bench_$$side.txt) || exit 1; \
		done; done; \
	done
	$(GO) run ./cmd/benchgate -baseline bench_base.txt -new bench_new.txt

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

# The past-the-ceiling CCT run: a 50k-set synthetic build, which clusters on
# the kNN graph, plus that clusterer's micro-benchmark. SCALEFLAGS=-short
# shrinks the instances to the cluster.MaxPoints+1 boundary.
SCALEFLAGS ?=
scale-smoke:
	$(GO) test $(SCALEFLAGS) -bench '^BenchmarkCCTScale$$' -benchtime=1x -benchmem -run '^$$' .
	$(GO) test $(SCALEFLAGS) -bench 'LargeN$$' -benchtime=1x -benchmem -run '^$$' ./internal/cluster/
