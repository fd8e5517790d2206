# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover loc bench bench-smoke slo-gate experiments check soak explore jobd conformance bench-jobd clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Non-test Go lines outside the benchmark module: the size the
# simplification work tracks.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l

# The full testing.B view of the paper's evaluation (see bench_test.go).
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick burst + batch benchmarks with JSON output for trend tracking;
# CI uploads both results as artifacts.
bench-smoke:
	mkdir -p results
	$(GO) run ./cmd/fifobench -experiment burst -iters 2000 -runs 1 \
		-capacity 1024 -format json > results/BENCH_smoke.json
	cat results/BENCH_smoke.json
	$(GO) run ./cmd/fifobench -experiment batch -threads 8 -iters 2000 \
		-format json > results/BENCH_batch.json
	cat results/BENCH_batch.json
	$(GO) run ./cmd/fifobench -experiment overload \
		-format csv > results/BENCH_overload.csv
	cat results/BENCH_overload.csv
	$(GO) run ./cmd/fifobench -experiment overload \
		-format json > results/BENCH_overload.json
	cat results/BENCH_overload.json
	$(GO) run ./cmd/fifobench -experiment shard \
		-format json > results/BENCH_shard.json
	cat results/BENCH_shard.json
	$(GO) run ./cmd/fifobench -experiment pipeline -format json \
		-artifacts results > results/BENCH_pipeline.json
	cat results/BENCH_pipeline.json

# Check the current results/ against the checked-in SLO budgets and
# append the verdict to the perf trajectory. Run `make bench-smoke`
# first to gate fresh numbers; exits nonzero on any budget breach.
slo-gate:
	$(GO) run ./cmd/fifogate -budgets slo/budgets.json -current results \
		-report results/SLO_report.json -trajectory results/TRAJECTORY.jsonl

# Regenerate every figure/table with scaled-down defaults (minutes).
experiments:
	$(GO) run ./cmd/fifobench -experiment all

# Regenerate with the paper's full parameters (very slow).
experiments-paper:
	$(GO) run ./cmd/fifobench -experiment all -paper

# Correctness drivers.
check:
	$(GO) run ./cmd/fifocheck -algo all -rounds 50 -exhaustive

explore:
	$(GO) run ./cmd/fifoexplore -threads 2 -delays 3
	$(GO) run ./cmd/fifoexplore -algo evq-cas -threads 2 -delays 2
	$(GO) run ./cmd/fifoexplore -algo evq-seg -threads 3 -delays 2 -max-exec 5000

soak:
	$(GO) run ./cmd/fifosoak -algo all -duration 5s

# Build the OJS job server.
jobd:
	$(GO) build -o fifojobd ./cmd/fifojobd

# Run the vendored OJS conformance suites against an in-process
# fifojobd. LEVEL narrows to one spec level (0 or 1); default is all.
# SKIPLIST quarantines named cases (with reasons) — keep it empty.
LEVEL ?= -1
SKIPLIST ?= conformance/skiplist.json
conformance:
	$(GO) run ./conformance/runner -suites conformance/suites \
		-level $(LEVEL) -skiplist $(SKIPLIST)

# Selfdrive load run: loopback HTTP PUSH/FETCH/ACK against fifojobd,
# emitting the schema:1 jobd envelope the SLO gate budgets.
bench-jobd:
	mkdir -p results
	$(GO) run ./cmd/fifojobd -selfdrive -duration 3s -out results/BENCH_jobd.json
	cat results/BENCH_jobd.json

clean:
	$(GO) clean ./...
