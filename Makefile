# Development targets. `make check` is the gate CI and contributors run
# before merging: the gofmt gate, vet, full build, a run of every
# example from a temp dir, pvclint (the
# determinism/simulated-time invariant analyzers), the race-enabled test
# suite (the parallel runner makes -race meaningful), and vet + tests of
# the nested perfbench module, which the root `./...` patterns never
# reach.

GO ?= go

.PHONY: check fmt vet build examples lint test race perfbench-check bench artifacts trace-demo profile-demo sweep-demo wallprof-demo bench-record bench-check serve-demo smoke loadtest-demo clean

check: fmt vet build examples lint race perfbench-check

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

# pvclint enforces the invariants in DESIGN.md (§8): no wall
# clock in simulation packages, no map-order output, no global
# math/rand, no exact float equality in model code, nil-guarded
# obs.Recorder calls, a closed bound-tag taxonomy, units.Seconds
# across call boundaries. Packages are parsed concurrently and
# type-checked in dependency waves. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/pvclint

build:
	$(GO) build ./...

# Build and run the four examples from a temp dir, as CI's check job
# does: they write their outputs to the working directory, and the
# timeline example's Chrome trace must parse as a non-empty traceEvents
# file.
examples:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./examples/... && cd "$$tmp" && \
	for ex in quickstart customnode projection timeline; do \
		echo "== examples/$$ex"; "./$$ex" || exit 1; \
	done && \
	jq -e '.traceEvents | length > 0' timeline.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

artifacts: build
	$(GO) run ./cmd/pvcbench -artifacts artifacts -jobs 0

# Produce a Perfetto-loadable Chrome trace (ui.perfetto.dev) of one
# mini-app cell: the decomposed CloverLeaf weak-scaling run, whose
# timeline shows per-stack hydro kernels interleaved with halo-exchange
# fabric flows.
trace-demo: build
	$(GO) run ./cmd/pvcbench -workload clover-scaling -system aurora -trace trace-demo.json
	@echo "wrote trace-demo.json — load it at https://ui.perfetto.dev"

# Produce a bound-attribution profile of the same cell and render its
# residency table plus a flamegraph.pl-ready folded-stack file.
profile-demo: build
	$(GO) run ./cmd/pvcbench -workload clover-scaling -system aurora -profile profile-demo.json
	$(GO) run ./cmd/pvcprof report profile-demo.json
	$(GO) run ./cmd/pvcprof flame profile-demo.json > profile-demo.folded
	@echo "wrote profile-demo.json and profile-demo.folded (feed to flamegraph.pl)"

# Run a small strong-scaling sweep (the clover-strong family restricted
# to 2-node Aurora clusters) end to end: expand, simulate, export the
# profile, and render the bound-residency report — which must show time
# attributed to the inter-node fabric (fabric.remote-node).
sweep-demo: build
	$(GO) run ./cmd/pvcbench -sweep clover-strong -where system=aurora,nodes=2 \
		-profile sweep-demo.json
	$(GO) run ./cmd/pvcprof report sweep-demo.json
	@$(GO) run ./cmd/pvcprof report sweep-demo.json | grep -q 'fabric.remote-node' \
		&& echo "sweep-demo: fabric.remote-node residency present" \
		|| { echo "sweep-demo: fabric.remote-node missing from profile report"; exit 1; }

# Wall-clock self-profiling demo (DESIGN.md §13): run the CloverLeaf
# weak-scaling cell with both timelines on — the simulated-time trace
# and the wall-time engine timeline — then render the wall report and
# prove the purity claim: the simulated metrics export is byte-identical
# with the profiler attached and with it absent.
wallprof-demo: build
	$(GO) run ./cmd/pvcbench -workload clover-scaling -system aurora \
		-trace wallprof-demo-trace.json -wall-trace wallprof-demo-walltrace.json \
		-wallprof wallprof-demo.json -metrics wallprof-demo-metrics.json
	$(GO) run ./cmd/pvcprof wall report wallprof-demo.json
	$(GO) run ./cmd/pvcbench -workload clover-scaling -system aurora \
		-metrics wallprof-demo-metrics-off.json
	cmp wallprof-demo-metrics.json wallprof-demo-metrics-off.json
	@echo "wallprof-demo: metrics byte-identical with wallprof on vs off"
	@echo "wrote wallprof-demo-trace.json + wallprof-demo-walltrace.json — load both at https://ui.perfetto.dev"

# Append today's bench record (the six Table V/VI FOM workloads) to
# BENCH_<date>.json — the simulated FOM trajectory.
bench-record: build
	$(GO) run ./cmd/pvcprof bench -jobs 0

# Regression gate: run the bench set now and diff it against the
# committed baseline. Simulated FOM drift hard-fails (exact tolerance),
# whatever -jobs is. The simulator's speed is perfbench's to measure
# (bash perfbench/run.sh), not this gate's. The allocation pins run
# first: every simulation pays the nil-probe hook sites and the event
# queue, so a warm engine must schedule and drain a burst without
# allocating, and a warm flow transfer, device-to-device copy or MPI
# message must allocate only its Flow and Requests (DESIGN.md §12-§13).
bench-check: build
	$(GO) test -run 'TestWallprobeNilPathZeroAlloc|TestFlowTransferAllocs|TestD2DRoundTripAllocs|TestMessageAllocs' \
		./internal/sim/ ./internal/fabric/ ./internal/gpusim/ ./internal/mpirt/
	$(GO) run ./cmd/pvcprof bench -jobs 0 -out bench-current.json
	$(GO) run ./cmd/pvcprof diff BENCH_baseline.json bench-current.json

# Boot the pvcd simulation service in the foreground (Ctrl-C drains and
# exits). Drive it with curl: POST /v1/runs, stream /v1/runs/{id}/events
# with curl -N, scrape /metrics. See DESIGN.md §10 for the full API.
serve-demo: build
	@echo "pvcd on :8321 — try, from another terminal:"
	@echo "  curl -X POST localhost:8321/v1/runs -d '{\"workload\":\"clover-scaling\",\"jobs\":4}'"
	@echo "  curl -N localhost:8321/v1/runs/r0001/events"
	@echo "  curl localhost:8321/metrics"
	$(GO) run ./cmd/pvcd -addr :8321 -jobs 0

# End-to-end daemon smoke test: boot, readiness, one run over the API,
# SSE replay with Last-Event-ID resume, strict-parse /metrics (request
# latency SLO histogram included), history journal + restart survival,
# graceful SIGTERM drain. Same script CI runs.
smoke: build
	./scripts/pvcd-smoke.sh

# Service-latency demo: boot pvcd with the run-history journal, fire
# repeat wait-mode requests from the built-in `pvcd loadtest` client,
# and assert p50/p95/p99 latency is reported, repeats are served from
# the completed-run cache, and the journal round-trips byte-exactly
# and renders a `pvcprof history` trend table. Same script CI runs.
loadtest-demo: build
	./scripts/loadtest-demo.sh

clean:
	rm -rf artifacts trace-demo.json profile-demo.json profile-demo.folded sweep-demo.json bench-current.json \
		wallprof-demo.json wallprof-demo-trace.json wallprof-demo-walltrace.json \
		wallprof-demo-metrics.json wallprof-demo-metrics-off.json
