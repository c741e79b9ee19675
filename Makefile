GO ?= go

# Pinned tool versions: CI installs exactly these; the hints below name
# the same ones so local runs match the gate.
STATICCHECK_VERSION ?= 2024.1.1

# Per-target budget for the fuzz-smoke gate.
FUZZTIME ?= 10s

PHIVET = bin/phivet

.PHONY: all build test check phivet fmt-check fuzz-smoke bench-smoke race faults telemetry backends fleet overload observe workloads bench quick loc report-diff clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# phivet builds the repo's own analysis suite (see internal/phivet and
# the "Static analysis & invariants" section of DESIGN.md).
phivet:
	$(GO) build -o $(PHIVET) ./cmd/phivet

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# check is the CI gate: formatting, go vet, the phivet suite in both
# modes (per-package via the vettool protocol, then the whole-module
# scan that adds the cross-package checks), staticcheck and govulncheck
# when installed, then the full suite under the race detector, then vet
# and tests of the perfbench module (its own go.mod, so ./... above
# never builds it, yet it imports the serving internals).
check: fmt-check phivet
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/$(PHIVET) ./...
	./$(PHIVET) -repo .
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi
	$(GO) test -race ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# fuzz-smoke gives each differential fuzz target a short bounded run: the
# sim-vs-direct backend oracle and the bn arithmetic oracles. A smoke
# budget catches quickly-reachable divergence without tying up CI; crank
# FUZZTIME for a real session.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBackendDifferential$$' -fuzztime $(FUZZTIME) ./internal/vbatch
	$(GO) test -run '^$$' -fuzz '^FuzzDivMod$$' -fuzztime $(FUZZTIME) ./internal/bn
	$(GO) test -run '^$$' -fuzz '^FuzzMul$$' -fuzztime $(FUZZTIME) ./internal/bn
	$(GO) test -run '^$$' -fuzz '^FuzzModExp$$' -fuzztime $(FUZZTIME) ./internal/bn

# bench-smoke runs each direct-backend kernel benchmark once, the cells
# BENCH_backend.json is recorded from, and one leg of A11's light-lane
# benchmark (BENCH_workloads.json's light_lane_isolation_ms): go test
# ./... never runs benchmarks, so without it they could stop building or
# running unnoticed. One iteration per cell is a smoke check, not a
# measurement.
bench-smoke:
	$(GO) test ./internal/rsakit -run '^$$' -bench 'OpBatch/direct' -benchtime 1x
	$(GO) test ./internal/bench -run '^$$' -bench 'A11LightLane' -benchtime 1x

# race hammers the concurrent packages (the one-shot worker pool and the
# streaming batch scheduler's card queue) with repeated runs and a short
# timeout, the configuration that shakes out scheduling-order bugs.
race:
	$(GO) test -race -count=4 -timeout=120s ./internal/phipool ./internal/phiserve

# faults runs the fault-injection acceptance gate: the full resilience
# suite plus the env-gated 10k-operation hammer (TestFaultHammer) that
# injects lane bit-flips at a 1e-3 per-pass rate and requires that not one
# corrupted plaintext escapes the Bellcore verifier.
faults:
	PHIOPENSSL_FAULTS=1 $(GO) test -race -timeout=900s -run 'Fault|Breaker|Stall|Injected|KernelFail' \
		./internal/faultsim ./internal/phiserve ./internal/rsakit

# telemetry is the observability smoke gate: a race-enabled thousand-op
# traced run, whose journey recorder keeps every journey, must export a
# Chrome trace that parses with exactly one request span per request
# (keyed by journey id) and one pass slice per batch, and its /metrics
# scrape must show per-phase cycle attribution summing to the meter
# total; a 1-in-16 sampled run must trace exactly one span per kept
# journey. Then the telemetry unit suite and the <2% enabled-overhead
# budget check.
telemetry:
	$(GO) test -race -timeout=300s -run 'TestTelemetrySmoke|TestTelemetrySampledSpans|TestStatsSnapshot|TestServerStats' ./internal/phiserve
	$(GO) test -race ./internal/telemetry
	$(GO) test -timeout=300s -run 'TestTelemetryOverhead' ./internal/bench

# backends runs the race-enabled faults + telemetry gates on BOTH kernel
# execution backends (PHIOPENSSL_BACKEND steers the server's default), so
# neither the interpreted sim path nor the calibrated direct path rots.
# The differential and calibration tests that pin the two backends against
# each other run in the ordinary suite (make check).
backends:
	PHIOPENSSL_BACKEND=sim PHIOPENSSL_FAULTS=1 $(GO) test -race -timeout=900s -count=1 \
		-run 'Fault|Breaker|Stall|Injected|KernelFail' \
		./internal/faultsim ./internal/phiserve ./internal/rsakit
	PHIOPENSSL_BACKEND=direct PHIOPENSSL_FAULTS=1 $(GO) test -race -timeout=900s -count=1 \
		-run 'Fault|Breaker|Stall|Injected|KernelFail' \
		./internal/faultsim ./internal/phiserve ./internal/rsakit
	PHIOPENSSL_BACKEND=sim $(GO) test -race -timeout=300s -count=1 \
		-run 'TestTelemetrySmoke|TestStatsSnapshot|TestServerStats' ./internal/phiserve
	PHIOPENSSL_BACKEND=direct $(GO) test -race -timeout=300s -count=1 \
		-run 'TestTelemetrySmoke|TestStatsSnapshot|TestServerStats' ./internal/phiserve

# fleet is the multi-card acceptance gate: the sharded-fleet suite under
# the race detector (routing, hot-key replication, cross-card steal
# exactly-once, breaker failover, concurrent Submit-vs-Close) plus the
# env-gated hammer (TestFleetHammer): a 4-card soak with kernel failures,
# stalls, breaker trips and work stealing all active, closed mid-traffic,
# requiring every accepted request to resolve exactly once. The A8 model
# invariants run against the virtual-time engine (internal/phisim).
fleet:
	$(GO) test -race -timeout=300s ./internal/phifleet ./internal/phisim
	PHIOPENSSL_FLEET=1 $(GO) test -race -timeout=300s -count=1 -run 'TestFleetHammer' ./internal/phifleet

# overload is the admission-control acceptance gate: the phiadmit suite
# under the race detector (door shedding, brownout hysteresis, weighted
# fairness, deadline propagation, the A9 model invariants) plus the
# env-gated hammer (TestOverloadHammer): a multi-tenant soak driving a
# controller-fronted fleet past capacity with faults active, closed
# mid-shed, requiring every admitted request to resolve exactly once.
overload:
	$(GO) test -race -timeout=300s ./internal/phiadmit ./internal/phisim
	$(GO) test -race -timeout=300s -run 'TestSubmitRejectsDeadOnArrival|TestCanceledLanesDroppedAtSeal|TestOverflowCapSheds|TestRetryBudget|TestDeadBatchDroppedAtDequeue' \
		./internal/phiserve
	PHIOPENSSL_OVERLOAD=1 $(GO) test -race -timeout=300s -count=1 -run 'TestOverloadHammer' ./internal/phiadmit

# observe is the request-journey acceptance gate: the phitrace suite under
# the race detector (journey lifecycle, tail sampling, burn windows, the
# incident flight recorder, the A10 model invariants), the telemetry
# observability additions (trace-drop accounting, histogram quantiles, the
# /journeys + /incidents endpoints), the env-gated hammer
# (TestObserveHammer): a 3-tenant overload soak with the recorder wired
# through door, fleet, scheduler and pool requiring one coherent journey —
# exactly one terminal, monotone timestamps, hops within budget — per
# Submit, and finally the <2% enabled-overhead budget re-checked with
# journeys + tail sampling active.
observe:
	$(GO) test -race -timeout=300s ./internal/phitrace ./internal/telemetry ./internal/phisim
	PHIOPENSSL_OBSERVE=1 $(GO) test -race -timeout=300s -count=1 -run 'TestObserveHammer' ./internal/phiadmit
	$(GO) test -timeout=300s -run 'TestTelemetryOverhead' ./internal/bench

# workloads is the workload-generic pipeline acceptance gate: the phiwork
# suite (per-kind differential tests against the scalar dh/rsakit
# references, the instance-cache cap), the public-lane starvation
# regression, and the env-gated mixed-traffic hammer
# (TestWorkloadHammer): all five workload kinds driven concurrently
# through admission and the two-card fleet under -race with faults active
# and per-tenant workload allow-lists enforced, closed mid-traffic,
# requiring every accepted request to resolve exactly once with the
# scalar-reference answer and workload labels visible in journeys and the
# /metrics scrape.
workloads:
	$(GO) test -race -timeout=600s ./internal/phiwork
	$(GO) test -race -timeout=300s -run 'TestPublicLaneJumpsHeavyFlood' ./internal/phiserve
	PHIOPENSSL_WORKLOADS=1 $(GO) test -race -timeout=300s -count=1 -run 'TestWorkloadHammer' ./internal/phiadmit

quick:
	$(GO) run ./cmd/phibench -quick

# loc reports the Go lines a change adds and removes, non-test and test
# files (_test.go and testdata fixtures) apart, from git diff --numstat
# between BASE and the working tree (BASE defaults to HEAD, the
# uncommitted change; stage new files so they count). Each change reports
# its net non-test figure.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
		$$1 != "-" { t = ($$3 ~ /(_test\.go|\/testdata\/.*\.go)$$/); add[t] += $$1; del[t] += $$2 } \
		END { \
			printf "non-test Go: +%d -%d net %+d\n", add[0], del[0], add[0] - del[0]; \
			printf "test Go:     +%d -%d net %+d\n", add[1], del[1], add[1] - del[1] }'

# report-diff compares the deterministic experiment reports of BASE and
# the working tree. BASE is extracted with git archive into a temporary
# directory (no git worktree); in each tree phibench runs -quick (every
# experiment) and -exp a10 -journeys, and the "completed in" / "done in"
# timing lines are dropped. It prints the diff and fails when the reports
# differ: a refactor must leave them identical, and a change that moves a
# cell must explain it. Takes 2-4 minutes on two cores. Usage:
# make report-diff BASE=<ref> (BASE defaults to HEAD, as for loc).
report-diff:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base" && git archive $(BASE) | tar -x -C "$$tmp/base" || exit 1; \
	for tree in base work; do \
		dir="$$tmp/base"; if [ $$tree = work ]; then dir="$(CURDIR)"; fi; \
		bin="$$tmp/phibench-$$tree"; \
		$(GO) -C "$$dir" build -o "$$bin" ./cmd/phibench || exit 1; \
		"$$bin" -quick > "$$tmp/$$tree.raw" && "$$bin" -exp a10 -journeys >> "$$tmp/$$tree.raw" || exit 1; \
		grep -v -e 'completed in' -e 'done in' "$$tmp/$$tree.raw" > "$$tmp/$$tree.txt"; \
	done; \
	diff "$$tmp/base.txt" "$$tmp/work.txt" && echo "report-diff: reports identical to $(BASE)"

bench:
	$(GO) run ./cmd/phibench

clean:
	$(GO) clean ./...
