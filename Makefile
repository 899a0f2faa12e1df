# Development entry points. `make check` runs the same pipeline CI does.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: build vet airvet lint lint-baseline test race fuzz bench gates loadgen check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo must stay clean against the committed (empty) baseline; see
# docs/airvet.md for the ratchet workflow.
airvet lint:
	$(GO) run ./cmd/airvet -baseline lint_baseline.json ./...

# Rewrite the baseline from current findings (blessing new debt — use
# sparingly, the goal is an empty file).
lint-baseline:
	$(GO) run ./cmd/airvet -baseline lint_baseline.json -update ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/netcast/... ./internal/online/... ./internal/opt/... ./internal/ptas/... ./internal/replan/... ./internal/sim/... ./internal/chaos/... ./internal/loadgen/... ./internal/experiments/... ./cmd/...

fuzz:
	$(GO) test -fuzz='FuzzRearrange$$'         -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzRearrangeMonotone$$' -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzProgramJSON$$'       -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzGroupSetJSON$$'      -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz='FuzzParseFrame$$'        -fuzztime=$(FUZZTIME) ./internal/netcast/
	$(GO) test -fuzz='FuzzPAMADPlacement$$'    -fuzztime=$(FUZZTIME) ./internal/pamad/
	$(GO) test -fuzz='FuzzSUSCEquivalence$$'   -fuzztime=$(FUZZTIME) ./internal/susc/
	$(GO) test -fuzz='FuzzSketchQuantile$$'    -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -fuzz='FuzzChaosDeterminism$$'  -fuzztime=$(FUZZTIME) ./internal/chaos/
	$(GO) test -fuzz='FuzzPTASEquivalence$$'   -fuzztime=$(FUZZTIME) ./internal/opt/
	$(GO) test -fuzz='FuzzReplanEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/replan/
	$(GO) test -fuzz='FuzzOndemandQueue$$'     -fuzztime=$(FUZZTIME) ./internal/ondemand/
	$(GO) test -fuzz='FuzzOnlineEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/online/
	$(GO) test -fuzz='FuzzLoadgenEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/loadgen/

# Smoke the hot-path benchmarks (see docs/perf.md).
bench:
	$(GO) test -run '^$$' -bench 'Analyze|AppearanceIndex|Measure|Figure5|SUSCBuild|PAMADBuild|OPTSearch' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'Fanout|RunStream' -benchtime=1x -benchmem ./internal/netcast/ ./internal/loadgen/
	$(GO) test -run '^$$' -bench 'ExactDelay|SuffixDelayTotal' -benchtime=1x -benchmem ./internal/delaymodel/

# Every benchmark-trajectory gate in airbench's registry: each writes
# BENCH_<name>_new.json and fails on any regression against the committed
# BENCH_<name>.json. One gate: `go run ./cmd/airbench -gate chaos`. See
# docs/perf.md.
gates:
	$(GO) run ./cmd/airbench -gate all

# Quick scenario sweep through the broadcast transport; fault-free cells
# self-verify against sim.MeasureStream. Artifacts land under results/.
loadgen:
	$(GO) run ./cmd/loadgen -clients 100000 -dists uniform,sskew -loss 0,0.1 -churn 0,0.05

check:
	FUZZTIME=$(FUZZTIME) scripts/check.sh
