# Development entry points. `make check` runs the same pipeline CI does.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: build vet airvet lint test race fuzz bench loadgen check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The repo must stay airvet-clean: any finding fails, and a site that must
# break a rule carries a justified //lint:ignore (docs/airvet.md). From
# bench/, tcsa/... loads both modules, so testonly sees every non-test
# reference.
airvet lint:
	cd bench && $(GO) run tcsa/cmd/airvet tcsa/...

test:
	$(GO) test -shuffle=on ./...

# The race and fuzz stages of scripts/check.sh, which holds their package
# and target lists; fuzz runs every Fuzz* target `go test -list` finds.
race:
	scripts/check.sh race

fuzz:
	FUZZTIME=$(FUZZTIME) scripts/check.sh fuzz

# Smoke the hot-path benchmarks (see docs/perf.md).
bench:
	$(GO) test -run '^$$' -bench 'Analyze|AppearanceIndex|Measure|Figure5|SUSCBuild|PAMADBuild|OPTSearch' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'Fanout|CastSlot|RunStream' -benchtime=1x -benchmem ./internal/netcast/ ./internal/loadgen/
	$(GO) test -run '^$$' -bench 'ExactDelay|SuffixDelayTotal' -benchtime=1x -benchmem ./internal/delaymodel/
	$(GO) test -run '^$$' -bench 'ReplanLiveEdits' -benchtime=1x -benchmem ./internal/replan/

# Quick scenario sweep through the broadcast transport; fault-free cells
# self-verify against sim.MeasureStream. Artifacts land under results/.
loadgen:
	$(GO) run ./cmd/loadgen -clients 100000 -dists uniform,sskew -loss 0,0.1 -churn 0,0.05

check:
	FUZZTIME=$(FUZZTIME) scripts/check.sh
