# Tier-1 checks. `make check` is what CI (and a pre-push) should run; the
# sequence itself — build, tests, vet, the race detector on the concurrent
# core, smokes, fuzz passes — is scripts/check.sh, the only copy, so that
# environments without make run exactly the same thing.

GO ?= go

.PHONY: all build test vet race check bench bench-e19 bench-wire

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Just the race-detector step of scripts/check.sh (which owns the list).
race:
	sh scripts/check.sh race

check:
	sh scripts/check.sh

# The experiment benchmarks behind EXPERIMENTS.md (long). -count is
# parameterized so `make bench BENCH_COUNT=10 | tee new.txt` produces
# benchstat-comparable samples (benchstat old.txt new.txt).
BENCH_COUNT ?= 1
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1s -count=$(BENCH_COUNT) .

# E19 only: the durable-write group-commit matrix (sync mode x writer count)
# behind EXPERIMENTS.md E19. Reports recs/group and fsyncs/op alongside
# ns/op; compare group/writers=16 against always/writers=16.
bench-e19:
	$(GO) test -run '^$$' -bench BenchmarkE19DurableWrites -benchtime=1s -count=$(BENCH_COUNT) .

# The wire-path benchmarks behind EXPERIMENTS.md E20 and E24/E30: a real
# metacommd process driven at high active-connection count, then the
# mostly-idle tiers — ~1k and ~10k held-open connections that park between
# their operations — merged into BENCH_wire_<rev>.json at the repo root
# with a side-by-side summary. Tunables: CONNS, DURATION, PIPELINE,
# ENTRIES, ACTIVE, IDLE_TIERS, IDLE_INTERVAL (see scripts/bench_wire.sh).
bench-wire:
	sh scripts/bench_wire.sh
