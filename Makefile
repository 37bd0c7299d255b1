# Tier-1 checks. `make check` is what CI (and a pre-push) should run: the
# full build+test pass plus vet, the race detector on the concurrent core
# (the copy-on-write DIT, the sharded UM engine, and the LTAP
# gateway/action wire), and a one-iteration benchmark smoke.

GO ?= go

.PHONY: all build test vet race fuzz-smoke bench-smoke loadgen-smoke benchscale-smoke replication-smoke check bench bench-e19 bench-wire bench-scale

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The engine's ordering/quiesce guarantees, the DIT's copy-on-write
# search snapshots, the filters' batched converge path, the device
# stores' fault injection under the outbox drainer, and the wire path's
# borrowed-buffer decode, pipelined flushing, and epoll reactor (readiness
# events racing worker turns) are concurrency properties; run their tests
# under the race detector.
race:
	$(GO) test -race -count=1 ./internal/directory/... ./internal/um/... ./internal/ltap/... ./internal/filter/... ./internal/device/... ./internal/ber/... ./internal/ldapserver/... ./internal/ldapclient/... ./internal/replica/... ./internal/record/...

# Multi-master smoke: a two-node mesh, a write accepted on each side, and a
# conflicting same-DN write — both trees must converge to one winner. Plus
# the benchmark module's own tests and a short mesh_restart pass (cold
# starts, a join over the replication stream, writes followed to the peer):
# bench/ is a module of its own, so `go test ./...` never builds it.
replication-smoke:
	$(GO) test -run TestMultiMasterWritesAnywhereConverge -count=1 .
	cd bench && $(GO) test ./...
	bash bench/run.sh --workload mesh_restart -short

# Ten seconds per fuzz target: enough to shake out decoder/parser panics on
# every run without turning check into a fuzzing campaign. The checked-in
# corpora under testdata/fuzz replay as ordinary tests in `make test`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/ber/
	$(GO) test -fuzz=FuzzParse -fuzztime=10s ./internal/lexpress/
	$(GO) test -fuzz=FuzzCompilePattern -fuzztime=10s ./internal/lexpress/
	$(GO) test -fuzz=FuzzJournalV2Record -fuzztime=10s ./internal/record/
	$(GO) test -fuzz=FuzzReplicaStream -fuzztime=10s ./internal/replica/

# One iteration of every benchmark: catches harness rot without the cost of
# a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

# Two seconds of the wire-path load generator against an in-process system:
# catches harness rot (dial, seed, measure, JSON output) without a real run.
# The second pass serves through the epoll accept loop with a mostly-idle
# connection pool (falls back to goroutine mode off Linux).
loadgen-smoke:
	$(GO) run ./cmd/loadgen -spawn -conns 64 -duration 2s -warmup 500ms -entries 64 -out /tmp/bench_wire_smoke.json
	$(GO) run ./cmd/loadgen -spawn -accept-loop epoll -conns 32 -idle-conns 96 -idle-interval 1s -duration 2s -warmup 500ms -entries 64 -out /tmp/bench_wire_epoll_smoke.json

# A 10k-population pass of the scale benchmark: exercises segmented populate,
# online compaction under load (zero rejected writes is asserted by the tool),
# and journal-set replay, without the cost of the 1M run.
benchscale-smoke:
	$(GO) run ./cmd/benchscale -pops 10000 -ops 200 -out /tmp/bench_scale_smoke.json

check: test vet race fuzz-smoke bench-smoke loadgen-smoke benchscale-smoke replication-smoke

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

# The wire-path benchmarks behind EXPERIMENTS.md E20 and E24: a real
# metacommd process driven at high active-connection count, then the
# mostly-idle matrix — goroutine vs epoll accept loops at ~1k and ~10k
# held-open connections — merged into BENCH_wire_<rev>.json at the repo
# root with a side-by-side summary. Tunables: CONNS, DURATION, PIPELINE,
# ENTRIES, ACTIVE, IDLE_TIERS, IDLE_INTERVAL (see scripts/bench_wire.sh).
bench-wire:
	sh scripts/bench_wire.sh

# The population-scale benchmark behind EXPERIMENTS.md E21: per-op latency,
# heap per entry, crash-recovery replay, and compaction-under-load from 1k to
# 1M entries. Writes BENCH_scale_<rev>.json at the repo root. Tunables:
# POPS, SEGMENTS, OPS (see scripts/bench_scale.sh).
bench-scale:
	sh scripts/bench_scale.sh
