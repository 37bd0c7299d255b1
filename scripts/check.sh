#!/bin/sh
# Tier-1 check, for environments without make: build, tests, vet, the race
# detector over the concurrent core, and a one-iteration benchmark smoke so
# the experiment harness cannot rot (see Makefile `check`).
set -eux
cd "$(dirname "$0")/.."

go build ./...
go test ./...
go vet ./...
go test -race -count=1 ./internal/directory/... ./internal/um/... ./internal/ltap/... ./internal/filter/... ./internal/device/... ./internal/ber/... ./internal/ldapserver/... ./internal/ldapclient/... ./internal/replica/... ./internal/record/...
# Multi-master replication smoke: a two-node mesh, a write accepted on each
# side, and a conflicting same-DN write — both trees must converge.
go test -run TestMultiMasterWritesAnywhereConverge -count=1 .
# Group-commit smoke: three concurrent writers against a SyncGroup journal
# must produce at least one multi-record commit group (batch > 1 observed).
go test -run TestJournalGroupCommitBatches -count=1 ./internal/directory/
# Journal-format migration smoke: a legacy JSON journal set must come back
# as v2 (binary frames on disk, manifest updated, identical entry state).
go test -run TestLegacyJSONJournalMigratesToV2 -count=1 ./internal/directory/
go test -fuzz=FuzzDecode -fuzztime=10s ./internal/ber/
go test -fuzz=FuzzParse -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzCompilePattern -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzJournalV2Record -fuzztime=10s ./internal/record/
go test -fuzz=FuzzReplicaStream -fuzztime=10s ./internal/replica/
go test -run '^$' -bench . -benchtime=1x .
# Wire-path load-generator smoke: spawn an in-process system, drive it for
# two seconds, and verify the machine-readable benchmark record is written.
go run ./cmd/loadgen -spawn -conns 64 -duration 2s -warmup 500ms -entries 64 -out /tmp/bench_wire_smoke.json
test -s /tmp/bench_wire_smoke.json
# Epoll accept-loop smoke: the event-loop serving path end to end, with a
# mostly-idle connection pool held alongside the active workers (falls back
# to goroutine mode off Linux, so this stays portable).
go run ./cmd/loadgen -spawn -accept-loop epoll -conns 32 -idle-conns 96 -idle-interval 1s -duration 2s -warmup 500ms -entries 64 -out /tmp/bench_wire_epoll_smoke.json
test -s /tmp/bench_wire_epoll_smoke.json
# Scale-harness smoke at 10k entries: segmented populate, online compaction
# under load (the tool exits nonzero on any rejected write), journal replay.
go run ./cmd/benchscale -pops 10000 -ops 200 -out /tmp/bench_scale_smoke.json
test -s /tmp/bench_scale_smoke.json
# Benchmark-module smoke: bench/ is a module of its own, so the `go test
# ./...` above never builds it. Its tests, then a short mesh_restart pass:
# cold starts, a join over the replication stream, writes followed to the
# peer, fingerprints compared (exit status 2 if the gate fails).
(cd bench && go test ./...)
bash bench/run.sh --workload mesh_restart -short
