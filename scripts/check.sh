#!/bin/sh
# Tier-1 check — the one copy of the sequence (`make check` runs this file):
# build, tests, vet, the race detector over the concurrent core, smokes, ten
# seconds per fuzz target, and a one-iteration pass over every benchmark so
# the experiment harness cannot rot. `check.sh race` runs the race step alone.
set -eux
cd "$(dirname "$0")/.."
tmp="${TMPDIR:-/tmp}"

# The engine's ordering/quiesce guarantees, the DIT's copy-on-write search
# snapshots, the filters' converge path, the device stores' fault
# injection under the outbox drainer, the wire path's borrowed-buffer decode,
# pipelined flushing and epoll reactor, and the replication mesh are
# concurrency properties; their tests run under the race detector.
race() {
	go test -race -count=1 ./internal/directory/... ./internal/um/... ./internal/ltap/... ./internal/filter/... ./internal/device/... ./internal/ber/... ./internal/ldapserver/... ./internal/ldapclient/... ./internal/replica/... ./internal/record/...
	go test -race -count=1 -run 'TestNoComponentReadsItsOwnDirectoryOverTCP|TestLTAPRefusesModifyDNWithNewSuperior|TestUMCallsTheGatewayInProcess|TestDeviceUpdateLargerThanMaxMessageSize|TestQuiesceDrainsShardedEngine' .
}
if [ "${1:-}" = race ]; then
	race
	exit
fi

go build ./...
go test ./...
go vet ./...
race
# The directory writes one record format and attaches one layout: the JSON
# writer, the single-file attach and its strict replay, deleted in PR 13,
# must not come back in non-test code. (One letter of each name is bracketed
# so that a grep for the names over scripts/ does not find this line.)
if git grep -nE 'Format[J]SON|Attach[J]ournal\(|apply[R]ecord' -- '*.go' ':!*_test.go'; then
	echo "check.sh: a deleted journal path is back (see the matches above)" >&2
	exit 1
fi
# The journal maintains itself: it compacts on the history it counts and at
# clean close, and the daemon always group-commits. The interval compactor,
# the sync-mode and batch knobs and their flags must not come back in
# non-test code, the scripts or the README (letters bracketed as above).
if git grep -nE 'Compact[I]nterval|StartAuto[C]ompact|ParseSync[M]ode|Journal[S]ync|Journal[B]atch|compact-[i]nterval|journal-[s]ync|journal-[b]atch' -- '*.go' scripts/ README.md ':!*_test.go'; then
	echo "check.sh: a deleted journal knob is back (see the matches above)" >&2
	exit 1
fi
# One process, one directory: the gateway and the Update Manager call the
# DIT in process. The loopback pools, their width knob, the before-image
# cache and the pipelined modify batch must not come back in non-test code,
# the scripts or the README (letters bracketed as above).
if git grep -nE 'Backend[C]onns|Gateway[C]ache|BeforeImage[C]ache|Modify[B]atch|backend-[c]onns|gateway-[c]ache' -- '*.go' scripts/ README.md ':!*_test.go'; then
	echo "check.sh: a deleted loopback path is back (see the matches above)" >&2
	exit 1
fi
# No loopback inside a node: the gateway calls the Update Manager and the
# Update Manager calls the gateway in process. The coupling mode, the action
# listener address, the -mode flag and the UM's setters for an LTAP
# connection and remote quiesce must not come back in non-test code, the
# scripts or the README (letters bracketed as above).
if git grep -nE 'Mode[G]ateway|Mode[L]ibrary|Action[A]ddr|Set[L]TAP\(|Set[Q]uiesce\(|flag\.String\("[m]ode"|metacommd -[m]ode' -- '*.go' scripts/ README.md ':!*_test.go'; then
	echo "check.sh: a deleted in-node wire is back (see the matches above)" >&2
	exit 1
fi
# Multi-master replication smoke: a two-node mesh, a write accepted on each
# side, and a conflicting same-DN write — both trees must converge.
go test -run TestMultiMasterWritesAnywhereConverge -count=1 .
# Group-commit smoke: three concurrent writers against a SyncGroup journal
# must produce at least one multi-record commit group (batch > 1 observed).
go test -run TestJournalGroupCommitBatches -count=1 ./internal/directory/
# Journal-format migration smoke: the checked-in JSON-era journal set must
# come back as v2 (binary frames on disk, no format key in the manifest,
# the fingerprint its writer had).
go test -run TestLegacyJSONJournalMigratesToV2 -count=1 ./internal/directory/
# Ten seconds per fuzz target: enough to shake out decoder/parser panics on
# every run without turning check into a fuzzing campaign. The checked-in
# corpora under testdata/fuzz replay as ordinary tests in `go test`.
go test -fuzz=FuzzDecode -fuzztime=10s ./internal/ber/
go test -fuzz=FuzzParse -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzCompilePattern -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzPatternMatch -fuzztime=10s ./internal/lexpress/
go test -fuzz=FuzzJournalV2Record -fuzztime=10s ./internal/record/
go test -fuzz=FuzzReplicaStream -fuzztime=10s ./internal/replica/
go test -run '^$' -bench . -benchtime=1x . ./internal/um/
# Wire-path load-generator smoke: spawn an in-process system, drive it for
# two seconds, and verify the machine-readable benchmark record is written.
go run ./cmd/loadgen -spawn -conns 64 -duration 2s -warmup 500ms -entries 64 -out "$tmp/bench_wire_smoke.json"
test -s "$tmp/bench_wire_smoke.json"
# Epoll accept-loop smoke: the event-loop serving path end to end, with a
# mostly-idle connection pool held alongside the active workers (falls back
# to goroutine mode off Linux, so this stays portable).
go run ./cmd/loadgen -spawn -accept-loop epoll -conns 32 -idle-conns 96 -idle-interval 1s -duration 2s -warmup 500ms -entries 64 -out "$tmp/bench_wire_epoll_smoke.json"
test -s "$tmp/bench_wire_epoll_smoke.json"
# Benchmark-module smoke: bench/ is a module of its own, so the `go test
# ./...` above never builds it. Its tests, then a short mesh_restart pass:
# cold starts, a join over the replication stream, writes followed to the
# peer, fingerprints compared (exit status 2 if the gate fails).
(cd bench && go test ./...)
bash bench/run.sh --workload mesh_restart -short
