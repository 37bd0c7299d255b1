#!/bin/sh
# Wire-path benchmarks (EXPERIMENTS.md E20 + E24/E30).
#
# E20: start a real metacommd process and drive it with cmd/loadgen over
# thousands of active LDAP connections — throughput and latency of the hot
# serving path over real sockets.
#
# E24/E30: spawn in-process systems and hold ~1k and ~10k mostly-idle
# connections, each issuing one op per IDLE_INTERVAL — longer than the
# server's idle interval, so between ops they park. The in-process spawn is
# deliberate: heap and goroutine readings then include the server, so the
# per-idle-connection cost is the delta between tiers. Tier sizes are capped
# to what RLIMIT_NOFILE allows (two fds per connection in one process).
#
# The merged machine-readable record lands as BENCH_wire_<rev>.json at the
# repo root, with a side-by-side summary on stdout. Tunables come from the
# environment:
#
#   CONNS=1000 DURATION=10s PIPELINE=8 ENTRIES=1000 WRITE_PCT=5 \
#   ACTIVE=64 IDLE_TIERS="1000 10000" IDLE_INTERVAL=10s sh scripts/bench_wire.sh
set -eu
cd "$(dirname "$0")/.."

CONNS=${CONNS:-1000}
DURATION=${DURATION:-10s}
PIPELINE=${PIPELINE:-8}
ENTRIES=${ENTRIES:-1000}
WRITE_PCT=${WRITE_PCT:-5}
ACTIVE=${ACTIVE:-64}
IDLE_TIERS=${IDLE_TIERS:-"1000 10000"}
IDLE_INTERVAL=${IDLE_INTERVAL:-10s}
OUT=${OUT:-}

go build -o /tmp/metacommd.bench ./cmd/metacommd
go build -o /tmp/loadgen.bench ./cmd/loadgen

REV=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
[ -n "$OUT" ] || OUT="BENCH_wire_${REV}.json"

# ---- E20: active-connection throughput against a separate server process.
# A separate server process, like a deployment: the load generator measures
# real sockets, not loopback-in-process shortcuts. WBA is disabled so the
# run has no port collisions.
/tmp/metacommd.bench -quiet -ltap 127.0.0.1:0 -wba "" \
	>/tmp/metacommd.bench.out 2>&1 &
SRV=$!
trap 'kill $SRV 2>/dev/null || true' EXIT INT TERM

ADDR=""
i=0
while [ $i -lt 50 ]; do
	ADDR=$(awk '/LDAP \(via LTAP\):/ {print $4; exit}' /tmp/metacommd.bench.out)
	[ -n "$ADDR" ] && break
	sleep 0.2
	i=$((i + 1))
done
if [ -z "$ADDR" ]; then
	echo "bench_wire: metacommd did not come up:" >&2
	cat /tmp/metacommd.bench.out >&2
	exit 1
fi

/tmp/loadgen.bench -addr "$ADDR" -conns "$CONNS" -duration "$DURATION" \
	-pipeline "$PIPELINE" -entries "$ENTRIES" -write-pct "$WRITE_PCT" \
	-label "active-${CONNS}conns" -out /tmp/bench_wire_e20.json

kill $SRV 2>/dev/null || true
wait $SRV 2>/dev/null || true

# ---- E24/E30: the mostly-idle tiers.
NOFILE=$(ulimit -n)
MAXTOTAL=$(((NOFILE - 1024) / 2))
RUNS="/tmp/bench_wire_e20.json"
for TIER in $IDLE_TIERS; do
	TOTAL=$TIER
	[ "$TOTAL" -gt "$MAXTOTAL" ] && TOTAL=$MAXTOTAL
	IDLE=$((TOTAL - ACTIVE))
	if [ "$IDLE" -lt 0 ]; then
		echo "bench_wire: skipping tier $TIER (fd limit $NOFILE allows only $MAXTOTAL in-process conns)" >&2
		continue
	fi
	LBL="idle-${TIER}conns"
	echo "==== $LBL: $ACTIVE active + $IDLE idle ===="
	/tmp/loadgen.bench -spawn -conns "$ACTIVE" \
		-idle-conns "$IDLE" -idle-interval "$IDLE_INTERVAL" \
		-duration "$DURATION" -pipeline "$PIPELINE" -entries "$ENTRIES" \
		-write-pct "$WRITE_PCT" -label "$LBL" -out "/tmp/bench_wire_${LBL}.json"
	RUNS="$RUNS /tmp/bench_wire_${LBL}.json"
done

# ---- merged record + side-by-side summary.
# shellcheck disable=SC2086 # RUNS is a deliberate word-split file list
/tmp/loadgen.bench -merge "$OUT" -rev "$REV" -experiment "E20+E30" $RUNS
