#!/bin/sh
# e2e_cluster.sh — the cluster-mode proof, end to end over real
# processes: build the binary, run a single-node reference over the
# whole fixture, then run a 3-node cluster behind `slimfast router`,
# kill -9 one node mid-stream, restore it from its checkpoint
# generation, finish the ingest through the resilient replay client,
# and require the cluster's merged /estimates and /sources bytes to be
# identical to the reference. This is the property that makes cluster
# mode operable: a rolling restart of any member is invisible to
# clients, bit for bit.
set -eu

WORK="$(mktemp -d)"
PIDS=""
cleanup() {
	for p in $PIDS; do kill "$p" 2>/dev/null || true; done
	# Give surviving nodes a beat to write their shutdown checkpoints
	# before the workdir disappears under them.
	for p in $PIDS; do wait "$p" 2>/dev/null || true; done
	rm -rf "$WORK" 2>/dev/null || { sleep 1; rm -rf "$WORK"; }
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$WORK/slimfast" ./cmd/slimfast

echo "== fixture"
# The restart-e2e claim stream: 8 sources of varying reliability over
# 120 objects, source s7 a contrarian, split mid-stream. 960 claims =
# 30 chunks of 32 = 15 epochs of 64, so barriers land on request
# boundaries for both the reference and the cluster.
awk 'BEGIN {
	print "source,object,value" > "'"$WORK"'/all.csv"
	print "source,object,value" > "'"$WORK"'/part1.csv"
	print "source,object,value" > "'"$WORK"'/part2.csv"
	for (o = 0; o < 120; o++) {
		for (s = 0; s < 8; s++) {
			v = "t" o % 7
			if (s == 7 || (o + s) % 11 == 0) v = "w" (o + s) % 5
			printf "s%d,o%03d,%s\n", s, o, v >> "'"$WORK"'/all.csv"
			out = (o < 60) ? "'"$WORK"'/part1.csv" : "'"$WORK"'/part2.csv"
			printf "s%d,o%03d,%s\n", s, o, v >> out
		}
	}
}'

echo "== reference: one 3-shard engine over the whole stream"
"$WORK/slimfast" stream -obs "$WORK/all.csv" -shards 3 -epoch 64 -batch 32 -refine 2 \
	-values "$WORK/ref.estimates.csv" -accuracies "$WORK/ref.sources.csv" > "$WORK/ref.log"

# start_proc LOGFILE VAR_PREFIX cmd... — boots a server on an
# ephemeral port, appends its pid to PIDS, and leaves the bound
# address in ADDR (runs in the parent shell so both survive).
start_proc() {
	log="$1"; shift
	"$@" > "$log" 2>&1 &
	LAST_PID=$!
	PIDS="$PIDS $LAST_PID"
	ADDR=""
	for _ in $(seq 1 100); do
		ADDR="$(sed -n 's/^# listening on //p' "$log" | head -n1)"
		[ -n "$ADDR" ] && break
		sleep 0.1
	done
	if [ -z "$ADDR" ]; then
		echo "process never came up:" >&2
		cat "$log" >&2
		exit 1
	fi
}

start_node() { # index [extra flags...]
	i="$1"; shift
	start_proc "$WORK/node$i.log" "$WORK/slimfast" stream -listen "${NODE_ADDR:-127.0.0.1:0}" \
		-shards 1 -external-epochs -batch 32 -checkpoint "$WORK/node$i.ckpt" "$@"
}

echo "== cluster: three single-shard members"
NODE_PIDS=""
NODE_ADDRS=""
for i in 0 1 2; do
	NODE_ADDR="127.0.0.1:0" start_node "$i"
	NODE_PIDS="$NODE_PIDS $LAST_PID"
	NODE_ADDRS="$NODE_ADDRS $ADDR"
done
set -- $NODE_ADDRS
N0="$1"; N1="$2"; N2="$3"
set -- $NODE_PIDS
P0="$1"; P1="$2"; P2="$3"

echo "== router over $N0 $N1 $N2"
start_proc "$WORK/router.log" "$WORK/slimfast" router -listen 127.0.0.1:0 \
	-nodes "http://$N0,http://$N1,http://$N2" \
	-batch 32 -epoch 64 -checkpoint-epochs 1 -manifest "$WORK/cluster.json"
ROUTER="$ADDR"
ROUTER_PID="$LAST_PID"

curl -fsS "http://$ROUTER/v1/healthz" | grep -q '"status":"ok"' || {
	echo "cluster not healthy at boot" >&2
	exit 1
}

# The unversioned aliases are gone: a bare path is the mux's 404.
BARE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST --data-binary 'source,object,value' "http://$ROUTER/observe")"
[ "$BARE" = 404 ] || {
	echo "bare /observe on the router answered $BARE, want 404" >&2
	exit 1
}

echo "== ingest part 1 through the resilient replay client"
"$WORK/slimfast" replay -obs "$WORK/part1.csv" -to "http://$ROUTER" -batch 32 -seq-prefix p1 > "$WORK/replay1.log"
[ -s "$WORK/cluster.json" ] || { echo "no cluster manifest after part 1" >&2; exit 1; }

echo "== kill -9 partition 1 mid-stream"
kill -9 "$P1" && wait "$P1" 2>/dev/null || true
[ -s "$WORK/node1.ckpt" ] || { echo "partition 1 left no checkpoint" >&2; exit 1; }

echo "== router degrades per partition while the node is down"
READY="$(curl -sS "http://$ROUTER/v1/readyz")"
echo "$READY" | grep -q '"status":"degraded"' || {
	echo "readyz did not degrade: $READY" >&2
	exit 1
}
echo "$READY" | grep -q '"down_partitions":\[1\]' || {
	echo "readyz did not name partition 1: $READY" >&2
	exit 1
}

echo "== restore partition 1 from its checkpoint generation, same address"
NODE_ADDR="$N1" start_node 1 -restore "$WORK/node1.ckpt"
grep -q '^# restored ' "$WORK/node1.log" || {
	echo "partition 1 did not restore:" >&2
	cat "$WORK/node1.log" >&2
	exit 1
}
curl -fsS "http://$ROUTER/v1/readyz" | grep -q '"status":"ready"' || {
	echo "cluster not ready after the restore" >&2
	exit 1
}

echo "== re-replay part 1 under the same keys: claims lost in the crash re-ingest, the rest dedup"
"$WORK/slimfast" replay -obs "$WORK/part1.csv" -to "http://$ROUTER" -batch 32 -seq-prefix p1 > "$WORK/replay1b.log"

echo "== ingest part 2, cluster-wide refine"
"$WORK/slimfast" replay -obs "$WORK/part2.csv" -to "http://$ROUTER" -batch 32 -seq-prefix p2 > "$WORK/replay2.log"
curl -fsS -X POST "http://$ROUTER/v1/refine?sweeps=2" > /dev/null

echo "== compare the cluster to the single-node reference"
curl -fsS "http://$ROUTER/v1/estimates" > "$WORK/cluster.estimates.csv"
curl -fsS "http://$ROUTER/v1/sources" > "$WORK/cluster.sources.csv"
diff "$WORK/ref.estimates.csv" "$WORK/cluster.estimates.csv" || {
	echo "FAIL: cluster /estimates diverged from the single-node reference" >&2
	exit 1
}
diff "$WORK/ref.sources.csv" "$WORK/cluster.sources.csv" || {
	echo "FAIL: cluster /sources diverged from the single-node reference" >&2
	exit 1
}
lines="$(wc -l < "$WORK/cluster.estimates.csv")"
[ "$lines" -gt 100 ] || { echo "FAIL: suspiciously small estimate set ($lines lines)" >&2; exit 1; }

echo "== router metrics: fan-out, deduplicated claims, barriers"
METRICS="$WORK/router.metrics.txt"
curl -fsS "http://$ROUTER/v1/metrics" > "$METRICS"
grep -q '^# TYPE slimfast_router_fanout_requests_total counter$' "$METRICS" || {
	echo "FAIL: router metrics missing the fan-out TYPE header:" >&2
	cat "$METRICS" >&2
	exit 1
}
if grep '^# TYPE ' "$METRICS" | grep -Evq ' (counter|gauge|histogram)$'; then
	echo "FAIL: router metrics have a TYPE header with an unknown kind:" >&2
	grep '^# TYPE ' "$METRICS" >&2
	exit 1
fi
FANOUT="$(awk -F' ' '/^slimfast_router_fanout_requests_total\{/ { sum += $2 } END { print sum + 0 }' "$METRICS")"
[ "$FANOUT" -gt 0 ] || { echo "FAIL: slimfast_router_fanout_requests_total = $FANOUT, want > 0" >&2; exit 1; }
# The stream is 960 claims and the replay of part 1 dedups at the
# router, so the cluster-wide counters are exact, not just nonzero.
CLAIMS="$(awk '$1 == "slimfast_router_claims_total" { print $2 }' "$METRICS")"
[ "$CLAIMS" = "960" ] || { echo "FAIL: slimfast_router_claims_total = '$CLAIMS', want 960" >&2; exit 1; }
BARRIERS="$(awk '$1 == "slimfast_router_barriers_total" { print $2 }' "$METRICS")"
[ "$BARRIERS" = "15" ] || { echo "FAIL: slimfast_router_barriers_total = '$BARRIERS', want 15" >&2; exit 1; }
echo "PASS metrics: $FANOUT fan-out requests, $CLAIMS claims, $BARRIERS barriers"

echo "== request tracing: a router-injected X-Request-ID reaches a member log"
# A tiny tail of claims (4 << 64) keeps the epoch counter short of the
# next barrier, so the 15-barrier manifest assert below still holds.
printf 'source,object,value\ns0,o000,t0\ns1,o001,t1\ns2,o002,t2\ns3,o003,t3\n' > "$WORK/trace.csv"
curl -fsS -X POST -H 'Content-Type: text/csv' -H 'X-Request-ID: e2e-trace-0001' \
	--data-binary @"$WORK/trace.csv" "http://$ROUTER/v1/observe" > /dev/null
grep -q 'e2e-trace-0001' "$WORK/router.log" || {
	echo "FAIL: injected request ID absent from the router log:" >&2
	cat "$WORK/router.log" >&2
	exit 1
}
grep -q 'e2e-trace-0001' "$WORK"/node[0-2].log || {
	echo "FAIL: injected request ID did not propagate to any member log:" >&2
	tail -n 20 "$WORK"/node[0-2].log >&2
	exit 1
}
echo "PASS tracing: e2e-trace-0001 propagated router -> member"

echo "== query surface: slimfast query against the live router"
"$WORK/slimfast" query -to "http://$ROUTER" 'order=-contested,object&limit=5' > "$WORK/query.top.csv"
qlines="$(wc -l < "$WORK/query.top.csv")"
[ "$qlines" = "6" ] || { echo "FAIL: top-5 query returned $qlines lines, want 6" >&2; cat "$WORK/query.top.csv" >&2; exit 1; }
head -n1 "$WORK/query.top.csv" | grep -q '^object,value,confidence$' || {
	echo "FAIL: query header wrong:" >&2
	cat "$WORK/query.top.csv" >&2
	exit 1
}
"$WORK/slimfast" query -to "http://$ROUTER" -format json 'group=value&agg=count' > "$WORK/query.group.ndjson"
head -n1 "$WORK/query.group.ndjson" | grep -q '"value":' || {
	echo "FAIL: NDJSON group query malformed:" >&2
	cat "$WORK/query.group.ndjson" >&2
	exit 1
}

echo "== members refuse a direct refine (the router owns the epochs)"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$N0/v1/refine")"
[ "$code" = "409" ] || { echo "FAIL: member answered refine with $code, want 409" >&2; exit 1; }

echo "== SIGTERM: router persists the manifest on shutdown"
kill -TERM "$ROUTER_PID"
for _ in $(seq 1 100); do
	grep -q '^# shutdown: ' "$WORK/router.log" && break
	sleep 0.1
done
wait "$ROUTER_PID" 2>/dev/null || true
grep -q '^# shutdown: ' "$WORK/router.log" || {
	echo "router did not report a clean shutdown:" >&2
	cat "$WORK/router.log" >&2
	exit 1
}
grep -q '"barriers": 15' "$WORK/cluster.json" || {
	echo "manifest does not carry the expected 15 barriers:" >&2
	cat "$WORK/cluster.json" >&2
	exit 1
}

echo "PASS: node hard-kill + restore is byte-invisible behind the router ($lines estimate lines identical)"
