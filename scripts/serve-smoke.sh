#!/bin/sh
# End-to-end smoke test of the detection service: build the CLI and the
# load generator, start two shard-serve processes plus a serve front
# end over them, then prove the operator-facing contract:
#
#   1. 64 concurrent clients get byte-identical verdicts (the wire
#      format loses nothing, concurrency corrupts nothing);
#   2. a batch and an NDJSON stream of (good, unresolvable, good)
#      answer three verdicts in input order, the middle one a resolve
#      error, the good ones byte-equal to the unary verdicts;
#   3. POST /reload hot-swaps the repository with zero failed requests
#      and bumps its version;
#   4. the verdict result cache warms back up after the reload
#      (vcache_hits grows once the same target repeats);
#   5. SIGTERM drains: the serve process exits cleanly.
set -eu

GO=${GO:-go}
SPEC=${SPEC:-attack:FR-IAIK}
CLIENTS=${CLIENTS:-64}
PORT_A=${PORT_A:-19421}
PORT_B=${PORT_B:-19422}
PORT_S=${PORT_S:-19423}

tmp=$(mktemp -d)
trap 'kill $pid_a $pid_b $pid_s 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

$GO build -o "$tmp/scaguard" ./cmd/scaguard
$GO build -o "$tmp/loadgen" ./cmd/scaguard-loadgen

"$tmp/scaguard" shard-serve -shards 2 -shard-index 0 -addr 127.0.0.1:$PORT_A &
pid_a=$!
"$tmp/scaguard" shard-serve -shards 2 -shard-index 1 -addr 127.0.0.1:$PORT_B &
pid_b=$!

# serve handshakes with every shard at startup, so both must be up
# before it launches.
for port in $PORT_A $PORT_B; do
    up=0
    for i in $(seq 1 50); do
        if "$tmp/loadgen" -addr 127.0.0.1:$port -get /healthz >/dev/null 2>&1; then
            up=1
            break
        fi
        sleep 0.2
    done
    if [ "$up" != 1 ]; then
        echo "serve-smoke: shard on port $port never came up" >&2
        exit 1
    fi
done

# The serve front end fans every scan out across the two shards and
# memoizes verdicts (the cache-warm assertion below needs it).
"$tmp/scaguard" serve -addr 127.0.0.1:$PORT_S \
    -shard-addrs 127.0.0.1:$PORT_A,127.0.0.1:$PORT_B \
    -result-cache 64 -max-inflight 128 2>"$tmp/serve.err" &
pid_s=$!

ready=0
for i in $(seq 1 50); do
    if "$tmp/loadgen" -addr 127.0.0.1:$PORT_S -get /healthz >"$tmp/healthz" 2>/dev/null; then
        ready=1
        break
    fi
    sleep 0.2
done
if [ "$ready" != 1 ]; then
    echo "serve-smoke: service never became healthy" >&2
    cat "$tmp/serve.err" >&2
    exit 1
fi

# 1. Concurrent bit-identity: every one of the 64 clients' verdicts
# must match byte for byte.
"$tmp/loadgen" -addr 127.0.0.1:$PORT_S -spec "$SPEC" \
    -clients "$CLIENTS" -requests 2 -check | tee "$tmp/load1.out"

# 2. Batch and NDJSON endpoints: three targets, the middle one
# unresolvable. Both must keep input order and answer the good targets
# exactly as the unary endpoint does.
GOOD2=attack:PP-IAIK
post() {
    "$tmp/loadgen" -addr 127.0.0.1:$PORT_S -post "$1" -body "$2"
}
unary() {
    post /v1/classify "{\"target\":{\"spec\":\"$1\"}}" | sed -n 's/^{"verdict":\(.*\)}$/\1/p'
}
u1=$(unary "$SPEC")
u3=$(unary "$GOOD2")
if [ -z "$u1" ] || [ -z "$u3" ]; then
    echo "serve-smoke: unary verdicts missing ($u1 / $u3)" >&2
    exit 1
fi
post /v1/classify/stream "$(printf '{"spec":"%s"}\n{"spec":"attack:NOPE"}\n{"spec":"%s"}\n' "$SPEC" "$GOOD2")" >"$tmp/ndjson.out"
if [ "$(wc -l <"$tmp/ndjson.out")" -ne 3 ]; then
    echo "serve-smoke: NDJSON stream answered $(wc -l <"$tmp/ndjson.out") lines, want 3" >&2
    cat "$tmp/ndjson.out" >&2
    exit 1
fi
n1=$(sed -n 1p "$tmp/ndjson.out")
n2=$(sed -n 2p "$tmp/ndjson.out")
n3=$(sed -n 3p "$tmp/ndjson.out")
case "$n2" in
*'"id":"attack:NOPE","error":"resolve: '*) ;;
*)
    echo "serve-smoke: NDJSON line 2 is not a resolve error: $n2" >&2
    exit 1
    ;;
esac
if [ "$n1" != "$u1" ] || [ "$n3" != "$u3" ]; then
    echo "serve-smoke: NDJSON verdicts differ from unary" >&2
    printf '%s\n%s\n%s\n%s\n' "$n1" "$u1" "$n3" "$u3" >&2
    exit 1
fi
batch=$(post /v1/classify "{\"targets\":[{\"spec\":\"$SPEC\"},{\"spec\":\"attack:NOPE\"},{\"spec\":\"$GOOD2\"}]}")
if [ "$batch" != "{\"verdicts\":[$u1,$n2,$u3]}" ]; then
    echo "serve-smoke: batch verdicts differ from unary/NDJSON" >&2
    printf '%s\n' "$batch" >&2
    exit 1
fi

# grep -c is the portable counter extractor for the JSON snapshot.
hits() {
    "$tmp/loadgen" -addr 127.0.0.1:$PORT_S -get /metrics \
        | tr ',{' '\n\n' | sed -n 's/.*"vcache_hits": *\([0-9]*\).*/\1/p' | head -n 1
}
hits_before=$(hits)
[ -n "$hits_before" ] || { echo "serve-smoke: /metrics has no vcache_hits" >&2; exit 1; }

# 3. Hot reload: the swap must succeed and report the repository.
"$tmp/loadgen" -addr 127.0.0.1:$PORT_S -post /reload >"$tmp/reload.out"
grep -q '"version"' "$tmp/reload.out" || {
    echo "serve-smoke: reload reply malformed: $(cat "$tmp/reload.out")" >&2
    exit 1
}

# 4. Cache warms back up: after the version bump the first repeat scan
# misses, the second hits, so vcache_hits must grow.
"$tmp/loadgen" -addr 127.0.0.1:$PORT_S -spec "$SPEC" -clients 1 -requests 3 -check >"$tmp/load2.out"
hits_after=$(hits)
if [ "$hits_after" -le "$hits_before" ] 2>/dev/null; then
    echo "serve-smoke: vcache never warmed after reload (hits $hits_before -> $hits_after)" >&2
    exit 1
fi

# The verdicts before and after the reload must agree (same corpus).
v1=$(sed -n 's/^verdict: //p' "$tmp/load1.out")
v2=$(sed -n 's/^verdict: //p' "$tmp/load2.out")
if [ "$v1" != "$v2" ]; then
    echo "serve-smoke: verdict changed across reload" >&2
    printf '%s\n%s\n' "$v1" "$v2" >&2
    exit 1
fi

# 5. Graceful drain on SIGTERM.
kill -TERM $pid_s
drained=1
wait $pid_s || drained=0
pid_s=""
if [ "$drained" != 1 ] || ! grep -q drained "$tmp/serve.err"; then
    echo "serve-smoke: serve did not drain cleanly on SIGTERM" >&2
    cat "$tmp/serve.err" >&2
    exit 1
fi

echo "serve-smoke: OK ($CLIENTS clients bit-identical; batch + NDJSON ordered and equal to unary; reload + cache warm (hits $hits_before -> $hits_after); clean drain)"
