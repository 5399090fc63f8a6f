#!/bin/sh
# server_smoke.sh — end-to-end smoke of cmd/sppserve, run by the CI
# `server-smoke` job and `make server-smoke`:
#
#   1. build and start the server on a free port;
#   2. GET /healthz;
#   3. POST the same benchmark twice — the repeat must be served from
#      the canonical-function cache and be >=10x faster than the cold
#      run (the PR's acceptance bar; locally it is ~100-1000x);
#   4. POST a batch with an intra-batch duplicate — the duplicate must
#      hit the cache;
#   5. GET /statsz and check the cache-hit counters and run reports;
#   6. SIGTERM the server and check the graceful drain + final
#      spp-stats-run/v1 flush;
#   7. start a second server with -warm-cache and run a delta round
#      trip: a seed request returns a base_key, a delta on it resumes
#      warm, the same delta again is a cache hit, a delta on the
#      returned key resumes warm, a bad permutation answers 400 and an
#      unknown 64-hex key answers 409 cold_run_required.
#
# Stdlib tools only: the JSON assertions use grep/sed on Go's
# field-ordered encoding.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
	[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

fail() {
	echo "server-smoke: FAIL: $*" >&2
	echo "--- server log:" >&2
	cat "$workdir/server.err" >&2 || true
	exit 1
}

# Extract the (first) value of a scalar JSON field from stdin.
jsonfield() {
	grep -o "\"$1\": *[^,}]*" | head -n1 | sed 's/^[^:]*: *//; s/"//g'
}

echo "server-smoke: building"
go build -o "$workdir/sppserve" ./cmd/sppserve

"$workdir/sppserve" -addr 127.0.0.1:0 -batch-workers 4 -stats "$workdir/final.json" \
	>"$workdir/server.out" 2>"$workdir/server.err" &
server_pid=$!

# Wait for the listen line (the server prints its resolved port).
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/^sppserve: listening on //p' "$workdir/server.out")
	[ -n "$addr" ] && break
	kill -0 "$server_pid" 2>/dev/null || fail "server exited at startup"
	sleep 0.1
done
[ -n "$addr" ] || fail "server never reported its address"
echo "server-smoke: up at $addr"

curl -fsS "http://$addr/healthz" | grep -q '"status": *"ok"' || fail "healthz"

echo "server-smoke: cold request"
curl -fsS -d '{"bench":"adr4","output":0}' "http://$addr/v1/minimize" \
	>"$workdir/cold.json" || fail "cold minimize request"
grep -q '"cached": *false' "$workdir/cold.json" || fail "cold run claims cached"
cold_ns=$(jsonfield elapsed_ns <"$workdir/cold.json")
cold_lit=$(jsonfield literals <"$workdir/cold.json")
[ "$cold_lit" -gt 0 ] || fail "cold run returned no literals"

echo "server-smoke: warm request (cold was ${cold_ns}ns)"
curl -fsS -d '{"bench":"adr4","output":0}' "http://$addr/v1/minimize" \
	>"$workdir/warm.json" || fail "warm minimize request"
grep -q '"cached": *true' "$workdir/warm.json" || fail "repeat request missed the cache"
warm_ns=$(jsonfield elapsed_ns <"$workdir/warm.json")
warm_lit=$(jsonfield literals <"$workdir/warm.json")
[ "$warm_lit" = "$cold_lit" ] || fail "cached literals $warm_lit != cold $cold_lit"
[ "$((warm_ns * 10))" -le "$cold_ns" ] ||
	fail "cache hit not >=10x faster: cold ${cold_ns}ns vs warm ${warm_ns}ns"
echo "server-smoke: cache hit ${warm_ns}ns ($((cold_ns / warm_ns))x faster)"

echo "server-smoke: batch with intra-batch duplicate"
curl -fsS -d '{"requests":[{"bench":"life"},{"bench":"life"}]}' \
	"http://$addr/v1/minimize" >"$workdir/batch.json" || fail "batch request"
grep -q '"cached": *false' "$workdir/batch.json" || fail "batch: no cold item"
# Concurrent batch items: the duplicate is either coalesced onto the
# cold item's in-flight compute or served from the cache after it;
# both report cached.
grep -q '"cached": *true' "$workdir/batch.json" || fail "batch: duplicate recomputed"

echo "server-smoke: statsz"
curl -fsS "http://$addr/statsz" >"$workdir/statsz.json" || fail "statsz request"
hits=$(jsonfield cache_hits <"$workdir/statsz.json")
waiters=$(jsonfield coalesce_waiters <"$workdir/statsz.json")
misses=$(jsonfield cache_misses <"$workdir/statsz.json")
served=$(jsonfield served <"$workdir/statsz.json")
[ "$((hits + waiters))" -ge 2 ] || fail "statsz hits+waiters = $hits+$waiters, want >= 2"
[ "$((hits + waiters + misses))" = "$served" ] ||
	fail "statsz incoherent: served $served != hits $hits + misses $misses + waiters $waiters"
shards=$(jsonfield cache_shards <"$workdir/statsz.json")
[ "$shards" -ge 1 ] || fail "statsz cache_shards = $shards, want >= 1"
grep -q '"coalesce_detached"' "$workdir/statsz.json" || fail "statsz missing coalesce_detached"
grep -q '"schema": *"spp-stats-run/v1"' "$workdir/statsz.json" || fail "statsz run schema"
grep -q '"schema": *"spp-stats/v1"' "$workdir/statsz.json" || fail "statsz run reports"

echo "server-smoke: graceful shutdown"
kill -TERM "$server_pid"
for _ in $(seq 1 100); do
	kill -0 "$server_pid" 2>/dev/null || break
	sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
	fail "server still running 10s after SIGTERM"
fi
wait "$server_pid" 2>/dev/null || true
server_pid=""
grep -q '"spp-stats-run/v1"' "$workdir/final.json" || fail "final stats flush missing"

echo "server-smoke: delta round trip on a -warm-cache server"
"$workdir/sppserve" -addr 127.0.0.1:0 -warm-cache \
	>"$workdir/server.out" 2>"$workdir/server.err" &
server_pid=$!
addr=""
for _ in $(seq 1 50); do
	addr=$(sed -n 's/^sppserve: listening on //p' "$workdir/server.out")
	[ -n "$addr" ] && break
	kill -0 "$server_pid" 2>/dev/null || fail "warm server exited at startup"
	sleep 0.1
done
[ -n "$addr" ] || fail "warm server never reported its address"

# post BODY FILE: POST BODY to /v1/minimize, save the response in FILE
# and print the HTTP status.
post() {
	curl -sS -o "$2" -w '%{http_code}' -d "$1" "http://$addr/v1/minimize"
}
# Five-variable odd parity: a one-point edit is 1/16 of its care set,
# well under the -delta-max-dirty default, so deltas resume warm.
[ "$(post '{"n":5,"on":[1,2,4,7,8,11,13,14,16,19,21,22,25,26,28,31]}' "$workdir/seed.json")" = 200 ] ||
	fail "warm seed request"
base=$(jsonfield base_key <"$workdir/seed.json")
[ -n "$base" ] || fail "warm seed returned no base_key"
delta="{\"base\":\"$base\",\"add\":[0],\"remove\":[1]}"
[ "$(post "$delta" "$workdir/delta.json")" = 200 ] || fail "delta request"
grep -q '"delta": *"warm"' "$workdir/delta.json" || fail "delta did not resume warm"
[ "$(post "$delta" "$workdir/delta2.json")" = 200 ] || fail "repeated delta request"
grep -q '"cached": *true' "$workdir/delta2.json" || fail "repeated delta missed the cache"
next=$(jsonfield base_key <"$workdir/delta.json")
[ -n "$next" ] && [ "$next" != "$base" ] || fail "delta returned no base_key of its own"
[ "$(post "{\"base\":\"$next\",\"remove\":[0]}" "$workdir/chain.json")" = 200 ] ||
	fail "chained delta request"
grep -q '"delta": *"warm"' "$workdir/chain.json" || fail "chained delta did not resume warm"
[ "$(post "{\"base\":\"${base%%.*}.0000000000\",\"add\":[0]}" "$workdir/badperm.json")" = 400 ] ||
	fail "bad permutation not answered 400"
unknown=0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef
[ "$(post "{\"base\":\"$unknown\",\"add\":[0]}" "$workdir/unknown.json")" = 409 ] ||
	fail "unknown base key not answered 409"
grep -q '"code": *"cold_run_required"' "$workdir/unknown.json" || fail "409 without cold_run_required"
kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "server-smoke: PASS"
