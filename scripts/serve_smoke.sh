#!/usr/bin/env bash
# Black-box smoke test of `ctxsearch serve`: builds the real binary and,
# with it, one state file (`build -state`) that every later process opens —
# as every deployment does. An in-process-built server (no -state) answers
# the reference pages first. Then a server boots from the state file on an
# ephemeral port, /readyz flips, the API and its limit validation are
# exercised with curl, and SIGTERM must produce a clean (graceful) exit. A
# second phase boots a 3-shard multi-process cluster (three `ctxsearch
# shard` processes plus a stateless coordinator) and drives one search
# through the coordinator. A third (chaos) phase boots a
# 2-range x 2-replica cluster, kills one replica per range mid-traffic,
# requires every search to stay byte-identical to the pre-kill baseline,
# then restarts a replica on its recorded port and requires readiness to
# recover. Every state-booted process must report a zero-copy mapping and
# every page must equal the in-process-built server's bytes. Run via
# `make serve-smoke`.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
bin="$workdir/ctxsearch"
logfile="$workdir/serve.log"
pid=""
extra_pids=()

# cleanup kills every process this script started — on normal exit, on
# failure, and on INT/TERM (an interrupted CI job must not leave orphan
# shard processes holding ports).
cleanup() {
    local p
    for p in "${extra_pids[@]:-}"; do
        [[ -n "$p" ]] && kill -KILL "$p" 2>/dev/null || true
    done
    if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# fail dumps the tail of every process log before exiting — on a phase
# failure the relevant evidence is at the end of whichever log has it.
fail() {
    echo "serve-smoke: FAIL: $*" >&2
    local f
    for f in "$workdir"/*.log; do
        [[ -e "$f" ]] || continue
        echo "--- $(basename "$f") (last 40 lines) ---" >&2
        tail -n 40 "$f" >&2 || true
    done
    exit 1
}

# wait_addr LOGFILE PID: echoes the host:port from the "listening on" line.
wait_addr() {
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' "$1" | head -n1)"
        [[ -n "$addr" ]] && break
        kill -0 "$2" 2>/dev/null || return 1
        sleep 0.1
    done
    [[ -n "$addr" ]] || return 1
    echo "$addr"
}

# wait_ready BASEURL: polls /readyz until 200 (up to 30s).
wait_ready() {
    local code=""
    for _ in $(seq 1 300); do
        code="$(curl -s -o /dev/null -w '%{http_code}' "$1/readyz")"
        [[ "$code" == "200" ]] && return 0
        sleep 0.1
    done
    return 1
}

# stop_gracefully PID NAME: SIGTERM, then a clean exit within 10s.
stop_gracefully() {
    kill -TERM "$1" 2>/dev/null || true
    for _ in $(seq 1 100); do
        kill -0 "$1" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$1" 2>/dev/null; then
        fail "$2 still running 10s after SIGTERM"
    fi
    wait "$1" || fail "$2 exited non-zero after SIGTERM"
}

# assert_mapped LOGFILE NAME: a ready process that booted from the state
# file logs one cold-start line, and it must report the zero-copy mapping.
assert_mapped() {
    for _ in $(seq 1 20); do
        grep -q 'cold start' "$1" && break
        sleep 0.1
    done
    grep -q 'cold start .*(zero-copy mmap: true)' "$1" ||
        fail "$2 did not boot from a zero-copy mapping of the state file"
}

echo "serve-smoke: building binary"
go build -o "$bin" ./cmd/ctxsearch

corpus=(-papers 300 -terms 60)
state="$workdir/state.bin"
echo "serve-smoke: building the state file"
# The form every rebuild refusal names, flags after the command; the
# processes below pass theirs before it, as bench/ does.
"$bin" "${corpus[@]}" build -state "$state" >"$workdir/build.log" 2>&1 || fail "build -state failed"
[[ -s "$state" ]] || fail "build -state wrote no state file"

# The reference: a server that builds everything in-process. Every page a
# state-booted process serves below must equal its bytes.
echo "serve-smoke: reference pages from an in-process-built server"
"$bin" "${corpus[@]}" -addr 127.0.0.1:0 serve >"$workdir/reference.log" 2>&1 &
pid=$!
addr="$(wait_addr "$workdir/reference.log" "$pid")" || fail "reference server never listened"
wait_ready "http://$addr" || fail "reference /readyz never flipped to 200"
ref5="$(curl -s "http://$addr/search?q=transcription&limit=5")"
ref10="$(curl -s "http://$addr/search?q=transcription&limit=10")"
grep -q '"paper_id"' <<<"$ref5" || fail "reference page has no result rows: $ref5"
grep -q 'zero-copy mmap: false' "$workdir/reference.log" || fail "the in-process-built server claims a mapping"
stop_gracefully "$pid" "reference server"
pid=""

echo "serve-smoke: booting server from the state file on an ephemeral port"
"$bin" "${corpus[@]}" -state "$state" -addr 127.0.0.1:0 serve >"$logfile" 2>&1 &
pid=$!

# The listen line appears as soon as the port binds (before the engine is
# built); readiness flips later via /readyz.
addr="$(wait_addr "$logfile" "$pid")" || fail "never saw the listening line"
base="http://$addr"
echo "serve-smoke: listening on $addr"

# Liveness must answer even before readiness.
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz")"
[[ "$code" == "200" ]] || fail "/healthz = $code, want 200"

wait_ready "$base" || fail "/readyz never flipped to 200"
assert_mapped "$logfile" "server"
echo "serve-smoke: ready"

body="$(curl -s -w '\n%{http_code}' "$base/search?q=transcription&limit=5")"
[[ "${body##*$'\n'}" == "200" ]] || fail "/search = ${body##*$'\n'}, want 200"
[[ "${body%$'\n'*}" == "$ref5" ]] || fail "state-booted page differs from the in-process-built server's: $body"

# Validation: an over-cap limit is a client error, not a 500.
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/search?q=transcription&limit=1001")"
[[ "$code" == "400" ]] || fail "over-cap limit = $code, want 400"

# Nothing this process did — boot or search — analysed a paper.
stats="$(curl -s -w '\n%{http_code}' "$base/stats")"
[[ "${stats##*$'\n'}" == "200" ]] || fail "/stats = ${stats##*$'\n'}, want 200"
grep -q '"analyzed_papers":0[,}]' <<<"$stats" || fail "the state-booted server analysed papers: $stats"

echo "serve-smoke: SIGTERM"
stop_gracefully "$pid" "server"
pid=""

echo "serve-smoke: phase 2 — 3-shard multi-process cluster"

# Boot three shard processes. Each generates the same deterministic corpus
# (same -papers/-terms seed), maps the one state file and serves its own
# third of the paper IDs.
shard_urls=()
for i in 0 1 2; do
    shardlog="$workdir/shard$i.log"
    "$bin" "${corpus[@]}" -state "$state" -addr 127.0.0.1:0 \
        -shard-index "$i" -shard-count 3 shard >"$shardlog" 2>&1 &
    extra_pids+=($!)
done
for i in 0 1 2; do
    saddr="$(wait_addr "$workdir/shard$i.log" "${extra_pids[$i]}")" \
        || fail "shard $i never listened"
    shard_urls+=("http://$saddr")
    echo "serve-smoke: shard $i listening on $saddr"
done

# The coordinator is stateless: no corpus flags, just the shard URLs.
coordlog="$workdir/coord.log"
"$bin" -addr 127.0.0.1:0 \
    -shard-urls "$(IFS=,; echo "${shard_urls[*]}")" serve >"$coordlog" 2>&1 &
extra_pids+=($!)
caddr="$(wait_addr "$coordlog" "${extra_pids[3]}")" || fail "coordinator never listened"
cbase="http://$caddr"
echo "serve-smoke: coordinator listening on $caddr"

# Readiness: every shard, then the coordinator (which fans /readyz out and
# answers 200 only once all shards are ready).
for i in 0 1 2; do
    wait_ready "${shard_urls[$i]}" || fail "shard $i /readyz never flipped to 200"
    assert_mapped "$workdir/shard$i.log" "shard $i"
done
wait_ready "$cbase" || fail "coordinator /readyz never flipped to 200"
echo "serve-smoke: cluster ready"

# One search through the coordinator must return the page merged from the
# shard pages: the in-process-built server's bytes.
body="$(curl -s -w '\n%{http_code}' "$cbase/search?q=transcription&limit=5")"
code="${body##*$'\n'}"
[[ "$code" == "200" ]] || fail "coordinator /search = $code, want 200"
[[ "${body%$'\n'*}" == "$ref5" ]] || fail "cluster page differs from the in-process-built server's: $body"

# Stats through the coordinator must include the sharding counters, and the
# cluster must have rendered exactly the rows it served (5, in one finishing
# call) in one exchange per range: three /shard/search, nothing else.
stats="$(curl -s "$cbase/stats")"
grep -q '"sharding"' <<<"$stats" || fail "coordinator /stats has no sharding block"
rendered="$(grep -o '"rows_rendered":[0-9]*' <<<"$stats" | cut -d: -f2)"
served="$(grep -o '"rows_served":[0-9]*' <<<"$stats" | cut -d: -f2)"
[[ -n "$served" && "$rendered" == "$served" ]] ||
    fail "cluster rendered ${rendered:-0} rows to serve ${served:-0}: $stats"
grep -q '"render_calls":1[,}]' <<<"$stats" || fail "one page, yet not one finishing call: $stats"
exchanges="$(grep -o '"shards":\[[^]]*\]' <<<"$stats" | grep -o '"requests":[0-9]*' | awk -F: '{n += $2} END {print n + 0}')"
[[ "$exchanges" == "3" ]] || fail "one page on three ranges cost $exchanges range requests, want 3: $stats"
grep -q '/shard/render' "$workdir"/shard?.log && fail "a shard was sent /shard/render"
[[ "$(cat "$workdir"/shard?.log | grep -c 'POST /shard/search 200')" == "3" ]] ||
    fail "the shard logs do not hold exactly three answered POST /shard/search"

# Graceful drain: coordinator first, then the shards.
echo "serve-smoke: SIGTERM cluster"
for p in "${extra_pids[@]}"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "${extra_pids[@]}"; do
    stop_gracefully "$p" "cluster process $p"
done
extra_pids=()

echo "serve-smoke: phase 3 — chaos: 2 ranges x 2 replicas, replica kill mid-traffic"

# Boot two replicas per shard range (indices 0,0,1,1). Replicas of a range
# map the same state file, so any replica serves exactly the same bytes for
# a given shard request.
rep_pids=()
rep_urls=()
n=0
for idx in 0 0 1 1; do
    replog="$workdir/replica$n.log"
    "$bin" "${corpus[@]}" -state "$state" -addr 127.0.0.1:0 \
        -shard-index "$idx" -shard-count 2 shard >"$replog" 2>&1 &
    rep_pids+=($!)
    extra_pids+=($!)
    n=$((n+1))
done
for n in 0 1 2 3; do
    raddr="$(wait_addr "$workdir/replica$n.log" "${rep_pids[$n]}")" \
        || fail "replica $n never listened"
    rep_urls+=("http://$raddr")
    echo "serve-smoke: replica $n listening on $raddr"
done
for n in 0 1 2 3; do
    wait_ready "${rep_urls[$n]}" || fail "replica $n /readyz never flipped to 200"
    assert_mapped "$workdir/replica$n.log" "replica $n"
done

# Coordinator with the replica syntax ("|" between replicas of a range),
# caching off so every search exercises the fan-out, and fast
# probe/breaker settings so recovery is visible within the test window.
chaoslog="$workdir/chaoscoord.log"
"$bin" -addr 127.0.0.1:0 -cache-entries 0 \
    -max-retries 3 -probe-interval 100ms -breaker-cooldown 300ms \
    -shard-urls "${rep_urls[0]}|${rep_urls[1]},${rep_urls[2]}|${rep_urls[3]}" \
    serve >"$chaoslog" 2>&1 &
coord_pid=$!
extra_pids+=("$coord_pid")
caddr="$(wait_addr "$chaoslog" "$coord_pid")" || fail "chaos coordinator never listened"
cbase="http://$caddr"
wait_ready "$cbase" || fail "chaos coordinator /readyz never flipped to 200"
echo "serve-smoke: chaos cluster ready on $caddr"

# Baseline page with every replica healthy: the in-process-built server's.
baseline="$(curl -s "$cbase/search?q=transcription&limit=10")"
[[ "$baseline" == "$ref10" ]] || fail "chaos baseline differs from the in-process-built server's page: $baseline"

# Crash (SIGKILL, not graceful) one replica of each range mid-traffic.
echo "serve-smoke: killing replica 0 of each range"
for n in 0 2; do
    kill -KILL "${rep_pids[$n]}" 2>/dev/null || true
    wait "${rep_pids[$n]}" 2>/dev/null || true
done

# Every search after the crash must stay byte-identical to the baseline:
# failover and retries may change which replica answers, never the page.
for i in $(seq 1 8); do
    body="$(curl -s "$cbase/search?q=transcription&limit=10")"
    [[ "$body" == "$baseline" ]] \
        || fail "search $i after replica kill diverged from baseline: $body"
done
echo "serve-smoke: searches byte-identical with one replica down per range"

# Each range still has a live replica, so the cluster must report ready.
wait_ready "$cbase" || fail "coordinator not ready with one live replica per range"

# The per-replica table must be visible in /stats.
curl -s "$cbase/stats" | grep -q '"replicas"' || fail "chaos /stats has no replicas table"

# Restart the killed replica of range 0 on its recorded port and require
# readiness — and identical pages — to survive the rejoin.
raddr="${rep_urls[0]#http://}"
echo "serve-smoke: restarting replica 0 on $raddr"
"$bin" "${corpus[@]}" -state "$state" -addr "$raddr" \
    -shard-index 0 -shard-count 2 shard >"$workdir/replica0b.log" 2>&1 &
rep_pids[0]=$!
extra_pids+=($!)
wait_ready "${rep_urls[0]}" || fail "restarted replica never became ready"
assert_mapped "$workdir/replica0b.log" "restarted replica"
wait_ready "$cbase" || fail "coordinator not ready after replica rejoin"
body="$(curl -s "$cbase/search?q=transcription&limit=10")"
[[ "$body" == "$baseline" ]] || fail "search after replica rejoin diverged from baseline"
echo "serve-smoke: replica rejoined, pages still byte-identical"

# Drain the survivors (replica 2 of the flat list stays dead by design).
echo "serve-smoke: SIGTERM chaos cluster"
live_pids=("$coord_pid" "${rep_pids[0]}" "${rep_pids[1]}" "${rep_pids[3]}")
for p in "${live_pids[@]}"; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in "${live_pids[@]}"; do
    stop_gracefully "$p" "chaos process $p"
done
extra_pids=()

echo "serve-smoke: PASS"
