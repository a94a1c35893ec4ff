#!/usr/bin/env bash
# Smoke test for the lidtool serve daemon, exercised end-to-end through
# the shipped binary: start a daemon on an ephemeral port, fire 100
# mixed requests at it from `lidtool client` (lint / screen / profile /
# campaign, including a design with a deliberate worst-case deadlock),
# check that the daemon's screen of examples/designs/half_ring.lid trips
# at the cycle `lidtool simulate --worst-case` reports and that a live
# design stays live under a 2^20 budget, that a 2,000-shell half-station
# chain screens and simulates within 30 s each (in lidtool and in the
# daemon), then assert via `status` that the cache actually served hits, that
# the deadlock was answered as a verdict (not a hang), that 2,000
# sequential connect-per-request `status` calls leave the daemon's
# VmSize under 1 GiB (finished connection threads are joined, not
# kept), and that a `shutdown` request drains cleanly with exit 0.
#
# Usage: scripts/serve_smoke.sh [path/to/lidtool]
# (default: build/examples/lidtool relative to the repo root)

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
lidtool="${1:-$repo_root/build/examples/lidtool}"

if [ ! -x "$lidtool" ]; then
  echo "serve_smoke: lidtool not found at $lidtool" >&2
  exit 2
fi

work="$(mktemp -d)"
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill "$server_pid" 2>/dev/null
    wait "$server_pid" 2>/dev/null
  fi
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  echo "--- daemon log ---" >&2
  cat "$work/serve.log" >&2 || true
  exit 1
}

# ---- fixtures -----------------------------------------------------------

# The paper's Fig. 1: live under both reset and worst-case occupancy.
cat > "$work/fig1.lid" <<'EOF'
source src
process A 1 2
process B 1 1
process C 2 1
sink out
channel src.0 -> A.0
channel A.0 -> B.0 : F
channel B.0 -> C.0 : F
channel A.1 -> C.1 : F
channel C.0 -> out.0
EOF

# The latent stop latch: a two-shell ring of half relay stations is
# live from reset but deadlocks under worst-case occupancy.  The daemon
# must answer this with a DEADLOCK verdict, not a wedged worker.
cat > "$work/deadlock.lid" <<'EOF'
process P 1 1
process Q 1 1
channel P.0 -> Q.0 : H
channel Q.0 -> P.0 : H
EOF

# ---- start the daemon ---------------------------------------------------

"$lidtool" serve --port 0 --cache-mb 8 --ttl 600 > "$work/serve.log" 2>&1 &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*serving on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$work/serve.log" | head -n1)"
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "daemon exited before binding"
  sleep 0.1
done
[ -n "$port" ] && [ "$port" != "0" ] || fail "could not learn the bound port"
echo "serve_smoke: daemon up on port $port (pid $server_pid)"

client() { "$lidtool" client "$@" --port "$port"; }

# ---- 100 mixed requests -------------------------------------------------

# 24 rounds x 4 request kinds = 96, plus 2 campaigns, plus the 2
# early-exit screens, the chain screen and the final status + shutdown
# below = 103 frames total.  After round one, every lint/screen/profile answer must be a
# cache hit.
requests=0
deadlock_answers=0
for _ in $(seq 1 24); do
  client lint "$work/fig1.lid" > /dev/null \
    || fail "lint of a clean design did not exit 0"
  client screen "$work/fig1.lid" > /dev/null \
    || fail "screen of a live design did not exit 0"
  client profile "$work/fig1.lid" --cycles 2000 > /dev/null \
    || fail "profile of a live design did not exit 0"
  client screen "$work/deadlock.lid" > "$work/deadlock.json"
  rc=$?
  [ "$rc" -eq 1 ] || fail "screen of the deadlock design exited $rc, want 1"
  grep -q '"verdict": "deadlock"' "$work/deadlock.json" \
    || fail "deadlock design was not answered with a deadlock verdict"
  deadlock_answers=$((deadlock_answers + 1))
  requests=$((requests + 4))
done
client campaign fuzz 10 --seed 7 > /dev/null || fail "campaign fuzz failed"
client campaign fuzz 10 --seed 7 > /dev/null || fail "repeat campaign failed"
requests=$((requests + 2))

# ---- early exit changes no answer ---------------------------------------

# The guard stops at transient extinction; a deadlock must still trip at
# the cycle a full-budget `lidtool simulate --worst-case` reports.
half_ring="$repo_root/examples/designs/half_ring.lid"
"$lidtool" simulate "$half_ring" --worst-case > "$work/simulate.txt"
[ $? -eq 1 ] || fail "simulate --worst-case of half_ring.lid did not exit 1"
sim_line="$(grep '^DEADLOCK:' "$work/simulate.txt")"
sim_reason="$(echo "$sim_line" | sed -n 's/.*tripped (\([a-z_]*\)).*/\1/p')"
sim_since="$(echo "$sim_line" | sed -n 's/.*no progress since cycle \([0-9]*\).*/\1/p')"
sim_trip="$(echo "$sim_line" | sed -n 's/.*tripped at cycle \([0-9]*\).*/\1/p')"
[ -n "$sim_reason" ] && [ -n "$sim_since" ] && [ -n "$sim_trip" ] \
  || fail "could not read the trip from lidtool simulate: $sim_line"
client screen "$half_ring" > "$work/half_ring.json"
[ $? -eq 1 ] || fail "screen of half_ring.lid did not exit 1"
# The worst-case pass's own verdict members precede its post-mortem.
wc_get() {
  sed -n '/"worst_case": {/,/"post_mortem"/p' "$work/half_ring.json" |
    sed -n "s/.*\"$1\": \"\{0,1\}\([a-z_0-9]*\)\"\{0,1\},\{0,1\}$/\1/p" |
    head -n1
}
[ "$(wc_get reason)" = "$sim_reason" ] \
  || fail "daemon reason '$(wc_get reason)', simulate '$sim_reason'"
[ "$(wc_get no_progress_since)" = "$sim_since" ] \
  || fail "daemon no_progress_since '$(wc_get no_progress_since)', simulate '$sim_since'"
[ "$(wc_get trip_cycle)" = "$sim_trip" ] \
  || fail "daemon trip_cycle '$(wc_get trip_cycle)', simulate '$sim_trip'"
# A live design under a budget four times the default is still live.
client screen "$repo_root/examples/designs/fig1.lid" --budget 1048576 \
  > "$work/fig1_budget.json" \
  || fail "screen of fig1.lid with budget 1048576 did not exit 0"
grep -q '"verdict": "live"' "$work/fig1_budget.json" \
  || fail "fig1.lid with budget 1048576 was not answered live"
requests=$((requests + 2))
echo "serve_smoke: half_ring trips at cycle $sim_trip ($sim_reason) in both the daemon and simulate"

# ---- a long chain screens in seconds ------------------------------------

# source -> 2,000 shells -> sink, every hop through a half relay station:
# the compiled evaluator settles the stop chain in one ordered pass per
# cycle, where an interpreter's repeated sweeps grow quadratically.
chain="$work/chain.lid"
{
  echo "source src"
  printf 'process s%d 1 1\n' $(seq 1 2000)
  echo "sink out"
  echo "channel src.0 -> s1.0 : H"
  for i in $(seq 1 1999); do
    printf 'channel s%d.0 -> s%d.0 : H\n' "$i" $((i + 1))
  done
  echo "channel s2000.0 -> out.0 : H"
} > "$chain"
timeout 30 "$lidtool" screen "$chain" > "$work/chain_screen.txt" \
  || fail "lidtool screen of the 2,000-shell chain failed or took over 30 s"
grep -q 'verdict=live' "$work/chain_screen.txt" \
  || fail "lidtool screen of the 2,000-shell chain was not live"
timeout 30 "$lidtool" simulate "$chain" > "$work/chain_simulate.txt" \
  || fail "lidtool simulate of the 2,000-shell chain failed or took over 30 s"
grep -q '^summary: simulate .* T=1$' "$work/chain_simulate.txt" \
  || fail "lidtool simulate of the 2,000-shell chain was not live at T=1"
timeout 30 "$lidtool" client screen "$chain" --port "$port" \
  > "$work/chain_daemon.json" \
  || fail "daemon screen of the 2,000-shell chain failed or took over 30 s"
grep -q '"verdict": "live"' "$work/chain_daemon.json" \
  || fail "daemon screen of the 2,000-shell chain was not live"
requests=$((requests + 1))
echo "serve_smoke: 2,000-shell half-station chain live in screen, simulate and the daemon"

echo "serve_smoke: $requests requests served, $deadlock_answers deadlock verdicts"

# ---- status: the cache must have served hits ----------------------------

client status > "$work/status.json" || fail "status request failed"
get() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "$work/status.json" | head -n1; }

hits="$(get hits)"
total="$(get total)"
verdicts="$(get deadlock_verdicts)"
[ -n "$hits" ] || fail "status did not report cache hits"
[ "$total" -eq $((requests + 1)) ] \
  || fail "status reports $total requests, want $((requests + 1))"
# 4 distinct cache keys (lint/screen/profile of fig1, screen of the
# deadlock ring) computed once each + 1 campaign key + the 2 early-exit
# screens + the chain screen: everything else must have come from the
# cache.
[ "$hits" -ge $((requests - 11)) ] \
  || fail "only $hits cache hits across $requests requests"
# deadlock_verdicts counts watchdog-tripped computations; the 23 repeat
# answers came from the cache without re-running the watchdog.
[ -n "$verdicts" ] && [ "$verdicts" -ge 1 ] \
  || fail "status reports no deadlock verdicts despite $deadlock_answers deadlock answers"
echo "serve_smoke: cache hits $hits / $total requests"

# ---- soak: connection threads must not pile up -------------------------

for i in $(seq 1 2000); do
  client status > /dev/null || fail "soak status call $i failed"
done
vm_kib="$(sed -n 's/^VmSize:[[:space:]]*\([0-9]*\) kB/\1/p' \
            "/proc/$server_pid/status")"
[ -n "$vm_kib" ] || fail "could not read the daemon's VmSize"
[ "$vm_kib" -lt $((1024 * 1024)) ] \
  || fail "daemon VmSize is $vm_kib KiB after 2000 connections, want < 1 GiB"
echo "serve_smoke: 2000 sequential connections, daemon VmSize $vm_kib KiB"

# ---- graceful shutdown --------------------------------------------------

client shutdown > /dev/null || fail "shutdown request failed"
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  fail "daemon still running 10s after the shutdown request"
fi
wait "$server_pid"
server_rc=$?
server_pid=""
[ "$server_rc" -eq 0 ] || fail "daemon exited $server_rc after the drain, want 0"
grep -q "drained: served" "$work/serve.log" \
  || fail "daemon did not report a clean drain"
echo "serve_smoke: PASS ($(grep 'drained:' "$work/serve.log"))"
