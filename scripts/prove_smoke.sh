#!/usr/bin/env bash
# Smoke test for the static prover, exercised end-to-end through the
# shipped binary: every design under examples/designs/ must prove
# deadlock-free from reset — via the default auto escalation AND via a
# closing k-induction certificate — and the known worst-case deadlock
# (half_ring.lid) must come back as a counterexample (exit 1) whose
# post-mortem bundle `lidtool replay` reproduces to the same freeze.  A
# 500-shell half-station chain must prove by induction within 10 s.
#
# Usage: scripts/prove_smoke.sh [path/to/lidtool]
# (default: build/examples/lidtool relative to the repo root)

set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
lidtool="${1:-$repo_root/build/examples/lidtool}"
designs="$repo_root/examples/designs"

if [ ! -x "$lidtool" ]; then
  echo "prove_smoke: lidtool not found at $lidtool" >&2
  exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

fail() {
  echo "prove_smoke: FAIL: $*" >&2
  exit 1
}

proved=0
for lid in "$designs"/*.lid; do
  name="$(basename "$lid")"
  for method in auto induction; do
    "$lidtool" prove "$lid" --method "$method" >"$work/out.json" 2>&1
    rc=$?
    [ "$rc" = 0 ] || fail "$name --method $method: expected exit 0 (proved), got $rc"
    proved=$((proved + 1))
  done
done
[ "$proved" -ge 2 ] || fail "no designs found under $designs"
echo "prove_smoke: $proved proofs closed (auto + induction per design)"

# The paper's deadlock: half stations on a loop latch a self-supporting
# stop from worst-case occupancy.  The prover must find it (exit 1), the
# --json rendering must carry the verdict, and the emitted post-mortem
# bundle must replay to the same freeze.
ring="$designs/half_ring.lid"
"$lidtool" prove "$ring" --worst-case --json \
  --postmortem "$work/pm.json" >"$work/cex.json" 2>"$work/cex.err"
rc=$?
[ "$rc" = 1 ] || fail "half_ring --worst-case: expected exit 1 (counterexample), got $rc"
grep -q '"verdict": *"counterexample"' "$work/cex.json" ||
  fail "half_ring --worst-case --json: no counterexample verdict in output"
[ -s "$work/pm.json" ] || fail "half_ring --worst-case: post-mortem bundle not written"
"$lidtool" replay "$work/pm.json" >"$work/replay.out" 2>&1 ||
  fail "replay of the prove counterexample bundle failed"
grep -q 'reproduced' "$work/replay.out" ||
  fail "replay did not reproduce the proved deadlock"
echo "prove_smoke: counterexample found, bundled, and replayed"

# A loop-free design proves by induction in time that does not grow with
# its length: source -> 500 half-station shells -> sink has no cycle
# certificates, so there is no token audit to replay.
chain="$work/chain.lid"
{
  echo "source src"
  printf 'process s%d 1 1\n' $(seq 1 500)
  echo "sink out"
  echo "channel src.0 -> s1.0 : H"
  for i in $(seq 1 499); do
    printf 'channel s%d.0 -> s%d.0 : H\n' "$i" $((i + 1))
  done
  echo "channel s500.0 -> out.0 : H"
} > "$chain"
timeout 10 "$lidtool" prove "$chain" --method induction >"$work/chain.out" 2>&1
rc=$?
[ "$rc" = 0 ] || fail "500-shell chain --method induction: expected exit 0 within 10 s, got $rc"
echo "prove_smoke: 500-shell half-station chain proved by induction within 10 s"

# Exit-code contract: usage errors are 2, never 0 or 1.
"$lidtool" prove "$ring" --method bogus >/dev/null 2>&1
[ $? = 2 ] || fail "unknown method: expected usage exit 2"
"$lidtool" prove >/dev/null 2>&1
[ $? = 2 ] || fail "missing file: expected usage exit 2"

echo "prove_smoke: PASS"
