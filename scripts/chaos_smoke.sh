#!/usr/bin/env bash
# Chaos smoke test: survivability of the daemon and the fleet as *real
# processes* — no in-process shortcuts.
#
# Three drills, each ending in a byte-identity check against the batch
# frontier:
#
#   1. Auth gate: a tokened daemon turns away tokenless and wrong-token
#      clients with the documented exit code 6, then serves the tokened
#      client the exact batch bytes.
#   2. Disconnect cancellation: a client is SIGKILLed mid-request against
#      a daemon with a single admission slot; the abandoned sweep must be
#      cancelled and its slot freed, or the follow-up client could never
#      be admitted.
#   3. Coordinator handoff: a doomed worker (--die-after-points) leaves
#      the sweep provably incomplete, the coordinator is SIGKILLed
#      mid-sweep, a standby rebinds the same port with --resume over the
#      shared checkpoint, and a fresh worker finishes the sweep.
#
# Usage: chaos_smoke.sh [SPACEWALKER_BIN]
# Defaults to the release binary (built by scripts/ci.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/spacewalker}"
if [[ ! -x "$BIN" ]]; then
    echo "chaos_smoke: $BIN not built" >&2
    exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/mhe_chaos_smoke.XXXXXX")"
DAEMON_PID=""
FLEET_PID=""
WORKER_PID=""
VICTIM_PID=""
cleanup() {
    for pid in "$DAEMON_PID" "$FLEET_PID" "$WORKER_PID" "$VICTIM_PID"; do
        [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

cat > "$WORK/spec.txt" <<'EOF'
[processors]
kinds = 1111 3221

[icache]
sizes_kb = 1 4
assocs = 1 2
line_bytes = 32
ports = 1

[dcache]
sizes_kb = 1 4
assocs = 1
line_bytes = 32
ports = 1

[ucache]
sizes_kb = 16 64
assocs = 2
line_bytes = 64
ports = 1

[eval]
benchmark = unepic
events = 60000
l1_miss = 10
l2_miss = 50
EOF

wait_port() { # FILE PID NAME
    local file="$1" pid="$2" name="$3"
    for _ in $(seq 1 100); do
        [[ -s "$file" ]] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "chaos_smoke: $name died during startup" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "chaos_smoke: $name never wrote its port file" >&2
    return 1
}

echo "==> single-process batch baseline"
"$BIN" walk "$WORK/spec.txt" > "$WORK/batch.txt" 2> "$WORK/batch.log"

# ---------------------------------------------------------------- auth
echo "==> drill 1: auth gate (bad tokens out with exit 6, good token identical)"
"$BIN" serve 127.0.0.1:0 --port-file "$WORK/auth_port" --auth-token hunter2 \
    > /dev/null 2> "$WORK/auth_daemon.log" &
DAEMON_PID=$!
wait_port "$WORK/auth_port" "$DAEMON_PID" "tokened daemon"
ADDR="$(head -n1 "$WORK/auth_port")"

rc=0
"$BIN" connect "$ADDR" "$WORK/spec.txt" > /dev/null 2> "$WORK/no_token.log" || rc=$?
[[ "$rc" -eq 6 ]] || {
    echo "chaos_smoke: tokenless connect exited $rc (want unauthorized 6)" >&2
    cat "$WORK/no_token.log" >&2
    exit 1
}
rc=0
"$BIN" connect "$ADDR" "$WORK/spec.txt" --auth-token swordfish \
    > /dev/null 2> "$WORK/bad_token.log" || rc=$?
[[ "$rc" -eq 6 ]] || {
    echo "chaos_smoke: wrong-token connect exited $rc (want unauthorized 6)" >&2
    cat "$WORK/bad_token.log" >&2
    exit 1
}
"$BIN" connect "$ADDR" "$WORK/spec.txt" --auth-token hunter2 \
    > "$WORK/authed.txt" 2> "$WORK/good_token.log"
diff -u "$WORK/batch.txt" "$WORK/authed.txt" || {
    echo "chaos_smoke: tokened frontier differs from batch" >&2
    exit 1
}
kill -TERM "$DAEMON_PID"
rc=0
wait "$DAEMON_PID" || rc=$?
DAEMON_PID=""
[[ "$rc" -eq 0 ]] || {
    echo "chaos_smoke: tokened daemon drain exited $rc" >&2
    exit 1
}

# ------------------------------------------- disconnect cancellation
echo "==> drill 2: SIGKILL a client mid-request; the slot must free"
"$BIN" serve 127.0.0.1:0 --port-file "$WORK/cancel_port" --inflight 1 --queue 0 \
    > /dev/null 2> "$WORK/cancel_daemon.log" &
DAEMON_PID=$!
wait_port "$WORK/cancel_port" "$DAEMON_PID" "single-slot daemon"
ADDR="$(head -n1 "$WORK/cancel_port")"

# The victim gets a much heavier spec (still valid, answer irrelevant)
# so the SIGKILL reliably lands while its sweep holds the only slot.
sed 's/^events = .*/events = 2000000/' "$WORK/spec.txt" > "$WORK/victim_spec.txt"
"$BIN" connect "$ADDR" "$WORK/victim_spec.txt" > /dev/null 2>&1 &
VICTIM_PID=$!
sleep 0.5
kill -9 "$VICTIM_PID" 2>/dev/null || {
    echo "chaos_smoke: victim client finished before the kill" >&2
    exit 1
}
wait "$VICTIM_PID" 2>/dev/null || true
VICTIM_PID=""

# With one slot and no queue, this succeeds only once the abandoned
# sweep is cancelled and reaped — a leaked slot fails every attempt.
ok=""
for _ in $(seq 1 60); do
    if "$BIN" connect "$ADDR" "$WORK/spec.txt" \
        > "$WORK/after_kill.txt" 2> "$WORK/after_kill.log"; then
        ok=1
        break
    fi
    sleep 1
done
[[ -n "$ok" ]] || {
    echo "chaos_smoke: the killed client's admission slot never freed" >&2
    cat "$WORK/after_kill.log" >&2
    exit 1
}
diff -u "$WORK/batch.txt" "$WORK/after_kill.txt" || {
    echo "chaos_smoke: post-kill frontier differs from batch" >&2
    exit 1
}
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || true
DAEMON_PID=""

# ------------------------------------------------ coordinator handoff
echo "==> drill 3: SIGKILL the coordinator; a standby resumes on the same port"
"$BIN" fleet "$WORK/spec.txt" --workers 0 --bind 127.0.0.1:0 \
    --port-file "$WORK/fleet_port" --shards 8 --checkpoint "$WORK/ckpt" \
    > /dev/null 2> "$WORK/fleet1.log" &
FLEET_PID=$!
wait_port "$WORK/fleet_port" "$FLEET_PID" "primary coordinator"
ADDR="$(head -n1 "$WORK/fleet_port")"
echo "    coordinating on $ADDR"

# A doomed worker delivers 6 of the sweep's 16 points and dies, so the
# primary is provably mid-sweep when the SIGKILL lands — no timer race
# against a sweep that finishes in about a second.
"$BIN" worker "$ADDR" --die-after-points 6 2> "$WORK/worker1.log" || true

# Kill the primary once it has checkpointed the delivered points.
for _ in $(seq 1 300); do
    if compgen -G "$WORK/ckpt/*" > /dev/null; then break; fi
    if ! kill -0 "$FLEET_PID" 2>/dev/null; then
        echo "chaos_smoke: primary coordinator exited before the kill" >&2
        cat "$WORK/fleet1.log" >&2
        exit 1
    fi
    sleep 0.1
done
compgen -G "$WORK/ckpt/*" > /dev/null || {
    echo "chaos_smoke: primary coordinator never checkpointed" >&2
    exit 1
}
kill -9 "$FLEET_PID"
wait "$FLEET_PID" 2>/dev/null || true
FLEET_PID=""
echo "    primary killed; standby rebinding $ADDR"

"$BIN" fleet "$WORK/spec.txt" --workers 0 --bind "$ADDR" --shards 8 \
    --resume "$WORK/ckpt" > "$WORK/fleet2.txt" 2> "$WORK/fleet2.log" &
FLEET_PID=$!

# A fresh worker finishes the sweep against the standby; --redials covers
# its dial racing the standby's accept loop.
"$BIN" worker "$ADDR" --redials 60 2> "$WORK/worker2.log" &
WORKER_PID=$!

rc=0
wait "$FLEET_PID" || rc=$?
FLEET_PID=""
[[ "$rc" -eq 0 ]] || {
    echo "chaos_smoke: standby coordinator exited $rc" >&2
    cat "$WORK/fleet2.log" >&2
    exit 1
}
rc=0
wait "$WORKER_PID" || rc=$?
WORKER_PID=""
[[ "$rc" -eq 0 ]] || {
    echo "chaos_smoke: the fresh worker exited $rc" >&2
    cat "$WORK/worker2.log" >&2
    exit 1
}

echo "==> post-handoff frontier must be byte-identical to batch"
diff -u "$WORK/batch.txt" "$WORK/fleet2.txt" || {
    echo "chaos_smoke: post-handoff frontier differs from batch" >&2
    exit 1
}

echo "==> chaos_smoke: auth gate, disconnect cancellation, and coordinator handoff all held"
