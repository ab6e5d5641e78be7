# End-to-end CI leg for the multi-process sweep service (run via
# `make serve-e2e`, which builds first). Exercises the contract the
# docs promise: a fresh 6-task sweep completes with 2 workers, a
# partial store resumes by recomputing only what is missing (and
# byte-identically), --workers 0 is a warm resume over a complete
# store, re-serving retries a task left with a stale failure record,
# a missing manifest exits 2, seeds above 2^53 stay exact, the
# workers' telemetry streams read back as a finished, all-done fleet,
# and a malformed environment knob is a usage error (exit 124).
set -eu

EBRC=_build/default/bin/ebrc_cli.exe
[ -x "$EBRC" ] || { echo "serve_ci: $EBRC not built (run from repo root after dune build)"; exit 1; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ebrc-serve-ci.XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM

MANIFEST="$WORK/sweep.json"
QUEUE="$MANIFEST.queue"
STORE="$QUEUE/store"

fail() { echo "serve_ci: FAIL: $*"; exit 1; }

store_count_in() { ls "$1" 2>/dev/null | grep -c '\.json$' || true; }
store_count() { store_count_in "$STORE"; }
store_sum() { cat $(ls "$STORE"/*.json | sort) | cksum; }

# 1. Fresh sweep: 6 tasks, 2 workers, must complete with exit 0 and
#    publish exactly one record per task.
"$EBRC" manifest "$MANIFEST" --tasks 6 --duration 5 >/dev/null
"$EBRC" serve "$MANIFEST" --workers 2 --quiet || fail "fresh serve exited $?"
[ "$(store_count)" = 6 ] || fail "expected 6 store records, got $(store_count)"
SUM_FULL=$(store_sum)

# 2. Resume over a partial store: delete two records, re-serve. Only
#    the missing tasks are outstanding; the refilled store must be
#    byte-identical to the original (content-addressed determinism).
ls "$STORE"/*.json | head -2 | while read -r f; do rm "$f"; done
[ "$(store_count)" = 4 ] || fail "partial store should hold 4 records"
"$EBRC" serve "$MANIFEST" --workers 2 --quiet || fail "partial resume exited $?"
[ "$(store_count)" = 6 ] || fail "resume did not refill the store"
[ "$(store_sum)" = "$SUM_FULL" ] || fail "resumed store differs from original bytes"

# 3. Warm resume: everything published, --workers 0 spawns nothing and
#    still exits 0 immediately.
"$EBRC" serve "$MANIFEST" --workers 0 --quiet || fail "warm resume exited $?"

# 4. Retry over a stale failure record: a task that failed terminally
#    in an earlier serve is retried by re-serving, and its old failure
#    record must not count it as settled while the retry runs.
VICTIM=$(ls "$STORE"/*.json | head -1)
DIGEST=$(basename "$VICTIM" .json)
rm "$VICTIM"
mkdir -p "$QUEUE/failed"
printf '{"schema":1,"digest":"%s","worker":"ci","message":"stale"}\n' "$DIGEST" \
  > "$QUEUE/failed/$DIGEST.json"
"$EBRC" serve "$MANIFEST" --workers 2 --quiet || fail "re-serve over a stale failure exited $?"
[ "$(store_count)" = 6 ] || fail "retry did not refill the store ($(store_count) records)"
[ "$(store_sum)" = "$SUM_FULL" ] || fail "retried store differs from original bytes"

# 5. Exit-code contract: a missing manifest is a usage error (2), not
#    a crash or a silent success.
set +e
"$EBRC" serve "$WORK/absent.json" --workers 0 --quiet 2>/dev/null
RC=$?
set -e
[ "$RC" = 2 ] || fail "missing manifest should exit 2, got $RC"

# 6. Exact integers: seeds above 2^53 are not doubles. Two consecutive
#    large seeds must stay two tasks, each stored under its own exact
#    seed, not rounded onto a shared neighbour.
BIG="$WORK/big.json"
BIGSTORE="$WORK/bigq/store"
"$EBRC" manifest "$BIG" --tasks 2 --seed0 1152921504606846977 --duration 2 >/dev/null
"$EBRC" serve "$BIG" --workers 1 --quiet --queue "$WORK/bigq" || fail "large-seed serve exited $?"
[ "$(store_count_in "$BIGSTORE")" = 2 ] || fail "large-seed sweep should store 2 records, got $(store_count_in "$BIGSTORE")"
for S in 1152921504606846977 1152921504606846978; do
  [ "$(grep -l "\"seed\":$S," "$BIGSTORE"/*.json | wc -l)" = 1 ] \
    || fail "no store record carries the exact seed $S"
done

# 7. Fleet telemetry flows: every worker streams, and `ebrc status`
#    over the worker streams of a 2-worker sweep shows every task done,
#    every stream finished and simulated events in the merged counters.
FLEET="$WORK/fleet.json"
FLEETQ="$WORK/fleetq"
"$EBRC" manifest "$FLEET" --tasks 6 --seed0 77 --duration 5 >/dev/null
"$EBRC" serve "$FLEET" --workers 2 --quiet --queue "$FLEETQ" || fail "fleet serve exited $?"
"$EBRC" status --once "$FLEETQ"/streams/worker-*.jsonl > "$WORK/status.out" \
  || fail "status --once exited $?"
[ "$(wc -l < "$WORK/status.out")" = 2 ] || fail "expected 2 worker streams: $(cat "$WORK/status.out")"
[ "$(grep -c '"finished":true' "$WORK/status.out" || true)" = 2 ] \
  || fail "a worker stream is not finished"
PHASES=$(grep -o '"phase":"[a-z-]*"' "$WORK/status.out" || true)
[ "$(echo "$PHASES" | grep -c '"phase":"done"' || true)" = 6 ] \
  || fail "expected 6 done tasks, got: $PHASES"
[ "$(echo "$PHASES" | grep -vc '"phase":"done"' || true)" = 0 ] \
  || fail "a task is not done: $PHASES"
FIRED=0
for N in $(grep -o '"sim.events_fired":[0-9]*' "$WORK/status.out" | cut -d: -f2); do
  FIRED=$((FIRED + N))
done
[ "$FIRED" -gt 0 ] || fail "no sim.events_fired in the merged worker counters"

# 8. Malformed environment knobs: whichever knob and command, the CLI
#    prints "ebrc: <VAR>: <reason>" and exits 124 (a usage error), never
#    an uncaught exception. The bench does the same ("bench: <VAR>:")
#    before it measures or writes anything.
knob_case() {
  NAME=$1; PROG=$2; VAR=$3; VALUE=$4; shift 4
  set +e
  env "$VAR=$VALUE" "$PROG" "$@" >/dev/null 2>"$WORK/knob.err"
  RC=$?
  set -e
  [ "$RC" = 124 ] || fail "$VAR=$VALUE $NAME $* should exit 124, got $RC"
  grep -q "^$NAME: $VAR: " "$WORK/knob.err" \
    || fail "$VAR=$VALUE $NAME $*: no '$NAME: $VAR:' line: $(cat "$WORK/knob.err")"
  if grep -q "Fatal error" "$WORK/knob.err"; then
    fail "$VAR=$VALUE $NAME $* died with an uncaught exception"
  fi
}
knob_case ebrc "$EBRC" EBRC_CHAOS abc list
knob_case ebrc "$EBRC" EBRC_SIM_BUDGET -1 list
knob_case ebrc "$EBRC" EBRC_JOBS abc figure 1
knob_case ebrc "$EBRC" EBRC_CACHE abc list
BENCH=_build/default/bench/main.exe
RECORDS=$(ls BENCH_*.json 2>/dev/null | wc -l)
knob_case bench "$BENCH" EBRC_JOBS abc
knob_case bench "$BENCH" EBRC_BENCH_ONLY wheels
[ "$(ls BENCH_*.json 2>/dev/null | wc -l)" = "$RECORDS" ] \
  || fail "a malformed bench knob still wrote a BENCH record"

echo "serve_ci: OK (fresh sweep, partial resume byte-identical, warm resume, stale-failure retry, exit codes, exact large seeds, fleet telemetry, malformed env knobs)"
