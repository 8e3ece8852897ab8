#!/usr/bin/env bash
# Offline CI pipeline — the gate every change must pass. Mirrors
# .github/workflows/ci.yml so the same command runs locally and in CI.
#
# The build is fully offline by policy (DESIGN.md §7): no registry
# dependencies, `--offline --locked` throughout. Any step failing fails
# the script.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One EXIT trap for the whole script: every temp file registers itself in
# CLEANUP_FILES instead of re-arming its own trap (which silently replaced
# the previous one and leaked earlier files on mid-script failure).
# Background processes (the distributed smoke's master and slaves) register
# their PIDs in CLEANUP_PIDS so a mid-step failure never leaves orphans.
CLEANUP_FILES=()
CLEANUP_PIDS=()
cleanup() {
  kill -9 ${CLEANUP_PIDS[@]+"${CLEANUP_PIDS[@]}"} 2>/dev/null || true
  rm -f -- ${CLEANUP_FILES[@]+"${CLEANUP_FILES[@]}"}
}
trap cleanup EXIT
# tmpfile VAR TEMPLATE — make a temp file from TEMPLATE, register it for
# the EXIT trap and store its path in VAR. It must run in this shell: a
# `$(...)` call runs in a subshell, which would drop the registration.
tmpfile() {
  local f
  f="$(mktemp "$2")"
  CLEANUP_FILES+=("$f")
  printf -v "$1" '%s' "$f"
}

# wait_for PID SECS — wait for the background process PID and return its
# exit status. If it is still running after SECS seconds, fail the step with
# a message naming the process (the EXIT trap then kills it), so a process
# that hangs on exit fails its step instead of the whole CI job.
wait_for() {
  local pid=$1 deadline=$((SECONDS + $2))
  while kill -0 "$pid" 2>/dev/null; do
    if [ "$SECONDS" -ge "$deadline" ]; then
      echo "error: still running after $2 s: pid $pid ($(ps -o args= -p "$pid" || true))" >&2
      exit 1
    fi
    sleep 0.1
  done
  wait "$pid"
}

# step NAME — close the previous step (printing its elapsed seconds, so a
# slow CI stage is attributable from the log alone) and open the next.
CURRENT_STEP=""
STEP_START=$SECONDS
step() {
  step_done
  CURRENT_STEP="$*"
  STEP_START=$SECONDS
  printf '\n=== %s ===\n' "$*"
}
step_done() {
  if [ -n "$CURRENT_STEP" ]; then
    printf -- '--- %s: %ds\n' "$CURRENT_STEP" "$((SECONDS - STEP_START))"
  fi
  CURRENT_STEP=""
}

step "rustfmt (check only)"
cargo fmt --all -- --check

step "clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

step "release build (offline, locked)"
cargo build --release --offline --locked

step "tests (offline, every workspace package)"
cargo test -q --offline --locked --workspace

step "kernel oracles at depth (20,000 cases per property, release)"
# The exact kernels against their reference oracles, far past the default
# 64 cases: the dynamic fill, its level-index narrowing and the lane fits
# test (mkp), the ejection chain and drop-refill (mkp-tabu), and the drop
# rankings on tied instances. About 12 s of testing on 2 cores.
TESTKIT_CASES=20000 cargo test -q --release --offline --locked -p mkp --lib -- \
  prop_dynamic_fill_matches_reference prop_view_fill_matches_scalar_fill \
  prop_lane_fits_equals_scalar prop_narrow_keeps_every_fitting_item \
  drop_order_ranks_scores_descending_with_index_ties
TESTKIT_CASES=20000 cargo test -q --release --offline --locked -p mkp-tabu --lib -- \
  prop_ejection_chain_matches_reference prop_drop_refill_matches_reference

step "telemetry tests (deterministic counters, spans, event ring)"
cargo test -q --offline --locked --test telemetry

step "bench smoke (kernels harness, JSON to results/)"
mkdir -p results
cargo run --release --offline --locked -p mkp-bench --bin kernels -- \
  --smoke --json results/kernels-smoke.json
test -s results/kernels-smoke.json

step "bench regression gate (fresh smoke vs committed baseline)"
# Fails when any kernel median is slower than results/kernels-baseline.json
# beyond ±15%. After a deliberate perf change, re-bless with:
#   cargo run --release -p mkp-bench --bin bench_diff -- --bless
cargo run --release --offline --locked -p mkp-bench --bin bench_diff

step "engine smoke (all six modes, quick budget)"
tmpfile tmp_mkp /tmp/ci-smoke-XXXXXX.mkp
cargo run --release --offline --locked -p mkp-cli -- \
  generate "$tmp_mkp" --class gk --n 40 --m 5 --seed 7
for mode in seq its cts1 cts2 ats dts; do
  cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 2 --rounds 2 --budget 40000 --seed 1 \
    | grep -q '^best value' || { echo "error: mode $mode smoke failed" >&2; exit 1; }
done

step "exact smoke (one, four and 4096 B&B workers prove the same optimum)"
# `mkp exact` runs one search whatever the worker count: four workers
# prove four cells of the tree one worker proves whole, and 4096 workers
# prove 4096 cells within the same node limit, which the cells share.
exact_optimum() {
  cargo run -q --release --offline --locked -p mkp-cli -- \
    exact "$tmp_mkp" --workers "$1" | grep '^optimum'
}
exact_one="$(exact_optimum 1)"
case "$exact_one" in
  *"NOT PROVEN"*) echo "error: exact smoke did not prove: $exact_one" >&2; exit 1 ;;
esac
for workers in 4 4096; do
  exact_w="$(exact_optimum "$workers")"
  [ "$exact_one" = "$exact_w" ] \
    || { echo "error: exact smoke: '$exact_one' with 1 worker, '$exact_w' with $workers" >&2; exit 1; }
done

step "policy smoke (core and repair, incl. a healed mid-run kill)"
# The two promising-search-space modes: a plain run of each (the labels
# are case-insensitive) must print a result and exit 0, and a CORE run
# that loses a worker to a kill fault must heal through the restart
# budget — survivors finish, zero losses, exit 0.
for mode in core REPAIR; do
  cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 2 --rounds 2 --budget 40000 --seed 1 \
    | grep -q '^best value' \
    || { echo "error: mode $mode smoke failed" >&2; exit 1; }
done
out="$(cargo run --release --offline --locked -p mkp-cli -- \
  solve "$tmp_mkp" --mode core --p 4 --rounds 3 --budget 60000 --seed 1 \
  --timeout 2 --fault kill@1:1 --restarts 2 --backoff 10 2>&1)" \
  || { echo "error: policy fault smoke exited non-zero" >&2; echo "$out" >&2; exit 1; }
echo "$out" | grep -q '^resurrections: ' \
  || { echo "error: policy fault smoke never revived the worker" >&2; exit 1; }
if echo "$out" | grep -q '^lost workers'; then
  echo "error: policy fault smoke still lost workers" >&2
  echo "$out" >&2
  exit 1
fi

step "telemetry smoke (metrics dumped, validated, deterministic)"
# One synchronous mode and the sequential baseline: each must dump a
# metrics document the in-tree validator accepts, and two identically
# seeded runs must produce byte-identical files.
tmpfile tmp_m1 /tmp/ci-metrics-XXXXXX.json
tmpfile tmp_m2 /tmp/ci-metrics-XXXXXX.json
for mode in seq cts1; do
  cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 2 --rounds 2 --budget 40000 --seed 1 \
    --metrics "$tmp_m1" > /dev/null
  cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 2 --rounds 2 --budget 40000 --seed 1 \
    --metrics "$tmp_m2" > /dev/null
  cmp -s "$tmp_m1" "$tmp_m2" \
    || { echo "error: mode $mode metrics are not deterministic" >&2; exit 1; }
  cargo run --release --offline --locked -p mkp-cli -- \
    validate-metrics "$tmp_m1" \
    || { echo "error: mode $mode metrics failed validation" >&2; exit 1; }
done

step "CORE, CTS2, ATS, REPAIR and DTS determinism on the large class (metrics identical, validated)"
# On GK 40x5 at most five LP duals are nonzero, so the simplex's four-row
# pricing blocks barely run; on large 25x500 they carry the LP. CTS2 at
# this budget finishes its local-search loops, so every assignment ends in
# the full-space intensification kernels (ejection chain and drop-refill
# through the lane-tested dynamic fill). ATS at the same budget runs those
# kernels under the pipelined release rule, where the workers overlap
# rounds. REPAIR's master builds every restart point from a perturbed
# ranking, and DTS's master picks its split from the utility ranking.
# Two identically seeded runs of each mode must dump byte-identical
# metrics.
tmpfile tmp_large /tmp/ci-large-XXXXXX.mkp
cargo run --release --offline --locked -p mkp-cli -- \
  generate "$tmp_large" --class large --n 500 --m 25 --seed 7
for run in "core 200000" "cts2 2000000" "ats 2000000" "repair 2000000" "dts 2000000"; do
  read -r mode budget <<< "$run"
  for metrics in "$tmp_m1" "$tmp_m2"; do
    cargo run --release --offline --locked -p mkp-cli -- \
      solve "$tmp_large" --mode "$mode" --p 2 --rounds 4 --budget "$budget" --seed 1 \
      --metrics "$metrics" > /dev/null
  done
  cmp -s "$tmp_m1" "$tmp_m2" \
    || { echo "error: $mode metrics on the large class are not deterministic" >&2; exit 1; }
  cargo run --release --offline --locked -p mkp-cli -- \
    validate-metrics "$tmp_m1" \
    || { echo "error: $mode metrics on the large class failed validation" >&2; exit 1; }
done

step "telemetry overhead smoke (A/B harness runs, JSON to results/)"
cargo run --release --offline --locked -p mkp-bench --bin telemetry_overhead -- \
  --smoke --json results/telemetry-overhead-smoke.json
test -s results/telemetry-overhead-smoke.json

step "fault-injection smoke (degraded runs finish and exit 2)"
# One mode per delivery kind: cts2 gathers synchronously, ats is
# pipelined. Killing worker 1 mid-run must leave a finished, degraded
# run: result printed, losses listed, exit code 2.
for mode in cts2 ats; do
  set +e
  out="$(cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 4 --rounds 3 --budget 60000 --seed 1 \
    --timeout 2 --fault kill@1:1 2>&1)"
  status=$?
  set -e
  if [ "$status" -ne 2 ]; then
    echo "error: mode $mode fault smoke exited $status (want 2)" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "$out" | grep -q '^best value' \
    || { echo "error: mode $mode fault smoke lost the result" >&2; exit 1; }
  echo "$out" | grep -q '^lost workers: 1' \
    || { echo "error: mode $mode fault smoke did not report the loss" >&2; exit 1; }
done

step "resurrection smoke (restart budget heals the kill and the straggler, exit 0)"
# resurrection_smoke MODE WANT FLAGS... — a solve with FLAGS must exit 0,
# print a line starting with WANT and no `lost workers` line.
resurrection_smoke() {
  local mode=$1 want=$2 out
  shift 2
  out="$(cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 4 --rounds 3 --budget 60000 --seed 1 \
    "$@" 2>&1)" \
    || { echo "error: mode $mode resurrection smoke ($*) exited non-zero" >&2; \
         echo "$out" >&2; exit 1; }
  echo "$out" | grep -q "^$want" \
    || { echo "error: mode $mode resurrection smoke ($*) did not print '$want'" >&2; \
         echo "$out" >&2; exit 1; }
  if echo "$out" | grep -q '^lost workers'; then
    echo "error: mode $mode resurrection smoke ($*) still lost workers" >&2
    echo "$out" >&2
    exit 1
  fi
}
# Same kill as above, but with a restart budget: the master must resurrect
# the worker, finish with zero losses and exit clean. The straggler stays
# alive far past its deadline; its reborn incarnation must not wait for
# it, so one restart revives the worker.
for mode in cts2 ats; do
  resurrection_smoke "$mode" 'resurrections: ' \
    --timeout 2 --fault kill@1:1 --restarts 2 --backoff 10
  resurrection_smoke "$mode" 'resurrections: 1 ' \
    --timeout 1 --fault delay@1:1:3000 --restarts 1 --backoff 10
done

step "checkpoint/resume smoke (resume outlives a post-checkpoint kill)"
# Reference run, uninterrupted. Then the same run checkpointed at round 2
# and killed at round 2 — after the snapshot is on disk — so the original
# degrades (exit 2) while the file still holds the healthy state. Resuming
# it must reproduce the reference objective exactly. CTS2 takes the
# synchronous rendezvous; ATS drains its pipeline to the checkpoint.
tmpfile tmp_snap /tmp/ci-snap-XXXXXX
for mode in cts2 ats; do
  full="$(cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 4 --rounds 4 --budget 60000 --seed 1 \
    | grep '^best value')"
  set +e
  cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 4 --rounds 4 --budget 60000 --seed 1 \
    --timeout 2 --fault kill@1:2 \
    --checkpoint "$tmp_snap" --checkpoint-every 2 > /dev/null 2>&1
  status=$?
  set -e
  if [ "$status" -ne 2 ]; then
    echo "error: $mode checkpointed faulty run exited $status (want 2)" >&2
    exit 1
  fi
  resumed="$(cargo run --release --offline --locked -p mkp-cli -- \
    solve "$tmp_mkp" --mode "$mode" --p 4 --rounds 4 --budget 60000 --seed 1 \
    --resume "$tmp_snap" | grep '^best value')"
  if [ "$full" != "$resumed" ]; then
    echo "error: $mode resume diverged: full='$full' resumed='$resumed'" >&2
    exit 1
  fi
done

step "distributed smoke (two slave processes, one killed mid-run)"
# Real process boundaries over a Unix socket: a master with --listen, two
# `mkp slave` processes, SIGKILL one mid-run and start a replacement. The
# master must resurrect the worker over the fresh connection and exit 0.
# The budget is sized so the run takes seconds — long enough that the kill
# at 1s always lands mid-run, on this machine and on slower CI runners.
mkp_bin=target/release/mkp
tmpfile tmp_sock /tmp/ci-dist-XXXXXX.sock
tmpfile tmp_dist /tmp/ci-dist-XXXXXX.out
"$mkp_bin" solve "$tmp_mkp" --mode cts2 --p 2 --rounds 6 --budget 240000000 \
  --seed 1 --timeout 5 --restarts 2 --backoff 10 \
  --listen "unix:$tmp_sock" > "$tmp_dist" 2>&1 &
master_pid=$!
CLEANUP_PIDS+=("$master_pid")
"$mkp_bin" slave --connect "unix:$tmp_sock" > /dev/null 2>&1 &
victim_pid=$!
CLEANUP_PIDS+=("$victim_pid")
"$mkp_bin" slave --connect "unix:$tmp_sock" > /dev/null 2>&1 &
survivor_pid=$!
CLEANUP_PIDS+=("$survivor_pid")
sleep 1
kill -9 "$victim_pid" 2>/dev/null \
  || { echo "error: distributed run finished before the kill; raise --budget" >&2; \
       cat "$tmp_dist" >&2; exit 1; }
"$mkp_bin" slave --connect "unix:$tmp_sock" > /dev/null 2>&1 &
replacement_pid=$!
CLEANUP_PIDS+=("$replacement_pid")
set +e
wait_for "$master_pid" 120
status=$?
set -e
if [ "$status" -ne 0 ]; then
  echo "error: distributed master exited $status (want 0)" >&2
  cat "$tmp_dist" >&2
  exit 1
fi
grep -q '^best value' "$tmp_dist" \
  || { echo "error: distributed smoke lost the result" >&2; cat "$tmp_dist" >&2; exit 1; }
grep -q '^resurrections: ' "$tmp_dist" \
  || { echo "error: distributed smoke never revived the killed slave" >&2; \
       cat "$tmp_dist" >&2; exit 1; }
if grep -q '^lost workers' "$tmp_dist"; then
  echo "error: distributed smoke still lost workers" >&2
  cat "$tmp_dist" >&2
  exit 1
fi
# The surviving and replacement slaves both saw the STOP broadcast.
for pid in "$survivor_pid" "$replacement_pid"; do
  set +e
  wait_for "$pid" 120
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "error: slave $pid exited $status (want 0 after STOP)" >&2
    exit 1
  fi
done

step "jobserver smoke (3 concurrent jobs over 2 slave processes)"
# Multi-tenant serving end to end (DESIGN.md §14): a job server farming
# to two slave processes, three concurrent submits — two that complete
# and one whose 1 ms deadline must expire at a quantum boundary. Checks
# the per-client stream ordering, the per-verdict exit codes, and that
# server and slaves all shut down with exit 0.
tmpfile tmp_jobs_sock /tmp/ci-jobs-XXXXXX.sock
tmpfile tmp_slv_sock /tmp/ci-jslv-XXXXXX.sock
tmpfile tmp_serve /tmp/ci-serve-XXXXXX.out
tmpfile tmp_sub_a /tmp/ci-suba-XXXXXX.out
tmpfile tmp_sub_b /tmp/ci-subb-XXXXXX.out
tmpfile tmp_sub_c /tmp/ci-subc-XXXXXX.out
rm -f "$tmp_jobs_sock" "$tmp_slv_sock"   # mktemp made plain files; the sockets bind fresh
"$mkp_bin" serve --clients "unix:$tmp_jobs_sock" --slaves "unix:$tmp_slv_sock" \
  --p 2 --max-jobs 3 --patience 60 > "$tmp_serve" 2>&1 &
serve_pid=$!
CLEANUP_PIDS+=("$serve_pid")
"$mkp_bin" slave --connect "unix:$tmp_slv_sock" --patience 60 > /dev/null 2>&1 &
jslave1_pid=$!
CLEANUP_PIDS+=("$jslave1_pid")
"$mkp_bin" slave --connect "unix:$tmp_slv_sock" --patience 60 > /dev/null 2>&1 &
jslave2_pid=$!
CLEANUP_PIDS+=("$jslave2_pid")
"$mkp_bin" submit "$tmp_mkp" --connect "unix:$tmp_jobs_sock" --mode cts2 \
  --p 2 --rounds 4 --budget 1000000 --seed 11 --patience 60 > "$tmp_sub_a" 2>&1 &
sub_a_pid=$!
CLEANUP_PIDS+=("$sub_a_pid")
"$mkp_bin" submit "$tmp_mkp" --connect "unix:$tmp_jobs_sock" --mode cts1 \
  --p 2 --rounds 4 --budget 1000000 --seed 22 --patience 60 > "$tmp_sub_b" 2>&1 &
sub_b_pid=$!
CLEANUP_PIDS+=("$sub_b_pid")
"$mkp_bin" submit "$tmp_mkp" --connect "unix:$tmp_jobs_sock" --mode cts2 \
  --p 2 --rounds 6 --budget 1000000 --seed 33 --deadline-ms 1 --patience 60 \
  > "$tmp_sub_c" 2>&1 &
sub_c_pid=$!
CLEANUP_PIDS+=("$sub_c_pid")
for spec in "$sub_a_pid:$tmp_sub_a" "$sub_b_pid:$tmp_sub_b"; do
  pid="${spec%%:*}"; out="${spec#*:}"
  set +e
  wait_for "$pid" 120
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "error: completing submit exited $status (want 0)" >&2
    cat "$out" >&2
    exit 1
  fi
  # Stream ordering: acceptance first, then one incumbent per round with
  # strictly increasing round numbers, then the report.
  head -1 "$out" | grep -q '^job .*accepted' \
    || { echo "error: submit stream did not open with the acceptance" >&2; \
         cat "$out" >&2; exit 1; }
  awk '/^incumbent/ { n++; r=$NF+0; if (r <= last) exit 1; last=r }
       END { exit (n == 4) ? 0 : 1 }' "$out" \
    || { echo "error: submit incumbents out of order or missing" >&2; \
         cat "$out" >&2; exit 1; }
  grep -q '^best value' "$out" \
    || { echo "error: submit lost its report" >&2; cat "$out" >&2; exit 1; }
done
set +e
wait_for "$sub_c_pid" 120
status=$?
set -e
if [ "$status" -ne 1 ]; then
  echo "error: deadline submit exited $status (want 1)" >&2
  cat "$tmp_sub_c" >&2
  exit 1
fi
grep -q 'deadline' "$tmp_sub_c" \
  || { echo "error: deadline submit did not explain itself" >&2; \
       cat "$tmp_sub_c" >&2; exit 1; }
set +e
wait_for "$serve_pid" 120
status=$?
set -e
if [ "$status" -ne 0 ]; then
  echo "error: job server exited $status (want 0 after --max-jobs)" >&2
  cat "$tmp_serve" >&2
  exit 1
fi
grep -q '2 done' "$tmp_serve" && grep -q '1 expired' "$tmp_serve" \
  || { echo "error: job server miscounted its verdicts" >&2; cat "$tmp_serve" >&2; exit 1; }
# Both slaves served all three jobs' slices and saw the shutdown STOP.
for pid in "$jslave1_pid" "$jslave2_pid"; do
  set +e
  wait_for "$pid" 120
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "error: jobserver slave $pid exited $status (want 0 after STOP)" >&2
    exit 1
  fi
done

step "server-crash smoke (kill -9 mid-job, restart recovers bit-identically)"
# Crash-safety end to end (DESIGN.md §15): three jobs against a --state-dir
# server, SIGKILL the server mid-run, restart it on the same state dir. The
# journal replays, the spool restores, the clients' idempotent resubmits
# reattach on their own, and every job's value matches an uninterrupted
# reference run exactly.
tmpfile tmp_crash_sock /tmp/ci-crash-XXXXXX.sock
tmpfile tmp_crash_slv /tmp/ci-crash-slv-XXXXXX.sock
tmp_state_dir="$(mktemp -d /tmp/ci-crash-state-XXXXXX)"
tmpfile tmp_crash_srv /tmp/ci-crash-srv-XXXXXX.out
rm -f "$tmp_crash_sock" "$tmp_crash_slv"
crash_seeds="11 22 33"
declare -A crash_ref
for seed in $crash_seeds; do
  crash_ref[$seed]="$("$mkp_bin" solve "$tmp_mkp" --mode cts2 --p 2 --rounds 4 \
    --budget 150000000 --seed "$seed" | grep '^best value')"
done
"$mkp_bin" serve --clients "unix:$tmp_crash_sock" --slaves "unix:$tmp_crash_slv" \
  --p 2 --quantum 1 --max-jobs 3 --state-dir "$tmp_state_dir" --patience 60 \
  > /dev/null 2>&1 &
crash_srv_pid=$!
CLEANUP_PIDS+=("$crash_srv_pid")
# The slave fleet outlives the server crash: a dropped link sends each
# slave back into its reconnect loop, and the restarted server adopts
# the same two processes.
"$mkp_bin" slave --connect "unix:$tmp_crash_slv" --patience 60 > /dev/null 2>&1 &
crash_slv1_pid=$!
CLEANUP_PIDS+=("$crash_slv1_pid")
"$mkp_bin" slave --connect "unix:$tmp_crash_slv" --patience 60 > /dev/null 2>&1 &
crash_slv2_pid=$!
CLEANUP_PIDS+=("$crash_slv2_pid")
crash_sub_pids=()
crash_sub_outs=()
for seed in $crash_seeds; do
  tmpfile out /tmp/ci-crash-sub-XXXXXX.out
  "$mkp_bin" submit "$tmp_mkp" --connect "unix:$tmp_crash_sock" --mode cts2 \
    --p 2 --rounds 4 --budget 150000000 --seed "$seed" --patience 60 \
    > "$out" 2>&1 &
  crash_sub_pids+=("$!")
  crash_sub_outs+=("$out")
  CLEANUP_PIDS+=("$!")
done
sleep 1.5
kill -9 "$crash_srv_pid" 2>/dev/null \
  || { echo "error: job server finished before the kill; raise --budget" >&2; exit 1; }
wait "$crash_srv_pid" 2>/dev/null || true
# Restart on the same state dir; recovery counts the journal's terminals,
# so the same --max-jobs 3 still stops after three total.
"$mkp_bin" serve --clients "unix:$tmp_crash_sock" --slaves "unix:$tmp_crash_slv" \
  --p 2 --quantum 1 --max-jobs 3 --state-dir "$tmp_state_dir" --patience 60 \
  > "$tmp_crash_srv" 2>&1 &
crash_srv2_pid=$!
CLEANUP_PIDS+=("$crash_srv2_pid")
i=0
for seed in $crash_seeds; do
  pid="${crash_sub_pids[$i]}"; out="${crash_sub_outs[$i]}"; i=$((i + 1))
  set +e
  wait_for "$pid" 120
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "error: crash-smoke submit (seed $seed) exited $status (want 0)" >&2
    cat "$out" >&2
    cat "$tmp_crash_srv" >&2
    exit 1
  fi
  got="$(grep '^best value' "$out")"
  if [ "$got" != "${crash_ref[$seed]}" ]; then
    echo "error: crash-smoke seed $seed diverged: got '$got' want '${crash_ref[$seed]}'" >&2
    exit 1
  fi
done
set +e
wait_for "$crash_srv2_pid" 120
status=$?
set -e
if [ "$status" -ne 0 ]; then
  echo "error: restarted job server exited $status (want 0)" >&2
  cat "$tmp_crash_srv" >&2
  exit 1
fi
grep -q 'recovered' "$tmp_crash_srv" \
  || { echo "error: restarted server printed no durability line" >&2; \
       cat "$tmp_crash_srv" >&2; exit 1; }
if grep -q 'durability : 0 recovered' "$tmp_crash_srv"; then
  echo "error: the restart recovered nothing — the kill landed too late" >&2
  cat "$tmp_crash_srv" >&2
  exit 1
fi
# Both slave processes rode out the crash and saw the final STOP.
for pid in "$crash_slv1_pid" "$crash_slv2_pid"; do
  set +e
  wait_for "$pid" 120
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "error: crash-smoke slave $pid exited $status (want 0 after STOP)" >&2
    exit 1
  fi
done
# A third life on the same state dir, in process. The journal now holds
# only the three jobs' terminals (the shutdown compaction dropped their
# SUBMITs), and job ids stay unique across restarts: the next job is 4.
tmpfile tmp_crash_srv3 /tmp/ci-crash-srv3-XXXXXX.out
tmpfile tmp_crash_sub4 /tmp/ci-crash-sub4-XXXXXX.out
"$mkp_bin" serve --clients "unix:$tmp_crash_sock" --p 2 --max-jobs 4 \
  --state-dir "$tmp_state_dir" --patience 60 > "$tmp_crash_srv3" 2>&1 &
crash_srv3_pid=$!
CLEANUP_PIDS+=("$crash_srv3_pid")
"$mkp_bin" submit "$tmp_mkp" --connect "unix:$tmp_crash_sock" --mode cts2 \
  --p 2 --rounds 2 --budget 20000 --seed 44 --patience 60 > "$tmp_crash_sub4" 2>&1 \
  || { echo "error: third-life submit failed" >&2; cat "$tmp_crash_sub4" >&2; exit 1; }
grep -q '^job        : 4 accepted' "$tmp_crash_sub4" \
  || { echo "error: the third life reused a job id" >&2; cat "$tmp_crash_sub4" >&2; exit 1; }
set +e
wait_for "$crash_srv3_pid" 120
status=$?
set -e
if [ "$status" -ne 0 ]; then
  echo "error: third-life job server exited $status (want 0)" >&2
  cat "$tmp_crash_srv3" >&2
  exit 1
fi
rm -rf "$tmp_state_dir"

step "net-fault smoke (corrupted frame is dropped, counted, and healed)"
# A slave that corrupts its 2nd data frame: the master's checksum catches
# it, drops the frame (counted as corrupt_drops in --metrics), times the
# silent worker out, and heals it through the restart budget — exit 0.
tmpfile tmp_nf_sock /tmp/ci-nf-XXXXXX.sock
tmpfile tmp_nf_out /tmp/ci-nf-XXXXXX.out
tmpfile tmp_nf_metrics /tmp/ci-nf-XXXXXX.json
rm -f "$tmp_nf_sock"
"$mkp_bin" solve "$tmp_mkp" --mode cts2 --p 2 --rounds 3 --budget 60000 \
  --seed 1 --timeout 3 --restarts 2 --backoff 10 --listen "unix:$tmp_nf_sock" \
  --metrics "$tmp_nf_metrics" > "$tmp_nf_out" 2>&1 &
nf_master_pid=$!
CLEANUP_PIDS+=("$nf_master_pid")
"$mkp_bin" slave --connect "unix:$tmp_nf_sock" --net-fault corrupt@2 \
  > /dev/null 2>&1 &
CLEANUP_PIDS+=("$!")
"$mkp_bin" slave --connect "unix:$tmp_nf_sock" > /dev/null 2>&1 &
CLEANUP_PIDS+=("$!")
set +e
wait_for "$nf_master_pid" 120
status=$?
set -e
if [ "$status" -ne 0 ]; then
  echo "error: net-fault master exited $status (want 0)" >&2
  cat "$tmp_nf_out" >&2
  exit 1
fi
grep -q '^best value' "$tmp_nf_out" \
  || { echo "error: net-fault smoke lost the result" >&2; cat "$tmp_nf_out" >&2; exit 1; }
grep -q '"corrupt_drops": [1-9]' "$tmp_nf_metrics" \
  || { echo "error: the corrupt frame was never counted" >&2; \
       cat "$tmp_nf_metrics" >&2; exit 1; }

step "jobserver bench (smoke)"
# The smoke writes its own file: results/jobserver-bench.json holds the
# committed full run and must never be overwritten here.
cargo run -q --release --offline --locked -p mkp-bench --bin jobserver_bench -- --smoke
test -s results/jobserver-bench-smoke.json \
  || { echo "error: jobserver bench wrote no JSON" >&2; exit 1; }
grep -q '"jobs_per_sec"' results/jobserver-bench-smoke.json \
  && grep -q '"time_to_target_p95_ms"' results/jobserver-bench-smoke.json \
  || { echo "error: jobserver bench JSON is missing its headline figures" >&2; \
       cat results/jobserver-bench-smoke.json >&2; exit 1; }

step "performance ledger (its tests, then one short e2e pass)"
# ledger/ is a package of its own that builds the solver crates by path,
# so the workspace steps above never compile it: an API change they use
# (ServeConfig, ServeStats, parse_report) must break here, not in the
# benchmark. The smoke writes only the gitignored ledger/results/*-smoke.json.
cargo test -q --offline --locked --manifest-path ledger/Cargo.toml
cargo run -q --release --offline --locked --manifest-path ledger/Cargo.toml \
  --bin e2e -- --smoke

step "no versioned registry dependencies"
if grep -rn '^[a-z].*=.*"[0-9]' crates/*/Cargo.toml Cargo.toml; then
  echo "error: versioned registry dependency found (policy: DESIGN.md §7)" >&2
  exit 1
fi

step_done
printf '\nci: all checks passed\n'
