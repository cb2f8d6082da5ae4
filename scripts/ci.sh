#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, then a smoke pass of the
# evaluation harness (every kernel once, smallest config) and a profile
# trace of one kernel.  Any correctness failure exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build @all

# a block's predecessors and an instruction's users come from the
# indexes lib/ir/ssa.ml keeps, and a cached analysis is current while
# the function's edit count is, which holds only while that file is the
# one writer of every IR field an analysis reads: a block's
# instructions and predecessor index, an instruction's op, operands,
# targets, parent and use list, a function's block list.  The loop
# forest's own [parent] (lib/analysis/loops.ml) is not an IR field, and
# the stale-index cases of test/suite_cfg_index.ml corrupt the two
# indexes on purpose.  An instruction's type is written there too: Ssa
# re-derives it by its one type rule whenever operands change, which a
# direct write would bypass.  So is a block's edit stamp, the count at
# its last edit: the pass keeps a region search while its blocks'
# stamps are no later than the search, so a stamp written anywhere
# else could hide an edit from it.
ir_writes=$( {
  grep -rnE '\.(blocks|instrs|operands|op|ty)( *<-|\.\(.*\) *<-)|blocks_list *<-' \
    lib bin test --include='*.ml'
  grep -rnE '\.edit_stamp *<-' lib bin test --include='*.ml'
  grep -rnE '\.parent *<-' lib bin test --include='*.ml' \
    | grep -v '^lib/analysis/loops\.ml:'
  grep -rnE '\.(targeted_by|uses) *<-' lib bin test --include='*.ml' \
    | grep -v '^test/suite_cfg_index\.ml:'
} | grep -v '^lib/ir/ssa\.ml:' || true)
if [ -n "$ir_writes" ]; then
  echo "ci: IR fields assigned outside lib/ir/ssa.ml (use its mutators):" >&2
  echo "$ir_writes" >&2
  exit 1
fi

dune runtest

# bench smoke pass; must append an env-fingerprinted record to the
# bench history, its one machine-readable record.  Two smoke runs back
# to back give the regression sentinel an identical pair to compare
# (cycle counts are deterministic, so the diff must be clean).  A
# BENCH_darm.json left by an older checkout is removed first, so the
# check that no run writes one sees only these runs.
rm -f BENCH_darm.json BENCH_history.jsonl
dune exec bench/main.exe -- --smoke
dune exec bench/main.exe -- --smoke
if [ -e BENCH_darm.json ]; then
  echo "ci: the bench wrote BENCH_darm.json; its history is the one record" >&2
  exit 1
fi
test -s BENCH_history.jsonl
grep -q '"schema":"darm-bench-hist-v2"' BENCH_history.jsonl
test "$(wc -l < BENCH_history.jsonl)" -eq 2
# every entry carries the four counter columns
entries=$(grep -o '"kernel":' BENCH_history.jsonl | wc -l)
for col in alu_util_base alu_util_opt divergent_branches_base \
    divergent_branches_opt; do
  if [ "$(grep -o "\"$col\":" BENCH_history.jsonl | wc -l)" -ne "$entries" ]; then
    echo "ci: $col missing from some of the $entries history entries" >&2
    exit 1
  fi
done
# every record covers both memory models; flat and hier entries are
# both present and keyed apart
grep -q '"mem_model":"flat+hier"' BENCH_history.jsonl
grep -q '"mem_model":"flat"' BENCH_history.jsonl
grep -q '"mem_model":"hier"' BENCH_history.jsonl
# ...and both reconvergence models: the stack and its trajectories ride
# in the same record, keyed apart by their reconvergence field
grep -q '"reconvergence":"stack+its"' BENCH_history.jsonl
grep -q '"reconvergence":"stack"' BENCH_history.jsonl
grep -q '"reconvergence":"its"' BENCH_history.jsonl
# the 1000+-block stress kernel is part of the smoke gate: a full meld
# pass at that scale must finish inside the CI budget, and its pass_ms
# lands in the history so bench-diff tracks the compile-time trajectory
grep -q '"kernel":"STRESS1K"' BENCH_history.jsonl

# regression sentinel: the history must schema-validate, an identical
# re-run must pass the diff, and a synthetically inflated candidate
# (every opt_cycles gains a trailing zero = exact 10x) must trip it
dune exec bin/darm_opt.exe -- bench-diff --validate-only
dune exec bin/darm_opt.exe -- bench-diff
hist_inflated=$(mktemp /tmp/darm_hist_inflated.XXXXXX.jsonl)
sed 's/"opt_cycles":\([0-9]*\)/"opt_cycles":\10/g' BENCH_history.jsonl \
  > "$hist_inflated"
if dune exec bin/darm_opt.exe -- bench-diff \
    --history "$hist_inflated" --baseline-history BENCH_history.jsonl; then
  echo "ci: bench-diff sentinel failed to fire on 10x cycle inflation" >&2
  rm -f "$hist_inflated"; exit 1
fi
rm -f "$hist_inflated"

# the sentinel gates the hierarchical trajectory independently:
# inflating ONLY the hier entries' opt_cycles must also trip it
hist_hier_inflated=$(mktemp /tmp/darm_hist_hier_inflated.XXXXXX.jsonl)
sed 's/\("mem_model":"hier",[^{}]*"opt_cycles":[0-9]*\)/\10/g' \
  BENCH_history.jsonl > "$hist_hier_inflated"
if cmp -s BENCH_history.jsonl "$hist_hier_inflated"; then
  echo "ci: hier-entry inflation sed matched nothing" >&2
  rm -f "$hist_hier_inflated"; exit 1
fi
if dune exec bin/darm_opt.exe -- bench-diff \
    --history "$hist_hier_inflated" --baseline-history BENCH_history.jsonl; then
  echo "ci: bench-diff sentinel failed to fire on hier-only inflation" >&2
  rm -f "$hist_hier_inflated"; exit 1
fi
rm -f "$hist_hier_inflated"

# ...and the independent-thread-scheduling trajectory: inflating ONLY
# the its entries' opt_cycles must also trip it
hist_its_inflated=$(mktemp /tmp/darm_hist_its_inflated.XXXXXX.jsonl)
sed 's/\("reconvergence":"its",[^{}]*"opt_cycles":[0-9]*\)/\10/g' \
  BENCH_history.jsonl > "$hist_its_inflated"
if cmp -s BENCH_history.jsonl "$hist_its_inflated"; then
  echo "ci: its-entry inflation sed matched nothing" >&2
  rm -f "$hist_its_inflated"; exit 1
fi
if dune exec bin/darm_opt.exe -- bench-diff \
    --history "$hist_its_inflated" --baseline-history BENCH_history.jsonl; then
  echo "ci: bench-diff sentinel failed to fire on its-only inflation" >&2
  rm -f "$hist_its_inflated"; exit 1
fi
rm -f "$hist_its_inflated"

# a history path that is a directory is a load error: exit 2, naming
# the path
hist_dir=$(mktemp -d /tmp/darm_hist_dir.XXXXXX)
hist_dir_rc=0
dune exec bin/darm_opt.exe -- bench-diff --history "$hist_dir" \
  2> "$hist_dir/err" || hist_dir_rc=$?
if [ "$hist_dir_rc" -ne 2 ]; then
  echo "ci: bench-diff exited $hist_dir_rc on a directory history, expected 2" >&2
  rm -rf "$hist_dir"; exit 1
fi
grep -qF "$hist_dir: is a directory" "$hist_dir/err"
rm -rf "$hist_dir"

# divergence attribution: the report must be byte-identical for any
# --jobs count, and must join melds with per-branch counters
dune exec bin/darm_opt.exe -- report --all -j 1 > /tmp/darm_report_j1.txt
dune exec bin/darm_opt.exe -- report --all -j 4 > /tmp/darm_report_j4.txt
cmp /tmp/darm_report_j1.txt /tmp/darm_report_j4.txt
grep -q 'per-meld attribution' /tmp/darm_report_j1.txt
dune exec bin/darm_opt.exe -- report --kernel BIT --block-size 64 --json \
  > /tmp/darm_report_bit.json
grep -q '"schema":"darm-report-v2"' /tmp/darm_report_bit.json
grep -q '"cycles_saved"' /tmp/darm_report_bit.json
rm -f /tmp/darm_report_j1.txt /tmp/darm_report_j4.txt /tmp/darm_report_bit.json

# memory-model observability: the default model is flat and spelling
# it out changes nothing; the hierarchical model must classify every
# access (per-site table + exact-sum residual line), stay byte-identical
# across --jobs, and export its schema'd counters
dune exec bin/darm_opt.exe -- report --all --mem-model flat -j 4 \
  > /tmp/darm_report_flat.txt
dune exec bin/darm_opt.exe -- report --all -j 4 > /tmp/darm_report_dflt.txt
cmp /tmp/darm_report_dflt.txt /tmp/darm_report_flat.txt
dune exec bin/darm_opt.exe -- report --all --mem-model hier -j 1 \
  > /tmp/darm_report_hier_j1.txt
dune exec bin/darm_opt.exe -- report --all --mem-model hier -j 4 \
  > /tmp/darm_report_hier_j4.txt
cmp /tmp/darm_report_hier_j1.txt /tmp/darm_report_hier_j4.txt
grep -q 'memory (hier model)' /tmp/darm_report_hier_j1.txt
grep -q 'non-memory residual' /tmp/darm_report_hier_j1.txt
dune exec bin/darm_opt.exe -- report --kernel BIT --block-size 64 \
  --mem-model hier --json > /tmp/darm_report_bit_hier.json
grep -q '"mem_model":"hier"' /tmp/darm_report_bit_hier.json
grep -q '"mem_sites"' /tmp/darm_report_bit_hier.json
dune exec bin/darm_opt.exe -- report --kernel BIT --block-size 64 \
  --mem-model hier --metrics-out /tmp/darm_metrics_hier.json
grep -q 'sim_l1_hits_total' /tmp/darm_metrics_hier.json
grep -q 'sim_site_cycles_total' /tmp/darm_metrics_hier.json
rm -f /tmp/darm_report_flat.txt /tmp/darm_report_dflt.txt \
  /tmp/darm_report_hier_j1.txt /tmp/darm_report_hier_j4.txt \
  /tmp/darm_report_bit_hier.json /tmp/darm_metrics_hier.json

# reconvergence models (doc/simulation.md): the default is the SIMT
# stack and spelling it out changes nothing; independent thread
# scheduling must run the whole matrix byte-identically across --jobs,
# compose with the hierarchical memory model, and tag its reports
dune exec bin/darm_opt.exe -- report --all --reconvergence stack -j 4 \
  > /tmp/darm_report_rc_stack.txt
dune exec bin/darm_opt.exe -- report --all -j 4 > /tmp/darm_report_rc_dflt.txt
cmp /tmp/darm_report_rc_dflt.txt /tmp/darm_report_rc_stack.txt
dune exec bin/darm_opt.exe -- report --all --reconvergence its -j 1 \
  > /tmp/darm_report_its_j1.txt
dune exec bin/darm_opt.exe -- report --all --reconvergence its -j 4 \
  > /tmp/darm_report_its_j4.txt
cmp /tmp/darm_report_its_j1.txt /tmp/darm_report_its_j4.txt
grep -q 'its reconvergence' /tmp/darm_report_its_j1.txt
dune exec bin/darm_opt.exe -- report --kernel BIT --block-size 64 \
  --reconvergence its --json > /tmp/darm_report_bit_its.json
grep -q '"reconvergence":"its"' /tmp/darm_report_bit_its.json
dune exec bin/darm_opt.exe -- simulate --kernel SB3 --mem-model hier \
  --reconvergence its > /tmp/darm_sim_hier_its.txt
grep -q 'output correct' /tmp/darm_sim_hier_its.txt
rm -f /tmp/darm_report_rc_stack.txt /tmp/darm_report_rc_dflt.txt \
  /tmp/darm_report_its_j1.txt /tmp/darm_report_its_j4.txt \
  /tmp/darm_report_bit_its.json /tmp/darm_sim_hier_its.txt

# simulator correctness through the layer ledger (ledger/README.md): one
# round of the 53-point paper matrix, base and DARM simulated under all
# four machine models with every output checked against the host
# reference, must report no failure and reproduce the recorded
# default-model geomean, 1.392x
ledger_out=$(mktemp /tmp/darm_ledger.XXXXXX.txt)
bash ledger/ledger.sh --workload paper-sim --seed 2022 --seconds 0 \
  --trace 0 > "$ledger_out"
ledger_last=$(tail -n 1 "$ledger_out")
rm -f "$ledger_out"
case "$ledger_last" in
  *'"failed":0,'*) ;;
  *) echo "ci: ledger paper-sim reported failures: $ledger_last" >&2; exit 1 ;;
esac
ledger_gm=$(sed -n \
  's/.*"speedup_gm\.flat_stack":{"value":\([0-9.eE+-]*\).*/\1/p' \
  <<< "$ledger_last")
if [ "$(printf '%.3f' "$ledger_gm")" != "1.392" ]; then
  echo "ci: ledger speedup_gm.flat_stack is $ledger_gm, expected 1.392" >&2
  exit 1
fi
# ... and one round of compile-large, the only path that parses, checks,
# melds, verifies and simulates 450+-block kernels (about 2 s a round)
ledger_out=$(mktemp /tmp/darm_ledger.XXXXXX.txt)
bash ledger/ledger.sh --workload compile-large --seed 1 --seconds 0 \
  --trace 0 > "$ledger_out"
ledger_last=$(tail -n 1 "$ledger_out")
rm -f "$ledger_out"
case "$ledger_last" in
  *'"failed":0,'*) ;;
  *) echo "ci: ledger compile-large reported failures: $ledger_last" >&2; exit 1 ;;
esac
# ... and one round of fleet-warm: 784 fuzz specs served from the cache
# its set-up filled, each warm Batch.run output line required to equal
# the cold fill's byte for byte.  A warm hit costs Gen, printing and the
# key digest, so this is the stage that sees a change to the printed IR
ledger_out=$(mktemp /tmp/darm_ledger.XXXXXX.txt)
bash ledger/ledger.sh --workload fleet-warm --seed 1 --seconds 0 \
  --trace 0 > "$ledger_out"
ledger_last=$(tail -n 1 "$ledger_out")
rm -f "$ledger_out"
case "$ledger_last" in
  *'"failed":0,'*) ;;
  *) echo "ci: ledger fleet-warm reported failures: $ledger_last" >&2; exit 1 ;;
esac

# sanity checkers: every registry kernel must be diagnostic-clean both
# before and after melding (non-zero exit on any error diagnostic), and
# the seeded negative kernels must be flagged with the expected ids
dune exec bin/darm_opt.exe -- check --all
dune exec bin/darm_opt.exe -- check --all --pass darm
if dune exec bin/darm_opt.exe -- check --kernel XBAR --block-size 64 \
    --json > /tmp/darm_check_xbar.json; then
  echo "ci: XBAR unexpectedly clean" >&2; exit 1
fi
grep -q '"id":"barrier-divergence"' /tmp/darm_check_xbar.json
if dune exec bin/darm_opt.exe -- check --kernel XRACE --block-size 64 \
    --json > /tmp/darm_check_xrace.json; then
  echo "ci: XRACE unexpectedly clean" >&2; exit 1
fi
grep -q '"id":"shared-race-ww"' /tmp/darm_check_xrace.json
if dune exec bin/darm_opt.exe -- check --kernel XRW --block-size 64 \
    --json > /tmp/darm_check_xrw.json; then
  echo "ci: XRW unexpectedly clean" >&2; exit 1
fi
grep -q '"id":"shared-race-rw"' /tmp/darm_check_xrw.json
rm -f /tmp/darm_check_xbar.json /tmp/darm_check_xrace.json /tmp/darm_check_xrw.json

# every example program runs to exit 0 (all five take under a second);
# four of them meld through a checked Pass.run, so a meld that adds a
# checker error to one of them fails here too
for ex in examples/*.ml; do
  if ! dune exec "./examples/$(basename "$ex" .ml).exe" > /dev/null; then
    echo "ci: example $ex failed" >&2; exit 1
  fi
done

# incremental analysis + similarity prefilter (doc/static-analysis.md):
# the prefilter is exact — disabling it (and changing the job count)
# must leave every meld decision, and therefore the whole attribution
# report, byte-identical; and the meld CLI must export the new
# darm_pass_* counter families
dune exec bin/darm_opt.exe -- report --all -j 1 > /tmp/darm_pref_on.txt
DARM_NO_PREFILTER=1 dune exec bin/darm_opt.exe -- report --all -j 4 \
  > /tmp/darm_pref_off.txt
cmp /tmp/darm_pref_on.txt /tmp/darm_pref_off.txt
rm -f /tmp/darm_pref_on.txt /tmp/darm_pref_off.txt
# ...and so must the ablation, the one runner of Alignment pairing and
# of the 0.05-0.6 threshold sweep; it collects no experiment points, so
# it appends no bench history
hist_lines=$(wc -l < BENCH_history.jsonl)
dune exec bench/main.exe -- ablation > /tmp/darm_abl_on.txt
DARM_NO_PREFILTER=1 dune exec bench/main.exe -- ablation \
  > /tmp/darm_abl_off.txt
cmp /tmp/darm_abl_on.txt /tmp/darm_abl_off.txt
test "$(wc -l < BENCH_history.jsonl)" -eq "$hist_lines"
rm -f /tmp/darm_abl_on.txt /tmp/darm_abl_off.txt
dune exec bin/darm_opt.exe -- meld --kernel BIT --pass darm \
  --metrics-out /tmp/darm_pass_metrics.prom > /tmp/darm_meld_bit.txt
grep -q ';; candidates:' /tmp/darm_meld_bit.txt
grep -q 'darm_pass_candidates_prefiltered_total' /tmp/darm_pass_metrics.prom
grep -q 'darm_pass_analysis_recomputes_avoided_total' /tmp/darm_pass_metrics.prom
grep -q 'darm_pass_regions_reused_total' /tmp/darm_pass_metrics.prom
rm -f /tmp/darm_pass_metrics.prom /tmp/darm_meld_bit.txt

# generative conformance fuzzing (doc/fuzzing.md): a time-boxed oracle
# matrix sweep (DARM_FUZZ_BUDGET seconds, smoke default), the regression
# corpus replayed against its recorded expectations, a --jobs
# determinism diff, and a mutation-kill probe — the oracle must flag a
# deliberately re-broken kernel
fuzz_budget="${DARM_FUZZ_BUDGET:-30}"
dune exec bin/darm_opt.exe -- fuzz --smoke --count 200 \
  --budget-s "$fuzz_budget" --jobs 4
dune exec bin/darm_opt.exe -- fuzz --replay test/corpus
dune exec bin/darm_opt.exe -- fuzz --smoke --count 10 --jobs 1 \
  > /tmp/darm_fuzz_j1.txt
dune exec bin/darm_opt.exe -- fuzz --smoke --count 10 --jobs 4 \
  > /tmp/darm_fuzz_j4.txt
cmp /tmp/darm_fuzz_j1.txt /tmp/darm_fuzz_j4.txt
rm -f /tmp/darm_fuzz_j1.txt /tmp/darm_fuzz_j4.txt
if dune exec bin/darm_opt.exe -- fuzz --smoke --count 5 --inject XBAR \
    > /tmp/darm_fuzz_inject.txt; then
  echo "ci: fuzz oracle missed an injected XBAR bug" >&2; exit 1
fi
grep -q 'checker:barrier-divergence' /tmp/darm_fuzz_inject.txt
rm -f /tmp/darm_fuzz_inject.txt
# failures print the same bytes at any --jobs, and a subject's failure
# text does not depend on the seeds run before it: an injected race is
# named by places in its own kernel
fuzz_dir=$(mktemp -d /tmp/darm_fuzz.XXXXXX)
for j in 1 4; do
  rc=0
  dune exec bin/darm_opt.exe -- fuzz --smoke --count 8 --inject XRW \
    --jobs "$j" > "$fuzz_dir/xrw_j$j.txt" || rc=$?
  test "$rc" -eq 1
done
cmp "$fuzz_dir/xrw_j1.txt" "$fuzz_dir/xrw_j4.txt"
rc=0
dune exec bin/darm_opt.exe -- fuzz --smoke --seed-start 3 --count 1 \
  --inject XRW > "$fuzz_dir/xrw_s3.txt" || rc=$?
test "$rc" -eq 1
grep '^FAIL subject=fuzz_3+XRW ' "$fuzz_dir/xrw_j4.txt" > "$fuzz_dir/xrw_3.txt"
test -s "$fuzz_dir/xrw_3.txt"
grep '^FAIL ' "$fuzz_dir/xrw_s3.txt" | cmp - "$fuzz_dir/xrw_3.txt"
# a block size the generated kernels cannot run at is refused before any
# seed runs: exit 2 with the manifest's message
for bs in 1024 0; do
  rc=0
  dune exec bin/darm_opt.exe -- fuzz --smoke -b "$bs" --count 1 \
    > /dev/null 2> "$fuzz_dir/bs.err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: fuzz -b $bs exited $rc, expected 2" >&2
    rm -rf "$fuzz_dir"; exit 1
  fi
  grep -q '^field "block_size" must be positive\|^block_size 1024 exceeds' \
    "$fuzz_dir/bs.err"
done
# a subject whose bug cannot be grafted fails, and has nothing to shrink
rc=0
dune exec bin/darm_opt.exe -- fuzz --inject XRACE --features none \
  --minimize --count 1 > "$fuzz_dir/nograft.txt" || rc=$?
test "$rc" -eq 1
grep -q '^FAIL subject=fuzz_0+XRACE ' "$fuzz_dir/nograft.txt"
if grep -q '^MINIMIZED \|^CORPUS ' "$fuzz_dir/nograft.txt"; then
  echo "ci: fuzz --minimize shrank a subject with no kernel" >&2
  rm -rf "$fuzz_dir"; exit 1
fi
# --minimize shrinks each failing subject into a corpus directory whose
# missing parents it creates, and the saved repro replays
rc=0
dune exec bin/darm_opt.exe -- fuzz --smoke --count 1 --inject XBAR \
  --minimize --corpus "$fuzz_dir/a/b" > "$fuzz_dir/min.txt" || rc=$?
test "$rc" -eq 1
test "$(grep -c '^CORPUS ' "$fuzz_dir/min.txt")" -eq 1
dune exec bin/darm_opt.exe -- fuzz --replay "$fuzz_dir/a/b"
rm -rf "$fuzz_dir"

# cross-model differential: every oracle run above already re-executes
# each subject under independent thread scheduling (the xmodel legs);
# this wider sweep pins >=1000 generator seeds through stack-vs-its
# memory-image comparison and must complete inside its budget
xmodel_budget="${DARM_XMODEL_BUDGET:-900}"
dune exec bin/darm_opt.exe -- fuzz --smoke --count 1000 \
  --budget-s "$xmodel_budget" --jobs 4 | tee /tmp/darm_fuzz_xmodel.txt
grep -q '1000/1000 seed(s), 0 failure(s)' /tmp/darm_fuzz_xmodel.txt
rm -f /tmp/darm_fuzz_xmodel.txt

# fleet-scale batch sweep (doc/fleet.md): a smoke fuzz manifest swept
# cold (jobs 1, empty cache) then warm (jobs 4) — the warm run must be
# served ~entirely from the result cache and replay byte-identical
# results, the history must gain batch throughput records the sentinel
# accepts, and a synthetically inflated wall-clock must trip the
# kernels/sec gate
batch_dir=$(mktemp -d /tmp/darm_batch.XXXXXX)
dune exec bin/darm_opt.exe -- batch --gen-fuzz 64 -m "$batch_dir/m.jsonl"
dune exec bin/darm_opt.exe -- batch -m "$batch_dir/m.jsonl" \
  -o "$batch_dir/cold.jsonl" --cache-dir "$batch_dir/cache" --jobs 1
dune exec bin/darm_opt.exe -- batch -m "$batch_dir/m.jsonl" \
  -o "$batch_dir/warm.jsonl" --cache-dir "$batch_dir/cache" --jobs 4 \
  | tee "$batch_dir/warm.txt"
grep -q 'hit-rate 100.0%' "$batch_dir/warm.txt"
cmp "$batch_dir/cold.jsonl" "$batch_dir/warm.jsonl"
test "$(wc -l < "$batch_dir/cold.jsonl")" -eq 64
grep -q '"schema":"darm-batchres-v1"' "$batch_dir/cold.jsonl"
grep -q '"batch"' BENCH_history.jsonl
# the cold run computed every spec, so its batch record carries the
# p99 pass-latency tail the sentinel gates
grep -q '"pass_ms_p99"' BENCH_history.jsonl
dune exec bin/darm_opt.exe -- bench-diff
sed 's/"wall_s":[0-9.]*/"wall_s":999999/g' BENCH_history.jsonl \
  > "$batch_dir/hist_slow.jsonl"
if dune exec bin/darm_opt.exe -- bench-diff \
    --history "$batch_dir/hist_slow.jsonl" \
    --baseline-history BENCH_history.jsonl; then
  echo "ci: bench-diff sentinel failed to fire on batch throughput collapse" >&2
  rm -rf "$batch_dir"; exit 1
fi
# a manifest with a non-positive size is refused when it is read: exit 2,
# naming the 1-based line, before any spec runs
printf '%s\n' '{"kind":"fuzz","seed":1}' '{"kind":"fuzz","seed":2,"block_size":0}' \
  > "$batch_dir/bad_size.jsonl"
bad_size_rc=0
dune exec bin/darm_opt.exe -- batch -m "$batch_dir/bad_size.jsonl" \
  -o "$batch_dir/bad_size.out.jsonl" --no-cache --no-history \
  2> "$batch_dir/bad_size.err" || bad_size_rc=$?
if [ "$bad_size_rc" -ne 2 ]; then
  echo "ci: batch exited $bad_size_rc on a zero block size, expected 2" >&2
  rm -rf "$batch_dir"; exit 1
fi
grep -q 'bad_size.jsonl:2:' "$batch_dir/bad_size.err"
# ...and so is a manifest path that is a directory
dir_rc=0
dune exec bin/darm_opt.exe -- batch -m "$batch_dir" \
  -o "$batch_dir/dir.out.jsonl" --no-cache --no-history \
  2> "$batch_dir/dir.err" || dir_rc=$?
if [ "$dir_rc" -ne 2 ]; then
  echo "ci: batch exited $dir_rc on a directory manifest, expected 2" >&2
  rm -rf "$batch_dir"; exit 1
fi
grep -qF "$batch_dir: is a directory" "$batch_dir/dir.err"
rm -rf "$batch_dir"

# fleet telemetry (doc/observability.md): two cold runs with separate
# fresh caches at different job counts must emit schema-valid event
# streams whose canonical forms are byte-identical, leave mid-run
# snapshots that validate in both renderings, and feed a top --once
# health view; an injected-bug manifest is tolerated by default and
# fatal under --fail-on-error
tel_dir=$(mktemp -d /tmp/darm_telemetry.XXXXXX)
dune exec bin/darm_opt.exe -- batch --gen-fuzz 48 -m "$tel_dir/m.jsonl"
dune exec bin/darm_opt.exe -- batch -m "$tel_dir/m.jsonl" \
  -o "$tel_dir/r1.jsonl" --cache-dir "$tel_dir/cache1" --jobs 1 \
  --events "$tel_dir/ev1.jsonl" --snapshot "$tel_dir/snap1" \
  --snapshot-cadence-s 0.2 --no-history
dune exec bin/darm_opt.exe -- batch -m "$tel_dir/m.jsonl" \
  -o "$tel_dir/r4.jsonl" --cache-dir "$tel_dir/cache4" --jobs 4 \
  --events "$tel_dir/ev4.jsonl" --snapshot "$tel_dir/snap4" \
  --snapshot-cadence-s 0.2 --no-history
dune exec bin/darm_opt.exe -- events "$tel_dir/ev1.jsonl" --validate-only
dune exec bin/darm_opt.exe -- events "$tel_dir/ev4.jsonl" --validate-only
dune exec bin/darm_opt.exe -- events "$tel_dir/ev1.jsonl" --canonical \
  > "$tel_dir/canon1.jsonl"
dune exec bin/darm_opt.exe -- events "$tel_dir/ev4.jsonl" --canonical \
  > "$tel_dir/canon4.jsonl"
cmp "$tel_dir/canon1.jsonl" "$tel_dir/canon4.jsonl"
grep -q '"schema":"darm-metrics-v1"' "$tel_dir/snap1.json"
grep -q 'darm_batch_pass_ms_bucket' "$tel_dir/snap1.prom"
dune exec bin/darm_opt.exe -- top --snapshot "$tel_dir/snap4" \
  --events "$tel_dir/ev4.jsonl" --once > "$tel_dir/top.txt"
grep -q 'kernels/s' "$tel_dir/top.txt"
grep -q 'p99' "$tel_dir/top.txt"
dune exec bin/darm_opt.exe -- batch --gen-fuzz 4 -m "$tel_dir/bad.jsonl" \
  --inject XBAR
dune exec bin/darm_opt.exe -- batch -m "$tel_dir/bad.jsonl" \
  -o "$tel_dir/bad.out.jsonl" --no-cache --no-history
if dune exec bin/darm_opt.exe -- batch -m "$tel_dir/bad.jsonl" \
    -o "$tel_dir/bad.out.jsonl" --no-cache --no-history --fail-on-error; then
  echo "ci: batch --fail-on-error missed an injected-bug manifest" >&2
  rm -rf "$tel_dir"; exit 1
fi
rm -rf "$tel_dir"

# darm_opt trace renders the simulator's obs timeline as text: every
# warp split is one warp.diverge line, so their count must equal the
# div_branches counter on its last (metrics) line
trace_txt=$(mktemp /tmp/darm_trace_txt.XXXXXX)
dune exec bin/darm_opt.exe -- trace -k BIT -n 256 > "$trace_txt"
trace_div=$(tail -n 1 "$trace_txt" | sed -n 's/.* div_branches=\([0-9]*\).*/\1/p')
trace_lines=$(grep -c ' warp\.diverge ' "$trace_txt" || true)
rm -f "$trace_txt"
if [ -z "$trace_div" ] || [ "$trace_lines" -ne "$trace_div" ]; then
  echo "ci: trace printed $trace_lines warp.diverge line(s), div_branches=$trace_div" >&2
  exit 1
fi

# textual IR round trip: a printed kernel parses back and reprints
# byte-identically; a directory is refused with a message naming it
ir_dir=$(mktemp -d /tmp/darm_ir.XXXXXX)
dune exec bin/darm_opt.exe -- show -k BIT > "$ir_dir/x.cir"
dune exec bin/darm_opt.exe -- parse "$ir_dir/x.cir" > "$ir_dir/y.cir"
cmp "$ir_dir/x.cir" "$ir_dir/y.cir"
if dune exec bin/darm_opt.exe -- parse "$ir_dir" > /dev/null \
    2> "$ir_dir/err"; then
  echo "ci: darm_opt parse accepted a directory" >&2
  rm -rf "$ir_dir"; exit 1
fi
grep -qF "$ir_dir: is a directory" "$ir_dir/err"
# text that parses but does not verify (a kernel with no blocks, a
# block with no terminator) is a parse error, exit 1, for parse and
# compile alike
printf 'kernel @f(%%a: ptr(global), %%b: ptr(global)) {}\n' \
  > "$ir_dir/empty.cir"
printf 'kernel @f(%%a: ptr(global), %%b: ptr(global)) {\nentry:\n  %%0 = thread.idx\n}\n' \
  > "$ir_dir/noterm.cir"
for bad in empty noterm; do
  for cmd in parse compile; do
    bad_rc=0
    dune exec bin/darm_opt.exe -- $cmd "$ir_dir/$bad.cir" > /dev/null \
      2> "$ir_dir/err" || bad_rc=$?
    if [ "$bad_rc" -ne 1 ] || ! grep -q '^parse error: ' "$ir_dir/err"; then
      echo "ci: darm_opt $cmd $bad.cir exited $bad_rc, expected 1 with a parse error" >&2
      cat "$ir_dir/err" >&2
      rm -rf "$ir_dir"; exit 1
    fi
  done
done
rm -rf "$ir_dir"

# one transform table names every pipeline step: an unknown name is
# refused with the same line, exit 2, by every command that takes one,
# and compile's cleanups entry is exactly simplify,constfold,dce
tt_dir=$(mktemp -d /tmp/darm_table.XXXXXX)
dune exec bin/darm_opt.exe -- show -k BIT > "$tt_dir/bit.cir"
for cmd in "meld -p foo" "simulate -p foo" "check -p foo" \
    "compile --passes foo $tt_dir/bit.cir"; do
  tt_rc=0
  # shellcheck disable=SC2086
  dune exec bin/darm_opt.exe -- $cmd > /dev/null 2> "$tt_dir/err" || tt_rc=$?
  if [ "$tt_rc" -ne 2 ]; then
    echo "ci: darm_opt $cmd exited $tt_rc, expected 2" >&2
    rm -rf "$tt_dir"; exit 1
  fi
  grep '^unknown pass' "$tt_dir/err" >> "$tt_dir/lines"
done
if [ "$(wc -l < "$tt_dir/lines")" -ne 4 ] || \
    [ "$(sort -u "$tt_dir/lines" | wc -l)" -ne 1 ]; then
  echo "ci: the unknown-pass lines differ across commands:" >&2
  cat "$tt_dir/lines" >&2
  rm -rf "$tt_dir"; exit 1
fi
dune exec bin/darm_opt.exe -- compile --passes cleanups,darm \
  "$tt_dir/bit.cir" > "$tt_dir/a.cir"
dune exec bin/darm_opt.exe -- compile --passes simplify,constfold,dce,darm \
  "$tt_dir/bit.cir" > "$tt_dir/b.cir"
cmp "$tt_dir/a.cir" "$tt_dir/b.cir"
rm -rf "$tt_dir"

# observability: profile one kernel end to end and validate the trace
trace=$(mktemp /tmp/darm_trace.XXXXXX.json)
trap 'rm -f "$trace"' EXIT
dune exec bin/darm_opt.exe -- profile --kernel BIT -n 256 \
  --format chrome --trace-out "$trace"
test -s "$trace"
grep -q '"traceEvents"' "$trace"
grep -q '"meld.decision"' "$trace"
grep -q '"warp.diverge"' "$trace"

echo "ci: OK"
