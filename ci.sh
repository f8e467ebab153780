#!/usr/bin/env bash
# CI entry point: build, test, lint, format check.
#
# Usage: ./ci.sh [--quick]
#   --quick   lighter property-test load (PROPTEST_CASES=32) for smoke runs
#
# Knobs respected by the test suite:
#   TWOSTEP_THREADS       worker count for sweeps + the parallel explorer
#   PROPTEST_CASES        per-test case count for property tests
#   CRITERION_SAMPLES     samples per benchmark (criterion benches are not
#                         run here; the quick explorer bench below is)
#   TWOSTEP_BENCH_N/T     (n, t) for the explorer bench (raise toward (7, 6)
#                         as runners allow)
#   TWOSTEP_DONATE_DEPTH  donation cutoff for the bench's "donate" row
#   TWOSTEP_BENCH_SKIP_GATE=1  skip the same-run symmetry wall-clock gate
#                         (escape hatch for slow or heavily shared runners)
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--quick" ]]; then
    export PROPTEST_CASES="${PROPTEST_CASES:-32}"
fi

echo "== cargo build --release"
cargo build --release --workspace --all-targets

echo "== cargo test -q"
cargo test -q --workspace

echo "== benchmark harness tests (the only build of benchmark/src/adapter.rs outside the benchmark)"
# The root workspace does not build `benchmark/`, so a library name its
# adapter pins (its header lists them) can be lost without anything
# above noticing.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== file-length tripwire (crates/modelcheck/src: no file over 2000 lines)"
# Longest today: spill.rs, then explorer/tests.rs and explorer/round.rs
# (about 1 720 each) and dist.rs (about 1 650).
longest="$(find crates/modelcheck/src -name '*.rs' -print0 | xargs -0 wc -l | grep -v ' total$' | sort -rn | head -5)"
echo "$longest"
if (( $(awk 'NR == 1 { print $1 }' <<<"$longest") > 2000 )); then
    echo "FAIL: a file under crates/modelcheck/src exceeds 2000 lines — split it along a seam" >&2
    exit 1
fi

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p twostep-modelcheck -p twostep-sim -p twostep-bench

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== explorer bench (quick) -> BENCH_explorer.json (+ BENCH_history.jsonl)"
# The perf gate below is a same-run ratio: both rows come from this one
# bench invocation.  Nothing is compared with the committed
# BENCH_explorer.json — on 7 ms (6,5) rows a cross-commit floor sits
# inside the run-to-run noise of an unchanged build (ROADMAP 2(a));
# speed across commits is held by the repo benchmark's alternating pairs.
commit_sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
cargo run --release -q -p twostep-bench --bin explorer_bench -- --quick \
    --history BENCH_history.jsonl --commit "$commit_sha"
cat BENCH_explorer.json

echo "== symmetry row: both modes ran, verdicts identical"
# The bench runs the pinned system with symmetry off (the baseline
# rows) and at the strongest sound tier (the `symmetry` row,
# partial+value for CRW) and asserts the verdict summaries are equal
# in-process; the marker it writes is the committed witness of that
# assertion, so its absence means the symmetry row silently
# disappeared.
grep '"engine": "symmetry"' BENCH_explorer.json >/dev/null \
    || { echo "FAIL: BENCH_explorer.json is missing the symmetry row" >&2; exit 1; }
grep '"verdicts_identical": true' BENCH_explorer.json >/dev/null \
    || { echo "FAIL: symmetry row lost its verdict-equality witness" >&2; exit 1; }
sed -n 's/.*"symmetry": {\("mode[^}]*\)}.*/symmetry OK: \1/p' BENCH_explorer.json

echo "== perf gate (symmetry wall clock within 25% of the serial walk, same run)"
# The quotient exists to win on wall clock, and at scale it does: since
# the orbit-level classes the repo benchmark's crw8-quotient runs at
# about 0.6x crw8-cold, which is where that claim is measured and held.
# This gate is only a tripwire on the pinned quick system, a 7 ms (6,5)
# row where fixed costs dominate and the two walks differ by less than
# the row's noise: a same-run ratio with a stated tolerance — both rows
# come from one bench invocation (same machine state, best-of-N), and one
# full symmetry-reduced exploration
# may cost at most 1.25x the serial walk it stands in for.  The ceiling
# stays at 1.25x until ROADMAP item 2(a) re-bases the quick bench at a
# size where the quotient's gain shows.  A cross-commit absolute (the
# old "beats the committed serial row") turns every serial speed-up
# into a spurious symmetry failure on the next PR.
new_symmetry_seconds="$(sed -n 's/.*"engine": "symmetry".*"best_seconds": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
new_serial_seconds="$(sed -n 's/.*"engine": "serial".*"best_seconds": \([0-9.]*\).*/\1/p' BENCH_explorer.json | head -1)"
if [[ -z "$new_symmetry_seconds" || -z "$new_serial_seconds" ]]; then
    echo "FAIL: symmetry wall-clock gate could not parse best_seconds" >&2
    echo "      (serial='$new_serial_seconds', symmetry='$new_symmetry_seconds') — update the sed extraction in ci.sh alongside the bench JSON format." >&2
    exit 1
elif [[ "${TWOSTEP_BENCH_SKIP_GATE:-0}" == "1" ]]; then
    echo "symmetry wall-clock gate skipped (TWOSTEP_BENCH_SKIP_GATE=1): symmetry=$new_symmetry_seconds s, serial=$new_serial_seconds s"
else
    awk -v sym="$new_symmetry_seconds" -v serial="$new_serial_seconds" 'BEGIN {
        ceiling = 1.25 * serial;
        if (sym > ceiling) {
            printf "FAIL: symmetry-reduced exploration (%.6f s) costs more than 1.25x the same-run serial walk (%.6f s, ceiling %.6f s).\n", sym, serial, ceiling;
            exit 1;
        }
        printf "symmetry wall-clock gate OK: %.6f s vs same-run serial %.6f s (ceiling %.6f s)\n", sym, serial, ceiling;
    }' >&2 || exit 1
fi

echo "== partitioned exploration (2 worker processes, quick, all symmetry strengths)"
dist_off_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry off)"
dist_full_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry full)"
dist_pv_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry partial+value)"
grep '^twostep-dist: result' <<<"$dist_off_out"
grep '^twostep-dist: result' <<<"$dist_full_out"
grep '^twostep-dist: result' <<<"$dist_pv_out"
# Verdict equality across modes: everything except the state count —
# which symmetry exists to shrink — must agree at every strength.
verdict_of() { sed -n 's/^twostep-dist: result .*\(terminals=.*\)$/\1/p' <<<"$1"; }
states_of() { sed -n 's/^twostep-dist: result .* distinct_states=\([0-9]*\) .*/\1/p' <<<"$1"; }
if [[ "$(verdict_of "$dist_off_out")" != "$(verdict_of "$dist_full_out")" ]]; then
    echo "FAIL: symmetry-reduced partitioned verdict differs from the raw one" >&2
    exit 1
fi
if [[ "$(verdict_of "$dist_off_out")" != "$(verdict_of "$dist_pv_out")" ]]; then
    echo "FAIL: partial+value partitioned verdict differs from the raw one" >&2
    exit 1
fi
# The deeper quotient must shrink monotonically:
# distinct(partial+value) <= distinct(full) <= distinct(off).
if (( $(states_of "$dist_full_out") > $(states_of "$dist_off_out") )); then
    echo "FAIL: symmetry reduction must never add states" >&2
    exit 1
fi
if (( $(states_of "$dist_pv_out") > $(states_of "$dist_full_out") )); then
    echo "FAIL: the partial+value quotient must be at least as coarse as full" >&2
    exit 1
fi
echo "symmetry modes agree: $(verdict_of "$dist_off_out") ($(states_of "$dist_off_out") raw -> $(states_of "$dist_full_out") settled -> $(states_of "$dist_pv_out") partial+value orbit states)"

echo "== elastic steal run (forced policy, quick): bit-identical to the classic engine"
# Zero warm-up + any-size frontier forces the full steal machinery over
# real OS worker processes — offload, preempt handshake, frontier
# re-split, seeded relaunch — on the same quick system; the timing-free
# result line must match the classic partitioned run byte for byte.
steal_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off \
    --steal --steal-poll-ms 0 --steal-min-frontier 1 --steal-yield-every 64)"
grep '^twostep-dist: steal workers=' <<<"$steal_out"
grep '^twostep-dist: steal workers=.* offloaded=true' <<<"$steal_out" >/dev/null \
    || { echo "FAIL: forced steal policy never offloaded — the elastic path was not exercised" >&2; exit 1; }
steal_result="$(grep '^twostep-dist: result' <<<"$steal_out")"
classic_result="$(grep '^twostep-dist: result' <<<"$dist_off_out")"
echo "steal:   $steal_result"
echo "classic: $classic_result"
if [[ "$steal_result" != "$classic_result" ]]; then
    echo "FAIL: elastic steal report differs from the classic partitioned one" >&2
    exit 1
fi
echo "elastic OK: forced-steal run is bit-identical to the classic engine"

echo "== fault storm (quick): crash + corrupt + hang survive retries, report untouched"
# A survivable chaos plan over the same quick system: partition 0 crashes
# mid-walk on its first launch and hangs on its second (ended by the
# 2-second attempt timeout), partition 1 corrupts its first export
# (caught by the segment checksum).  Both recover within the 3-attempt
# budget, so the timing-free result line must be byte-identical to the
# clean run above and the supervision marker must show zero degraded
# partitions.
storm_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --attempt-timeout-ms 2000 --backoff-ms 1 \
    --fault 'p0a0=crash@walk;p0a1=hang@walk;p1a0=corrupt-export' 2>/dev/null)"
storm_result="$(grep '^twostep-dist: result' <<<"$storm_out")"
clean_result="$(grep '^twostep-dist: result' <<<"$dist_off_out")"
echo "storm: $storm_result"
echo "clean: $clean_result"
if [[ "$storm_result" != "$clean_result" ]]; then
    echo "FAIL: fault-storm report differs from the clean run" >&2
    exit 1
fi
grep '^twostep-dist: supervision degraded=0 ' <<<"$storm_out" >/dev/null \
    || { echo "FAIL: survivable fault storm must not degrade any partition" >&2; exit 1; }
echo "fault storm OK: survivable chaos is report-invisible (degraded=0)"

echo "== fault storm (quick): retry exhaustion degrades to a local walk, report untouched"
# Partition 0 crashes on every one of its 3 launch attempts; the
# coordinator must give up on remote execution, walk that partition
# locally, and still produce the identical report — degradation, not
# failure.
exhaust_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --backoff-ms 1 \
    --fault 'p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed' 2>/dev/null)"
exhaust_result="$(grep '^twostep-dist: result' <<<"$exhaust_out")"
echo "degraded: $exhaust_result"
echo "clean:    $clean_result"
if [[ "$exhaust_result" != "$clean_result" ]]; then
    echo "FAIL: degraded (locally walked) report differs from the clean run" >&2
    exit 1
fi
grep '^twostep-dist: supervision degraded=1 ' <<<"$exhaust_out" >/dev/null \
    || { echo "FAIL: retry exhaustion must report exactly one degraded partition" >&2; exit 1; }
echo "fault storm OK: retry exhaustion degraded to a local walk (degraded=1), report identical"

echo "== persistent cache: cold-then-warm partitioned exploration (quick)"
CACHE_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR"' EXIT
cold_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --cache-dir "$CACHE_DIR")"
warm_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --cache-dir "$CACHE_DIR")"
cold_result="$(grep '^twostep-dist: result' <<<"$cold_out")"
warm_result="$(grep '^twostep-dist: result' <<<"$warm_out")"
echo "cold: $cold_result"
echo "warm: $warm_result"
if [[ "$cold_result" != "$warm_result" ]]; then
    echo "FAIL: warm cached report differs from cold report" >&2
    exit 1
fi
grep '^twostep-dist: cache cache_hits=0 ' <<<"$cold_out" >/dev/null \
    || { echo "FAIL: cold run must start with zero cache hits" >&2; exit 1; }
distinct="$(sed -n 's/.* distinct_states=\([0-9]*\).*/\1/p' <<<"$warm_result")"
grep "^twostep-dist: cache cache_hits=$distinct fresh_states=0$" <<<"$warm_out" >/dev/null \
    || { echo "FAIL: warm run must be answered entirely by the cache" >&2; exit 1; }
echo "cache OK: warm run reused all $distinct states"

echo "== checkpoint/resume: deadline-interrupted then resumed partitioned run (quick)"
CKPT_DIR="$(mktemp -d)"
trap 'rm -rf "$CACHE_DIR" "$CKPT_DIR"' EXIT
# An already-hopeless 1ms deadline over the whole pipeline: the run must
# suspend (exit 3) at a phase boundary with a parseable line and a
# resumable artifact, never a hard failure.
set +e
suspended_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --deadline-ms 1 --checkpoint-dir "$CKPT_DIR")"
suspended_code=$?
set -e
if [[ "$suspended_code" != "3" ]]; then
    echo "FAIL: deadline-budgeted run should suspend with exit 3, got $suspended_code" >&2
    echo "$suspended_out" >&2
    exit 1
fi
grep '^twostep-dist: suspended reason=deadline .*checkpoint=' <<<"$suspended_out" >/dev/null \
    || { echo "FAIL: suspended run must print a parseable suspension line" >&2; exit 1; }
[[ -f "$CKPT_DIR/manifest.twockpt" ]] \
    || { echo "FAIL: suspension left no checkpoint manifest in $CKPT_DIR" >&2; exit 1; }
# Resume without a deadline: the composed report must be byte-identical
# to the uninterrupted run of the same system from earlier in this
# script, and the consumed artifact must be gone.
resumed_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --symmetry off --checkpoint-dir "$CKPT_DIR")"
resumed_result="$(grep '^twostep-dist: result' <<<"$resumed_out")"
uninterrupted_result="$(grep '^twostep-dist: result' <<<"$dist_off_out")"
echo "resumed:       $resumed_result"
echo "uninterrupted: $uninterrupted_result"
if [[ "$resumed_result" != "$uninterrupted_result" ]]; then
    echo "FAIL: resumed report differs from the uninterrupted one" >&2
    exit 1
fi
if [[ -f "$CKPT_DIR/manifest.twockpt" ]]; then
    echo "FAIL: successful resume must consume the checkpoint artifact" >&2
    exit 1
fi
echo "checkpoint OK: suspended at reason=deadline, resumed to an identical report"

echo "== allocation probe (budget unarmed and armed, and the quotient, pinned to the allocs/state budget)"
cargo run --release -q --example alloc_probe

echo "CI OK"
