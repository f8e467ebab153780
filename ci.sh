#!/usr/bin/env bash
# CI entry point: build, test, lint, format check.
#
# Usage: ./ci.sh [--quick]
#   --quick   lighter property-test load (PROPTEST_CASES=32) for smoke runs
#
# Knobs respected by the test suite:
#   PROPTEST_CASES        per-test case count for property tests
#
# Speed is not gated here: the repo benchmark (`benchmark/`,
# BENCHMARK.json) measures it, in alternating pairs of runs.
set -euo pipefail
cd "$(dirname "$0")"

quick=false
if [[ "${1:-}" == "--quick" ]]; then
    quick=true
    export PROPTEST_CASES="${PROPTEST_CASES:-32}"
fi

echo "== cargo build --release --locked (a Cargo.lock that no longer matches the manifests fails here)"
cargo build --release --locked --workspace --all-targets

echo "== cargo test -q"
cargo test -q --workspace

echo "== terminal counts saturate in release, where [profile.release] has no overflow-checks"
cargo test --release -q -p twostep-modelcheck --lib explorer::tests::terminal_counts_saturate

if [[ "$quick" == false ]]; then
    echo "== independent memoized oracle, ignored cases: CRW (8, 7) and the classic baselines at (5, 4), release (not under --quick)"
    cargo test --release -q -p twostep-modelcheck --test naive_oracle -- --ignored
    echo "== bivalence shift B(n,t,r) = B(n-1,t-1,r-1), ignored case, with the spec and worst round = f+1 on every rung: CRW up to (10, 9), (8, 6) and (9, 6), release (not under --quick)"
    cargo test --release -q -p twostep-modelcheck --test crw_exhaustive -- --ignored
    echo "== engine matrix, ignored rung row: CRW up to (8, 7) on five engines in both symmetry modes, release (not under --quick)"
    cargo test --release -q -p twostep-modelcheck --test engines -- --ignored
    echo "== block traffic, ignored case: the exact BlockCounts and blocks stored of the serial CRW (8, 7) walk in both symmetry modes, release (not under --quick)"
    cargo test --release -q -p twostep-modelcheck --lib explorer::tests::block_traffic_at_8_7_is_pinned -- --ignored
fi

echo "== benchmark harness tests (the only build of benchmark/src/adapter.rs outside the benchmark)"
# The root workspace does not build `benchmark/`, so a library name its
# adapter pins (its header lists them) can be lost without anything
# above noticing.
cargo test --offline --locked -q --manifest-path benchmark/Cargo.toml

echo "== file-length tripwire (crates/modelcheck/src and tests: no file over 2000 lines)"
# Longest today: spill.rs (about 1 860 lines, 800 of them tests),
# explorer/tests.rs (about 1 850), memo.rs (about 1 750, 810 of them
# tests), dist.rs (about 1 730) and explorer/round.rs (about
# 1 660; its tests are in explorer/round/tests.rs).  The longest test
# file is tests/naive_oracle.rs (about 730); the engine binary under
# tests/engines/ grows by modules, not by one file.
longest="$(find crates/modelcheck/src crates/modelcheck/tests -name '*.rs' -print0 | xargs -0 wc -l | grep -v ' total$' | sort -rn | head -5)"
echo "$longest"
if (( $(awk 'NR == 1 { print $1 }' <<<"$longest") > 2000 )); then
    echo "FAIL: a file under crates/modelcheck/{src,tests} exceeds 2000 lines — split it along a seam" >&2
    exit 1
fi

echo "== environment tripwire (a run is configured by its arguments: no env::var outside the proptest shim)"
# A run's settings come from its call or its command line; the one
# environment read left is the proptest shim's PROPTEST_CASES, which
# belongs to the test harness, not to a run.
env_reads="$(grep -rn 'env::var' --include='*.rs' crates examples src tests | grep -v '^crates/shims/proptest/' || true)"
if [[ -n "$env_reads" ]]; then
    echo "$env_reads" >&2
    echo "FAIL: a program file reads the environment — take the setting as an argument" >&2
    exit 1
fi

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== partitioned exploration (2 worker processes, quick, both symmetry modes)"
dist_off_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry off)"
dist_pv_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --quick --partitions 2 --symmetry partial+value)"
grep '^twostep-dist: result' <<<"$dist_off_out"
grep '^twostep-dist: result' <<<"$dist_pv_out"
# Verdict equality across modes: everything except the state count —
# which symmetry exists to shrink — must agree.
verdict_of() { sed -n 's/^twostep-dist: result .*\(terminals=.*\)$/\1/p' <<<"$1"; }
states_of() { sed -n 's/^twostep-dist: result .* distinct_states=\([0-9]*\) .*/\1/p' <<<"$1"; }
if [[ "$(verdict_of "$dist_off_out")" != "$(verdict_of "$dist_pv_out")" ]]; then
    echo "FAIL: partial+value partitioned verdict differs from the raw one" >&2
    exit 1
fi
if (( $(states_of "$dist_pv_out") > $(states_of "$dist_off_out") )); then
    echo "FAIL: symmetry reduction must never add states" >&2
    exit 1
fi
echo "symmetry modes agree: $(verdict_of "$dist_off_out") ($(states_of "$dist_off_out") raw -> $(states_of "$dist_pv_out") partial+value orbit states)"

echo "== elastic steal run (forced policy, (6, 5)): a steal across OS processes, bit-identical to the classic engine"
# Zero warm-up + any-size frontier forces the full steal machinery over
# real OS worker processes — offload, preempt handshake, frontier
# re-split, seeded relaunch.  The quick (5, 4) system is walked before a
# worker is preempted; the default (6, 5) one steals in almost every
# run (about 85 ms each).  Every run's timing-free result line must
# match the classic partitioned (6, 5) run byte for byte, and at least
# one of up to three runs must really steal (`steals=` of 1 or more).
classic_65_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- --partitions 2 --symmetry off)"
classic_result="$(grep '^twostep-dist: result' <<<"$classic_65_out")"
echo "classic: $classic_result"
stole=false
for attempt in 1 2 3; do
    steal_out="$(cargo run --release -q -p twostep-bench --bin twostep-dist -- \
        --partitions 2 --symmetry off \
        --steal --steal-poll-ms 0 --steal-min-frontier 1 --steal-yield-every 64)"
    steal_line="$(grep '^twostep-dist: steal workers=' <<<"$steal_out")"
    steal_result="$(grep '^twostep-dist: result' <<<"$steal_out")"
    echo "steal $attempt: $steal_line"
    if [[ "$steal_result" != "$classic_result" ]]; then
        echo "steal:   $steal_result" >&2
        echo "FAIL: elastic steal report differs from the classic partitioned one" >&2
        exit 1
    fi
    if (( $(sed -n 's/.* steals=\([0-9]*\) .*/\1/p' <<<"$steal_line") >= 1 )); then
        stole=true
        break
    fi
done
if [[ "$stole" == false ]]; then
    echo "FAIL: the forced steal policy never stole in 3 runs — the preempt path was not exercised" >&2
    exit 1
fi
echo "elastic OK: a forced-steal run stole and is bit-identical to the classic engine"

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

echo "== fault storm (quick): retry exhaustion with --no-degrade fails loudly and tears down"
# The same storm with degradation off must fail the run with partition
# 0's error, and the coordinator must tear down by cancelling partition
# 1, which sleeps 5 s at each of its four phases, not by waiting ~20 s
# for it: a hang, or a wait, is timeout's 124.
nodegrade_code=0
nodegrade_err="$(timeout 15 cargo run --release -q -p twostep-bench --bin twostep-dist -- \
    --quick --partitions 2 --no-degrade --backoff-ms 1 \
    --fault 'p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed;p1a0=slow-io(5000)' \
    2>&1 >/dev/null)" || nodegrade_code=$?
if [[ "$nodegrade_code" == 0 || "$nodegrade_code" == 124 ]]; then
    echo "FAIL: --no-degrade exhaustion exited $nodegrade_code, want a failure that is not a timeout" >&2
    exit 1
fi
grep '^twostep-dist: partition 0 worker failed every attempt' <<<"$nodegrade_err" \
    || { echo "FAIL: --no-degrade exhaustion must name partition 0's failure" >&2; exit 1; }
echo "fault storm OK: --no-degrade exhaustion failed loudly (exit $nodegrade_code) and tore down"

# Every segment a run commits is stored as written: format version 6
# (header bytes 8-11, little-endian; records whose integers are
# varints) and a flags byte (header byte 20) of 0 — no frontier flag on
# a memo segment, and no bit from an older format.
check_segment_headers() {
    local seg version flags checked=0
    for seg in "$1"/*.seg; do
        [[ -e "$seg" ]] || continue
        version="$(od --endian=little -An -tu4 -j8 -N4 "$seg" | tr -d ' ')"
        flags="$(od -An -tu1 -j20 -N1 "$seg" | tr -d ' ')"
        if [[ "$version" != 6 || "$flags" != 0 ]]; then
            echo "FAIL: $seg: header version=$version flags=$flags, want version=6 flags=0" >&2
            exit 1
        fi
        checked=$((checked + 1))
    done
    (( checked > 0 )) || { echo "FAIL: no segment in $1 to check" >&2; exit 1; }
    echo "segment headers OK: $checked in $1 at version 6, flags 0"
}

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
check_segment_headers "$CACHE_DIR"

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
compgen -G "$CKPT_DIR/manifest.*" >/dev/null && compgen -G "$CKPT_DIR/*.seg" >/dev/null \
    || { echo "FAIL: suspension left no manifest and segment in $CKPT_DIR" >&2; exit 1; }
check_segment_headers "$CKPT_DIR"
# Resume without a deadline: the composed report must be byte-identical
# to the uninterrupted run of the same system from earlier in this
# script, and the consumed checkpoint must leave its directory empty: no
# manifest listing a resume segment, no segment file.
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
if [[ -n "$(ls -A "$CKPT_DIR")" ]]; then
    echo "FAIL: successful resume must consume the checkpoint, left: $(ls -A "$CKPT_DIR")" >&2
    exit 1
fi
echo "checkpoint OK: suspended at reason=deadline, resumed to an identical report"

echo "== allocation probe (budget unarmed and armed, the quotient, and a 2%-hot spilling walk, pinned to their allocs/state budgets)"
cargo run --release -q --example alloc_probe
if [[ "$quick" == false ]]; then
    echo "== allocation probe at (8, 7), where the walker's block cache grows (about 5 s; not under --quick)"
    cargo run --release -q --example alloc_probe -- 8 7
fi

echo "CI OK"
