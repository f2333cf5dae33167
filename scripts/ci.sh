#!/usr/bin/env bash
# Tier-1 gate: offline build, full test suite, a bounded wire-codec fuzz,
# smoke runs of the kernel, EM, fault and wire benchmarks (the first two
# assert agreement against naive/row-at-a-time references internally,
# bench_em additionally asserts worker-count bit-determinism, and bench_wire
# asserts the encoded-size contract plus bitwise decode), and the
# observability smoke: collect Chrome traces from the smoke benches and from
# a traced two-engine sPCA run, then validate all of them with the std-only
# trace_check (strict JSON + traceEvents key; benchmark result JSON is
# validated via --plain). The fit-running producers (bench_faults,
# trace_report, spca-cli) additionally write RUN_*.json run ledgers, which
# perf_gate diffs against the committed baselines in results/baselines/.
set -euo pipefail
cd "$(dirname "$0")/.."

TRACE_DIR="${TRACE_DIR:-/tmp/spca-traces}"
mkdir -p "$TRACE_DIR"

# Every benchmark artifact the docs reference must actually be committed —
# a BENCH_*.json mentioned in README/DESIGN but absent at the repo root
# fails the gate (this is how BENCH_faults.json went missing once).
missing=0
for ref in $(grep -ohE 'BENCH_[A-Za-z0-9_]+\.json' README.md DESIGN.md | sort -u); do
    if [[ ! -f "$ref" ]]; then
        echo "ci: docs reference $ref but it is not committed at the repo root" >&2
        missing=1
    fi
done
# Same for DESIGN.md §4's crate layout: every `*.rs` it names (plain, or
# `dir/{a,b}.rs`) must exist under the `src/` of the crate whose row it is
# on, or under `examples/` (this is how `emitter.rs` and `accumulator.rs`
# stayed listed for ten PRs without ever existing).
dir=""
while IFS= read -r line; do
    if [[ "$line" =~ ^\ \ ([a-z]+)/\  ]]; then
        dir="crates/${BASH_REMATCH[1]}/src"
    elif [[ "$line" =~ ^([a-z]+)/\  ]]; then
        dir="${BASH_REMATCH[1]}"
    fi
    for token in $(grep -oE '[A-Za-z0-9_/{},]+\.rs' <<<"$line" || true); do
        for file in $(eval echo "$token"); do
            if [[ ! -f "$dir/$file" ]]; then
                echo "ci: DESIGN.md §4 lists $file but $dir/$file does not exist" >&2
                missing=1
            fi
        done
    done
done < <(sed -n '/^## 4\. Crate layout/,/^## 5\./p' DESIGN.md | sed -n '/^```/,/^```/p')
# And every `--bin X` the docs name must be a binary: crates/bench/src/bin/X.rs
# or src/bin/X.rs (the ten paper binaries that `paper` replaced must not stay
# documented).
for bin in $(grep -ohE -- '--bin [A-Za-z0-9_-]+' README.md DESIGN.md EXPERIMENTS.md |
    awk '{ print $2 }' | sort -u); do
    if [[ ! -f "crates/bench/src/bin/$bin.rs" && ! -f "src/bin/$bin.rs" ]]; then
        echo "ci: docs name --bin $bin but neither crates/bench/src/bin/$bin.rs nor src/bin/$bin.rs exists" >&2
        missing=1
    fi
done
[[ "$missing" -eq 0 ]] || exit 1

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo test -q --release --offline --workspace
# The benchmark harness is a package of its own (benchmark/Cargo.toml has an
# empty [workspace] table), so the workspace runs above never reach its
# tests — among them the one that keeps BENCHMARK.json equal to spec.rs.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Bounded wire-codec fuzz: the seeded round-trip property suite at a higher
# iteration count (deterministic — failures reproduce with the same seed).
WIRE_FUZZ_ITERS=512 cargo test -q --release --offline -p linalg --test wire_roundtrip
cargo run --release --offline -p spca-bench --bin bench_kernels -- \
    --smoke --out "$TRACE_DIR/BENCH_kernels_smoke.json" --trace "$TRACE_DIR/bench_kernels.json"
cargo run --release --offline -p spca-bench --bin bench_em -- \
    --smoke --out "$TRACE_DIR/BENCH_em.json" --trace "$TRACE_DIR/bench_em.json"
# A bench binary refuses any flag it does not declare: a removed flag
# (bench_em's --precision) must fail the run, not fall back to the default.
if cargo run -q --release --offline -p spca-bench --bin bench_em -- \
    --smoke --precision f32 --out "$TRACE_DIR/x.json" 2>/dev/null; then
    echo "ci: bench_em accepted the undeclared flag --precision" >&2
    exit 1
fi
cargo run --release --offline -p spca-bench --bin bench_faults -- \
    --smoke --out "$TRACE_DIR/BENCH_faults.json" --ledger "$TRACE_DIR/RUN_faults.json"
# bench_wire covers the codec arms (v2/v3/v3q) per record family in one
# run and asserts the v3 2x bar on sparse shuffle records internally.
cargo run --release --offline -p spca-bench --bin bench_wire -- \
    --smoke --out "$TRACE_DIR/BENCH_wire.json"
# bench_rpca runs the three-way PPCA-EM vs Mahout-SSVD vs randomized
# time-to-accuracy comparison and asserts the randomized arm's
# worker-count bit-determinism; its hashes/bytes gate below.
cargo run --release --offline -p spca-bench --bin bench_rpca -- \
    --smoke --out "$TRACE_DIR/BENCH_rpca.json"
# bench_scale asserts the event-queue throughput floor (1M events/sec),
# the flow-simulator floor (100k sim_storm flows/sec), the ≤100% per-link
# utilization invariant at 1000 virtual nodes, that a stage's per-task
# cost grows at most 4x from 64 to 4096 virtual cores (stage_storm), and
# timing-model bit-identity of the fitted models.
cargo run --release --offline -p spca-bench --bin bench_scale -- \
    --smoke --out "$TRACE_DIR/BENCH_scale.json"
# bench_serving replays the skewed multi-tenant fit+serve mix under both
# scheduler policies (FIFO, fair-share) and asserts fair-share beats FIFO on the light
# tenants' p99 wait; its virtual latencies and trace hashes gate below.
cargo run --release --offline -p spca-bench --bin bench_serving -- \
    --smoke --out "$TRACE_DIR/BENCH_serving.json"
cargo run --release --offline -p spca-bench --bin trace_report -- \
    --trace "$TRACE_DIR/trace_report.json" --ledger "$TRACE_DIR/RUN_trace_report.json" \
    > "$TRACE_DIR/trace_report.txt"
# The same report under the contended (event-driven) timing model: prints
# the per-link contention tables and asserts concurrent shuffles actually
# contend. Deliberately NOT ledgered — the committed RUN_trace_report.json
# baseline is an uncontended-model artifact.
cargo run --release --offline -p spca-bench --bin trace_report -- \
    --timing contended > "$TRACE_DIR/trace_report_contended.txt"
# End-to-end ledger through the CLI: generate a small matrix, fit it with
# --ledger, and gate that artifact like any other.
cargo run --release --offline --bin spca-cli -- \
    generate tweets 400 120 --seed 5 -o "$TRACE_DIR/spca_ci_tweets.sm"
cargo run --release --offline --bin spca-cli -- \
    fit -i "$TRACE_DIR/spca_ci_tweets.sm" -o "$TRACE_DIR/spca_ci_model.txt" -d 4 --iters 3 \
    --seed 11 --partitions 8 --ledger "$TRACE_DIR/RUN_cli.json"
# A fit-running producer that silently drops its run ledger is a CI
# failure even before perf_gate diffs it against the baseline.
for ledger in RUN_faults.json RUN_trace_report.json RUN_cli.json; do
    if [[ ! -s "$TRACE_DIR/$ledger" ]]; then
        echo "ci: $ledger missing or empty in $TRACE_DIR — a bench forgot its ledger" >&2
        exit 1
    fi
done
cargo run --release --offline -p spca-bench --bin trace_check -- \
    "$TRACE_DIR/bench_kernels.json" "$TRACE_DIR/bench_em.json" \
    "$TRACE_DIR/trace_report.json" \
    --plain "$TRACE_DIR/BENCH_em.json" "$TRACE_DIR/BENCH_faults.json" \
    "$TRACE_DIR/BENCH_wire.json" "$TRACE_DIR/BENCH_rpca.json" \
    "$TRACE_DIR/BENCH_scale.json" \
    "$TRACE_DIR/BENCH_serving.json" "$TRACE_DIR/RUN_faults.json" \
    "$TRACE_DIR/RUN_trace_report.json" "$TRACE_DIR/RUN_cli.json"
# Performance regression gate: diff the fresh ledgers and benchmark JSON
# against the committed baselines. Bit-exact on byte meters, model hashes
# and counts; a wide band on virtual-time metrics (CI machines differ —
# fixtures use 0.05, see crates/bench/src/gate.rs); host noise ignored.
cargo run --release --offline -p spca-bench --bin perf_gate -- \
    --baselines results/baselines --fresh "$TRACE_DIR" --time-band 0.75
# The line-count rule of ROADMAP item 6: the total may not exceed
# scripts/loc.ceiling.
scripts/loc.sh --check
echo "ci: all gates passed (traces in $TRACE_DIR)"
