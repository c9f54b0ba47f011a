#!/usr/bin/env bash
# Repo-wide verification: formatting, lints, tests.
#
# Usage: scripts/check.sh
# This is the gate referenced by ROADMAP.md's tier-1 line; CI and local
# development run the same three steps. The root Cargo.toml's
# `default-members` makes the bare `cargo clippy`/`cargo test` below cover
# the facade and every crate under crates/.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== perfbench lockfile still matches the crate graph (cargo would rewrite it silently)"
cargo metadata --offline --locked --manifest-path perfbench/Cargo.toml --format-version 1 >/dev/null

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo test -q"
cargo test -q

echo "== exp_server_load --smoke (serving layer + tracing overhead)"
cargo run --release -q -p ks-bench --bin exp_server_load -- --smoke

echo "== exp_net_load --smoke (loopback TCP vs in-process, pipeline×batch sweep)"
cargo run --release -q -p ks-bench --bin exp_net_load -- --smoke

echo "== exp_wal --smoke (group commit must amortize fsyncs ≥4× at 8 clients)"
cargo run --release -q -p ks-bench --bin exp_wal -- --smoke

echo "== exp_obs --smoke (tracing overhead at 1% sampling within budget)"
cargo run --release -q -p ks-bench --bin exp_obs -- --smoke

echo "== exp_obs teeth (full sampling vs an impossible budget must fail the gate)"
cargo run --release -q -p ks-bench --bin exp_obs -- \
    --smoke --gate-sample 1.0 --max-overhead -1.0 --expect-fail

echo "== exp_certifier --smoke (CPC vs SSI vs 2PL long-txn abort-rate shootout)"
cargo run --release -q -p ks-bench --bin exp_certifier -- --smoke

echo "== exp_certifier teeth (broken SSI detector must be caught by the offline checker)"
cargo run --release -q -p ks-bench --bin exp_certifier -- --teeth

echo "== exp_conn_scale --smoke (idle-horde latency + per-connection memory gates)"
cargo run --release -q -p ks-bench --bin exp_conn_scale -- --smoke

echo "== exp_conn_scale teeth (naive per-connection buffers must blow the memory budget)"
cargo run --release -q -p ks-bench --bin exp_conn_scale -- \
    --smoke --pinned-buffers 262144 --expect-violation

echo "== validate_bench (BENCH_*.json schema + zero violations)"
cargo run --release -q -p ks-bench --bin validate_bench -- \
    BENCH_net.json BENCH_server.json BENCH_wal.json BENCH_obs.json BENCH_certifier.json \
    BENCH_conn.json

echo "== dst_smoke --seeds 25 (seeded fault-injection gate)"
cargo run --release -q -p ks-bench --bin dst_smoke -- --seeds 25

echo "== dst_smoke teeth (a disabled protection must be caught)"
cargo run --release -q -p ks-bench --bin dst_smoke -- \
    --seeds 25 --disable timeout-carveout --expect-violation

echo "== dst_smoke durability teeth (no commit-record flush ⇒ oracles must catch lost commits)"
cargo run --release -q -p ks-bench --bin dst_smoke -- \
    --seeds 25 --disable commit-flush --expect-violation

echo "OK: fmt, clippy, tests, server smoke, net smoke, wal gate, obs gate, certifier gate, conn-scale gate, bench gate, dst gate all green"
