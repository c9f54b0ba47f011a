//! `obs-overhead`: what does distributed tracing cost?
//!
//! The same deterministic closed-loop workload as `net-load` runs over
//! loopback TCP three times, varying only the client's trace sampling
//! rate — 0 (tracing compiled in but never sampled), 0.01 (the
//! recommended production rate), and 1.0 (every request traced through
//! every hop, WAL group commit included). Server, net layer, and
//! clients share one flight recorder in every run, so the A/B isolates
//! the cost of *sampling* — span emission at each pipeline hop plus the
//! wire's trace-context header is always present — not the cost of
//! having a recorder attached.
//!
//! Rounds alternate through the rates (rate₀ round 1, rate₁ round 1, …,
//! rate₀ round N, …) so slow-machine drift hits every rate equally, and
//! each rate keeps its best round. The acceptance metric is
//! `overhead = 1 − thru(rate)/thru(0)` at the gate rate (default 0.01),
//! which must stay within the budget (default 0.10): `BENCH_obs.json`
//! carries the verdict and `validate_bench` (hence `scripts/check.sh`)
//! enforces it. Sampling wiring has teeth too: the 1.0 run must export
//! spans and the 0.0 run must export none.
//!
//! Flags: `--smoke` shrinks the run; `--gate-sample R`,
//! `--max-overhead B`, and `--expect-fail` let CI prove the gate *can*
//! fail (full tracing against an artificially tight budget must trip
//! it) without overwriting the real report.

use ks_bench::driver::{drive_client, DriveOutcome, DriverConfig};
use ks_bench::report::Json;
use ks_kernel::{Domain, Schema, UniqueState};
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_obs::{ObsKind, Recorder};
use ks_server::{verify_certifiers, ServerConfig, TxnService};
use std::time::{Duration, Instant};

const TOTAL_ENTITIES: usize = 64;
const SHARDS: usize = 4;
const OPS_PER_TXN: usize = 6;
const RETRY_BUDGET: u32 = 10_000;
/// Alternating measurement rounds per rate; each rate keeps its best.
const ROUNDS: usize = 3;
/// Default overhead budget at the default gate rate.
const DEFAULT_MAX_OVERHEAD: f64 = 0.10;
const DEFAULT_GATE_SAMPLE: f64 = 0.01;

/// The swept client-side sampling rates, baseline first.
const RATES: [f64; 3] = [0.0, 0.01, 1.0];

struct Options {
    smoke: bool,
    gate_sample: f64,
    max_overhead: f64,
    expect_fail: bool,
}

fn parse_options() -> Options {
    let mut opts = Options {
        smoke: false,
        gate_sample: DEFAULT_GATE_SAMPLE,
        max_overhead: DEFAULT_MAX_OVERHEAD,
        expect_fail: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut number = |name: &str| -> f64 {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--gate-sample" => opts.gate_sample = number("--gate-sample"),
            "--max-overhead" => opts.max_overhead = number("--max-overhead"),
            "--expect-fail" => opts.expect_fail = true,
            other => panic!(
                "unknown flag {other} (try --smoke --gate-sample R --max-overhead B --expect-fail)"
            ),
        }
    }
    assert!(
        RATES.contains(&opts.gate_sample),
        "--gate-sample must be one of the swept rates {RATES:?}"
    );
    opts
}

struct RunResult {
    outcome: DriveOutcome,
    elapsed: Duration,
    p50: Option<Duration>,
    p99: Option<Duration>,
    /// Span events left in the shared recorder after the run.
    spans: u64,
    violations: usize,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.outcome.committed as f64 / self.elapsed.as_secs_f64()
    }
}

fn run_one(rate: f64, clients: usize, txns: usize) -> RunResult {
    let schema = Schema::uniform(
        (0..TOTAL_ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    let initial = UniqueState::constant(TOTAL_ENTITIES, 0);
    let recorder = Recorder::new(1 << 14);
    let config = ServerConfig::builder()
        .shards(SHARDS)
        .max_sessions(clients)
        .recorder(recorder.clone())
        .build()
        .expect("static bench config is valid");
    let svc = TxnService::new(schema, &initial, config);
    let shards = svc.shard_map().shards();
    let server = NetServer::start(
        svc,
        "127.0.0.1:0",
        NetConfig {
            recorder: Some(recorder.clone()),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let barrier = std::sync::Barrier::new(clients + 1);
    let (outcomes, p50, p99, elapsed) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (barrier, recorder) = (&barrier, &recorder);
                scope.spawn(move || {
                    let session = RemoteSession::connect(
                        addr,
                        NetClientConfig {
                            recorder: Some(recorder.clone()),
                            trace_sample: rate,
                            ..NetClientConfig::default()
                        },
                    )
                    .expect("connect over loopback");
                    barrier.wait();
                    let out = drive_client(
                        &session,
                        &DriverConfig {
                            client,
                            shards,
                            total_entities: TOTAL_ENTITIES,
                            txns,
                            ops_per_txn: OPS_PER_TXN,
                            seed: 0x0B5_0DE,
                            retry_budget: RETRY_BUDGET,
                            pipeline_depth: 1,
                            batch: false,
                        },
                    );
                    let wm = session.metrics().ok();
                    session.close().expect("orderly goodbye");
                    (out, wm.map(|m| (m.p50_ns, m.p99_ns)))
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let elapsed = start.elapsed();
        let pick = |f: fn(&(u64, u64)) -> u64| {
            results
                .iter()
                .filter_map(|(_, m)| m.as_ref().map(f))
                .filter(|&ns| ns > 0)
                .max()
        };
        let (p50, p99) = (pick(|m| m.0), pick(|m| m.1));
        let outcomes: Vec<DriveOutcome> = results.into_iter().map(|(o, _)| o).collect();
        (outcomes, p50, p99, elapsed)
    });
    let spans = recorder
        .drain()
        .iter()
        .filter(|ev| matches!(ev.kind, ObsKind::SpanStart { .. } | ObsKind::SpanEnd { .. }))
        .count() as u64;
    let report = verify_certifiers(&server.shutdown());
    let mut outcome = DriveOutcome::default();
    outcomes.into_iter().for_each(|o| outcome.merge(o));
    RunResult {
        outcome,
        elapsed,
        p50: p50.map(Duration::from_nanos),
        p99: p99.map(Duration::from_nanos),
        spans,
        violations: report.violations.len(),
    }
}

fn micros(d: Option<Duration>) -> f64 {
    d.map(|d| d.as_secs_f64() * 1e6).unwrap_or(0.0)
}

fn main() {
    let opts = parse_options();
    // 4×8 txns finishes in single-digit milliseconds, which on a small CI
    // box is pure scheduler noise — the overhead percentage swung ±20
    // points run to run. 4×48 keeps smoke sub-second while giving each
    // measurement enough work to mean something.
    let (clients, txns) = if opts.smoke { (4, 48) } else { (8, 48) };
    println!("obs-overhead — loopback workload across trace sampling rates");
    println!(
        "{clients} clients, {txns} txns/client, {OPS_PER_TXN} ops/txn, {TOTAL_ENTITIES} entities, \
         {ROUNDS} alternating rounds{}\n",
        if opts.smoke { " (smoke mode)" } else { "" }
    );

    // best[i] = the best round for RATES[i]; alternation spreads machine
    // drift evenly across rates instead of penalizing whichever ran last.
    let mut best: [Option<RunResult>; RATES.len()] = [None, None, None];
    for round in 0..ROUNDS {
        for (i, &rate) in RATES.iter().enumerate() {
            let r = run_one(rate, clients, txns);
            println!(
                "round {} rate {:>4}: {:>9.0} txn/s  p50 {:>7.1}µs  p99 {:>7.1}µs  \
                 {:>6} spans  {} violations",
                round + 1,
                rate,
                r.throughput(),
                micros(r.p50),
                micros(r.p99),
                r.spans,
                r.violations,
            );
            let slot = &mut best[i];
            if slot
                .as_ref()
                .is_none_or(|b| r.throughput() > b.throughput())
            {
                *slot = Some(r);
            }
        }
    }
    let best: Vec<RunResult> = best
        .into_iter()
        .map(|r| r.expect("every rate ran"))
        .collect();
    let total_violations: usize = best.iter().map(|r| r.violations).sum();

    // Sampling wiring must have teeth: full tracing exports spans, and a
    // zero rate exports none (nothing server-side originates traces).
    assert!(
        best[2].spans > 0,
        "sampling 1.0 must leave span events in the recorder"
    );
    assert_eq!(
        best[0].spans, 0,
        "sampling 0.0 must leave no span events in the recorder"
    );

    let baseline = best[0].throughput();
    let overhead = |r: &RunResult| {
        if baseline > 0.0 {
            1.0 - r.throughput() / baseline
        } else {
            f64::NAN
        }
    };
    println!(
        "\n{:>6} {:>11} {:>9} {:>9}",
        "rate", "thru(txn/s)", "overhead", "spans"
    );
    for (i, &rate) in RATES.iter().enumerate() {
        println!(
            "{:>6} {:>11.0} {:>8.1}% {:>9}",
            rate,
            best[i].throughput(),
            overhead(&best[i]) * 100.0,
            best[i].spans,
        );
    }

    let gate_idx = RATES
        .iter()
        .position(|&r| r == opts.gate_sample)
        .expect("validated at parse");
    let gated_overhead = overhead(&best[gate_idx]);
    let pass = gated_overhead <= opts.max_overhead;
    println!(
        "\noverhead at sampling {}: {:.1}% (budget \u{2264} {:.0}%) — {}",
        opts.gate_sample,
        gated_overhead * 100.0,
        opts.max_overhead * 100.0,
        if pass { "PASS" } else { "FAIL" }
    );

    if opts.expect_fail {
        // Teeth mode: prove the gate can trip. No report is written —
        // this run's numbers exist only to fail the budget.
        if pass {
            eprintln!("expected the overhead gate to fail, but it passed");
            std::process::exit(1);
        }
        println!("gate failed as expected (teeth intact)");
        return;
    }

    let report = Json::obj([
        ("bench", Json::Str("obs".into())),
        ("smoke", Json::Bool(opts.smoke)),
        ("clients", Json::Num(clients as f64)),
        ("txns_per_client", Json::Num(txns as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        (
            "runs",
            Json::Arr(
                RATES
                    .iter()
                    .zip(&best)
                    .map(|(&rate, r)| {
                        Json::obj([
                            ("trace_sample", Json::Num(rate)),
                            ("committed", Json::Num(r.outcome.committed as f64)),
                            ("aborted", Json::Num(r.outcome.aborted as f64)),
                            ("throughput_txn_s", Json::Num(r.throughput())),
                            ("p50_us", Json::Num(micros(r.p50))),
                            ("p99_us", Json::Num(micros(r.p99))),
                            ("span_events", Json::Num(r.spans as f64)),
                            ("overhead", Json::Num(overhead(r))),
                            ("violations", Json::Num(r.violations as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "overhead",
            Json::obj([
                ("gate_sample", Json::Num(opts.gate_sample)),
                ("value", Json::Num(gated_overhead)),
                ("gate", Json::Num(opts.max_overhead)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
        ("total_violations", Json::Num(total_violations as f64)),
    ]);
    std::fs::write("BENCH_obs.json", report.render()).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    if total_violations > 0 || !pass {
        std::process::exit(1);
    }
    println!("\nmodel check: every extracted execution is correct (0 violations)");
}
