//! `certifier`: the paper's abort-rate shootout across certification
//! backends.
//!
//! Section 2's motivating workload is the long-duration transaction —
//! a CAD-style session that holds its reads open for seconds while
//! short update transactions stream past. Serializability-based
//! certifiers must kill one side of that race; the paper's CPC
//! protocol keeps both, because the long transaction's reads stay
//! pinned to its *assigned* versions and later writers simply create
//! new ones.
//!
//! This experiment runs that exact mix against the identical serving
//! stack (shard worker, WAL over in-memory media, telemetry) under
//! each [`Backend`]:
//!
//! * one **long transaction** per round: validate, read the hot set,
//!   hold for `--hold` milliseconds, write one hot entity, commit;
//! * meanwhile **short writers** stream read-modify-write transactions
//!   over the same hot set.
//!
//! Expected physics: CPC commits the long transaction every round
//! (abort rate ≈ 0); SSI kills it at commit (first-committer-wins —
//! a short writer always beat it to the hot entity) or earlier via
//! dangerous-structure detection; 2PL aborts it too — its final write
//! upgrades a shared lock to exclusive while short writers hold shared
//! locks on the same entity waiting for their own upgrade, so the
//! waits-for detector makes it the deadlock victim — and short-txn
//! throughput collapses under the same upgrade deadlocks.
//! The machine-readable gate asserts the headline number: SSI's
//! long-txn abort rate exceeds CPC's by a wide margin.
//!
//! `--teeth` instead proves the *offline checker* has teeth: it runs a
//! deliberately broken SSI (dangerous-structure detection off — plain
//! snapshot isolation) through a directed write-skew and exits 0 only
//! if `verify_certifiers` catches the non-serializable history that
//! the live certifier waved through.

use ks_bench::report::Json;
use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState};
use ks_predicate::{Atom, Clause, CmpOp, Cnf};
use ks_server::{
    verify_certifiers, Backend, Client, Durability, MetricsSnapshot, ServerConfig, ServerError,
    TxnBuilder, TxnService, WalOptions,
};
use ks_wal::{MemStore, SegmentStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entities on the single contended shard.
const ENTITIES: usize = 8;
/// The hot set the long transaction reads and short writers update.
const HOT: [u32; 2] = [0, 1];
/// The hot entity the long transaction writes at the end of its hold.
const LONG_WRITE: u32 = 0;
/// Short closed-loop writer threads.
const SHORT_CLIENTS: usize = 4;
/// Retries of one short transaction before it gives up (breaks 2PL
/// lock-wait livelock: aborting releases the locks the long txn needs).
const SHORT_RETRY_BUDGET: u32 = 2_000;
/// The shootout gate: SSI's long-txn abort rate must exceed CPC's by
/// at least this margin on the identical mix.
const GATE_MARGIN: f64 = 0.2;

struct Options {
    smoke: bool,
    teeth: bool,
    /// Long-transaction hold time per round.
    hold: Duration,
    /// Long-transaction rounds (each round = one long txn).
    rounds: usize,
}

fn parse_options() -> Options {
    let mut opts = Options {
        smoke: false,
        teeth: false,
        hold: Duration::from_millis(400),
        rounds: 5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                opts.smoke = true;
                opts.hold = Duration::from_millis(40);
                opts.rounds = 2;
            }
            "--teeth" => opts.teeth = true,
            "--hold" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--hold needs milliseconds");
                opts.hold = Duration::from_millis(ms);
            }
            "--rounds" => {
                opts.rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a number");
            }
            other => panic!("unknown flag {other} (try --smoke --teeth --hold MS --rounds N)"),
        }
    }
    opts
}

/// A tautological `(I, O)` spec naming `entities` (grants the access
/// rights without constraining values — the workload is about
/// certification, not predicates).
fn spec_over(entities: &[u32]) -> Specification {
    Specification::new(
        Cnf::new(
            entities
                .iter()
                .map(|&e| Clause::unit(Atom::cmp_const(EntityId(e), CmpOp::Ge, i64::MIN / 2)))
                .collect(),
        ),
        Cnf::truth(),
    )
}

fn service(backend: Backend, ssi_detect: bool) -> TxnService {
    let schema = Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    let initial = UniqueState::constant(ENTITIES, 0);
    // Real durability pipeline: the WAL runs over in-memory media so the
    // shootout exercises commit logging and group flush for every
    // backend, without touching the filesystem.
    let media = MemStore::new();
    let wal = WalOptions::new(Arc::new(move || {
        Box::new(media.clone()) as Box<dyn SegmentStore>
    }));
    TxnService::new(
        schema,
        &initial,
        ServerConfig {
            shards: 1,
            max_sessions: SHORT_CLIENTS + 2,
            backend,
            ssi_detect,
            durability: Durability::Wal(wal),
            ..ServerConfig::default()
        },
    )
}

/// One short writer: read-modify-write over a hot entity plus a private
/// cold one, until `stop` flips. Busy replies (2PL lock waits, full
/// queues) retry up to the budget, then the transaction aborts —
/// that release is what breaks 2PL wait livelock with the long reader.
fn run_short(
    svc: &TxnService,
    client: usize,
    stop: &AtomicBool,
    committed: &AtomicU64,
    aborted: &AtomicU64,
) {
    let Ok(session) = svc.session() else { return };
    let cold = (HOT.len() + client) as u32 % ENTITIES as u32;
    let mut round = 0usize;
    while !stop.load(Ordering::Relaxed) {
        round += 1;
        let hot = HOT[round % HOT.len()];
        let spec = spec_over(&[hot, cold]);
        let txn = match session.open(TxnBuilder::new(spec)) {
            Ok(t) => t,
            Err(ServerError::Busy | ServerError::Backpressure) => {
                std::thread::yield_now();
                continue;
            }
            Err(_) => return,
        };
        let mut budget = SHORT_RETRY_BUDGET;
        // Retry one call through Busy/Backpressure: Ok(true) once it
        // succeeds, Ok(false) once the budget is spent or the run stops.
        let mut call = |op: &mut dyn FnMut() -> Result<(), ServerError>| loop {
            match op() {
                Ok(()) => return Ok(true),
                Err(ServerError::Busy | ServerError::Backpressure) => {
                    if budget == 0 || stop.load(Ordering::Relaxed) {
                        return Ok(false);
                    }
                    budget -= 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        };
        let outcome = (|| -> Result<bool, ServerError> {
            Ok(call(&mut || session.validate(txn))?
                && call(&mut || session.read(txn, EntityId(hot)).map(|_| ()))?
                && call(&mut || session.write(txn, EntityId(cold), round as i64))?
                && call(&mut || {
                    session.write(txn, EntityId(hot), (client * 10_000 + round) as i64)
                })?
                && call(&mut || session.commit(txn))?)
        })();
        match outcome {
            Ok(true) => {
                committed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) | Err(_) => {
                let _ = session.abort(txn);
                aborted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The "validate → read hot set → hold → write → commit" loops break
/// when the retry budget runs out; every other error aborts the txn.
#[derive(Debug)]
struct RunResult {
    backend: Backend,
    elapsed: Duration,
    snap: MetricsSnapshot,
    long_committed: u64,
    long_aborted: u64,
    short_committed: u64,
    short_aborted: u64,
    certifier_aborts: u64,
    violations: usize,
}

impl RunResult {
    fn long_abort_rate(&self) -> f64 {
        let total = self.long_committed + self.long_aborted;
        if total == 0 {
            0.0
        } else {
            self.long_aborted as f64 / total as f64
        }
    }

    fn short_abort_rate(&self) -> f64 {
        let total = self.short_committed + self.short_aborted;
        if total == 0 {
            0.0
        } else {
            self.short_aborted as f64 / total as f64
        }
    }

    fn throughput(&self) -> f64 {
        (self.short_committed + self.long_committed) as f64 / self.elapsed.as_secs_f64()
    }
}

/// Run the long-transaction mix against one backend.
fn run_one(backend: Backend, opts: &Options) -> RunResult {
    let svc = service(backend, true);
    let stop = AtomicBool::new(false);
    let short_committed = AtomicU64::new(0);
    let short_aborted = AtomicU64::new(0);
    let mut long_committed = 0u64;
    let mut long_aborted = 0u64;
    let start = Instant::now();

    std::thread::scope(|scope| {
        for client in 0..SHORT_CLIENTS {
            let (svc, stop) = (&svc, &stop);
            let (c, a) = (&short_committed, &short_aborted);
            scope.spawn(move || run_short(svc, client, stop, c, a));
        }
        let session = svc.session().expect("long session admitted");
        let mut hot_and_target: Vec<u32> = HOT.to_vec();
        if !hot_and_target.contains(&LONG_WRITE) {
            hot_and_target.push(LONG_WRITE);
        }
        for round in 0..opts.rounds {
            let long = (|| -> Result<(), ServerError> {
                let txn = session.open(TxnBuilder::new(spec_over(&hot_and_target)))?;
                let body = |txn| -> Result<(), ServerError> {
                    retry_busy(|| session.validate(txn))?;
                    for &e in &HOT {
                        retry_busy(|| session.read(txn, EntityId(e)).map(|_| ()))?;
                    }
                    // The CAD hold: reads stay open while short writers
                    // stream past.
                    std::thread::sleep(opts.hold);
                    retry_busy(|| session.write(txn, EntityId(LONG_WRITE), -(round as i64) - 1))?;
                    retry_busy(|| session.commit(txn))
                };
                body(txn).inspect_err(|_| {
                    let _ = session.abort(txn);
                })
            })();
            match long {
                Ok(()) => long_committed += 1,
                Err(_) => long_aborted += 1,
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    let elapsed = start.elapsed();
    let snap = svc.metrics();
    let stats = svc.protocol_stats().expect("stats before shutdown");
    let certifier_aborts = stats.iter().map(|s| s.reeval_aborts).sum();
    let report = verify_certifiers(&svc.shutdown());
    RunResult {
        backend,
        elapsed,
        snap,
        long_committed,
        long_aborted,
        short_committed: short_committed.into_inner(),
        short_aborted: short_aborted.into_inner(),
        certifier_aborts,
        violations: report.violations.len(),
    }
}

/// Retry `Busy`/`Backpressure` indefinitely (the long transaction has
/// no deadline; 2PL makes it wait out the short writers' locks).
fn retry_busy(mut f: impl FnMut() -> Result<(), ServerError>) -> Result<(), ServerError> {
    loop {
        match f() {
            Err(ServerError::Busy | ServerError::Backpressure) => std::thread::yield_now(),
            other => return other,
        }
    }
}

fn micros(d: Option<Duration>) -> f64 {
    d.map(|d| d.as_secs_f64() * 1e6).unwrap_or(0.0)
}

/// `--teeth`: drive a directed write-skew through a *broken* SSI
/// (dangerous-structure detection off — plain snapshot isolation with
/// first-committer-wins only). The two transactions have disjoint
/// write sets, so FCW admits both and the live certifier commits a
/// non-serializable history; the offline conflict-graph checker must
/// catch it, or this gate fails. As a control, the same schedule runs
/// against *intact* SSI, which must abort one of the pair.
fn teeth() -> ! {
    // Broken detector: both sides of the skew must commit.
    let svc = service(Backend::Ssi, false);
    let s1 = svc.session().expect("session");
    let s2 = svc.session().expect("session");
    let (x, y) = (EntityId(0), EntityId(1));
    let skew = |s1: &ks_server::Session, s2: &ks_server::Session| -> Result<(), ServerError> {
        let t1 = s1.open(TxnBuilder::new(spec_over(&[0, 1])))?;
        let t2 = s2.open(TxnBuilder::new(spec_over(&[0, 1])))?;
        s1.validate(t1)?;
        s2.validate(t2)?;
        s1.read(t1, x)?;
        s1.read(t1, y)?;
        s2.read(t2, x)?;
        s2.read(t2, y)?;
        s1.write(t1, x, 1)?;
        s2.write(t2, y, 1)?;
        s1.commit(t1)?;
        s2.commit(t2)
    };
    if let Err(e) = skew(&s1, &s2) {
        eprintln!("teeth: broken SSI refused the write-skew ({e}) — it should have admitted it");
        std::process::exit(1);
    }
    let report = verify_certifiers(&svc.shutdown());
    if report.violations.is_empty() {
        eprintln!(
            "teeth: broken SSI committed write-skew but the offline history \
             checker called it serializable — the oracle has no teeth"
        );
        std::process::exit(1);
    }
    println!(
        "teeth: offline checker caught the broken detector: {}",
        report.violations[0]
    );

    // Control: intact SSI must refuse the identical schedule.
    let svc = service(Backend::Ssi, true);
    let s1 = svc.session().expect("session");
    let s2 = svc.session().expect("session");
    match skew(&s1, &s2) {
        Ok(()) => {
            eprintln!("teeth: intact SSI admitted the same write-skew");
            std::process::exit(1);
        }
        Err(e) => println!("teeth: intact SSI refused it as expected ({e})"),
    }
    let report = verify_certifiers(&svc.shutdown());
    if !report.violations.is_empty() {
        eprintln!("teeth: intact SSI left a non-serializable history: {report:?}");
        std::process::exit(1);
    }
    println!("teeth: PASS");
    std::process::exit(0);
}

fn main() {
    let opts = parse_options();
    if opts.teeth {
        teeth();
    }
    println!("certifier — the long-duration-transaction shootout (paper §2)");
    println!(
        "{} rounds x {}ms hold, {SHORT_CLIENTS} short writers over {} hot entities{}\n",
        opts.rounds,
        opts.hold.as_millis(),
        HOT.len(),
        if opts.smoke { " (smoke mode)" } else { "" }
    );

    println!(
        "{:>8} {:>6} {:>7} {:>11} {:>9} {:>8} {:>11} {:>9} {:>8} {:>10}",
        "backend",
        "long✓",
        "long✗",
        "long-abort%",
        "short✓",
        "short✗",
        "thru(txn/s)",
        "p99(µs)",
        "cert-ab",
        "violations"
    );
    let mut runs = Vec::new();
    let mut results = Vec::new();
    let mut total_violations = 0usize;
    for backend in Backend::all() {
        let r = run_one(backend, &opts);
        total_violations += r.violations;
        println!(
            "{:>8} {:>6} {:>7} {:>10.1}% {:>9} {:>8} {:>11.0} {:>9.1} {:>8} {:>10}",
            r.backend.name(),
            r.long_committed,
            r.long_aborted,
            r.long_abort_rate() * 100.0,
            r.short_committed,
            r.short_aborted,
            r.throughput(),
            micros(r.snap.p99),
            r.certifier_aborts,
            r.violations,
        );
        runs.push(Json::obj([
            ("backend", Json::Str(r.backend.name().to_string())),
            (
                "committed",
                Json::Num((r.long_committed + r.short_committed) as f64),
            ),
            (
                "aborted",
                Json::Num((r.long_aborted + r.short_aborted) as f64),
            ),
            ("long_committed", Json::Num(r.long_committed as f64)),
            ("long_aborted", Json::Num(r.long_aborted as f64)),
            ("long_abort_rate", Json::Num(r.long_abort_rate())),
            ("short_committed", Json::Num(r.short_committed as f64)),
            ("short_aborted", Json::Num(r.short_aborted as f64)),
            ("short_abort_rate", Json::Num(r.short_abort_rate())),
            ("certifier_aborts", Json::Num(r.certifier_aborts as f64)),
            ("throughput_txn_s", Json::Num(r.throughput())),
            ("p50_us", Json::Num(micros(r.snap.p50))),
            ("p99_us", Json::Num(micros(r.snap.p99))),
            ("wall_s", Json::Num(r.elapsed.as_secs_f64())),
            ("violations", Json::Num(r.violations as f64)),
        ]));
        results.push(r);
    }

    let rate = |b: Backend| {
        results
            .iter()
            .find(|r| r.backend == b)
            .map_or(f64::NAN, RunResult::long_abort_rate)
    };
    let (cpc_rate, ssi_rate) = (rate(Backend::Cpc), rate(Backend::Ssi));
    // The headline gate: abort rates are certification *logic*, not
    // wall-clock, so the verdict is mandatory — smoke runs included.
    let pass = ssi_rate >= cpc_rate + GATE_MARGIN;
    println!(
        "\ngate: ssi long-txn abort rate {:.0}% vs cpc {:.0}% (margin {:.0}%) — {}",
        ssi_rate * 100.0,
        cpc_rate * 100.0,
        GATE_MARGIN * 100.0,
        if pass { "pass" } else { "FAIL" }
    );

    let report = Json::obj([
        ("bench", Json::Str("certifier".to_string())),
        ("smoke", Json::Bool(opts.smoke)),
        ("rounds", Json::Num(opts.rounds as f64)),
        ("hold_ms", Json::Num(opts.hold.as_millis() as f64)),
        ("short_clients", Json::Num(SHORT_CLIENTS as f64)),
        ("runs", Json::Arr(runs)),
        (
            "gate",
            Json::obj([
                ("cpc_long_abort_rate", Json::Num(cpc_rate)),
                ("ssi_long_abort_rate", Json::Num(ssi_rate)),
                ("margin", Json::Num(GATE_MARGIN)),
                ("pass", Json::Bool(pass)),
            ]),
        ),
        ("total_violations", Json::Num(total_violations as f64)),
    ]);
    std::fs::write("BENCH_certifier.json", report.render()).expect("write BENCH_certifier.json");
    println!("wrote BENCH_certifier.json");

    if total_violations > 0 {
        println!("history check FAILED: {total_violations} violations");
        std::process::exit(1);
    }
    if !pass {
        println!("abort-rate gate FAILED");
        std::process::exit(1);
    }
    println!("\nexpected shape: CPC commits the long transaction every round");
    println!("(reads pinned to assigned versions); SSI kills it at commit");
    println!("(first-committer-wins / dangerous structures); 2PL picks it as");
    println!("the deadlock victim of its shared-to-exclusive upgrade, and the");
    println!("short writers deadlock among themselves on the same upgrades.");
}
