//! The repository benchmark: a closed-loop run of one named workload
//! against the transaction service, correctness-checked, reported as
//! named metrics with units. A run is a sequence of fixed-size episodes,
//! each on a fresh service (see [`run`]).
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics. A
//! traced run reports per-layer metrics, all measured from outside the
//! program: in-process calls against TCP calls of the same inputs, a
//! serial replay through standalone certifiers, wire codec timing over
//! the workload's own messages, public counters, and 100%-sampled trace
//! spans stitched per hop.

pub mod drive;
pub mod layers;
pub mod pass;
pub mod stats;
pub mod workload;

use drive::{Call, ClientLog, Outcome};
use ks_obs::Recorder;
use pass::Pass;
use stats::{median, sorted, tail};
use std::time::Duration;
use workload::{Transport, WorkloadDef};

/// Events each trace ring retains in a traced run.
const RING_CAPACITY: usize = 1 << 16;

/// End-to-end metrics (untraced runs), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_txn_s", "txn/s"),
    ("tail_throughput_txn_s", "txn/s"),
    ("txn_p50_us", "us"),
    ("commit_rate", "ratio"),
    ("cpu_us_per_txn", "us/txn"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced runs), with units, in report order.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for call in Call::ALL {
        for q in ["p50", "p99"] {
            out.push((format!("server.{}_us.{q}", call.name()), "us"));
        }
    }
    out.push(("server.busy_retries_per_txn".into(), "1/txn"));
    for call in Call::ALL {
        for q in ["p50", "p99"] {
            out.push((format!("net.{}_us.{q}", call.name()), "us"));
        }
        out.push((format!("net.{}_self_us.p50", call.name()), "us"));
    }
    out.push(("net.wire.encode_ns".into(), "ns"));
    out.push(("net.wire.decode_ns".into(), "ns"));
    out.push(("net.pool_hit_rate".into(), "ratio"));
    for call in Call::ALL.into_iter().filter(|&c| c != Call::Batch) {
        for q in ["p50", "p99"] {
            out.push((format!("protocol.{}_us.{q}", call.name()), "us"));
        }
    }
    out.push(("protocol.validate_us.growth".into(), "ratio"));
    out.push(("protocol.re_evals_per_txn".into(), "1/txn"));
    out.push(("protocol.re_assigns_per_txn".into(), "1/txn"));
    out.push(("protocol.certifier_aborts_per_txn".into(), "1/txn"));
    out.push(("protocol.root_children".into(), "count"));
    out.push(("mvstore.chain_len.max".into(), "count"));
    out.push(("mvstore.chain_len.mean".into(), "count"));
    out.push(("wal.syncs_per_commit".into(), "1/commit"));
    out.push(("wal.bytes_per_commit".into(), "B/commit"));
    out.push(("wal.records_per_commit".into(), "1/commit"));
    out.push(("wal.recovery_s".into(), "s"));
    out.push(("verify.check_s".into(), "s"));
    out.push(("obs.trace_overhead_pct".into(), "%"));
    for hop in layers::HOPS {
        out.push((format!("obs.hop.{}.self_us.p50", hop.name()), "us"));
    }
    out.push(("obs.traces_stitched".into(), "count"));
    out.push(("obs.traces_malformed".into(), "count"));
    out
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Transactions attempted in the untraced episodes.
    pub attempted: u64,
    /// Transactions ended by a transport or service error.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Failed correctness checks (empty = correct).
    pub problems: Vec<String>,
    /// Context for the reader: sample counts, effective percentiles.
    pub notes: Vec<String>,
}

impl Report {
    /// Did every correctness check pass?
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Clients of `def`: two, but never more client threads than cores.
/// In-process clients share one thread, so they always number two.
pub fn clients(def: &WorkloadDef) -> usize {
    match def.transport {
        Transport::InProcess => 2,
        Transport::Tcp => std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2),
    }
}

/// Transactions each client issues per episode of `def`.
pub fn episode_counts(def: &WorkloadDef) -> Vec<usize> {
    let clients = clients(def);
    (0..clients)
        .map(|c| def.episode_txns / clients + usize::from(c < def.episode_txns % clients))
        .collect()
}

/// The input seed of episode `episode` of a run under `seed`.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    workload::mix(seed, episode as u64, 0xE915_0DE5)
}

/// Run `def` under `seed` for about `duration` of measured time:
/// end-to-end metrics when `trace` is off, per-layer metrics when on.
///
/// A run is a sequence of episodes. Each starts a fresh service (and WAL
/// directory), connects its clients, releases them together and runs a
/// fixed number of transactions, so every episode builds the same depth
/// of certifier history. Episodes repeat until `duration` is spent, and
/// every one is checked.
pub fn run(
    def: &WorkloadDef,
    seed: u64,
    duration: Duration,
    trace: bool,
) -> Result<Report, String> {
    let mut report = Report::default();
    let steal_before = pass::cpu_ticks();
    let budget = if trace { duration / 2 } else { duration };
    let (plain, first) = episodes(def, seed, budget, None, &mut report.problems)?;
    report.attempted = plain.iter().map(|e| e.attempted).sum::<usize>() as u64;
    report.failed = plain.iter().map(|e| e.failed).sum::<usize>() as u64;
    if trace {
        let mut hops = layers::Hops::default();
        let (traced, _) = episodes(def, seed, budget, Some(&mut hops), &mut report.problems)?;
        per_layer(def, seed, &first, &plain, &traced, &hops, &mut report)?;
    } else {
        end_to_end(&plain, &mut report);
    }
    if let (Some(a), Some(b)) = (steal_before, pass::cpu_ticks()) {
        // Time the hypervisor ran other guests on this machine's vCPUs:
        // it slows every wall-clock timing above. Other guests also slow
        // them through shared caches and cores without showing here.
        report.notes.push(format!(
            "cpu steal during the run: {:.1}% of vCPU time",
            (b.1 - a.1) as f64 * 100.0 / (b.0 - a.0).max(1) as f64
        ));
    }
    Ok(report)
}

/// What one episode measured; its logs are dropped once this is taken.
#[derive(Debug, Clone)]
struct Episode {
    attempted: usize,
    failed: usize,
    window_s: f64,
    setup_s: f64,
    verify_s: f64,
    recovery_s: Option<f64>,
    /// Open-to-acknowledgement latency of every commit, in µs, sorted.
    latencies: Vec<f64>,
    /// Commits in the last quarter of the episode's commits, and the time
    /// they took, from the commit just before that quarter.
    tail: (usize, f64),
    cpu_s: f64,
}

impl Episode {
    fn of(pass: &Pass) -> Episode {
        let committed: Vec<_> = pass
            .logs
            .iter()
            .flat_map(|l| &l.txns)
            .filter(|t| t.outcome == Outcome::Committed)
            .collect();
        let ends = sorted(committed.iter().map(|t| t.end_ns as f64 / 1e9).collect());
        let n = ends.len();
        let tail = match n / 4 {
            0 => (0, 0.0),
            q => (q, ends[n - 1] - ends[n - 1 - q]),
        };
        Episode {
            attempted: pass.attempted(),
            failed: pass.count(Outcome::Failed),
            window_s: pass.window_s,
            setup_s: pass.setup_s,
            verify_s: pass.verify_s,
            recovery_s: pass.recovery.map(|r| r.0),
            latencies: sorted(
                committed
                    .iter()
                    .map(|t| (t.end_ns - t.start_ns) as f64 / 1e3)
                    .collect(),
            ),
            tail,
            cpu_s: pass.cpu_s,
        }
    }

    fn committed(&self) -> usize {
        self.latencies.len()
    }
}

/// Median of `f` over `episodes`.
fn over(episodes: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    median(&sorted(episodes.iter().map(f).collect()))
}

/// Sum of `f` over `episodes`.
fn total(episodes: &[Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    episodes.iter().map(f).sum()
}

/// Commits per second over every episode's measured window.
fn throughput(episodes: &[Episode]) -> f64 {
    total(episodes, |e| e.committed() as f64) / total(episodes, |e| e.window_s).max(1e-9)
}

/// Run episodes until `budget` of measured time is spent (at least one),
/// keeping a summary of each and the first one's full pass. With `hops`,
/// each episode records 100%-sampled traces into a fresh recorder whose
/// spans are stitched into `hops`.
fn episodes(
    def: &WorkloadDef,
    seed: u64,
    budget: Duration,
    mut hops: Option<&mut layers::Hops>,
    problems: &mut Vec<String>,
) -> Result<(Vec<Episode>, Pass), String> {
    let counts = episode_counts(def);
    let mut out: Vec<Episode> = Vec::new();
    let mut first = None;
    let mut measured = 0.0;
    while out.is_empty() || measured < budget.as_secs_f64() {
        let recorder = hops.is_some().then(|| Recorder::new(RING_CAPACITY));
        let p = pass::run(
            def,
            episode_seed(seed, out.len()),
            &counts,
            def.transport,
            recorder.as_ref(),
        )?;
        if let (Some(hops), Some(r)) = (hops.as_deref_mut(), &recorder) {
            hops.add(&r.drain());
        }
        problems.extend(p.check());
        measured += p.window_s;
        out.push(Episode::of(&p));
        first.get_or_insert(p);
    }
    Ok((out, first.expect("at least one episode ran")))
}

/// Rates and CPU cost are totals over every episode; latency
/// percentiles are read from the pooled samples of every episode; set-up
/// time is the median over episodes. Each aggregate spans the whole run,
/// so a burst of host interference moves it by no more than its share of
/// the run.
fn end_to_end(episodes: &[Episode], report: &mut Report) {
    let committed = total(episodes, |e| e.committed() as f64);
    let attempted = total(episodes, |e| e.attempted as f64);
    let commit_rate = committed / attempted.max(1.0);
    let latencies = sorted(
        episodes
            .iter()
            .flat_map(|e| e.latencies.iter().copied())
            .collect(),
    );
    report.push("throughput_txn_s", throughput(episodes), "txn/s");
    report.push(
        "tail_throughput_txn_s",
        total(episodes, |e| e.tail.0 as f64) / total(episodes, |e| e.tail.1).max(1e-9),
        "txn/s",
    );
    report.push("txn_p50_us", median(&latencies), "us");
    report.push("commit_rate", commit_rate, "ratio");
    report.push(
        "cpu_us_per_txn",
        total(episodes, |e| e.cpu_s) * 1e6 / committed.max(1.0),
        "us/txn",
    );
    report.push("setup_s", over(episodes, |e| e.setup_s), "s");
    report.push("peak_rss_mib", peak_rss_kib() as f64 / 1024.0, "MiB");
    let p99 = tail(&latencies, 0.99);
    report.notes.push(format!(
        "{} episodes, {:.2} s measured; {committed} committed of {attempted} attempted",
        episodes.len(),
        total(episodes, |e| e.window_s),
    ));
    // Printed but not gated: its run-to-run spread follows CPU steal and
    // fdatasync tails on shared hosts, beyond any bound the gate allows.
    report.notes.push(format!(
        "txn_p99_us = {} us (p{:.2} of {} samples)",
        p99.value, p99.pct, p99.samples
    ));
    // Aborted, rejected or abandoned over attempted. It is 0 on
    // workloads without conflicts, so the gated metric is its complement.
    report
        .notes
        .push(format!("abort_rate = {} ratio", 1.0 - commit_rate));
}

/// Merged call durations of every client, sorted.
fn calls(logs: &[ClientLog], call: Call) -> Vec<f64> {
    sorted(
        logs.iter()
            .flat_map(|l| l.calls[call as usize].iter().copied())
            .collect(),
    )
}

fn per_layer(
    def: &WorkloadDef,
    seed: u64,
    first: &Pass,
    plain: &[Episode],
    traced: &[Episode],
    hops: &layers::Hops,
    report: &mut Report,
) -> Result<(), String> {
    // Replay the first episode's inputs: in-process for TCP workloads
    // (so TCP minus in-process isolates the network layer), and serially
    // through standalone certifiers.
    let counts: Vec<usize> = first.logs.iter().map(|l| l.txns.len()).collect();
    let inproc = match def.transport {
        Transport::Tcp => {
            let p = pass::run(
                def,
                episode_seed(seed, 0),
                &counts,
                Transport::InProcess,
                None,
            )?;
            report.problems.extend(p.check());
            Some(p)
        }
        Transport::InProcess => None,
    };
    let server = inproc.as_ref().unwrap_or(first);
    let txns = layers::interleave(&first.streams, &counts);
    let replay = layers::serial_replay(def, &txns);
    if replay.not_committed > 0 {
        report.problems.push(format!(
            "serial replay: {} of {} transactions did not commit",
            replay.not_committed, replay.txns
        ));
    }
    let (encode_ns, decode_ns) = layers::wire_codec(def, &txns);

    for call in Call::ALL {
        let s = calls(&server.logs, call);
        report.push(format!("server.{}_us.p50", call.name()), median(&s), "us");
        report.push(
            format!("server.{}_us.p99", call.name()),
            tail(&s, 0.99).value,
            "us",
        );
    }
    let retries: u64 = server.logs.iter().map(|l| l.busy_retries).sum();
    report.push(
        "server.busy_retries_per_txn",
        retries as f64 / server.attempted().max(1) as f64,
        "1/txn",
    );
    let tcp = def.transport == Transport::Tcp;
    for call in Call::ALL {
        let (net, local) = (calls(&first.logs, call), calls(&server.logs, call));
        let (p50, p99, own) = match tcp && !net.is_empty() {
            true => (
                median(&net),
                tail(&net, 0.99).value,
                median(&net) - median(&local),
            ),
            false => (0.0, 0.0, 0.0),
        };
        report.push(format!("net.{}_us.p50", call.name()), p50, "us");
        report.push(format!("net.{}_us.p99", call.name()), p99, "us");
        report.push(format!("net.{}_self_us.p50", call.name()), own, "us");
    }
    report.push("net.wire.encode_ns", encode_ns, "ns");
    report.push("net.wire.decode_ns", decode_ns, "ns");
    let hit_rate = first
        .pool
        .map_or(0.0, |p| p.hits as f64 / (p.hits + p.misses).max(1) as f64);
    report.push("net.pool_hit_rate", hit_rate, "ratio");

    for call in Call::ALL.into_iter().filter(|&c| c != Call::Batch) {
        let s = sorted(replay.calls[call as usize].clone());
        report.push(format!("protocol.{}_us.p50", call.name()), median(&s), "us");
        report.push(
            format!("protocol.{}_us.p99", call.name()),
            tail(&s, 0.99).value,
            "us",
        );
    }
    let per_txn = |x: u64| x as f64 / replay.txns.max(1) as f64;
    let st = replay.stats;
    report.push(
        "protocol.validate_us.growth",
        layers::validate_growth(&replay.validate_seq),
        "ratio",
    );
    report.push("protocol.re_evals_per_txn", per_txn(st.re_evals), "1/txn");
    report.push(
        "protocol.re_assigns_per_txn",
        per_txn(st.re_assigns),
        "1/txn",
    );
    report.push(
        "protocol.certifier_aborts_per_txn",
        per_txn(st.validation_failures + st.reeval_aborts + st.cascade_aborts),
        "1/txn",
    );
    report.push(
        "protocol.root_children",
        replay.root_children as f64,
        "count",
    );
    report.push("mvstore.chain_len.max", replay.chain_max as f64, "count");
    report.push("mvstore.chain_len.mean", replay.chain_mean, "count");

    let commits = server.count(Outcome::Committed).max(1) as f64;
    let wal = server.wal.unwrap_or_default();
    report.push(
        "wal.syncs_per_commit",
        wal.syncs as f64 / commits,
        "1/commit",
    );
    report.push(
        "wal.bytes_per_commit",
        wal.bytes as f64 / commits,
        "B/commit",
    );
    report.push(
        "wal.records_per_commit",
        wal.records as f64 / commits,
        "1/commit",
    );
    let recovery = sorted(plain.iter().filter_map(|e| e.recovery_s).collect());
    report.push("wal.recovery_s", median(&recovery), "s");
    report.push("verify.check_s", over(plain, |e| e.verify_s), "s");

    let (base, with_trace) = (throughput(plain), throughput(traced));
    report.push(
        "obs.trace_overhead_pct",
        (base - with_trace) / base.max(1e-9) * 100.0,
        "%",
    );
    for (hop, samples) in layers::HOPS.iter().zip(&hops.self_us) {
        report.push(
            format!("obs.hop.{}.self_us.p50", hop.name()),
            median(&sorted(samples.clone())),
            "us",
        );
    }
    report.push("obs.traces_stitched", hops.traces as f64, "count");
    report.push("obs.traces_malformed", hops.malformed as f64, "count");
    report.notes.push(format!(
        "{} untraced and {} traced episodes; layers from episode 0: {} transactions replayed serially, {} in-process",
        plain.len(),
        traced.len(),
        replay.txns,
        inproc.as_ref().map_or(0, Pass::attempted)
    ));
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in KiB; 0 where `/proc`
/// does not say.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
