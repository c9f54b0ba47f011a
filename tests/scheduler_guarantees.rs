//! Scheduler soundness across crates: what each certifier guarantees
//! about the interleavings it commits under the simulator, checked with
//! the classifier suite and with the certifier's own offline oracle.

use ks_protocol::sim::simulate;
use ks_protocol::Backend;
use ks_schedule::{csr, Op, Schedule, TxnId};
use ks_sim::trace::committed_ops;
use ks_sim::{TraceKind, Workload, WorkloadSpec};

fn spec(seed: u64, txns: usize, think: u64) -> WorkloadSpec {
    WorkloadSpec {
        num_txns: txns,
        ops_per_txn: 4,
        num_entities: 5,
        read_pct: 50,
        think_time: think,
        hot_fraction_pct: 40,
        hot_access_pct: 80,
        arrival_spread: 6,
        chain_length: 1,
        seed,
    }
}

fn trace_to_schedule(trace: &[ks_sim::TraceEvent]) -> Schedule {
    Schedule::from_ops(
        committed_ops(trace)
            .iter()
            .map(|ev| match ev.kind {
                TraceKind::Read(e) => Op::read(TxnId(ev.txn.0), e),
                TraceKind::Write(e) => Op::write(TxnId(ev.txn.0), e),
                _ => unreachable!(),
            })
            .collect(),
    )
}

#[test]
fn strict_2pl_commits_only_conflict_serializable_interleavings() {
    for seed in 0..10 {
        let w = Workload::generate(spec(seed, 5, 3));
        let (m, trace, _) = simulate(Backend::TwoPl, &w);
        assert_eq!(m.committed, 5, "seed {seed}");
        let s = trace_to_schedule(&trace);
        assert!(csr::is_csr(&s), "seed {seed}: {s}");
    }
}

/// The experiments' own sweeps (`exp_long_txn`, `exp_chains`): on every
/// backend, the engine and the certifier's ledger agree on what
/// committed, everything commits, and the history passes the backend's
/// offline oracle.
#[test]
fn sweep_runs_match_each_certifiers_ledger() {
    let sweeps = WorkloadSpec::duration_sweep()
        .into_iter()
        .map(|(think, spec)| (format!("think {think}"), spec))
        .chain(
            WorkloadSpec::chain_sweep()
                .into_iter()
                .map(|(chain, spec)| (format!("chain {chain}"), spec)),
        );
    for (point, spec) in sweeps {
        let w = Workload::generate(spec);
        for backend in Backend::all() {
            let (m, _, certifier) = simulate(backend, &w);
            let verdict = certifier.verify_history();
            assert!(verdict.is_correct(), "{backend} {point}: {verdict:?}");
            assert_eq!(m.committed, verdict.committed, "{backend} {point}");
            assert_eq!(m.committed, w.txns.len(), "{backend} {point}");
        }
    }
}

#[test]
fn ks_protocol_commits_everything_on_contended_long_workloads() {
    for seed in 0..6 {
        let w = Workload::generate(spec(seed, 6, 40));
        let (m, _, certifier) = simulate(Backend::Cpc, &w);
        assert_eq!(m.committed, 6, "seed {seed}");
        assert_eq!(m.waits, 0, "seed {seed}");
        assert_eq!(m.aborts, 0, "seed {seed}");
        let stats = certifier.stats();
        assert_eq!(stats.validations, 6);
        assert_eq!(stats.reeval_aborts, 0);
    }
}

#[test]
fn ks_protocol_interleavings_need_not_be_serializable() {
    // The point of the paper: the protocol's committed interleavings can
    // fall OUTSIDE the serializable classes while still being correct.
    let mut found_non_csr = false;
    for seed in 0..40 {
        let w = Workload::generate(spec(seed, 6, 10));
        let (_, trace, _) = simulate(Backend::Cpc, &w);
        let s = trace_to_schedule(&trace);
        if !csr::is_csr(&s) {
            found_non_csr = true;
            break;
        }
    }
    assert!(
        found_non_csr,
        "expected at least one committed non-CSR interleaving across seeds"
    );
}

#[test]
fn engine_metrics_consistent_across_schedulers() {
    let w = Workload::generate(spec(3, 5, 5));
    for backend in Backend::all() {
        let (metrics, trace, certifier) = simulate(backend, &w);
        assert_eq!(metrics.scheduler, backend.name());
        assert!(metrics.committed <= w.txns.len(), "{backend}");
        assert!(metrics.makespan > 0, "{backend}");
        assert!(
            metrics.total_latency >= metrics.makespan - w.spec.arrival_spread,
            "{backend}"
        );
        let aborts = trace.iter().filter(|e| e.kind == TraceKind::Abort).count();
        assert_eq!(metrics.aborts, aborts as u64, "{backend}");
        assert!(
            metrics.certifier_aborts <= metrics.aborts,
            "{backend}: certifier-initiated aborts are a subset"
        );
        assert_eq!(
            metrics.certifier_aborts,
            certifier.stats().reeval_aborts,
            "{backend}"
        );
    }
}

/// Theorem 2 through the simulator: whatever the KS protocol commits
/// under the event-driven engine forms a correct, parent-based execution
/// of the formal model — including under cooperation chains.
#[test]
fn ks_protocol_sim_runs_are_model_correct() {
    for (seed, chain) in [(0u64, 1usize), (1, 2), (2, 4)] {
        let w = Workload::generate(WorkloadSpec {
            chain_length: chain,
            ..spec(seed, 8, 8)
        });
        let (_, _, certifier) = simulate(Backend::Cpc, &w);
        let pm = certifier.as_cpc().expect("cpc backend");
        let (txn, parent, exec) = ks_protocol::extract::model_execution(pm, pm.root()).unwrap();
        let schema = pm.schema().clone();
        let report = ks_core::check::check(&schema, &txn, &parent, &exec);
        assert!(report.is_correct(), "seed {seed} chain {chain}: {report:?}");
        assert!(report.parent_based, "seed {seed} chain {chain}: {report:?}");
    }
}
