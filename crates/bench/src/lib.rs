//! # ks-bench
//!
//! The experiment harness: shared generators and runners used by the
//! `exp_*` binaries (which regenerate every figure, table and claim of the
//! paper — see `EXPERIMENTS.md`) and the Criterion benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod report;

use ks_predicate::random::SplitMix64;
use ks_protocol::sim::simulate;
use ks_protocol::Backend;
use ks_schedule::search::Programs;
use ks_schedule::{Op, Schedule, TxnId};
use ks_sim::{Metrics, Workload};

/// Generate a single random interleaving of the given programs (uniform
/// among next-step choices; preserves each program's order). Used where
/// exhaustive enumeration is too large.
pub fn random_interleaving(programs: &Programs, rng: &mut SplitMix64) -> Schedule {
    let mut cursors = vec![0usize; programs.len()];
    let total: usize = programs.iter().map(|p| p.len()).sum();
    let mut ops = Vec::with_capacity(total);
    while ops.len() < total {
        let live: Vec<usize> = (0..programs.len())
            .filter(|&p| cursors[p] < programs[p].len())
            .collect();
        let p = live[rng.index(live.len())];
        ops.push(programs[p][cursors[p]]);
        cursors[p] += 1;
    }
    Schedule::from_ops(ops)
}

/// Random flat transaction programs: `num_txns` transactions, each with
/// `ops_per_txn` read/write steps over `num_entities` entities.
pub fn random_programs(
    rng: &mut SplitMix64,
    num_txns: usize,
    ops_per_txn: usize,
    num_entities: usize,
    read_pct: u8,
) -> Programs {
    (0..num_txns)
        .map(|t| {
            (0..ops_per_txn)
                .map(|_| {
                    let e = ks_kernel::EntityId(rng.index(num_entities) as u32);
                    if rng.below(100) < read_pct as u64 {
                        Op::read(TxnId(t as u32), e)
                    } else {
                        Op::write(TxnId(t as u32), e)
                    }
                })
                .collect()
        })
        .collect()
}

/// Run one workload under every certifier backend, in [`Backend::all`]
/// order. Each run is held to its backend's own offline oracle: a
/// history that fails it, or disagrees with the engine on what
/// committed, panics.
pub fn run_all_backends(workload: &Workload) -> Vec<Metrics> {
    Backend::all()
        .into_iter()
        .map(|backend| {
            let (metrics, _, certifier) = simulate(backend, workload);
            let verdict = certifier.verify_history();
            assert!(verdict.is_correct(), "{backend}: {verdict:?}");
            assert_eq!(verdict.committed, metrics.committed, "{backend}");
            metrics
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_interleaving_preserves_program_order() {
        let mut rng = SplitMix64::new(1);
        let programs = random_programs(&mut rng, 3, 4, 5, 50);
        let s = random_interleaving(&programs, &mut rng);
        assert_eq!(s.len(), 12);
        for (t, prog) in programs.iter().enumerate() {
            assert_eq!(s.txn_ops(TxnId(t as u32)), *prog);
        }
    }

    #[test]
    fn all_backends_commit_everything_on_small_workload() {
        let w = Workload::generate(ks_sim::WorkloadSpec {
            num_txns: 6,
            ops_per_txn: 4,
            num_entities: 16,
            think_time: 2,
            ..ks_sim::WorkloadSpec::default()
        });
        for m in run_all_backends(&w) {
            assert_eq!(m.committed, 6, "{}", m.scheduler);
        }
    }
}
