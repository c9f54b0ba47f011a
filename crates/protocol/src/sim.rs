//! The discrete-event simulator, driving any [`Certifier`] through a
//! `ks-sim` [`Workload`].
//!
//! Each simulated transaction alternates *think time* and operations. An
//! attempt opens a top-level transaction whose input predicate is a
//! tautology over the entities it will access (so CPC puts them in `N_t`
//! and takes `R_v` locks; SSI and 2PL read the spec as an access-set
//! declaration), ordered `after` its chain predecessor's live attempt,
//! and validates it oldest-first ([`Strategy::Backtracking`]). The output
//! predicate is `true`: sim workloads carry no application constraint,
//! so every backend is held only to its own correctness criterion.
//!
//! A blocked transaction waits until any other transaction makes
//! progress, then retries the same request. An aborted transaction
//! restarts from its first operation after an exponential backoff — all
//! its prior work is wasted, which is exactly the cost the paper says
//! long transactions cannot afford. If every live transaction is blocked
//! and no event remains (a wait the certifier does not see as a
//! deadlock), the engine aborts the youngest blocked transaction.
//!
//! The same certifiers serve `ks-server`, so a simulated run is checked
//! by the backend's own offline oracle ([`Certifier::verify_history`]).

use crate::certifier::{Backend, Certifier};
use crate::manager::{
    CommitOutcome, ProtocolManager, ReadOutcome, Txn, TxnState, ValidationOutcome, WriteReport,
};
use crate::ssi::SsiCertifier;
use crate::tpl::TplCertifier;
use crate::ProtocolError;
use ks_core::Specification;
use ks_kernel::{Domain, Schema, UniqueState};
use ks_predicate::{Atom, Clause, CmpOp, Cnf, Strategy};
use ks_sim::{Metrics, SimTime, SimTxnId, TraceEvent, TraceKind, Workload};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// Base restart backoff after an abort, in ticks.
const ABORT_BACKOFF: SimTime = 5;
/// Hard cap on events processed (guards against livelock).
const MAX_EVENTS: u64 = 10_000_000;

/// What the engine does with a certifier's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The request took effect.
    Proceed,
    /// Retry after the next state change.
    Block,
    /// The attempt is over; restart after backoff.
    Abort,
}

/// A successful certifier answer, read as a [`Step`].
trait Outcome {
    fn step(&self) -> Step;
}

impl Outcome for ValidationOutcome {
    fn step(&self) -> Step {
        match self {
            ValidationOutcome::Validated => Step::Proceed,
            ValidationOutcome::Blocked(_) | ValidationOutcome::MustWait(_) => Step::Block,
            ValidationOutcome::CannotSatisfy => Step::Abort,
        }
    }
}

impl Outcome for ReadOutcome {
    fn step(&self) -> Step {
        match self {
            ReadOutcome::Value(_) => Step::Proceed,
            ReadOutcome::Blocked(_) => Step::Block,
        }
    }
}

impl Outcome for WriteReport {
    fn step(&self) -> Step {
        Step::Proceed
    }
}

impl Outcome for CommitOutcome {
    fn step(&self) -> Step {
        match self {
            CommitOutcome::Committed => Step::Proceed,
            CommitOutcome::PredecessorsPending(_) | CommitOutcome::ChildrenPending(_) => {
                Step::Block
            }
            CommitOutcome::OutputViolated => Step::Abort,
        }
    }
}

/// The one mapping from a certifier result to the engine's next step.
/// Any other error means the engine drove the certifier wrongly.
fn step<T: Outcome>(result: Result<T, ProtocolError>) -> Step {
    match result {
        Ok(outcome) => outcome.step(),
        Err(ProtocolError::WouldBlock(_)) => Step::Block,
        Err(ProtocolError::CertifierAborted { .. }) => Step::Abort,
        Err(e) => panic!("certifier rejected a simulated request: {e}"),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Next action: attempt operation `i`.
    Op(usize),
    /// Next action: attempt commit.
    Commit,
    /// Committed.
    Done,
}

#[derive(Debug, Clone)]
struct Slot {
    phase: Phase,
    /// The current attempt's certifier transaction; kept after commit,
    /// where it is the chain successor's `after` edge.
    handle: Option<Txn>,
    attempt_start: SimTime,
    blocked_since: Option<SimTime>,
    aborts: u64,
}

/// The simulator: one workload, one certifier.
pub struct Engine<'a, C: Certifier + ?Sized> {
    workload: &'a Workload,
    certifier: &'a mut C,
    slots: Vec<Slot>,
    /// Min-heap of `(time, seq, txn)`; `seq` keeps the order deterministic.
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    seq: u64,
    /// Value source for writes (values are irrelevant to the sim).
    next_value: i64,
    trace: Vec<TraceEvent>,
    metrics: Metrics,
}

impl<'a, C: Certifier + ?Sized> Engine<'a, C> {
    /// An engine over a workload and a fresh certifier whose schema
    /// covers the workload's entities.
    pub fn new(workload: &'a Workload, certifier: &'a mut C) -> Self {
        let slots = workload
            .txns
            .iter()
            .map(|t| Slot {
                phase: Phase::Op(0),
                handle: None,
                attempt_start: t.arrival,
                blocked_since: None,
                aborts: 0,
            })
            .collect();
        let metrics = Metrics {
            scheduler: certifier.backend().name().to_string(),
            ..Metrics::default()
        };
        Engine {
            workload,
            certifier,
            slots,
            queue: BinaryHeap::new(),
            seq: 0,
            next_value: 1,
            trace: Vec::new(),
            metrics,
        }
    }

    /// Run to completion; returns the metrics and the full trace. The
    /// certifier keeps the run's history for post-run checks.
    pub fn run(mut self) -> (Metrics, Vec<TraceEvent>) {
        let workload = self.workload;
        for (i, t) in workload.txns.iter().enumerate() {
            self.schedule(t.arrival, i);
        }
        let mut blocked: BTreeSet<usize> = BTreeSet::new();
        let mut now: SimTime = 0;
        let mut events: u64 = 0;
        while events < MAX_EVENTS {
            let Some(Reverse((time, _, i))) = self.queue.pop() else {
                // No events left: an undetected deadlock if anyone is
                // blocked. Abort the youngest blocked transaction.
                let Some(victim) = blocked.pop_last() else {
                    break;
                };
                self.abort(victim, now);
                continue;
            };
            events += 1;
            now = now.max(time);
            if self.slots[i].phase == Phase::Done {
                continue;
            }
            let progressed = match self.attempt(i, now) {
                Step::Proceed => {
                    blocked.remove(&i);
                    self.proceed(i, now);
                    true
                }
                Step::Block => {
                    let slot = &mut self.slots[i];
                    if slot.blocked_since.is_none() {
                        slot.blocked_since = Some(now);
                        self.metrics.waits += 1;
                    }
                    blocked.insert(i);
                    false
                }
                Step::Abort => {
                    blocked.remove(&i);
                    self.abort(i, now);
                    true
                }
            };
            if progressed {
                // Wake every blocked transaction to retry.
                for &b in &blocked {
                    self.schedule(now + 1, b);
                }
            }
        }
        let stats = self.certifier.stats();
        self.metrics.re_evals = stats.re_evals;
        self.metrics.re_assigns = stats.re_assigns;
        self.metrics.certifier_aborts = stats.reeval_aborts;
        self.metrics.cascade_aborts = stats.cascade_aborts;
        (self.metrics, self.trace)
    }

    fn schedule(&mut self, time: SimTime, i: usize) {
        self.queue.push(Reverse((time, self.seq, i)));
        self.seq += 1;
    }

    fn record(&mut self, time: SimTime, i: usize, kind: TraceKind) {
        self.trace.push(TraceEvent {
            time,
            txn: SimTxnId(i as u32),
            kind,
        });
    }

    /// Issue transaction `i`'s next request, beginning a new attempt if
    /// it has none.
    fn attempt(&mut self, i: usize, now: SimTime) -> Step {
        let workload = self.workload;
        let txn = &workload.txns[i];
        let handle = match self.slots[i].handle {
            Some(h) => h,
            None => self.begin(i, now),
        };
        match self.certifier.state_of(handle).expect("engine handle") {
            TxnState::Aborted => return Step::Abort,
            TxnState::Defined => {
                let s = step(self.certifier.validate(handle, Strategy::Backtracking));
                if s != Step::Proceed {
                    return s;
                }
            }
            TxnState::Validated | TxnState::Committed => {}
        }
        match self.slots[i].phase {
            Phase::Op(k) if txn.ops[k].is_write => {
                self.next_value += 1;
                step(
                    self.certifier
                        .write(handle, txn.ops[k].entity, self.next_value),
                )
            }
            Phase::Op(k) => step(self.certifier.read(handle, txn.ops[k].entity)),
            Phase::Commit => step(self.certifier.commit(handle)),
            Phase::Done => unreachable!("finished transactions get no events"),
        }
    }

    /// Open a new attempt of transaction `i`, after its chain
    /// predecessor's live attempt (an aborted predecessor does not gate
    /// the commit).
    fn begin(&mut self, i: usize, now: SimTime) -> Txn {
        let txn = &self.workload.txns[i];
        let after: Vec<Txn> = txn
            .predecessor
            .and_then(|p| self.slots[p.index()].handle)
            .into_iter()
            .collect();
        let access: BTreeSet<_> = txn.ops.iter().map(|o| o.entity).collect();
        let input = Cnf::new(
            access
                .into_iter()
                .map(|e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, i64::MIN / 2)))
                .collect(),
        );
        let handle = self
            .certifier
            .open(Specification::new(input, Cnf::truth()), &after, &[])
            .expect("top-level transactions open");
        let slot = &mut self.slots[i];
        slot.handle = Some(handle);
        slot.attempt_start = now;
        self.record(now, i, TraceKind::Begin);
        handle
    }

    /// The request of transaction `i` took effect: record it and
    /// schedule the next one.
    fn proceed(&mut self, i: usize, now: SimTime) {
        self.finish_wait(i, now);
        let workload = self.workload;
        let txn = &workload.txns[i];
        match self.slots[i].phase {
            Phase::Op(k) => {
                let op = txn.ops[k];
                let kind = if op.is_write {
                    TraceKind::Write(op.entity)
                } else {
                    TraceKind::Read(op.entity)
                };
                self.record(now, i, kind);
                if k + 1 < txn.ops.len() {
                    self.slots[i].phase = Phase::Op(k + 1);
                    self.schedule(now + 1 + txn.think_time, i);
                } else {
                    self.slots[i].phase = Phase::Commit;
                    self.schedule(now + 1, i);
                }
            }
            Phase::Commit => {
                self.record(now, i, TraceKind::Commit);
                self.slots[i].phase = Phase::Done;
                let m = &mut self.metrics;
                m.committed += 1;
                m.makespan = m.makespan.max(now);
                m.total_latency += now - txn.arrival;
                m.latencies.push(now - txn.arrival);
            }
            Phase::Done => unreachable!("finished transactions get no events"),
        }
    }

    fn finish_wait(&mut self, i: usize, now: SimTime) {
        if let Some(since) = self.slots[i].blocked_since.take() {
            let waited = now - since;
            self.metrics.total_wait_time += waited;
            self.metrics.max_wait = self.metrics.max_wait.max(waited);
        }
    }

    /// End transaction `i`'s attempt and schedule its restart. The
    /// certifier is told only if it has not aborted the attempt itself.
    fn abort(&mut self, i: usize, now: SimTime) {
        self.finish_wait(i, now);
        self.record(now, i, TraceKind::Abort);
        if let Some(h) = self.slots[i].handle.take() {
            if self.certifier.state_of(h) != Ok(TxnState::Aborted) {
                self.certifier.abort(h).expect("live attempts abort");
            }
        }
        let slot = &mut self.slots[i];
        self.metrics.aborts += 1;
        self.metrics.wasted_work += now.saturating_sub(slot.attempt_start);
        slot.aborts += 1;
        slot.phase = Phase::Op(0);
        // Exponential, and desynchronized per transaction: mutual aborts
        // otherwise restart in lock-step and collide forever.
        let backoff = ABORT_BACKOFF * (1 << slot.aborts.min(12)) * (i as SimTime + 1);
        self.schedule(now + backoff, i);
    }
}

/// The workload's entities over an effectively unbounded domain, all 0.
fn database_for(workload: &Workload) -> (Schema, UniqueState) {
    let n = workload.spec.num_entities;
    let schema = Schema::uniform(
        (0..n).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    );
    (schema, UniqueState::constant(n, 0))
}

/// Run `workload` under a fresh `backend` certifier over the workload's
/// entities; the certifier comes back for post-run checks
/// ([`Certifier::verify_history`], `stats`).
pub fn simulate(
    backend: Backend,
    workload: &Workload,
) -> (Metrics, Vec<TraceEvent>, Box<dyn Certifier>) {
    let (schema, initial) = database_for(workload);
    let mut certifier: Box<dyn Certifier> = match backend {
        Backend::Cpc => Box::new(ProtocolManager::new(
            schema,
            &initial,
            Specification::trivial(),
        )),
        Backend::Ssi => Box::new(SsiCertifier::new(schema, &initial)),
        Backend::TwoPl => Box::new(TplCertifier::new(schema, &initial)),
    };
    let (metrics, trace) = Engine::new(workload, certifier.as_mut()).run();
    (metrics, trace, certifier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryVerdict;
    use crate::manager::ProtocolStats;
    use ks_kernel::{EntityId, Value};
    use ks_obs::ObsSink;
    use ks_sim::WorkloadSpec;

    fn contended(seed: u64) -> Workload {
        Workload::generate(WorkloadSpec {
            num_txns: 6,
            ops_per_txn: 4,
            num_entities: 4,
            read_pct: 50,
            think_time: 3,
            hot_fraction_pct: 25,
            hot_access_pct: 90,
            arrival_spread: 4,
            chain_length: 1,
            seed,
        })
    }

    fn begins_of(trace: &[TraceEvent], txn: SimTxnId) -> usize {
        trace
            .iter()
            .filter(|e| e.txn == txn && e.kind == TraceKind::Begin)
            .count()
    }

    #[test]
    fn cpc_commits_everything_without_waits_or_aborts() {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 12,
            ops_per_txn: 6,
            num_entities: 8,
            read_pct: 50,
            think_time: 25,
            hot_access_pct: 90, // heavy contention — 2PL would queue up
            ..WorkloadSpec::default()
        });
        let (m, trace, cert) = simulate(Backend::Cpc, &w);
        assert_eq!(m.scheduler, "cpc");
        assert_eq!(m.committed, 12);
        assert_eq!(m.waits, 0, "no partial order ⇒ no read-side conflicts");
        assert_eq!(m.aborts, 0);
        assert_eq!(cert.stats().validations, 12);
        assert!(cert.stats().writes > 0);
        let ops = trace
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Read(_) | TraceKind::Write(_)))
            .count();
        assert_eq!(ops, w.total_ops(), "every op executed exactly once");
    }

    #[test]
    fn lock_waits_are_measured_and_resolved() {
        let (m, _, _) = simulate(Backend::TwoPl, &contended(1));
        assert_eq!(m.committed, 6);
        assert!(m.waits >= 1, "{m:?}");
        assert!(m.total_wait_time > 0);
        assert!(m.max_wait > 0);
    }

    #[test]
    fn certifier_aborts_restart_and_commit() {
        for backend in [Backend::Ssi, Backend::TwoPl] {
            let (m, trace, cert) = simulate(backend, &contended(1));
            assert_eq!(m.committed, 6, "{backend}");
            assert!(m.aborts >= 1, "{backend}: {m:?}");
            assert!(m.wasted_work > 0, "{backend}");
            assert_eq!(m.certifier_aborts, cert.stats().reeval_aborts, "{backend}");
            let aborts = trace.iter().filter(|e| e.kind == TraceKind::Abort);
            for a in aborts {
                assert!(
                    begins_of(&trace, a.txn) >= 2,
                    "{backend}: {} restarts",
                    a.txn
                );
            }
            assert_eq!(
                trace.iter().filter(|e| e.kind == TraceKind::Abort).count() as u64,
                m.aborts
            );
        }
    }

    /// 2PL that never grants the first attempt of workload transaction 1
    /// a read: a wait its deadlock detector cannot see.
    struct Stuck(TplCertifier);

    impl Certifier for Stuck {
        fn backend(&self) -> Backend {
            self.0.backend()
        }
        fn open(
            &mut self,
            spec: Specification,
            after: &[Txn],
            before: &[Txn],
        ) -> Result<Txn, ProtocolError> {
            self.0.open(spec, after, before)
        }
        fn validate(
            &mut self,
            txn: Txn,
            strategy: Strategy,
        ) -> Result<ValidationOutcome, ProtocolError> {
            self.0.validate(txn, strategy)
        }
        fn read(&mut self, txn: Txn, entity: EntityId) -> Result<ReadOutcome, ProtocolError> {
            if txn == Txn(1) {
                return Ok(ReadOutcome::Blocked(entity));
            }
            self.0.read(txn, entity)
        }
        fn write(
            &mut self,
            txn: Txn,
            entity: EntityId,
            value: Value,
        ) -> Result<WriteReport, ProtocolError> {
            self.0.write(txn, entity, value)
        }
        fn commit(&mut self, txn: Txn) -> Result<CommitOutcome, ProtocolError> {
            self.0.commit(txn)
        }
        fn abort(&mut self, txn: Txn) -> Result<Vec<Txn>, ProtocolError> {
            self.0.abort(txn)
        }
        fn state_of(&self, txn: Txn) -> Result<TxnState, ProtocolError> {
            self.0.state_of(txn)
        }
        fn txns(&self) -> Vec<Txn> {
            self.0.txns()
        }
        fn stats(&self) -> ProtocolStats {
            self.0.stats()
        }
        fn checkpoint(&self) -> Vec<Value> {
            self.0.checkpoint()
        }
        fn attach_obs(&mut self, sink: ObsSink) {
            self.0.attach_obs(sink)
        }
        fn verify_history(&self) -> HistoryVerdict {
            self.0.verify_history()
        }
    }

    #[test]
    fn undetected_deadlock_broken_by_engine() {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 2,
            ops_per_txn: 1,
            read_pct: 100,
            think_time: 0,
            arrival_spread: 0,
            ..WorkloadSpec::default()
        });
        let (schema, initial) = database_for(&w);
        let mut stuck = Stuck(TplCertifier::new(schema, &initial));
        let (m, trace) = Engine::new(&w, &mut stuck).run();
        // Transaction 1's first attempt waits with no event left to wake
        // it; the engine aborts it, and its second attempt commits.
        assert_eq!(m.committed, 2);
        assert_eq!(m.waits, 1);
        assert_eq!(m.aborts, 1);
        assert_eq!(m.certifier_aborts, 0, "the engine's abort, not 2PL's");
        assert_eq!(begins_of(&trace, SimTxnId(1)), 2);
        assert!(stuck.verify_history().is_correct());
    }

    #[test]
    fn chained_runs_commit_everything_on_every_backend() {
        let w = Workload::generate(WorkloadSpec {
            chain_length: 4,
            ..WorkloadSpec::default()
        });
        for backend in Backend::all() {
            let (m, _, cert) = simulate(backend, &w);
            assert_eq!(m.committed, w.txns.len(), "{backend}");
            let verdict = cert.verify_history();
            assert!(verdict.is_correct(), "{backend}: {verdict:?}");
            assert_eq!(verdict.committed, m.committed, "{backend}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = contended(3);
        for backend in Backend::all() {
            let (m1, t1, _) = simulate(backend, &w);
            let (m2, t2, _) = simulate(backend, &w);
            assert_eq!(m1, m2, "{backend}");
            assert_eq!(t1, t2, "{backend}");
        }
    }
}
