//! The pluggable certification seam: a [`Certifier`] is whatever decides
//! which transactions may commit and what their reads observe.
//!
//! The paper's protocol manager ([`ProtocolManager`]) is one
//! implementation — the predicate-based CPC certifier of Section 5. The
//! serving layer (`ks-server`) is generic over this trait, so the same
//! shard workers, WAL, tracing spans, and telemetry can run the paper's
//! protocol, an SSI certifier ([`crate::ssi::SsiCertifier`]), or a plain
//! strict-2PL/CSR baseline ([`crate::tpl::TplCertifier`]) — the setup the
//! abort-rate shootout (`exp_certifier`) measures.
//!
//! Every backend also carries its own offline correctness oracle
//! ([`Certifier::verify_history`]): CPC re-checks the paper's
//! parent-based criterion via [`crate::extract`] + `ks_core::check`;
//! SSI and 2PL promise *serializability*, so their recorded histories
//! are checked Biswas–Enea style — with the full version order known,
//! conflict-graph acyclicity is an exact polynomial-time test (see
//! [`crate::history`]).

use crate::history::HistoryVerdict;
use crate::manager::{
    CommitOutcome, ProtocolManager, ProtocolStats, ReadOutcome, Txn, TxnState, ValidationOutcome,
    WriteReport,
};
use crate::ProtocolError;
use ks_core::Specification;
use ks_kernel::{EntityId, Value};
use ks_mvstore::INITIAL_AUTHOR;
use ks_obs::ObsSink;
use ks_predicate::Strategy;
use std::fmt;

/// Which certification backend a shard runs. Selection is per
/// `ServerConfig`; the wire protocol advertises it (HelloOk) and lets
/// clients pin an expectation (a backend byte in the Open path,
/// fail-closed on unknown values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The paper's predicate-based protocol (Section 5): admits
    /// correct-but-non-serializable schedules.
    #[default]
    Cpc,
    /// Serializable snapshot isolation with dangerous-structure
    /// (rw-antidependency pair) detection, after the TLA+ spec the repo
    /// tracks in SNIPPETS.md.
    Ssi,
    /// Strict two-phase locking: the CSR baseline (deadlock victims are
    /// the requesters).
    TwoPl,
}

impl Backend {
    /// The stable wire code of this backend (`0` is reserved for
    /// "unspecified" in the Open path; see `docs/wire.md`).
    pub fn code(self) -> u8 {
        match self {
            Backend::Cpc => 1,
            Backend::Ssi => 2,
            Backend::TwoPl => 3,
        }
    }

    /// Reconstruct a backend from its wire code; `None` for `0`
    /// (unspecified) and unknown codes — the wire layer fails closed.
    pub fn from_code(code: u8) -> Option<Backend> {
        match code {
            1 => Some(Backend::Cpc),
            2 => Some(Backend::Ssi),
            3 => Some(Backend::TwoPl),
            _ => None,
        }
    }

    /// Short lowercase name, as used in bench reports and dashboards.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Cpc => "cpc",
            Backend::Ssi => "ssi",
            Backend::TwoPl => "2pl",
        }
    }

    /// All production backends, in wire-code order.
    pub fn all() -> [Backend; 3] {
        [Backend::Cpc, Backend::Ssi, Backend::TwoPl]
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The certification surface a shard worker drives. One certifier owns
/// one shard: it is single-threaded by construction (the worker is the
/// sole caller), which is what lets every backend keep the paper's
/// "sequential state machine" structure.
///
/// Conventions shared by all backends (the serving layer relies on
/// them):
///
/// - Reads observe the transaction's *assigned* snapshot, never its own
///   buffered/uncommitted writes — the paper's execution model, kept
///   uniform so workloads behave identically across backends.
/// - A backend that aborts a transaction *during the victim's own call*
///   returns [`ProtocolError::CertifierAborted`]; one that cannot grant
///   access right now returns [`ProtocolError::WouldBlock`] (mapped to
///   the retryable `Busy` by the server) or the `Blocked`/`MustWait`
///   outcome variants.
/// - A transaction aborted underneath its session is discoverable via
///   [`Certifier::state_of`] returning [`TxnState::Aborted`].
pub trait Certifier: Send {
    /// Which backend this is (stamped on telemetry and advertised on the
    /// wire).
    fn backend(&self) -> Backend;

    /// Define a new top-level transaction with its `(I_t, O_t)`
    /// specification, ordered after/before existing transactions.
    /// Backends without predicate semantics treat the spec as an
    /// access-set declaration and enforce only the ordering edges.
    fn open(
        &mut self,
        spec: Specification,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<Txn, ProtocolError>;

    /// Validate: whatever the backend does before execution (CPC:
    /// `R_v` locks + version assignment; SSI: snapshot acquisition;
    /// 2PL: nothing but the phase transition).
    fn validate(
        &mut self,
        txn: Txn,
        strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError>;

    /// Read an entity under the transaction's snapshot/locks.
    fn read(&mut self, txn: Txn, entity: EntityId) -> Result<ReadOutcome, ProtocolError>;

    /// Write an entity. The report's `reeval` list names *other*
    /// transactions this write aborted (CPC re-eval victims, SSI
    /// dangerous-structure victims), which the worker counts and logs.
    fn write(
        &mut self,
        txn: Txn,
        entity: EntityId,
        value: Value,
    ) -> Result<WriteReport, ProtocolError>;

    /// Attempt to commit.
    fn commit(&mut self, txn: Txn) -> Result<CommitOutcome, ProtocolError>;

    /// Abort; returns any *other* transactions cascaded away (CPC only —
    /// SSI and 2PL never cascade, their reads never observe dirty data).
    fn abort(&mut self, txn: Txn) -> Result<Vec<Txn>, ProtocolError>;

    /// Lifecycle state of a transaction.
    fn state_of(&self, txn: Txn) -> Result<TxnState, ProtocolError>;

    /// Every client transaction this certifier has opened, in open
    /// order (the CPC backend excludes its internal root).
    fn txns(&self) -> Vec<Txn>;

    /// Accumulated statistics (backend-appropriate counters mapped onto
    /// the shared schema: every certifier-initiated abort — CPC re-eval
    /// victims, SSI dangerous structures and first-committer-wins
    /// losers, 2PL deadlock victims — counts as `reeval_aborts`).
    fn stats(&self) -> ProtocolStats;

    /// The latest *committed* value of every entity, in schema entity
    /// order — exactly the WAL checkpoint layout, and what crash
    /// recovery must reproduce.
    fn checkpoint(&self) -> Vec<Value>;

    /// Attach a flight-recorder sink for decision tracing.
    fn attach_obs(&mut self, sink: ObsSink);

    /// Offline history check: re-verify everything this certifier
    /// committed against the backend's own correctness criterion
    /// (CPC: the paper's parent-based model check; SSI/2PL:
    /// conflict-graph serializability on the recorded history).
    fn verify_history(&self) -> HistoryVerdict;

    /// Downcast to the CPC protocol manager, when this is one — the
    /// violation-dump machinery needs the manager's introspection
    /// surface, which has no backend-generic equivalent.
    fn as_cpc(&self) -> Option<&ProtocolManager> {
        None
    }
}

impl Certifier for ProtocolManager {
    fn backend(&self) -> Backend {
        Backend::Cpc
    }

    fn open(
        &mut self,
        spec: Specification,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<Txn, ProtocolError> {
        let root = self.root();
        self.define(root, spec, after, before)
    }

    fn validate(
        &mut self,
        txn: Txn,
        strategy: Strategy,
    ) -> Result<ValidationOutcome, ProtocolError> {
        ProtocolManager::validate(self, txn, strategy)
    }

    fn read(&mut self, txn: Txn, entity: EntityId) -> Result<ReadOutcome, ProtocolError> {
        ProtocolManager::read(self, txn, entity)
    }

    fn write(
        &mut self,
        txn: Txn,
        entity: EntityId,
        value: Value,
    ) -> Result<WriteReport, ProtocolError> {
        ProtocolManager::write(self, txn, entity, value)
    }

    fn commit(&mut self, txn: Txn) -> Result<CommitOutcome, ProtocolError> {
        ProtocolManager::commit(self, txn)
    }

    fn abort(&mut self, txn: Txn) -> Result<Vec<Txn>, ProtocolError> {
        ProtocolManager::abort(self, txn)
    }

    fn state_of(&self, txn: Txn) -> Result<TxnState, ProtocolError> {
        ProtocolManager::state_of(self, txn)
    }

    fn txns(&self) -> Vec<Txn> {
        self.children_of(self.root()).unwrap_or_default()
    }

    fn stats(&self) -> ProtocolStats {
        ProtocolManager::stats(self)
    }

    fn checkpoint(&self) -> Vec<Value> {
        self.schema()
            .entity_ids()
            .map(|e| {
                self.store()
                    .versions_of(e)
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|m| {
                        m.author == INITIAL_AUTHOR
                            || ProtocolManager::state_of(self, Txn(m.author.0 as usize))
                                == Ok(TxnState::Committed)
                    })
                    .max_by_key(|m| m.stamp)
                    .map_or(0, |m| m.value)
            })
            .collect()
    }

    fn attach_obs(&mut self, sink: ObsSink) {
        ProtocolManager::attach_obs(self, sink)
    }

    fn verify_history(&self) -> HistoryVerdict {
        verify_cpc(self)
    }

    fn as_cpc(&self) -> Option<&ProtocolManager> {
        Some(self)
    }
}

/// The CPC offline check: drain the manager through [`crate::extract`]
/// and hold the committed children to the paper's parent-based
/// correctness criterion with `ks_core::check`.
pub fn verify_cpc(pm: &ProtocolManager) -> HistoryVerdict {
    let mut verdict = HistoryVerdict::default();
    match crate::extract::model_execution(pm, pm.root()) {
        Ok((txn, parent, exec)) => {
            verdict.committed = txn.children().len();
            let check = ks_core::check::check(pm.schema(), &txn, &parent, &exec);
            if check.is_correct_parent_based() {
                return verdict;
            }
            // `inputs_ok[i]` indexes the committed children in slot
            // order — the same order extraction used — so a false
            // entry names a protocol node directly.
            let committed: Vec<u32> = pm
                .children_of(pm.root())
                .unwrap_or_default()
                .into_iter()
                .filter(|&c| ProtocolManager::state_of(pm, c).ok() == Some(TxnState::Committed))
                .map(|c| c.0 as u32)
                .collect();
            let mut named = false;
            for (i, ok) in check.inputs_ok.iter().enumerate() {
                if *ok {
                    continue;
                }
                let node = committed.get(i).copied().unwrap_or(u32::MAX);
                verdict.violations.push(format!(
                    "txn {node}: input condition fails on its assigned version state"
                ));
                verdict.offenders.push(node);
                named = true;
            }
            if !named {
                verdict
                    .violations
                    .push(format!("model check failed: {check:?}"));
            }
        }
        Err(e) => verdict.violations.push(format!("extraction failed: {e}")),
    }
    verdict
}

/// A shared ordering gadget: the `after`/`before` partial order that
/// every backend honours at commit (CPC enforces it inside the manager;
/// SSI/2PL use this).
#[derive(Debug, Default)]
pub(crate) struct OrderBook {
    /// `preds[t]` = transactions that must terminate before `t` commits.
    preds: Vec<Vec<usize>>,
}

impl OrderBook {
    /// Register transaction `t` (indices must arrive densely, in open
    /// order) with its ordering edges; rejects edges that would make the
    /// order cyclic.
    pub(crate) fn define(
        &mut self,
        t: usize,
        after: &[Txn],
        before: &[Txn],
    ) -> Result<(), ProtocolError> {
        debug_assert_eq!(t, self.preds.len());
        self.preds.push(after.iter().map(|x| x.0).collect());
        // `before` edges point from the *new* transaction into existing
        // ones; a path back from any `after` predecessor would close a
        // cycle (e.g. `after = before = [a]`).
        for b in before {
            if self.reaches(b.0, t) || after.iter().any(|a| a.0 == b.0) {
                self.preds.pop();
                return Err(ProtocolError::CyclicPartialOrder);
            }
        }
        for b in before {
            self.preds[b.0].push(t);
        }
        Ok(())
    }

    /// Is `to` reachable from `from` through predecessor edges?
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.preds.len()];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if n >= seen.len() || std::mem::replace(&mut seen[n], true) {
                continue;
            }
            stack.extend(self.preds.get(n).into_iter().flatten().copied());
        }
        false
    }

    /// The first predecessor of `t` that `is_terminal` does not yet hold
    /// for, if any (the commit gate).
    pub(crate) fn pending_pred(
        &self,
        t: usize,
        is_terminal: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        self.preds
            .get(t)
            .into_iter()
            .flatten()
            .copied()
            .find(|&p| !is_terminal(p))
    }

    /// Does `t` have a registered predecessor on `p`?
    #[cfg(test)]
    pub(crate) fn has_pred(&self, t: usize, p: usize) -> bool {
        self.preds.get(t).is_some_and(|v| v.contains(&p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_kernel::{Domain, Schema, UniqueState};

    #[test]
    fn backend_codes_round_trip_and_fail_closed() {
        for b in Backend::all() {
            assert_eq!(Backend::from_code(b.code()), Some(b), "{b}");
        }
        assert_eq!(Backend::from_code(0), None, "0 is reserved: unspecified");
        assert_eq!(Backend::from_code(4), None);
        assert_eq!(Backend::from_code(255), None);
        assert_eq!(Backend::default(), Backend::Cpc);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(Backend::Cpc.name(), "cpc");
        assert_eq!(Backend::Ssi.name(), "ssi");
        assert_eq!(Backend::TwoPl.name(), "2pl");
    }

    #[test]
    fn order_book_rejects_cycles_and_gates_commits() {
        let mut ob = OrderBook::default();
        ob.define(0, &[], &[]).unwrap();
        ob.define(1, &[Txn(0)], &[]).unwrap();
        // `before` the existing txn 0: 0 now waits on 2.
        ob.define(2, &[], &[Txn(0)]).unwrap();
        assert!(ob.has_pred(0, 2));
        // after == before is an immediate cycle.
        let mut bad = OrderBook::default();
        bad.define(0, &[], &[]).unwrap();
        assert_eq!(
            bad.define(1, &[Txn(0)], &[Txn(0)]),
            Err(ProtocolError::CyclicPartialOrder)
        );
        // Gate: 1 waits on 0 until 0 is terminal.
        assert_eq!(ob.pending_pred(1, |_| false), Some(0));
        assert_eq!(ob.pending_pred(1, |_| true), None);
    }

    #[test]
    fn cpc_manager_implements_the_trait() {
        let schema = Schema::uniform(["x"], Domain::Range { min: 0, max: 99 });
        let initial = UniqueState::new(&schema, vec![5]).unwrap();
        let mut c: Box<dyn Certifier> = Box::new(ProtocolManager::new(
            schema,
            &initial,
            Specification::trivial(),
        ));
        assert_eq!(c.backend(), Backend::Cpc);
        let spec = Specification::new(
            ks_predicate::parse_cnf(c.as_cpc().unwrap().schema(), "x >= 0").unwrap(),
            ks_predicate::Cnf::truth(),
        );
        let t = c.open(spec, &[], &[]).unwrap();
        c.validate(t, Strategy::Backtracking).unwrap();
        assert_eq!(
            c.read(t, EntityId(0)).unwrap(),
            ReadOutcome::Value(5),
            "assigned version"
        );
        c.write(t, EntityId(0), 7).unwrap();
        assert_eq!(c.commit(t).unwrap(), CommitOutcome::Committed);
        assert_eq!(c.txns(), vec![t]);
        assert_eq!(c.checkpoint(), vec![7]);
        let verdict = c.verify_history();
        assert!(verdict.is_correct(), "{verdict:?}");
        assert_eq!(verdict.committed, 1);
        assert!(c.as_cpc().is_some());
    }
}
