//! The closed-loop client: issue one generated transaction, wait for its
//! outcome, issue the next. Written against `ks_server::Client`, so the
//! same loop drives an in-process `Session` and a TCP `RemoteSession`.
//! Each client either runs on a thread of its own ([`drive`]) or shares
//! one thread with the others, one call each in turn
//! ([`drive_interleaved`]).

use crate::workload::{tautology_spec, value_ok, GenTxn};
use ks_server::{Backoff, BatchOp, BatchReply, Client, ServerError, TxnBuilder};
use std::time::{Duration, Instant};

/// Transient-error retries one transaction may spend before it is
/// abandoned.
const RETRY_BUDGET: u32 = 1000;

/// A client call the closed loop times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Client::open`.
    Open,
    /// `Client::validate`.
    Validate,
    /// `Client::read`.
    Read,
    /// `Client::write`.
    Write,
    /// `Client::run_batch`.
    Batch,
    /// `Client::commit`.
    Commit,
}

impl Call {
    /// Every timed call, in report order.
    pub const ALL: [Call; 6] = [
        Call::Open,
        Call::Validate,
        Call::Read,
        Call::Write,
        Call::Batch,
        Call::Commit,
    ];

    /// Metric-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Call::Open => "open",
            Call::Validate => "validate",
            Call::Read => "read",
            Call::Write => "write",
            Call::Batch => "batch",
            Call::Commit => "commit",
        }
    }
}

/// How a transaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Commit acknowledged.
    Committed,
    /// Aborted, rejected, or abandoned by a certifier decision.
    Aborted,
    /// Ended by a transport or service error (not a certifier decision).
    Failed,
}

/// One attempted transaction, timed from open to its final reply.
#[derive(Debug, Clone, Copy)]
pub struct TxnSample {
    /// Open issued, ns after the pass epoch.
    pub start_ns: u64,
    /// Final reply received, ns after the pass epoch.
    pub end_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
}

/// Everything one client observed.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One sample per attempted transaction, in issue order.
    pub txns: Vec<TxnSample>,
    /// Durations (µs) of successful calls, indexed by `Call as usize`.
    pub calls: [Vec<f64>; 6],
    /// Transient errors retried.
    pub busy_retries: u64,
    /// Reads that returned a value never written to the entity read.
    pub bad_reads: u64,
}

/// Run `client`'s closed loop over `txns` and log what it saw. Times
/// are relative to `epoch`; transient errors back off before the retry.
pub fn drive<C: Client>(
    client: &C,
    txns: &[GenTxn],
    batch: bool,
    epoch: Instant,
    seed: u64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut backoff = Backoff::new(Duration::from_micros(5), Duration::from_micros(500), seed);
    for txn in txns {
        let mut run = TxnRun::new(epoch);
        let outcome = loop {
            match run.step(client, txn, batch, &mut log) {
                Turn::Advanced => backoff.reset(),
                Turn::Retry => backoff.snooze(),
                Turn::Done(outcome) => break outcome,
            }
        };
        log.txns.push(run.sample(epoch, outcome));
    }
    log
}

/// Run every client's closed loop from this one thread: each client in
/// turn makes one call of its current transaction, and a client told to
/// retry waits for its next turn, while the others move on. The service
/// sees the same sequence of calls on every run, so what it does depends
/// on the inputs alone, not on how the OS schedules client threads.
/// Client `c` issues `txns[c]`; times are relative to `epoch`.
pub fn drive_interleaved<C: Client>(
    clients: &[C],
    txns: &[&[GenTxn]],
    batch: bool,
    epoch: Instant,
) -> Vec<ClientLog> {
    let mut logs: Vec<ClientLog> = clients.iter().map(|_| ClientLog::default()).collect();
    let mut flight: Vec<Option<TxnRun<C::Handle>>> = clients.iter().map(|_| None).collect();
    let mut live = true;
    while live {
        live = false;
        for (c, client) in clients.iter().enumerate() {
            let log = &mut logs[c];
            // The transaction in flight is the first one not yet logged.
            let n = log.txns.len();
            if n == txns[c].len() {
                continue;
            }
            live = true;
            let run = flight[c].get_or_insert_with(|| TxnRun::new(epoch));
            if let Turn::Done(outcome) = run.step(client, &txns[c][n], batch, log) {
                log.txns.push(run.sample(epoch, outcome));
                flight[c] = None;
            }
        }
    }
    logs
}

/// Certifier decisions end a transaction as aborted; anything else as
/// failed.
fn classify(e: &ServerError) -> Outcome {
    match e {
        ServerError::Rejected(_) | ServerError::ReEvalAborted | ServerError::Busy => {
            Outcome::Aborted
        }
        _ => Outcome::Failed,
    }
}

/// The call a transaction in flight makes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Open,
    Validate,
    /// Operation `i` of the access phase (the whole burst when batched).
    Access(usize),
    Commit,
}

/// What one call did to its transaction.
enum Turn {
    /// The call succeeded; the transaction moves to its next call.
    Advanced,
    /// A transient error, within the retry budget: repeat the call.
    Retry,
    /// The transaction ended.
    Done(Outcome),
}

/// One transaction in flight, advanced one client call at a time.
struct TxnRun<H> {
    next: Step,
    handle: Option<H>,
    budget: u32,
    /// Open issued, ns after the pass epoch.
    start_ns: u64,
}

impl<H: Copy> TxnRun<H> {
    fn new(epoch: Instant) -> Self {
        TxnRun {
            next: Step::Open,
            handle: None,
            budget: RETRY_BUDGET,
            start_ns: epoch.elapsed().as_nanos() as u64,
        }
    }

    /// The finished transaction's sample, ending now.
    fn sample(&self, epoch: Instant, outcome: Outcome) -> TxnSample {
        TxnSample {
            start_ns: self.start_ns,
            end_ns: epoch.elapsed().as_nanos() as u64,
            outcome,
        }
    }

    /// Make the next call of `txn`, timing it under its [`Call`] when it
    /// succeeds.
    fn step<C: Client<Handle = H>>(
        &mut self,
        client: &C,
        txn: &GenTxn,
        batch: bool,
        log: &mut ClientLog,
    ) -> Turn {
        let result = match (self.next, self.handle) {
            (Step::Open, _) => {
                let builder = TxnBuilder::new(tautology_spec(&txn.entities));
                timed(log, Call::Open, || client.open(builder)).map(|h| {
                    self.handle = Some(h);
                    Step::Validate
                })
            }
            (Step::Validate, Some(h)) => {
                timed(log, Call::Validate, || client.validate(h)).map(|()| Step::Access(0))
            }
            (Step::Access(_), Some(h)) if batch => {
                access_burst(client, h, txn, log).map(|()| Step::Commit)
            }
            (Step::Access(i), Some(h)) => {
                let op = txn.ops[i];
                let done = match op.write {
                    true => timed(log, Call::Write, || client.write(h, op.entity, op.value)),
                    false => timed(log, Call::Read, || client.read(h, op.entity)).map(|v| {
                        log.bad_reads += u64::from(!value_ok(op.entity, v));
                    }),
                };
                done.map(|()| match i + 1 {
                    next if next < txn.ops.len() => Step::Access(next),
                    _ => Step::Commit,
                })
            }
            (Step::Commit, Some(h)) => {
                return match timed(log, Call::Commit, || client.commit(h)) {
                    Ok(()) => Turn::Done(Outcome::Committed),
                    Err(e) => self.failed(client, e, log),
                };
            }
            (_, None) => unreachable!("every call after open has a handle"),
        };
        match result {
            Ok(next) => {
                self.next = next;
                Turn::Advanced
            }
            Err(e) => self.failed(client, e, log),
        }
    }

    /// Retry a transient error within the budget; end the transaction on
    /// anything else.
    fn failed<C: Client<Handle = H>>(
        &mut self,
        client: &C,
        e: ServerError,
        log: &mut ClientLog,
    ) -> Turn {
        if e.is_retryable() && self.budget > 0 {
            self.budget -= 1;
            log.busy_retries += 1;
            return Turn::Retry;
        }
        if let Some(h) = self.handle {
            let _ = client.abort(h);
        }
        Turn::Done(classify(&e))
    }
}

/// Time `f` under `call` when it succeeds.
fn timed<T>(
    log: &mut ClientLog,
    call: Call,
    f: impl FnOnce() -> Result<T, ServerError>,
) -> Result<T, ServerError> {
    let t = Instant::now();
    let result = f();
    if result.is_ok() {
        log.calls[call as usize].push(t.elapsed().as_secs_f64() * 1e6);
    }
    result
}

/// Send `txn`'s whole access phase as one `run_batch` burst and check
/// every reply.
fn access_burst<C: Client>(
    client: &C,
    handle: C::Handle,
    txn: &GenTxn,
    log: &mut ClientLog,
) -> Result<(), ServerError> {
    let burst: Vec<BatchOp> = txn
        .ops
        .iter()
        .map(|op| match op.write {
            true => BatchOp::Write(op.entity, op.value),
            false => BatchOp::Read(op.entity),
        })
        .collect();
    let replies = timed(log, Call::Batch, || {
        client
            .run_batch(handle, &burst)?
            .into_iter()
            .collect::<Result<Vec<BatchReply>, ServerError>>()
    })?;
    for (op, reply) in txn.ops.iter().zip(&replies) {
        let ok = match (op.write, reply) {
            (true, BatchReply::Done) => true,
            (false, BatchReply::Value(v)) => value_ok(op.entity, *v),
            _ => false,
        };
        log.bad_reads += u64::from(!ok);
    }
    log.bad_reads += u64::from(replies.len() != txn.ops.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;
    use ks_kernel::{EntityId, Value};
    use std::cell::{Cell, RefCell};

    /// A client that records every call and answers `Busy` to its first
    /// `busy` validations.
    struct Fake<'a> {
        id: usize,
        calls: &'a RefCell<Vec<(usize, &'static str)>>,
        busy: Cell<u32>,
    }

    impl Fake<'_> {
        fn log(&self, call: &'static str) {
            self.calls.borrow_mut().push((self.id, call));
        }
    }

    impl Client for Fake<'_> {
        type Handle = u32;

        fn open(&self, _: TxnBuilder<u32>) -> Result<u32, ServerError> {
            self.log("open");
            Ok(0)
        }

        fn validate(&self, _: u32) -> Result<(), ServerError> {
            self.log("validate");
            match self.busy.get() {
                0 => Ok(()),
                n => {
                    self.busy.set(n - 1);
                    Err(ServerError::Busy)
                }
            }
        }

        fn read(&self, _: u32, _: EntityId) -> Result<Value, ServerError> {
            self.log("read");
            Ok(0)
        }

        fn write(&self, _: u32, _: EntityId, _: Value) -> Result<(), ServerError> {
            self.log("write");
            Ok(())
        }

        fn commit(&self, _: u32) -> Result<(), ServerError> {
            self.log("commit");
            Ok(())
        }

        fn abort(&self, _: u32) -> Result<(), ServerError> {
            self.log("abort");
            Ok(())
        }
    }

    #[test]
    fn interleaved_clients_take_one_call_each_in_turn() {
        let calls = RefCell::new(Vec::new());
        let clients: Vec<Fake> = (0..2)
            .map(|id| Fake {
                id,
                calls: &calls,
                busy: Cell::new(u32::from(id == 0)),
            })
            .collect();
        let txn = GenTxn {
            shard: 0,
            ops: vec![Op {
                write: false,
                entity: EntityId(0),
                value: 0,
            }],
            entities: vec![EntityId(0)],
        };
        let one = std::slice::from_ref(&txn);
        let logs = drive_interleaved(&clients, &[one, one], false, Instant::now());
        // Client 0's busy validation is retried on its next turn, while
        // client 1 moves on.
        let expected = [
            (0, "open"),
            (1, "open"),
            (0, "validate"),
            (1, "validate"),
            (0, "validate"),
            (1, "read"),
            (0, "read"),
            (1, "commit"),
            (0, "commit"),
        ];
        assert_eq!(calls.into_inner(), expected);
        assert_eq!(logs[0].busy_retries, 1);
        for log in &logs {
            assert_eq!(log.txns.len(), 1);
            assert_eq!(log.txns[0].outcome, Outcome::Committed);
        }
    }
}
