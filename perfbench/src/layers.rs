//! Per-layer measurements taken from outside the program: a serial
//! replay through standalone certifiers, wire codec timing over the
//! workload's own request shapes, and stitched trace spans.

use crate::drive::Call;
use crate::stats::{median, sorted};
use crate::workload::{initial, schema, tautology_spec, GenTxn, Stream, WorkloadDef};
use ks_core::Specification;
use ks_kernel::EntityId;
use ks_net::wire::{decode_response, encode_request, encode_response};
use ks_net::{Request, Response};
use ks_obs::{stitch_traces, ObsEvent, SpanHop};
use ks_predicate::Strategy;
use ks_protocol::manager::ProtocolStats;
use ks_protocol::{
    Backend, Certifier, CommitOutcome, ProtocolManager, ReadOutcome, SsiCertifier, TplCertifier,
    ValidationOutcome,
};
use ks_server::{BatchOp, BatchReply, ShardMap};
use std::hint::black_box;
use std::time::Instant;

/// The first `counts[c]` transactions of each client's stream, in
/// round-robin client order — the order a fair interleaving issues them.
pub fn interleave<'a>(streams: &'a [Stream], counts: &[usize]) -> Vec<&'a GenTxn> {
    let rounds = counts.iter().copied().max().unwrap_or(0);
    (0..rounds)
        .flat_map(|n| {
            streams
                .iter()
                .zip(counts)
                .filter(move |(_, &count)| n < count)
                .map(move |(s, _)| &s.generated()[n])
        })
        .collect()
}

/// What the serial certifier replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Call durations (µs) by `Call as usize`; `Batch` stays empty.
    pub calls: [Vec<f64>; 6],
    /// Validate durations (µs) in replay order.
    pub validate_seq: Vec<f64>,
    /// Certifier counters summed over shards.
    pub stats: ProtocolStats,
    /// Transactions replayed.
    pub txns: usize,
    /// Transactions the certifiers did not commit.
    pub not_committed: usize,
    /// Children of the root (CPC), or transactions retained (SSI / 2PL).
    pub root_children: usize,
    /// Longest version chain (CPC only).
    pub chain_max: usize,
    /// Mean version-chain length (CPC only).
    pub chain_mean: f64,
}

fn certifier(def: &WorkloadDef, map: &ShardMap, shard: usize) -> Box<dyn Certifier> {
    let (sub, init) = (
        map.sub_schema(shard).clone(),
        map.sub_initial(shard, &initial()),
    );
    match def.backend {
        Backend::Cpc => Box::new(ProtocolManager::new(sub, &init, Specification::trivial())),
        Backend::Ssi => Box::new(SsiCertifier::new(sub, &init)),
        Backend::TwoPl => Box::new(TplCertifier::new(sub, &init)),
    }
}

/// Replay `txns` one at a time through a standalone certifier per shard
/// of `def`'s backend, timing each call through the `Certifier` trait.
pub fn serial_replay(def: &WorkloadDef, txns: &[&GenTxn]) -> Replay {
    let map = ShardMap::new(&schema(), def.shards);
    let mut certs: Vec<Box<dyn Certifier>> =
        (0..map.shards()).map(|s| certifier(def, &map, s)).collect();
    let mut out = Replay {
        txns: txns.len(),
        ..Replay::default()
    };
    let time = |out: &mut Replay, call: Call, t: Instant| {
        out.calls[call as usize].push(t.elapsed().as_secs_f64() * 1e6)
    };
    for txn in txns {
        let cert = &mut certs[txn.shard];
        let spec = map.localize_spec(txn.shard, &tautology_spec(&txn.entities));
        let t = Instant::now();
        let Ok(id) = cert.open(spec, &[], &[]) else {
            out.not_committed += 1;
            continue;
        };
        time(&mut out, Call::Open, t);
        let committed = (|| {
            let t = Instant::now();
            let validated = cert.validate(id, Strategy::Backtracking);
            let us = t.elapsed().as_secs_f64() * 1e6;
            out.validate_seq.push(us);
            out.calls[Call::Validate as usize].push(us);
            if !matches!(validated, Ok(ValidationOutcome::Validated)) {
                return false;
            }
            for op in &txn.ops {
                let local = map.to_local(op.entity);
                let t = Instant::now();
                if op.write {
                    if cert.write(id, local, op.value).is_err() {
                        return false;
                    }
                    time(&mut out, Call::Write, t);
                } else {
                    if !matches!(cert.read(id, local), Ok(ReadOutcome::Value(_))) {
                        return false;
                    }
                    time(&mut out, Call::Read, t);
                }
            }
            let t = Instant::now();
            let done = matches!(cert.commit(id), Ok(CommitOutcome::Committed));
            time(&mut out, Call::Commit, t);
            done
        })();
        if !committed {
            let _ = cert.abort(id);
            out.not_committed += 1;
        }
    }
    let mut chains = Vec::new();
    for cert in &certs {
        let s = cert.stats();
        let sum = &mut out.stats;
        sum.validations += s.validations;
        sum.validation_failures += s.validation_failures;
        sum.reads += s.reads;
        sum.writes += s.writes;
        sum.re_evals += s.re_evals;
        sum.re_assigns += s.re_assigns;
        sum.reeval_aborts += s.reeval_aborts;
        sum.cascade_aborts += s.cascade_aborts;
        match cert.as_cpc() {
            Some(cpc) => {
                out.root_children += cpc.children_of(cpc.root()).map_or(0, |c| c.len());
                chains.extend(
                    (0..cpc.schema().len())
                        .map(|e| cpc.store().chain_len(EntityId(e as u32)).unwrap_or(0)),
                );
            }
            None => out.root_children += cert.txns().len(),
        }
    }
    out.chain_max = chains.iter().copied().max().unwrap_or(0);
    out.chain_mean = match chains.len() {
        0 => 0.0,
        n => chains.iter().sum::<usize>() as f64 / n as f64,
    };
    out
}

/// Validate p50 over the last quarter of the replay divided by the
/// first quarter's.
pub fn validate_growth(seq: &[f64]) -> f64 {
    let q = seq.len() / 4;
    if q == 0 {
        return 1.0;
    }
    let first = median(&sorted(seq[..q].to_vec()));
    let last = median(&sorted(seq[seq.len() - q..].to_vec()));
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Codec round trips timed per message.
const CODEC_ROUNDS: usize = 20;
/// Transactions whose request shapes the codec timing covers.
const CODEC_TXNS: usize = 500;

/// Mean ns per `encode_request` and per `decode_response` over the
/// messages `def`'s clients exchange for the first transactions of `txns`.
pub fn wire_codec(def: &WorkloadDef, txns: &[&GenTxn]) -> (f64, f64) {
    let mut requests = Vec::new();
    let mut responses = Vec::new();
    for (n, txn) in txns.iter().take(CODEC_TXNS).enumerate() {
        let id = n as u64;
        requests.push(Request::Open {
            spec: tautology_spec(&txn.entities),
            after: vec![],
            before: vec![],
            strategy: None,
            backend: None,
        });
        responses.push(Response::Opened { txn: id });
        requests.push(Request::Validate { txn: id });
        responses.push(Response::Done);
        if def.batch {
            requests.push(Request::Batch {
                ops: txn
                    .ops
                    .iter()
                    .map(|op| match op.write {
                        true => (id, BatchOp::Write(op.entity, op.value)),
                        false => (id, BatchOp::Read(op.entity)),
                    })
                    .collect(),
            });
            responses.push(Response::Batch {
                results: txn
                    .ops
                    .iter()
                    .map(|op| match op.write {
                        true => Ok(BatchReply::Done),
                        false => Ok(BatchReply::Value(op.value)),
                    })
                    .collect(),
            });
        } else {
            for op in &txn.ops {
                if op.write {
                    requests.push(Request::Write {
                        txn: id,
                        entity: op.entity,
                        value: op.value,
                    });
                    responses.push(Response::Done);
                } else {
                    requests.push(Request::Read {
                        txn: id,
                        entity: op.entity,
                    });
                    responses.push(Response::Value { value: op.value });
                }
            }
        }
        requests.push(Request::Commit { txn: id });
        responses.push(Response::Done);
    }
    if requests.is_empty() {
        return (0.0, 0.0);
    }
    let frames: Vec<Vec<u8>> = responses
        .iter()
        .enumerate()
        .map(|(i, r)| encode_response(i as u64, 0, r))
        .collect();
    let t = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        for (i, req) in requests.iter().enumerate() {
            black_box(encode_request(i as u64, 0, black_box(req)));
        }
    }
    let encode_ns = t.elapsed().as_nanos() as f64 / (CODEC_ROUNDS * requests.len()) as f64;
    let t = Instant::now();
    for _ in 0..CODEC_ROUNDS {
        for frame in &frames {
            black_box(decode_response(black_box(frame)).expect("own encoding decodes"));
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / (CODEC_ROUNDS * frames.len()) as f64;
    (encode_ns, decode_ns)
}

/// Every hop of the server's trace taxonomy, in report order.
pub const HOPS: [SpanHop; 8] = [
    SpanHop::Request,
    SpanHop::ConnHandle,
    SpanHop::Queue,
    SpanHop::Exec,
    SpanHop::Certify,
    SpanHop::WalEnqueue,
    SpanHop::WalBarrier,
    SpanHop::WalFsync,
];

/// Per-hop self times stitched from recorded spans.
#[derive(Debug, Default)]
pub struct Hops {
    /// Self times (µs) by hop, indexed like [`HOPS`].
    pub self_us: [Vec<f64>; 8],
    /// Complete traces stitched (single root, every span closed).
    pub traces: usize,
    /// Complete traces whose hop self times sum to more than the root.
    pub malformed: usize,
}

impl Hops {
    /// Stitch `events` into traces and attribute self time per hop.
    /// Traces cut by ring wrap-around (no single root, or an unclosed
    /// span) are skipped.
    pub fn add(&mut self, events: &[ObsEvent]) {
        for tree in stitch_traces(events) {
            let Some(root) = tree.root() else { continue };
            if tree.spans.iter().any(|s| s.end_ns.is_none()) {
                continue;
            }
            let total = root.duration_ns();
            let lat = tree.hop_latencies();
            self.traces += 1;
            if lat.iter().map(|h| h.self_ns).sum::<u64>() > total {
                self.malformed += 1;
            }
            for h in lat {
                if let Some(i) = HOPS.iter().position(|&hop| hop == h.hop) {
                    self.self_us[i].push(h.self_ns as f64 / 1e3);
                }
            }
        }
    }
}
