//! The three workloads and the seeded transaction streams they run.
//!
//! Inputs come from `ks_sim::Workload` (6 ops per transaction, hot-spot
//! skew: 25% of entities get 75% of accesses), generated lazily in
//! fixed-size chunks; one seed always yields the same stream.

use ks_core::Specification;
use ks_kernel::{Domain, EntityId, Schema, UniqueState, Value};
use ks_predicate::{Atom, Clause, CmpOp, Cnf};
use ks_protocol::Backend;
use ks_sim::{Workload, WorkloadSpec};

/// Entities in the schema, across all shards.
pub const ENTITIES: usize = 64;
/// Operations per transaction.
pub const OPS_PER_TXN: usize = 6;
/// Share of entities that are hot, in percent.
pub const HOT_FRACTION_PCT: u8 = 25;
/// Share of accesses that go to hot entities, in percent.
pub const HOT_ACCESS_PCT: u8 = 75;
/// Transactions generated per `ks_sim` call.
const CHUNK: usize = 256;

/// How clients reach the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process [`ks_server::Session`] calls. The clients share one
    /// thread and take turns, one call each, so the service sees the same
    /// call order on every run and the certifier's work depends on the
    /// inputs alone.
    InProcess,
    /// [`ks_net::RemoteSession`] over TCP loopback to a [`ks_net::NetServer`].
    Tcp,
}

/// One workload: a service configuration plus a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Client transport.
    pub transport: Transport,
    /// Certifier backend every shard runs.
    pub backend: Backend,
    /// Shard count.
    pub shards: usize,
    /// Share of operations that are reads, in percent.
    pub read_pct: u8,
    /// Send each transaction's access phase as one `run_batch` burst.
    pub batch: bool,
    /// Log commits to a file-backed write-ahead log.
    pub wal: bool,
    /// Transactions per episode, across all clients. Every episode starts
    /// a fresh service, so this bounds the certifier history it builds.
    pub episode_txns: usize,
}

/// Every workload the benchmark runs.
pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "cpc_history",
        transport: Transport::InProcess,
        backend: Backend::Cpc,
        shards: 1,
        read_pct: 60,
        batch: false,
        wal: false,
        episode_txns: 500,
    },
    WorkloadDef {
        name: "wire_reads",
        transport: Transport::Tcp,
        backend: Backend::Ssi,
        shards: 2,
        read_pct: 90,
        batch: false,
        wal: false,
        episode_txns: 4000,
    },
    WorkloadDef {
        name: "durable_writes",
        transport: Transport::Tcp,
        backend: Backend::TwoPl,
        shards: 2,
        read_pct: 20,
        batch: true,
        wal: true,
        episode_txns: 1200,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The schema every workload serves.
pub fn schema() -> Schema {
    Schema::uniform(
        (0..ENTITIES).map(|i| format!("d{i}")),
        Domain::Range {
            min: i64::MIN / 2,
            max: i64::MAX / 2,
        },
    )
}

/// The initial state: every entity 0.
pub fn initial() -> UniqueState {
    UniqueState::constant(ENTITIES, 0)
}

/// Tautological input over `entities` (placing them in the accessible
/// set), unconstrained output.
pub fn tautology_spec(entities: &[EntityId]) -> Specification {
    Specification::new(
        Cnf::new(
            entities
                .iter()
                .map(|&e| Clause::unit(Atom::cmp_const(e, CmpOp::Ge, i64::MIN / 2)))
                .collect(),
        ),
        Cnf::truth(),
    )
}

/// One operation of a generated transaction, in global entity ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Write (`true`) or read.
    pub write: bool,
    /// Target entity.
    pub entity: EntityId,
    /// Value written (unused for reads).
    pub value: Value,
}

/// One generated transaction; all its entities live on `shard`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenTxn {
    /// Home shard.
    pub shard: usize,
    /// Operations in issue order.
    pub ops: Vec<Op>,
    /// Distinct entities touched, ascending (the specification's input set).
    pub entities: Vec<EntityId>,
}

/// A client's deterministic, unbounded transaction stream.
#[derive(Debug, Clone)]
pub struct Stream {
    def: WorkloadDef,
    seed: u64,
    client: usize,
    txns: Vec<GenTxn>,
}

impl Stream {
    /// The stream client `client` runs under `seed`.
    pub fn new(def: &WorkloadDef, seed: u64, client: usize) -> Stream {
        Stream {
            def: *def,
            seed,
            client,
            txns: Vec::new(),
        }
    }

    /// Transaction `n` of the stream, generating it if needed.
    pub fn get(&mut self, n: usize) -> &GenTxn {
        while n >= self.txns.len() {
            self.extend();
        }
        &self.txns[n]
    }

    /// Every transaction generated so far.
    pub fn generated(&self) -> &[GenTxn] {
        &self.txns
    }

    fn extend(&mut self) {
        let shards = self.def.shards;
        let chunk = (self.txns.len() / CHUNK) as u64;
        let sim = Workload::generate(WorkloadSpec {
            num_txns: CHUNK,
            ops_per_txn: OPS_PER_TXN,
            num_entities: ENTITIES / shards,
            read_pct: self.def.read_pct,
            think_time: 0,
            hot_fraction_pct: HOT_FRACTION_PCT,
            hot_access_pct: HOT_ACCESS_PCT,
            arrival_spread: 0,
            chain_length: 1,
            seed: mix(self.seed, self.client as u64, chunk),
        });
        for txn in sim.txns {
            let n = self.txns.len();
            let shard = (mix(!self.seed, self.client as u64, n as u64) % shards as u64) as usize;
            // Shard-local ids from the generator → global ids on `shard`
            // (the service places entity e on shard e mod S).
            let ops: Vec<Op> = txn
                .ops
                .iter()
                .enumerate()
                .map(|(i, op)| {
                    let entity = EntityId((op.entity.index() * shards + shard) as u32);
                    Op {
                        write: op.is_write,
                        entity,
                        value: value_for(entity, self.client, n, i),
                    }
                })
                .collect();
            let mut entities: Vec<EntityId> = ops.iter().map(|o| o.entity).collect();
            entities.sort_unstable_by_key(|e| e.index());
            entities.dedup();
            self.txns.push(GenTxn {
                shard,
                ops,
                entities,
            });
        }
    }
}

/// SplitMix64 over three words: decorrelates per-client, per-chunk seeds.
pub fn mix(a: u64, b: u64, c: u64) -> u64 {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    splitmix(a ^ splitmix(b ^ splitmix(c)))
}

/// The value op `op` of transaction `txn` of `client` writes to `entity`:
/// unique per write and tagged with the entity, so a read can be checked
/// to return a value written to the entity it read.
pub fn value_for(entity: EntityId, client: usize, txn: usize, op: usize) -> Value {
    ((entity.index() as i64 + 1) << 40)
        | ((client as i64 & 0xF) << 36)
        | ((txn as i64 & 0x1_FFFF_FFFF) << 3)
        | (op as i64 & 0x7)
}

/// Is `value` one that a read of `entity` may return: the initial 0 or a
/// value some transaction wrote to that entity?
pub fn value_ok(entity: EntityId, value: Value) -> bool {
    value == 0 || (value >> 40) == entity.index() as i64 + 1
}
