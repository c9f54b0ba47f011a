//! One pass: build a fresh service for a workload, connect its clients,
//! release them together, run the closed loop, then shut down and check
//! every output.

use crate::drive::{drive, drive_interleaved, ClientLog, Outcome};
use crate::workload::{initial, mix, schema, GenTxn, Stream, Transport, WorkloadDef};
use ks_net::poll::PoolStats;
use ks_net::{NetClientConfig, NetConfig, NetServer, RemoteSession};
use ks_obs::Recorder;
use ks_server::{
    verify_certifiers, Durability, ServerConfig, StoreFactory, TxnService, VerifyReport, WalOptions,
};
use ks_wal::{FileStore, SegmentStore, WalStats};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// What one pass measured and what its checks found.
pub struct Pass {
    /// Per-client logs, in client order.
    pub logs: Vec<ClientLog>,
    /// Per-client streams, holding every transaction the pass drew.
    pub streams: Vec<Stream>,
    /// Service construction through the start barrier, in seconds.
    pub setup_s: f64,
    /// Start barrier to the last client's last reply, in seconds.
    pub window_s: f64,
    /// CPU time this process used during the window, in seconds.
    pub cpu_s: f64,
    /// Commits the service's own metrics counted.
    pub service_committed: u64,
    /// The offline history check over every shard certifier.
    pub verify: VerifyReport,
    /// Time spent in `verify_certifiers`, in seconds.
    pub verify_s: f64,
    /// The network front end's decode-buffer pool counters (TCP only).
    pub pool: Option<PoolStats>,
    /// Write-ahead-log counters before shutdown (in-process with WAL only).
    pub wal: Option<WalStats>,
    /// WAL restart after shutdown: time to recover, commits recovered.
    pub recovery: Option<(f64, usize)>,
}

impl Pass {
    /// Transactions attempted.
    pub fn attempted(&self) -> usize {
        self.logs.iter().map(|l| l.txns.len()).sum()
    }

    /// Transactions with the given outcome.
    pub fn count(&self, outcome: Outcome) -> usize {
        self.logs
            .iter()
            .flat_map(|l| &l.txns)
            .filter(|t| t.outcome == outcome)
            .count()
    }

    /// Every failed output check, as readable lines (empty = correct).
    pub fn check(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let committed = self.count(Outcome::Committed);
        if !self.verify.violations.is_empty() {
            problems.push(format!(
                "verify_certifiers found {} violations: {:?}",
                self.verify.violations.len(),
                self.verify.violations
            ));
        }
        if self.service_committed != committed as u64 {
            problems.push(format!(
                "clients counted {committed} commits, service metrics {}",
                self.service_committed
            ));
        }
        if self.verify.committed != committed {
            problems.push(format!(
                "clients counted {committed} commits, certifier histories {}",
                self.verify.committed
            ));
        }
        let bad_reads: u64 = self.logs.iter().map(|l| l.bad_reads).sum();
        if bad_reads > 0 {
            problems.push(format!(
                "{bad_reads} replies returned values never written to the entity"
            ));
        }
        if let Some((_, recovered)) = self.recovery {
            if recovered != committed {
                problems.push(format!(
                    "WAL restart recovered {recovered} commits, clients acknowledged {committed}"
                ));
            }
        }
        problems
    }
}

/// A fresh WAL directory inside the benchmark's own tree, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> std::io::Result<WorkDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work")).join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another pass still holds a directory there.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn service_config(
    def: &WorkloadDef,
    clients: usize,
    wal: Option<&WorkDir>,
    recorder: Option<&Recorder>,
) -> ServerConfig {
    let mut builder = ServerConfig::builder()
        .shards(def.shards)
        .backend(def.backend)
        .max_sessions(clients + 1);
    if let Some(dir) = wal {
        let dir = dir.0.clone();
        let store: StoreFactory = Arc::new(move || {
            Box::new(FileStore::open(&dir).expect("open the pass's WAL directory"))
                as Box<dyn SegmentStore>
        });
        builder = builder.durability(Durability::Wal(WalOptions::new(store)));
    }
    if let Some(r) = recorder {
        builder = builder.recorder(r.clone()).trace_sample(1.0);
    }
    builder.build().expect("workload service configs are valid")
}

/// Run one pass of `def` over `transport`: client `c` issues the first
/// `counts[c]` transactions of its stream under `seed`. A `recorder`
/// turns on 100%-sampled tracing.
pub fn run(
    def: &WorkloadDef,
    seed: u64,
    counts: &[usize],
    transport: Transport,
    recorder: Option<&Recorder>,
) -> Result<Pass, String> {
    let clients = counts.len();
    let dir = match def.wal {
        true => Some(WorkDir::new().map_err(|e| format!("create WAL directory: {e}"))?),
        false => None,
    };
    let config = service_config(def, clients, dir.as_ref(), recorder);
    // Inputs are generated before the clock starts: they are not part of
    // the program's set-up.
    let mut streams: Vec<Stream> = (0..clients).map(|c| Stream::new(def, seed, c)).collect();
    for (stream, &count) in streams.iter_mut().zip(counts) {
        if count > 0 {
            stream.get(count - 1);
        }
    }
    let txns: Vec<&[GenTxn]> = streams
        .iter()
        .zip(counts)
        .map(|(s, &count)| &s.generated()[..count])
        .collect();
    let epoch = Instant::now();
    let svc = TxnService::new(schema(), &initial(), config.clone());
    let barrier = Barrier::new(clients + 1);

    let (driven, service_committed, certifiers, pool, wal) = match transport {
        // A TCP workload's in-process replay keeps a thread per client,
        // as its TCP clients have, so that concurrent commits still share
        // WAL group-commit barriers.
        Transport::InProcess if def.transport == Transport::InProcess => {
            let sessions = (0..clients)
                .map(|_| svc.session())
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("open a session: {e}"))?;
            let driven = measure(epoch, || {
                drive_interleaved(&sessions, &txns, def.batch, epoch)
            });
            drop(sessions);
            let (committed, wal) = (svc.metrics().committed, svc.wal_stats());
            (driven, committed, svc.shutdown(), None, wal)
        }
        Transport::InProcess => {
            let driven = std::thread::scope(|scope| {
                let handles: Vec<_> = txns
                    .iter()
                    .enumerate()
                    .map(|(c, &txns)| {
                        let (svc, barrier) = (&svc, &barrier);
                        scope.spawn(move || {
                            let session = svc.session().expect("session cap admits every client");
                            barrier.wait();
                            drive(
                                &session,
                                txns,
                                def.batch,
                                epoch,
                                mix(seed, c as u64, 0xB0FF),
                            )
                        })
                    })
                    .collect();
                barrier.wait();
                measure(epoch, || join(handles))
            });
            let (committed, wal) = (svc.metrics().committed, svc.wal_stats());
            (driven, committed, svc.shutdown(), None, wal)
        }
        Transport::Tcp => {
            let server = NetServer::start(
                svc,
                "127.0.0.1:0",
                NetConfig {
                    recorder: recorder.cloned(),
                    ..NetConfig::default()
                },
            )
            .map_err(|e| format!("bind loopback: {e}"))?;
            let addr = server.local_addr();
            let client_config = NetClientConfig {
                recorder: recorder.cloned(),
                trace_sample: if recorder.is_some() { 1.0 } else { 0.0 },
                ..NetClientConfig::default()
            };
            let driven = std::thread::scope(|scope| {
                let handles: Vec<_> = txns
                    .iter()
                    .enumerate()
                    .map(|(c, &txns)| {
                        let (barrier, client_config) = (&barrier, client_config.clone());
                        scope.spawn(move || {
                            let session = RemoteSession::connect(addr, client_config);
                            barrier.wait();
                            let session = session.expect("connect over loopback");
                            let log = drive(
                                &session,
                                txns,
                                def.batch,
                                epoch,
                                mix(seed, c as u64, 0xB0FF),
                            );
                            session.close().expect("orderly goodbye");
                            log
                        })
                    })
                    .collect();
                barrier.wait();
                measure(epoch, || join(handles))
            });
            let probe = RemoteSession::connect(addr, NetClientConfig::default())
                .map_err(|e| format!("connect metrics probe: {e}"))?;
            let committed = probe
                .metrics()
                .map_err(|e| format!("read service metrics: {e}"))?
                .committed;
            probe.close().map_err(|e| format!("close probe: {e}"))?;
            let pool = server.pool_stats();
            (driven, committed, server.shutdown(), Some(pool), None)
        }
    };
    let t = Instant::now();
    let verify = verify_certifiers(&certifiers);
    let Driven {
        logs,
        setup_s,
        window_s,
        cpu_s,
    } = driven;
    let mut pass = Pass {
        logs,
        streams,
        setup_s,
        window_s,
        cpu_s,
        service_committed,
        verify,
        verify_s: t.elapsed().as_secs_f64(),
        pool,
        wal,
        recovery: None,
    };
    if dir.is_some() {
        // Restart over the same log: every acknowledged commit must come
        // back.
        let t = Instant::now();
        let restarted = TxnService::new(schema(), &initial(), config);
        let recovery_s = t.elapsed().as_secs_f64();
        let recovered = restarted.recovery_report().map_or(0, |r| r.committed.len());
        restarted.shutdown();
        pass.recovery = Some((recovery_s, recovered));
    }
    Ok(pass)
}

/// Join every client thread, in client order.
fn join(handles: Vec<std::thread::ScopedJoinHandle<'_, ClientLog>>) -> Vec<ClientLog> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect()
}

/// What the clients of one pass did, and what the window cost.
struct Driven {
    logs: Vec<ClientLog>,
    setup_s: f64,
    window_s: f64,
    cpu_s: f64,
}

/// Time set-up (`epoch` to now) and the measured window, in which
/// `clients` runs every client to its end.
fn measure(epoch: Instant, clients: impl FnOnce() -> Vec<ClientLog>) -> Driven {
    let start = epoch.elapsed();
    let cpu = process_cpu_s();
    let logs = clients();
    let cpu_s = process_cpu_s() - cpu;
    let end = logs
        .iter()
        .flat_map(|l| l.txns.last())
        .map(|t| Duration::from_nanos(t.end_ns))
        .max()
        .unwrap_or(start);
    Driven {
        logs,
        setup_s: start.as_secs_f64(),
        window_s: end.saturating_sub(start).as_secs_f64(),
        cpu_s,
    }
}

/// System-wide (total, steal) vCPU ticks from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // guest and guest_nice (fields 8 and 9) are already counted in user.
    Some((ticks.iter().take(8).sum(), *ticks.get(7)?))
}

/// CPU time this process has used, user plus system, in seconds
/// (`/proc/self/stat`, 100 ticks per second; 0 where unavailable).
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |n: usize| -> f64 {
        rest.split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / 100.0
}
