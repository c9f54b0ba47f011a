//! `coop-chains`: cooperation chains under every certifier backend.
//!
//! Chained transactions model the paper's collaborative design sessions: a
//! designer's task is picked up by the next in line. The simulator hands
//! each chain link to the certifier as an `after` edge, and every backend
//! holds the successor's commit until its predecessor terminates — 2PL
//! counts that commit-order wait in its waits-for graph, so a predecessor
//! blocked on the successor's locks is a deadlock victim, not a livelock.
//! Sweep the chain length and compare: the protocol pays commit-ordering
//! (blocking at commit, not during work) and occasional re-eval repairs;
//! 2PL pays lock waits during the whole transaction body; SSI pays aborts.

use ks_bench::run_all_backends;
use ks_sim::{Metrics, Workload, WorkloadSpec};

fn main() {
    println!("coop-chains — cooperation chains, three certifiers\n");
    for (chain, spec) in WorkloadSpec::chain_sweep() {
        let w = Workload::generate(spec);
        println!("— chain length {chain} —");
        println!("  {}", Metrics::header());
        for m in run_all_backends(&w) {
            println!("  {}", m.row());
        }
        println!();
    }
    println!("expected shape: the protocol's waits stay commit-side and small;");
    println!("re-assign activity appears only when predecessors write late.");
}
