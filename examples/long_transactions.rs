//! The Section 2.4 argument as a runnable comparison: the same
//! long-duration workload under every certifier backend — strict 2PL,
//! SSI, and the Korth–Speegle protocol (CPC).
//!
//! ```sh
//! cargo run --release --example long_transactions
//! ```

use korth_speegle::protocol::sim::simulate;
use korth_speegle::protocol::Backend;
use korth_speegle::sim::{Metrics, Workload, WorkloadSpec};

fn main() {
    println!("Long-duration designers: 12 transactions, 8 ops each, heavy hotspot.");
    println!("Think time models the human between operations.\n");

    for think in [2u64, 30, 120] {
        let w = Workload::generate(WorkloadSpec {
            num_txns: 12,
            ops_per_txn: 8,
            num_entities: 24,
            read_pct: 60,
            think_time: think,
            hot_fraction_pct: 20,
            hot_access_pct: 80,
            arrival_spread: 10,
            chain_length: 1,
            seed: 11,
        });
        println!("— think time {think} ticks —");
        println!("  {}", Metrics::header());
        for backend in Backend::all() {
            let (m, _, certifier) = simulate(backend, &w);
            println!("  {}", m.row());
            assert!(certifier.verify_history().is_correct(), "{backend}");
            if backend == Backend::Cpc {
                assert_eq!(m.waits, 0);
                assert_eq!(m.aborts, 0);
            }
        }
        println!();
    }
    println!("The KS protocol's waits and aborts stay at zero as transactions");
    println!("grow: versions decouple readers from writers, and correctness is");
    println!("the model's (predicate satisfaction), not serializability.");
}
