//! `sec24-waits` / `sec24-aborts`: the Section 2.4 claims, measured.
//!
//! Sweep transaction duration (think time between operations) under fixed
//! contention and run the same workload under every certifier backend —
//! strict 2PL, SSI, and the Korth–Speegle protocol (CPC), the same code
//! `ks-server` serves. The paper's qualitative claims become the expected
//! *shape*:
//!
//! * 2PL's total/maximum wait time grows with transaction duration (locks
//!   are held across think time);
//! * SSI, the timestamp-style scheme, pays aborts and wasted work that
//!   grow with duration (long transactions lose first-committer-wins and
//!   dangerous-structure checks to the short ones that overlap them);
//! * the KS protocol shows neither: versions remove read-write waits and
//!   predicate-level correctness removes serialization aborts.
//!
//! Every run's history passes its backend's offline oracle.

use ks_bench::run_all_backends;
use ks_sim::{Metrics, Workload, WorkloadSpec};

fn main() {
    println!("Section 2.4 — long-duration transactions under three certifiers");
    println!("(16 txns × 8 ops, 32 entities, 25% hot entities with 75% of accesses)\n");
    for (think, spec) in WorkloadSpec::duration_sweep() {
        let w = Workload::generate(spec);
        println!(
            "— think time {think} ticks (intrinsic txn duration ≈ {} ticks)",
            8 * (think + 1)
        );
        println!("  {}  p95_lat", Metrics::header());
        for m in run_all_backends(&w) {
            println!("  {}  {:>7}", m.row(), m.latency_percentile(95));
        }
        println!();
    }
    println!("expected shape: wait_time grows with think time for 2pl;");
    println!("aborts/wasted grow for ssi; cpc stays flat.");
}
