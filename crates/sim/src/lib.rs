//! # ks-sim
//!
//! Discrete-event simulation of long-duration transaction workloads.
//!
//! The paper's Section 2.4 argues qualitatively: under two-phase locking,
//! long transactions impose long-duration waits; under timestamp schemes
//! they impose aborts that waste large amounts of (human) work; the
//! Korth–Speegle protocol avoids both. This crate provides the apparatus to
//! measure those claims:
//!
//! * [`workload`] — parameterized generators for CAD-style long-duration
//!   transactions: operations separated by human *think time*, skewed
//!   access patterns, read-mostly designs;
//! * [`metrics`] — waits, wait time, aborts, wasted work, makespan,
//!   throughput;
//! * [`trace`] — an op-level trace of the committed interleaving, which
//!   tests cross-check against the classifier suite.
//!
//! The event loop that drives a workload through a scheduler lives next
//! to the scheduler interface it drives: `ks_protocol::sim::Engine` runs
//! any `ks_protocol::Certifier` (CPC, SSI, strict 2PL).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod trace;
pub mod workload;

pub use metrics::Metrics;
pub use trace::{TraceEvent, TraceKind};
pub use workload::{SimOp, SimTxn, Workload, WorkloadSpec};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Simulated time, in abstract ticks. One tick ≈ the cost of one primitive
/// database operation; think times are expressed as multiples of it.
pub type SimTime = u64;

/// Identifier of a simulated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SimTxnId(pub u32);

impl SimTxnId {
    /// 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SimTxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(SimTxnId(3).to_string(), "T3");
        assert_eq!(SimTxnId(3).index(), 3);
    }
}
