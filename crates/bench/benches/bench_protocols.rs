//! Criterion: scheduler overhead end-to-end — one workload, every
//! certifier backend under the simulator (the Section 2.4 comparison as a
//! throughput bench).

use criterion::{criterion_group, criterion_main, Criterion};
use ks_protocol::sim::simulate;
use ks_protocol::Backend;
use ks_sim::{Workload, WorkloadSpec};
use std::hint::black_box;

fn bench_protocols(c: &mut Criterion) {
    for (think, spec) in WorkloadSpec::duration_sweep() {
        if think != 5 && think != 50 {
            continue;
        }
        let w = Workload::generate(spec);
        let mut group = c.benchmark_group(format!("schedulers_think{think}"));
        for backend in Backend::all() {
            group.bench_function(backend.name(), |b| {
                b.iter(|| black_box(simulate(backend, &w).0))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
