//! Smoke-size self-test of the benchmark: deterministic inputs, and every
//! named metric emitted with its unit on every workload, in both modes.

use perfbench::workload::{Stream, WorkloadDef, OPS_PER_TXN, WORKLOADS};
use perfbench::{per_layer_catalog, run, END_TO_END};
use std::time::Duration;

#[test]
fn one_seed_gives_identical_streams() {
    for def in &WORKLOADS {
        let mut a = Stream::new(def, 7, 1);
        let mut b = Stream::new(def, 7, 1);
        let mut other = Stream::new(def, 8, 1);
        for n in 0..600 {
            a.get(n);
            b.get(n);
            other.get(n);
        }
        assert_eq!(a.generated(), b.generated(), "{}", def.name);
        assert_ne!(a.generated(), other.generated(), "{}", def.name);
        let ops: Vec<_> = a.generated().iter().flat_map(|t| &t.ops).collect();
        let reads = ops.iter().filter(|o| !o.write).count() as f64 / ops.len() as f64;
        assert!(
            (reads * 100.0 - f64::from(def.read_pct)).abs() < 5.0,
            "{}: read share {reads}",
            def.name
        );
        for t in a.generated() {
            assert_eq!(t.ops.len(), OPS_PER_TXN);
            assert!(t
                .ops
                .iter()
                .all(|o| o.entity.index() % def.shards == t.shard));
        }
    }
}

fn names(report: &perfbench::Report) -> Vec<(String, &'static str)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let end_to_end: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for def in &WORKLOADS {
        let small = WorkloadDef {
            episode_txns: 40,
            ..*def
        };
        let plain = run(&small, 3, Duration::from_millis(50), false).expect("untraced run");
        assert!(plain.correct(), "{}: {:?}", def.name, plain.problems);
        assert_eq!(names(&plain), end_to_end, "{}", def.name);
        // CPU time is read in 10 ms ticks, too coarse for a run this small.
        assert!(
            plain
                .metrics
                .iter()
                .all(|m| m.value > 0.0 || m.name == "cpu_us_per_txn"),
            "{plain:?}"
        );
        // Whole episodes only.
        assert!(plain.attempted >= 40 && plain.attempted.is_multiple_of(40));

        let traced = run(&small, 3, Duration::from_millis(50), true).expect("traced run");
        assert!(traced.correct(), "{}: {:?}", def.name, traced.problems);
        assert_eq!(names(&traced), per_layer_catalog(), "{}", def.name);
        let json = traced.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    for def in &WORKLOADS {
        assert!(spec.contains(&format!("\"name\": \"{}\"", def.name)));
    }
    let all = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_catalog());
    for (name, unit) in all {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
