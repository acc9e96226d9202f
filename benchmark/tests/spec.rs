//! `BENCHMARK.json` and the harness's vocabulary are the same thing.

use diehard_benchmark::spec::{
    render_benchmark_json, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use std::collections::BTreeSet;

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn committed_benchmark_json_is_the_rendered_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let rendered = render_benchmark_json();
    if committed != rendered {
        // Leave the text to copy where the failure message can name it.
        let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/BENCHMARK.json");
        std::fs::write(fresh, &rendered).expect("scratch file in the target directory");
        panic!("BENCHMARK.json is not what src/spec.rs renders; copy {fresh} over it");
    }
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(
            well_formed(name),
            "{name} does not match [A-Za-z0-9][A-Za-z0-9_.-]*"
        );
    }
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
}

#[test]
fn counts_units_bounds_and_whys_are_inside_the_contract() {
    assert_eq!(WORKLOADS.len(), 4);
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    for w in &WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains(['\n', '"']),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}: unit {:?}",
            m.name,
            m.unit
        );
    }
    for m in &END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= 0.25,
            "{}: bound {}",
            m.name,
            m.bound
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );
    assert!(render_benchmark_json().len() <= 64 * 1024);
}

#[test]
fn every_per_layer_metric_says_what_it_should_move() {
    for m in &PER_LAYER {
        for (metric, workload) in m.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *metric),
                "{}: moves unknown end-to-end metric {metric}",
                m.name
            );
            assert!(
                WORKLOADS.iter().any(|w| w.name == *workload),
                "{}: moves {metric} on unknown workload {workload}",
                m.name
            );
        }
    }
    // Every workload has a layer row that should move its overhead_ratio,
    // and the end-to-end metrics themselves move nothing.
    for w in &WORKLOADS {
        assert!(
            PER_LAYER
                .iter()
                .any(|m| m.moves.contains(&("overhead_ratio", w.name))),
            "no per-layer metric is expected to move {}",
            w.name
        );
    }
    assert!(END_TO_END.iter().all(|m| m.moves.is_empty()));
}
