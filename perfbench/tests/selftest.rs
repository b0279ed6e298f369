//! Self-tests of the benchmark: deterministic inputs, complete metric
//! output, and a correctness gate that trips on corrupted results.

use adhoc_graph::GraphBuilder;
use adhoc_proximity::SpatialGraph;
use perfbench::bench::{self, Options};
use perfbench::harness::{self, Outcome};
use perfbench::inputs::{self, Call, Sizes, Workload};
use perfbench::trace::Tracer;
use serde_json::Value;

fn generate(workload: Workload, seed: u64) -> Vec<Call> {
    inputs::generate(workload, seed, &Sizes::TINY, &mut Tracer::off()).0
}

fn tiny(workload: Workload, trace: bool) -> bench::Report {
    bench::run(&Options {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        sizes: Sizes::TINY,
    })
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde_json::parse_value_complete(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = json.get(section) else {
        panic!("BENCHMARK.json lacks a {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{section} entry field {k} is {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(report: &bench::Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for w in Workload::ALL {
        let a = format!("{:?}", generate(w, 11));
        let b = format!("{:?}", generate(w, 11));
        assert_eq!(a, b, "{} inputs differ between generations", w.name());
        let c = format!("{:?}", generate(w, 12));
        assert_ne!(a, c, "{} inputs ignore the seed", w.name());
    }
}

#[test]
fn tiny_runs_emit_every_declared_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = tiny(w, trace);
            assert!(report.correct, "{} failed: {:?}", w.name(), report.failures);
            assert!(report.attempted >= 2 && report.failed == 0);
            assert_eq!(
                emitted(&report),
                declared(section),
                "{} {section}",
                w.name()
            );
            let line = report.to_json();
            let parsed = serde_json::parse_value_complete(&line).expect("result line parses");
            let keys: Vec<&str> = parsed
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn traced_runs_span_every_layer_call() {
    for w in Workload::ALL {
        let report = tiny(w, true);
        let calls = generate(w, 3);
        let names: std::collections::BTreeSet<&str> = report.spans.iter().map(|s| s.name).collect();
        let layers = [
            "setup",
            "geom.sample",
            "core.theta_build",
            "iteration",
            "leg_1t",
            "leg_2t",
            "gate",
            "probes",
            "event.hold",
            "fault.transmit",
            "stats.record_theta",
            "stats.record_gossip",
        ];
        for want in layers.into_iter().chain(calls.iter().map(Call::harness)) {
            assert!(names.contains(want), "{}: no {want} span", w.name());
        }
        assert_eq!(report.fingerprints.len(), 2 * calls.len(), "{}", w.name());
    }
}

/// `graph` without its first edge, or with one extra edge.
fn corrupt(graph: &SpatialGraph, drop_first: bool) -> SpatialGraph {
    let n = graph.len();
    let mut b = GraphBuilder::new(n);
    for (i, (u, v, w)) in graph.graph.edges().enumerate() {
        if !(drop_first && i == 0) {
            b.add_edge(u, v, w);
        }
    }
    if !drop_first {
        let (u, v) = (0..n as u32)
            .flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !graph.graph.has_edge(u, v))
            .expect("a tiny ΘALG graph is not complete");
        b.add_edge(
            u,
            v,
            graph.points[u as usize].dist(graph.points[v as usize]),
        );
    }
    SpatialGraph::new(graph.points.clone(), b.build(), graph.max_range)
}

#[test]
fn gate_trips_on_a_theta_graph_missing_or_adding_an_edge() {
    let calls = generate(Workload::ThetaStatic, 5);
    let out = harness::execute(&calls[0], 1);
    harness::check(&calls[0], &out).expect("the real result passes");
    let Outcome::Theta(run) = &out else {
        panic!("theta_static runs the ΘALG protocol");
    };
    for drop_first in [true, false] {
        let mut bad = run.clone();
        bad.graph = corrupt(&run.graph, drop_first);
        let bad = Outcome::Theta(bad);
        assert!(harness::check(&calls[0], &bad).is_err());
        assert!(harness::check_parity(&out, &bad).is_err());
    }
}

#[test]
fn gate_trips_on_a_ledger_missing_a_packet() {
    let calls = generate(Workload::GossipReliable, 5);
    let out = harness::execute(&calls[0], 1);
    harness::check(&calls[0], &out).expect("the real result passes");
    let Outcome::Gossip(run) = &out else {
        panic!("gossip_reliable routes packets");
    };
    let mut bad = run.clone();
    bad.absorbed -= 1;
    assert!(harness::check(&calls[0], &Outcome::Gossip(bad)).is_err());
}

#[test]
fn gate_trips_when_legs_disagree() {
    let calls = Workload::ALL.into_iter().flat_map(|w| generate(w, 5));
    for call in &calls.collect::<Vec<_>>() {
        let one = harness::execute(call, 1);
        let two = harness::execute(call, 2);
        harness::check_parity(&one, &two).expect("legs agree");
        let mut bad = two.clone();
        match &mut bad {
            Outcome::Theta(r) => r.digest ^= 1,
            Outcome::Gossip(r) => r.stats.delivered += 1,
        }
        assert!(harness::check_parity(&one, &bad).is_err());
    }
}
