//! Tests of the benchmark's own code, at sizes small enough for a debug
//! build.

use vod_net::topologies::grnet::Grnet;
use vod_net::{LinkId, Mbps};
use vod_perfbench::measure::{measure, result_line, Metric, Options};
use vod_perfbench::replay::{replay, ReplayFlow};
use vod_perfbench::workload::{chaos_plan, fault_kinds, Workload};
use vod_sim::{SimDuration, SimTime};

/// Sessions per scenario in the tiny runs.
fn tiny_sessions(workload: Workload) -> usize {
    match workload {
        Workload::Local => 2_000,
        Workload::Remote => 120,
        Workload::Chaos => 400,
    }
}

fn tiny(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        sessions: tiny_sessions(workload),
        seconds: 0.0,
        per_layer: true,
    }
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn listed_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().strip_prefix('"').expect("quoted name");
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_emits_every_listed_metric_as_a_finite_value() {
    let end_to_end = listed_names("end_to_end");
    let per_layer = listed_names("per_layer");
    assert_eq!(end_to_end.len(), 7);
    assert_eq!(per_layer.len(), 30);
    for workload in Workload::ALL {
        let m = measure(&tiny(workload, 3));
        assert!(
            m.problems.is_empty(),
            "{}: {:?}",
            workload.name(),
            m.problems
        );
        assert_eq!(m.failed_runs, 0);
        assert_eq!(names(&m.end_to_end), end_to_end, "{}", workload.name());
        assert_eq!(names(&m.per_layer), per_layer, "{}", workload.name());
        for metric in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(
                metric.value.is_finite(),
                "{}: {} = {}",
                workload.name(),
                metric.name,
                metric.value
            );
        }
        for metric in &m.end_to_end {
            assert!(
                metric.value > 0.0,
                "{}: {} is 0",
                workload.name(),
                metric.name
            );
        }
    }
}

#[test]
fn workload_names_round_trip_and_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    for workload in Workload::ALL {
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    assert_eq!(Workload::from_name("nope"), None);
}

/// The simulated end-to-end metrics (everything but host time and
/// memory) of one invocation.
fn simulated(m: &[Metric]) -> Vec<(String, f64)> {
    m.iter()
        .filter(|m| m.name.starts_with("startup") || m.unit == "ratio")
        .map(|m| (m.name.to_string(), m.value))
        .collect()
}

#[test]
fn simulated_metrics_repeat_exactly_for_a_seed() {
    for workload in [Workload::Remote, Workload::Chaos] {
        let opts = Options {
            per_layer: false,
            ..tiny(workload, 11)
        };
        let first = measure(&opts);
        let second = measure(&opts);
        assert!(first.problems.is_empty(), "{:?}", first.problems);
        assert_eq!(simulated(&first.end_to_end).len(), 4);
        assert_eq!(
            simulated(&first.end_to_end),
            simulated(&second.end_to_end),
            "{}",
            workload.name()
        );
        let other = measure(&Options { seed: 12, ..opts });
        assert_ne!(
            simulated(&first.end_to_end),
            simulated(&other.end_to_end),
            "{}: another seed gives other inputs",
            workload.name()
        );
    }
}

#[test]
fn flow_replay_ends_with_no_live_flows() {
    let grnet = Grnet::new();
    let topology = grnet.topology();
    let flows: Vec<ReplayFlow> = (0..200u64)
        .map(|i| ReplayFlow {
            at: SimTime::ZERO + SimDuration::from_secs(i),
            links: if i % 3 == 0 {
                Vec::new()
            } else {
                vec![LinkId::new((i % topology.link_count() as u64) as u32)]
            },
            volume_mbit: 100.0 + i as f64,
        })
        .collect();
    let stats = replay(topology, Mbps::new(2.0), flows).expect("replay");
    assert_eq!(stats.adds, 200);
    assert_eq!(stats.live_at_end, 0);
    assert!(stats.peak_flows > 1 && stats.peak_flows <= 200);
}

#[test]
fn flow_replay_rejects_unsorted_input() {
    let grnet = Grnet::new();
    let flow = |secs| ReplayFlow {
        at: SimTime::ZERO + SimDuration::from_secs(secs),
        links: Vec::new(),
        volume_mbit: 10.0,
    };
    assert!(replay(grnet.topology(), Mbps::new(2.0), vec![flow(5), flow(1)]).is_err());
}

#[test]
fn chaos_plans_cover_every_fault_kind_and_ignore_the_seed() {
    let replicas = Workload::Chaos.initial_replicas();
    for index in 0..Workload::Chaos.scenario_count() {
        let scenario = Workload::Chaos.scenario(5, index, 300);
        let plan = chaos_plan(&scenario, replicas, index);
        assert_eq!(fault_kinds(&plan), [true; 4], "plan {index}");
        let other_seed = Workload::Chaos.scenario(6, index, 300);
        assert_eq!(plan, chaos_plan(&other_seed, replicas, index));
    }
}

#[test]
fn scenario_zero_is_the_seed_itself_and_the_others_differ() {
    let w = Workload::Remote;
    assert_eq!(
        w.scenario(9, 0, 100),
        vod_workload::scenario::Scenario::scale_stress(9, 100)
    );
    assert_ne!(w.scenario(9, 0, 100), w.scenario(9, 1, 100));
}

#[test]
fn result_line_is_the_contract_shape() {
    let metrics = [
        Metric {
            name: "a_s",
            unit: "s",
            value: 0.125,
        },
        Metric {
            name: "b.count",
            unit: "count",
            value: 3.0,
        },
    ];
    assert_eq!(
        result_line(true, 4, 0, &metrics),
        "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
         {\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
         \"b.count\": {\"value\": 3, \"unit\": \"count\"}}}"
    );
}
