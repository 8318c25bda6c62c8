//! Every `bench.run` event of a table names its cell: the reward
//! ablation's six cells share the agent label "Mars", so only their
//! seed offsets tell the shapings apart in a capture.
//!
//! Lives in its own integration-test binary because the recorder is
//! process-global: the unit tests' smoke runs would write into it.

use mars_bench::{ExpConfig, EXPERIMENTS};
use mars_graph::generators::Profile;
use mars_json::Json;

#[test]
fn ablation_reward_events_carry_distinct_seed_offsets() {
    let cfg = ExpConfig { budget: 1, seeds: 1, ..ExpConfig::new(Profile::Reduced) };
    let exp = EXPERIMENTS.iter().find(|e| e.name == "ablation_reward").expect("listed");
    let sink = mars_telemetry::install_memory();
    (exp.run)(&cfg);
    mars_telemetry::uninstall();
    let lines = sink.lock().expect("sink");
    let runs: Vec<Json> = lines
        .iter()
        .map(|l| Json::parse(l).expect("every recorded line is JSON"))
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("bench.run"))
        .collect();
    assert_eq!(runs.len(), 6, "two workloads × three shapings");
    let mut offsets: Vec<u64> = runs
        .iter()
        .map(|j| j.get("seed_offset").and_then(Json::as_u64).expect("event names its cell"))
        .collect();
    offsets.sort_unstable();
    offsets.dedup();
    assert_eq!(offsets.len(), 6, "cells share an offset: {offsets:?}");
}
