//! Every `bench.run` event of a table names its seed cell: the reward
//! ablation's six cells share the agent label "Mars", so only their
//! keys tell the shapings apart in a capture. A run over a complete
//! cells file trains nothing, so it emits no `bench.run` event.
//!
//! Lives in its own integration-test binary because the recorder is
//! process-global: the unit tests' smoke runs would write into it.

use mars_bench::{Cells, ExpConfig, EXPERIMENTS};
use mars_graph::generators::Profile;
use mars_json::Json;

/// The keys of the `bench.run` events one render of `ablation_reward`
/// emits over the cells file in `dir`.
fn run_keys(dir: &std::path::Path, cfg: &ExpConfig) -> Vec<String> {
    let exp = EXPERIMENTS.iter().find(|e| e.name == "ablation_reward").expect("listed");
    let mut cells = Cells::open(dir, cfg).expect("cells file");
    let sink = mars_telemetry::install_memory();
    (exp.run)(cfg, &mut cells).expect("cells file");
    mars_telemetry::uninstall();
    let lines = sink.lock().expect("sink");
    lines
        .iter()
        .map(|l| Json::parse(l).expect("every recorded line is JSON"))
        .filter(|j| j.get("name").and_then(Json::as_str) == Some("bench.run"))
        .map(|j| j["cell"].as_str().expect("event names its cell").to_string())
        .collect()
}

#[test]
fn ablation_reward_events_name_distinct_cells_and_a_rerun_emits_none() {
    let cfg = ExpConfig { budget: 1, seeds: 1, ..ExpConfig::new(Profile::Reduced) };
    let dir = std::env::temp_dir().join(format!("mars-bench-events-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut keys = run_keys(&dir, &cfg);
    assert_eq!(keys.len(), 6, "two workloads × three shapings: {keys:?}");
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 6, "cells share a key: {keys:?}");

    assert_eq!(run_keys(&dir, &cfg), Vec::<String>::new(), "a complete cells file trains nothing");
    std::fs::remove_dir_all(&dir).expect("remove the cells file");
}
