//! Parse a recorded JSONL run back into metric rollups and a span
//! tree, and render them as text (`mars-cli metrics summarize`).

use mars_json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One aggregated span path from the run's `spans` summary record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRow {
    /// `/`-joined call path (`crate.module.fn` segments).
    pub path: String,
    /// Times entered.
    pub count: u64,
    /// Wall nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Wall nanoseconds minus child-span time.
    pub self_ns: u64,
}

impl SpanRow {
    /// Last path segment (the span's own name).
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Statistics of one numeric field across all events with one name.
#[derive(Clone, Debug)]
pub struct FieldRollup {
    /// Event name.
    pub event: String,
    /// Field key.
    pub field: String,
    /// Occurrences.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Value in the last (highest-seq) event carrying the field.
    pub last: f64,
}

/// One histogram from the run's summary records.
#[derive(Clone, Debug)]
pub struct HistogramRow {
    /// Histogram name.
    pub name: String,
    /// Bucket upper edges.
    pub edges: Vec<f64>,
    /// Bucket counts (overflow last).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

/// Everything recovered from one run's JSONL.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Parsed JSONL lines.
    pub lines: usize,
    /// Malformed lines skipped (a crash mid-write tears the last line;
    /// the rest of the run must still summarize).
    pub skipped: usize,
    /// Event records seen.
    pub events: u64,
    /// Per-(event, field) numeric statistics, sorted by (event, field).
    pub rollups: Vec<FieldRollup>,
    /// Span paths of the recording process, sorted by path.
    pub spans: Vec<SpanRow>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Final gauge readings, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramRow>,
}

/// Training-arena digest: tape reuse recovered from the
/// `autograd.arena.*` telemetry.
#[derive(Clone, Debug)]
pub struct ArenaReport {
    /// Training-tape arena reuses (`autograd.arena.reset` counter).
    pub arena_resets: u64,
    /// Peak pooled gradient/activation capacity in f32 elements
    /// (`autograd.arena.high_water` gauge; 0 when never recorded).
    pub arena_high_water: f64,
}

impl ArenaReport {
    /// Render as the summary line `metrics summarize` prints.
    pub fn render(&self) -> String {
        format!(
            "training arena: {} tape reuses (high water {:.0} pooled f32s)\n",
            self.arena_resets, self.arena_high_water
        )
    }
}

/// Fault-injection digest: what the resilience layer absorbed during
/// the run, recovered from `sim.fault.*` / `train.crash_resume`
/// counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Permanent device failures fired.
    pub device_failures: u64,
    /// Placement remaps performed after a failure.
    pub remaps: u64,
    /// Total ops moved off dead devices across all remaps.
    pub remapped_ops: u64,
    /// Transient evaluation errors injected.
    pub transients: u64,
    /// Extra evaluation attempts spent on retries.
    pub retries: u64,
    /// Evaluations that exhausted the retry budget.
    pub retry_exhausted: u64,
    /// Straggler slowdowns injected.
    pub stragglers: u64,
    /// Stragglers slow enough to abort the evaluation.
    pub straggler_aborts: u64,
    /// Agent crashes injected.
    pub crashes: u64,
    /// Checkpoint resumes performed after a crash.
    pub crash_resumes: u64,
}

impl FaultReport {
    /// True when the run recorded no fault activity at all.
    pub fn is_empty(&self) -> bool {
        *self == FaultReport::default()
    }

    /// Render as the fault-summary block `metrics summarize` prints.
    pub fn render(&self) -> String {
        let mut out = String::from("== fault injection ==\n");
        let _ = writeln!(
            out,
            "device failures: {} ({} remaps, {} ops moved to live devices)",
            self.device_failures, self.remaps, self.remapped_ops
        );
        let _ = writeln!(
            out,
            "transient errors: {} ({} retries spent, {} evaluations gave up)",
            self.transients, self.retries, self.retry_exhausted
        );
        let _ = writeln!(
            out,
            "stragglers: {} ({} aborted past the cutoff)",
            self.stragglers, self.straggler_aborts
        );
        let _ = writeln!(
            out,
            "agent crashes: {} ({} checkpoint resumes)",
            self.crashes, self.crash_resumes
        );
        out
    }
}

/// Serving digest: how the placement daemon's tiers split its
/// requests, recovered from the `serve.*` counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// Placement requests answered.
    pub requests: u64,
    /// Answers from the in-memory LRU, joins of a forward in flight
    /// included.
    pub hot: u64,
    /// Answers from the persistent store.
    pub warm: u64,
    /// Answers whose key was in neither tier and was landed then.
    pub miss: u64,
    /// The share of `hot` that had waited for the graph's forward and
    /// found the key landed by an identical request.
    pub coalesced: u64,
    /// Policy forwards run, when the daemon counted them
    /// (`serve.forwards`; traces from before it did have none).
    pub forwards: Option<u64>,
}

impl ServeReport {
    /// Render as the serve block `metrics summarize` prints. Joins are
    /// named only when there were any.
    pub fn render(&self) -> String {
        let mut out = String::from("== serve ==\n");
        let _ = writeln!(
            out,
            "requests: {} (hot {}, warm {}, cold {})",
            self.requests, self.hot, self.warm, self.miss
        );
        if self.coalesced > 0 {
            let _ = writeln!(
                out,
                "coalesced: {} of the hot answers joined a forward in flight",
                self.coalesced
            );
        }
        if let Some(forwards) = self.forwards {
            let _ = writeln!(
                out,
                "forwards: {forwards} (the other cold answers were landed from a graph's memo)"
            );
        }
        out
    }
}

impl RunSummary {
    /// Value of a counter by name, if the run ever touched it.
    fn counter_opt(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of a counter by name (0 when the run never touched it).
    fn counter(&self, name: &str) -> u64 {
        self.counter_opt(name).unwrap_or(0)
    }

    /// Fault-injection digest, if the run recorded any fault activity
    /// (`sim.fault.*` or `train.crash_resume` counters).
    pub fn fault_report(&self) -> Option<FaultReport> {
        let report = FaultReport {
            device_failures: self.counter("sim.fault.device_failure"),
            remaps: self.counter("sim.fault.remap"),
            remapped_ops: self.counter("sim.fault.remap_ops"),
            transients: self.counter("sim.fault.transient"),
            retries: self.counter("sim.fault.retry"),
            retry_exhausted: self.counter("sim.fault.retry_exhausted"),
            stragglers: self.counter("sim.fault.straggler"),
            straggler_aborts: self.counter("sim.fault.straggler_abort"),
            crashes: self.counter("sim.fault.crash"),
            crash_resumes: self.counter("train.crash_resume"),
        };
        (!report.is_empty()).then_some(report)
    }

    /// Serving digest, if the run answered any placement request
    /// (`serve.requests` / `serve.cache.*` counters).
    pub fn serve_report(&self) -> Option<ServeReport> {
        let report = ServeReport {
            requests: self.counter("serve.requests"),
            hot: self.counter("serve.cache.hot"),
            warm: self.counter("serve.cache.warm"),
            miss: self.counter("serve.cache.miss"),
            coalesced: self.counter("serve.cache.coalesced"),
            forwards: self.counter_opt("serve.forwards"),
        };
        (report.requests + report.hot + report.warm + report.miss > 0).then_some(report)
    }

    /// Training-arena digest, if the run reused a training tape
    /// (`autograd.arena.reset` counter).
    pub fn arena_report(&self) -> Option<ArenaReport> {
        let arena_resets = self.counter("autograd.arena.reset");
        let arena_high_water = self
            .gauges
            .iter()
            .find(|(n, _)| n == "autograd.arena.high_water")
            .map_or(0.0, |(_, v)| *v);
        (arena_resets > 0).then_some(ArenaReport { arena_resets, arena_high_water })
    }

    /// Fraction of total span *self* time spent in spans whose leaf name
    /// starts with any of `prefixes` (e.g. `["tensor.", "nn."]`).
    /// Returns 0 when no span time was recorded.
    pub fn self_time_fraction(&self, prefixes: &[&str]) -> f64 {
        let total: u64 = self.spans.iter().map(|s| s.self_ns).sum();
        if total == 0 {
            return 0.0;
        }
        let matched: u64 = self
            .spans
            .iter()
            .filter(|s| prefixes.iter().any(|p| s.leaf().starts_with(p)))
            .map(|s| s.self_ns)
            .sum();
        matched as f64 / total as f64
    }

    /// Export every span row in collapsed-stack format — the input
    /// `flamegraph.pl` and inferno's `flamegraph` consume: one line
    /// per stack, `;`-joined frames, value = span *self*-time in
    /// microseconds (non-zero self-times round up to 1). The first
    /// frame, `learner`, names the recording process. Zero-self-time
    /// rows are dropped (they carry no area).
    pub fn collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for r in self.spans.iter().filter(|r| r.self_ns > 0) {
            let stack = r.path.replace('/', ";");
            let _ = writeln!(out, "learner;{stack} {}", r.self_ns.div_ceil(1000));
        }
        out
    }

    /// Self-time totals by leaf span name, largest first (ties by
    /// name) — the kernel attribution `summarize` and `flame` print.
    pub fn self_time_by_leaf(&self) -> Vec<(&str, u64)> {
        let mut by_leaf: HashMap<&str, u64> = HashMap::new();
        for s in &self.spans {
            *by_leaf.entry(s.leaf()).or_default() += s.self_ns;
        }
        let mut rows: Vec<(&str, u64)> = by_leaf.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// Render the span tree and metric rollups as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} JSONL lines, {} events", self.lines, self.events);
        if self.skipped > 0 {
            let _ = writeln!(
                out,
                "warning: skipped {} malformed line(s) (torn write or truncated file)",
                self.skipped
            );
        }

        if !self.spans.is_empty() {
            let total_self: u64 = self.spans.iter().map(|s| s.self_ns).sum();
            let _ = writeln!(out, "\n== span tree (total | self | count) ==");
            render_span_tree(&mut out, &self.spans, total_self);

            let _ = writeln!(out, "\n== span self-time by name ==");
            for (leaf, self_ns) in self.self_time_by_leaf() {
                let pct = 100.0 * self_ns as f64 / total_self.max(1) as f64;
                let _ = writeln!(out, "{leaf:<44} {:>12}  {pct:5.1}%", fmt_ns(self_ns));
            }
        }

        if !self.rollups.is_empty() {
            let _ = writeln!(out, "\n== event field rollups ==");
            let mut last_event = "";
            for r in &self.rollups {
                if r.event != last_event {
                    let _ = writeln!(out, "{} ({} values)", r.event, r.count);
                    last_event = &r.event;
                }
                let _ = writeln!(
                    out,
                    "  {:<26} mean {:>12.6}  min {:>12.6}  max {:>12.6}  last {:>12.6}",
                    r.field, r.mean, r.min, r.max, r.last
                );
            }
        }

        if !self.counters.is_empty() {
            let _ = writeln!(out, "\n== counters ==");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<44} {v}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n== gauges (final reading) ==");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<44} {v:.6}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "\n== histograms ==");
            for h in &self.histograms {
                let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
                let _ = writeln!(out, "{} (count {}, mean {mean:.6})", h.name, h.count);
                for (i, &c) in h.buckets.iter().enumerate() {
                    let label = match h.edges.get(i) {
                        Some(e) => format!("<= {e}"),
                        None => "overflow".to_string(),
                    };
                    let _ = writeln!(out, "  {label:<20} {c}");
                }
            }
        }
        out
    }
}

/// Render one parsed JSONL record as a compact single line — the
/// per-record view `mars-cli metrics tail` prints.
pub fn tail_line(j: &Json) -> String {
    let count = |j: &Json| j.as_array().map_or(0, Vec::len);
    let fields = |j: &Json| j.as_object().map_or(0, Vec::len);
    match j["kind"].as_str() {
        Some("event") => {
            let mut s = format!(
                "#{:<6} {}",
                j["seq"].as_u64().unwrap_or(0),
                j["name"].as_str().unwrap_or("<unnamed>")
            );
            if let Some(pairs) = j.as_object() {
                for (k, v) in pairs {
                    if matches!(k.as_str(), "seq" | "kind" | "name") {
                        continue;
                    }
                    let _ = write!(s, " {k}={v}");
                }
            }
            s
        }
        Some("spans") => format!("[spans] {} paths", count(&j["spans"])),
        Some("counters") => format!("[counters] {} totals", fields(&j["counters"])),
        Some("gauges") => format!("[gauges] {} readings", fields(&j["gauges"])),
        Some("histograms") => {
            format!("[histograms] {} recorded — run complete", count(&j["histograms"]))
        }
        Some(other) => format!("[{other}]"),
        None => "[record with no kind]".to_string(),
    }
}

/// Format nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

struct TreeNode {
    name: String,
    row: Option<SpanRow>,
    children: Vec<TreeNode>,
}

fn insert_path(root: &mut TreeNode, segments: &[&str], row: &SpanRow) {
    let Some((head, rest)) = segments.split_first() else {
        root.row = Some(row.clone());
        return;
    };
    let child = match root.children.iter_mut().position(|c| c.name == *head) {
        Some(i) => &mut root.children[i],
        None => {
            root.children.push(TreeNode {
                name: (*head).to_string(),
                row: None,
                children: Vec::new(),
            });
            root.children.last_mut().expect("just pushed")
        }
    };
    insert_path(child, rest, row);
}

fn render_node(out: &mut String, node: &TreeNode, depth: usize, total_self: u64) {
    if let Some(row) = &node.row {
        let indent = "  ".repeat(depth);
        let pct = 100.0 * row.self_ns as f64 / total_self.max(1) as f64;
        let label = format!("{indent}{}", node.name);
        let _ = writeln!(
            out,
            "{label:<52} {:>12} | {:>12} ({pct:4.1}%) | x{}",
            fmt_ns(row.total_ns),
            fmt_ns(row.self_ns),
            row.count
        );
    }
    let mut children: Vec<&TreeNode> = node.children.iter().collect();
    children.sort_by_key(|c| std::cmp::Reverse(c.row.as_ref().map_or(0, |r| r.total_ns)));
    for child in children {
        render_node(out, child, depth + 1, total_self);
    }
}

fn render_span_tree(out: &mut String, spans: &[SpanRow], total_self: u64) {
    let mut root = TreeNode { name: String::new(), row: None, children: Vec::new() };
    for row in spans {
        let segments: Vec<&str> = row.path.split('/').collect();
        insert_path(&mut root, &segments, row);
    }
    // The root is synthetic: render its children at depth 0.
    let mut children: Vec<&TreeNode> = root.children.iter().collect();
    children.sort_by_key(|c| std::cmp::Reverse(c.row.as_ref().map_or(0, |r| r.total_ns)));
    for child in children {
        render_node(out, child, 0, total_self);
    }
}

/// Parse a full JSONL run. Blank lines are ignored; malformed lines
/// (a crash can tear the last write mid-line) are counted in
/// [`RunSummary::skipped`] rather than poisoning the whole file.
/// Records of a kind this parser does not know (the per-worker
/// snapshots of captures from the retired rollout fleet) are counted
/// as lines and otherwise ignored.
pub fn summarize(text: &str) -> Result<RunSummary, String> {
    let mut summary = RunSummary::default();
    // (event, field) -> (count, sum, min, max, last)
    // (count, sum, min, max, last) per (event, field).
    type FieldAgg = (u64, f64, f64, f64, f64);
    let mut agg: HashMap<(String, String), FieldAgg> = HashMap::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(value) = Json::parse(line) else {
            summary.skipped += 1;
            continue;
        };
        summary.lines += 1;
        match value["kind"].as_str() {
            Some("event") => {
                summary.events += 1;
                let name = value["name"].as_str().unwrap_or("<unnamed>").to_string();
                let Some(pairs) = value.as_object() else { continue };
                for (key, field) in pairs {
                    if matches!(key.as_str(), "seq" | "kind" | "name") {
                        continue;
                    }
                    let Some(v) = field.as_f64() else { continue };
                    let entry = agg.entry((name.clone(), key.clone())).or_insert((
                        0,
                        0.0,
                        f64::INFINITY,
                        f64::NEG_INFINITY,
                        v,
                    ));
                    entry.0 += 1;
                    entry.1 += v;
                    entry.2 = entry.2.min(v);
                    entry.3 = entry.3.max(v);
                    entry.4 = v;
                }
            }
            Some("spans") => {
                for s in value["spans"].as_array().map(Vec::as_slice).unwrap_or_default() {
                    summary.spans.push(SpanRow {
                        path: s["path"].as_str().unwrap_or_default().to_string(),
                        count: s["count"].as_u64().unwrap_or(0),
                        total_ns: s["total_ns"].as_u64().unwrap_or(0),
                        self_ns: s["self_ns"].as_u64().unwrap_or(0),
                    });
                }
            }
            Some("counters") => {
                if let Some(pairs) = value["counters"].as_object() {
                    for (k, v) in pairs {
                        summary.counters.push((k.clone(), v.as_u64().unwrap_or(0)));
                    }
                }
            }
            Some("gauges") => {
                if let Some(pairs) = value["gauges"].as_object() {
                    for (k, v) in pairs {
                        summary.gauges.push((k.clone(), v.as_f64().unwrap_or(0.0)));
                    }
                }
            }
            Some("histograms") => {
                for h in value["histograms"].as_array().map(Vec::as_slice).unwrap_or_default() {
                    summary.histograms.push(HistogramRow {
                        name: h["name"].as_str().unwrap_or_default().to_string(),
                        edges: h["edges"]
                            .as_array()
                            .map(|a| a.iter().filter_map(Json::as_f64).collect())
                            .unwrap_or_default(),
                        buckets: h["buckets"]
                            .as_array()
                            .map(|a| a.iter().filter_map(Json::as_u64).collect())
                            .unwrap_or_default(),
                        count: h["count"].as_u64().unwrap_or(0),
                        sum: h["sum"].as_f64().unwrap_or(0.0),
                    });
                }
            }
            _ => {}
        }
    }

    summary.rollups = agg
        .into_iter()
        .map(|((event, field), (count, sum, min, max, last))| FieldRollup {
            event,
            field,
            count,
            mean: sum / count.max(1) as f64,
            min,
            max,
            last,
        })
        .collect();
    summary.rollups.sort_by(|a, b| (&a.event, &a.field).cmp(&(&b.event, &b.field)));
    summary.spans.sort_by(|a, b| a.path.cmp(&b.path));
    summary.counters.sort_by(|a, b| a.0.cmp(&b.0));
    summary.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    summary.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> String {
        [
            r#"{"seq":1,"kind":"event","name":"ppo.update","reward":-0.5,"entropy":1.2}"#,
            r#"{"seq":2,"kind":"event","name":"ppo.update","reward":-0.3,"entropy":1.0}"#,
            r#"{"seq":3,"kind":"event","name":"sim.eval","makespan_s":0.07}"#,
            concat!(
                r#"{"kind":"spans","spans":["#,
                r#"{"path":"core.agent.train","count":1,"total_ns":1000,"self_ns":100},"#,
                r#"{"path":"core.agent.train/tensor.ops.matmul","count":5,"total_ns":900,"self_ns":900}"#,
                r#"]}"#
            ),
            r#"{"kind":"counters","counters":{"sim.eval.valid":3}}"#,
            r#"{"kind":"gauges","gauges":{"sim.eval.makespan_s":0.07}}"#,
            r#"{"kind":"histograms","histograms":[{"name":"h","edges":[1],"buckets":[2,0],"count":2,"sum":0.5}]}"#,
        ]
        .join("\n")
    }

    #[test]
    fn summarize_aggregates_event_fields() {
        let run = summarize(&sample_run()).expect("parse");
        assert_eq!(run.events, 3);
        let reward = run
            .rollups
            .iter()
            .find(|r| r.event == "ppo.update" && r.field == "reward")
            .expect("reward rollup");
        assert_eq!(reward.count, 2);
        assert!((reward.mean + 0.4).abs() < 1e-12);
        assert_eq!(reward.min, -0.5);
        assert_eq!(reward.max, -0.3);
        assert_eq!(reward.last, -0.3);
    }

    #[test]
    fn summarize_recovers_spans_counters_gauges_histograms() {
        let run = summarize(&sample_run()).expect("parse");
        assert_eq!(run.spans.len(), 2);
        assert_eq!(run.spans[1].leaf(), "tensor.ops.matmul");
        assert_eq!(run.counters, vec![("sim.eval.valid".to_string(), 3)]);
        assert_eq!(run.gauges.len(), 1);
        assert_eq!(run.histograms[0].buckets, vec![2, 0]);
    }

    #[test]
    fn self_time_fraction_by_prefix() {
        let run = summarize(&sample_run()).expect("parse");
        let f = run.self_time_fraction(&["tensor.", "nn."]);
        assert!((f - 0.9).abs() < 1e-12, "{f}");
        assert_eq!(run.self_time_fraction(&["nonexistent."]), 0.0);
    }

    #[test]
    fn render_shows_tree_and_rollups() {
        let run = summarize(&sample_run()).expect("parse");
        let text = run.render();
        assert!(text.contains("span tree"));
        assert!(text.contains("core.agent.train"));
        // Child rendered indented under the parent by leaf name.
        assert!(text.contains("  tensor.ops.matmul"));
        assert!(text.contains("ppo.update"));
        assert!(text.contains("sim.eval.valid"));
    }

    #[test]
    fn arena_report_absent_without_arena_telemetry() {
        let run = summarize(&sample_run()).expect("parse");
        assert!(run.arena_report().is_none());
    }

    /// A pretrain-only trace (zero PPO updates, zero evaluations) still
    /// reports the training arena. The capture also carries an
    /// `encode.batch_size` histogram, as runs recorded before PR 19 do:
    /// it parses and is ignored.
    #[test]
    fn arena_report_renders_for_pretrain_only_traces() {
        let run = [
            r#"{"seq":1,"kind":"event","name":"dgi.iter","loss":0.69}"#,
            r#"{"kind":"counters","counters":{"autograd.arena.reset":300}}"#,
            r#"{"kind":"gauges","gauges":{"autograd.arena.high_water":8192}}"#,
            r#"{"kind":"histograms","histograms":[{"name":"encode.batch_size","edges":[1,2,4,8,16,32],"buckets":[0,300,0,0,0,0,0],"count":300,"sum":600}]}"#,
        ]
        .join("\n");
        let report = summarize(&run).expect("parse").arena_report().expect("arena report");
        assert_eq!(report.arena_resets, 300);
        assert_eq!(report.arena_high_water, 8192.0);
        assert_eq!(
            report.render(),
            "training arena: 300 tape reuses (high water 8192 pooled f32s)\n"
        );
    }

    #[test]
    fn fault_report_from_fault_counters() {
        let run = [
            r#"{"kind":"counters","counters":{"sim.fault.device_failure":1,"sim.fault.remap":3,"sim.fault.remap_ops":42,"sim.fault.transient":5,"sim.fault.retry":6,"sim.fault.retry_exhausted":1,"sim.fault.straggler":2,"sim.fault.straggler_abort":1,"sim.fault.crash":1,"train.crash_resume":1}}"#,
        ]
        .join("\n");
        let report = summarize(&run).expect("parse").fault_report().expect("report");
        assert_eq!(report.device_failures, 1);
        assert_eq!(report.remapped_ops, 42);
        assert_eq!(report.retries, 6);
        assert_eq!(report.crash_resumes, 1);
        let text = report.render();
        assert!(text.contains("device failures: 1 (3 remaps, 42 ops moved"), "{text}");
        assert!(text.contains("transient errors: 5 (6 retries spent, 1 evaluations gave up"));
        assert!(text.contains("agent crashes: 1 (1 checkpoint resumes)"), "{text}");
    }

    #[test]
    fn serve_report_names_coalesced_joins_only_when_there_were_any() {
        let run = |coalesced: &str| {
            format!(
                r#"{{"kind":"counters","counters":{{"serve.requests":9,"serve.cache.hot":7,"serve.cache.warm":1,"serve.cache.miss":1{coalesced}}}}}"#
            )
        };
        let quiet = summarize(&run("")).expect("parse").serve_report().expect("report");
        assert_eq!(quiet.render(), "== serve ==\nrequests: 9 (hot 7, warm 1, cold 1)\n");
        let joined = summarize(&run(r#","serve.cache.coalesced":3"#)).expect("parse");
        let text = joined.serve_report().expect("report").render();
        assert!(text.ends_with("coalesced: 3 of the hot answers joined a forward in flight\n"));
        let counted = summarize(&run(r#","serve.forwards":1"#)).expect("parse");
        let text = counted.serve_report().expect("report").render();
        assert!(
            text.ends_with(
                "cold 1)\nforwards: 1 (the other cold answers were landed from a graph's memo)\n"
            ),
            "{text}"
        );
        assert!(summarize(&sample_run()).expect("parse").serve_report().is_none());
    }

    #[test]
    fn fault_report_absent_for_clean_runs() {
        let run = summarize(&sample_run()).expect("parse");
        assert!(run.fault_report().is_none());
    }

    /// Regression: a crash mid-write leaves a torn last line; the rest
    /// of the run must still summarize, with the damage counted.
    #[test]
    fn torn_last_line_is_skipped_with_a_counted_warning() {
        let torn = format!("{}\n{}", sample_run(), r#"{"seq":9,"kind":"event","na"#);
        let run = summarize(&torn).expect("torn file still summarizes");
        assert_eq!(run.skipped, 1, "the torn line is counted");
        assert_eq!(run.events, 3, "intact events all survive");
        assert_eq!(run.spans.len(), 2, "intact summary records all survive");
        let text = run.render();
        assert!(text.contains("skipped 1 malformed line(s)"), "{text}");
        // A garbage line mid-file is the same story.
        let run = summarize("not json at all\n{\"kind\":\"event\",\"name\":\"x\",\"seq\":1}")
            .expect("parses");
        assert_eq!(run.skipped, 1);
        assert_eq!(run.events, 1);
    }

    /// Captures from retired features keep summarizing, and only
    /// through the generic path: the rollout fleet's heartbeat events and
    /// per-worker records, the rollout engine's `sim.eval_batch` events
    /// and the evaluation memo's `sim.cache.*` counters. Their events and
    /// counters land in the generic rollups and counter table, worker
    /// records are counted as lines and otherwise ignored, and none of
    /// them gets a report line of its own.
    #[test]
    fn retired_feature_captures_summarize_through_the_generic_path() {
        let retired = [
            r#"{"seq":4,"kind":"event","name":"net.unit","worker":0,"placements":10,"latency_s":0.02}"#,
            r#"{"seq":5,"kind":"event","name":"fleet.health","worker":0,"units":2,"wall_s":4.0}"#,
            r#"{"seq":6,"kind":"event","name":"sim.eval_batch","size":10,"computed":6,"threads":4,"wall_s":0.2,"compute_s":0.6,"backend":"local"}"#,
            r#"{"seq":7,"kind":"event","name":"sim.eval_batch","size":10,"computed":2,"threads":4,"wall_s":0.2,"compute_s":0.6,"backend":"local"}"#,
            r#"{"kind":"worker_spans","worker":0,"spans":[{"path":"net.worker.unit","count":1,"total_ns":500,"self_ns":100}]}"#,
            r#"{"kind":"worker_counters","worker":0,"counters":{"net.worker.units_served":2}}"#,
            r#"{"kind":"counters","counters":{"sim.cache.hit":12,"sim.cache.miss":8,"net.workers_connected":1}}"#,
        ];
        let run = summarize(&format!("{}\n{}", sample_run(), retired.join("\n"))).expect("parse");
        assert_eq!((run.lines, run.skipped), (14, 0), "worker records are not malformed");
        assert_eq!(run.events, 7, "retired events are events like any other");
        assert_eq!(run.spans.len(), 2, "worker spans are not the recording process's");
        let batch =
            run.rollups.iter().find(|r| r.event == "sim.eval_batch" && r.field == "computed");
        assert_eq!(batch.map(|r| (r.count, r.mean)), Some((2, 4.0)));
        assert!(run.counters.contains(&("sim.cache.hit".to_string(), 12)));
        assert!(run.arena_report().is_none() && run.fault_report().is_none());
        assert!(run.serve_report().is_none());
        let text = run.render();
        let sections: Vec<&str> = text.lines().filter(|l| l.starts_with("== ")).collect();
        assert_eq!(
            sections,
            [
                "== span tree (total | self | count) ==",
                "== span self-time by name ==",
                "== event field rollups ==",
                "== counters ==",
                "== gauges (final reading) ==",
                "== histograms ==",
            ]
        );
        assert!(!text.contains("net.worker."), "{text}");
        assert!(!text.contains("hit rate"), "{text}");
    }

    #[test]
    fn collapsed_stacks_are_rooted_at_the_recording_process() {
        let run = summarize(&sample_run()).expect("parse");
        let stacks = run.collapsed_stacks();
        assert_eq!(
            stacks,
            "learner;core.agent.train 1\nlearner;core.agent.train;tensor.ops.matmul 1\n"
        );
        assert_eq!(
            run.self_time_by_leaf(),
            vec![("tensor.ops.matmul", 900), ("core.agent.train", 100)]
        );
    }

    #[test]
    fn tail_line_renders_each_record_kind() {
        let lines: Vec<String> =
            sample_run().lines().map(|l| tail_line(&Json::parse(l).expect("valid"))).collect();
        assert!(lines[0].starts_with("#1      ppo.update reward=-0.5"), "{}", lines[0]);
        assert_eq!(lines[3], "[spans] 2 paths");
        assert_eq!(lines[4], "[counters] 1 totals");
        assert_eq!(lines[5], "[gauges] 1 readings");
        assert!(lines[6].contains("run complete"), "{}", lines[6]);
    }

    #[test]
    fn empty_input_is_empty_summary() {
        let run = summarize("\n\n").expect("parse");
        assert_eq!(run.lines, 0);
        assert_eq!(run.events, 0);
        assert!(run.render().contains("0 JSONL lines"));
    }
}
