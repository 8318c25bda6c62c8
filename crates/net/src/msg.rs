//! Fleet protocol messages: typed views over mars-json payloads.
//!
//! # Bit-exact floats on the wire
//!
//! mars-json prints finite `f64`s with shortest-roundtrip precision
//! but maps NaN/Inf to `null` — and evaluation results legitimately
//! carry NaN (`makespan_s`/`comm_s` of an OOM placement). Every float
//! and every 64-bit integer on the wire is therefore encoded as a
//! 16-digit hex string of its raw bits (`f64::to_bits`), making the
//! protocol bit-transparent by construction: what the worker computed
//! is what the learner commits, NaN payloads included.
//!
//! # Message flow
//!
//! ```text
//! worker                      learner
//!   | -- Hello{version} -------> |
//!   | <- Welcome{id, setup} ---- |   (env built from EnvSetup)
//!   | <- Work{unit, failed, ps}- |   (repeated)
//!   | -- Telemetry{stats} -----> |   (only when the learner records)
//!   | -- Results{unit, comps} -> |
//!   | <- Shutdown -------------- |
//! ```
//!
//! Telemetry frames are advisory: a worker sends one immediately
//! before each `Results` frame when (and only when) the `Welcome`
//! carried `telemetry: true`. They ship the worker's cumulative span
//! and counter snapshots, a health heartbeat (wall/compute/idle
//! time, queue depth), and any structured events recorded since the
//! previous frame — everything the learner needs to merge the whole
//! fleet into one run JSONL. Results framing is unchanged, so
//! telemetry can never perturb the training trace.

use mars_json::Json;
use mars_sim::{Cluster, EvalComputation, EvalOutcome, OomError};
use std::fmt::Write as _;

/// Protocol version; bumped on any wire-visible change. A learner and
/// worker with different versions refuse to pair.
/// v2: `Welcome.telemetry` flag + the `Telemetry` message.
/// v3: `PlaceRequest`/`PlaceResponse` serving messages (additive:
/// `PlaceRequest.top_k` decodes as 1 when absent).
pub const PROTOCOL_VERSION: u32 = 3;

/// Encode an `f64` as its raw bits in hex (bit-exact, NaN-safe).
pub fn f64_to_wire(x: f64) -> Json {
    Json::from(format!("{:016x}", x.to_bits()))
}

/// Decode an `f64` from its hex bit pattern.
pub fn f64_from_wire(j: Option<&Json>, field: &str) -> Result<f64, String> {
    u64_from_wire(j, field).map(f64::from_bits)
}

/// Encode a `u64` as a hex string (JSON numbers are f64s and cannot
/// carry all 64 bits).
pub fn u64_to_wire(x: u64) -> Json {
    Json::from(format!("{x:016x}"))
}

/// Decode a `u64` from its hex string.
pub fn u64_from_wire(j: Option<&Json>, field: &str) -> Result<u64, String> {
    let s =
        j.and_then(Json::as_str).ok_or_else(|| format!("missing or non-string '{field}' field"))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("malformed hex bits '{s}' in '{field}'"))
}

fn usize_field(j: &Json, field: &str) -> Result<usize, String> {
    j.get(field)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing or non-numeric '{field}' field"))
}

/// Append `rows` as the compact JSON array of arrays `[[..],[..]]`,
/// each row cut to its first `top_k` devices. Device ids are almost
/// always one digit, so those are pushed as a byte each; the bytes are
/// what `Json::arr` of `Json::Num`s prints.
pub fn write_ranking(out: &mut String, rows: &[Vec<usize>], top_k: usize) {
    out.push('[');
    for (r, row) in rows.iter().enumerate() {
        out.push_str(if r == 0 { "[" } else { ",[" });
        for (i, &device) in row.iter().take(top_k).enumerate() {
            if i > 0 {
                out.push(',');
            }
            match u8::try_from(device) {
                Ok(digit @ 0..=9) => out.push(char::from(b'0' + digit)),
                _ => write!(out, "{device}").expect("string write"),
            }
        }
        out.push(']');
    }
    out.push(']');
}

/// Render the payload of a [`Msg::PlaceResponse`] into `out` (cleared
/// first), straight from the engine's full ranking: each row is cut to
/// `top_k` devices as it is written, a `top_k` of 0 reading as 1 (the
/// greedy device is always reported). The one encoder of this message:
/// [`Msg::to_bytes`] goes through it, and the bytes equal
/// `Msg::PlaceResponse { .. }.to_json().to_string()` over the truncated
/// ranking (the property test below).
pub fn write_place_response(
    out: &mut String,
    unit: u64,
    graph_fp: u64,
    cluster_fp: u64,
    weights_fp: u64,
    ranking: &[Vec<usize>],
    top_k: usize,
) {
    out.clear();
    write!(
        out,
        "{{\"type\":\"place_response\",\"unit\":\"{unit:016x}\",\"graph_fp\":\"{graph_fp:016x}\",\
         \"cluster_fp\":\"{cluster_fp:016x}\",\"weights_fp\":\"{weights_fp:016x}\",\"ranking\":"
    )
    .expect("string write");
    write_ranking(out, ranking, top_k.max(1));
    out.push('}');
}

/// Everything a worker needs to rebuild the learner's environment so
/// that its pure `SimEnv::compute` is bit-identical to the learner's:
/// workload + profile (graph), seed (measurement noise), fault plan
/// (validated, never fired worker-side — commit faults are applied at
/// the learner's commit point), and the measurement-protocol knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvSetup {
    /// Canonical workload name (`mars_graph::generators::Workload::name`).
    pub workload: String,
    /// Graph profile: `"paper"` or `"reduced"`.
    pub profile: String,
    /// Environment seed (noise streams derive from it).
    pub seed: u64,
    /// Fault-plan spec string (empty = no plan).
    pub fault_plan: String,
    /// Per-step cutoff marking placements bad.
    pub bad_cutoff_s: f64,
    /// Reading assigned to invalid (OOM) placements.
    pub invalid_penalty_s: f64,
    /// Relative measurement-noise standard deviation.
    pub noise_sigma: f64,
    /// Steps per evaluation (warm-up included).
    pub steps_per_eval: usize,
    /// Warm-up steps discarded.
    pub warmup_steps: usize,
}

impl EnvSetup {
    /// JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("profile", Json::from(self.profile.as_str())),
            ("seed", u64_to_wire(self.seed)),
            ("fault_plan", Json::from(self.fault_plan.as_str())),
            ("bad_cutoff_s", f64_to_wire(self.bad_cutoff_s)),
            ("invalid_penalty_s", f64_to_wire(self.invalid_penalty_s)),
            ("noise_sigma", f64_to_wire(self.noise_sigma)),
            ("steps_per_eval", Json::from(self.steps_per_eval as f64)),
            ("warmup_steps", Json::from(self.warmup_steps as f64)),
        ])
    }

    /// Decode from JSON.
    pub fn from_json(j: &Json) -> Result<EnvSetup, String> {
        let text = |field: &str| -> Result<String, String> {
            j.get(field)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string '{field}' field"))
        };
        Ok(EnvSetup {
            workload: text("workload")?,
            profile: text("profile")?,
            seed: u64_from_wire(j.get("seed"), "seed")?,
            fault_plan: text("fault_plan")?,
            bad_cutoff_s: f64_from_wire(j.get("bad_cutoff_s"), "bad_cutoff_s")?,
            invalid_penalty_s: f64_from_wire(j.get("invalid_penalty_s"), "invalid_penalty_s")?,
            noise_sigma: f64_from_wire(j.get("noise_sigma"), "noise_sigma")?,
            steps_per_eval: usize_field(j, "steps_per_eval")?,
            warmup_steps: usize_field(j, "warmup_steps")?,
        })
    }
}

/// One aggregated span path in a worker's shipped snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSpan {
    /// `/`-joined call path.
    pub path: String,
    /// Times entered.
    pub count: u64,
    /// Wall nanoseconds, children included.
    pub total_ns: u64,
    /// Wall nanoseconds minus child-span time.
    pub self_ns: u64,
}

/// A worker's telemetry payload: cumulative span/counter snapshots, a
/// health heartbeat, and the events recorded since the last frame.
/// Snapshots are cumulative so frames are idempotent — the learner
/// keeps the latest per worker, and a lost frame only costs
/// granularity, never correctness.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkerTelemetry {
    /// The work unit this frame rode along with (span context).
    pub unit: u64,
    /// Work units served so far.
    pub units_served: u64,
    /// Placements in the unit just computed (queue depth at dispatch).
    pub shard: usize,
    /// Wall-clock seconds since the worker started serving.
    pub wall_s: f64,
    /// Cumulative pure-compute seconds across all units.
    pub compute_s: f64,
    /// Cumulative seconds spent waiting for work.
    pub idle_s: f64,
    /// Cumulative span snapshot (sorted by path).
    pub spans: Vec<WireSpan>,
    /// Cumulative counter snapshot (sorted by name).
    pub counters: Vec<(String, u64)>,
    /// Event records (already JSONL objects) drained since the last
    /// frame. Telemetry-only values, so plain JSON numbers are fine
    /// here — no raw-bits encoding needed.
    pub events: Vec<Json>,
}

impl WorkerTelemetry {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", u64_to_wire(self.unit)),
            ("units_served", u64_to_wire(self.units_served)),
            ("shard", Json::from(self.shard as f64)),
            ("wall_s", f64_to_wire(self.wall_s)),
            ("compute_s", f64_to_wire(self.compute_s)),
            ("idle_s", f64_to_wire(self.idle_s)),
            (
                "spans",
                Json::arr(self.spans.iter().map(|s| {
                    Json::obj([
                        ("path", Json::from(s.path.as_str())),
                        ("count", u64_to_wire(s.count)),
                        ("total_ns", u64_to_wire(s.total_ns)),
                        ("self_ns", u64_to_wire(s.self_ns)),
                    ])
                })),
            ),
            (
                "counters",
                Json::Obj(
                    self.counters.iter().map(|(k, v)| (k.clone(), u64_to_wire(*v))).collect(),
                ),
            ),
            ("events", Json::arr(self.events.iter().cloned())),
        ])
    }

    fn from_json(j: &Json) -> Result<WorkerTelemetry, String> {
        let spans = j
            .get("spans")
            .and_then(Json::as_array)
            .ok_or("telemetry has no 'spans' array")?
            .iter()
            .map(|s| {
                Ok(WireSpan {
                    path: s
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or("span row has no 'path'")?
                        .to_string(),
                    count: u64_from_wire(s.get("count"), "count")?,
                    total_ns: u64_from_wire(s.get("total_ns"), "total_ns")?,
                    self_ns: u64_from_wire(s.get("self_ns"), "self_ns")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let counters = j
            .get("counters")
            .and_then(Json::as_object)
            .ok_or("telemetry has no 'counters' object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), u64_from_wire(Some(v), k)?)))
            .collect::<Result<_, String>>()?;
        Ok(WorkerTelemetry {
            unit: u64_from_wire(j.get("unit"), "unit")?,
            units_served: u64_from_wire(j.get("units_served"), "units_served")?,
            shard: usize_field(j, "shard")?,
            wall_s: f64_from_wire(j.get("wall_s"), "wall_s")?,
            compute_s: f64_from_wire(j.get("compute_s"), "compute_s")?,
            idle_s: f64_from_wire(j.get("idle_s"), "idle_s")?,
            spans,
            counters,
            events: j.get("events").and_then(Json::as_array).cloned().unwrap_or_default(),
        })
    }
}

fn outcome_to_json(o: &EvalOutcome) -> Json {
    match o {
        EvalOutcome::Valid { per_step_s } => {
            Json::obj([("kind", Json::from("valid")), ("per_step_s", f64_to_wire(*per_step_s))])
        }
        EvalOutcome::Bad { cutoff_s } => {
            Json::obj([("kind", Json::from("bad")), ("cutoff_s", f64_to_wire(*cutoff_s))])
        }
        EvalOutcome::Invalid { oom } => Json::obj([
            ("kind", Json::from("invalid")),
            ("device", Json::from(oom.device as f64)),
            ("required_bytes", u64_to_wire(oom.required_bytes)),
            ("capacity_bytes", u64_to_wire(oom.capacity_bytes)),
        ]),
        EvalOutcome::TransientError { attempts, cutoff_s } => Json::obj([
            ("kind", Json::from("transient_error")),
            ("attempts", Json::from(*attempts as f64)),
            ("cutoff_s", f64_to_wire(*cutoff_s)),
        ]),
        EvalOutcome::Straggler { slowdown, cutoff_s } => Json::obj([
            ("kind", Json::from("straggler")),
            ("slowdown", f64_to_wire(*slowdown)),
            ("cutoff_s", f64_to_wire(*cutoff_s)),
        ]),
    }
}

fn outcome_from_json(j: &Json) -> Result<EvalOutcome, String> {
    match j.get("kind").and_then(Json::as_str) {
        Some("valid") => {
            Ok(EvalOutcome::Valid { per_step_s: f64_from_wire(j.get("per_step_s"), "per_step_s")? })
        }
        Some("bad") => {
            Ok(EvalOutcome::Bad { cutoff_s: f64_from_wire(j.get("cutoff_s"), "cutoff_s")? })
        }
        Some("invalid") => Ok(EvalOutcome::Invalid {
            oom: OomError {
                device: usize_field(j, "device")?,
                required_bytes: u64_from_wire(j.get("required_bytes"), "required_bytes")?,
                capacity_bytes: u64_from_wire(j.get("capacity_bytes"), "capacity_bytes")?,
            },
        }),
        Some("transient_error") => Ok(EvalOutcome::TransientError {
            attempts: usize_field(j, "attempts")? as u32,
            cutoff_s: f64_from_wire(j.get("cutoff_s"), "cutoff_s")?,
        }),
        Some("straggler") => Ok(EvalOutcome::Straggler {
            slowdown: f64_from_wire(j.get("slowdown"), "slowdown")?,
            cutoff_s: f64_from_wire(j.get("cutoff_s"), "cutoff_s")?,
        }),
        other => Err(format!("unknown outcome kind {other:?}")),
    }
}

/// Encode one evaluation result (computation + the worker's compute
/// wall-seconds, telemetry only).
pub fn comp_to_json(comp: &EvalComputation, wall_s: f64) -> Json {
    Json::obj([
        ("outcome", outcome_to_json(&comp.outcome)),
        ("machine_s", f64_to_wire(comp.machine_s)),
        ("makespan_s", f64_to_wire(comp.makespan_s)),
        ("comm_s", f64_to_wire(comp.comm_s)),
        ("num_transfers", Json::from(comp.num_transfers as f64)),
        ("peak_mem_utilization", f64_to_wire(comp.peak_mem_utilization)),
        ("wall_s", f64_to_wire(wall_s)),
    ])
}

/// Decode one evaluation result.
pub fn comp_from_json(j: &Json) -> Result<(EvalComputation, f64), String> {
    let outcome = outcome_from_json(j.get("outcome").ok_or("missing 'outcome' field in result")?)?;
    Ok((
        EvalComputation {
            outcome,
            machine_s: f64_from_wire(j.get("machine_s"), "machine_s")?,
            makespan_s: f64_from_wire(j.get("makespan_s"), "makespan_s")?,
            comm_s: f64_from_wire(j.get("comm_s"), "comm_s")?,
            num_transfers: usize_field(j, "num_transfers")?,
            peak_mem_utilization: f64_from_wire(
                j.get("peak_mem_utilization"),
                "peak_mem_utilization",
            )?,
        },
        f64_from_wire(j.get("wall_s"), "wall_s")?,
    ))
}

/// One fleet protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker → learner greeting.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Learner → worker: accepted; build this environment.
    Welcome {
        /// The learner's [`PROTOCOL_VERSION`].
        version: u32,
        /// This worker's id (telemetry labels only).
        worker_id: u32,
        /// Whether the learner is recording: `true` asks the worker to
        /// collect spans/counters/events and ship [`Msg::Telemetry`]
        /// frames alongside its results.
        telemetry: bool,
        /// Environment recipe.
        setup: EnvSetup,
    },
    /// Learner → worker: one work unit of enforced placements to
    /// compute. `failed_devices` mirrors the learner's degraded
    /// cluster so the worker's environment fingerprint stays in sync.
    Work {
        /// Monotonic unit id; echoed back in [`Msg::Results`].
        unit: u64,
        /// Devices failed on the learner's cluster so far.
        failed_devices: Vec<usize>,
        /// Compatibility-enforced, failure-remapped placements.
        placements: Vec<Vec<usize>>,
    },
    /// Worker → learner: the unit's computations, in placement order.
    Results {
        /// The unit being answered.
        unit: u64,
        /// One `(computation, compute_wall_s)` per placement.
        comps: Vec<(EvalComputation, f64)>,
    },
    /// Worker → learner: observability payload, sent immediately
    /// before each `Results` frame when the learner asked for it.
    /// Purely advisory — never touches the training trace.
    Telemetry {
        /// Sender's worker id.
        worker_id: u32,
        /// Span/counter snapshots, health stats, drained events.
        stats: WorkerTelemetry,
    },
    /// Client → serve: decode a placement for this (graph, cluster)
    /// pair (v3).
    PlaceRequest {
        /// Monotonic request id; echoed back in [`Msg::PlaceResponse`]
        /// so pipelined clients can match answers to questions.
        unit: u64,
        /// Canonical workload name
        /// (`mars_graph::generators::Workload::name`).
        workload: String,
        /// Graph profile: `"paper"` or `"reduced"`.
        profile: String,
        /// The querying cluster's full spec (devices, links, failure
        /// mask) — the server derives the cache key from it.
        cluster: Cluster,
        /// Devices to report per op, most probable first. Additive
        /// field: absent decodes as 1 (greedy placement only).
        top_k: usize,
    },
    /// Serve → client: the decoded placement (v3).
    PlaceResponse {
        /// The request being answered.
        unit: u64,
        /// Graph fingerprint the server derived (cache-key half 1).
        graph_fp: u64,
        /// Cluster fingerprint the server derived (cache-key half 2).
        cluster_fp: u64,
        /// Fingerprint of the weights that produced the ranking.
        weights_fp: u64,
        /// Per-op device ranking truncated to the request's `top_k`;
        /// `ranking[op][0]` is the greedy device for that op.
        ranking: Vec<Vec<usize>>,
    },
    /// Learner → worker: drain and exit cleanly.
    Shutdown,
    /// Either direction: fatal protocol-level failure.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Msg {
    /// JSON encoding (the frame payload).
    pub fn to_json(&self) -> Json {
        match self {
            Msg::Hello { version } => {
                Json::obj([("type", Json::from("hello")), ("version", Json::from(*version as f64))])
            }
            Msg::Welcome { version, worker_id, telemetry, setup } => Json::obj([
                ("type", Json::from("welcome")),
                ("version", Json::from(*version as f64)),
                ("worker_id", Json::from(*worker_id as f64)),
                ("telemetry", Json::from(*telemetry)),
                ("setup", setup.to_json()),
            ]),
            Msg::Work { unit, failed_devices, placements } => Json::obj([
                ("type", Json::from("work")),
                ("unit", u64_to_wire(*unit)),
                ("failed_devices", Json::arr(failed_devices.iter().map(|&d| Json::from(d as f64)))),
                (
                    "placements",
                    Json::arr(
                        placements
                            .iter()
                            .map(|p| Json::arr(p.iter().map(|&d| Json::from(d as f64)))),
                    ),
                ),
            ]),
            Msg::Results { unit, comps } => Json::obj([
                ("type", Json::from("results")),
                ("unit", u64_to_wire(*unit)),
                ("comps", Json::arr(comps.iter().map(|(c, w)| comp_to_json(c, *w)))),
            ]),
            Msg::Telemetry { worker_id, stats } => Json::obj([
                ("type", Json::from("telemetry")),
                ("worker_id", Json::from(*worker_id as f64)),
                ("stats", stats.to_json()),
            ]),
            Msg::PlaceRequest { unit, workload, profile, cluster, top_k } => Json::obj([
                ("type", Json::from("place_request")),
                ("unit", u64_to_wire(*unit)),
                ("workload", Json::from(workload.as_str())),
                ("profile", Json::from(profile.as_str())),
                ("cluster", cluster.to_json_value()),
                ("top_k", Json::from(*top_k as f64)),
            ]),
            Msg::PlaceResponse { unit, graph_fp, cluster_fp, weights_fp, ranking } => Json::obj([
                ("type", Json::from("place_response")),
                ("unit", u64_to_wire(*unit)),
                ("graph_fp", u64_to_wire(*graph_fp)),
                ("cluster_fp", u64_to_wire(*cluster_fp)),
                ("weights_fp", u64_to_wire(*weights_fp)),
                (
                    "ranking",
                    Json::arr(
                        ranking.iter().map(|p| Json::arr(p.iter().map(|&d| Json::from(d as f64)))),
                    ),
                ),
            ]),
            Msg::Shutdown => Json::obj([("type", Json::from("shutdown"))]),
            Msg::Error { message } => Json::obj([
                ("type", Json::from("error")),
                ("message", Json::from(message.as_str())),
            ]),
        }
    }

    /// Decode a frame payload.
    pub fn from_json(j: &Json) -> Result<Msg, String> {
        let usize_list = |j: &Json, field: &str| -> Result<Vec<usize>, String> {
            j.as_array()
                .ok_or_else(|| format!("'{field}' is not an array"))?
                .iter()
                .map(|d| d.as_usize().ok_or_else(|| format!("non-integer entry in '{field}'")))
                .collect()
        };
        match j.get("type").and_then(Json::as_str) {
            Some("hello") => Ok(Msg::Hello { version: usize_field(j, "version")? as u32 }),
            Some("welcome") => Ok(Msg::Welcome {
                version: usize_field(j, "version")? as u32,
                worker_id: usize_field(j, "worker_id")? as u32,
                telemetry: j.get("telemetry").and_then(Json::as_bool).unwrap_or(false),
                setup: EnvSetup::from_json(j.get("setup").ok_or("welcome has no 'setup'")?)?,
            }),
            Some("work") => Ok(Msg::Work {
                unit: u64_from_wire(j.get("unit"), "unit")?,
                failed_devices: usize_list(
                    j.get("failed_devices").ok_or("work has no 'failed_devices'")?,
                    "failed_devices",
                )?,
                placements: j
                    .get("placements")
                    .and_then(Json::as_array)
                    .ok_or("work has no 'placements' array")?
                    .iter()
                    .map(|p| usize_list(p, "placements"))
                    .collect::<Result<_, _>>()?,
            }),
            Some("results") => Ok(Msg::Results {
                unit: u64_from_wire(j.get("unit"), "unit")?,
                comps: j
                    .get("comps")
                    .and_then(Json::as_array)
                    .ok_or("results has no 'comps' array")?
                    .iter()
                    .map(comp_from_json)
                    .collect::<Result<_, _>>()?,
            }),
            Some("telemetry") => Ok(Msg::Telemetry {
                worker_id: usize_field(j, "worker_id")? as u32,
                stats: WorkerTelemetry::from_json(
                    j.get("stats").ok_or("telemetry has no 'stats'")?,
                )?,
            }),
            Some("place_request") => {
                let text = |field: &str| -> Result<String, String> {
                    j.get(field)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("missing or non-string '{field}' field"))
                };
                Ok(Msg::PlaceRequest {
                    unit: u64_from_wire(j.get("unit"), "unit")?,
                    workload: text("workload")?,
                    profile: text("profile")?,
                    cluster: Cluster::from_json_value(
                        j.get("cluster").ok_or("place_request has no 'cluster'")?,
                    )?,
                    // Additive (like Welcome.telemetry in v2): absent
                    // reads as greedy-only.
                    top_k: j.get("top_k").and_then(Json::as_usize).unwrap_or(1),
                })
            }
            Some("place_response") => Ok(Msg::PlaceResponse {
                unit: u64_from_wire(j.get("unit"), "unit")?,
                graph_fp: u64_from_wire(j.get("graph_fp"), "graph_fp")?,
                cluster_fp: u64_from_wire(j.get("cluster_fp"), "cluster_fp")?,
                weights_fp: u64_from_wire(j.get("weights_fp"), "weights_fp")?,
                ranking: j
                    .get("ranking")
                    .and_then(Json::as_array)
                    .ok_or("place_response has no 'ranking' array")?
                    .iter()
                    .map(|p| usize_list(p, "ranking"))
                    .collect::<Result<_, _>>()?,
            }),
            Some("shutdown") => Ok(Msg::Shutdown),
            Some("error") => Ok(Msg::Error {
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("(no message)")
                    .to_string(),
            }),
            other => Err(format!("unknown message type {other:?}")),
        }
    }

    /// Serialize to the frame payload bytes: [`Self::to_json`] printed
    /// compactly, which for a `PlaceResponse` is written directly by
    /// [`write_place_response`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let text = match self {
            Msg::PlaceResponse { unit, graph_fp, cluster_fp, weights_fp, ranking } => {
                let mut out = String::new();
                write_place_response(
                    &mut out,
                    *unit,
                    *graph_fp,
                    *cluster_fp,
                    *weights_fp,
                    ranking,
                    usize::MAX,
                );
                out
            }
            other => other.to_json().to_string(),
        };
        text.into_bytes()
    }

    /// Parse from frame payload bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Msg, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("non-UTF-8 payload: {e}"))?;
        let json = Json::parse(text).map_err(|e| format!("malformed payload JSON: {e}"))?;
        Msg::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let bytes = msg.to_bytes();
        let back = Msg::from_bytes(&bytes).expect("decodes");
        assert_eq!(msg, back);
    }

    fn setup() -> EnvSetup {
        EnvSetup {
            workload: "inception_v3".into(),
            profile: "reduced".into(),
            seed: u64::MAX - 3, // beyond f64's exact-integer range
            fault_plan: "fail:2@10, transient:0.25".into(),
            bad_cutoff_s: 20.0,
            invalid_penalty_s: 100.0,
            noise_sigma: 0.03,
            steps_per_eval: 15,
            warmup_steps: 5,
        }
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Msg::Hello { version: PROTOCOL_VERSION });
        for telemetry in [false, true] {
            roundtrip(Msg::Welcome {
                version: PROTOCOL_VERSION,
                worker_id: 3,
                telemetry,
                setup: setup(),
            });
        }
        roundtrip(Msg::Work {
            unit: 7,
            failed_devices: vec![2],
            placements: vec![vec![0, 1, 2, 3], vec![4, 4, 4]],
        });
        roundtrip(Msg::Shutdown);
        roundtrip(Msg::Error { message: "boom".into() });
    }

    #[test]
    fn place_messages_roundtrip() {
        let mut cluster = mars_sim::Cluster::heterogeneous();
        cluster.fail_device(2);
        roundtrip(Msg::PlaceRequest {
            unit: u64::MAX - 5, // beyond f64's exact-integer range
            workload: "inception_v3".into(),
            profile: "reduced".into(),
            cluster,
            top_k: 3,
        });
        roundtrip(Msg::PlaceResponse {
            unit: u64::MAX - 5,
            graph_fp: 0xdead_beef_dead_beef,
            cluster_fp: u64::MAX,
            weights_fp: 1,
            ranking: vec![vec![0, 3, 1], vec![4, 0, 2], vec![1]],
        });
    }

    mars_rng::props! {
        /// The direct rendering is the `Json` tree's, byte for byte,
        /// for any ranking (no rows, empty rows, devices of one digit
        /// and of several) cut at any `top_k`.
        fn rendered_place_response_equals_the_json_tree(rng, 64) {
            use mars_rng::Rng;
            let devices = rng.gen_range(1..8usize);
            let ranking: Vec<Vec<usize>> = (0..rng.gen_range(0..40usize))
                .map(|_| {
                    let len = if rng.gen_range(0..8u32) == 0 { 0 } else { devices };
                    let ids = if rng.gen() { 10 } else { 3000 };
                    (0..len).map(|_| rng.gen_range(0..ids)).collect()
                })
                .collect();
            let (unit, graph_fp, cluster_fp, weights_fp) =
                (rng.gen::<u64>(), rng.gen::<u64>(), rng.gen::<u64>(), rng.gen::<u64>());
            let mut out = String::from("left over from the last response");
            for top_k in [0, 1, devices, devices + 1, usize::MAX] {
                let cut = top_k.max(1);
                let truncated: Vec<Vec<usize>> =
                    ranking.iter().map(|row| row.iter().copied().take(cut).collect()).collect();
                let oracle =
                    Msg::PlaceResponse { unit, graph_fp, cluster_fp, weights_fp, ranking: truncated };
                write_place_response(
                    &mut out, unit, graph_fp, cluster_fp, weights_fp, &ranking, top_k,
                );
                assert_eq!(out, oracle.to_json().to_string(), "top_k {top_k}");
                assert_eq!(oracle.to_bytes(), out.as_bytes(), "to_bytes uses the same encoder");
            }
        }
    }

    /// The v2→v3 addition is additive inside `place_request` too: a
    /// request without `top_k` (an early v3 client) decodes as a
    /// greedy-only query instead of failing.
    #[test]
    fn place_request_without_top_k_defaults_to_greedy() {
        let mut msg = Msg::PlaceRequest {
            unit: 1,
            workload: "vgg16".into(),
            profile: "paper".into(),
            cluster: mars_sim::Cluster::p100_quad(),
            top_k: 5,
        }
        .to_json();
        let Json::Obj(pairs) = &mut msg else { panic!("place_request is an object") };
        pairs.retain(|(k, _)| k != "top_k");
        let back = Msg::from_json(&msg).expect("decodes");
        let Msg::PlaceRequest { top_k, .. } = back else { panic!("wrong type") };
        assert_eq!(top_k, 1, "absent top_k must read as greedy-only");
    }

    #[test]
    fn telemetry_roundtrips_with_full_precision() {
        let stats = WorkerTelemetry {
            unit: u64::MAX - 9, // beyond f64's exact-integer range
            units_served: 12,
            shard: 20,
            wall_s: 0.1 + 0.2,
            compute_s: 1e-300,
            idle_s: 7.25,
            spans: vec![
                WireSpan {
                    path: "net.worker.unit".into(),
                    count: 12,
                    total_ns: u64::MAX - 1,
                    self_ns: 1_000,
                },
                WireSpan {
                    path: "net.worker.unit/sim.measure.compute".into(),
                    count: 240,
                    total_ns: 900,
                    self_ns: 900,
                },
            ],
            counters: vec![
                ("net.worker.placements_computed".into(), u64::MAX - 7),
                ("net.worker.units_served".into(), 12),
            ],
            events: vec![Json::obj([
                ("kind", Json::from("event")),
                ("name", Json::from("net.worker.unit")),
                ("compute_s", Json::from(0.125)),
            ])],
        };
        let msg = Msg::Telemetry { worker_id: 5, stats: stats.clone() };
        let back = Msg::from_bytes(&msg.to_bytes()).expect("decodes");
        let Msg::Telemetry { worker_id, stats: got } = back else { panic!("wrong type") };
        assert_eq!(worker_id, 5);
        assert_eq!(got.unit, u64::MAX - 9, "unit must not pass through f64");
        assert_eq!(got.wall_s.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(got.compute_s.to_bits(), 1e-300f64.to_bits());
        assert_eq!(got, stats);

        // A telemetry frame missing its snapshots is malformed.
        assert!(Msg::from_bytes(br#"{"type":"telemetry","worker_id":1,"stats":{}}"#).is_err());
    }

    /// The v1→v2 additions are additive: a v2 decoder still reads a
    /// welcome without the `telemetry` flag (defaults to off), because
    /// mixed-version pairs only discover the mismatch *after* the
    /// welcome decodes.
    #[test]
    fn welcome_without_telemetry_flag_defaults_to_off() {
        let mut msg =
            Msg::Welcome { version: 1, worker_id: 0, telemetry: true, setup: setup() }.to_json();
        let Json::Obj(pairs) = &mut msg else { panic!("welcome is an object") };
        pairs.retain(|(k, _)| k != "telemetry");
        let back = Msg::from_json(&msg).expect("decodes");
        let Msg::Welcome { telemetry, .. } = back else { panic!("wrong type") };
        assert!(!telemetry, "absent flag must read as disabled");
    }

    #[test]
    fn results_roundtrip_bit_exactly_including_nan() {
        let comps = vec![
            (
                EvalComputation {
                    outcome: EvalOutcome::Valid { per_step_s: 0.1 + 0.2 },
                    machine_s: 12.345678901234567,
                    makespan_s: 0.30000000000000004,
                    comm_s: 1e-300,
                    num_transfers: 42,
                    peak_mem_utilization: 0.9999999999999999,
                },
                0.001,
            ),
            (
                EvalComputation {
                    outcome: EvalOutcome::Invalid {
                        oom: OomError {
                            device: 1,
                            required_bytes: u64::MAX - 1,
                            capacity_bytes: 17_179_869_184,
                        },
                    },
                    machine_s: 5.0,
                    makespan_s: f64::NAN,
                    comm_s: f64::NAN,
                    num_transfers: 0,
                    peak_mem_utilization: 1.25,
                },
                0.002,
            ),
        ];
        let msg = Msg::Results { unit: 9, comps: comps.clone() };
        let back = Msg::from_bytes(&msg.to_bytes()).expect("decodes");
        let Msg::Results { unit, comps: got } = back else { panic!("wrong type") };
        assert_eq!(unit, 9);
        assert_eq!(got.len(), comps.len());
        for ((c, w), (gc, gw)) in comps.iter().zip(&got) {
            assert_eq!(c.machine_s.to_bits(), gc.machine_s.to_bits());
            assert_eq!(c.makespan_s.to_bits(), gc.makespan_s.to_bits(), "NaN must survive");
            assert_eq!(c.comm_s.to_bits(), gc.comm_s.to_bits());
            assert_eq!(c.num_transfers, gc.num_transfers);
            assert_eq!(c.peak_mem_utilization.to_bits(), gc.peak_mem_utilization.to_bits());
            assert_eq!(w.to_bits(), gw.to_bits());
            match (&c.outcome, &gc.outcome) {
                (EvalOutcome::Valid { per_step_s: a }, EvalOutcome::Valid { per_step_s: b }) => {
                    assert_eq!(a.to_bits(), b.to_bits())
                }
                (EvalOutcome::Invalid { oom: a }, EvalOutcome::Invalid { oom: b }) => {
                    assert_eq!(a, b)
                }
                (a, b) => panic!("outcome kind changed: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn setup_roundtrips_with_full_seed_precision() {
        let s = setup();
        let back = EnvSetup::from_json(&s.to_json()).expect("decodes");
        assert_eq!(s, back);
        assert_eq!(back.seed, u64::MAX - 3, "seed must not pass through f64");
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(Msg::from_bytes(b"not json").is_err());
        assert!(Msg::from_bytes(b"{\"type\":\"warp\"}").is_err());
        assert!(Msg::from_bytes(b"{\"no_type\":1}").is_err());
        assert!(Msg::from_bytes(&[0xff, 0xfe]).is_err());
    }
}
