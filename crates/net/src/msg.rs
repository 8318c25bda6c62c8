//! Serving protocol messages: typed views over mars-json payloads.
//!
//! # Message flow
//!
//! ```text
//! client                        serve
//!   | -- Hello{version} -------> |
//!   | <- Hello{version} -------- |   (Error on a version mismatch)
//!   | -- PlaceRequest{unit..} -> |   (repeated, answered in order)
//!   | <- PlaceResponse{unit..} - |
//!   | -- Shutdown -------------> |   (optional: stops the daemon)
//!   | <- Shutdown -------------- |
//! ```
//!
//! Request ids and fingerprints are 64-bit integers, which a JSON
//! number (an `f64`) cannot carry; each crosses the wire as the
//! 16-digit hex string of its bits.

use mars_json::Json;
use mars_sim::Cluster;
use std::fmt::Write as _;

/// Protocol version; bumped on any wire-visible change. A client and
/// server with different versions refuse to talk.
/// v2: fleet telemetry frames (retired with the rollout fleet).
/// v3: `PlaceRequest`/`PlaceResponse` serving messages (additive:
/// `PlaceRequest.top_k` decodes as 1 when absent).
pub const PROTOCOL_VERSION: u32 = 3;

/// Encode a `u64` as a hex string.
fn u64_to_wire(x: u64) -> Json {
    Json::from(format!("{x:016x}"))
}

/// Decode a `u64` from its hex string.
fn u64_from_wire(j: Option<&Json>, field: &str) -> Result<u64, String> {
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
/// [`Msg::to_bytes`] goes through it, and the bytes equal the printed
/// `Json` tree of the response over the truncated ranking (the property
/// test below).
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

/// `PlaceRequest.top_k`: absent reads as 1 (greedy placement only; the
/// field is a v3 addition), a non-negative integer as itself, and one
/// above 2^53 — where JSON numbers stop being exact, so `usize::MAX`
/// lands there — as `usize::MAX` (every device). Anything else is
/// malformed.
fn top_k_field(j: &Json) -> Result<usize, String> {
    let Some(v) = j.get("top_k") else { return Ok(1) };
    match v.as_f64() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(v.as_usize().unwrap_or(usize::MAX)),
        _ => Err(format!("'top_k' must be a non-negative integer, got {v}")),
    }
}

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Client → serve greeting; the server answers with its own.
    Hello {
        /// The sender's [`PROTOCOL_VERSION`].
        version: u32,
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
    /// Client → serve: stop accepting connections; the server
    /// acknowledges with the same message.
    Shutdown,
    /// Either direction: fatal protocol-level failure.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Msg {
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
                    top_k: top_k_field(j)?,
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

    /// Serialize to the frame payload bytes: compact JSON, which for a
    /// `PlaceResponse` is written directly by [`write_place_response`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let json = match self {
            Msg::Hello { version } => {
                Json::obj([("type", Json::from("hello")), ("version", Json::from(*version as f64))])
            }
            Msg::PlaceRequest { unit, workload, profile, cluster, top_k } => Json::obj([
                ("type", Json::from("place_request")),
                ("unit", u64_to_wire(*unit)),
                ("workload", Json::from(workload.as_str())),
                ("profile", Json::from(profile.as_str())),
                ("cluster", cluster.to_json_value()),
                ("top_k", Json::from(*top_k as f64)),
            ]),
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
                return out.into_bytes();
            }
            Msg::Shutdown => Json::obj([("type", Json::from("shutdown"))]),
            Msg::Error { message } => Json::obj([
                ("type", Json::from("error")),
                ("message", Json::from(message.as_str())),
            ]),
        };
        json.to_string().into_bytes()
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

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Msg::Hello { version: PROTOCOL_VERSION });
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

    /// The `Json` tree of a `PlaceResponse`, field by field: what
    /// [`write_place_response`] must print.
    fn place_response_json(
        unit: u64,
        graph_fp: u64,
        cluster_fp: u64,
        weights_fp: u64,
        ranking: &[Vec<usize>],
    ) -> Json {
        Json::obj([
            ("type", Json::from("place_response")),
            ("unit", u64_to_wire(unit)),
            ("graph_fp", u64_to_wire(graph_fp)),
            ("cluster_fp", u64_to_wire(cluster_fp)),
            ("weights_fp", u64_to_wire(weights_fp)),
            (
                "ranking",
                Json::arr(
                    ranking.iter().map(|p| Json::arr(p.iter().map(|&d| Json::from(d as f64)))),
                ),
            ),
        ])
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
                let tree = place_response_json(unit, graph_fp, cluster_fp, weights_fp, &truncated);
                write_place_response(
                    &mut out, unit, graph_fp, cluster_fp, weights_fp, &ranking, top_k,
                );
                assert_eq!(out, tree.to_string(), "top_k {top_k}");
                let msg =
                    Msg::PlaceResponse { unit, graph_fp, cluster_fp, weights_fp, ranking: truncated };
                assert_eq!(msg.to_bytes(), out.as_bytes(), "to_bytes uses the same encoder");
            }
        }
    }

    /// The v2→v3 addition is additive inside `place_request` too: a
    /// request without `top_k` (an early v3 client) decodes as a
    /// greedy-only query instead of failing. A present `top_k` must be a
    /// non-negative integer; one past 2^53 asks for every device.
    #[test]
    fn place_request_without_top_k_defaults_to_greedy() {
        let with_top_k = |top_k: Option<Json>| {
            let bytes = Msg::PlaceRequest {
                unit: 1,
                workload: "vgg16".into(),
                profile: "paper".into(),
                cluster: mars_sim::Cluster::p100_quad(),
                top_k: 5,
            }
            .to_bytes();
            let mut msg = Json::parse(std::str::from_utf8(&bytes).expect("UTF-8")).expect("JSON");
            let Json::Obj(pairs) = &mut msg else { panic!("place_request is an object") };
            pairs.retain(|(k, _)| k != "top_k");
            pairs.extend(top_k.map(|v| ("top_k".to_string(), v)));
            Msg::from_bytes(msg.to_string().as_bytes()).map(|back| match back {
                Msg::PlaceRequest { top_k, .. } => top_k,
                other => panic!("wrong type: {other:?}"),
            })
        };
        assert_eq!(with_top_k(None), Ok(1), "absent top_k must read as greedy-only");
        assert_eq!(with_top_k(Some(Json::from(3u64))), Ok(3));
        assert_eq!(with_top_k(Some(Json::from(1u64 << 53))), Ok(1 << 53));
        assert_eq!(with_top_k(Some(Json::from(usize::MAX))), Ok(usize::MAX));
        for bad in [Json::from(-3i64), Json::from(2.5), Json::from("x"), Json::Null] {
            let err = with_top_k(Some(bad.clone())).expect_err("malformed top_k is refused");
            assert!(err.contains("top_k"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        assert!(Msg::from_bytes(b"not json").is_err());
        assert!(Msg::from_bytes(b"{\"type\":\"warp\"}").is_err());
        assert!(Msg::from_bytes(b"{\"no_type\":1}").is_err());
        // The retired fleet messages are unknown types like any other.
        for retired in ["welcome", "work", "results", "telemetry"] {
            let payload = format!("{{\"type\":\"{retired}\"}}");
            let err = Msg::from_bytes(payload.as_bytes()).expect_err(retired);
            assert!(err.contains("unknown message type"), "{err}");
        }
        assert!(Msg::from_bytes(&[0xff, 0xfe]).is_err());
    }
}
