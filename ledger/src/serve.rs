//! The two serving workloads: the real daemon (`mars_serve::serve` on
//! a loopback listener) under two closed-loop clients. `serve_hot`
//! asks only for the 32 primed keys; `serve_mixed` attaches a warm
//! store and sends one request in ten for a cluster never seen before.
//!
//! Closed loop, because a placement caller waits for its answer before
//! it can do anything else: each client has one connection and one
//! request outstanding.

use crate::report::{median, median_of, tail, Run};
use crate::trace::{counter, peak_rss_mb, Rollup};
use crate::Opts;
use mars_core::{Agent, AgentKind, MarsConfig, PolicyInference, WorkloadInput};
use mars_graph::features::FEATURE_DIM;
use mars_graph::generators::{Profile, Workload};
use mars_net::msg::{Msg, PROTOCOL_VERSION};
use mars_net::transport::{recv_msg, send_msg, Addr, Conn, Listener};
use mars_rng::rngs::StdRng;
use mars_rng::{Rng, SeedableRng};
use mars_serve::{
    cluster_fingerprint, serve, PlacementEngine, PlacementStore, ServeOptions, ServeStats,
};
use mars_sim::{Cluster, LinkSpec};
use mars_telemetry::enable_spans;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const PROFILE: &str = "reduced";
const TOP_K: usize = 5;
const CLIENTS: u64 = 2;
/// The daemon's default hot-tier capacity (`mars-cli serve`).
const HOT_CAPACITY: usize = 256;
/// Share of `serve_mixed` requests that name a never-seen cluster.
const MISS_SHARE: f64 = 0.10;
/// One miss in this many is replayed through the reference engine.
const REPLAY_EVERY: u64 = 50;
/// Peak RSS is read once this many answers per `--seconds` have come in
/// the window: well under half of what the reference box delivers.
const RSS_AT_HOT_PER_S: f64 = 8000.0;
const RSS_AT_MIXED_PER_S: f64 = 2000.0;
/// The served model is part of the system, not of the input: its
/// weights come from a fixed seed, the requests from `--seed`.
const WEIGHTS_SEED: u64 = 0x6d61_7273;

fn agent() -> Agent {
    let mut rng = StdRng::seed_from_u64(WEIGHTS_SEED);
    let devices = Cluster::p100_quad().num_devices();
    Agent::new(AgentKind::Mars, MarsConfig::small(), FEATURE_DIM, devices, &mut rng)
}

fn engine() -> PlacementEngine {
    PlacementEngine::new(agent(), Cluster::p100_quad().num_devices(), HOT_CAPACITY)
}

fn request(unit: u64, workload: Workload, cluster: Cluster) -> Msg {
    Msg::PlaceRequest {
        unit,
        workload: workload.name().into(),
        profile: PROFILE.into(),
        cluster,
        top_k: TOP_K,
    }
}

/// A cluster no request has named before, with overwhelming
/// probability: the GPU 1 → GPU 2 link gets a drawn bandwidth.
fn unseen_cluster(rng: &mut StdRng) -> Cluster {
    let mut cluster = Cluster::p100_quad();
    let pcie = LinkSpec::pcie();
    let bandwidth_bps = pcie.bandwidth_bps * (1.0 + rng.gen::<f64>());
    cluster.set_link(1, 2, LinkSpec { bandwidth_bps, ..pcie });
    cluster
}

/// One key of the working set with the answer the reference engine
/// gave for it: what every response for this key must equal.
struct Key {
    workload: Workload,
    cluster: Cluster,
    graph_fp: u64,
    cluster_fp: u64,
    ranking: Vec<Vec<usize>>,
}

fn top_k(ranking: &[Vec<usize>]) -> Vec<Vec<usize>> {
    ranking.iter().map(|row| row.iter().copied().take(TOP_K).collect()).collect()
}

/// Eight workloads × {healthy cluster, GPU 1, 2 or 3 failed}.
fn working_set(reference: &mut PlacementEngine) -> Result<Vec<Key>, String> {
    let mut keys = Vec::new();
    for failed in [None, Some(1), Some(2), Some(3)] {
        for workload in Workload::ALL {
            let mut cluster = Cluster::p100_quad();
            if let Some(gpu) = failed {
                cluster.fail_device(gpu);
            }
            let placed = reference.place(workload.name(), PROFILE, &cluster)?;
            keys.push(Key {
                workload,
                cluster,
                graph_fp: placed.graph_fp,
                cluster_fp: placed.cluster_fp,
                ranking: top_k(&placed.ranking),
            });
        }
    }
    Ok(keys)
}

struct Daemon {
    addr: Addr,
    thread: JoinHandle<ServeStats>,
}

fn start_daemon(store: Option<&Path>) -> Result<Daemon, String> {
    let mut engine = engine();
    if let Some(path) = store {
        engine.attach_store(path).map_err(|e| format!("attach store: {e}"))?;
    }
    let listener =
        Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let thread = std::thread::spawn(move || serve(&listener, engine, ServeOptions::default()));
    Ok(Daemon { addr, thread })
}

fn connect(addr: &Addr) -> Result<Conn, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    send_msg(&mut conn, &Msg::Hello { version: PROTOCOL_VERSION })?;
    match recv_msg(&mut conn)? {
        Some(Msg::Hello { version: PROTOCOL_VERSION }) => Ok(conn),
        other => Err(format!("handshake answered {other:?}")),
    }
}

/// Ask the daemon to stop and wait for it; every client connection
/// must be closed first, since `serve` joins its handlers.
fn stop_daemon(daemon: Daemon) -> Result<ServeStats, String> {
    let mut conn = connect(&daemon.addr)?;
    send_msg(&mut conn, &Msg::Shutdown)?;
    let ack = recv_msg(&mut conn)?;
    drop(conn);
    let stats = daemon.thread.join().map_err(|_| "the daemon panicked".to_string())?;
    if ack == Some(Msg::Shutdown) {
        Ok(stats)
    } else {
        Err(format!("shutdown answered {ack:?}"))
    }
}

struct Client {
    id: u64,
    conn: Conn,
    rng: StdRng,
    sent: u64,
}

/// A miss kept for replay through the reference engine.
struct Replay {
    workload: Workload,
    cluster: Cluster,
    ranking: Vec<Vec<usize>>,
}

/// Rate and tail are computed per slice of the window, about this long.
const SLICE: Duration = Duration::from_secs(1);

#[derive(Default)]
struct Tally {
    /// Latencies by the slice of the window in which the answer came;
    /// one more at the end holds answers that came after the window.
    slices: Vec<Vec<f64>>,
    /// Responses per second over the whole window.
    rate: f64,
    attempted: u64,
    failed: u64,
    misses: u64,
    send_busy: Duration,
    recv_wait: Duration,
    replays: Vec<Replay>,
    end: Option<Instant>,
}

impl Tally {
    fn answered(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }
}

/// A well-formed ranking: one row per op, `TOP_K` distinct devices each.
fn well_formed(ranking: &[Vec<usize>], rows: usize, devices: usize) -> bool {
    ranking.len() == rows
        && ranking.iter().all(|row| {
            row.len() == TOP_K.min(devices)
                && row.iter().all(|&d| d < devices)
                && row.iter().enumerate().all(|(i, d)| !row[..i].contains(d))
        })
}

/// Answers counted across the clients, and peak RSS read when the
/// count reaches `rss_at`. A window lasts a fixed time, so a faster
/// daemon answers more requests in it and, with a store that keeps
/// every miss, uses more memory by the end; memory after a fixed number
/// of requests is what two commits can be compared on.
struct Progress {
    answered: AtomicU64,
    rss_at: u64,
    rss_mb_bits: AtomicU64,
}

/// Send requests one at a time for `slices` slices of `slice` from
/// `start`, checking every answer.
fn drive(
    client: &mut Client,
    keys: &[Key],
    weights_fp: u64,
    (start, slice, slices): (Instant, Duration, usize),
    miss_share: f64,
    progress: &Progress,
) -> Tally {
    let mut tally = Tally { slices: vec![Vec::new(); slices + 1], ..Tally::default() };
    let devices = Cluster::p100_quad().num_devices();
    let until = start + slice * slices as u32;
    while Instant::now() < until {
        let key = &keys[client.rng.gen_range(0..keys.len())];
        let miss = miss_share > 0.0 && client.rng.gen::<f64>() < miss_share;
        let cluster = if miss { unseen_cluster(&mut client.rng) } else { key.cluster.clone() };
        let unit = (client.id << 48) | client.sent;
        client.sent += 1;
        let msg = request(unit, key.workload, cluster);

        tally.attempted += 1;
        let t0 = Instant::now();
        let sent = send_msg(&mut client.conn, &msg);
        let t1 = Instant::now();
        let answer = sent.and_then(|()| recv_msg(&mut client.conn));
        let t2 = Instant::now();
        tally.send_busy += t1 - t0;
        tally.recv_wait += t2 - t1;

        let Ok(Some(Msg::PlaceResponse {
            unit: echoed,
            graph_fp,
            cluster_fp,
            weights_fp: w,
            ranking,
        })) = answer
        else {
            // Refused, errored or hung up: the daemon closes the
            // connection after an error, so this client is done.
            tally.failed += 1;
            break;
        };
        let k = ((t2 - start).as_secs_f64() / slice.as_secs_f64()) as usize;
        tally.slices[k.min(slices)].push((t2 - t0).as_secs_f64() * 1e3);
        if progress.answered.fetch_add(1, Ordering::Relaxed) + 1 == progress.rss_at {
            progress.rss_mb_bits.store(peak_rss_mb().to_bits(), Ordering::Relaxed);
        }
        let Msg::PlaceRequest { cluster, .. } = msg else { unreachable!() };
        let ok = echoed == unit
            && w == weights_fp
            && graph_fp == key.graph_fp
            && if miss {
                cluster_fp == cluster_fingerprint(&cluster)
                    && well_formed(&ranking, key.ranking.len(), devices)
            } else {
                cluster_fp == key.cluster_fp && ranking == key.ranking
            };
        tally.failed += u64::from(!ok);
        if miss {
            if tally.misses.is_multiple_of(REPLAY_EVERY) {
                tally.replays.push(Replay { workload: key.workload, cluster, ranking });
            }
            tally.misses += 1;
        }
    }
    tally.end = Some(Instant::now());
    tally
}

/// Run every client for `window`, cut into whole slices of about
/// `SLICE`; returns the clients' tallies merged slice by slice, and
/// peak RSS as it was after `rss_at` answers, if that many came.
fn closed_loop(
    clients: &mut [Client],
    keys: &Arc<Vec<Key>>,
    weights_fp: u64,
    window: Duration,
    miss_share: f64,
    rss_at: u64,
) -> (Tally, Option<f64>) {
    let progress = Progress { answered: AtomicU64::new(0), rss_at, rss_mb_bits: AtomicU64::new(0) };
    let progress = &progress;
    let slices = ((window.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
    let plan = (Instant::now(), window / slices as u32, slices);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| s.spawn(move || drive(c, keys, weights_fp, plan, miss_share, progress)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let mut all = Tally { slices: vec![Vec::new(); slices + 1], ..Tally::default() };
    let mut end = plan.0;
    for t in tallies {
        for (merged, slice) in all.slices.iter_mut().zip(t.slices) {
            merged.extend(slice);
        }
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.misses += t.misses;
        all.send_busy += t.send_busy;
        all.recv_wait += t.recv_wait;
        all.replays.extend(t.replays);
        end = end.max(t.end.expect("drive sets its end"));
    }
    all.rate = all.answered() as f64 / (end - plan.0).as_secs_f64();
    let rss_mb = progress.rss_mb_bits.load(Ordering::Relaxed);
    (all, (rss_mb != 0).then(|| f64::from_bits(rss_mb)))
}

/// A directory for the warm store, beside the executable: inside the
/// build directory, so the ledger writes nothing outside it.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join(format!("ledger-tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

pub fn serve_hot(o: &Opts) -> Run {
    run_serve(o, 0.0)
}

pub fn serve_mixed(o: &Opts) -> Run {
    run_serve(o, MISS_SHARE)
}

fn run_serve(o: &Opts, miss_share: f64) -> Run {
    let mut run = Run::default();
    let outcome = scratch_dir().and_then(|dir| {
        let outcome = measure(o, miss_share, &dir, &mut run);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    });
    if let Err(e) = outcome {
        run.errors.push(e);
    }
    run
}

/// Set-up as an operator and a caller see it: start the daemon,
/// connect, shake hands, prime the working set, connect the clients.
fn set_up(
    o: &Opts,
    keys: &[Key],
    store: Option<&Path>,
    run: &mut Run,
) -> Result<(Daemon, Vec<Client>, f64), String> {
    let t0 = Instant::now();
    let daemon = start_daemon(store)?;
    let mut prime = connect(&daemon.addr)?;
    for (i, key) in keys.iter().enumerate() {
        send_msg(&mut prime, &request(i as u64, key.workload, key.cluster.clone()))?;
        let primed = matches!(
            recv_msg(&mut prime)?,
            Some(Msg::PlaceResponse { ranking, .. }) if ranking == key.ranking
        );
        run.check(primed, || format!("priming key {i} did not match the reference"));
    }
    drop(prime);
    let clients = (0..CLIENTS)
        .map(|id| {
            let rng = StdRng::seed_from_u64(o.seed.wrapping_mul(CLIENTS).wrapping_add(id));
            Ok(Client { id, conn: connect(&daemon.addr)?, rng, sent: 0 })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((daemon, clients, t0.elapsed().as_secs_f64()))
}

fn measure(o: &Opts, miss_share: f64, scratch: &Path, run: &mut Run) -> Result<(), String> {
    let mixed = miss_share > 0.0;
    let mut reference = engine();
    let weights_fp = reference.weights_fp();
    let keys = Arc::new(working_set(&mut reference)?);
    let store = |rep: usize| mixed.then(|| scratch.join(format!("store-{rep}.jsonl")));

    let (daemon, mut clients, first_setup_s) = set_up(o, &keys, store(0).as_deref(), run)?;

    // Warm-up with spans off; in a traced run its rate is also the
    // untraced reference for `trace.overhead_ratio`.
    let warm_up = Duration::from_secs_f64(if o.smoke { 0.1 } else { 1.0 });
    let (warm, _) = closed_loop(&mut clients, &keys, weights_fp, warm_up, miss_share, u64::MAX);

    enable_spans(o.traced);
    let counters =
        ["serve.cache.hot", "serve.cache.warm", "serve.cache.miss", "net.bytes_tx", "net.bytes_rx"];
    let before = counters.map(counter);
    let window = Duration::from_secs_f64(o.seconds);
    let rss_at = (o.seconds * if mixed { RSS_AT_MIXED_PER_S } else { RSS_AT_HOT_PER_S }) as u64;
    let (mut tally, rss_mb) =
        closed_loop(&mut clients, &keys, weights_fp, window, miss_share, rss_at.max(1));
    let [hot, warm_hits, miss, bytes_tx, bytes_rx] = {
        let after = counters.map(counter);
        std::array::from_fn(|i| (after[i] - before[i]) as f64)
    };
    enable_spans(false);
    let spans = Rollup::capture();

    drop(clients);
    let stats = stop_daemon(daemon)?;
    let answered = keys.len() + warm.answered() + tally.answered();
    run.check(warm.failed + tally.failed > 0 || stats.requests as usize == answered, || {
        format!("the daemon counted {} requests, the clients {answered} answers", stats.requests)
    });

    // Replay a sample of the misses: the daemon's cold answers must be
    // the reference engine's.
    let replays = std::mem::take(&mut tally.replays);
    let replayed = replays.len();
    for r in replays {
        let same = reference
            .place(r.workload.name(), PROFILE, &r.cluster)
            .is_ok_and(|p| top_k(&p.ranking) == r.ranking);
        tally.failed += u64::from(!same);
    }
    // Peak RSS belongs to one set-up and a fixed number of requests;
    // the set-ups repeated below for a steady `setup_s` would only add
    // allocator noise.
    run.set("peak_rss_mb", rss_mb.unwrap_or_else(peak_rss_mb));
    run.note(
        "peak_rss_after",
        match rss_mb {
            Some(_) => format!("{rss_at} answers in the window"),
            None => format!("the whole run; {rss_at} answers never came"),
        },
    );
    let mut setup_s = vec![first_setup_s];
    for rep in 1..o.setup_reps() {
        let (daemon, clients, s) = set_up(o, &keys, store(rep).as_deref(), run)?;
        drop(clients);
        stop_daemon(daemon)?;
        setup_s.push(s);
    }
    run.set("setup_s", median(&setup_s));

    run.attempted = tally.attempted;
    run.failed = tally.failed + warm.failed;
    run.check(tally.answered() > 0, || "no request was answered".into());
    if tally.answered() == 0 {
        return Ok(());
    }
    let hit_ratio = hot / (hot + warm_hits + miss).max(1.0);
    if mixed {
        // The draw is Bernoulli(MISS_SHARE) per request: allow four
        // standard deviations around it.
        let slack = 4.0 * (MISS_SHARE * (1.0 - MISS_SHARE) / tally.answered() as f64).sqrt();
        run.check((1.0 - hit_ratio - MISS_SHARE).abs() <= slack, || {
            format!("hit ratio {hit_ratio:.4} is not {:.2} ± {slack:.4}", 1.0 - MISS_SHARE)
        });
    } else {
        run.check(miss == 0.0, || format!("{miss} requests of the hot workload went cold"));
    }

    // Rate and tail are taken per slice of the window and the median
    // slice reported: one second in which the box was busy with
    // something else moves one slice, not the result.
    let n = tally.slices.len() - 1;
    let slice_s = window.as_secs_f64() / n as f64;
    let all: Vec<f64> = tally.slices.concat();
    let slices = &mut tally.slices[..n];
    run.check(slices.iter().all(|s| !s.is_empty()), || "a slice of the window is empty".into());
    let rates: Vec<f64> = slices.iter().map(|s| s.len() as f64 / slice_s).collect();
    let tails: Vec<(f64, f64)> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.sort_by(f64::total_cmp);
            tail(s)
        })
        .collect();
    let Some(&(_, tail_pct)) = tails.first() else { return Ok(()) };
    let tails: Vec<f64> = tails.iter().map(|t| t.0).collect();
    run.set("ops_per_s", median(&rates));
    run.set("op_p50_ms", median(&all));
    run.set("op_tail_ms", median(&tails));
    run.note("op", "one placement request, send to receive, closed loop");
    run.note("clients", CLIENTS);
    run.note("op_samples", format!("{} in {n} slices of {slice_s} s", all.len()));
    run.note("op_tail_percentile", format!("p{tail_pct:.1} of each slice, median slice"));
    run.note("whole_window_ops_per_s", format!("{:.1}", tally.rate));
    let per_slice = |v: Vec<f64>| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    run.note("slice_ops_per_s", per_slice(rates));
    run.note("slice_tail_ms", per_slice(tails));
    run.note("misses_replayed", format!("{replayed} of {}", tally.misses));

    run.set("net.client.send.busy_s", tally.send_busy.as_secs_f64());
    run.set("net.client.recv.wait_s", tally.recv_wait.as_secs_f64());
    run.set("net.bytes_tx", bytes_tx);
    run.set("net.bytes_rx", bytes_rx);
    run.set("serve.tier.hot", hot);
    run.set("serve.tier.miss", miss);
    run.set("serve.hit_ratio", hit_ratio);
    run.set("serve.failed", run.failed as f64);
    if o.traced {
        spans.report(run);
        run.set("trace.overhead_ratio", warm.rate / tally.rate);
        if mixed {
            let cold_s: f64 = ["core.", "nn.", "tensor.", "autograd."]
                .map(|l| spans.layer_self_s(l))
                .iter()
                .sum();
            let engine_s = spans.self_s("serve.engine.place") + cold_s;
            run.note(
                "cold_inference_share_of_engine_time",
                format!("{:.1}%", 100.0 * cold_s / engine_s.max(1e-12)),
            );
        }
        direct_calls(run, &keys, &mut reference, scratch)?;
    }
    Ok(())
}

/// Per-layer costs measured by calling each layer directly, outside
/// the daemon and with spans off: what one call costs with no queue,
/// no socket and no other thread.
fn direct_calls(
    run: &mut Run,
    keys: &[Key],
    reference: &mut PlacementEngine,
    scratch: &Path,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(WEIGHTS_SEED);
    let mut failed = false;

    let t0 = Instant::now();
    let inputs: Vec<WorkloadInput> = Workload::ALL
        .iter()
        .map(|w| WorkloadInput::from_graph(&w.build(Profile::Reduced)))
        .collect();
    run.set("graph.build.ms", t0.elapsed().as_secs_f64() * 1e3);

    let agent = agent();
    let mut infer = PolicyInference::new();
    run.set(
        "core.infer.rank.ms",
        median_of(3 * inputs.len(), 1e3, |i| {
            std::hint::black_box(infer.rank_placements(&agent, &inputs[i % inputs.len()]));
        }),
    );

    let key = &keys[0];
    let ask = request(0, key.workload, key.cluster.clone());
    let answer = Msg::PlaceResponse {
        unit: 0,
        graph_fp: key.graph_fp,
        cluster_fp: key.cluster_fp,
        weights_fp: reference.weights_fp(),
        ranking: key.ranking.clone(),
    };
    let (mut a, mut b) = Conn::pair().map_err(|e| format!("socket pair: {e}"))?;
    for (metric, msg) in [("net.codec.request.us", &ask), ("net.codec.response.us", &answer)] {
        let us = median_of(200, 1e6, |_| {
            let back = send_msg(&mut a, msg).and_then(|()| recv_msg(&mut b));
            failed |= back.as_ref().ok().and_then(Option::as_ref) != Some(msg);
        });
        run.set(metric, us);
    }

    run.set(
        "serve.engine.place_hot.us",
        median_of(200, 1e6, |i| {
            let key = &keys[i % keys.len()];
            failed |= reference.place(key.workload.name(), PROFILE, &key.cluster).is_err();
        }),
    );
    run.set(
        "serve.engine.place_cold.us",
        median_of(3 * Workload::ALL.len(), 1e6, |i| {
            let workload = Workload::ALL[i % Workload::ALL.len()];
            let cluster = unseen_cluster(&mut rng);
            failed |= reference.place(workload.name(), PROFILE, &cluster).is_err();
        }),
    );

    let mut store = PlacementStore::open(scratch.join("direct.jsonl"), reference.weights_fp())
        .map_err(|e| format!("open store: {e}"))?;
    let ranking = Arc::new(key.ranking.clone());
    run.set(
        "serve.store.append.us",
        median_of(50, 1e6, |i| {
            let appended = store.append(
                (key.graph_fp, i as u64),
                key.workload.name(),
                PROFILE,
                ranking.clone(),
            );
            failed |= appended.is_err();
        }),
    );
    run.check(!failed, || "a direct call into net, serve or the store failed".into());
    Ok(())
}
