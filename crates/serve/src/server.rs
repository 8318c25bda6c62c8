//! The serve loop: placement-as-a-service over the mars-net framed
//! protocol.
//!
//! One accept loop, one handler thread per connection, one shared
//! [`PlacementEngine`] that the handlers call directly: the engine
//! synchronises itself (see its module docs) and this file holds no
//! lock around it, so a handler answering a cache hit never waits for
//! another handler's forward. Responses are byte-identical regardless
//! of arrival order because a ranking is a pure function of
//! `(graph, cluster, weights)` whichever tier or thread produced it,
//! and the answering tier never appears in the response bytes. A
//! response is written once: [`write_place_response`] renders it from
//! the engine's shared ranking into a buffer the connection keeps.
//!
//! Handshake: the client opens with [`Msg::Hello`]; the server rejects
//! a version mismatch with [`Msg::Error`] and otherwise echoes
//! `Hello { version: PROTOCOL_VERSION }`. Then any number of
//! [`Msg::PlaceRequest`]s, answered in arrival order per connection.
//! [`Msg::Shutdown`] is acknowledged with `Shutdown` and stops the
//! accept loop; handler threads drain until their clients hang up.

use crate::engine::{EngineStats, PlacementEngine};
use mars_net::msg::{write_place_response, Msg, PROTOCOL_VERSION};
use mars_net::transport::{recv_msg, send_msg, send_payload, Addr, Conn, Listener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop waits after a failed `accept` before trying
/// again. The usual failure is a full fd table (EMFILE) under a
/// connection flood, which only a handler's connection closing can
/// clear; retrying at once would spin on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Request-latency histogram bucket edges, seconds. Cache hits land in
/// the microsecond buckets, a graph's first forward in the millisecond
/// ones.
const LATENCY_EDGES: [f64; 11] = [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0];

/// Serve-loop options: none. Kept only because the benchmark's serve
/// workload (`ledger/src/serve.rs`) names it; it goes when that caller
/// does.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeOptions;

/// What the serve loop did, returned when it exits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Client connections accepted.
    pub connections: u64,
    /// Placement requests answered (excluding errors).
    pub requests: u64,
    /// Per-tier engine counts.
    pub engine: EngineStats,
}

struct Shared {
    engine: PlacementEngine,
    stop: AtomicBool,
    served: AtomicU64,
    /// Where the accept loop listens, for whoever stops it.
    listening_on: Option<Addr>,
}

impl Shared {
    /// Stop the accept loop. It blocks in `accept`, so the first caller
    /// wakes it with a connection, which the loop drops unanswered once
    /// it has seen the flag. If that connection cannot be made the loop
    /// stops at the next client's, or after its next failed `accept`.
    fn stop_accepting(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let woken = self.listening_on.as_ref().is_some_and(|addr| Conn::connect(addr).is_ok());
        if !woken {
            mars_telemetry::counter("serve.accept_wake_failed").inc();
        }
    }
}

/// Join the handlers whose connection has closed, so that a long-lived
/// daemon holds one handle per open connection and not one per
/// connection it ever accepted.
fn join_finished(handlers: &mut Vec<JoinHandle<()>>) {
    let (finished, open): (Vec<_>, Vec<_>) = handlers.drain(..).partition(JoinHandle::is_finished);
    *handlers = open;
    for h in finished {
        let _ = h.join();
    }
}

/// Run the serve loop on `listener` until a client sends
/// [`Msg::Shutdown`], then join every handler thread and report what
/// happened.
pub fn serve(listener: &Listener, engine: PlacementEngine, _opts: ServeOptions) -> ServeStats {
    let shared = Arc::new(Shared {
        engine,
        stop: AtomicBool::new(false),
        served: AtomicU64::new(0),
        listening_on: listener.local_addr().ok(),
    });
    let mut handlers = Vec::new();
    let mut connections = 0u64;
    loop {
        let accepted = listener.accept();
        // Only a handler sets `stop`, and it connects afterwards: what
        // was accepted is that wake-up, or a client too late to serve.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok(conn) => {
                connections += 1;
                mars_telemetry::counter("serve.connections").inc();
                join_finished(&mut handlers);
                let shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || handle_conn(conn, &shared)));
            }
            Err(e) => {
                // Keep serving: the connections already open still hold
                // clients, and the next accept may well succeed. A stop
                // requested meanwhile may have failed to wake us (its
                // connect needs a descriptor too), so look again.
                mars_telemetry::counter("serve.accept_errors").inc();
                mars_telemetry::event("serve.accept_error", &[("error", e.to_string().into())]);
                std::thread::sleep(ACCEPT_BACKOFF);
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    for h in handlers {
        let _ = h.join();
    }
    ServeStats {
        connections,
        requests: shared.served.load(Ordering::SeqCst),
        engine: shared.engine.stats(),
    }
}

/// Serve one connection to completion. Any protocol or request error
/// is answered with [`Msg::Error`] and closes the connection; a clean
/// client hang-up just returns.
fn handle_conn(mut conn: Conn, shared: &Shared) {
    // Handshake: client Hello in, server Hello (or version Error) out.
    match recv_msg(&mut conn) {
        Ok(Some(Msg::Hello { version })) if version == PROTOCOL_VERSION => {
            if send_msg(&mut conn, &Msg::Hello { version: PROTOCOL_VERSION }).is_err() {
                return;
            }
        }
        Ok(Some(Msg::Hello { version })) => {
            let message =
                format!("protocol version mismatch: client {version}, server {PROTOCOL_VERSION}");
            let _ = send_msg(&mut conn, &Msg::Error { message });
            return;
        }
        Ok(Some(_)) => {
            let _ = send_msg(
                &mut conn,
                &Msg::Error { message: "expected Hello as the first message".into() },
            );
            return;
        }
        Ok(None) | Err(_) => return,
    }

    // Every response of this connection is rendered into this buffer,
    // which stops growing at the longest one.
    let mut response = String::new();
    loop {
        let msg = match recv_msg(&mut conn) {
            Ok(Some(msg)) => msg,
            Ok(None) => return, // clean hang-up
            Err(_) => return,
        };
        match msg {
            Msg::PlaceRequest { unit, workload, profile, cluster, top_k } => {
                let _span = mars_telemetry::span("serve.request");
                let start = Instant::now();
                match shared.engine.place(&workload, &profile, &cluster) {
                    Ok(placed) => {
                        write_place_response(
                            &mut response,
                            unit,
                            placed.graph_fp,
                            placed.cluster_fp,
                            placed.weights_fp,
                            &placed.ranking,
                            top_k,
                        );
                        if send_payload(&mut conn, response.as_bytes()).is_err() {
                            return;
                        }
                        mars_telemetry::counter("serve.requests").inc();
                        mars_telemetry::histogram("serve.latency_s", &LATENCY_EDGES)
                            .observe(start.elapsed().as_secs_f64());
                        shared.served.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(message) => {
                        mars_telemetry::counter("serve.request_errors").inc();
                        let _ = send_msg(&mut conn, &Msg::Error { message });
                        return;
                    }
                }
            }
            Msg::Shutdown => {
                shared.stop_accepting();
                let _ = send_msg(&mut conn, &Msg::Shutdown);
                return;
            }
            other => {
                let message = format!("unexpected message in serve loop: {other:?}");
                let _ = send_msg(&mut conn, &Msg::Error { message });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_core::{Agent, AgentKind, MarsConfig};
    use mars_graph::features::FEATURE_DIM;
    use mars_net::transport::Addr;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_sim::Cluster;

    fn tiny_engine(seed: u64) -> PlacementEngine {
        let mut cfg = MarsConfig::small();
        cfg.encoder_hidden = 16;
        cfg.placer_hidden = 16;
        cfg.attn_dim = 8;
        cfg.segment_size = 16;
        cfg.num_groups = 4;
        cfg.dgi_iters = 10;
        let mut rng = StdRng::seed_from_u64(seed);
        let agent = Agent::new(AgentKind::Mars, cfg, FEATURE_DIM, 5, &mut rng);
        PlacementEngine::new(agent, 5, 32)
    }

    fn request(unit: u64, workload: &str, top_k: usize) -> Msg {
        Msg::PlaceRequest {
            unit,
            workload: workload.into(),
            profile: "reduced".into(),
            cluster: Cluster::p100_quad(),
            top_k,
        }
    }

    fn handshake(conn: &mut Conn) {
        send_msg(conn, &Msg::Hello { version: PROTOCOL_VERSION }).expect("hello");
        assert_eq!(
            recv_msg(conn).expect("hello back"),
            Some(Msg::Hello { version: PROTOCOL_VERSION })
        );
    }

    #[cfg(unix)]
    fn unix_listener(name: &str) -> (Listener, Addr) {
        let path = std::env::temp_dir()
            .join(format!("mars-serve-test-{}-{name}.sock", std::process::id()));
        let addr = Addr::Unix(path);
        (Listener::bind(&addr).expect("bind"), addr)
    }

    #[cfg(unix)]
    #[test]
    fn concurrent_clients_get_byte_identical_responses() {
        let (listener, addr) = unix_listener("concurrent");
        let server = std::thread::spawn(move || serve(&listener, tiny_engine(21), ServeOptions));

        let n = 4;
        let mut clients = Vec::new();
        for unit in 0..n {
            let addr = addr.clone();
            clients.push(std::thread::spawn(move || {
                let mut conn = Conn::connect(&addr).expect("connect");
                handshake(&mut conn);
                send_msg(&mut conn, &request(unit, "inception_v3", 5)).expect("send");
                let resp = recv_msg(&mut conn).expect("recv").expect("response");
                match resp {
                    Msg::PlaceResponse { unit: u, ranking, graph_fp, cluster_fp, weights_fp } => {
                        assert_eq!(u, unit, "unit echoed");
                        (ranking, graph_fp, cluster_fp, weights_fp)
                    }
                    other => panic!("unexpected response: {other:?}"),
                }
            }));
        }
        let answers: Vec<_> = clients.into_iter().map(|c| c.join().expect("join")).collect();
        for a in &answers[1..] {
            assert_eq!(a, &answers[0], "responses diverged across concurrent clients");
        }

        // Shutdown and inspect the tier split: one inference, rest cached.
        let mut conn = Conn::connect(&addr).expect("connect");
        handshake(&mut conn);
        send_msg(&mut conn, &Msg::Shutdown).expect("send shutdown");
        assert_eq!(recv_msg(&mut conn).expect("ack"), Some(Msg::Shutdown));
        drop(conn);
        let stats = server.join().expect("server join");
        assert_eq!(stats.requests, n);
        assert_eq!(stats.connections, n + 1, "the clients and the one that said Shutdown");
        assert_eq!(stats.engine.miss, 1, "identical requests deduplicate");
        assert_eq!(stats.engine.hot, n - 1);
        assert_eq!(stats.engine.forwards, 1);
    }

    #[test]
    fn finished_handlers_are_joined_and_open_ones_kept() {
        let (hang_up, open) = std::sync::mpsc::channel::<()>();
        let mut handlers: Vec<JoinHandle<()>> = (0..3).map(|_| std::thread::spawn(|| ())).collect();
        handlers.push(std::thread::spawn(move || open.recv().expect("hang up")));
        // The three have nothing to do; give them until they have done it.
        while handlers.iter().filter(|h| h.is_finished()).count() < 3 {
            std::thread::yield_now();
        }
        join_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "only the open connection's handle is kept");
        hang_up.send(()).expect("send");
        handlers.pop().expect("one left").join().expect("join");
    }

    #[cfg(unix)]
    #[test]
    fn top_k_truncates_and_version_mismatch_is_rejected() {
        let (listener, addr) = unix_listener("topk");
        let server = std::thread::spawn(move || serve(&listener, tiny_engine(22), ServeOptions));

        let mut conn = Conn::connect(&addr).expect("connect");
        handshake(&mut conn);
        let mut ask = |top_k: usize| {
            send_msg(&mut conn, &request(7, "vgg16", top_k)).expect("send");
            let Some(Msg::PlaceResponse { ranking, .. }) = recv_msg(&mut conn).expect("recv")
            else {
                panic!("expected a response");
            };
            ranking
        };
        let greedy = ask(1);
        assert!(greedy.iter().all(|row| row.len() == 1), "top_k=1 rows");
        let top3 = ask(3);
        assert!(top3.iter().all(|row| row.len() == 3), "top_k=3 rows");
        let full = ask(6);
        assert!(full.iter().all(|row| row.len() == 5), "a row ends at the last device");
        for ((g, t), f) in greedy.iter().zip(&top3).zip(&full) {
            assert_eq!((g[0], &t[..]), (t[0], &f[..3]), "a smaller top_k is a prefix");
        }
        assert_eq!(ask(0), greedy, "the greedy device is always reported");
        // Beyond 2^53 the JSON number is no longer exact; it reads as
        // every device, not as an absent `top_k` (greedy only).
        assert_eq!(ask(usize::MAX), full);
        send_msg(&mut conn, &Msg::Shutdown).expect("send shutdown");
        assert_eq!(recv_msg(&mut conn).expect("ack"), Some(Msg::Shutdown));
        drop(conn);
        let stats = server.join().expect("server join");
        assert_eq!((stats.requests, stats.connections), (5, 1), "the wake-up is not a client");

        // A stale-version client gets a clean error, and the daemon
        // keeps serving the next one.
        let (listener, addr) = unix_listener("version");
        let server = std::thread::spawn(move || serve(&listener, tiny_engine(22), ServeOptions));
        let mut conn = Conn::connect(&addr).expect("connect");
        send_msg(&mut conn, &Msg::Hello { version: PROTOCOL_VERSION + 1 }).expect("send");
        let Some(Msg::Error { message }) = recv_msg(&mut conn).expect("recv") else {
            panic!("expected a version error");
        };
        assert!(message.contains("version mismatch"), "unexpected error: {message}");
        drop(conn);
        let mut conn = Conn::connect(&addr).expect("connect");
        handshake(&mut conn);
        send_msg(&mut conn, &request(9, "vgg16", 1)).expect("send");
        let _ = recv_msg(&mut conn).expect("recv");
        send_msg(&mut conn, &Msg::Shutdown).expect("send shutdown");
        assert_eq!(recv_msg(&mut conn).expect("ack"), Some(Msg::Shutdown));
        drop(conn);
        let stats = server.join().expect("server join");
        assert_eq!((stats.requests, stats.connections), (1, 2));
    }
}
