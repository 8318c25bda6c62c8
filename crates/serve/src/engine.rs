//! The tiered placement engine: hot LRU → warm store → the graph's memo.
//!
//! [`PlacementEngine::place`] answers one query and reports which tier
//! answered it. The tier is telemetry only — it never appears in the
//! response bytes, and all three tiers return the identical ranking
//! for the same `(graph, cluster, weights)` triple: the forward is
//! bit-deterministic (`mars_core::infer` parity tests), the hot tier
//! stores exactly what it produced, and the warm tier is filtered to
//! this engine's weights fingerprint on load.
//!
//! **One forward per graph.** The policy reads the computation graph
//! and nothing else: [`PolicyInference::rank_placements`] takes the
//! agent and a [`WorkloadInput`], no cluster. So the forward's answer
//! is remembered where its only argument lives — on the graph's entry,
//! one per `(workload, profile)` recipe, a closed set that needs no
//! eviction — and a key found in neither tier whose graph has been
//! answered is *landed* (hot insert, store line) under the one lock
//! acquisition that looked it up: no flight, no tape. `forward()` below
//! is the only caller of the policy and its result goes only into that
//! memo, so a policy that starts reading the cluster changes that one
//! call's signature, and the re-keying is decided there.
//!
//! **Locking.** The engine synchronises itself; callers share it by
//! reference. One short mutex guards the mutable state — both cache
//! tiers, the graph entries with their memos and flights, the counts —
//! and every critical section is a handful of map operations (plus, on
//! a landing, one line written to the store). The agent and its weights
//! fingerprint are read-only after construction and sit outside it. No
//! lock is held while a forward runs, so a hit never waits for someone
//! else's forward, and first forwards of different graphs run side by
//! side, each on an inference tape of its own.
//!
//! **Single flight, per graph.** The first request to need a graph's
//! answer marks the entry in flight before it unlocks and runs the
//! forward. Requests for that graph that find their key in neither tier
//! meanwhile run nothing: they wait for the leader, then look again —
//! the key is hot by then if an identical request landed it first
//! (counted `hot` and `coalesced`), and is landed from the memo if not
//! (counted `miss`, like the leader's own). The leader files its result
//! from a drop guard, so a forward that panics takes down its own
//! request only: the waiters get an `Err`, the memo stays empty, and no
//! lock was held where the panic happened.

use crate::cache::PlacementCache;
use crate::fingerprint::{cluster_fingerprint, graph_fingerprint};
use crate::store::PlacementStore;
use mars_core::{Agent, PolicyInference, WorkloadInput};
use mars_graph::generators::{Profile, Workload};
use mars_sim::Cluster;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A full per-op device ranking, shared between the graph memo, the
/// cache tiers and in-flight responses without copying.
pub type Ranking = Arc<Vec<Vec<usize>>>;

/// Which tier answered a query. Telemetry/stats only — responses are
/// byte-identical regardless of tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// In-memory LRU hit, including one on a key that an identical
    /// request landed while this one waited for the graph's forward.
    Hot,
    /// Persistent-store hit (promoted to hot).
    Warm,
    /// The key was in neither tier and was landed now (inserted into
    /// hot + store) from the graph's memo; only a graph's first such
    /// request runs the forward that fills it.
    Cold,
}

/// Per-tier answer counts since engine construction.
/// `hot + warm + miss` is the number of queries answered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered from the in-memory LRU.
    pub hot: u64,
    /// Queries answered from the persistent store.
    pub warm: u64,
    /// Queries whose key was in neither tier and was landed now.
    pub miss: u64,
    /// The share of `hot` that had waited for the graph's forward and
    /// found the key landed by an identical request.
    pub coalesced: u64,
    /// Policy forwards started: at most one per `(workload, profile)`
    /// recipe ever asked, unless one died.
    pub forwards: u64,
}

/// What the policy has said about one graph.
enum Memo {
    /// Nothing: no forward has run, or every one that ran died.
    Empty,
    /// A forward is running; requests that need its answer wait here.
    InFlight(Arc<Flight>),
    /// The forward's answer, for every cluster of this graph.
    Known(Ranking),
}

struct GraphEntry {
    graph_fp: u64,
    /// Shared, so that a forward reads its input after unlocking.
    input: Arc<WorkloadInput>,
    memo: Memo,
}

/// One answered query: the ranking plus everything a
/// [`Msg::PlaceResponse`](mars_net::msg::Msg) needs to echo back.
#[derive(Clone, Debug)]
pub struct Placed {
    /// Full per-op device ranking (untruncated).
    pub ranking: Ranking,
    /// Which tier answered (telemetry only).
    pub tier: Tier,
    /// Graph half of the cache key.
    pub graph_fp: u64,
    /// Cluster half of the cache key.
    pub cluster_fp: u64,
    /// Fingerprint of the weights that produced the ranking.
    pub weights_fp: u64,
}

/// Lock a mutex of this module, recovering the guard if a holder
/// panicked. That is sound here because no critical section can be
/// left half-done: each is a few map operations on owned values, and
/// nothing that can panic by design — no forward, no graph build —
/// runs under a lock.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One forward in flight, and where requests for the same graph wait
/// for it. The outcome is `None` until the leader has filed, then
/// whether its forward came back.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<bool>>,
    landed: Condvar,
}

impl Flight {
    fn wait(&self) -> bool {
        let outcome = self
            .landed
            .wait_while(lock(&self.outcome), |outcome| outcome.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        outcome.expect("wait_while returns once the outcome is set")
    }

    fn publish(&self, answered: bool) {
        *lock(&self.outcome) = Some(answered);
        self.landed.notify_all();
    }
}

/// Everything a request may change, behind the one engine lock.
struct State {
    hot: PlacementCache,
    store: Option<PlacementStore>,
    /// One entry per recipe asked: graph generation is deterministic,
    /// so each is built once, and so is its forward.
    graphs: HashMap<(Workload, Profile), GraphEntry>,
    stats: EngineStats,
}

impl State {
    fn graph(&mut self, recipe: (Workload, Profile)) -> &mut GraphEntry {
        self.graphs.get_mut(&recipe).expect("entries are inserted before use and never removed")
    }
}

/// Tiered placement query engine over one trained agent.
pub struct PlacementEngine {
    agent: Agent,
    num_devices: usize,
    weights_fp: u64,
    /// Idle inference tapes. A forward takes one (or starts a fresh
    /// one) and returns it, so there are as many as forwards ever ran
    /// at once — at most one per recipe.
    tapes: Mutex<Vec<PolicyInference>>,
    state: Mutex<State>,
}

/// The leader's duty to its flight. Dropping it — after the forward, or
/// while the forward unwinds — files the ranking in the graph's memo if
/// there is one, empties the memo if not, and wakes the waiters.
struct Lead<'a> {
    engine: &'a PlacementEngine,
    recipe: (Workload, Profile),
    flight: Arc<Flight>,
    ranking: Option<Ranking>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        let answered = self.ranking.is_some();
        lock(&self.engine.state).graph(self.recipe).memo =
            self.ranking.take().map_or(Memo::Empty, Memo::Known);
        self.flight.publish(answered);
    }
}

impl PlacementEngine {
    /// Engine over `agent` (built for `num_devices`-device clusters)
    /// with a hot tier of `cache_capacity` rankings and no warm store.
    pub fn new(agent: Agent, num_devices: usize, cache_capacity: usize) -> Self {
        let weights_fp = mars_nn::checkpoint::fingerprint(&agent.store);
        PlacementEngine {
            agent,
            num_devices,
            weights_fp,
            tapes: Mutex::new(Vec::new()),
            state: Mutex::new(State {
                hot: PlacementCache::new(cache_capacity),
                store: None,
                graphs: HashMap::new(),
                stats: EngineStats::default(),
            }),
        }
    }

    /// Attach (opening or creating) the warm JSONL store at `path`.
    /// Returns `(loaded, skipped)` line counts; entries stamped with a
    /// different weights fingerprint are skipped, never replayed.
    pub fn attach_store(&mut self, path: impl AsRef<Path>) -> io::Result<(usize, usize)> {
        let store = PlacementStore::open(path, self.weights_fp)?;
        let stats = store.load_stats();
        self.state.get_mut().unwrap_or_else(PoisonError::into_inner).store = Some(store);
        Ok(stats)
    }

    /// Fingerprint of the weights this engine serves
    /// (see [`mars_nn::checkpoint::fingerprint`]).
    pub fn weights_fp(&self) -> u64 {
        self.weights_fp
    }

    /// Action-space width: every query cluster must have exactly this
    /// many devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Per-tier answer counts since construction.
    pub fn stats(&self) -> EngineStats {
        lock(&self.state).stats
    }

    /// The policy's one call site: a forward on a tape no other thread
    /// is using. What it returns is a function of `input` (and the
    /// weights) alone, which is why the graph's memo may hold it.
    fn forward(&self, input: &WorkloadInput) -> Ranking {
        let mut infer = lock(&self.tapes).pop().unwrap_or_default();
        let ranking = Arc::new(infer.rank_placements(&self.agent, input));
        lock(&self.tapes).push(infer);
        ranking
    }

    /// Answer one placement query: the full per-op device ranking for
    /// `(workload, profile)` on `cluster`, plus the tier that answered.
    /// Safe to call from any number of threads at once.
    pub fn place(
        &self,
        workload: &str,
        profile: &str,
        cluster: &Cluster,
    ) -> Result<Placed, String> {
        let _span = mars_telemetry::span("serve.engine.place");
        let wl =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
        let pr = Profile::parse(profile).ok_or_else(|| format!("unknown profile '{profile}'"))?;
        if cluster.num_devices() != self.num_devices {
            return Err(format!(
                "cluster has {} devices but the policy was trained for {}",
                cluster.num_devices(),
                self.num_devices
            ));
        }
        let recipe = (wl, pr);
        let cluster_fp = cluster_fingerprint(cluster);

        let mut st = lock(&self.state);
        if !st.graphs.contains_key(&recipe) {
            // First sight of this recipe. Build it unlocked: if two
            // threads do, they build the same graph and the first
            // insert stands.
            drop(st);
            let graph = wl.build(pr);
            let built = GraphEntry {
                graph_fp: graph_fingerprint(&graph),
                input: Arc::new(WorkloadInput::from_graph(&graph)),
                memo: Memo::Empty,
            };
            st = lock(&self.state);
            st.graphs.entry(recipe).or_insert(built);
        }
        let graph_fp = st.graph(recipe).graph_fp;
        let key = (graph_fp, cluster_fp);

        // Each pass looks the key up in the tiers, then asks the graph.
        // Only a pass that had to wait for a forward — its own or
        // another request's — comes round again, with the memo known.
        let mut waited = false;
        let (ranking, tier) = loop {
            if let Some(ranking) = st.hot.get(&key) {
                st.stats.hot += 1;
                st.stats.coalesced += u64::from(waited);
                break (ranking, Tier::Hot);
            }
            if let Some(ranking) = st.store.as_ref().and_then(|s| s.get(key)) {
                st.stats.warm += 1;
                st.hot.insert(key, ranking.clone());
                break (ranking, Tier::Warm);
            }
            let entry = st.graph(recipe);
            match &entry.memo {
                Memo::Known(ranking) => {
                    let ranking = ranking.clone();
                    st.stats.miss += 1;
                    st.hot.insert(key, ranking.clone());
                    if let Some(store) = st.store.as_mut() {
                        if store.append(key, wl.name(), pr.name(), ranking.clone()).is_err() {
                            // Serving must not die with the answer in hand; a
                            // failed append just means a warm miss after restart.
                            mars_telemetry::counter("serve.store.append_failed").inc();
                        }
                    }
                    break (ranking, Tier::Cold);
                }
                Memo::InFlight(flight) => {
                    let flight = Arc::clone(flight);
                    drop(st);
                    // The forward is a pure function of the graph, so one
                    // that died would die again: report it instead of
                    // retrying.
                    if !flight.wait() {
                        return Err(format!(
                            "inference for '{workload}' failed in a concurrent request"
                        ));
                    }
                }
                Memo::Empty => {
                    let flight = Arc::new(Flight::default());
                    entry.memo = Memo::InFlight(Arc::clone(&flight));
                    let input = Arc::clone(&entry.input);
                    st.stats.forwards += 1;
                    drop(st);
                    mars_telemetry::counter("serve.forwards").inc();
                    let mut lead = Lead { engine: self, recipe, flight, ranking: None };
                    lead.ranking = Some(self.forward(&input));
                }
            }
            waited = true;
            st = lock(&self.state);
        };
        drop(st);

        // Telemetry counters take a registry lock of their own, so each
        // answer bumps its counter after releasing the state lock.
        mars_telemetry::counter(match tier {
            Tier::Hot => "serve.cache.hot",
            Tier::Warm => "serve.cache.warm",
            Tier::Cold => "serve.cache.miss",
        })
        .inc();
        if tier == Tier::Hot && waited {
            mars_telemetry::counter("serve.cache.coalesced").inc();
        }
        Ok(Placed { ranking, tier, graph_fp, cluster_fp, weights_fp: self.weights_fp })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_core::{AgentKind, MarsConfig};
    use mars_graph::features::FEATURE_DIM;
    use mars_rng::rngs::StdRng;
    use mars_rng::SeedableRng;
    use mars_sim::LinkSpec;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    fn tiny_agent(seed: u64, feature_dim: usize) -> Agent {
        let mut cfg = MarsConfig::small();
        cfg.encoder_hidden = 16;
        cfg.placer_hidden = 16;
        cfg.attn_dim = 8;
        cfg.segment_size = 16;
        cfg.num_groups = 4;
        cfg.dgi_iters = 10;
        let mut rng = StdRng::seed_from_u64(seed);
        Agent::new(AgentKind::Mars, cfg, feature_dim, 5, &mut rng)
    }

    fn engine(seed: u64, capacity: usize) -> PlacementEngine {
        PlacementEngine::new(tiny_agent(seed, FEATURE_DIM), 5, capacity)
    }

    fn tmp_store(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mars-serve-engine-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("store.jsonl")
    }

    /// The quad with its GPU 1 → GPU 2 link slowed by `i + 2`: a
    /// cluster, and so a key, per `i`.
    fn variant_cluster(i: usize) -> Cluster {
        let mut cluster = Cluster::p100_quad();
        let pcie = LinkSpec::pcie();
        let bandwidth_bps = pcie.bandwidth_bps / (i + 2) as f64;
        cluster.set_link(1, 2, LinkSpec { bandwidth_bps, ..pcie });
        cluster
    }

    /// Recipes whose forward has come back.
    fn memos(e: &PlacementEngine) -> usize {
        lock(&e.state).graphs.values().filter(|g| matches!(g.memo, Memo::Known(_))).count()
    }

    #[test]
    fn tiers_progress_cold_hot_and_warm_across_restart() {
        let path = tmp_store("tiers");
        let cluster = Cluster::p100_quad();
        let mut e = engine(3, 8);
        e.attach_store(&path).expect("attach");
        let p1 = e.place("inception_v3", "reduced", &cluster).expect("place");
        let p2 = e.place("inception_v3", "reduced", &cluster).expect("place");
        assert_eq!((p1.tier, p2.tier), (Tier::Cold, Tier::Hot));
        assert_eq!(p1.ranking, p2.ranking);
        assert_eq!(p1.weights_fp, e.weights_fp());
        assert_eq!(e.stats(), EngineStats { hot: 1, warm: 0, miss: 1, coalesced: 0, forwards: 1 });

        // Fresh engine, same weights, same store: warm hit, same bytes.
        let mut e2 = engine(3, 8);
        assert_eq!(e2.weights_fp(), e.weights_fp(), "same seed, same weights");
        assert_eq!(e2.attach_store(&path).expect("attach"), (1, 0));
        let p3 = e2.place("inception_v3", "reduced", &cluster).expect("place");
        assert_eq!(p3.tier, Tier::Warm);
        assert_eq!(*p3.ranking, *p1.ranking, "warm ranking byte-identical to cold");
        assert_eq!(e2.stats().forwards, 0, "a warm hit runs nothing");

        // Different weights must not replay the stored entry.
        let mut e3 = engine(4, 8);
        assert_eq!(e3.attach_store(&path).expect("attach"), (0, 1));
        let p4 = e3.place("inception_v3", "reduced", &cluster).expect("place");
        assert_eq!(p4.tier, Tier::Cold);
    }

    #[test]
    fn a_new_cluster_of_an_answered_graph_is_landed_without_a_forward() {
        let path = tmp_store("landed");
        let healthy = Cluster::p100_quad();
        let unseen = variant_cluster(0);
        let mut e = engine(12, 8);
        e.attach_store(&path).expect("attach");
        let first = e.place("seq2seq", "reduced", &healthy).expect("place");
        let before = e.stats();
        let landed = e.place("seq2seq", "reduced", &unseen).expect("place");
        let after = e.stats();
        assert_eq!(landed.tier, Tier::Cold);
        assert_eq!((after.miss - before.miss, after.forwards - before.forwards), (1, 0));
        assert_eq!((after.hot, after.warm), (before.hot, before.warm));
        assert_ne!(landed.cluster_fp, first.cluster_fp, "another key");
        assert!(Arc::ptr_eq(&landed.ranking, &first.ranking), "one ranking per graph, shared");

        // The bytes are what an engine that never saw another cluster
        // of this graph computes for this key.
        let fresh = engine(12, 8).place("seq2seq", "reduced", &unseen).expect("place");
        assert_eq!((landed.graph_fp, landed.cluster_fp), (fresh.graph_fp, fresh.cluster_fp));
        assert_eq!(*landed.ranking, *fresh.ranking);

        // Its line is in the store: a restart answers it warm.
        let mut restarted = engine(12, 8);
        assert_eq!(restarted.attach_store(&path).expect("attach"), (2, 0));
        let warm = restarted.place("seq2seq", "reduced", &unseen).expect("place");
        assert_eq!(warm.tier, Tier::Warm);
        assert_eq!(*warm.ranking, *fresh.ranking);
        assert_eq!(restarted.stats().forwards, 0);
    }

    #[test]
    fn concurrent_identical_requests_infer_once_and_agree() {
        // A fresh graph: all eight build it, one runs its forward, and
        // whichever takes the lock first afterwards lands the key.
        let shared = Arc::new(engine(5, 8));
        let n = 8;
        let start = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let (shared, start) = (Arc::clone(&shared), Arc::clone(&start));
                std::thread::spawn(move || {
                    let cluster = Cluster::p100_quad();
                    start.wait();
                    shared.place("vgg16", "reduced", &cluster).expect("place")
                })
            })
            .collect();
        let placed: Vec<Placed> = handles.into_iter().map(|h| h.join().expect("join")).collect();
        for p in &placed[1..] {
            assert_eq!(*p.ranking, *placed[0].ranking, "concurrent responses diverged");
        }
        assert_eq!(placed.iter().filter(|p| p.tier == Tier::Cold).count(), 1);
        let stats = shared.stats();
        assert_eq!(stats.forwards, 1, "identical requests deduplicate to one inference");
        assert_eq!((stats.miss, stats.hot, stats.warm), (1, n as u64 - 1, 0));
        assert!(stats.coalesced <= stats.hot, "joins are a share of the hot count");
    }

    #[test]
    fn a_hot_hit_is_answered_while_a_cold_forward_is_in_flight() {
        let primed = Cluster::p100_quad();
        // Each attempt's miss is a graph's first forward, so each gets
        // an engine of its own. One attempt can fail on a loaded box:
        // this thread may not run again before the forward (a few ms)
        // is over. All of them fail only if hits wait for forwards.
        let overlapped = (0..50).any(|attempt| {
            let e = engine(9 + attempt, 64);
            e.place("vgg16", "reduced", &primed).expect("prime");
            let returned = AtomicBool::new(false);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let cold = e.place("gnmt4", "paper", &primed).expect("cold place");
                    assert_eq!(cold.tier, Tier::Cold);
                    returned.store(true, Ordering::SeqCst);
                });
                // `forwards` moves when the flight is registered: after
                // the big graph is built, before its forward starts.
                while e.stats().forwards == 1 {
                    std::thread::yield_now();
                }
                let hit = e.place("vgg16", "reduced", &primed).expect("hot place");
                assert_eq!(hit.tier, Tier::Hot);
                !returned.load(Ordering::SeqCst)
            })
        });
        assert!(overlapped, "every hot hit waited for the forward of another graph");
    }

    #[test]
    fn concurrent_misses_on_distinct_keys_match_a_single_threaded_engine() {
        let path = tmp_store("distinct");
        let mut e = engine(10, 8);
        e.attach_store(&path).expect("attach");
        let n = 4;
        let start = Barrier::new(n);
        let placed: Vec<Placed> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (e, start) = (&e, &start);
                    s.spawn(move || {
                        let cluster = variant_cluster(i);
                        start.wait();
                        e.place("seq2seq", "reduced", &cluster).expect("place")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("join")).collect()
        });
        // Four keys nobody had, one graph nobody had asked about.
        let landed = EngineStats { hot: 0, warm: 0, miss: n as u64, coalesced: 0, forwards: 1 };
        assert_eq!(e.stats(), landed);

        let reference = engine(10, 8);
        for (i, p) in placed.iter().enumerate() {
            let expected =
                reference.place("seq2seq", "reduced", &variant_cluster(i)).expect("place");
            assert_eq!(p.tier, Tier::Cold);
            assert_eq!((p.graph_fp, p.cluster_fp), (expected.graph_fp, expected.cluster_fp));
            assert_eq!(*p.ranking, *expected.ranking, "thread {i} diverged from the reference");
        }

        // Whatever order the four lines landed in, the file holds
        // exactly those keys.
        let weights_fp = e.weights_fp();
        drop(e);
        let reloaded = PlacementStore::open(&path, weights_fp).expect("reopen");
        assert_eq!(reloaded.load_stats(), (n, 0));
        assert_eq!(reloaded.len(), n);
        for p in &placed {
            assert_eq!(reloaded.get((p.graph_fp, p.cluster_fp)).as_deref(), Some(&*p.ranking));
        }
    }

    #[test]
    fn a_forward_that_panics_wedges_nobody() {
        // One input feature too many: the first matmul of every forward
        // panics on its shapes. The warm store answers without one.
        let path = tmp_store("panic");
        let mut e = PlacementEngine::new(tiny_agent(11, FEATURE_DIM + 1), 5, 8);
        let cluster = Cluster::p100_quad();
        let primed_key = (
            graph_fingerprint(&Workload::Vgg16.build(Profile::Reduced)),
            cluster_fingerprint(&cluster),
        );
        let mut store = PlacementStore::open(&path, e.weights_fp()).expect("open");
        store.append(primed_key, "vgg16", "reduced", Arc::new(vec![vec![0, 1]])).expect("append");
        drop(store);
        assert_eq!(e.attach_store(&path).expect("attach"), (1, 0));

        let n = 8;
        let start = Barrier::new(n);
        let outcomes: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let (e, start) = (&e, &start);
                    s.spawn(move || {
                        // Half ask the leader's question, half another
                        // cluster's: all of them wait on the one graph.
                        let cluster = variant_cluster(i % 2);
                        start.wait();
                        e.place("seq2seq", "reduced", &cluster)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // Every request came back: a leader by panicking, a request that
        // waited for a leader's flight with an error.
        let panicked = outcomes.iter().filter(|o| o.is_err()).count();
        assert!(panicked >= 1, "somebody ran the forward");
        for o in outcomes.iter().flatten() {
            let err = o.as_ref().expect_err("no ranking can come out of this agent");
            assert!(err.contains("failed in a concurrent request"), "{err}");
        }
        let stats = e.stats();
        assert_eq!(stats.forwards, panicked as u64, "each leader counted its forward");
        assert_eq!((stats.hot, stats.warm, stats.miss, stats.coalesced), (0, 0, 0, 0));
        assert_eq!(memos(&e), 0, "a forward that died leaves no answer behind");

        // The caches are intact and their lock is not poisoned: another
        // graph is answered, and the dead one is free to be asked again.
        let warm = e.place("vgg16", "reduced", &cluster).expect("warm place");
        let hot = e.place("vgg16", "reduced", &cluster).expect("hot place");
        assert_eq!((warm.tier, hot.tier), (Tier::Warm, Tier::Hot));
        assert_eq!(*hot.ranking, vec![vec![0, 1]]);
        let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.place("seq2seq", "reduced", &cluster)
        }));
        assert!(again.is_err(), "the graph was not left in flight: a new request leads and dies");
        assert_eq!(e.stats().forwards, panicked as u64 + 1);
    }

    #[test]
    fn a_flight_whose_leader_died_releases_its_waiters() {
        let flight = Flight::default();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| flight.wait());
            flight.publish(false);
            assert!(!waiter.join().expect("join"));
        });
        assert!(!flight.wait(), "a late joiner sees the outcome too");
    }

    #[test]
    fn agent_and_engine_can_be_shared_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Agent>();
        assert_sync::<PlacementEngine>();
    }

    #[test]
    fn evictions_under_tiny_capacity_never_change_response_bytes() {
        let e = engine(6, 1); // hot tier holds exactly one ranking
        let cluster = Cluster::p100_quad();
        let first_a = e.place("inception_v3", "reduced", &cluster).expect("place").ranking;
        let first_b = e.place("vgg16", "reduced", &cluster).expect("place").ranking;
        for _ in 0..3 {
            // Each round evicts the other workload's entry and lands
            // this one's again.
            let pa = e.place("inception_v3", "reduced", &cluster).expect("place");
            let pb = e.place("vgg16", "reduced", &cluster).expect("place");
            assert_eq!((pa.tier, pb.tier), (Tier::Cold, Tier::Cold), "capacity 1 re-lands");
            assert_eq!(*pa.ranking, *first_a, "eviction changed inception bytes");
            assert_eq!(*pb.ranking, *first_b, "eviction changed vgg bytes");
        }
        let stats = e.stats();
        assert_eq!((stats.miss, stats.forwards), (8, 2), "re-landing a key re-infers nothing");
    }

    #[test]
    fn the_memo_holds_one_ranking_per_recipe_whatever_is_asked() {
        let e = engine(13, 2);
        let recipes = [("vgg16", "reduced"), ("seq2seq", "reduced"), ("vgg16", "paper")];
        let mut rankings: Vec<Ranking> = Vec::new();
        for round in 0..4 {
            for (r, (workload, profile)) in recipes.iter().enumerate() {
                let p = e.place(workload, profile, &variant_cluster(round)).expect("place");
                match rankings.get(r) {
                    Some(first) => assert!(Arc::ptr_eq(first, &p.ranking), "a second copy"),
                    None => rankings.push(p.ranking),
                }
                assert!(memos(&e) <= recipes.len());
            }
        }
        assert_eq!(memos(&e), recipes.len());
        let stats = e.stats();
        assert_eq!((stats.miss, stats.forwards), (12, 3), "twelve keys, three graphs");
    }

    #[test]
    fn failed_device_changes_the_cache_key_but_not_determinism() {
        let e = engine(7, 8);
        let healthy = Cluster::p100_quad();
        let mut degraded = Cluster::p100_quad();
        degraded.fail_device(3);
        let t1 = e.place("seq2seq", "reduced", &healthy).expect("place").tier;
        let t2 = e.place("seq2seq", "reduced", &degraded).expect("place").tier;
        let t3 = e.place("seq2seq", "reduced", &healthy).expect("place").tier;
        assert_eq!((t1, t2, t3), (Tier::Cold, Tier::Cold, Tier::Hot));
    }

    #[test]
    fn rejects_unknown_workloads_and_mismatched_clusters() {
        let e = engine(8, 8);
        assert!(e.place("not-a-workload", "reduced", &Cluster::p100_quad()).is_err());
        assert!(e.place("vgg16", "not-a-profile", &Cluster::p100_quad()).is_err());
        let two = Cluster::new(
            vec![mars_sim::DeviceSpec::xeon(), mars_sim::DeviceSpec::p100(0)],
            mars_sim::LinkSpec::pcie(),
        );
        let err = e.place("vgg16", "reduced", &two).expect_err("device-count mismatch");
        assert!(err.contains("2 devices"), "unexpected error: {err}");
    }
}
