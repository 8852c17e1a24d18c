//! The traced run: the workload's requests replayed in-process through
//! each layer's public functions, with a span recorded around every
//! call into a layer.
//!
//! Three phases, each on the snapshot the server loads:
//!
//! 1. **store** — `store::load_auto` and `registry::load_engine`;
//! 2. **engine** — per request, `cli::http::RequestFramer` then the
//!    engine entry point the server's handler calls (`/query` through a
//!    one-entry `Prospector::query_batch`, `/assist` through
//!    `Prospector::assist`), in alternating blocks with heat accounting
//!    on (the server's setting) and off (its cost);
//! 3. **layers** — the engine's pipeline taken apart: framing,
//!    `DistanceField::towards` (on a distance-cache miss),
//!    `search::enumerate_with`, `synth::synthesize`, `rank::rank_key`,
//!    with the engine's two caches emulated at their capacities. As in
//!    the server, each `/query` runs on a freshly spawned scoped thread
//!    with cold search scratch; its spawn and join are the
//!    `engine.spawn` span. Blocks with spans on alternate with blocks
//!    with spans off, which gives the tracing overhead of this phase.
//!    Its answers are checked against the reference, so the
//!    decomposition is known to be faithful.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written to the `--spans` CSV at the end; per-layer self times are
//! computed from them.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jungloid_typesys::TyId;
use prospector_cli::http::{Framed, RequestFramer};
use prospector_core::search::{enumerate_with, DistanceField, SearchScratch};
use prospector_core::{heat, rank::rank_key, synthesize, Prospector};
use prospector_obs::Json;

use crate::load::raw_request;
use crate::workload::{read_expect, read_requests, Expect, Req, MAX_SUGGESTIONS};
use crate::Args;

/// Capacities of the engine's distance-field and result caches.
const DIST_CACHE_CAP: usize = 256;
const RESULT_CACHE_CAP: usize = 512;

/// Requests per configuration block. Prime, so over successive passes
/// of a request cycle every request position is replayed under each
/// configuration.
const BLOCK: usize = 7;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    rid: u32,
}

/// In-memory span recorder. When off, `open`/`close` read no clock.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, rid: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rid,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        if id != NO_PARENT {
            let end = self.now();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        rid: u32,
        f: impl FnOnce(&mut Tracer, u32) -> R,
    ) -> R {
        let id = self.open(name, parent, rid);
        let out = f(self, id);
        self.close(id);
        out
    }
}

/// A fixed-capacity cache with first-in-first-out eviction. For the
/// cyclic miss workloads and the small ide working set it hits and
/// misses exactly where the engine's LRU does.
struct Fifo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Fifo<K, V> {
    fn new(cap: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                let old = self.order.pop_front().expect("non-empty");
                self.map.remove(&old);
            }
        }
    }
}

/// Frames one raw request with the server's framer.
fn frame(raw: &[u8]) -> Result<String, String> {
    let mut framer = RequestFramer::new();
    framer.push(raw);
    match framer.next() {
        Framed::Request(r) => Ok(r.path),
        other => Err(format!("framer: {other:?}")),
    }
}

fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

/// Per-request wall time (µs) with heat accounting on and off.
#[derive(Default)]
struct EnginePhase {
    heat: Vec<f64>,
    no_heat: Vec<f64>,
    /// The `engine` span of each traced request (µs).
    engine_us: Vec<f64>,
    mismatches: u64,
}

/// Replays requests through framing + `Prospector::query`/`assist`.
fn engine_phase(
    engine: &Prospector,
    paths: &[String],
    expect: &BTreeMap<String, Expect>,
    tracer: &mut Tracer,
    rid: &mut u32,
    warmup: Duration,
    budget: Duration,
) -> Result<EnginePhase, String> {
    let raws: Vec<Vec<u8>> = paths.iter().map(|p| raw_request(p)).collect();
    let mut cursor = 0usize;
    let mut phase = EnginePhase::default();
    let one = |tracer: &mut Tracer, rid: u32, cursor: usize| -> Result<bool, String> {
        let raw = &raws[cursor % raws.len()];
        let result = tracer.span("request", NO_PARENT, rid, |t, root| {
            let path = t.span("http.frame", root, rid, |_, _| frame(raw))?;
            t.span("engine", root, rid, |_, _| {
                Req::from_path(&path)?.answer(engine)
            })
        })?;
        Ok(Expect::of(&result) == expect[&paths[cursor % paths.len()]])
    };
    // Warm-up: the same cyclic order the server saw, untimed.
    tracer.on = false;
    heat::set_enabled(true);
    let started = Instant::now();
    while cursor < paths.len() && started.elapsed() < warmup {
        one(tracer, NO_PARENT, cursor)?;
        cursor += 1;
    }
    let started = Instant::now();
    tracer.on = true;
    let mut heat_on = true;
    while started.elapsed() < budget || phase.no_heat.is_empty() {
        heat::set_enabled(heat_on);
        for _ in 0..BLOCK {
            let t = Instant::now();
            let ok = one(tracer, *rid, cursor)?;
            let us = t.elapsed().as_secs_f64() * 1e6;
            phase.mismatches += u64::from(!ok);
            if heat_on {
                phase.heat.push(us);
                let span = tracer.spans.last().expect("traced request recorded spans");
                phase
                    .engine_us
                    .push((span.end_ns - span.start_ns) as f64 / 1e3);
            } else {
                phase.no_heat.push(us);
            }
            cursor += 1;
            *rid += 1;
        }
        heat_on = !heat_on;
    }
    heat::set_enabled(true);
    Ok(phase)
}

/// The layers phase: per-request wall time (µs) with spans on and off,
/// and answers that differed from the reference.
#[derive(Default)]
struct LayersPhase {
    traced: Vec<f64>,
    untraced: Vec<f64>,
    mismatches: u64,
}

/// What a (possibly cached) pipeline run produced.
#[derive(Clone)]
struct Answer {
    shortest: Option<u32>,
    truncation: &'static str,
    found: u64,
    top: Vec<String>,
}

/// A framed request with its types resolved.
struct Resolved {
    path: String,
    /// Search sources: named visible variables, plus `void` for `/assist`.
    sources: Vec<(Option<String>, TyId)>,
    tout: TyId,
    is_query: bool,
}

/// The engine's caches, emulated at their capacities and carried
/// between requests.
struct Pipeline<'a> {
    engine: &'a Prospector,
    fields: Fifo<TyId, Arc<DistanceField>>,
    results: Fifo<String, Answer>,
}

impl Pipeline<'_> {
    /// One request's pipeline under span `parent`: result cache (for
    /// `/query`), distance cache or BFS, DFS, synthesis, ranking.
    fn run(
        &mut self,
        t: &mut Tracer,
        parent: u32,
        r: u32,
        req: &Resolved,
        scratch: &mut SearchScratch,
    ) -> Answer {
        let (graph, api) = (self.engine.graph(), self.engine.api());
        let (sources, tout) = (&req.sources, req.tout);
        if req.is_query {
            if let Some(hit) = t.span("cache.result", parent, r, |_, _| {
                self.results.get(&req.path)
            }) {
                return hit;
            }
        }
        let field = match t.span("cache.dist", parent, r, |_, _| self.fields.get(&tout)) {
            Some(f) => f,
            None => {
                let f = Arc::new(t.span("search.bfs", parent, r, |_, _| {
                    DistanceField::towards(graph, tout)
                }));
                self.fields.insert(tout, Arc::clone(&f));
                f
            }
        };
        let tys: Vec<TyId> = sources.iter().map(|(_, ty)| *ty).collect();
        let outcome = t.span("search.dfs", parent, r, |_, _| {
            enumerate_with(graph, &tys, tout, &field, &self.engine.search, scratch)
        });
        let snippets: Vec<(String, usize)> = t.span("synth", parent, r, |_, _| {
            outcome
                .jungloids
                .iter()
                .enumerate()
                .map(|(i, j)| {
                    let input = sources
                        .iter()
                        .find(|(name, ty)| *ty == j.source && name.is_some())
                        .and_then(|(name, _)| name.as_deref());
                    (synthesize(api, j, input).code(), i)
                })
                .collect()
        });
        let top = t.span("rank", parent, r, |_, _| {
            let mut best = BTreeMap::new();
            for (code, i) in snippets {
                let key = rank_key(
                    api,
                    &outcome.jungloids[i],
                    code.clone(),
                    &self.engine.ranking,
                );
                match best.get(&code) {
                    Some(existing) if existing <= &key => {}
                    _ => {
                        best.insert(code, key);
                    }
                }
            }
            let mut ranked: Vec<_> = best.into_iter().collect();
            ranked.sort_by(|a, b| a.1.cmp(&b.1));
            ranked
        });
        let answer = Answer {
            shortest: outcome.shortest,
            truncation: outcome.truncation.label(),
            found: top.len() as u64,
            top: top
                .into_iter()
                .take(MAX_SUGGESTIONS)
                .map(|(code, _)| code)
                .collect(),
        };
        if req.is_query {
            self.results.insert(req.path.clone(), answer.clone());
        }
        answer
    }
}

/// Replays requests through the engine's pipeline, one layer at a time.
fn layers_phase(
    engine: &Prospector,
    paths: &[String],
    expect: &BTreeMap<String, Expect>,
    tracer: &mut Tracer,
    rid: &mut u32,
    budget: Duration,
) -> Result<LayersPhase, String> {
    let api = engine.api();
    let raws: Vec<Vec<u8>> = paths.iter().map(|p| raw_request(p)).collect();
    let mut pipeline = Pipeline {
        engine,
        fields: Fifo::new(DIST_CACHE_CAP),
        results: Fifo::new(RESULT_CACHE_CAP),
    };
    // The calling thread's scratch, warm across `/assist` requests.
    let mut warm = SearchScratch::new();
    let mut phase = LayersPhase::default();
    heat::set_enabled(true);
    let started = Instant::now();
    let mut cursor = 0usize;
    while started.elapsed() < budget || phase.untraced.is_empty() {
        for _ in 0..BLOCK {
            let raw = &raws[cursor % raws.len()];
            let r = *rid;
            let t0 = Instant::now();
            let answer = tracer.span(
                "request",
                NO_PARENT,
                r,
                |t, root| -> Result<Answer, String> {
                    let path = t.span("http.frame", root, r, |_, _| frame(raw))?;
                    let req = t.span("engine.resolve", root, r, |_, _| {
                        let req = Req::from_path(&path)?;
                        let resolve = |n: &str| api.types().resolve(n).map_err(|e| e.to_string());
                        let (sources, tout) = match &req {
                            Req::Query { tin, tout } => {
                                (vec![(None, resolve(tin)?)], resolve(tout)?)
                            }
                            Req::Assist { vars, tout } => {
                                let mut sources = Vec::new();
                                for (name, ty) in vars {
                                    let ty = resolve(ty)?;
                                    if api.types().is_reference(ty) {
                                        sources.push((Some(name.clone()), ty));
                                    }
                                }
                                sources.push((None, api.types().void()));
                                (sources, resolve(tout)?)
                            }
                        };
                        Ok::<_, String>(Resolved {
                            is_query: matches!(req, Req::Query { .. }),
                            path,
                            sources,
                            tout,
                        })
                    })?;
                    if !req.is_query {
                        return Ok(pipeline.run(t, root, r, &req, &mut warm));
                    }
                    // `/query`: a scoped thread per request, as in
                    // `Prospector::query_batch`, with cold scratch.
                    let pipeline = &mut pipeline;
                    Ok(t.span("engine.spawn", root, r, |t, spawn| {
                        std::thread::scope(|scope| {
                            scope
                                .spawn(|| {
                                    pipeline.run(t, spawn, r, &req, &mut SearchScratch::new())
                                })
                                .join()
                                .expect("query thread")
                        })
                    }))
                },
            )?;
            let us = t0.elapsed().as_secs_f64() * 1e6;
            if tracer.on {
                phase.traced.push(us);
            } else {
                phase.untraced.push(us);
            }
            let want = &expect[&paths[cursor % paths.len()]];
            let same = answer.shortest.map(u64::from) == want.shortest
                && answer.truncation == want.truncation
                && answer.found == want.found
                && answer.top == want.suggestions;
            phase.mismatches += u64::from(!same);
            cursor += 1;
            *rid += 1;
        }
        tracer.on = !tracer.on;
    }
    tracer.on = true;
    Ok(phase)
}

/// Per request id, each layer's self time (µs): span duration minus the
/// part covered by its children. Only requests at or past `first_rid`.
fn self_times(spans: &[SpanRec], first_rid: u32) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.rid >= first_rid && s.rid != NO_PARENT {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.rid).or_default().entry(s.name).or_insert(0.0) += self_ns as f64 / 1e3;
        }
    }
    out
}

/// `perfbench replay`.
pub fn run(args: &Args) -> Result<(), String> {
    let dir = args.str("dir")?;
    let snapshot = args.str("snapshot")?;
    let seconds: f64 = args.num("seconds")?;
    let paths = read_requests(&format!("{dir}/requests.txt"))?;
    let expect = read_expect(&format!("{dir}/expect.jsonl"))?;
    let mut tracer = Tracer {
        on: true,
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut rid = 0u32;

    // Phase 1: the store layer.
    let store_ms = tracer.span("store.load_auto", NO_PARENT, NO_PARENT, |_, _| {
        let t = Instant::now();
        let loaded = prospector_store::load_auto(std::path::Path::new(snapshot), false)
            .map_err(|e| e.to_string())?;
        drop(loaded);
        Ok::<_, String>(t.elapsed().as_secs_f64() * 1e3)
    })?;
    let engine = tracer.span("registry.load_engine", NO_PARENT, NO_PARENT, |_, _| {
        prospector_registry::load_engine(snapshot, false)
    })?;
    let engine = engine.0;

    // Phase 2: framing + engine entry points.
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut phase = engine_phase(
        &engine,
        &paths,
        &expect,
        &mut tracer,
        &mut rid,
        half / 3,
        half,
    )?;

    // Phase 3: the pipeline layer by layer.
    let layers_first = rid;
    let mut layers = layers_phase(&engine, &paths, &expect, &mut tracer, &mut rid, half)?;
    let per_req = self_times(&tracer.spans, layers_first);
    let layer = |name: &str| -> Vec<f64> {
        per_req
            .values()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect()
    };
    // A distance field is built only on a distance-cache miss, so BFS
    // time is taken per build, not per request (most `ide_session`
    // requests build none).
    let mut bfs_builds: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.rid >= layers_first && s.rid != NO_PARENT && s.name == "search.bfs")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    // Thread spawn and join: `/query` requests only.
    let mut spawns: Vec<f64> = per_req
        .values()
        .filter_map(|m| m.get("engine.spawn").copied())
        .collect();
    let mut attributed: Vec<f64> = per_req
        .values()
        .map(|m| {
            m.iter()
                .filter(|(k, _)| **k != "request")
                .map(|(_, v)| v)
                .sum()
        })
        .collect();

    // Write the spans out: one CSV line each.
    let mut csv = String::from("rid,name,start_ns,end_ns,parent\n");
    for s in &tracer.spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let rid = if s.rid == NO_PARENT {
            -1
        } else {
            i64::from(s.rid)
        };
        csv.push_str(&format!(
            "{rid},{},{},{},{parent}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    let spans_path = args.str("spans")?;
    std::fs::write(spans_path, csv).map_err(|e| format!("{spans_path}: {e}"))?;

    let traced = percentile(&mut layers.traced, 0.5);
    let untraced = percentile(&mut layers.untraced, 0.5);
    let doc = Json::obj(vec![
        ("store.load_ms", Json::Num(store_ms)),
        (
            "engine.query_us_p50",
            Json::Num(percentile(&mut phase.engine_us, 0.5)),
        ),
        (
            "http.frame_us",
            Json::Num(percentile(&mut layer("http.frame"), 0.5)),
        ),
        (
            "engine.spawn_us_p50",
            Json::Num(percentile(&mut spawns, 0.5)),
        ),
        (
            "search.bfs_us_p50",
            Json::Num(percentile(&mut bfs_builds, 0.5)),
        ),
        (
            "search.dfs_us_p50",
            Json::Num(percentile(&mut layer("search.dfs"), 0.5)),
        ),
        (
            "synth.us_p50",
            Json::Num(percentile(&mut layer("synth"), 0.5)),
        ),
        (
            "rank.us_p50",
            Json::Num(percentile(&mut layer("rank"), 0.5)),
        ),
        (
            "heat.us_per_req",
            Json::Num(percentile(&mut phase.heat, 0.5) - percentile(&mut phase.no_heat, 0.5)),
        ),
        (
            "trace.overhead_pct",
            Json::Num(100.0 * (traced - untraced) / untraced.max(1e-9)),
        ),
        (
            "trace.attributed_us_p50",
            Json::Num(percentile(&mut attributed, 0.5)),
        ),
        (
            "replay.engine_requests",
            Json::num_u((phase.heat.len() + phase.no_heat.len()) as u64),
        ),
        (
            "replay.layer_requests",
            Json::num_u((layers.traced.len() + layers.untraced.len()) as u64),
        ),
        ("replay.spans", Json::num_u(tracer.spans.len() as u64)),
        (
            "replay.mismatches",
            Json::num_u(phase.mismatches + layers.mismatches),
        ),
    ]);
    std::fs::write(format!("{dir}/replay.json"), doc.to_text())
        .map_err(|e| format!("{dir}/replay.json: {e}"))
}
