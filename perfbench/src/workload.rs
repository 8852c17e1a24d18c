//! Workload generation, reference answers and answer checks.
//!
//! A workload is a request sequence made from `--seed` alone; the
//! server sees only the generated requests. Each distinct request is
//! answered once by an in-process [`Prospector`] loaded from the same
//! snapshot the server serves, and every served answer must match it.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use jungloid_apidef::ApiLoader;
use jungloid_typesys::TyId;
use prospector_core::{Prospector, QueryResult};
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_corpora::{build, jungle::JungleSpec, problems, BuildOptions};
use prospector_obs::{Json, SmallRng};

use crate::Args;

/// Suggestions per answer: the server's default `--max`.
pub const MAX_SUGGESTIONS: usize = 5;

/// Distinct bulk pairs (with distinct targets) in `bulk_miss`: eight
/// times the 256-entry distance cache and four times the 512-entry
/// result cache, so a cyclic replay misses both LRUs on every request.
const BULK_POOL: usize = 2048;

/// Warm-up requests before timing: one pass over the sequence, capped so
/// `bulk_miss` (≈5 ms a request) warms in a few seconds; 512 misses
/// fill both engine caches to capacity.
const WARMUP_CAP: usize = 512;

/// One generated request.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Req {
    /// `GET /query?tin=..&tout=..`
    Query { tin: String, tout: String },
    /// `GET /assist?var=name:Type..&tout=..`
    Assist {
        vars: Vec<(String, String)>,
        tout: String,
    },
}

impl Req {
    /// The HTTP request target.
    pub fn path(&self) -> String {
        match self {
            Req::Query { tin, tout } => format!("/query?tin={tin}&tout={tout}"),
            Req::Assist { vars, tout } => {
                let mut p = String::from("/assist?");
                for (name, ty) in vars {
                    p.push_str(&format!("var={name}:{ty}&"));
                }
                p.push_str("tout=");
                p.push_str(tout);
                p
            }
        }
    }

    /// Parses a request target produced by [`Req::path`].
    pub fn from_path(path: &str) -> Result<Req, String> {
        let (route, query) = path
            .split_once('?')
            .ok_or_else(|| format!("no query in {path}"))?;
        let mut tin = None;
        let mut tout = None;
        let mut vars = Vec::new();
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("tin", v)) => tin = Some(v.to_owned()),
                Some(("tout", v)) => tout = Some(v.to_owned()),
                Some(("var", v)) => {
                    let (n, t) = v
                        .split_once(':')
                        .ok_or_else(|| format!("bad var in {path}"))?;
                    vars.push((n.to_owned(), t.to_owned()));
                }
                _ => return Err(format!("bad parameter in {path}")),
            }
        }
        let tout = tout.ok_or_else(|| format!("no tout in {path}"))?;
        match route {
            "/query" => Ok(Req::Query {
                tin: tin.ok_or("no tin")?,
                tout,
            }),
            "/assist" => Ok(Req::Assist { vars, tout }),
            other => Err(format!("unknown route {other}")),
        }
    }

    /// Answers this request with `engine`, the way the server's handlers
    /// call it: `/query` through a one-entry `query_batch` (a scoped
    /// thread per request, with cold thread-local search scratch),
    /// `/assist` on the calling thread.
    pub fn answer(&self, engine: &Prospector) -> Result<QueryResult, String> {
        let resolve = |name: &str| {
            engine
                .api()
                .types()
                .resolve(name)
                .map_err(|e| e.to_string())
        };
        match self {
            Req::Query { tin, tout } => engine
                .query_batch(&[(resolve(tin)?, resolve(tout)?)])
                .pop()
                .ok_or("empty batch result")?
                .result
                .map_err(|e| e.to_string()),
            Req::Assist { vars, tout } => {
                let mut visible: Vec<(&str, TyId)> = Vec::with_capacity(vars.len());
                for (name, ty) in vars {
                    visible.push((name.as_str(), resolve(ty)?));
                }
                engine
                    .assist(&visible, resolve(tout)?)
                    .map_err(|e| e.to_string())
            }
        }
    }
}

/// The answer a request must get.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Expect {
    pub shortest: Option<u64>,
    pub truncation: String,
    pub found: u64,
    pub suggestions: Vec<String>,
}

impl Expect {
    pub fn of(result: &QueryResult) -> Expect {
        Expect {
            shortest: result.shortest.map(u64::from),
            truncation: result.truncation.label().to_owned(),
            found: result.suggestions.len() as u64,
            suggestions: result
                .suggestions
                .iter()
                .take(MAX_SUGGESTIONS)
                .map(|s| s.code.clone())
                .collect(),
        }
    }

    fn to_json(&self, path: &str) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        Json::obj(vec![
            ("path", Json::Str(path.to_owned())),
            ("shortest", self.shortest.map_or(Json::Null, Json::num_u)),
            ("truncation", Json::Str(self.truncation.clone())),
            ("found", Json::num_u(self.found)),
            ("suggestions", strs(&self.suggestions)),
        ])
    }

    fn from_json(doc: &Json) -> Result<(String, Expect), String> {
        let strs = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|s| s.as_str().map(str::to_owned))
                .collect()
        };
        let path = doc
            .get("path")
            .and_then(Json::as_str)
            .ok_or("expect line without path")?;
        Ok((
            path.to_owned(),
            Expect {
                shortest: doc.get("shortest").and_then(Json::as_u64),
                truncation: doc
                    .get("truncation")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                found: doc.get("found").and_then(Json::as_u64).unwrap_or_default(),
                suggestions: strs("suggestions"),
            },
        ))
    }

    /// Checks one served response body against this expectation.
    pub fn check(&self, body: &str) -> Result<(), String> {
        let doc = Json::parse(body).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let shortest = doc.get("shortest").and_then(Json::as_u64);
        let truncation = doc
            .get("truncation")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let found = doc.get("found").and_then(Json::as_u64);
        let suggestions: Vec<&str> = doc
            .get("suggestions")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        if shortest != self.shortest {
            return Err(format!("shortest {shortest:?} != {:?}", self.shortest));
        }
        if truncation != self.truncation {
            return Err(format!("truncation {truncation} != {}", self.truncation));
        }
        if found != Some(self.found) {
            return Err(format!("found {found:?} != {}", self.found));
        }
        if suggestions != self.suggestions {
            return Err(format!(
                "suggestions {suggestions:?} != {:?}",
                self.suggestions
            ));
        }
        Ok(())
    }
}

/// Reads `expect.jsonl` into a map keyed by request target.
pub fn read_expect(path: &str) -> Result<BTreeMap<String, Expect>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut map = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let doc = Json::parse(line).map_err(|e| format!("{path}: {e:?}"))?;
        let (p, e) = Expect::from_json(&doc)?;
        map.insert(p, e);
    }
    Ok(map)
}

/// Reads `requests.txt`: one request target per line, in replay order.
pub fn read_requests(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let reqs: Vec<String> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_owned)
        .collect();
    if reqs.is_empty() {
        return Err(format!("{path}: no requests"));
    }
    Ok(reqs)
}

/// The synthetic graph's shape, as passed to `prospector synth`.
fn synth_spec(args: &Args) -> Result<SynthSpec, String> {
    Ok(SynthSpec {
        seed: args.num("graph-seed")?,
        types: args.num("types")?,
        ..SynthSpec::default()
    })
}

/// Builds the workload's graph in-process from source (the `corpora`
/// layer: `grow_synth` or `corpora::build`); returns the build time.
fn build_graph(args: &Args) -> Result<f64, String> {
    let started = Instant::now();
    let edges = if args.str("graph")? == "jungle" {
        let options = BuildOptions {
            jungle: Some(JungleSpec::default()),
            ..BuildOptions::default()
        };
        build(&options)
            .map_err(|e| e.to_string())?
            .prospector
            .graph()
            .edge_count()
    } else {
        let mut api = ApiLoader::with_prelude()
            .finish()
            .map_err(|e| e.to_string())?;
        grow_synth(&mut api, &synth_spec(args)?);
        Prospector::new(api).graph().edge_count()
    };
    std::hint::black_box(edges);
    Ok(started.elapsed().as_secs_f64())
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `IWorkbenchPage` → `iWorkbenchPage`: the variable an editor user
/// would have in scope.
fn var_name(ty: &str) -> String {
    let mut chars = ty.chars();
    chars.next().map_or_else(String::new, |c| {
        c.to_ascii_lowercase().to_string() + chars.as_str()
    })
}

/// The request sequence of `workload` under `seed`.
fn generate(workload: &str, seed: u64, types: usize) -> Result<Vec<Req>, String> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6a75_6e67_6c6f_6964);
    match workload {
        "bulk_miss" => {
            let mut targets = HashSet::new();
            let mut seq = Vec::with_capacity(BULK_POOL);
            while seq.len() < BULK_POOL {
                let tin = rng.gen_range(0..types);
                let tout = rng.gen_range(0..types);
                if tin != tout && targets.insert(tout) {
                    seq.push(Req::Query {
                        tin: format!("Syn{tin}"),
                        tout: format!("Syn{tout}"),
                    });
                }
            }
            Ok(seq)
        }
        "ide_session" => {
            // Every Table 1 problem's input with every pair of two other
            // visible variables (the other problems' distinct inputs) as
            // `/assist`, plus one repeat of its `/query` per three assists.
            // Which variables are visible decides the cost (a variable one
            // step from `tout` shrinks the search to almost nothing), so
            // the seed draws only the order: the mix is the same under
            // every seed.
            let table = problems::table1();
            let mut tins: Vec<&str> = Vec::new();
            for p in &table {
                if !tins.contains(&p.tin) {
                    tins.push(p.tin);
                }
            }
            let mut seq = Vec::new();
            for p in &table {
                let others: Vec<&str> = tins.iter().copied().filter(|t| *t != p.tin).collect();
                let mut assists = 0;
                for (i, a) in others.iter().enumerate() {
                    for b in &others[i + 1..] {
                        let mut tys = [p.tin, a, b];
                        shuffle(&mut tys, &mut rng);
                        let vars = tys.iter().map(|t| (var_name(t), (*t).to_owned())).collect();
                        seq.push(Req::Assist {
                            vars,
                            tout: p.tout.to_owned(),
                        });
                        assists += 1;
                    }
                }
                for _ in 0..assists / 3 {
                    seq.push(Req::Query {
                        tin: p.tin.to_owned(),
                        tout: p.tout.to_owned(),
                    });
                }
            }
            shuffle(&mut seq, &mut rng);
            Ok(seq)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// `perfbench prepare`: writes `requests.txt`, `expect.jsonl` and
/// `prepare.json` under `--out`.
pub fn prepare(args: &Args) -> Result<(), String> {
    let workload = args.str("workload")?;
    let seed: u64 = args.num("seed")?;
    let out = args.str("out")?;
    let build_graph_s = build_graph(args)?;
    let types = if args.str("graph")? == "synth" {
        synth_spec(args)?.types
    } else {
        0
    };
    let seq = generate(workload, seed, types)?;

    let (engine, _) = prospector_registry::load_engine(args.str("snapshot")?, false)?;
    // Answer each distinct request once, fanned out over the CPUs.
    let mut distinct: Vec<Req> = Vec::new();
    let mut seen = HashSet::new();
    for req in &seq {
        if seen.insert(req.clone()) {
            distinct.push(req.clone());
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let chunk = distinct.len().div_ceil(threads).max(1);
    let answers: Vec<Result<Expect, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                let engine = &engine;
                scope.spawn(move || {
                    part.iter()
                        .map(|req| Ok(Expect::of(&req.answer(engine)?)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker"))
            .collect()
    });

    let mut expect_lines = String::new();
    for (req, answer) in distinct.iter().zip(answers) {
        let path = req.path();
        let expect = answer.map_err(|e| format!("reference answer for {path}: {e}"))?;
        expect_lines.push_str(&expect.to_json(&path).to_text());
        expect_lines.push('\n');
    }
    let warmup = seq.len().min(WARMUP_CAP);
    let mut request_lines = String::new();
    for req in &seq {
        request_lines.push_str(&req.path());
        request_lines.push('\n');
    }
    let write = |name: &str, text: &str| {
        std::fs::write(format!("{out}/{name}"), text).map_err(|e| format!("{out}/{name}: {e}"))
    };
    write("requests.txt", &request_lines)?;
    write("expect.jsonl", &expect_lines)?;
    let meta = Json::obj(vec![
        ("requests", Json::num_u(seq.len() as u64)),
        ("warmup", Json::num_u(warmup as u64)),
        ("distinct", Json::num_u(distinct.len() as u64)),
        ("nodes", Json::num_u(engine.graph().node_count() as u64)),
        ("build_graph_s", Json::Num(build_graph_s)),
    ]);
    write("prepare.json", &meta.to_text())
}
