//! Snapshot I/O — how fast the `.pspk` snapshot saves and loads, and
//! what warm-starting buys over rebuilding.
//!
//! Columns: the cold build every load replaces, the snapshot save and
//! full load (`load_file`: validate, decode the API tables, borrow the
//! CSR), the zero-copy map (validate header and section CRCs only), and
//! the first query answered after a warm start by read and by mmap. The
//! run writes a machine-readable baseline to `BENCH_snapshot.json` at the
//! repository root (override with `BENCH_SNAPSHOT_OUT`), including
//! `zero_copy_speedup` — full load time over zero-copy map time.
//!
//! Run with `cargo bench -p bench --bench snapshot_io`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized smoke
//! run.

use std::time::Instant;

use prospector_core::Prospector;
use prospector_corpora::{build, BuildOptions};
use prospector_obs::Json;

fn quick_mode() -> bool {
    std::env::var_os("PROSPECTOR_BENCH_QUICK").is_some()
        || std::env::args().any(|a| a == "--quick")
}

/// Best-of-`rounds` wall time for `f`, in microseconds.
fn best_us<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..rounds {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
        last = Some(value);
    }
    (best, last.expect("rounds >= 1"))
}

/// Warm-start an engine from a just-loaded snapshot and answer one
/// flagship query (`IFile -> ASTNode`). Returns the suggestion count so
/// the work cannot be optimized away.
fn first_query(snap: prospector_store::Snapshot) -> usize {
    let engine = Prospector::from_parts(snap.api, snap.graph);
    let tin = engine.api().types().resolve("IFile").expect("IFile resolves");
    let tout = engine.api().types().resolve("ASTNode").expect("ASTNode resolves");
    engine.query(tin, tout).expect("query answers").suggestions.len()
}

fn main() {
    let quick = quick_mode();
    let rounds = if quick { 2 } else { 5 };

    println!("\n=== snapshot I/O (.pspk save, load and zero-copy map) ===\n");

    // Cold-build baseline: what a server pays when it has no index.
    let (build_us, built) =
        best_us(1, || build(&BuildOptions::default()).expect("assembles"));
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    let engine = built.prospector;
    println!("cold build + mine + generalize: {build_us:10.0} us");

    let dir = std::env::temp_dir().join("prospector-bench-snapshot");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("engine.pspk");

    let (save_us, _) = best_us(rounds, || {
        prospector_store::save_file(&path, engine.api(), engine.graph(), &mined)
            .expect("snapshot saves")
    });
    let bytes = std::fs::metadata(&path).expect("saved").len();
    let (load_us, loaded) =
        best_us(rounds, || prospector_store::load_file(&path).expect("snapshot loads").0);
    println!("snapshot:    save {save_us:10.0} us   load {load_us:10.0} us   {bytes:>9} bytes");

    // The zero-copy load: validate header + section CRCs once and hand
    // out borrowed views — O(sections checksummed), no per-element work.
    let (map_us, mapped) = best_us(rounds, || {
        let m = prospector_store::MappedSnapshot::map(&path).expect("snapshot maps");
        assert_eq!(m.manifest().sections.len(), 7);
        m.is_mapped()
    });
    println!("zero-copy (validate + mmap): {map_us:7.0} us   (mapped: {mapped})");

    // Warm start to first answer: load + engine assembly + one query.
    let (first_query_read_us, n1) = best_us(rounds, || {
        first_query(prospector_store::load_file(&path).expect("snapshot loads").0)
    });
    let (first_query_mmap_us, n2) = best_us(rounds, || {
        let m = prospector_store::MappedSnapshot::map(&path).expect("snapshot maps");
        first_query(m.thaw().expect("snapshot thaws"))
    });
    assert_eq!(n1, n2, "warm-started engines must answer identically");
    println!("first query:  read {first_query_read_us:9.0} us   mmap {first_query_mmap_us:7.0} us");

    // The loader must agree with the live engine before its time means
    // anything.
    assert_eq!(loaded.graph.edge_count(), engine.graph().edge_count());
    assert_eq!(loaded.graph.csr().out_to(), engine.graph().csr().out_to());

    let vs_build = build_us / load_us;
    // The headline number: the zero-copy (validate-only) map against the
    // full load. The deferred owned-API cost is not hidden — it shows up
    // in `first_query.mmap_us`.
    let zero_copy_speedup = load_us / map_us;
    println!("\nfull load: {vs_build:.2}x faster than a cold build");
    println!("zero-copy (validate-only) map: {zero_copy_speedup:.2}x faster than the full load\n");
    assert!(
        load_us < build_us,
        "snapshot load must beat the cold build ({load_us:.0} us vs {build_us:.0} us)"
    );
    if !quick {
        assert!(
            zero_copy_speedup >= 5.0,
            "zero-copy map must be >= 5x faster than the full load (got {zero_copy_speedup:.2}x)"
        );
    }

    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let doc = Json::obj(vec![
        ("bench", Json::Str("snapshot_io".to_owned())),
        ("rounds", Json::num_u(rounds as u64)),
        ("build_us", Json::Num(round1(build_us))),
        (
            "binary",
            Json::obj(vec![
                ("save_us", Json::Num(round1(save_us))),
                ("load_us", Json::Num(round1(load_us))),
                ("bytes", Json::num_u(bytes)),
            ]),
        ),
        (
            "zero_copy",
            Json::obj(vec![
                ("map_us", Json::Num(round1(map_us))),
                ("mapped", Json::Bool(mapped)),
            ]),
        ),
        (
            "first_query",
            Json::obj(vec![
                ("read_us", Json::Num(round1(first_query_read_us))),
                ("mmap_us", Json::Num(round1(first_query_mmap_us))),
            ]),
        ),
        ("zero_copy_speedup", Json::Num((zero_copy_speedup * 100.0).round() / 100.0)),
        ("load_vs_build", Json::Num((vs_build * 100.0).round() / 100.0)),
        ("quick", Json::Bool(quick)),
    ]);
    let out = std::env::var("BENCH_SNAPSHOT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("baseline file writes");
    println!("wrote {out}");

    std::fs::remove_file(&path).ok();
}
