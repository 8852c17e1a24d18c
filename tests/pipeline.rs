//! Cross-crate integration: the full mining pipeline (§4) from MiniJava
//! source through extraction, generalization, graph splicing, query
//! answering, and persistence.

use prospector_core::generalize::generalize;
use prospector_core::{GraphBuilder, JungloidGraph, Prospector};
use prospector_corpora::{build, build_default, corpus_units, eclipse_api, BuildOptions};

#[test]
fn figure2_chain_end_to_end() {
    let prospector = build_default();
    let api = prospector.api();
    let debug_view = api.types().resolve("IDebugView").unwrap();
    let expr = api.types().resolve("JavaInspectExpression").unwrap();
    let result = prospector.query(debug_view, expr).unwrap();
    let top = &result.suggestions[0];
    // Figure 2's jungloid, with both casts.
    assert!(top.code.contains("(IStructuredSelection)"));
    assert!(top.code.contains("(JavaInspectExpression)"));
    assert!(top.code.contains("getViewer()"));
    assert!(top.code.contains("getSelection()"));
    assert!(top.code.contains("getFirstElement()"));
    // And it is well-typed.
    top.jungloid.validate(api).unwrap();
    // The rendered code re-parses as MiniJava.
    jungloid_minijava::parse::parse_expr(&top.code).unwrap();
}

#[test]
fn mining_is_required_for_downcast_queries() {
    let baseline = build(&BuildOptions { mining: false, ..BuildOptions::default() })
        .unwrap()
        .prospector;
    let api = baseline.api();
    let debug_view = api.types().resolve("IDebugView").unwrap();
    let expr = api.types().resolve("JavaInspectExpression").unwrap();
    assert!(baseline.query(debug_view, expr).unwrap().suggestions.is_empty());
}

#[test]
fn generalization_extends_coverage() {
    // With generalization, an example mined from `page.getActivePart()`
    // lends its suffix to *other* producers of the same type; without it,
    // the examples stay whole. Verify via the Figure 7 ant corpus: the
    // generalized graph answers (Project, Target); and both configurations
    // answer the original full chain.
    let with = build(&BuildOptions::default()).unwrap().prospector;
    let without =
        build(&BuildOptions { generalize: false, ..BuildOptions::default() }).unwrap().prospector;

    let api = with.api();
    let project = api.types().resolve("Project").unwrap();
    let target = api.types().resolve("Target").unwrap();
    let r = with.query(project, target).unwrap();
    assert!(
        r.suggestions.iter().any(|s| s.code.contains("getTargets().get(")),
        "generalized suffix should answer (Project, Target): {:?}",
        r.suggestions.iter().map(|s| &s.code).collect::<Vec<_>>()
    );

    // Ungeneralized examples keep their prefixes, so the same query works
    // only from the example's full entry point (String buildFile).
    let api = without.api();
    let project = api.types().resolve("Project").unwrap();
    let target = api.types().resolve("Target").unwrap();
    let r2 = without.query(project, target).unwrap();
    assert!(
        r2.suggestions.iter().all(|s| !s.code.contains("getTargets().get(")),
        "ungeneralized graph should not have the suffix path from Project"
    );
    let string = api.types().resolve("java.lang.String").unwrap();
    let r3 = without.query(string, target).unwrap();
    assert!(
        r3.suggestions.iter().any(|s| s.code.contains("createProject(")),
        "ungeneralized graph should still answer from the example's entry type"
    );
}

#[test]
fn generalization_preserves_figure7_distinction() {
    // Mined raw examples: (Target) …getTargets().get() vs
    // (Task) …getTasks().get() — generalization must keep the
    // distinguishing call (Figure 7's area II), not collapse to bare
    // casts.
    let built = build(&BuildOptions::default()).unwrap();
    let report = built.mine_report.unwrap();
    let generalized = generalize(&report.examples);
    let api = built.prospector.api();
    let descs: Vec<String> = generalized
        .iter()
        .map(|e| e.iter().map(|s| s.label(api)).collect::<Vec<_>>().join(" . "))
        .collect();
    assert!(
        descs.iter().any(|d| d.contains("Project.getTargets") && d.ends_with("(Target)")),
        "got {descs:#?}"
    );
    assert!(
        descs.iter().any(|d| d.contains("Project.getTasks") && d.ends_with("(Task)")),
        "got {descs:#?}"
    );
    // And no bare `(Target)` / `(Task)` suffixes.
    assert!(!descs.iter().any(|d| d == "(Target)" || d == "(Task)"));
}

#[test]
fn corpus_examples_all_well_typed_and_spliceable() {
    let mut api = eclipse_api().unwrap();
    let units = corpus_units().unwrap();
    let lowered = jungloid_dataflow::LoweredCorpus::lower(&mut api, &units).unwrap();
    let miner = jungloid_dataflow::Miner::new(&api, &lowered);
    let report = miner.mine();
    assert!(report.examples.len() >= 10, "only {} examples mined", report.examples.len());
    let graph = JungloidGraph::from_api(&api, Default::default());
    let mut builder = GraphBuilder::from_graph(&graph);
    for e in &report.examples {
        builder.add_example(&api, e).unwrap_or_else(|err| panic!("{err}"));
        assert!(e.last().unwrap().is_downcast());
    }
    assert!(builder.freeze().edge_count() > graph.edge_count());
}

#[test]
fn persisted_engine_answers_identically() {
    let prospector = build_default();
    let bytes = prospector_store::to_bytes(prospector.api(), prospector.graph(), &[]);
    let loaded = prospector_store::from_bytes(&bytes).unwrap();
    let thawed = Prospector::from_parts(loaded.api, loaded.graph);

    for problem in prospector_corpora::problems::table1() {
        let a = prospector_corpora::report::run_problem(&prospector, &problem);
        let b = prospector_corpora::report::run_problem(&thawed, &problem);
        assert_eq!(a.rank, b.rank, "persisted engine diverges on P{}", problem.id);
        assert_eq!(a.candidates, b.candidates);
    }
}

#[test]
fn jungle_does_not_disturb_table1() {
    // The procedural jungle adds distractor mass but must not change the
    // hand-modeled answers (cross-links are rare and jungle types are
    // unreachable from the modeled tins at competitive cost).
    let spec = prospector_corpora::jungle::JungleSpec {
        classes: 400,
        ..prospector_corpora::jungle::JungleSpec::default()
    };
    let with_jungle = build(&BuildOptions { jungle: Some(spec), ..BuildOptions::default() })
        .unwrap()
        .prospector;
    let rows = prospector_corpora::report::run_table1(&with_jungle);
    let found = rows.iter().filter(|r| r.rank.is_some()).count();
    assert!(found >= 18, "jungle broke Table 1: found {found}/20");
}

#[test]
fn suggestions_globally_well_formed() {
    // Every suggestion for every Table 1 query: well-typed jungloid,
    // monotone rank keys, re-parseable code, correct input variable.
    let prospector = build_default();
    let api = prospector.api();
    for problem in prospector_corpora::problems::table1() {
        let tin = api.types().resolve(problem.tin).unwrap();
        let tout = api.types().resolve(problem.tout).unwrap();
        let result = prospector.query(tin, tout).unwrap();
        let mut prev: Option<&prospector_core::RankKey> = None;
        for s in result.suggestions.iter() {
            s.jungloid.validate(api).unwrap_or_else(|e| panic!("P{}: {e}", problem.id));
            assert_eq!(s.jungloid.source, tin);
            assert!(api.types().is_subtype(s.jungloid.output_ty(api), tout) || s.jungloid.output_ty(api) == tout);
            jungloid_minijava::parse::parse_expr(&s.code)
                .unwrap_or_else(|e| panic!("P{}: `{}`: {e}", problem.id, s.code));
            if let Some(p) = prev {
                assert!(p <= &s.key, "P{}: ranking not monotone", problem.id);
            }
            prev = Some(&s.key);
        }
    }
}
