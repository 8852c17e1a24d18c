//! Graphviz (DOT) rendering of jungloid-graph fragments — the library
//! form of the paper's Figures 1, 3, and 6.
//!
//! Whole-graph renderings are useless at API scale, so rendering is
//! neighborhood-based: pick root types, walk a bounded number of hops,
//! and emit the induced subgraph. Widening edges are dotted (they have no
//! syntax), downcasts are red, and mined typestate nodes are dashed —
//! matching the visual language of the paper's figures.

use std::fmt::Write as _;

use jungloid_apidef::Api;

use crate::graph::{JungloidGraph, NodeId};

/// Rendering options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DotOptions {
    /// How many hops out from the roots to include.
    pub hops: usize,
    /// Cap on rendered nodes (keeps hub types readable).
    pub max_nodes: usize,
    /// Include widening edges.
    pub show_widening: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions { hops: 1, max_nodes: 60, show_widening: true }
    }
}

/// Renders the neighborhood of `roots` as a DOT digraph.
///
/// Nodes unreachable within `options.hops` hops of a root are omitted;
/// edges are emitted only between included nodes.
#[must_use]
pub fn neighborhood(
    api: &Api,
    graph: &JungloidGraph,
    roots: &[NodeId],
    options: &DotOptions,
) -> String {
    let mut included: Vec<NodeId> = Vec::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for &r in roots {
        if !included.contains(&r) {
            included.push(r);
            frontier.push(r);
        }
    }
    for _ in 0..options.hops {
        let mut next = Vec::new();
        for &node in &frontier {
            for e in graph.out_edges(node) {
                if included.len() >= options.max_nodes {
                    break;
                }
                if !included.contains(&e.to) {
                    included.push(e.to);
                    next.push(e.to);
                }
            }
        }
        frontier = next;
    }

    let mut out = String::new();
    let _ = writeln!(out, "digraph jungloids {{");
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=box, fontname=\"Helvetica\"];");
    for &node in &included {
        let (label, style) = match node {
            NodeId::Ty(t) => (api.types().display_simple(t), ""),
            NodeId::Mined(i) => (
                format!("{}-{}", api.types().display_simple(graph.base_ty(node)), i + 1),
                ", style=dashed",
            ),
        };
        let _ = writeln!(out, "  \"{}\" [label=\"{}\"{}];", node_id(node), label, style);
    }
    for &node in &included {
        for e in graph.out_edges(node) {
            if !included.contains(&e.to) {
                continue;
            }
            if e.elem.is_widen() {
                if !options.show_widening {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\" [style=dotted, arrowhead=empty];",
                    node_id(node),
                    node_id(e.to)
                );
            } else {
                let color = if e.elem.is_downcast() { ", color=red" } else { "" };
                let _ = writeln!(
                    out,
                    "  \"{}\" -> \"{}\" [label=\"{}\"{color}];",
                    node_id(node),
                    node_id(e.to),
                    e.elem.label(api).replace('"', "'")
                );
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

fn node_id(node: NodeId) -> String {
    match node {
        NodeId::Ty(t) => format!("t{}", t.index()),
        NodeId::Mined(i) => format!("m{i}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use jungloid_apidef::ApiLoader;

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public class A { B toB(); }
                public class B extends A { C toC(); }
                public class C {}
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    #[test]
    fn renders_nodes_and_edges() {
        let api = api();
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = api.types().resolve("t.A").unwrap();
        let dot = neighborhood(&api, &graph, &[NodeId::Ty(a)], &DotOptions::default());
        assert!(dot.starts_with("digraph jungloids {"));
        assert!(dot.contains("label=\"A\""));
        assert!(dot.contains("label=\"B\""));
        assert!(dot.contains("A.toB"));
        // One hop: C (two hops away) is not included.
        assert!(!dot.contains("label=\"C\""));
    }

    #[test]
    fn hops_expand_the_neighborhood() {
        let api = api();
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = api.types().resolve("t.A").unwrap();
        let dot = neighborhood(
            &api,
            &graph,
            &[NodeId::Ty(a)],
            &DotOptions { hops: 2, ..DotOptions::default() },
        );
        assert!(dot.contains("label=\"C\""));
    }

    #[test]
    fn widening_edges_are_dotted_and_optional() {
        let api = api();
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let b = api.types().resolve("t.B").unwrap();
        let with = neighborhood(&api, &graph, &[NodeId::Ty(b)], &DotOptions::default());
        assert!(with.contains("style=dotted"));
        let without = neighborhood(
            &api,
            &graph,
            &[NodeId::Ty(b)],
            &DotOptions { show_widening: false, ..DotOptions::default() },
        );
        assert!(!without.contains("style=dotted"));
    }

    #[test]
    fn mined_nodes_dashed_and_downcasts_red() {
        let mut api = api();
        let _ = &mut api;
        let a = api.types().resolve("t.A").unwrap();
        let b = api.types().resolve("t.B").unwrap();
        let to_b = api.lookup_instance_method(a, "toB", 0)[0];
        let signature = JungloidGraph::from_api(&api, GraphConfig::default());
        let mut builder = crate::graph::GraphBuilder::from_graph(&signature);
        builder
            .add_example(
                &api,
                &[
                    jungloid_apidef::ElemJungloid::Call {
                        method: to_b,
                        input: Some(jungloid_apidef::InputSlot::Receiver),
                    },
                    jungloid_apidef::ElemJungloid::Widen { from: b, to: a },
                    jungloid_apidef::ElemJungloid::Downcast { from: a, to: b },
                ],
            )
            .unwrap();
        let graph = builder.freeze();
        let dot = neighborhood(
            &api,
            &graph,
            &[NodeId::Ty(a)],
            &DotOptions { hops: 3, ..DotOptions::default() },
        );
        assert!(dot.contains("style=dashed"), "{dot}");
        assert!(dot.contains("color=red"), "{dot}");
    }

    #[test]
    fn max_nodes_caps_output() {
        let api = api();
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = api.types().resolve("t.A").unwrap();
        let dot = neighborhood(
            &api,
            &graph,
            &[NodeId::Ty(a)],
            &DotOptions { hops: 5, max_nodes: 1, ..DotOptions::default() },
        );
        // Only the root survives.
        assert_eq!(dot.matches("shape=box").count(), 1);
        assert!(dot.contains("label=\"A\""));
    }
}
