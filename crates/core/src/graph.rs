//! The signature graph (§3.1) and its refinement with mined examples, the
//! jungloid graph (§4.2).
//!
//! Nodes are reference types (plus `void`); edges are non-downcast
//! elementary jungloids derived from the API's signatures. Every jungloid
//! supported by the API is a path in this graph, so synthesis is graph
//! search.
//!
//! Downcast edges are deliberately absent from the signature graph: adding
//! `(T) x : Object → T` for every `T` would represent mostly inviable
//! jungloids and, being short, they would crowd the top ranks (§4.1,
//! Figure 3). Instead, [`GraphBuilder::add_example`] splices in a path per
//! *mined* example jungloid, introducing a fresh node for every
//! intermediate object. Those fresh "typestate" nodes (the paper cites
//! Strom & Yemini) ensure the example lends viability only to jungloids
//! that reproduce its call sequence — Figure 6's `Object-1` node.
//!
//! As in the paper, the graph is assembled once and then only queried: a
//! [`GraphBuilder`] collects signature edges, example paths and (for the
//! ablation) naive downcasts, and [`GraphBuilder::freeze`] packs them into
//! the immutable CSR a [`JungloidGraph`] is made of.

use std::sync::atomic::{AtomicU64, Ordering};

use jungloid_apidef::elem::{elem_of_field, elems_of_method};
use jungloid_apidef::{Api, ElemJungloid, Visibility};
use jungloid_typesys::TyId;

use crate::slab::{ElemSeq, Slab};

/// Process-global epoch source. Every graph — frozen by a builder or
/// loaded from a snapshot — gets a distinct epoch, so an epoch-stamped
/// cache entry from one graph can never match another. Monotone and
/// process-wide, which keeps stamps valid even when an engine replaces
/// its graph in place.
static GRAPH_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    GRAPH_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A node: an API type or a fresh mined (typestate) node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The node for an interned type.
    Ty(TyId),
    /// The `i`-th fresh node introduced by mined examples.
    Mined(u32),
}

/// An out-edge: an elementary jungloid and its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The elementary jungloid this edge represents.
    pub elem: ElemJungloid,
    /// Destination node.
    pub to: NodeId,
}

/// Construction options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[derive(Default)]
pub struct GraphConfig {
    /// Include `protected` members. The paper's implementation supports
    /// public members only and loses one Table 1 query to that (§7); this
    /// switch implements the fix it proposes.
    pub include_protected: bool,
    /// The §4.3 extension: exclude signature edges that consume an
    /// `Object`- or `String`-typed *parameter* slot — the call sites the
    /// paper observes are "usually not any Object or String" — so that
    /// only parameter-mined examples
    /// ([`Prospector::add_param_examples`](crate::Prospector::add_param_examples))
    /// drive values into such parameters. Off by default (the paper left
    /// this untested).
    pub restrict_weak_params: bool,
}


/// Per-kind composition of a jungloid graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total nodes.
    pub nodes: usize,
    /// Mined typestate nodes.
    pub mined_nodes: usize,
    /// Spliced example paths.
    pub examples: usize,
    /// Field-access edges.
    pub field_edges: usize,
    /// Instance-call edges.
    pub instance_edges: usize,
    /// Static-call edges.
    pub static_edges: usize,
    /// Constructor edges.
    pub constructor_edges: usize,
    /// Widening edges.
    pub widening_edges: usize,
    /// Downcast edges (only from mined paths, unless naive downcasts were
    /// added).
    pub downcast_edges: usize,
}

impl GraphStats {
    /// Total edges.
    #[must_use]
    pub fn total_edges(&self) -> usize {
        self.field_edges
            + self.instance_edges
            + self.static_edges
            + self.constructor_edges
            + self.widening_edges
            + self.downcast_edges
    }
}

/// Compressed-sparse-row (CSR) adjacency — the only representation of a
/// [`JungloidGraph`]'s edges, and the query hot path's view of them.
///
/// All edges are packed into contiguous arrays indexed by dense node
/// index — `off[n]..off[n+1]` spans node `n`'s edges — in
/// structure-of-arrays form so the 0-1 BFS touches only `(from, cost)` and
/// the DFS touches only `(to, cost, elem)`. The reverse side is the
/// transpose of the forward side.
///
/// A CSR is built exactly once per graph, by [`GraphBuilder::freeze`], or
/// restored verbatim from a snapshot ([`CsrAdjacency::from_slabs`]); it is
/// never mutated afterwards.
///
/// Each array is a [`Slab`]: either owned (built in memory) or borrowed
/// straight out of a snapshot buffer ([`SnapshotBuf`]), in which case
/// loading the graph copies no edge data at all. The elementary jungloids
/// are an [`ElemSeq`]: owned structs when built, or the snapshot's packed
/// 4×`u32` quads decoded on access.
#[derive(Clone, Debug, Default)]
pub struct CsrAdjacency {
    /// Forward offsets; `len = node_count + 1`.
    fwd_off: Slab<u32>,
    /// Destination dense index per forward edge.
    fwd_to: Slab<u32>,
    /// Elementary jungloid per forward edge.
    fwd_elem: ElemSeq,
    /// Step cost per forward edge (0 for widening).
    fwd_cost: Slab<u8>,
    /// Reverse offsets; `len = node_count + 1`.
    rev_off: Slab<u32>,
    /// Source dense index per reverse edge.
    rev_from: Slab<u32>,
    /// Step cost per reverse edge.
    rev_cost: Slab<u8>,
}

/// Step cost of an edge in the 0-1 BFS: widening is free.
fn step_cost(elem: ElemJungloid) -> u8 {
    u8::from(!elem.is_widen())
}

fn dense(index: usize) -> u32 {
    u32::try_from(index).expect("node and edge arenas fit u32")
}

impl CsrAdjacency {
    /// Node count covered by this layout.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.fwd_off.len().saturating_sub(1)
    }

    /// Edge count (forward == reverse).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.fwd_to.len()
    }

    /// Index range of `node`'s forward edges within the flat arrays.
    #[must_use]
    pub fn out_range(&self, node: usize) -> std::ops::Range<usize> {
        self.fwd_off[node] as usize..self.fwd_off[node + 1] as usize
    }

    /// Forward offset array (`len = node_count + 1`); `off[n]..off[n+1]`
    /// spans node `n`'s edges in the flat forward arrays.
    #[must_use]
    pub fn out_offsets(&self) -> &[u32] {
        &self.fwd_off
    }

    /// Reverse offset array (`len = node_count + 1`), mirroring
    /// [`CsrAdjacency::out_offsets`] for the in-edge arrays.
    #[must_use]
    pub fn in_offsets(&self) -> &[u32] {
        &self.rev_off
    }

    /// Reassembles a CSR from stored arrays (the `prospector-store`
    /// snapshot loader), validating structure so a corrupt file can never
    /// produce an index-out-of-bounds panic on the query hot path:
    /// offsets must start at zero, grow monotonically, and end at the
    /// edge count; forward and reverse edge counts must agree; every
    /// dense index must be in range; and each stored cost must equal the
    /// cost a builder derives from its elementary jungloid.
    ///
    /// The arrays may borrow directly from a snapshot buffer (the
    /// zero-copy load) or be owned. Elementary jungloids are consulted
    /// through the [`ElemSeq`] accessor, so packed quads are decoded once
    /// here and then again lazily on the hot path.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the violated invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn from_slabs(
        fwd_off: Slab<u32>,
        fwd_to: Slab<u32>,
        fwd_elem: ElemSeq,
        fwd_cost: Slab<u8>,
        rev_off: Slab<u32>,
        rev_from: Slab<u32>,
        rev_cost: Slab<u8>,
    ) -> Result<CsrAdjacency, SnapshotError> {
        let fail = |detail: String| Err(SnapshotError { detail });
        if fwd_off.is_empty() || rev_off.len() != fwd_off.len() {
            return fail(format!(
                "offset arrays must be non-empty and equal-length (fwd {}, rev {})",
                fwd_off.len(),
                rev_off.len()
            ));
        }
        let node_count = fwd_off.len() - 1;
        let edge_count = fwd_to.len();
        if fwd_elem.len() != edge_count || fwd_cost.len() != edge_count {
            return fail(format!(
                "forward arrays disagree on edge count ({edge_count} to, {} elem, {} cost)",
                fwd_elem.len(),
                fwd_cost.len()
            ));
        }
        if rev_from.len() != edge_count || rev_cost.len() != edge_count {
            return fail(format!(
                "reverse arrays hold {} edges, forward {edge_count}",
                rev_from.len()
            ));
        }
        for (name, off, flat_len) in
            [("forward", &fwd_off, fwd_to.len()), ("reverse", &rev_off, rev_from.len())]
        {
            if off[0] != 0 {
                return fail(format!("{name} offsets must start at 0"));
            }
            if off.windows(2).any(|w| w[0] > w[1]) {
                return fail(format!("{name} offsets must be monotone"));
            }
            if off[node_count] as usize != flat_len {
                return fail(format!(
                    "{name} offsets end at {} but {flat_len} edges are stored",
                    off[node_count]
                ));
            }
        }
        let bound = u32::try_from(node_count)
            .map_err(|_| SnapshotError { detail: "node count exceeds u32".to_owned() })?;
        if let Some(&bad) = fwd_to.iter().chain(rev_from.iter()).find(|&&n| n >= bound) {
            return fail(format!("edge endpoint {bad} out of range ({node_count} nodes)"));
        }
        for (i, elem) in fwd_elem.iter().enumerate() {
            if fwd_cost[i] != step_cost(elem) {
                return fail(format!("forward edge {i} cost disagrees with its jungloid kind"));
            }
        }
        if let Some(&bad) = rev_cost.iter().find(|&&c| c > 1) {
            return fail(format!("reverse edge cost {bad} out of range (0-1 BFS costs)"));
        }
        Ok(CsrAdjacency { fwd_off, fwd_to, fwd_elem, fwd_cost, rev_off, rev_from, rev_cost })
    }

    /// Destination dense indices, all nodes' edges concatenated.
    #[must_use]
    pub fn out_to(&self) -> &[u32] {
        &self.fwd_to
    }

    /// Elementary jungloids, parallel to [`CsrAdjacency::out_to`]. An
    /// [`ElemSeq`]: owned structs or packed snapshot quads decoded per
    /// access — index with [`ElemSeq::get`].
    #[must_use]
    pub fn out_elem(&self) -> &ElemSeq {
        &self.fwd_elem
    }

    /// True if any array borrows from a snapshot buffer rather than
    /// owning its storage (the zero-copy load path).
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.fwd_off.is_borrowed()
            || self.fwd_to.is_borrowed()
            || self.fwd_cost.is_borrowed()
            || self.rev_off.is_borrowed()
            || self.rev_from.is_borrowed()
            || self.rev_cost.is_borrowed()
            || self.fwd_elem.is_packed()
    }

    /// Step costs, parallel to [`CsrAdjacency::out_to`].
    #[must_use]
    pub fn out_cost(&self) -> &[u8] {
        &self.fwd_cost
    }

    /// Index range of `node`'s reverse edges within the flat arrays.
    #[must_use]
    pub fn in_range(&self, node: usize) -> std::ops::Range<usize> {
        self.rev_off[node] as usize..self.rev_off[node + 1] as usize
    }

    /// Source dense indices, all nodes' in-edges concatenated.
    #[must_use]
    pub fn in_from(&self) -> &[u32] {
        &self.rev_from
    }

    /// Step costs, parallel to [`CsrAdjacency::in_from`].
    #[must_use]
    pub fn in_cost(&self) -> &[u8] {
        &self.rev_cost
    }

    /// In-memory footprint of the flat arrays in bytes. Packed jungloid
    /// quads occupy 16 bytes each in the snapshot buffer; owned ones the
    /// in-memory struct size.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let elem = if self.fwd_elem.is_packed() { 16 } else { std::mem::size_of::<ElemJungloid>() };
        (self.fwd_off.len() + self.rev_off.len()) * 4
            + self.fwd_to.len() * (4 + 1)
            + self.fwd_elem.len() * elem
            + self.rev_from.len() * (4 + 1)
    }
}

/// A structurally invalid stored graph snapshot (binary `.pspk` sections
/// that decoded cleanly but describe an impossible graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    /// Explanation of the violated invariant.
    pub detail: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid graph snapshot: {}", self.detail)
    }
}

impl std::error::Error for SnapshotError {}

/// An invalid mined example.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExampleError {
    /// Explanation.
    pub detail: String,
}

impl std::fmt::Display for ExampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid example jungloid: {}", self.detail)
    }
}

impl std::error::Error for ExampleError {}

/// Collects a jungloid graph's nodes and edges and
/// [`freeze`](GraphBuilder::freeze)s them into an immutable
/// [`JungloidGraph`] exactly once.
///
/// Per-node edge order is insertion order, on both the forward and the
/// reverse side. When extending an existing graph
/// ([`GraphBuilder::from_graph`]), each node's rows from that graph come
/// first and the appended edges follow in the order they were added — so
/// splicing a batch of examples at once yields the same CSR as splicing
/// them one at a time. Search enumeration order and the snapshot bytes
/// depend on this order.
#[derive(Debug)]
pub struct GraphBuilder<'g> {
    config: GraphConfig,
    ty_count: u32,
    mined_base: Vec<TyId>,
    examples: Vec<Vec<ElemJungloid>>,
    /// How many of `examples` the extended graph already had.
    base_examples: usize,
    /// The graph being extended; its rows precede every appended edge.
    base: Option<&'g CsrAdjacency>,
    /// Appended edges as `(from, elem, to)` dense indices, in insertion
    /// order.
    edges: Vec<(u32, ElemJungloid, u32)>,
}

impl<'g> GraphBuilder<'g> {
    /// The signature graph of an API (§3.1): field, call, and widening
    /// edges; no downcasts.
    #[must_use]
    pub fn from_api(api: &Api, config: GraphConfig) -> Self {
        let mut builder = GraphBuilder {
            config,
            ty_count: dense(api.types().len()),
            mined_base: Vec::new(),
            examples: Vec::new(),
            base_examples: 0,
            base: None,
            edges: Vec::new(),
        };
        let visible = |v: Visibility| match v {
            Visibility::Public => true,
            Visibility::Protected => config.include_protected,
            Visibility::Private => false,
        };
        for f in api.field_ids() {
            // Definition 2: the output must be a class type, so
            // primitive-typed fields induce no elementary jungloid.
            if visible(api.field(f).visibility) && api.types().is_reference(api.field(f).ty) {
                builder.push_between_types(api, elem_of_field(f));
            }
        }
        let weak_tys: Vec<TyId> = if config.restrict_weak_params {
            [api.types().object(), api.types().resolve("java.lang.String").ok()]
                .into_iter()
                .flatten()
                .collect()
        } else {
            Vec::new()
        };
        for m in api.method_ids() {
            if visible(api.method(m).visibility) {
                for elem in elems_of_method(api, m) {
                    // §4.3 restriction: drop edges that feed a weakly
                    // typed parameter slot.
                    if let ElemJungloid::Call { method, input: Some(jungloid_apidef::InputSlot::Arg(i)) } =
                        elem
                    {
                        if weak_tys.contains(&api.method(method).params[i]) {
                            continue;
                        }
                    }
                    builder.push_between_types(api, elem);
                }
            }
        }
        // Widening edges along direct supertype links (transitive widening
        // arises by composing them, at zero cost).
        for t in api.types().ids() {
            for sup in api.types().direct_supertypes(t) {
                builder.push_between_types(api, ElemJungloid::Widen { from: t, to: sup });
            }
        }
        builder
    }

    /// Appends an edge from the node of `elem`'s input type to the node of
    /// its output type.
    fn push_between_types(&mut self, api: &Api, elem: ElemJungloid) {
        let (from, to) = (elem.input_ty(api).index(), elem.output_ty(api).index());
        self.edges.push((dense(from), elem, dense(to)));
    }

    /// Starts from an existing graph: its nodes, spliced examples and
    /// edges, which keep their order ahead of anything added here.
    #[must_use]
    pub fn from_graph(graph: &'g JungloidGraph) -> Self {
        GraphBuilder {
            config: graph.config,
            ty_count: graph.ty_count,
            mined_base: graph.mined_base.clone(),
            examples: graph.examples.clone(),
            base_examples: graph.examples.len(),
            base: Some(&graph.csr),
            edges: Vec::new(),
        }
    }

    /// Splices a mined example jungloid into the graph (§4.2, Figure 6).
    ///
    /// The path starts at the existing node for the example's input type,
    /// runs through fresh mined nodes for every intermediate object, and
    /// its final step lands on the existing node for the final output type
    /// (for a downcast-terminated example, the cast's target).
    ///
    /// Returns `false` (and adds nothing) if an identical step sequence was
    /// already spliced in.
    ///
    /// # Errors
    ///
    /// The steps must be non-empty and well-typed (each step's input type
    /// equal to its predecessor's output type). A rejected example adds
    /// nothing.
    pub fn add_example(&mut self, api: &Api, steps: &[ElemJungloid]) -> Result<bool, ExampleError> {
        if steps.is_empty() {
            return Err(ExampleError { detail: "empty step sequence".to_owned() });
        }
        for pair in steps.windows(2) {
            let out_ty = pair[0].output_ty(api);
            let in_ty = pair[1].input_ty(api);
            if out_ty != in_ty {
                return Err(ExampleError {
                    detail: format!(
                        "ill-typed composition: {} outputs {} but {} expects {}",
                        pair[0].label(api),
                        api.types().display(out_ty),
                        pair[1].label(api),
                        api.types().display(in_ty)
                    ),
                });
            }
        }
        for step in steps {
            match *step {
                ElemJungloid::Widen { from, to }
                    if from == to || !api.types().is_subtype(from, to) =>
                {
                    return Err(ExampleError {
                        detail: format!(
                            "invalid widening {} -> {}",
                            api.types().display(from),
                            api.types().display(to)
                        ),
                    })
                }
                ElemJungloid::Downcast { from, to }
                    if from == to || !api.types().is_subtype(to, from) =>
                {
                    return Err(ExampleError {
                        detail: format!(
                            "invalid downcast {} -> {}",
                            api.types().display(from),
                            api.types().display(to)
                        ),
                    })
                }
                _ => {}
            }
        }
        if self.examples.iter().any(|e| e == steps) {
            return Ok(false);
        }
        let mut from = dense(steps[0].input_ty(api).index());
        for (i, &elem) in steps.iter().enumerate() {
            let to = if i + 1 == steps.len() {
                dense(elem.output_ty(api).index())
            } else {
                // A fresh typestate node for the intermediate object.
                self.mined_base.push(elem.output_ty(api));
                self.ty_count + dense(self.mined_base.len() - 1)
            };
            self.edges.push((from, elem, to));
            from = to;
        }
        self.examples.push(steps.to_vec());
        Ok(true)
    }

    /// Adds *all downcast elementary jungloids*: `(U) x : T → U` for every
    /// declared `U <: T`. This is the naive strategy of §4.1 / Figure 3,
    /// reproduced for the mining-ablation experiment; it is intentionally
    /// terrible.
    pub fn add_naive_downcasts(&mut self, api: &Api) {
        for t in api.types().ids() {
            if !api.types().is_reference(t) || t == api.types().null() {
                continue;
            }
            for sub in api.types().strict_subtypes(t) {
                self.push_between_types(api, ElemJungloid::Downcast { from: t, to: sub });
            }
        }
    }

    /// Packs the graph into its CSR and stamps a fresh epoch. Each node's
    /// rows are the base graph's rows followed by the appended edges in
    /// insertion order: a stable counting sort of the appended edges by
    /// source (forward side) and by destination (reverse side), merged
    /// behind the base rows.
    #[must_use]
    pub fn freeze(self) -> JungloidGraph {
        let n = self.ty_count as usize + self.mined_base.len();
        let spliced = self.examples.len() - self.base_examples;
        let total = self.base.map_or(0, CsrAdjacency::edge_count) + self.edges.len();
        let (fwd_start, fwd_order) = group_by(n, &self.edges, |&(from, _, _)| from);
        let (rev_start, rev_order) = group_by(n, &self.edges, |&(_, _, to)| to);

        let mut fwd_off = Vec::with_capacity(n + 1);
        let mut fwd_to = Vec::with_capacity(total);
        let mut fwd_elem = Vec::with_capacity(total);
        let mut rev_off = Vec::with_capacity(n + 1);
        let mut rev_from = Vec::with_capacity(total);
        let mut rev_cost = Vec::with_capacity(total);
        fwd_off.push(0);
        rev_off.push(0);
        for node in 0..n {
            if let Some(base) = self.base.filter(|b| node < b.node_count()) {
                for flat in base.out_range(node) {
                    fwd_to.push(base.out_to()[flat]);
                    fwd_elem.push(base.out_elem().get(flat));
                }
                for flat in base.in_range(node) {
                    rev_from.push(base.in_from()[flat]);
                    rev_cost.push(base.in_cost()[flat]);
                }
            }
            for &i in &fwd_order[fwd_start[node] as usize..fwd_start[node + 1] as usize] {
                let (_, elem, to) = self.edges[i as usize];
                fwd_to.push(to);
                fwd_elem.push(elem);
            }
            for &i in &rev_order[rev_start[node] as usize..rev_start[node + 1] as usize] {
                let (from, elem, _) = self.edges[i as usize];
                rev_from.push(from);
                rev_cost.push(step_cost(elem));
            }
            fwd_off.push(dense(fwd_to.len()));
            rev_off.push(dense(rev_from.len()));
        }
        let fwd_cost: Vec<u8> = fwd_elem.iter().map(|&e| step_cost(e)).collect();
        let csr = CsrAdjacency {
            fwd_off: Slab::from_vec(fwd_off),
            fwd_to: Slab::from_vec(fwd_to),
            fwd_elem: ElemSeq::Owned(fwd_elem),
            fwd_cost: Slab::from_vec(fwd_cost),
            rev_off: Slab::from_vec(rev_off),
            rev_from: Slab::from_vec(rev_from),
            rev_cost: Slab::from_vec(rev_cost),
        };
        let graph = JungloidGraph {
            config: self.config,
            ty_count: self.ty_count,
            mined_base: self.mined_base,
            examples: self.examples,
            csr,
            epoch: next_epoch(),
        };
        prospector_obs::add("graph.csr.rebuilds", 1);
        if spliced > 0 {
            prospector_obs::add("graph.examples_spliced", spliced as u64);
        }
        graph.publish_gauges();
        // Flight-recorder hook: a new graph invalidates every cached
        // distance field, so a freeze mid-trace explains a burst of cache
        // misses.
        prospector_obs::trace::process_event("graph", "csr_rebuild", graph.edge_count() as u64);
        graph
    }
}

/// A stable counting sort of `edges` by `key`: returns per-key start
/// offsets (`len = n + 1`) and the edge indices grouped by key, each group
/// in insertion order.
fn group_by(
    n: usize,
    edges: &[(u32, ElemJungloid, u32)],
    key: impl Fn(&(u32, ElemJungloid, u32)) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for e in edges {
        start[key(e) as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut cursor = start.clone();
    let mut order = vec![0u32; edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let slot = &mut cursor[key(e) as usize];
        order[*slot as usize] = dense(i);
        *slot += 1;
    }
    (start, order)
}

/// The jungloid graph: signature edges plus mined example paths, frozen
/// into one immutable CSR. Built by a [`GraphBuilder`] or restored from a
/// snapshot; to add edges, extend it with [`GraphBuilder::from_graph`]
/// and freeze a new graph.
#[derive(Clone, Debug)]
pub struct JungloidGraph {
    config: GraphConfig,
    /// Number of type-backed nodes (= type-table size at build time).
    ty_count: u32,
    /// Base type of each mined node (the static type at that program
    /// point; used for display and ranking).
    mined_base: Vec<TyId>,
    /// Example step-sequences already spliced in (dedup).
    examples: Vec<Vec<ElemJungloid>>,
    /// The adjacency, forward and reverse; nodes are indexed types first,
    /// then mined.
    csr: CsrAdjacency,
    /// This graph's epoch (see [`JungloidGraph::epoch`]).
    epoch: u64,
}

impl JungloidGraph {
    /// Builds the signature graph of an API (§3.1): field, call, and
    /// widening edges; no downcasts.
    #[must_use]
    pub fn from_api(api: &Api, config: GraphConfig) -> Self {
        GraphBuilder::from_api(api, config).freeze()
    }

    /// Restores a graph from a stored snapshot: the CSR arrays verbatim
    /// (already validated by [`CsrAdjacency::from_slabs`]) plus the mined
    /// node bases and example step-sequences. Nothing is rebuilt — the
    /// CSR may borrow directly from the snapshot buffer — so a warm start
    /// records no `graph.csr.rebuilds`.
    ///
    /// # Errors
    ///
    /// Fails if the CSR's node count disagrees with
    /// `api.types().len() + mined_base.len()` or a mined base type is out
    /// of range. Elementary jungloids inside `csr` and `examples` must
    /// already be validated against `api` (the store's section decoder
    /// does this).
    pub fn from_snapshot(
        api: &Api,
        config: GraphConfig,
        mined_base: Vec<TyId>,
        examples: Vec<Vec<ElemJungloid>>,
        csr: CsrAdjacency,
    ) -> Result<JungloidGraph, SnapshotError> {
        let ty_count = u32::try_from(api.types().len())
            .map_err(|_| SnapshotError { detail: "type arena exceeds u32".to_owned() })?;
        let node_count = ty_count as usize + mined_base.len();
        if csr.node_count() != node_count {
            return Err(SnapshotError {
                detail: format!(
                    "CSR covers {} nodes but the API and mined bases imply {node_count}",
                    csr.node_count()
                ),
            });
        }
        if let Some(bad) = mined_base.iter().find(|t| t.index() >= ty_count as usize) {
            return Err(SnapshotError {
                detail: format!("mined base type {bad:?} out of range ({ty_count} types)"),
            });
        }
        // The reverse side must be the transpose of the forward side; the
        // cheap certificate is matching per-node in-degrees.
        let mut indegree = vec![0u32; node_count];
        for &to in csr.out_to() {
            indegree[to as usize] += 1;
        }
        for (node, &expected) in indegree.iter().enumerate() {
            if csr.in_range(node).len() != expected as usize {
                return Err(SnapshotError {
                    detail: format!("node {node} in-degree disagrees between CSR sides"),
                });
            }
        }
        let graph =
            JungloidGraph { config, ty_count, mined_base, examples, csr, epoch: next_epoch() };
        graph.publish_gauges();
        Ok(graph)
    }

    fn publish_gauges(&self) {
        prospector_obs::gauge_set("graph.nodes", self.node_count() as u64);
        prospector_obs::gauge_set("graph.edges", self.edge_count() as u64);
        prospector_obs::gauge_set("graph.csr.edges", self.csr.edge_count() as u64);
        prospector_obs::gauge_set("graph.csr.bytes", self.csr.approx_bytes() as u64);
    }

    /// The graph's CSR adjacency.
    #[must_use]
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// The configuration the graph was built with.
    #[must_use]
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// The epoch of this graph. Distinct for every graph a builder freezes
    /// or a snapshot load restores, so anything derived from the graph —
    /// cached query results in particular — can stamp itself with the
    /// epoch and detect staleness by comparison alone.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total node count (type nodes + mined nodes).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ty_count as usize + self.mined_base.len()
    }

    /// Number of mined (typestate) nodes.
    #[must_use]
    pub fn mined_node_count(&self) -> usize {
        self.mined_base.len()
    }

    /// Total edge count.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.csr.edge_count()
    }

    /// The mined example step-sequences spliced into this graph.
    #[must_use]
    pub fn examples(&self) -> &[Vec<ElemJungloid>] {
        &self.examples
    }

    /// Dense index of a node.
    #[must_use]
    pub fn index_of(&self, node: NodeId) -> usize {
        match node {
            NodeId::Ty(t) => t.index(),
            NodeId::Mined(i) => self.ty_count as usize + i as usize,
        }
    }

    /// The node at a dense index.
    #[must_use]
    pub fn node_at(&self, index: usize) -> NodeId {
        if index < self.ty_count as usize {
            NodeId::Ty(TyId::from_index(index))
        } else {
            NodeId::Mined(u32::try_from(index - self.ty_count as usize).expect("mined fits u32"))
        }
    }

    /// The underlying type of a node: the type itself, or a mined node's
    /// static ("base") type.
    #[must_use]
    pub fn base_ty(&self, node: NodeId) -> TyId {
        match node {
            NodeId::Ty(t) => t,
            NodeId::Mined(i) => self.mined_base[i as usize],
        }
    }

    /// Out-edges of a node, read from the CSR. Returned by value so owned
    /// and zero-copy loaded graphs answer identically.
    #[must_use]
    pub fn out_edges(&self, node: NodeId) -> Vec<Edge> {
        let idx = self.index_of(node);
        self.csr
            .out_range(idx)
            .map(|flat| Edge {
                elem: self.csr.out_elem().get(flat),
                to: self.node_at(self.csr.out_to()[flat] as usize),
            })
            .collect()
    }

    /// In-edges of a node as `(from, step_cost)` pairs, read from the CSR
    /// like [`JungloidGraph::out_edges`].
    #[must_use]
    pub fn in_edges(&self, node: NodeId) -> Vec<(NodeId, u8)> {
        let idx = self.index_of(node);
        self.csr
            .in_range(idx)
            .map(|flat| (self.node_at(self.csr.in_from()[flat] as usize), self.csr.in_cost()[flat]))
            .collect()
    }

    /// A copy of this graph with *all downcast elementary jungloids*
    /// added (see [`GraphBuilder::add_naive_downcasts`]) — the naive
    /// strategy of §4.1 / Figure 3, for the mining-ablation experiment.
    #[must_use]
    pub fn with_naive_downcasts(&self, api: &Api) -> JungloidGraph {
        let mut builder = GraphBuilder::from_graph(self);
        builder.add_naive_downcasts(api);
        builder.freeze()
    }

    /// Per-kind edge statistics (the §3.1/§4.2 composition of the graph).
    #[must_use]
    pub fn stats(&self, api: &Api) -> GraphStats {
        let mut stats = GraphStats {
            nodes: self.node_count(),
            mined_nodes: self.mined_node_count(),
            examples: self.examples.len(),
            ..GraphStats::default()
        };
        for elem in self.csr.out_elem().iter() {
            match elem {
                ElemJungloid::FieldAccess { .. } => stats.field_edges += 1,
                ElemJungloid::Call { method, .. } => {
                    let def = api.method(method);
                    if def.is_constructor {
                        stats.constructor_edges += 1;
                    } else if def.is_static {
                        stats.static_edges += 1;
                    } else {
                        stats.instance_edges += 1;
                    }
                }
                ElemJungloid::Widen { .. } => stats.widening_edges += 1,
                ElemJungloid::Downcast { .. } => stats.downcast_edges += 1,
            }
        }
        stats
    }

    /// Rough in-memory footprint in bytes (the CSR plus the mined node
    /// bases), for the §5 size report.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.mined_base.len() * 4 + self.csr.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::{ApiLoader, InputSlot};

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public class A { B toB(); }
                public class B extends A {}
                public class C {
                    C(A a);
                    static B make(A a, B b);
                    protected B prot();
                    private B priv();
                    static C instance();
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn ty(api: &Api, name: &str) -> TyId {
        api.types().resolve(name).unwrap()
    }

    /// `a.toB()` widened to Object, then cast back down to B.
    fn cast_example(api: &Api) -> Vec<ElemJungloid> {
        let a = ty(api, "t.A");
        let b = ty(api, "t.B");
        let obj = api.types().object().unwrap();
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            ElemJungloid::Widen { from: b, to: obj },
            ElemJungloid::Downcast { from: obj, to: b },
        ]
    }

    fn with_examples(
        api: &Api,
        graph: &JungloidGraph,
        examples: &[Vec<ElemJungloid>],
    ) -> JungloidGraph {
        let mut builder = GraphBuilder::from_graph(graph);
        for e in examples {
            builder.add_example(api, e).unwrap();
        }
        builder.freeze()
    }

    #[test]
    fn signature_edges_present() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let c = ty(&api, "t.C");

        // a.toB(): A -> B
        let out_a = g.out_edges(NodeId::Ty(a));
        assert!(out_a.iter().any(|e| e.to == NodeId::Ty(b) && !e.elem.is_widen()));
        // new C(a): A -> C
        assert!(out_a.iter().any(|e| e.to == NodeId::Ty(c)));
        // C.make consumes either A or B.
        assert!(g.out_edges(NodeId::Ty(b)).iter().any(|e| e.to == NodeId::Ty(b)));
        // static C.instance(): void -> C
        let void = api.types().void();
        assert!(g.out_edges(NodeId::Ty(void)).iter().any(|e| e.to == NodeId::Ty(c)));
    }

    #[test]
    fn widening_edges_follow_hierarchy() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let obj = api.types().object().unwrap();
        let widens: Vec<_> =
            g.out_edges(NodeId::Ty(b)).into_iter().filter(|e| e.elem.is_widen()).collect();
        assert_eq!(widens.len(), 1);
        assert_eq!(widens[0].to, NodeId::Ty(a));
        assert!(g.out_edges(NodeId::Ty(a)).iter().any(|e| e.elem.is_widen() && e.to == NodeId::Ty(obj)));
    }

    #[test]
    fn no_downcast_edges_in_signature_graph() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        for idx in 0..g.node_count() {
            for e in g.out_edges(g.node_at(idx)) {
                assert!(!e.elem.is_downcast());
            }
        }
    }

    #[test]
    fn visibility_filtering() {
        let api = api();
        let c = ty(&api, "t.C");
        let count_from_c = |g: &JungloidGraph| {
            g.out_edges(NodeId::Ty(c)).iter().filter(|e| !e.elem.is_widen()).count()
        };
        let public_only = JungloidGraph::from_api(&api, GraphConfig::default());
        let with_protected = JungloidGraph::from_api(
            &api,
            GraphConfig { include_protected: true, ..GraphConfig::default() },
        );
        // `prot()` appears only with include_protected; `priv()` never.
        assert_eq!(count_from_c(&public_only) + 1, count_from_c(&with_protected));
    }

    #[test]
    fn reverse_edges_mirror_forward() {
        let api = api();
        let g = with_examples(
            &api,
            &JungloidGraph::from_api(&api, GraphConfig::default()),
            &[cast_example(&api)],
        );
        let mut forward = Vec::new();
        let mut reverse = Vec::new();
        for idx in 0..g.node_count() {
            let n = g.node_at(idx);
            for e in g.out_edges(n) {
                forward.push((n, e.to, u8::from(!e.elem.is_widen())));
            }
            for (from, cost) in g.in_edges(n) {
                reverse.push((from, n, cost));
            }
        }
        assert_eq!(forward.len(), g.edge_count());
        forward.sort_unstable();
        reverse.sort_unstable();
        assert_eq!(forward, reverse, "the reverse side is the transpose of the forward side");
    }

    #[test]
    fn add_example_creates_typestate_path() {
        let api = api();
        let base = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let steps = cast_example(&api);
        let mut builder = GraphBuilder::from_graph(&base);
        assert!(builder.add_example(&api, &steps).unwrap());
        // Duplicate insert is a no-op.
        assert!(!builder.add_example(&api, &steps).unwrap());
        let g = builder.freeze();
        assert_eq!(g.mined_node_count(), 2);
        assert_eq!(g.edge_count(), base.edge_count() + 3);
        // A graph that already holds the example dedups against it.
        assert!(!GraphBuilder::from_graph(&g).add_example(&api, &steps).unwrap());

        // The path enters at A and its last edge lands on the real B node.
        let first: Vec<_> = g
            .out_edges(NodeId::Ty(a))
            .into_iter()
            .filter(|e| matches!(e.to, NodeId::Mined(_)))
            .collect();
        assert_eq!(first.len(), 1);
        let mid = first[0].to;
        assert_eq!(g.base_ty(mid), b);
        let second = g.out_edges(mid)[0];
        assert!(second.elem.is_widen());
        let last = g.out_edges(second.to)[0];
        assert!(last.elem.is_downcast());
        assert_eq!(last.to, NodeId::Ty(b));
    }

    #[test]
    fn ill_typed_example_rejected() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let c = ty(&api, "t.C");
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        let steps = vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            // B is not C: composition is ill-typed.
            ElemJungloid::Downcast { from: c, to: c },
        ];
        let mut builder = GraphBuilder::from_graph(&g);
        assert!(builder.add_example(&api, &steps).is_err());
        assert!(builder.add_example(&api, &[]).is_err());
        // A rejected example adds nothing.
        let frozen = builder.freeze();
        assert_eq!(frozen.node_count(), g.node_count());
        assert_eq!(frozen.edge_count(), g.edge_count());
        assert!(frozen.examples().is_empty());
    }

    #[test]
    fn naive_downcasts_explode() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let naive = g.with_naive_downcasts(&api);
        // Every declared type gains a downcast edge from Object (and more).
        assert!(naive.edge_count() > g.edge_count() + 4);
        let obj = api.types().object().unwrap();
        let b = ty(&api, "t.B");
        assert!(naive
            .out_edges(NodeId::Ty(obj))
            .iter()
            .any(|e| e.elem.is_downcast() && e.to == NodeId::Ty(b)));
    }

    #[test]
    fn stats_count_per_kind() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let stats = g.stats(&api);
        assert_eq!(stats.total_edges(), g.edge_count());
        assert_eq!(stats.downcast_edges, 0);
        assert!(stats.widening_edges > 0);
        assert!(stats.instance_edges > 0);
        assert!(stats.constructor_edges > 0);
        assert!(stats.static_edges > 0);

        let mined = with_examples(&api, &g, &[cast_example(&api)]);
        let stats = mined.stats(&api);
        assert_eq!(stats.total_edges(), mined.edge_count());
        assert_eq!(stats.downcast_edges, 1);
        assert_eq!((stats.mined_nodes, stats.examples), (2, 1));
    }

    /// The order invariant the snapshot bytes and the DFS order rest on:
    /// every node's rows from the extended graph come first, then the
    /// appended edges in insertion order, on both sides — so one freeze
    /// of a batch equals one freeze per example.
    #[test]
    fn freezing_keeps_base_rows_first_and_batches_equal_single_splices() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let first = cast_example(&api);
        let second = vec![ElemJungloid::Downcast { from: a, to: b }];

        let batch = with_examples(&api, &g, &[first.clone(), second.clone()]);
        let stepwise = with_examples(&api, &with_examples(&api, &g, &[first]), &[second]);
        for idx in 0..g.node_count() {
            let n = g.node_at(idx);
            let (out, ins) = (batch.out_edges(n), batch.in_edges(n));
            assert_eq!(out[..g.out_edges(n).len()], g.out_edges(n)[..], "node {idx}");
            assert_eq!(ins[..g.in_edges(n).len()], g.in_edges(n)[..], "node {idx}");
        }
        let csr = |graph: &JungloidGraph| {
            let c = graph.csr();
            (
                c.out_offsets().to_vec(),
                c.out_to().to_vec(),
                c.out_elem().iter().collect::<Vec<_>>(),
                c.out_cost().to_vec(),
                c.in_offsets().to_vec(),
                c.in_from().to_vec(),
                c.in_cost().to_vec(),
            )
        };
        assert_eq!(csr(&batch), csr(&stepwise));
        assert_eq!(batch.examples(), stepwise.examples());
        // Appended in-edges of B arrive in insertion order: the cast
        // example's last step, then the direct downcast.
        let tail: Vec<_> = batch.in_edges(NodeId::Ty(b))[g.in_edges(NodeId::Ty(b)).len()..]
            .iter()
            .map(|&(from, _)| from)
            .collect();
        assert_eq!(tail, [NodeId::Mined(1), NodeId::Ty(a)]);
    }

    #[test]
    fn epochs_are_distinct_per_graph() {
        let api = api();
        let g1 = JungloidGraph::from_api(&api, GraphConfig::default());
        let g2 = JungloidGraph::from_api(&api, GraphConfig::default());
        assert_ne!(g1.epoch(), g2.epoch(), "independent builds get distinct epochs");
        let mined = with_examples(&api, &g1, &[cast_example(&api)]);
        assert_ne!(mined.epoch(), g1.epoch(), "an extended graph is a new graph");
        // The naive-downcast copy is a different graph too.
        assert_ne!(g1.with_naive_downcasts(&api).epoch(), g1.epoch());
    }

    #[test]
    fn snapshot_graph_answers_like_the_original_and_extends_the_same_way() {
        let api = api();
        let steps = cast_example(&api);
        let signature = JungloidGraph::from_api(&api, GraphConfig::default());
        let g = with_examples(&api, &signature, std::slice::from_ref(&steps));

        let mined_base: Vec<TyId> = (0..g.mined_node_count())
            .map(|i| g.base_ty(NodeId::Mined(u32::try_from(i).unwrap())))
            .collect();
        let restored = JungloidGraph::from_snapshot(
            &api,
            g.config(),
            mined_base,
            g.examples().to_vec(),
            g.csr().clone(),
        )
        .unwrap();
        assert_ne!(restored.epoch(), g.epoch());
        for idx in 0..g.node_count() {
            let n = g.node_at(idx);
            assert_eq!(restored.out_edges(n), g.out_edges(n));
            assert_eq!(restored.in_edges(n), g.in_edges(n));
        }
        // Dedup consults the stored sequences.
        assert!(!GraphBuilder::from_graph(&restored).add_example(&api, &steps).unwrap());
        // A genuinely new example extends both graphs identically.
        let more = vec![ElemJungloid::Widen { from: ty(&api, "t.B"), to: ty(&api, "t.A") }];
        let x = with_examples(&api, &restored, std::slice::from_ref(&more));
        let y = with_examples(&api, &g, &[more]);
        assert_eq!(x.edge_count(), g.edge_count() + 1);
        for idx in 0..x.node_count() {
            let n = x.node_at(idx);
            assert_eq!(x.out_edges(n), y.out_edges(n));
            assert_eq!(x.in_edges(n), y.in_edges(n));
        }
    }

    #[test]
    fn node_index_round_trip() {
        let api = api();
        let g = with_examples(
            &api,
            &JungloidGraph::from_api(&api, GraphConfig::default()),
            &[cast_example(&api)],
        );
        for idx in 0..g.node_count() {
            assert_eq!(g.index_of(g.node_at(idx)), idx);
        }
    }
}
