//! Property tests for the type-table invariants the synthesizer relies
//! on: subtyping is a partial order, widening edges go strictly up the
//! depth measure, and the subtype scan agrees with the relation.
//!
//! Each property is checked over a sweep of seeded random hierarchies
//! (deterministic — failures reproduce by seed).

use jungloid_typesys::{TyId, TypeKind, TypeTable};
use prospector_obs::SmallRng;

/// A random hierarchy description: `extends[i]` optionally names an
/// earlier type that type `i` extends (classes) plus interface links.
#[derive(Clone, Debug)]
struct HierarchySpec {
    kinds: Vec<bool>, // true = interface
    extends: Vec<Option<usize>>,
    implements: Vec<Vec<usize>>,
}

fn random_spec(seed: u64, max: usize) -> HierarchySpec {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..max);
    let kinds: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let extends: Vec<Option<usize>> = (0..n)
        .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range(0..n)))
        .collect();
    let implements: Vec<Vec<usize>> = (0..n)
        .map(|_| (0..rng.gen_range(0..3)).map(|_| rng.gen_range(0..n)).collect())
        .collect();
    HierarchySpec { kinds, extends, implements }
}

fn build(spec: &HierarchySpec) -> TypeTable {
    let mut table = TypeTable::new();
    let object = table.declare("java.lang", "Object", TypeKind::Class).unwrap();
    let _ = object;
    let ids: Vec<_> = spec
        .kinds
        .iter()
        .enumerate()
        .map(|(i, &iface)| {
            let kind = if iface { TypeKind::Interface } else { TypeKind::Class };
            table.declare("p", &format!("T{i}"), kind).unwrap()
        })
        .collect();
    for (i, &sup) in spec.extends.iter().enumerate() {
        if let Some(s) = sup {
            if s < i && !spec.kinds[i] && !spec.kinds[s] {
                // Earlier-only links keep the hierarchy acyclic; the table
                // must accept them all.
                table.set_superclass(ids[i], ids[s]).unwrap();
            }
        }
    }
    for (i, ifaces) in spec.implements.iter().enumerate() {
        for &s in ifaces {
            if s < i && spec.kinds[s] {
                table.add_interface(ids[i], ids[s]).unwrap();
            }
        }
    }
    table
}

fn sweep(max: usize, check: impl Fn(&TypeTable)) {
    for seed in 0..96u64 {
        check(&build(&random_spec(seed, max)));
    }
}

fn decl_ids(table: &TypeTable) -> Vec<TyId> {
    table.decls().map(|d| d.id).collect()
}

#[test]
fn subtyping_is_a_partial_order() {
    sweep(10, |table| {
        let ids = decl_ids(table);
        // Reflexive.
        for &a in &ids {
            assert!(table.is_subtype(a, a));
        }
        // Transitive and antisymmetric.
        for &a in &ids {
            for &b in &ids {
                if a != b && table.is_subtype(a, b) {
                    assert!(!table.is_subtype(b, a), "antisymmetry violated");
                    for &c in &ids {
                        if table.is_subtype(b, c) {
                            assert!(table.is_subtype(a, c), "transitivity violated");
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn everything_widens_to_object() {
    sweep(10, |table| {
        let object = table.object().unwrap();
        for d in table.decls() {
            assert!(table.is_subtype(d.id, object));
        }
    });
}

#[test]
fn direct_supertypes_decrease_depth() {
    sweep(10, |table| {
        for d in table.decls() {
            let depth = table.depth(d.id);
            for sup in table.direct_supertypes(d.id) {
                assert!(
                    table.depth(sup) < depth,
                    "depth({}) = {} not below depth({}) = {}",
                    table.display(sup),
                    table.depth(sup),
                    table.display(d.id),
                    depth
                );
            }
        }
    });
}

#[test]
fn strict_subtypes_agrees_with_relation() {
    sweep(8, |table| {
        let ids = decl_ids(table);
        for &t in &ids {
            let subs = table.strict_subtypes(t);
            for &s in &ids {
                let expected = s != t && table.is_subtype(s, t);
                assert_eq!(subs.contains(&s), expected);
            }
        }
    });
}

#[test]
fn subtype_implies_reachable_via_direct_links() {
    // is_subtype must equal the transitive closure of
    // direct_supertypes — the property that lets the graph encode
    // transitive widening as zero-cost edge compositions.
    sweep(8, |table| {
        let ids = decl_ids(table);
        for &a in &ids {
            // BFS over direct supertype links.
            let mut seen = vec![a];
            let mut stack = vec![a];
            while let Some(t) = stack.pop() {
                for s in table.direct_supertypes(t) {
                    if !seen.contains(&s) {
                        seen.push(s);
                        stack.push(s);
                    }
                }
            }
            for &b in &ids {
                assert_eq!(a == b || seen.contains(&b), table.is_subtype(a, b));
            }
        }
    });
}
