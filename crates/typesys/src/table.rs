//! The type table: an arena of interned types plus hierarchy queries.

use std::collections::HashMap;


use crate::{Prim, Ty, TyId, TypeError, TypeKind};

/// Identifier of an interned package name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageId(u32);

impl PackageId {
    /// Raw index into the owning table's package list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index.
    ///
    /// Only meaningful for indexes previously obtained from
    /// [`PackageId::index`] against the same table (the binary snapshot
    /// loader re-derives them; [`TypeTable::from_raw`] validates range).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PackageId(u32::try_from(index).expect("package arena exceeds u32 range"))
    }
}

/// A symbol: an index into the table's [`NameArena`]. Hot paths (edge
/// decoding, display, snapshot encode) carry these 4-byte handles instead
/// of heap `String`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Sym(u32);

/// All the table's names — package names and simple type names — interned
/// into one contiguous `String` with `(start, len)` spans. Interning
/// dedups (same text → same [`Sym`]) via a hash-bucket index that stores
/// only symbols, never a second copy of the text, so the arena is the
/// single owner of every name byte in the table.
#[derive(Clone, Debug, Default)]
struct NameArena {
    buf: String,
    spans: Vec<(u32, u32)>,
    /// `hash(text) -> candidate symbols`; collisions resolved by comparing
    /// against the arena content itself.
    index: HashMap<u64, Vec<Sym>>,
}

impl NameArena {
    fn hash_text(s: &str) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// Interns `s`, returning the existing symbol when the exact text is
    /// already present.
    fn intern(&mut self, s: &str) -> Sym {
        let h = Self::hash_text(s);
        if let Some(cands) = self.index.get(&h) {
            for &sym in cands {
                if self.get(sym) == s {
                    return sym;
                }
            }
        }
        let start = u32::try_from(self.buf.len()).expect("name arena exceeds u32 range");
        let len = u32::try_from(s.len()).expect("name exceeds u32 range");
        let sym = Sym(u32::try_from(self.spans.len()).expect("name arena exceeds u32 range"));
        self.buf.push_str(s);
        self.spans.push((start, len));
        self.index.entry(h).or_default().push(sym);
        sym
    }

    fn get(&self, sym: Sym) -> &str {
        let (start, len) = self.spans[sym.0 as usize];
        &self.buf[start as usize..(start + len) as usize]
    }
}

/// Internal structure of one arena slot.
#[derive(Clone, Debug)]
enum TyData {
    Void,
    Null,
    Prim(Prim),
    Decl(DeclData),
    Array { elem: TyId },
}

#[derive(Clone, Debug)]
struct DeclData {
    simple: Sym,
    package: PackageId,
    kind: TypeKind,
    superclass: Option<TyId>,
    interfaces: Vec<TyId>,
}

/// A read-only view of one declared class or interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeDecl<'a> {
    /// The type's own id.
    pub id: TyId,
    /// Simple (unqualified) name, e.g. `BufferedReader`.
    pub simple_name: &'a str,
    /// Package name, e.g. `java.io`.
    pub package_name: &'a str,
    /// Package id.
    pub package: PackageId,
    /// Class or interface.
    pub kind: TypeKind,
    /// Declared superclass, if any. `None` for `java.lang.Object` and for
    /// classes that implicitly extend `Object` before it is declared.
    pub superclass: Option<TyId>,
    /// Implemented (for classes) or extended (for interfaces) interfaces.
    pub interfaces: &'a [TyId],
}

impl TypeDecl<'_> {
    /// Fully qualified name, `package.Simple`.
    #[must_use]
    pub fn qualified_name(&self) -> String {
        if self.package_name.is_empty() {
            self.simple_name.to_owned()
        } else {
            format!("{}.{}", self.package_name, self.simple_name)
        }
    }
}

/// Arena of interned types with hierarchy construction and subtype queries.
///
/// A fresh table pre-interns `void`, the null type, and the eight Java
/// primitives; everything else is declared by the caller (typically the
/// `.api` stub loader in `jungloid-apidef`).
///
/// # Example
///
/// ```
/// use jungloid_typesys::{TypeKind, TypeTable};
///
/// let mut t = TypeTable::new();
/// let object = t.declare("java.lang", "Object", TypeKind::Class)?;
/// let iter = t.declare("java.util", "Iterator", TypeKind::Interface)?;
/// let list_iter = t.declare("java.util", "ListIterator", TypeKind::Interface)?;
/// t.add_interface(list_iter, iter)?;
///
/// assert!(t.is_subtype(list_iter, iter));
/// assert!(t.is_subtype(iter, object));
/// assert_eq!(t.resolve("Iterator")?, iter);
/// assert_eq!(t.resolve("java.util.ListIterator")?, list_iter);
/// # Ok::<(), jungloid_typesys::TypeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TypeTable {
    names: NameArena,
    packages: Vec<Sym>,
    package_ids: HashMap<Sym, PackageId>,
    types: Vec<TyData>,
    /// Name-lookup maps, built lazily on first [`TypeTable::resolve`].
    /// [`TypeTable::from_raw`] (the snapshot warm-start path) skips the
    /// build entirely so loading stays O(slots), not O(name bytes hashed).
    resolve_index: std::sync::OnceLock<ResolveIndex>,
    arrays: HashMap<TyId, TyId>,
    void_id: TyId,
    null_id: TyId,
    prim_ids: [TyId; 8],
    object: Option<TyId>,
}

/// Derived name-lookup maps behind [`TypeTable::resolve`].
#[derive(Clone, Debug, Default)]
struct ResolveIndex {
    by_qualified: HashMap<String, TyId>,
    by_simple: HashMap<String, Vec<TyId>>,
}

impl ResolveIndex {
    fn insert(&mut self, qualified: String, simple: &str, id: TyId) {
        self.by_qualified.insert(qualified, id);
        self.by_simple.entry(simple.to_owned()).or_default().push(id);
    }
}

impl TypeTable {
    /// Creates a table containing only `void`, the null type, and the
    /// primitives.
    #[must_use]
    pub fn new() -> Self {
        let mut types = Vec::with_capacity(16);
        types.push(TyData::Void);
        types.push(TyData::Null);
        let void_id = TyId(0);
        let null_id = TyId(1);
        let mut prim_ids = [TyId(0); 8];
        for (i, p) in Prim::ALL.into_iter().enumerate() {
            prim_ids[i] = TyId(u32::try_from(types.len()).expect("small"));
            types.push(TyData::Prim(p));
        }
        TypeTable {
            names: NameArena::default(),
            packages: Vec::new(),
            package_ids: HashMap::new(),
            types,
            resolve_index: std::sync::OnceLock::new(),
            arrays: HashMap::new(),
            void_id,
            null_id,
            prim_ids,
            object: None,
        }
    }

    /// Fully-qualified name of a declared slot, without going through
    /// [`TypeTable::decl`].
    fn qualified_of(&self, d: &DeclData) -> String {
        let pkg = self.names.get(self.packages[d.package.index()]);
        let simple = self.names.get(d.simple);
        if pkg.is_empty() {
            simple.to_owned()
        } else {
            format!("{pkg}.{simple}")
        }
    }

    /// The resolve maps, building them on first use.
    fn resolve_index(&self) -> &ResolveIndex {
        self.resolve_index.get_or_init(|| {
            let mut index = ResolveIndex::default();
            for (i, slot) in self.types.iter().enumerate() {
                if let TyData::Decl(d) = slot {
                    index.insert(self.qualified_of(d), self.names.get(d.simple), TyId::from_index(i));
                }
            }
            index
        })
    }

    /// Mutable access to the resolve maps, building them first if a
    /// warm-started table has not needed them yet.
    fn resolve_index_mut(&mut self) -> &mut ResolveIndex {
        if self.resolve_index.get().is_none() {
            self.resolve_index();
        }
        self.resolve_index.get_mut().expect("initialized above")
    }

    /// The `void` pseudo-type.
    #[must_use]
    pub fn void(&self) -> TyId {
        self.void_id
    }

    /// The null type (static type of the `null` literal).
    #[must_use]
    pub fn null(&self) -> TyId {
        self.null_id
    }

    /// The id of a primitive type.
    #[must_use]
    pub fn prim(&self, p: Prim) -> TyId {
        self.prim_ids[Prim::ALL.iter().position(|q| *q == p).expect("all prims listed")]
    }

    /// `java.lang.Object`, if it has been declared.
    #[must_use]
    pub fn object(&self) -> Option<TyId> {
        self.object
    }

    /// Interns a package name, returning its id.
    pub fn intern_package(&mut self, name: &str) -> PackageId {
        let sym = self.names.intern(name);
        if let Some(&id) = self.package_ids.get(&sym) {
            return id;
        }
        let id = PackageId(u32::try_from(self.packages.len()).expect("package arena overflow"));
        self.packages.push(sym);
        self.package_ids.insert(sym, id);
        id
    }

    /// Name of an interned package.
    #[must_use]
    pub fn package_name(&self, id: PackageId) -> &str {
        self.names.get(self.packages[id.index()])
    }

    /// Declares a new class or interface.
    ///
    /// Declaring `java.lang.Object` marks it as the hierarchy root; classes
    /// and interfaces without explicit supertypes are implicitly subtypes of
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::DuplicateType`] if the qualified name is taken.
    pub fn declare(&mut self, package: &str, simple: &str, kind: TypeKind) -> Result<TyId, TypeError> {
        let qualified = if package.is_empty() {
            simple.to_owned()
        } else {
            format!("{package}.{simple}")
        };
        if self.resolve_index_mut().by_qualified.contains_key(&qualified) {
            return Err(TypeError::DuplicateType { qualified_name: qualified });
        }
        let package = self.intern_package(package);
        let simple_sym = self.names.intern(simple);
        let id = TyId(u32::try_from(self.types.len()).expect("type arena overflow"));
        self.types.push(TyData::Decl(DeclData {
            simple: simple_sym,
            package,
            kind,
            superclass: None,
            interfaces: Vec::new(),
        }));
        if qualified == "java.lang.Object" {
            self.object = Some(id);
        }
        self.resolve_index_mut().insert(qualified, simple, id);
        Ok(id)
    }

    /// Interns (or returns the existing) array type with the given element.
    ///
    /// # Panics
    ///
    /// Panics if `elem` is `void` or the null type, which have no array
    /// types in Java.
    pub fn array_of(&mut self, elem: TyId) -> TyId {
        assert!(
            !matches!(self.types[elem.index()], TyData::Void | TyData::Null),
            "no array of void/null"
        );
        if let Some(&arr) = self.arrays.get(&elem) {
            return arr;
        }
        let id = TyId(u32::try_from(self.types.len()).expect("type arena overflow"));
        self.types.push(TyData::Array { elem });
        self.arrays.insert(elem, id);
        id
    }

    /// Sets the superclass of a class.
    ///
    /// # Errors
    ///
    /// Fails if either side is not a declared type, the subtype is an
    /// interface or already has a superclass, the supertype is an interface,
    /// or the link would create a cycle.
    pub fn set_superclass(&mut self, class: TyId, superclass: TyId) -> Result<(), TypeError> {
        match (self.kind(class), self.kind(superclass)) {
            (Some(TypeKind::Class), Some(TypeKind::Class)) => {}
            (Some(TypeKind::Interface), _) => {
                return Err(TypeError::KindMismatch {
                    detail: format!(
                        "interface `{}` cannot have a superclass; use add_interface",
                        self.display(class)
                    ),
                })
            }
            (_, Some(TypeKind::Interface)) => {
                return Err(TypeError::KindMismatch {
                    detail: format!(
                        "class `{}` cannot extend interface `{}`",
                        self.display(class),
                        self.display(superclass)
                    ),
                })
            }
            (None, _) => return Err(TypeError::NotADeclaredType { ty: class }),
            (_, None) => return Err(TypeError::NotADeclaredType { ty: superclass }),
        }
        if self.reaches(superclass, class) || class == superclass {
            return Err(TypeError::CyclicHierarchy { sub: class, sup: superclass });
        }
        let TyData::Decl(data) = &mut self.types[class.index()] else { unreachable!() };
        if data.superclass.is_some() {
            return Err(TypeError::SuperclassAlreadySet { class });
        }
        data.superclass = Some(superclass);
        Ok(())
    }

    /// Adds an implemented/extended interface to a class or interface.
    ///
    /// # Errors
    ///
    /// Fails if either side is not declared, the supertype is not an
    /// interface, or the link would create a cycle. Adding the same
    /// interface twice is a no-op.
    pub fn add_interface(&mut self, sub: TyId, iface: TyId) -> Result<(), TypeError> {
        match self.kind(iface) {
            Some(TypeKind::Interface) => {}
            Some(TypeKind::Class) => {
                return Err(TypeError::KindMismatch {
                    detail: format!("`{}` is a class, not an interface", self.display(iface)),
                })
            }
            None => return Err(TypeError::NotADeclaredType { ty: iface }),
        }
        if self.kind(sub).is_none() {
            return Err(TypeError::NotADeclaredType { ty: sub });
        }
        if self.reaches(iface, sub) || sub == iface {
            return Err(TypeError::CyclicHierarchy { sub, sup: iface });
        }
        let TyData::Decl(data) = &mut self.types[sub.index()] else { unreachable!() };
        if !data.interfaces.contains(&iface) {
            data.interfaces.push(iface);
        }
        Ok(())
    }

    /// The structural shape of a type.
    #[must_use]
    pub fn ty(&self, id: TyId) -> Ty {
        match &self.types[id.index()] {
            TyData::Void => Ty::Void,
            TyData::Null => Ty::Null,
            TyData::Prim(p) => Ty::Prim(*p),
            TyData::Decl(_) => Ty::Decl,
            TyData::Array { elem } => Ty::Array(*elem),
        }
    }

    /// `Some(kind)` if `id` is a declared class or interface.
    #[must_use]
    pub fn kind(&self, id: TyId) -> Option<TypeKind> {
        match &self.types[id.index()] {
            TyData::Decl(d) => Some(d.kind),
            _ => None,
        }
    }

    /// Whether `id` is a reference type (declared or array or null).
    #[must_use]
    pub fn is_reference(&self, id: TyId) -> bool {
        matches!(
            self.types[id.index()],
            TyData::Decl(_) | TyData::Array { .. } | TyData::Null
        )
    }

    /// Read-only view of a declared type.
    #[must_use]
    pub fn decl(&self, id: TyId) -> Option<TypeDecl<'_>> {
        match &self.types[id.index()] {
            TyData::Decl(d) => Some(TypeDecl {
                id,
                simple_name: self.names.get(d.simple),
                package_name: self.names.get(self.packages[d.package.index()]),
                package: d.package,
                kind: d.kind,
                superclass: d.superclass,
                interfaces: &d.interfaces,
            }),
            _ => None,
        }
    }

    /// The package a type belongs to: its own for declared types, the
    /// element's for arrays, `None` for `void`/null/primitives.
    #[must_use]
    pub fn package_of(&self, id: TyId) -> Option<PackageId> {
        match &self.types[id.index()] {
            TyData::Decl(d) => Some(d.package),
            TyData::Array { elem } => self.package_of(*elem),
            _ => None,
        }
    }

    /// Total number of interned types (including `void`, null, primitives,
    /// and arrays).
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the table holds only the built-in types.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // 10 built-ins: void, null, 8 primitives.
        self.types.len() <= 10
    }

    /// Iterates over the ids of all interned types.
    pub fn ids(&self) -> impl Iterator<Item = TyId> + '_ {
        (0..self.types.len()).map(TyId::from_index)
    }

    /// Iterates over all declared classes and interfaces.
    pub fn decls(&self) -> impl Iterator<Item = TypeDecl<'_>> + '_ {
        self.ids().filter_map(|id| self.decl(id))
    }

    /// Resolves a type name: qualified (`java.io.Reader`) or simple
    /// (`Reader`). Arrays and primitives are not handled here.
    ///
    /// # Errors
    ///
    /// [`TypeError::UnknownType`] if nothing matches,
    /// [`TypeError::AmbiguousName`] if a simple name has several matches.
    pub fn resolve(&self, name: &str) -> Result<TyId, TypeError> {
        let index = self.resolve_index();
        if name.contains('.') {
            return index
                .by_qualified
                .get(name)
                .copied()
                .ok_or_else(|| TypeError::UnknownType { name: name.to_owned() });
        }
        match index.by_simple.get(name).map(Vec::as_slice) {
            None | Some([]) => Err(TypeError::UnknownType { name: name.to_owned() }),
            Some([one]) => Ok(*one),
            Some(many) => Err(TypeError::AmbiguousName {
                name: name.to_owned(),
                candidates: many
                    .iter()
                    .map(|id| self.decl(*id).expect("simple index holds decls").qualified_name())
                    .collect(),
            }),
        }
    }

    /// Direct supertypes of a type, i.e. the targets of its widening edges
    /// in the signature graph:
    ///
    /// * declared type: its superclass (or `Object` implicitly) plus its
    ///   interfaces; interfaces with no supers widen to `Object`;
    /// * array `S[]`: `Object`, plus `T[]` for each *interned* direct
    ///   supertype `T` of a reference element `S`;
    /// * `void`, null, primitives: none.
    #[must_use]
    pub fn direct_supertypes(&self, id: TyId) -> Vec<TyId> {
        let mut out = Vec::new();
        match &self.types[id.index()] {
            TyData::Decl(d) => {
                if let Some(sup) = d.superclass {
                    out.push(sup);
                } else if self.object != Some(id) {
                    if let Some(obj) = self.object {
                        out.push(obj);
                    }
                }
                out.extend(d.interfaces.iter().copied());
            }
            TyData::Array { elem } => {
                if let Some(obj) = self.object {
                    out.push(obj);
                }
                if matches!(self.types[elem.index()], TyData::Decl(_) | TyData::Array { .. }) {
                    for sup in self.direct_supertypes(*elem) {
                        if let Some(&arr) = self.arrays.get(&sup) {
                            out.push(arr);
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Whether `sub` is a subtype of `sup` (reflexive).
    ///
    /// Implements Java's widening-reference-conversion relation restricted
    /// to the types this model supports: identity, class/interface
    /// hierarchy, array covariance, array-to-`Object`, and null-to-any-
    /// reference.
    #[must_use]
    pub fn is_subtype(&self, sub: TyId, sup: TyId) -> bool {
        if sub == sup {
            return true;
        }
        if sub == self.null_id {
            return self.is_reference(sup);
        }
        self.reaches(sub, sup)
    }

    /// Whether `to` is reachable from `from` through direct supertype
    /// links (strictly upward; not reflexive unless on a cycle, which
    /// construction forbids).
    fn reaches(&self, from: TyId, to: TyId) -> bool {
        let mut stack = self.direct_supertypes(from);
        let mut seen = vec![false; self.types.len()];
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if t.index() < seen.len() && !std::mem::replace(&mut seen[t.index()], true) {
                stack.extend(self.direct_supertypes(t));
            }
        }
        false
    }

    /// Inheritance depth: length of the longest chain of direct-supertype
    /// links from `id` up to a root (`Object` or a parentless type).
    ///
    /// Used by the ranking heuristic of §3.2: among jungloids of equal
    /// length, the one returning the *more general* (smaller-depth) type is
    /// preferred.
    #[must_use]
    pub fn depth(&self, id: TyId) -> u32 {
        self.direct_supertypes(id)
            .into_iter()
            .map(|s| 1 + self.depth(s))
            .max()
            .unwrap_or(0)
    }

    /// All strict subtypes of `id` among declared and array types.
    ///
    /// Linear scan; used by graph construction (downcast candidates) and by
    /// the CHA call-graph approximation, both of which precompute.
    #[must_use]
    pub fn strict_subtypes(&self, id: TyId) -> Vec<TyId> {
        self.ids()
            .filter(|&s| s != id && self.is_reference(s) && s != self.null_id && self.is_subtype(s, id))
            .collect()
    }

    /// Renders a type id as Java-ish source text (`java.io.Reader`,
    /// `int`, `String[]`, `void`).
    #[must_use]
    pub fn display(&self, id: TyId) -> String {
        match &self.types[id.index()] {
            TyData::Void => "void".to_owned(),
            TyData::Null => "<null>".to_owned(),
            TyData::Prim(p) => p.keyword().to_owned(),
            TyData::Decl(d) => {
                let pkg = self.names.get(self.packages[d.package.index()]);
                let simple = self.names.get(d.simple);
                if pkg.is_empty() {
                    simple.to_owned()
                } else {
                    format!("{pkg}.{simple}")
                }
            }
            TyData::Array { elem } => format!("{}[]", self.display(*elem)),
        }
    }

    /// Renders a type id using simple names only (`Reader`, `String[]`).
    #[must_use]
    pub fn display_simple(&self, id: TyId) -> String {
        match &self.types[id.index()] {
            TyData::Decl(d) => self.names.get(d.simple).to_owned(),
            TyData::Array { elem } => format!("{}[]", self.display_simple(*elem)),
            _ => self.display(id),
        }
    }
}

impl Default for TypeTable {
    fn default() -> Self {
        TypeTable::new()
    }
}

// --- Persistence --------------------------------------------------------
//
// The binary snapshot format in `prospector-store` carries only the arena
// (packages + typed slots); every derived index (qualified/simple lookup,
// array interning, the Object root) is rebuilt on load, which keeps the
// format small and makes a loaded table structurally identical to a
// freshly built one. [`RawSlot`] is the neutral exchange shape it decodes
// into; [`TypeTable::from_raw`] owns all structural validation.

/// The raw contents of one type-arena slot, as exchanged with the binary
/// snapshot format in `prospector-store`. Obtained from
/// [`TypeTable::raw_slots`]; reversed by [`TypeTable::from_raw`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RawSlot {
    /// The `void` pseudo-type (always slot 0).
    Void,
    /// The null type (always slot 1).
    Null,
    /// A primitive (slots 2..10, in [`Prim::ALL`] order).
    Prim(Prim),
    /// A declared class or interface.
    Decl {
        /// Simple (unqualified) name.
        simple: String,
        /// Package reference.
        package: PackageId,
        /// Class or interface.
        kind: TypeKind,
        /// Declared superclass, if any.
        superclass: Option<TyId>,
        /// Implemented/extended interfaces.
        interfaces: Vec<TyId>,
    },
    /// An array type.
    Array {
        /// Element type.
        elem: TyId,
    },
}

/// A borrowed view of one type-arena slot: the allocation-free sibling of
/// [`RawSlot`]. The snapshot encoder iterates these instead of cloning
/// every name `String` out of the interned arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawSlotView<'a> {
    /// The `void` pseudo-type (always slot 0).
    Void,
    /// The null type (always slot 1).
    Null,
    /// A primitive (slots 2..10, in [`Prim::ALL`] order).
    Prim(Prim),
    /// A declared class or interface.
    Decl {
        /// Simple (unqualified) name, borrowed from the name arena.
        simple: &'a str,
        /// Package reference.
        package: PackageId,
        /// Class or interface.
        kind: TypeKind,
        /// Declared superclass, if any.
        superclass: Option<TyId>,
        /// Implemented/extended interfaces.
        interfaces: &'a [TyId],
    },
    /// An array type.
    Array {
        /// Element type.
        elem: TyId,
    },
}

impl TypeTable {
    /// The interned package names, in arena order, borrowed from the name
    /// arena.
    pub fn package_names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.packages.iter().map(|&sym| self.names.get(sym))
    }

    /// The raw arena slots, in id order. Together with
    /// [`TypeTable::package_names`] this is the table's complete persistent
    /// state. Clones names out of the arena; save paths that only need to
    /// read should prefer [`TypeTable::raw_slot_views`].
    #[must_use]
    pub fn raw_slots(&self) -> Vec<RawSlot> {
        self.raw_slot_views()
            .map(|slot| match slot {
                RawSlotView::Void => RawSlot::Void,
                RawSlotView::Null => RawSlot::Null,
                RawSlotView::Prim(p) => RawSlot::Prim(p),
                RawSlotView::Decl { simple, package, kind, superclass, interfaces } => {
                    RawSlot::Decl {
                        simple: simple.to_owned(),
                        package,
                        kind,
                        superclass,
                        interfaces: interfaces.to_vec(),
                    }
                }
                RawSlotView::Array { elem } => RawSlot::Array { elem },
            })
            .collect()
    }

    /// Borrowed views of the raw arena slots, in id order — zero
    /// allocations, names read straight from the interned arena.
    pub fn raw_slot_views(&self) -> impl ExactSizeIterator<Item = RawSlotView<'_>> + '_ {
        self.types.iter().map(|slot| match slot {
            TyData::Void => RawSlotView::Void,
            TyData::Null => RawSlotView::Null,
            TyData::Prim(p) => RawSlotView::Prim(*p),
            TyData::Decl(d) => RawSlotView::Decl {
                simple: self.names.get(d.simple),
                package: d.package,
                kind: d.kind,
                superclass: d.superclass,
                interfaces: &d.interfaces,
            },
            TyData::Array { elem } => RawSlotView::Array { elem: *elem },
        })
    }

    /// Rebuilds a table from raw parts, validating every reference and
    /// rebuilding all derived indexes.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::InvalidTable`] on out-of-range package/type
    /// references, a built-in prefix (void, null, the eight primitives)
    /// that does not match a fresh table's, arrays of `void`/null, or
    /// duplicate packages, declared types, or array internings.
    pub fn from_raw(packages: Vec<String>, slots: Vec<RawSlot>) -> Result<TypeTable, TypeError> {
        let invalid = |detail: String| TypeError::InvalidTable { detail };
        let arena_len = slots.len();
        let check_ty = |id: TyId| {
            if id.index() < arena_len {
                Ok(id)
            } else {
                Err(invalid(format!("type reference {id:?} out of bounds ({arena_len} slots)")))
            }
        };
        let mut names = NameArena::default();
        let mut types = Vec::with_capacity(arena_len);
        for slot in slots {
            types.push(match slot {
                RawSlot::Void => TyData::Void,
                RawSlot::Null => TyData::Null,
                RawSlot::Prim(p) => TyData::Prim(p),
                RawSlot::Decl { simple, package, kind, superclass, interfaces } => {
                    if package.index() >= packages.len() {
                        return Err(invalid(format!(
                            "package reference {} out of bounds ({} packages)",
                            package.index(),
                            packages.len()
                        )));
                    }
                    if let Some(sup) = superclass {
                        check_ty(sup)?;
                    }
                    for &i in &interfaces {
                        check_ty(i)?;
                    }
                    TyData::Decl(DeclData {
                        simple: names.intern(&simple),
                        package,
                        kind,
                        superclass,
                        interfaces,
                    })
                }
                RawSlot::Array { elem } => {
                    check_ty(elem)?;
                    TyData::Array { elem }
                }
            });
        }

        // The built-in prefix must match what `TypeTable::new` interns.
        if types.len() < 10
            || !matches!(types[0], TyData::Void)
            || !matches!(types[1], TyData::Null)
        {
            return Err(invalid("built-in prefix (void, null, primitives) missing".to_owned()));
        }
        let mut prim_ids = [TyId(0); 8];
        for (i, p) in Prim::ALL.into_iter().enumerate() {
            match &types[2 + i] {
                TyData::Prim(q) if *q == p => prim_ids[i] = TyId(u32::try_from(2 + i).expect("small")),
                _ => return Err(invalid("primitive slots out of order".to_owned())),
            }
        }
        for slot in &types {
            if let TyData::Array { elem } = slot {
                if matches!(types[elem.index()], TyData::Void | TyData::Null) {
                    return Err(invalid("array of void/null".to_owned()));
                }
            }
        }

        // Rebuild derived state. The name-lookup maps are NOT built here —
        // they materialize lazily on the first `resolve` call — so the
        // snapshot warm-start path pays only for the cheap id-keyed maps.
        let mut table = TypeTable {
            names,
            packages: Vec::with_capacity(packages.len()),
            package_ids: HashMap::new(),
            types,
            resolve_index: std::sync::OnceLock::new(),
            arrays: HashMap::new(),
            void_id: TyId(0),
            null_id: TyId(1),
            prim_ids,
            object: None,
        };
        for (i, name) in packages.iter().enumerate() {
            let id = PackageId(u32::try_from(i).expect("small"));
            // Interning dedups, so a repeated package name maps to the same
            // symbol and trips the duplicate check here.
            let sym = table.names.intern(name);
            if table.package_ids.insert(sym, id).is_some() {
                return Err(invalid(format!("duplicate package `{name}`")));
            }
            table.packages.push(sym);
        }
        // Interning also dedups simple names, so a duplicate declared type
        // is exactly a repeated (package, simple-symbol) pair.
        let mut seen_decls = std::collections::HashSet::with_capacity(table.types.len());
        for (i, slot) in table.types.iter().enumerate() {
            let id = TyId::from_index(i);
            match slot {
                TyData::Decl(d) => {
                    if !seen_decls.insert((d.package, d.simple)) {
                        return Err(invalid(format!(
                            "duplicate declared type `{}`",
                            table.qualified_of(d)
                        )));
                    }
                    if table.object.is_none()
                        && table.names.get(d.simple) == "Object"
                        && table.names.get(table.packages[d.package.index()]) == "java.lang"
                    {
                        table.object = Some(id);
                    }
                }
                TyData::Array { elem } if table.arrays.insert(*elem, id).is_some() => {
                    return Err(invalid("duplicate array interning".to_owned()));
                }
                _ => {}
            }
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (TypeTable, TyId) {
        let mut t = TypeTable::new();
        let obj = t.declare("java.lang", "Object", TypeKind::Class).unwrap();
        (t, obj)
    }

    #[test]
    fn builtins_present() {
        let t = TypeTable::new();
        assert_eq!(t.ty(t.void()), Ty::Void);
        assert_eq!(t.ty(t.null()), Ty::Null);
        assert_eq!(t.ty(t.prim(Prim::Int)), Ty::Prim(Prim::Int));
        assert!(t.is_empty());
    }

    #[test]
    fn declare_and_resolve() {
        let (mut t, obj) = base();
        let r = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        assert_eq!(t.resolve("Reader").unwrap(), r);
        assert_eq!(t.resolve("java.io.Reader").unwrap(), r);
        assert_eq!(t.resolve("java.lang.Object").unwrap(), obj);
        assert!(matches!(t.resolve("Nope"), Err(TypeError::UnknownType { .. })));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let (mut t, _) = base();
        t.declare("a", "X", TypeKind::Class).unwrap();
        assert!(matches!(
            t.declare("a", "X", TypeKind::Interface),
            Err(TypeError::DuplicateType { .. })
        ));
    }

    #[test]
    fn simple_name_ambiguity() {
        let (mut t, _) = base();
        t.declare("a", "X", TypeKind::Class).unwrap();
        t.declare("b", "X", TypeKind::Class).unwrap();
        match t.resolve("X") {
            Err(TypeError::AmbiguousName { candidates, .. }) => {
                assert_eq!(candidates, vec!["a.X".to_owned(), "b.X".to_owned()]);
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
        assert_eq!(t.resolve("a.X").unwrap(), t.resolve("a.X").unwrap());
    }

    #[test]
    fn subtyping_through_classes_and_interfaces() {
        let (mut t, obj) = base();
        let readable = t.declare("java.lang", "Readable", TypeKind::Interface).unwrap();
        let reader = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let buffered = t.declare("java.io", "BufferedReader", TypeKind::Class).unwrap();
        t.add_interface(reader, readable).unwrap();
        t.set_superclass(buffered, reader).unwrap();

        assert!(t.is_subtype(buffered, reader));
        assert!(t.is_subtype(buffered, readable));
        assert!(t.is_subtype(buffered, obj));
        assert!(t.is_subtype(readable, obj));
        assert!(!t.is_subtype(reader, buffered));
        assert!(!t.is_subtype(obj, reader));
    }

    #[test]
    fn implicit_object_supertype() {
        let (mut t, obj) = base();
        let lone = t.declare("x", "Lone", TypeKind::Class).unwrap();
        assert_eq!(t.direct_supertypes(lone), vec![obj]);
        assert!(t.is_subtype(lone, obj));
        assert!(t.direct_supertypes(obj).is_empty());
    }

    #[test]
    fn null_subtype_of_references_only() {
        let (mut t, obj) = base();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        let arr = t.array_of(c);
        assert!(t.is_subtype(t.null(), obj));
        assert!(t.is_subtype(t.null(), c));
        assert!(t.is_subtype(t.null(), arr));
        assert!(!t.is_subtype(t.null(), t.prim(Prim::Int)));
        assert!(!t.is_subtype(t.null(), t.void()));
    }

    #[test]
    fn array_covariance_when_interned() {
        let (mut t, obj) = base();
        let sup = t.declare("x", "Sup", TypeKind::Class).unwrap();
        let sub = t.declare("x", "Sub", TypeKind::Class).unwrap();
        t.set_superclass(sub, sup).unwrap();
        let sub_arr = t.array_of(sub);
        let sup_arr = t.array_of(sup);
        assert!(t.is_subtype(sub_arr, sup_arr));
        assert!(t.is_subtype(sub_arr, obj));
        assert!(!t.is_subtype(sup_arr, sub_arr));
        // int[] is not covariant with anything but itself (and Object).
        let int_arr = t.array_of(t.prim(Prim::Int));
        assert!(t.is_subtype(int_arr, obj));
        assert!(!t.is_subtype(int_arr, sup_arr));
    }

    #[test]
    fn array_interning_is_idempotent() {
        let (mut t, _) = base();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        assert_eq!(t.array_of(c), t.array_of(c));
    }

    #[test]
    fn cycles_rejected() {
        let (mut t, _) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        t.set_superclass(b, a).unwrap();
        assert!(matches!(
            t.set_superclass(a, b),
            Err(TypeError::CyclicHierarchy { .. })
        ));
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        let j = t.declare("x", "J", TypeKind::Interface).unwrap();
        t.add_interface(i, j).unwrap();
        assert!(matches!(t.add_interface(j, i), Err(TypeError::CyclicHierarchy { .. })));
        assert!(matches!(t.add_interface(i, i), Err(TypeError::CyclicHierarchy { .. })));
    }

    #[test]
    fn kind_rules_enforced() {
        let (mut t, _) = base();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        assert!(matches!(t.set_superclass(c, i), Err(TypeError::KindMismatch { .. })));
        assert!(matches!(t.set_superclass(i, c), Err(TypeError::KindMismatch { .. })));
        assert!(matches!(t.add_interface(c, c), Err(TypeError::KindMismatch { .. })));
    }

    #[test]
    fn second_superclass_rejected() {
        let (mut t, _) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        t.set_superclass(c, a).unwrap();
        assert!(matches!(
            t.set_superclass(c, b),
            Err(TypeError::SuperclassAlreadySet { .. })
        ));
    }

    #[test]
    fn depth_counts_longest_chain() {
        let (mut t, obj) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        let j = t.declare("x", "J", TypeKind::Interface).unwrap();
        t.set_superclass(a, b).unwrap(); // a <: b <: Object
        t.add_interface(j, i).unwrap(); // j <: i <: Object
        t.add_interface(a, j).unwrap(); // a also <: j
        assert_eq!(t.depth(obj), 0);
        assert_eq!(t.depth(b), 1);
        assert_eq!(t.depth(i), 1);
        assert_eq!(t.depth(j), 2);
        // a's longest chain: a -> j -> i -> Object = 3.
        assert_eq!(t.depth(a), 3);
    }

    #[test]
    fn display_forms() {
        let (mut t, _) = base();
        let c = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let arr = t.array_of(c);
        assert_eq!(t.display(c), "java.io.Reader");
        assert_eq!(t.display_simple(c), "Reader");
        assert_eq!(t.display(arr), "java.io.Reader[]");
        assert_eq!(t.display_simple(arr), "Reader[]");
        assert_eq!(t.display(t.void()), "void");
        assert_eq!(t.display(t.prim(Prim::Long)), "long");
        let unpackaged = t.declare("", "Top", TypeKind::Class).unwrap();
        assert_eq!(t.display(unpackaged), "Top");
    }

    #[test]
    fn strict_subtypes_scan() {
        let (mut t, obj) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        t.set_superclass(b, a).unwrap();
        let subs = t.strict_subtypes(a);
        assert_eq!(subs, vec![b]);
        let all = t.strict_subtypes(obj);
        assert!(all.contains(&a) && all.contains(&b));
        assert!(!all.contains(&obj));
    }

    #[test]
    fn raw_round_trip_preserves_everything() {
        let (mut t, obj) = base();
        let readable = t.declare("java.lang", "Readable", TypeKind::Interface).unwrap();
        let reader = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let buffered = t.declare("java.io", "BufferedReader", TypeKind::Class).unwrap();
        t.add_interface(reader, readable).unwrap();
        t.set_superclass(buffered, reader).unwrap();
        let arr = t.array_of(buffered);
        let unpackaged = t.declare("", "Top", TypeKind::Class).unwrap();

        let packages: Vec<String> = t.package_names().map(str::to_owned).collect();
        let back = TypeTable::from_raw(packages.clone(), t.raw_slots()).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.object(), Some(obj));
        assert_eq!(back.resolve("java.io.BufferedReader").unwrap(), buffered);
        assert_eq!(back.resolve("Top").unwrap(), unpackaged);
        assert!(back.is_subtype(buffered, readable));
        assert_eq!(back.ty(arr), Ty::Array(buffered));
        let mut back2 = back.clone();
        assert_eq!(back2.array_of(buffered), arr, "array interning survives");
        assert_eq!(back.display(arr), "java.io.BufferedReader[]");
        assert_eq!(back.prim(Prim::Double), t.prim(Prim::Double));
        // Re-extraction is stable.
        assert_eq!(back.raw_slots(), t.raw_slots());

        // Corrupt arenas are rejected: a truncated built-in prefix and a
        // dangling superclass reference.
        let mut slots = t.raw_slots();
        slots.truncate(3);
        assert!(TypeTable::from_raw(packages.clone(), slots).is_err());
        let mut slots = t.raw_slots();
        if let RawSlot::Decl { superclass, .. } = &mut slots[buffered.index()] {
            *superclass = Some(TyId(9999));
        }
        assert!(TypeTable::from_raw(packages, slots).is_err());
    }

    #[test]
    fn decl_view_and_packages() {
        let (mut t, _) = base();
        let c = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let pkg = {
            let d = t.decl(c).unwrap();
            assert_eq!(d.simple_name, "Reader");
            assert_eq!(d.package_name, "java.io");
            assert_eq!(d.qualified_name(), "java.io.Reader");
            assert_eq!(d.kind, TypeKind::Class);
            d.package
        };
        assert_eq!(t.package_name(pkg), "java.io");
        assert!(t.decl(t.void()).is_none());
        assert_eq!(t.package_of(c), Some(pkg));
        let arr = t.array_of(c);
        assert_eq!(t.package_of(arr), Some(pkg));
        assert_eq!(t.package_of(t.void()), None);
    }
}
