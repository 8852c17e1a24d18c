//! The in-memory API model: types plus members.

use std::collections::HashMap;

use jungloid_typesys::{Ty, TyId, TypeKind, TypeTable};

use crate::ApiError;

/// Member visibility. Prospector synthesizes from public members only
/// (§7: a Table 1 query fails because its solution needs a protected
/// method); [`Visibility::Protected`] exists so that failure mode can be
/// reproduced and the paper's proposed fix (`include_protected`) tested.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// `public`
    Public,
    /// `protected`
    Protected,
    /// `private` (and package-private, which we fold in)
    Private,
}

/// Identifier of a method (or constructor) in an [`Api`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(u32);

impl MethodId {
    /// Raw index into the method arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from an index previously obtained via
    /// [`MethodId::index`] against the same [`Api`]. The caller is
    /// responsible for range-checking `index` against
    /// [`Api::method_count`] (the snapshot loaders do).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        MethodId(u32::try_from(index).expect("method arena exceeds u32 range"))
    }
}

impl std::fmt::Debug for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m#{}", self.0)
    }
}

/// Identifier of a field in an [`Api`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(u32);

impl FieldId {
    /// Raw index into the field arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from an index previously obtained via
    /// [`FieldId::index`] against the same [`Api`]. The caller is
    /// responsible for range-checking `index` against
    /// [`Api::field_count`] (the snapshot loaders do).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        FieldId(u32::try_from(index).expect("field arena exceeds u32 range"))
    }
}

impl std::fmt::Debug for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f#{}", self.0)
    }
}

/// A method or constructor signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodDef {
    /// Method name; `"<init>"` for constructors.
    pub name: String,
    /// Declaring class or interface.
    pub declaring: TyId,
    /// Parameter types in order.
    pub params: Vec<TyId>,
    /// Declared parameter names, where the stub provided them. Used only
    /// to name free variables in generated code; `None` entries get
    /// type-derived names. Empty means "no names known" (any arity).
    pub param_names: Vec<Option<String>>,
    /// Return type (`void` allowed). For constructors this is the declaring
    /// class.
    pub ret: TyId,
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// Whether this is a constructor.
    pub is_constructor: bool,
}

impl MethodDef {
    /// Constructors and static methods need no receiver.
    #[must_use]
    pub fn needs_receiver(&self) -> bool {
        !self.is_static && !self.is_constructor
    }
}

/// A field signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Declaring class or interface.
    pub declaring: TyId,
    /// Field type.
    pub ty: TyId,
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the field is `static`.
    pub is_static: bool,
}

/// An API: a type table plus member signatures, with lookup indexes.
///
/// Build one through [`ApiLoader`](crate::ApiLoader) (from `.api` stubs) or
/// programmatically through the `add_*`/`declare_*` methods (the jungle
/// generator in `prospector-corpora` does the latter).
#[derive(Clone, Debug)]
pub struct Api {
    types: TypeTable,
    methods: Vec<MethodDef>,
    fields: Vec<FieldDef>,
    methods_by_class: HashMap<TyId, Vec<MethodId>>,
    fields_by_class: HashMap<TyId, Vec<FieldId>>,
}

impl Api {
    /// An API over a fresh, empty type table.
    #[must_use]
    pub fn new() -> Self {
        Api::from_types(TypeTable::new())
    }

    /// Wraps an existing type table (with no members yet).
    #[must_use]
    pub fn from_types(types: TypeTable) -> Self {
        Api {
            types,
            methods: Vec::new(),
            fields: Vec::new(),
            methods_by_class: HashMap::new(),
            fields_by_class: HashMap::new(),
        }
    }

    /// The underlying type table.
    #[must_use]
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// Mutable access to the type table (for declaring types and arrays).
    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    /// Shorthand: declare a class.
    ///
    /// # Errors
    ///
    /// Propagates [`jungloid_typesys::TypeError::DuplicateType`].
    pub fn declare_class(&mut self, package: &str, name: &str) -> Result<TyId, ApiError> {
        Ok(self.types.declare(package, name, TypeKind::Class)?)
    }

    /// Shorthand: declare an interface.
    ///
    /// # Errors
    ///
    /// Propagates [`jungloid_typesys::TypeError::DuplicateType`].
    pub fn declare_interface(&mut self, package: &str, name: &str) -> Result<TyId, ApiError> {
        Ok(self.types.declare(package, name, TypeKind::Interface)?)
    }

    /// Adds a method/constructor definition.
    ///
    /// # Errors
    ///
    /// * [`ApiError::InvalidMember`] if the declaring type is not a class
    ///   or interface, or a parameter is `void`;
    /// * [`ApiError::DuplicateMember`] if an identical
    ///   name-plus-parameter-types signature already exists on the class.
    pub fn add_method(&mut self, def: MethodDef) -> Result<MethodId, ApiError> {
        if self.types.kind(def.declaring).is_none() {
            return Err(ApiError::InvalidMember {
                detail: format!(
                    "method `{}` declared on non-class type {}",
                    def.name,
                    self.types.display(def.declaring)
                ),
            });
        }
        if def.params.iter().any(|&p| matches!(self.types.ty(p), Ty::Void | Ty::Null)) {
            return Err(ApiError::InvalidMember {
                detail: format!("method `{}` has a void/null parameter", def.name),
            });
        }
        if let Some(ids) = self.methods_by_class.get(&def.declaring) {
            if ids.iter().any(|&m| {
                let existing = &self.methods[m.index()];
                existing.name == def.name && existing.params == def.params
            }) {
                return Err(ApiError::DuplicateMember {
                    member: format!("{}.{}", self.types.display(def.declaring), def.name),
                });
            }
        }
        let id = MethodId(u32::try_from(self.methods.len()).expect("method arena overflow"));
        self.methods_by_class.entry(def.declaring).or_default().push(id);
        self.methods.push(def);
        Ok(id)
    }

    /// Adds a field definition.
    ///
    /// # Errors
    ///
    /// Same classes of failure as [`Api::add_method`].
    pub fn add_field(&mut self, def: FieldDef) -> Result<FieldId, ApiError> {
        if self.types.kind(def.declaring).is_none() {
            return Err(ApiError::InvalidMember {
                detail: format!(
                    "field `{}` declared on non-class type {}",
                    def.name,
                    self.types.display(def.declaring)
                ),
            });
        }
        if matches!(self.types.ty(def.ty), Ty::Void | Ty::Null) {
            return Err(ApiError::InvalidMember {
                detail: format!("field `{}` has void/null type", def.name),
            });
        }
        if let Some(ids) = self.fields_by_class.get(&def.declaring) {
            if ids.iter().any(|&f| self.fields[f.index()].name == def.name) {
                return Err(ApiError::DuplicateMember {
                    member: format!("{}.{}", self.types.display(def.declaring), def.name),
                });
            }
        }
        let id = FieldId(u32::try_from(self.fields.len()).expect("field arena overflow"));
        self.fields_by_class.entry(def.declaring).or_default().push(id);
        self.fields.push(def);
        Ok(id)
    }

    /// The definition behind a method id.
    #[must_use]
    pub fn method(&self, id: MethodId) -> &MethodDef {
        &self.methods[id.index()]
    }

    /// The definition behind a field id.
    #[must_use]
    pub fn field(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.index()]
    }

    /// Number of methods (incl. constructors).
    #[must_use]
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of fields.
    #[must_use]
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Iterates over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len()).map(|i| MethodId(u32::try_from(i).expect("checked on insert")))
    }

    /// Iterates over all field ids.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len()).map(|i| FieldId(u32::try_from(i).expect("checked on insert")))
    }

    /// Method ids declared directly on `class`.
    #[must_use]
    pub fn methods_of(&self, class: TyId) -> &[MethodId] {
        self.methods_by_class.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Field ids declared directly on `class`.
    #[must_use]
    pub fn fields_of(&self, class: TyId) -> &[FieldId] {
        self.fields_by_class.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Constructors declared on `class`.
    #[must_use]
    pub fn constructors_of(&self, class: TyId) -> Vec<MethodId> {
        self.methods_of(class)
            .iter()
            .copied()
            .filter(|&m| self.method(m).is_constructor)
            .collect()
    }

    /// Instance methods named `name` with `arity` parameters, found on
    /// `recv` or any of its supertypes (breadth-first, so overrides on the
    /// receiver come before inherited declarations).
    #[must_use]
    pub fn lookup_instance_method(&self, recv: TyId, name: &str, arity: usize) -> Vec<MethodId> {
        let mut out = Vec::new();
        let mut frontier = vec![recv];
        let mut seen = vec![recv];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for t in frontier {
                for &m in self.methods_of(t) {
                    let def = self.method(m);
                    if def.needs_receiver() && def.name == name && def.params.len() == arity {
                        out.push(m);
                    }
                }
                for sup in self.types.direct_supertypes(t) {
                    if !seen.contains(&sup) {
                        seen.push(sup);
                        next.push(sup);
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Static methods named `name` with `arity` parameters, declared on
    /// `class` (static members are not inherited in this model).
    #[must_use]
    pub fn lookup_static_method(&self, class: TyId, name: &str, arity: usize) -> Vec<MethodId> {
        self.methods_of(class)
            .iter()
            .copied()
            .filter(|&m| {
                let def = self.method(m);
                def.is_static && def.name == name && def.params.len() == arity
            })
            .collect()
    }

    /// Constructors of `class` with `arity` parameters.
    #[must_use]
    pub fn lookup_constructor(&self, class: TyId, arity: usize) -> Vec<MethodId> {
        self.constructors_of(class)
            .into_iter()
            .filter(|&m| self.method(m).params.len() == arity)
            .collect()
    }

    /// The field named `name` on `recv` or its supertypes, if any
    /// (instance or static; nearest declaration wins).
    #[must_use]
    pub fn lookup_field(&self, recv: TyId, name: &str) -> Option<FieldId> {
        let mut frontier = vec![recv];
        let mut seen = vec![recv];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for t in &frontier {
                for &f in self.fields_of(*t) {
                    if self.field(f).name == name {
                        return Some(f);
                    }
                }
            }
            for t in frontier {
                for sup in self.types.direct_supertypes(t) {
                    if !seen.contains(&sup) {
                        seen.push(sup);
                        next.push(sup);
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// Class-hierarchy-analysis approximation of dynamic dispatch: all
    /// instance methods named `name`/`arity` declared on `recv_static`, its
    /// supertypes, or any of its subtypes. Used by the miner's
    /// "conservative approximation of the call graph based on the type
    /// hierarchy" (§4.2).
    #[must_use]
    pub fn cha_targets(&self, recv_static: TyId, name: &str, arity: usize) -> Vec<MethodId> {
        let mut out = self.lookup_instance_method(recv_static, name, arity);
        for sub in self.types.strict_subtypes(recv_static) {
            for &m in self.methods_of(sub) {
                let def = self.method(m);
                if def.needs_receiver() && def.name == name && def.params.len() == arity && !out.contains(&m)
                {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Renders a method as `Declaring.name(P1, P2): Ret` for diagnostics.
    #[must_use]
    pub fn method_display(&self, id: MethodId) -> String {
        let def = self.method(id);
        let params: Vec<String> =
            def.params.iter().map(|&p| self.types.display_simple(p)).collect();
        let who = self.types.display_simple(def.declaring);
        if def.is_constructor {
            format!("new {who}({})", params.join(", "))
        } else if def.is_static {
            format!("{who}.{}({}): {}", def.name, params.join(", "), self.types.display_simple(def.ret))
        } else {
            format!(
                "{}.{}({}): {}",
                lowercase_first(&who),
                def.name,
                params.join(", "),
                self.types.display_simple(def.ret)
            )
        }
    }
}

impl Default for Api {
    fn default() -> Self {
        Api::new()
    }
}

fn lowercase_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_api() -> (Api, TyId, TyId, TyId) {
        let mut api = Api::new();
        api.declare_class("java.lang", "Object").unwrap();
        let reader = api.declare_class("java.io", "Reader").unwrap();
        let buffered = api.declare_class("java.io", "BufferedReader").unwrap();
        api.types_mut().set_superclass(buffered, reader).unwrap();
        let string = api.declare_class("java.lang", "String").unwrap();
        (api, reader, buffered, string)
    }

    fn inst(name: &str, declaring: TyId, params: Vec<TyId>, ret: TyId) -> MethodDef {
        MethodDef {
            name: name.to_owned(),
            declaring,
            params,
            param_names: Vec::new(),
            ret,
            visibility: Visibility::Public,
            is_static: false,
            is_constructor: false,
        }
    }

    #[test]
    fn add_and_lookup_methods() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(inst("readLine", buffered, vec![], string)).unwrap();
        api.add_method(inst("close", reader, vec![], api.types().void())).unwrap();

        assert_eq!(api.lookup_instance_method(buffered, "readLine", 0).len(), 1);
        // Inherited through the superclass chain.
        assert_eq!(api.lookup_instance_method(buffered, "close", 0).len(), 1);
        assert!(api.lookup_instance_method(reader, "readLine", 0).is_empty());
        assert!(api.lookup_instance_method(buffered, "readLine", 1).is_empty());
    }

    #[test]
    fn duplicate_method_rejected_overload_allowed() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(inst("read", buffered, vec![], string)).unwrap();
        assert!(matches!(
            api.add_method(inst("read", buffered, vec![], string)),
            Err(ApiError::DuplicateMember { .. })
        ));
        // Different arity: fine.
        api.add_method(inst("read", buffered, vec![reader], string)).unwrap();
    }

    #[test]
    fn void_param_rejected() {
        let (mut api, _, buffered, string) = tiny_api();
        let void = api.types().void();
        assert!(matches!(
            api.add_method(inst("bad", buffered, vec![void], string)),
            Err(ApiError::InvalidMember { .. })
        ));
    }

    #[test]
    fn member_on_primitive_rejected() {
        let (mut api, _, _, string) = tiny_api();
        let int = api.types().prim(jungloid_typesys::Prim::Int);
        assert!(api.add_method(inst("bad", int, vec![], string)).is_err());
        assert!(api
            .add_field(FieldDef {
                name: "x".into(),
                declaring: int,
                ty: string,
                visibility: Visibility::Public,
                is_static: false,
            })
            .is_err());
    }

    #[test]
    fn static_and_constructor_lookup() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(MethodDef {
            name: "<init>".into(),
            declaring: buffered,
            params: vec![reader],
            param_names: Vec::new(),
            ret: buffered,
            visibility: Visibility::Public,
            is_static: false,
            is_constructor: true,
        })
        .unwrap();
        api.add_method(MethodDef {
            name: "valueOf".into(),
            declaring: string,
            params: vec![buffered],
            param_names: Vec::new(),
            ret: string,
            visibility: Visibility::Public,
            is_static: true,
            is_constructor: false,
        })
        .unwrap();

        assert_eq!(api.lookup_constructor(buffered, 1).len(), 1);
        assert!(api.lookup_constructor(buffered, 0).is_empty());
        assert_eq!(api.lookup_static_method(string, "valueOf", 1).len(), 1);
        // Static methods are not found through instance lookup.
        assert!(api.lookup_instance_method(string, "valueOf", 1).is_empty());
    }

    #[test]
    fn field_lookup_walks_supertypes() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_field(FieldDef {
            name: "lock".into(),
            declaring: reader,
            ty: string,
            visibility: Visibility::Public,
            is_static: false,
        })
        .unwrap();
        assert!(api.lookup_field(buffered, "lock").is_some());
        assert!(api.lookup_field(buffered, "none").is_none());
    }

    #[test]
    fn cha_includes_subtype_overrides() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(inst("read", reader, vec![], string)).unwrap();
        api.add_method(inst("read", buffered, vec![], string)).unwrap();
        let targets = api.cha_targets(reader, "read", 0);
        assert_eq!(targets.len(), 2);
    }

    #[test]
    fn method_display_forms() {
        let (mut api, reader, buffered, string) = tiny_api();
        let ctor = api
            .add_method(MethodDef {
                name: "<init>".into(),
                declaring: buffered,
                params: vec![reader],
                param_names: Vec::new(),
                ret: buffered,
                visibility: Visibility::Public,
                is_static: false,
                is_constructor: true,
            })
            .unwrap();
        let stat = api
            .add_method(MethodDef {
                name: "valueOf".into(),
                declaring: string,
                params: vec![buffered],
                param_names: Vec::new(),
                ret: string,
                visibility: Visibility::Public,
                is_static: true,
                is_constructor: false,
            })
            .unwrap();
        let m = api.add_method(inst("readLine", buffered, vec![], string)).unwrap();
        assert_eq!(api.method_display(ctor), "new BufferedReader(Reader)");
        assert_eq!(api.method_display(stat), "String.valueOf(BufferedReader): String");
        assert_eq!(api.method_display(m), "bufferedReader.readLine(): String");
    }
}
