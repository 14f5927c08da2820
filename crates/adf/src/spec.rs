//! Framework *specifications*: class and method lifetimes across API
//! levels, from which per-level snapshots are materialized.
//!
//! A [`FrameworkSpec`] is the generator-side source of truth — the
//! analogue of the AOSP source history. The revision miner
//! (`ApiDatabase::mine`) never reads lifetimes from the spec directly;
//! it diffs materialized per-level API surfaces, exactly as the paper's
//! ARM component mines real framework revisions (§III-B). Tests then
//! assert that mining recovers the spec's lifetimes.

use std::collections::BTreeMap;

use saint_ir::{
    fnv1a, ApiLevel, BodyBuilder, ClassDef, ClassName, ClassOrigin, InvokeKind, MethodDef,
    MethodFlags, MethodRef, MethodSig, Permission, FNV_OFFSET,
};

/// Lifetime of an API member: the level that introduced it and, if it
/// was removed, the first level where it no longer exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LifeSpan {
    /// First level where the member exists.
    pub since: ApiLevel,
    /// First level where the member no longer exists (`None` = still
    /// present at [`ApiLevel::MAX`]).
    pub removed: Option<ApiLevel>,
}

impl LifeSpan {
    /// A member present for the whole modeled history.
    #[must_use]
    pub fn always() -> Self {
        LifeSpan {
            since: ApiLevel::MIN,
            removed: None,
        }
    }

    /// A member introduced at `level` and never removed.
    #[must_use]
    pub fn since(level: u8) -> Self {
        LifeSpan {
            since: ApiLevel::new(level),
            removed: None,
        }
    }

    /// A member introduced at `since` and removed at `removed`.
    #[must_use]
    pub fn between(since: u8, removed: u8) -> Self {
        assert!(since < removed, "member removed before introduction");
        LifeSpan {
            since: ApiLevel::new(since),
            removed: Some(ApiLevel::new(removed)),
        }
    }

    /// Whether the member exists at `level`.
    #[must_use]
    pub fn exists_at(self, level: ApiLevel) -> bool {
        level >= self.since && self.removed.is_none_or(|r| level < r)
    }

    /// Whether the member was introduced strictly after `level` — the
    /// declared-SDK overuse predicate: an unguarded use crashes on a
    /// device running at `level` (e.g. an app's `minSdkVersion` floor).
    #[must_use]
    pub fn introduced_after(self, level: ApiLevel) -> bool {
        self.since > level
    }

    /// The lowest level at which the member exists: what a declared
    /// `minSdkVersion` must reach for unguarded use — the declared-SDK
    /// underuse metadata.
    #[must_use]
    pub fn floor(self) -> ApiLevel {
        self.since
    }
}

/// A call emitted inside a framework method body: the callee plus an
/// optional `SDK_INT >= guard` wrapper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecCall {
    /// Invoked method.
    pub target: MethodRef,
    /// Guard the call with `if (SDK_INT >= level)`.
    pub guard: Option<ApiLevel>,
}

/// Specification of one framework method across the revision history.
#[derive(Debug, Clone)]
pub struct MethodSpec {
    /// Simple name.
    pub name: String,
    /// Descriptor.
    pub descriptor: String,
    /// Lifetime.
    pub life: LifeSpan,
    /// Permissions the framework enforces when this method executes
    /// (the PScout-style mapping source).
    pub permissions: Vec<Permission>,
    /// Calls the method body makes into other framework methods.
    pub calls: Vec<SpecCall>,
    /// Padding instructions, so synthetic classes have realistic sizes.
    pub weight: usize,
    /// Whether the method is abstract (no body at any level).
    pub is_abstract: bool,
}

impl MethodSpec {
    /// A leaf method with no calls and default weight.
    #[must_use]
    pub fn leaf(name: impl Into<String>, descriptor: impl Into<String>, life: LifeSpan) -> Self {
        MethodSpec {
            name: name.into(),
            descriptor: descriptor.into(),
            life,
            permissions: Vec::new(),
            calls: Vec::new(),
            weight: 4,
            is_abstract: false,
        }
    }

    /// This method's signature.
    #[must_use]
    pub fn signature(&self) -> MethodSig {
        MethodSig::new(self.name.as_str(), self.descriptor.as_str())
    }

    /// Adds a required permission.
    #[must_use]
    pub fn requires(mut self, p: Permission) -> Self {
        self.permissions.push(p);
        self
    }

    /// Adds an unguarded call to another framework method.
    #[must_use]
    pub fn calls(mut self, target: MethodRef) -> Self {
        self.calls.push(SpecCall {
            target,
            guard: None,
        });
        self
    }

    /// Adds a call guarded by `SDK_INT >= level`.
    #[must_use]
    pub fn calls_guarded(mut self, target: MethodRef, level: u8) -> Self {
        self.calls.push(SpecCall {
            target,
            guard: Some(ApiLevel::new(level)),
        });
        self
    }

    /// Sets the padding weight.
    #[must_use]
    pub fn weight(mut self, weight: usize) -> Self {
        self.weight = weight;
        self
    }

    /// Marks the method abstract.
    #[must_use]
    pub fn abstract_(mut self) -> Self {
        self.is_abstract = true;
        self
    }
}

/// Specification of one framework class across the revision history.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Fully qualified name.
    pub name: ClassName,
    /// Superclass (`None` only for `java.lang.Object`).
    pub super_class: Option<ClassName>,
    /// Implemented interfaces.
    pub interfaces: Vec<ClassName>,
    /// Class lifetime.
    pub life: LifeSpan,
    /// Member methods.
    pub methods: Vec<MethodSpec>,
}

impl ClassSpec {
    /// A class extending `java.lang.Object`, present for the whole
    /// history.
    #[must_use]
    pub fn new(name: impl Into<ClassName>) -> Self {
        ClassSpec {
            name: name.into(),
            super_class: Some(ClassName::new("java.lang.Object")),
            interfaces: Vec::new(),
            life: LifeSpan::always(),
            methods: Vec::new(),
        }
    }

    /// Sets the superclass.
    #[must_use]
    pub fn extends(mut self, super_class: impl Into<ClassName>) -> Self {
        self.super_class = Some(super_class.into());
        self
    }

    /// Sets the class lifetime.
    #[must_use]
    pub fn life(mut self, life: LifeSpan) -> Self {
        self.life = life;
        self
    }

    /// Adds a method spec.
    #[must_use]
    pub fn method(mut self, m: MethodSpec) -> Self {
        self.methods.push(m);
        self
    }

    /// A [`MethodRef`] onto this class.
    #[must_use]
    pub fn method_ref(&self, name: &str, descriptor: &str) -> MethodRef {
        MethodRef::new(self.name.clone(), name, descriptor)
    }
}

fn mix(hash: &mut u64, bytes: &[u8]) {
    *hash = fnv1a(bytes, *hash);
    // Separator byte so ("ab","c") and ("a","bc") hash differently.
    *hash = fnv1a(&[0xff], *hash);
}

fn mix_life(hash: &mut u64, life: LifeSpan) {
    mix(hash, &[life.since.get()]);
    match life.removed {
        Some(l) => mix(hash, &[1, l.get()]),
        None => mix(hash, &[0]),
    }
}

/// The whole framework history: every class spec, queryable and
/// materializable per level.
#[derive(Debug, Clone, Default)]
pub struct FrameworkSpec {
    classes: BTreeMap<ClassName, ClassSpec>,
}

impl FrameworkSpec {
    /// An empty spec.
    #[must_use]
    pub fn new() -> Self {
        FrameworkSpec::default()
    }

    /// Adds a class spec, replacing any previous spec of the same name.
    pub fn add_class(&mut self, class: ClassSpec) {
        self.classes.insert(class.name.clone(), class);
    }

    /// Looks up a class spec.
    #[must_use]
    pub fn class(&self, name: &ClassName) -> Option<&ClassSpec> {
        self.classes.get(name)
    }

    /// Iterates all class specs in name order.
    pub fn classes(&self) -> impl Iterator<Item = &ClassSpec> {
        self.classes.values()
    }

    /// Number of class specs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the spec holds no classes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// A stable FNV-1a content fingerprint of the spec: any change to a
    /// class, method, lifetime, permission annotation, call edge, or
    /// body weight changes it. Frozen images record it in their header
    /// and delta keys fold it in, so both go stale with the spec.
    ///
    /// This walks every class and method. Callers holding an
    /// [`AndroidFramework`](crate::AndroidFramework) should use its
    /// memoized [`fingerprint`](crate::AndroidFramework::fingerprint).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut hash = FNV_OFFSET;
        for class in self.classes() {
            mix(&mut hash, class.name.as_str().as_bytes());
            match &class.super_class {
                Some(s) => mix(&mut hash, s.as_str().as_bytes()),
                None => mix(&mut hash, &[]),
            }
            for i in &class.interfaces {
                mix(&mut hash, i.as_str().as_bytes());
            }
            mix_life(&mut hash, class.life);
            for m in &class.methods {
                mix(&mut hash, m.name.as_bytes());
                mix(&mut hash, m.descriptor.as_bytes());
                mix_life(&mut hash, m.life);
                for p in &m.permissions {
                    mix(&mut hash, p.as_str().as_bytes());
                }
                for c in &m.calls {
                    mix(&mut hash, c.target.class.as_str().as_bytes());
                    mix(&mut hash, c.target.name.as_bytes());
                    mix(&mut hash, c.target.descriptor.as_bytes());
                    mix(&mut hash, &[c.guard.map_or(0, ApiLevel::get)]);
                }
                mix(&mut hash, &(m.weight as u64).to_le_bytes());
                mix(&mut hash, &[u8::from(m.is_abstract)]);
            }
        }
        hash
    }

    /// The *API surface* at a level: `(class, signature)` pairs of every
    /// member that exists, without materializing bodies. This is what
    /// the revision miner diffs.
    pub fn surface_at(&self, level: ApiLevel) -> impl Iterator<Item = (&ClassName, MethodSig)> {
        self.classes
            .values()
            .filter(move |c| c.life.exists_at(level))
            .flat_map(move |c| {
                c.methods
                    .iter()
                    .filter(move |m| m.life.exists_at(level))
                    .map(move |m| (&c.name, m.signature()))
            })
    }

    /// Materializes one class as it exists at `level`, or `None` if the
    /// class does not exist there.
    ///
    /// Bodies contain only calls whose callee exists at `level` or that
    /// the spec wraps in an explicit SDK guard — a materialized
    /// framework is internally consistent, like a shipped platform
    /// image.
    #[must_use]
    pub fn materialize_class(&self, name: &ClassName, level: ApiLevel) -> Option<ClassDef> {
        let spec = self.classes.get(name)?;
        if !spec.life.exists_at(level) {
            return None;
        }
        let mut class = ClassDef::new(spec.name.clone(), ClassOrigin::Framework);
        class.super_class = spec.super_class.clone();
        class.interfaces = spec.interfaces.clone();
        for m in &spec.methods {
            if !m.life.exists_at(level) {
                continue;
            }
            let def = if m.is_abstract {
                MethodDef::abstract_(m.name.clone(), m.descriptor.clone())
            } else {
                let body = self.materialize_body(m, level);
                let mut def = MethodDef::concrete(m.name.clone(), m.descriptor.clone(), body);
                def.flags = MethodFlags::default();
                def
            };
            class
                .add_method(def)
                .expect("spec methods have unique signatures");
        }
        Some(class)
    }

    fn materialize_body(&self, m: &MethodSpec, level: ApiLevel) -> saint_ir::MethodBody {
        let mut b = BodyBuilder::new();
        b.pad(m.weight);
        for call in &m.calls {
            let callee_exists = self.classes.get(&call.target.class).is_some_and(|c| {
                c.life.exists_at(level)
                    && c.methods.iter().any(|mm| {
                        mm.signature() == call.target.signature() && mm.life.exists_at(level)
                    })
            });
            match call.guard {
                Some(g) => {
                    // Guarded calls are always emitted; the guard is the
                    // platform's own compatibility check.
                    let (then_blk, join) = b.guard_sdk_at_least(g);
                    let cur = join;
                    b.switch_to(then_blk);
                    b.invoke(InvokeKind::Virtual, call.target.clone(), &[], None);
                    b.goto(cur);
                    b.switch_to(cur);
                }
                None => {
                    if callee_exists {
                        b.invoke(InvokeKind::Virtual, call.target.clone(), &[], None);
                    }
                }
            }
        }
        b.ret_void();
        b.finish().expect("generated framework bodies are valid")
    }

    /// Materializes the entire framework at `level` (the eager path
    /// that monolithic analyzers pay for).
    #[must_use]
    pub fn materialize_all(&self, level: ApiLevel) -> Vec<ClassDef> {
        self.classes
            .keys()
            .filter_map(|name| self.materialize_class(name, level))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(life: LifeSpan) -> FrameworkSpec {
        let mut s = FrameworkSpec::new();
        s.add_class(
            ClassSpec::new("android.test.Widget")
                .method(MethodSpec::leaf("always", "()V", LifeSpan::always()))
                .method(MethodSpec::leaf("newer", "()V", life)),
        );
        s
    }

    #[test]
    fn lifespan_boundaries() {
        let l = LifeSpan::between(11, 21);
        assert!(!l.exists_at(ApiLevel::new(10)));
        assert!(l.exists_at(ApiLevel::new(11)));
        assert!(l.exists_at(ApiLevel::new(20)));
        assert!(!l.exists_at(ApiLevel::new(21)));
    }

    #[test]
    #[should_panic(expected = "removed before introduction")]
    fn inverted_lifespan_panics() {
        let _ = LifeSpan::between(21, 11);
    }

    #[test]
    fn surface_respects_lifetimes() {
        let s = spec_with(LifeSpan::since(23));
        let at22: Vec<_> = s.surface_at(ApiLevel::new(22)).collect();
        let at23: Vec<_> = s.surface_at(ApiLevel::new(23)).collect();
        assert_eq!(at22.len(), 1);
        assert_eq!(at23.len(), 2);
    }

    #[test]
    fn materialize_skips_missing_members() {
        let s = spec_with(LifeSpan::since(23));
        let name = ClassName::new("android.test.Widget");
        let c22 = s.materialize_class(&name, ApiLevel::new(22)).unwrap();
        let c23 = s.materialize_class(&name, ApiLevel::new(23)).unwrap();
        assert_eq!(c22.methods.len(), 1);
        assert_eq!(c23.methods.len(), 2);
    }

    #[test]
    fn materialize_missing_class_is_none() {
        let mut s = FrameworkSpec::new();
        s.add_class(ClassSpec::new("android.test.New").life(LifeSpan::since(26)));
        let name = ClassName::new("android.test.New");
        assert!(s.materialize_class(&name, ApiLevel::new(25)).is_none());
        assert!(s.materialize_class(&name, ApiLevel::new(26)).is_some());
    }

    #[test]
    fn unguarded_call_to_future_api_dropped_from_old_snapshot() {
        let mut s = FrameworkSpec::new();
        let newer = MethodRef::new("android.test.B", "newer", "()V");
        s.add_class(ClassSpec::new("android.test.B").method(MethodSpec::leaf(
            "newer",
            "()V",
            LifeSpan::since(23),
        )));
        s.add_class(
            ClassSpec::new("android.test.A")
                .method(MethodSpec::leaf("facade", "()V", LifeSpan::always()).calls(newer)),
        );
        let a = ClassName::new("android.test.A");
        let at21 = s.materialize_class(&a, ApiLevel::new(21)).unwrap();
        let at23 = s.materialize_class(&a, ApiLevel::new(23)).unwrap();
        let calls = |c: &ClassDef| c.methods[0].body.as_ref().unwrap().call_sites().count();
        assert_eq!(calls(&at21), 0);
        assert_eq!(calls(&at23), 1);
    }

    #[test]
    fn guarded_call_always_emitted() {
        let mut s = FrameworkSpec::new();
        let newer = MethodRef::new("android.test.B", "newer", "()V");
        s.add_class(ClassSpec::new("android.test.B").method(MethodSpec::leaf(
            "newer",
            "()V",
            LifeSpan::since(23),
        )));
        s.add_class(
            ClassSpec::new("android.test.A").method(
                MethodSpec::leaf("safe", "()V", LifeSpan::always()).calls_guarded(newer, 23),
            ),
        );
        let a = ClassName::new("android.test.A");
        let at21 = s.materialize_class(&a, ApiLevel::new(21)).unwrap();
        let body = at21.methods[0].body.as_ref().unwrap();
        assert_eq!(body.call_sites().count(), 1);
        // and the guard is present
        assert!(body
            .blocks()
            .iter()
            .flat_map(|b| &b.instrs)
            .any(saint_ir::Instr::is_sdk_int_read));
    }

    #[test]
    fn abstract_methods_materialize_without_bodies() {
        let mut s = FrameworkSpec::new();
        s.add_class(
            ClassSpec::new("android.test.I")
                .method(MethodSpec::leaf("cb", "()V", LifeSpan::always()).abstract_()),
        );
        let c = s
            .materialize_class(&ClassName::new("android.test.I"), ApiLevel::new(21))
            .unwrap();
        assert!(c.methods[0].body.is_none());
    }

    #[test]
    fn materialize_all_counts_by_level() {
        let mut s = FrameworkSpec::new();
        s.add_class(ClassSpec::new("android.test.Old"));
        s.add_class(ClassSpec::new("android.test.New").life(LifeSpan::since(26)));
        assert_eq!(s.materialize_all(ApiLevel::new(25)).len(), 1);
        assert_eq!(s.materialize_all(ApiLevel::new(26)).len(), 2);
    }
}
