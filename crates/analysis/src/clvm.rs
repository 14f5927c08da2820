//! The Class Loader Virtual Machine (CLVM).
//!
//! Paper §III-A: "SAINTDroid, unlike all the other incompatibility
//! detectors, mimics the incremental loading behavior of the Android
//! runtime during execution … the algorithm uses a worklist that
//! contains an initial list of methods to be explored, and loads
//! classes to which they belong using a Class Loader Virtual Machine
//! (CLVM)."
//!
//! The CLVM owns the provider delegation chain, the set of loaded
//! classes, and the [`LoadMeter`]. Everything downstream (virtual
//! dispatch resolution, override lookup, exploration) loads classes
//! *through* it, so the meter sees exactly what the analysis
//! materializes.
//!
//! **Shared access.** The loaded-class table is sharded over
//! independent `RwLock` shards (the same deterministic FNV-1a
//! distribution as [`ShardedClassCache`](crate::ShardedClassCache)) and
//! the meter is atomic, so [`load_class`](Clvm::load_class),
//! [`resolve_virtual`](Clvm::resolve_virtual),
//! [`resolve_body`](Clvm::resolve_body) and
//! [`framework_ancestor`](Clvm::framework_ancestor) all take `&self`:
//! any number of intra-app exploration workers can drive one CLVM
//! concurrently. Metering stays exact under concurrency because loads
//! are deduplicated per class (only the thread that wins the insert
//! race records the charge) and every charge is a pure function of the
//! materialized content.

use std::collections::HashMap;
use std::sync::Arc;

use saint_ir::{fnv1a, ClassDef, ClassName, MethodDef, MethodRef, MethodSig, FNV_OFFSET};
use saint_obs::MetricsRegistry;
use saint_sync::RwLock;

use crate::meter::{AtomicMeter, LoadMeter};
use crate::provider::ClassProvider;

/// Shard count of the loaded-class table: enough to keep a machine's
/// worth of exploration workers from colliding.
const LOADED_SHARDS: usize = 16;

/// Outcome of resolving a virtual call through the loaded hierarchy.
#[derive(Debug, Clone)]
pub enum Resolution {
    /// The declaring class and method were found.
    Found {
        /// The class that actually declares the method.
        declaring: Arc<ClassDef>,
        /// The resolved method reference (`declaring.name` + signature).
        method: MethodRef,
    },
    /// The receiver class chain was fully loaded but no declaration
    /// matched.
    NotFound,
    /// Resolution left the statically analyzable world (class served by
    /// no provider — e.g. code loaded from outside the package, or
    /// native). Such calls are terminals in the call graph (paper
    /// §III-A).
    External(ClassName),
}

type LoadedShard = RwLock<HashMap<ClassName, Option<Arc<ClassDef>>>>;

/// The lazy class loader.
pub struct Clvm {
    providers: Vec<Box<dyn ClassProvider>>,
    loaded: Vec<LoadedShard>,
    meter: AtomicMeter,
    metrics: Option<Arc<MetricsRegistry>>,
}

fn shard_index(name: &ClassName, shards: usize) -> usize {
    (fnv1a(name.as_str().as_bytes(), FNV_OFFSET) as usize) % shards
}

impl Clvm {
    /// An empty CLVM with no providers.
    #[must_use]
    pub fn new() -> Self {
        Clvm {
            providers: Vec::new(),
            loaded: (0..LOADED_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            meter: AtomicMeter::new(),
            metrics: None,
        }
    }

    /// Appends a provider to the delegation chain.
    pub fn add_provider(&mut self, provider: Box<dyn ClassProvider>) {
        self.providers.push(provider);
    }

    /// Attaches a metrics registry. The registry itself records nothing
    /// here — [`Phase::ClvmLoad`](saint_obs::Phase::ClvmLoad) spans
    /// are recorded by the framework
    /// provider at actual materialization, where the work happens — but
    /// detectors and the exploration reach the registry through this
    /// CLVM, so it rides along with the model.
    pub fn set_metrics(&mut self, metrics: Arc<MetricsRegistry>) {
        self.metrics = Some(metrics);
    }

    /// The attached registry, if any. Detectors reach the registry
    /// through the app model's CLVM via this accessor.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    fn shard(&self, name: &ClassName) -> &LoadedShard {
        &self.loaded[shard_index(name, self.loaded.len())]
    }

    /// Loads a class (materializing and metering it on first access).
    /// Returns `None` when no provider knows the class; the failed
    /// lookup is remembered and metered once.
    pub fn load_class(&self, name: &ClassName) -> Option<Arc<ClassDef>> {
        let shard = self.shard(name);
        // Probe before inserting: hits are the overwhelmingly common
        // case during exploration and must not clone the name or take
        // the write lock.
        if let Some(cached) = shard.read().get(name) {
            return cached.clone();
        }
        // Materialize outside any lock: providers may be slow, and two
        // workers racing on the same name produce identical definitions
        // (materialization is a pure function of provider content).
        // `Phase::ClvmLoad` spans are recorded inside the framework
        // provider, around actual materialization only — a probe that
        // resolves to a shared-cache `Arc` clone is not loading work.
        let found = self.providers.iter().find_map(|p| p.find_class(name));
        let mut map = shard.write();
        if let Some(cached) = map.get(name) {
            // Lost the race: the winner already recorded the charge.
            return cached.clone();
        }
        match &found {
            Some(c) => self.meter.record_class(c.size_bytes()),
            None => self.meter.record_unresolved(),
        }
        map.insert(name.clone(), found.clone());
        found
    }

    /// Whether a class has already been loaded (without loading it).
    #[must_use]
    pub fn is_loaded(&self, name: &ClassName) -> bool {
        matches!(self.shard(name).read().get(name), Some(Some(_)))
    }

    /// Eagerly loads every class every provider can serve — the
    /// monolithic strategy of the baseline tools (paper §II-D:
    /// "Existing analysis techniques first load all code in the project
    /// and then perform analysis on the loaded code").
    pub fn load_everything(&self) {
        let names: Vec<ClassName> = self
            .providers
            .iter()
            .flat_map(|p| p.class_names())
            .collect();
        for name in names {
            self.load_class(&name);
        }
    }

    /// All class names every provider can serve, without loading.
    #[must_use]
    pub fn available_class_names(&self) -> Vec<ClassName> {
        self.providers
            .iter()
            .flat_map(|p| p.class_names())
            .collect()
    }

    /// Resolves a virtual/interface call: loads the static receiver
    /// class and walks up the superclass chain until a declaration of
    /// the signature is found.
    pub fn resolve_virtual(&self, call: &MethodRef) -> Resolution {
        let sig = call.signature();
        let mut current = call.class.clone();
        for _ in 0..64 {
            let Some(class) = self.load_class(&current) else {
                return Resolution::External(current);
            };
            if class.method(&sig).is_some() {
                let method = sig.on_class(class.name.clone());
                return Resolution::Found {
                    declaring: class,
                    method,
                };
            }
            match &class.super_class {
                Some(sup) => current = sup.clone(),
                None => return Resolution::NotFound,
            }
        }
        Resolution::NotFound
    }

    /// Finds the concrete [`MethodDef`] for a resolved call, if the
    /// declaring class carries a body.
    pub fn resolve_body(&self, call: &MethodRef) -> Option<(Arc<ClassDef>, MethodRef)> {
        match self.resolve_virtual(call) {
            Resolution::Found { declaring, method } => {
                let has_body = declaring
                    .method(&method.signature())
                    .is_some_and(|m| m.body.is_some());
                has_body.then_some((declaring, method))
            }
            _ => None,
        }
    }

    /// Walks the loaded superclass chain from `class` (exclusive) and
    /// returns the first *framework-provided* ancestor name, loading
    /// classes along the way. Used by the callback detector to find
    /// which framework class an app class ultimately extends.
    pub fn framework_ancestor(&self, class: &ClassName) -> Option<ClassName> {
        let mut current = self.load_class(class)?.super_class.clone();
        for _ in 0..64 {
            let sup_name = current?;
            match self.load_class(&sup_name) {
                Some(sup) => {
                    if matches!(sup.origin, saint_ir::ClassOrigin::Framework) {
                        return Some(sup_name);
                    }
                    current = sup.super_class.clone();
                }
                // Unresolvable super: treat its *name* as the framework
                // boundary if it looks like one, else give up.
                None => {
                    return sup_name.is_framework_namespace().then_some(sup_name);
                }
            }
        }
        None
    }

    /// Looks up the method definition on an already-resolved class.
    #[must_use]
    pub fn method_def<'a>(class: &'a ClassDef, sig: &MethodSig) -> Option<&'a MethodDef> {
        class.method(sig)
    }

    /// The meter's current snapshot. Exact once all threads driving
    /// this CLVM have finished.
    #[must_use]
    pub fn meter(&self) -> LoadMeter {
        self.meter.snapshot()
    }

    /// Shared access for exploration code that meters method analysis.
    #[must_use]
    pub fn meter_ref(&self) -> &AtomicMeter {
        &self.meter
    }

    /// Number of distinct classes successfully loaded.
    #[must_use]
    pub fn loaded_count(&self) -> usize {
        self.loaded
            .iter()
            .map(|s| s.read().values().filter(|v| v.is_some()).count())
            .sum()
    }

    /// Every load-table entry with its metered byte charge, sorted by
    /// name: `Some(size_bytes)` for materialized classes, `None` for
    /// remembered failed lookups. Each entry corresponds to exactly one
    /// `record_class`/`record_unresolved` meter event, so unioning the
    /// entry sets of several scans reconstructs the class-side meter of
    /// a combined scan (the incremental layer relies on this).
    #[must_use]
    pub fn loaded_entries(&self) -> Vec<(ClassName, Option<usize>)> {
        let mut out: Vec<(ClassName, Option<usize>)> = self
            .loaded
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .map(|(n, v)| (n.clone(), v.as_ref().map(|c| c.size_bytes())))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Names of all loaded classes (diagnostics).
    #[must_use]
    pub fn loaded_names(&self) -> Vec<ClassName> {
        self.loaded
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .filter(|(_, v)| v.is_some())
                    .map(|(n, _)| n.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

impl Default for Clvm {
    fn default() -> Self {
        Clvm::new()
    }
}

impl std::fmt::Debug for Clvm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clvm")
            .field("providers", &self.providers.len())
            .field("loaded", &self.loaded_count())
            .field("meter", &self.meter.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{FrameworkProvider, PrimaryDexProvider};
    use saint_adf::AndroidFramework;
    use saint_ir::{ApiLevel, ApkBuilder, ClassBuilder, ClassOrigin};

    fn demo_clvm() -> Clvm {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        let mid = ClassBuilder::new("p.Base", ClassOrigin::App)
            .extends("android.app.ListActivity")
            .build();
        let sub = ClassBuilder::new("p.Sub", ClassOrigin::App)
            .extends("p.Base")
            .build();
        let apk = ApkBuilder::new("p", ApiLevel::new(21), ApiLevel::new(28))
            .class(main)
            .unwrap()
            .class(mid)
            .unwrap()
            .class(sub)
            .unwrap()
            .build();
        let mut clvm = Clvm::new();
        clvm.add_provider(Box::new(PrimaryDexProvider::new(&apk)));
        clvm.add_provider(Box::new(FrameworkProvider::new(
            Arc::new(AndroidFramework::curated()),
            ApiLevel::new(28),
        )));
        clvm
    }

    #[test]
    fn lazy_loading_meters_once() {
        let clvm = demo_clvm();
        let name = ClassName::new("p.Main");
        clvm.load_class(&name);
        clvm.load_class(&name);
        assert_eq!(clvm.meter().classes_loaded, 1);
        assert!(clvm.is_loaded(&name));
    }

    #[test]
    fn unresolved_lookup_remembered() {
        let clvm = demo_clvm();
        let ghost = ClassName::new("no.Such");
        assert!(clvm.load_class(&ghost).is_none());
        assert!(clvm.load_class(&ghost).is_none());
        assert_eq!(clvm.meter().unresolved_lookups, 1);
    }

    #[test]
    fn virtual_resolution_walks_into_framework() {
        let clvm = demo_clvm();
        // p.Main extends android.app.Activity; setContentView resolves
        // up into the framework class.
        let call = MethodRef::new("p.Main", "setContentView", "(I)V");
        match clvm.resolve_virtual(&call) {
            Resolution::Found { method, .. } => {
                assert_eq!(method.class.as_str(), "android.app.Activity");
            }
            other => panic!("expected Found, got {other:?}"),
        }
        // Lazy: only the classes on the resolution path got loaded.
        assert!(clvm.is_loaded(&ClassName::new("android.app.Activity")));
        assert!(!clvm.is_loaded(&ClassName::new("android.webkit.WebView")));
    }

    #[test]
    fn resolution_reports_external_for_unknown_receiver() {
        let clvm = demo_clvm();
        let call = MethodRef::new("com.thirdparty.Blob", "run", "()V");
        assert!(matches!(
            clvm.resolve_virtual(&call),
            Resolution::External(_)
        ));
    }

    #[test]
    fn resolution_not_found_for_missing_signature() {
        let clvm = demo_clvm();
        let call = MethodRef::new("p.Main", "noSuchMethod", "()V");
        assert!(matches!(clvm.resolve_virtual(&call), Resolution::NotFound));
    }

    #[test]
    fn framework_ancestor_skips_app_layers() {
        let clvm = demo_clvm();
        let anc = clvm.framework_ancestor(&ClassName::new("p.Sub")).unwrap();
        assert_eq!(anc.as_str(), "android.app.ListActivity");
    }

    #[test]
    fn load_everything_is_monolithic() {
        let lazy = demo_clvm();
        lazy.load_class(&ClassName::new("p.Main"));
        let lazy_count = lazy.loaded_count();

        let eager = demo_clvm();
        eager.load_everything();
        assert!(
            eager.loaded_count() > lazy_count * 10,
            "eager {} vs lazy {}",
            eager.loaded_count(),
            lazy_count
        );
        assert!(eager.meter().total_bytes() > lazy.meter().total_bytes());
    }

    #[test]
    fn resolve_body_returns_concrete_bodies_only() {
        let clvm = demo_clvm();
        let call = MethodRef::new("p.Main", "onCreate", "(Landroid/os/Bundle;)V");
        let (declaring, method) = clvm.resolve_body(&call).unwrap();
        assert_eq!(declaring.name.as_str(), "p.Main");
        assert_eq!(&*method.name, "onCreate");
    }

    #[test]
    fn concurrent_loads_meter_each_class_once() {
        let clvm = Arc::new(demo_clvm());
        let names = ["p.Main", "p.Base", "p.Sub", "android.app.Activity"];
        std::thread::scope(|s| {
            for _ in 0..8 {
                let clvm = Arc::clone(&clvm);
                s.spawn(move || {
                    for name in names {
                        clvm.load_class(&ClassName::new(name));
                    }
                });
            }
        });
        assert_eq!(clvm.meter().classes_loaded, names.len());
    }

    #[test]
    fn concurrent_loads_share_one_arc() {
        let clvm = Arc::new(demo_clvm());
        let arcs: Vec<Arc<ClassDef>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let clvm = Arc::clone(&clvm);
                    s.spawn(move || clvm.load_class(&ClassName::new("p.Main")).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for a in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], a));
        }
    }
}
