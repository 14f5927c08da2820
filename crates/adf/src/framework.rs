//! The assembled framework: spec + mined database + permission map +
//! lazily materialized per-level classes.
//!
//! [`AndroidFramework`] is the artifact shared across all app analyses:
//! the database and permission map are built **once** per framework
//! (paper §III-B, "the API database is constructed once for a given
//! framework … as a reusable model"), while class *bodies* are
//! materialized per `(level, class)` on first request — the on-demand
//! path the CLVM rides, and the thing eager baselines bypass by calling
//! [`AndroidFramework::all_classes_at`].

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use saint_ir::{ApiLevel, ClassDef, ClassName};

use crate::database::ApiDatabase;
use crate::permissions::PermissionMap;
use crate::spec::FrameworkSpec;
use crate::synth::SynthConfig;

/// An alternative origin for materialized framework classes.
///
/// A source answers `Some(answer)` when it is authoritative for
/// `(level, name)` — `Some(None)` meaning "the class does not exist at
/// that level" — and `None` when it has no opinion, in which case the
/// framework falls back to materializing from its spec. The frozen
/// artifact layer installs one of these so class bodies come from an
/// mmapped image instead of the spec materializer.
pub trait ClassSource: Send + Sync {
    /// The class as it exists at `level`, if this source is
    /// authoritative for it.
    fn class_at(&self, level: ApiLevel, name: &ClassName) -> Option<Option<Arc<ClassDef>>>;
}

/// A ready-to-analyze Android framework model.
pub struct AndroidFramework {
    spec: FrameworkSpec,
    database: OnceLock<Arc<ApiDatabase>>,
    permissions: OnceLock<Arc<PermissionMap>>,
    fingerprint: OnceLock<u64>,
    class_source: OnceLock<Arc<dyn ClassSource>>,
    #[allow(clippy::type_complexity)]
    class_cache: Mutex<HashMap<(ApiLevel, ClassName), Option<Arc<ClassDef>>>>,
}

impl AndroidFramework {
    /// Wraps an arbitrary spec.
    #[must_use]
    pub fn from_spec(spec: FrameworkSpec) -> Self {
        AndroidFramework {
            spec,
            database: OnceLock::new(),
            permissions: OnceLock::new(),
            fingerprint: OnceLock::new(),
            class_source: OnceLock::new(),
            class_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The curated surface only — fast, used by most unit tests.
    #[must_use]
    pub fn curated() -> Self {
        Self::from_spec(crate::android::android_spec())
    }

    /// Curated surface plus a synthetic expansion.
    #[must_use]
    pub fn with_scale(cfg: &SynthConfig) -> Self {
        Self::from_spec(crate::synth::expanded_android_spec(cfg))
    }

    /// The underlying spec.
    #[must_use]
    pub fn spec(&self) -> &FrameworkSpec {
        &self.spec
    }

    /// The mined API database (mined on first use, then shared).
    #[must_use]
    pub fn database(&self) -> Arc<ApiDatabase> {
        Arc::clone(
            self.database
                .get_or_init(|| Arc::new(ApiDatabase::mine(&self.spec))),
        )
    }

    /// The PScout-style permission map (built on first use, then
    /// shared).
    #[must_use]
    pub fn permission_map(&self) -> Arc<PermissionMap> {
        Arc::clone(
            self.permissions
                .get_or_init(|| Arc::new(PermissionMap::from_spec(&self.spec))),
        )
    }

    /// The spec's content fingerprint ([`FrameworkSpec::fingerprint`]),
    /// walked on first use and then shared. Sound because the spec is
    /// private and never mutated once wrapped; two frameworks built
    /// from equal specs give equal values.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.spec.fingerprint())
    }

    /// Seeds the database slot with an externally reconstructed
    /// database (e.g. decoded from a frozen artifact), so the first
    /// [`AndroidFramework::database`] call never mines. Returns `false`
    /// if the slot was already populated (the seed is dropped).
    pub fn seed_database(&self, db: Arc<ApiDatabase>) -> bool {
        self.database.set(db).is_ok()
    }

    /// Seeds the permission-map slot. Returns `false` if the slot was
    /// already populated (the seed is dropped).
    pub fn seed_permission_map(&self, map: Arc<PermissionMap>) -> bool {
        self.permissions.set(map).is_ok()
    }

    /// Installs an alternative [`ClassSource`] consulted by
    /// [`AndroidFramework::class_at`] before the spec materializer.
    /// Returns `false` if a source was already installed (the new one
    /// is dropped).
    pub fn install_class_source(&self, source: Arc<dyn ClassSource>) -> bool {
        self.class_source.set(source).is_ok()
    }

    /// Materializes one framework class as it exists at `level`,
    /// caching the result. Returns `None` for unknown classes or levels
    /// where the class does not exist.
    #[must_use]
    pub fn class_at(&self, level: ApiLevel, name: &ClassName) -> Option<Arc<ClassDef>> {
        let key = (level, name.clone());
        let mut cache = self.class_cache.lock();
        if let Some(hit) = cache.get(&key) {
            return hit.clone();
        }
        let materialized = self
            .class_source
            .get()
            .and_then(|src| src.class_at(level, name))
            .unwrap_or_else(|| self.spec.materialize_class(name, level).map(Arc::new));
        cache.insert(key, materialized.clone());
        materialized
    }

    /// Materializes the *entire* framework at `level` — the eager,
    /// monolithic path that CID-style tools take, and exactly the cost
    /// the CLVM avoids.
    #[must_use]
    pub fn all_classes_at(&self, level: ApiLevel) -> Vec<Arc<ClassDef>> {
        self.spec
            .classes()
            .filter_map(|c| self.class_at(level, &c.name))
            .collect()
    }

    /// Total number of classes in the spec (across all levels).
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.spec.len()
    }
}

impl std::fmt::Debug for AndroidFramework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AndroidFramework")
            .field("classes", &self.spec.len())
            .field("database_mined", &self.database.get().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_is_mined_once_and_shared() {
        let fw = AndroidFramework::curated();
        let a = fw.database();
        let b = fw.database();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn fingerprint_memo_equals_a_fresh_walk() {
        for fw in [
            AndroidFramework::curated(),
            AndroidFramework::with_scale(&SynthConfig::small()),
            AndroidFramework::with_scale(&SynthConfig::paper()),
        ] {
            let walked = fw.spec().fingerprint();
            assert_eq!(fw.fingerprint(), walked);
            assert_eq!(fw.fingerprint(), walked, "memo is stable");
            let twin = AndroidFramework::from_spec(fw.spec().clone());
            assert_eq!(twin.fingerprint(), walked, "content, not identity");
        }
    }

    #[test]
    fn different_specs_fingerprint_differently() {
        let curated = AndroidFramework::curated();
        let small = AndroidFramework::with_scale(&SynthConfig::small());
        assert_ne!(curated.fingerprint(), small.fingerprint());

        // One changed method weight is enough to move it.
        let mut spec = curated.spec().clone();
        let mut class = spec
            .classes()
            .find(|c| !c.methods.is_empty())
            .expect("curated spec has methods")
            .clone();
        class.methods[0].weight += 1;
        spec.add_class(class);
        assert_ne!(
            AndroidFramework::from_spec(spec).fingerprint(),
            curated.fingerprint()
        );
    }

    #[test]
    fn class_cache_returns_shared_definitions() {
        let fw = AndroidFramework::curated();
        let name = ClassName::new("android.app.Activity");
        let a = fw.class_at(ApiLevel::new(28), &name).unwrap();
        let b = fw.class_at(ApiLevel::new(28), &name).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn per_level_views_differ() {
        let fw = AndroidFramework::curated();
        let name = ClassName::new("android.app.Activity");
        let old = fw.class_at(ApiLevel::new(10), &name).unwrap();
        let new = fw.class_at(ApiLevel::new(28), &name).unwrap();
        assert!(new.methods.len() > old.methods.len());
    }

    #[test]
    fn missing_class_is_cached_none() {
        let fw = AndroidFramework::curated();
        let ghost = ClassName::new("android.no.Such");
        assert!(fw.class_at(ApiLevel::new(28), &ghost).is_none());
        assert!(fw.class_at(ApiLevel::new(28), &ghost).is_none());
    }

    #[test]
    fn eager_load_covers_spec() {
        let fw = AndroidFramework::curated();
        let all = fw.all_classes_at(ApiLevel::new(28));
        // NotificationChannel (26) included, apache http (removed 23) not.
        let names: Vec<&str> = all.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"android.app.NotificationChannel"));
        assert!(!names.contains(&"org.apache.http.client.HttpClient"));
    }

    #[test]
    fn seeded_database_shortcuts_mining() {
        let fw = AndroidFramework::curated();
        let seeded = Arc::new(ApiDatabase::mine(fw.spec()));
        assert!(fw.seed_database(Arc::clone(&seeded)));
        assert!(Arc::ptr_eq(&fw.database(), &seeded));
        // A second seed is rejected once the slot is filled.
        assert!(!fw.seed_database(Arc::new(ApiDatabase::default())));
        assert!(Arc::ptr_eq(&fw.database(), &seeded));
    }

    #[test]
    fn class_source_is_consulted_before_spec() {
        struct Fixed(Arc<ClassDef>);
        impl ClassSource for Fixed {
            fn class_at(
                &self,
                _level: ApiLevel,
                name: &ClassName,
            ) -> Option<Option<Arc<ClassDef>>> {
                (name.as_str() == "android.app.Activity").then(|| Some(Arc::clone(&self.0)))
            }
        }
        let fw = AndroidFramework::curated();
        let canned = Arc::new(ClassDef::new(
            "android.app.Activity",
            saint_ir::ClassOrigin::Framework,
        ));
        assert!(fw.install_class_source(Arc::new(Fixed(Arc::clone(&canned)))));
        let got = fw
            .class_at(ApiLevel::new(28), &ClassName::new("android.app.Activity"))
            .unwrap();
        assert!(Arc::ptr_eq(&got, &canned));
        // Names the source has no opinion on still fall back to the spec.
        assert!(fw
            .class_at(
                ApiLevel::new(28),
                &ClassName::new("android.app.NotificationChannel")
            )
            .is_some());
    }

    #[test]
    fn framework_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AndroidFramework>();
    }
}
