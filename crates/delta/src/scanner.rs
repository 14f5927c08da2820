//! The incremental scan engine.
//!
//! A scan proceeds in three tiers, cheapest first:
//!
//! 1. **App fast path** — if the whole-app key matches a stored
//!    artifact, the cached merged report is replayed verbatim (only
//!    `duration` is re-measured).
//! 2. **Group reuse** — otherwise the app's classes are partitioned
//!    into analysis groups ([`bundled_groups`]); groups whose key
//!    matches a stored artifact are spliced from cache, and only the
//!    changed groups are projected into sub-APKs and pushed through the
//!    full pipeline ([`SaintDroid::run_parts`]).
//! 3. **Full fallback** — any structural inconsistency (a class the
//!    partition named but the APK no longer holds, which cannot happen
//!    short of a racing mutation) degrades to a plain full rescan.
//!
//! The merge is byte-identical to a full rescan by construction:
//! invocation buckets re-interleave in global sorted-root order,
//! callback buckets replay in APK class order, permission gates are
//! recomputed from the manifest over the union of raw usage sites,
//! declared-SDK verdicts are re-assembled from the manifest over the
//! canonical union of raw per-method SDK usages (when that family is
//! enabled), and
//! the meter is rebuilt from the deduplicated union of per-group load
//! and method charges. Corrupt or stale store entries surface as typed
//! [`DeltaError`](crate::DeltaError)s internally and count as misses —
//! they can never change a report.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use saint_adf::is_dangerous;
use saint_analysis::LoadMeter;
use saint_ir::{Apk, ClassDef, ClassName, DexFile, MethodRef};
use saint_obs::{Counter, Phase};
use saintdroid::amd::declared_sdk::{self, SdkFacts, SdkUsage};
use saintdroid::amd::permission::{assemble, DangerousUsage, PermissionGates};
use saintdroid::{DetectorSet, Mismatch, MismatchKind, Report, SaintDroid};

use crate::graph::bundled_groups;
use crate::hash;
use crate::store::{AppArtifact, DeltaStore, GroupArtifact};

/// What one incremental scan reused and recomputed, in classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Bundled classes the scanner considered (`hits + misses`).
    pub classes_seen: u64,
    /// Classes whose cached artifacts were reused verbatim.
    pub hits: u64,
    /// Classes with no usable cached artifact.
    pub misses: u64,
    /// Classes pushed through a fresh analysis (`== misses`, except a
    /// full fallback re-analyzes everything).
    pub reanalyzed: u64,
    /// Analysis groups the app partitioned into (0 on the app-key fast
    /// path).
    pub groups: usize,
    /// Whether the whole-app fast path served this scan.
    pub app_hit: bool,
}

/// Upper bound on in-process app replay-memo entries. At a few KB per
/// merged report this caps the memo in the tens of MB; on overflow the
/// memo is dropped wholesale (the disk store still has everything, so
/// eviction is a pure latency trade).
const MEMO_CAP: usize = 4096;

/// Upper bound on in-process group-artifact memo entries (groups are
/// smaller but far more numerous than apps).
const GROUP_MEMO_CAP: usize = 16384;

/// Incremental scanner over a [`DeltaStore`].
///
/// Scanners also keep bounded **in-process memos** over both artifact
/// kinds: the merged report of every app this process has scanned (or
/// replayed from disk), and every group slice it has produced or
/// loaded — keyed by the same content keys as the on-disk artifacts.
/// A long-lived scanner — the daemon, a history walk, a rescan wave —
/// serves unchanged apps straight from memory and splices changed apps
/// from in-memory group slices, skipping the artifact reads and
/// decodes entirely. Clones share the memos. Both memos are
/// write-through (every entry also lands in the store), so they can
/// only ever replay what a fresh process would reconstruct from disk.
#[derive(Debug, Clone)]
pub struct DeltaScanner {
    store: DeltaStore,
    memo: Arc<Mutex<HashMap<u64, Report>>>,
    group_memo: Arc<Mutex<HashMap<u64, GroupArtifact>>>,
}

impl DeltaScanner {
    /// Creates a scanner over the store rooted at `root`
    /// (conventionally `.saint/delta/`).
    #[must_use]
    pub fn new(root: impl AsRef<Path>) -> Self {
        DeltaScanner {
            store: DeltaStore::new(root.as_ref()),
            memo: Arc::new(Mutex::new(HashMap::new())),
            group_memo: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The underlying artifact store.
    #[must_use]
    pub fn store(&self) -> &DeltaStore {
        &self.store
    }

    /// Scans `apk`, reusing stored artifacts where their keys match and
    /// re-analyzing only the changed groups. The report is
    /// byte-identical to `tool.run_with_jobs(apk, app_jobs)` except for
    /// the wall-clock `duration` field.
    #[must_use]
    pub fn scan(&self, tool: &SaintDroid, apk: &Apk, app_jobs: usize) -> (Report, DeltaStats) {
        let start = Instant::now();
        let ctx = hash::context_fingerprint(tool);
        let akey = hash::app_key(ctx, apk);
        self.scan_keyed(tool, apk, app_jobs, start, ctx, akey)
    }

    /// Scans an app presented alongside its encoded `SAPK` container
    /// bytes (`sapk` must be the canonical encoding of `apk` — the
    /// daemon's wire payload, a `.sapk` file's contents). The whole-app
    /// fast path is keyed by **one sequential FNV pass over the
    /// container bytes** instead of the structural per-class walk of
    /// [`scan`](Self::scan). The context key's framework part is
    /// memoized per framework, so an unchanged-app rescan hashes only
    /// the app's own bytes before its store read. The
    /// canonical encoding makes the key sound: byte-identical
    /// containers decode to identical apps. A byte-level miss (even a
    /// re-encoding of the same app) degrades to the structural
    /// group-splice tier — never to a wrong report.
    #[must_use]
    pub fn scan_encoded(
        &self,
        tool: &SaintDroid,
        sapk: &[u8],
        apk: &Apk,
        app_jobs: usize,
    ) -> (Report, DeltaStats) {
        let start = Instant::now();
        let ctx = hash::context_fingerprint(tool);
        let akey = hash::encoded_app_key(ctx, sapk);
        self.scan_keyed(tool, apk, app_jobs, start, ctx, akey)
    }

    /// The shared scan body behind both whole-app keyspaces.
    fn scan_keyed(
        &self,
        tool: &SaintDroid,
        apk: &Apk,
        app_jobs: usize,
        start: Instant,
        ctx: u64,
        akey: u64,
    ) -> (Report, DeltaStats) {
        let total = apk.class_count() as u64;

        // Tier 1: whole-app fast path — the in-process memo first, the
        // on-disk artifact second.
        if let Some(mut report) = self.replay(akey, &apk.manifest.package) {
            report.duration = start.elapsed();
            let stats = DeltaStats {
                classes_seen: total,
                hits: total,
                app_hit: true,
                ..DeltaStats::default()
            };
            self.record_merged(tool, &report, stats);
            return (report, stats);
        }

        // Tier 2: per-group reuse.
        let man = hash::manifest_fingerprint(&apk.manifest);
        let groups = bundled_groups(apk);
        let mut stats = DeltaStats {
            classes_seen: total,
            groups: groups.len(),
            ..DeltaStats::default()
        };
        let mut artifacts: Vec<GroupArtifact> = Vec::with_capacity(groups.len());
        for group in &groups {
            let mut members: Vec<(u32, &ClassDef)> = Vec::with_capacity(group.len());
            for (slot, name) in group {
                match class_at(apk, *slot, name) {
                    Some(def) => members.push((*slot, def)),
                    // Unreachable short of the APK mutating under us;
                    // degrade to a plain full rescan rather than guess.
                    None => return self.full_fallback(tool, apk, app_jobs, start, total),
                }
            }
            let key = hash::group_key(ctx, man, &members);
            let names: Vec<ClassName> = group.iter().map(|(_, n)| n.clone()).collect();
            match self.cached_group(key, &names) {
                Some(art) => {
                    stats.hits += group.len() as u64;
                    artifacts.push(art);
                }
                None => {
                    let sub = project(apk, group);
                    let parts = tool.run_parts(&sub, app_jobs);
                    let art = GroupArtifact {
                        members: names,
                        invocation: parts.invocation,
                        callback: parts.callback,
                        usages: parts.usages,
                        sdk_usages: parts.sdk_usages,
                        declares_handler: parts.declares_handler,
                        loaded: parts.loaded,
                        methods: parts.methods,
                    };
                    // Persisting is best-effort: a read-only or full
                    // disk slows future scans down, never breaks this
                    // one.
                    let _ = self.store.save_group(key, &art);
                    self.memoize_group(key, art.clone());
                    stats.misses += group.len() as u64;
                    stats.reanalyzed += group.len() as u64;
                    artifacts.push(art);
                }
            }
        }

        let mut report = merge(tool, apk, artifacts);
        report.duration = start.elapsed();
        self.record_merged(tool, &report, stats);

        let mut stored = report.clone();
        stored.duration = std::time::Duration::ZERO;
        let _ = self.store.save_app(
            akey,
            &AppArtifact {
                report: stored.clone(),
            },
        );
        self.memoize(akey, stored);
        (report, stats)
    }

    /// Looks the whole-app key up in the replay memo, falling back to
    /// the on-disk artifact (and memoizing a disk hit). The package
    /// sanity check guards against the astronomically-unlikely key
    /// collision across apps.
    fn replay(&self, akey: u64, package: &str) -> Option<Report> {
        if let Some(report) = self.memo.lock().get(&akey) {
            if report.package == package {
                return Some(report.clone());
            }
        }
        let art = self.store.load_app(akey).ok()?;
        if art.report.package != package {
            return None;
        }
        self.memoize(akey, art.report.clone());
        Some(art.report)
    }

    /// Inserts into the replay memo, dropping it wholesale at the cap.
    fn memoize(&self, akey: u64, report: Report) {
        let mut memo = self.memo.lock();
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        memo.insert(akey, report);
    }

    /// Looks a group key up in the group memo, falling back to the
    /// on-disk artifact (and memoizing a disk hit). The member-list
    /// check guards both sources the same way.
    fn cached_group(&self, key: u64, names: &[ClassName]) -> Option<GroupArtifact> {
        if let Some(art) = self.group_memo.lock().get(&key) {
            if art.members == names {
                return Some(art.clone());
            }
        }
        let art = self
            .store
            .load_group(key)
            .ok()
            .filter(|a| a.members == names)?;
        self.memoize_group(key, art.clone());
        Some(art)
    }

    /// Inserts into the group memo, dropping it wholesale at the cap.
    fn memoize_group(&self, key: u64, art: GroupArtifact) {
        let mut memo = self.group_memo.lock();
        if memo.len() >= GROUP_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, art);
    }

    /// Plain full rescan, used when the incremental path cannot even
    /// partition the app. Counted as all-miss, all-reanalyzed.
    fn full_fallback(
        &self,
        tool: &SaintDroid,
        apk: &Apk,
        app_jobs: usize,
        start: Instant,
        total: u64,
    ) -> (Report, DeltaStats) {
        // `run_with_jobs` records the per-app aggregates itself.
        let mut report = tool.run_with_jobs(apk, app_jobs);
        report.duration = start.elapsed();
        let stats = DeltaStats {
            classes_seen: total,
            misses: total,
            reanalyzed: total,
            ..DeltaStats::default()
        };
        if let Some(m) = tool.metrics() {
            m.add(Counter::DeltaHits, stats.hits);
            m.add(Counter::DeltaMisses, stats.misses);
            m.add(Counter::ClassesReanalyzed, stats.reanalyzed);
        }
        (report, stats)
    }

    /// Records the per-app aggregates for a merged (or replayed) report
    /// — the counters [`SaintDroid::run_parts`] deliberately leaves to
    /// the merge so a multi-slice app still counts once.
    fn record_merged(&self, tool: &SaintDroid, report: &Report, stats: DeltaStats) {
        if let Some(m) = tool.metrics() {
            m.record(Phase::ScanTotal, report.duration);
            m.add(Counter::AppsScanned, 1);
            m.add(Counter::MismatchesFound, report.mismatches.len() as u64);
            if tool.detectors().contains(DetectorSet::DECLARED_SDK) {
                m.add(Counter::AppsVetted, 1);
                m.add(
                    Counter::DsdOveruseFound,
                    report.count(MismatchKind::DsdOveruse) as u64,
                );
                m.add(
                    Counter::DsdUnderuseFound,
                    report.count(MismatchKind::DsdUnderuse) as u64,
                );
            }
            report.meter.record_into(m);
            m.add(Counter::DeltaHits, stats.hits);
            m.add(Counter::DeltaMisses, stats.misses);
            m.add(Counter::ClassesReanalyzed, stats.reanalyzed);
        }
    }
}

/// Looks a group member up in its recorded dex slot.
fn class_at<'a>(apk: &'a Apk, slot: u32, name: &ClassName) -> Option<&'a ClassDef> {
    if slot == 0 {
        apk.primary.class(name)
    } else {
        apk.secondary.get(slot as usize - 1)?.class(name)
    }
}

/// Projects one group into a standalone sub-APK: the group's classes in
/// their original dex slots (empty dexes dropped, relative order kept),
/// under the full manifest. Projecting the payload dexes per group —
/// rather than handing every group all payloads — is what keeps the
/// reconstructed meter exact: an out-of-group payload class would
/// charge its superclass lookups to the wrong slice.
fn project(apk: &Apk, group: &[(u32, ClassName)]) -> Apk {
    let mut sub = Apk::new(apk.manifest.clone());
    sub.has_source = apk.has_source;
    sub.primary = DexFile::new(apk.primary.name.clone());
    let mut secondaries: Vec<Option<DexFile>> = vec![None; apk.secondary.len()];
    for (slot, name) in group {
        if *slot == 0 {
            if let Some(c) = apk.primary.class(name) {
                let _ = sub.primary.add_class(c.clone());
            }
        } else if let Some(dex) = apk.secondary.get(*slot as usize - 1) {
            if let Some(c) = dex.class(name) {
                let entry = secondaries[*slot as usize - 1]
                    .get_or_insert_with(|| DexFile::new(dex.name.clone()));
                let _ = entry.add_class(c.clone());
            }
        }
    }
    sub.secondary = secondaries.into_iter().flatten().collect();
    sub
}

/// Splices per-group artifacts into the exact report a full rescan
/// produces (see the module docs for why each step is order-exact).
fn merge(tool: &SaintDroid, apk: &Apk, artifacts: Vec<GroupArtifact>) -> Report {
    let mut rooted: Vec<(MethodRef, Vec<Mismatch>)> = Vec::new();
    let mut callback_buckets: HashMap<ClassName, Vec<Mismatch>> = HashMap::new();
    let mut usages: Vec<DangerousUsage> = Vec::new();
    let mut sdk_usages: Vec<SdkUsage> = Vec::new();
    let mut declares_handler = false;
    let mut loaded: BTreeMap<ClassName, Option<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<MethodRef, usize> = BTreeMap::new();

    for art in artifacts {
        rooted.extend(art.invocation);
        for m in art.callback {
            callback_buckets
                .entry(m.site.class.clone())
                .or_default()
                .push(m);
        }
        usages.extend(art.usages);
        sdk_usages.extend(art.sdk_usages);
        declares_handler |= art.declares_handler;
        loaded.extend(art.loaded);
        methods.extend(art.methods);
    }

    // Invocation: context roots are disjoint across groups and the full
    // scan visits them in one global sorted pass.
    rooted.sort_by(|a, b| a.0.cmp(&b.0));
    let inv = rooted.into_iter().flat_map(|(_, bucket)| bucket);

    // Callback: the full scan iterates `app_classes` in APK order; a
    // callback finding's site class *is* the iterated class.
    let mut cb: Vec<Mismatch> = Vec::new();
    for class in apk.all_classes() {
        if let Some(bucket) = callback_buckets.remove(&class.name) {
            cb.extend(bucket);
        }
    }

    // Permission: usages are emitted grouped by (sorted) site method;
    // sites are group-exclusive, so a stable per-site sort of the
    // concatenation reproduces the global emission order. The three
    // whole-app gates are recomputed from the manifest + OR-ed handler
    // flags, then Algorithm 4's decision half runs unchanged.
    usages.sort_by(|a, b| a.site.cmp(&b.site));
    let gates = PermissionGates {
        requests_dangerous: apk.manifest.uses_permissions.iter().any(is_dangerous),
        targets_runtime: apk.manifest.targets_runtime_permissions(),
        implements_handler: declares_handler,
    };
    let prm = assemble(gates, apk.manifest.supported_levels(), usages);

    // Declared-SDK: usages are collected per app method independently,
    // and methods are group-exclusive, so the canonical sort of the
    // union reproduces the full scan's usage order; Algorithm DSD's
    // decision half (`assemble`) then runs over manifest-level facts
    // recomputed from the whole-app manifest. Gated on the tool's
    // detector set so a DSD-disabled tool merges exactly what its full
    // scan would produce.
    let dsd = if tool.detectors().contains(DetectorSet::DECLARED_SDK) {
        declared_sdk::sort_usages(&mut sdk_usages);
        declared_sdk::assemble(
            SdkFacts::of(&apk.manifest),
            apk.manifest.supported_levels(),
            sdk_usages,
        )
    } else {
        Vec::new()
    };

    let mut report = Report::new(apk.manifest.package.clone(), "SAINTDroid");
    report.extend_deduped(inv);
    report.extend_deduped(cb);
    report.extend_deduped(prm);
    report.extend_deduped(dsd);

    // Meter: each load-table / explored-method entry corresponds to
    // exactly one meter event; shared framework entries carry identical
    // charges in every group, so the deduplicated union reconstructs
    // the full scan's meter.
    let mut meter = LoadMeter::new();
    for charge in loaded.values() {
        match charge {
            Some(bytes) => meter.record_class(*bytes),
            None => meter.record_unresolved(),
        }
    }
    for bytes in methods.values() {
        meter.record_method(*bytes);
    }
    report.meter = meter;
    report
}
