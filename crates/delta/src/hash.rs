//! Content addressing for the incremental layer.
//!
//! Everything is the repo's standard FNV-1a 64-bit scheme
//! ([`saint_frozen::fnv1a`]). A cached artifact is valid iff its key
//! matches, and the key folds in every input the analysis of a slice
//! can observe:
//!
//! * the store format version (layout changes invalidate wholesale);
//! * the report schema version and the tool's enabled detector set —
//!   an artifact scanned by three families must never be replayed as
//!   the verdict of four (it would splice reports silently missing the
//!   new family's findings);
//! * the framework model fingerprint
//!   ([`AndroidFramework::fingerprint`](saint_adf::AndroidFramework::fingerprint),
//!   the spec walk of [`saint_frozen::spec_fingerprint`] memoized once
//!   per framework);
//! * the exploration policy (`ExploreConfig` — e.g. an ablation build
//!   must not reuse a default-policy artifact);
//! * the app manifest (supported level range, permissions, target —
//!   all of it, via the canonical serde encoding);
//! * the member classes: per-dex placement and canonical class bytes.
//!
//! Deliberately *excluded*: `app_jobs` and cache attachments — reports
//! are parity-tested to be identical across those, so artifacts are
//! shared across them.

use saint_frozen::{fnv1a, FNV_OFFSET};
use saint_ir::{codec, Apk, ClassDef, Manifest};
use saintdroid::SaintDroid;

use crate::store::FORMAT_VERSION;

/// Fingerprint of one class: FNV-1a over its canonical binary encoding
/// (the same bytes the frozen corpus format stores).
#[must_use]
pub fn class_fingerprint(class: &ClassDef) -> u64 {
    fnv1a(&codec::encode_class(class), FNV_OFFSET)
}

/// Fingerprint of everything scan-relevant *outside* the app payload:
/// store format, report schema, enabled detector set, framework model,
/// exploration policy.
#[must_use]
pub fn context_fingerprint(tool: &SaintDroid) -> u64 {
    let mut h = fnv1a(&FORMAT_VERSION.to_le_bytes(), FNV_OFFSET);
    // An artifact's verdict is only complete relative to the mismatch
    // taxonomy it was scanned under (schema) and the families the tool
    // actually ran (detector set); folding both makes enabling,
    // disabling, or adding a detector a typed cache miss instead of a
    // wrong-report splice.
    h = fnv1a(&saintdroid::REPORT_SCHEMA_VERSION.to_le_bytes(), h);
    h = fnv1a(&[tool.detectors().bits()], h);
    // Memoized per framework: a rescan never re-walks the spec.
    h = fnv1a(&tool.arm().framework().fingerprint().to_le_bytes(), h);
    let c = tool.config();
    h = fnv1a(
        &[
            u8::from(c.follow_framework),
            u8::from(c.follow_dynamic),
            u8::from(c.skip_anonymous),
            u8::from(c.preload_all),
        ],
        h,
    );
    h
}

/// Fingerprint of the manifest via its canonical serde encoding.
#[must_use]
pub fn manifest_fingerprint(manifest: &Manifest) -> u64 {
    let text = serde_json::to_string(manifest).unwrap_or_default();
    fnv1a(text.as_bytes(), FNV_OFFSET)
}

/// One class's contribution to a group/app key: which dex slot it lives
/// in (0 = primary, i+1 = secondary `i` — placement changes analysis:
/// only primary methods are exploration roots), its name, and its
/// content fingerprint.
fn fold_member(mut h: u64, dex_slot: u32, class: &ClassDef) -> u64 {
    h = fnv1a(&dex_slot.to_le_bytes(), h);
    h = fnv1a(class.name.as_str().as_bytes(), h);
    fnv1a(&class_fingerprint(class).to_le_bytes(), h)
}

/// Key of one analysis group. `members` must come in a deterministic
/// order (the group builder emits them sorted by name); each entry is
/// `(dex_slot, class)`.
#[must_use]
pub fn group_key(context: u64, manifest: u64, members: &[(u32, &ClassDef)]) -> u64 {
    let mut h = fnv1a(&context.to_le_bytes(), FNV_OFFSET);
    h = fnv1a(&manifest.to_le_bytes(), h);
    for (slot, class) in members {
        h = fold_member(h, *slot, class);
    }
    h
}

/// Whole-app key: the group key over *every* bundled class, in
/// APK iteration order (primary then secondary dexes). An app whose
/// key matches needs no analysis at all — the cached merged report is
/// replayed verbatim.
/// Whole-app key of an app presented as its encoded `SAPK` container
/// bytes: one sequential FNV pass over the container instead of the
/// structural per-class walk of [`app_key`]. The container encoding is
/// canonical, so byte-identical containers decode to identical apps —
/// the key gates the same fast path at a fraction of the hashing cost.
/// The keyspace is domain-separated from [`app_key`]'s; the same app
/// scanned through both entry points simply populates both artifacts.
#[must_use]
pub fn encoded_app_key(context: u64, sapk: &[u8]) -> u64 {
    let mut h = fnv1a(&context.to_le_bytes(), FNV_OFFSET);
    h = fnv1a(b"sapk-container", h);
    fnv1a(sapk, h)
}

#[must_use]
pub fn app_key(context: u64, apk: &Apk) -> u64 {
    let mut h = fnv1a(&context.to_le_bytes(), FNV_OFFSET);
    h = fnv1a(&manifest_fingerprint(&apk.manifest).to_le_bytes(), h);
    for class in apk.primary.classes() {
        h = fold_member(h, 0, class);
    }
    for (i, dex) in apk.secondary.iter().enumerate() {
        for class in dex.classes() {
            h = fold_member(h, i as u32 + 1, class);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use saint_ir::{ApiLevel, ApkBuilder, ClassBuilder, ClassOrigin};

    fn apk() -> Apk {
        let main = ClassBuilder::new("p.Main", ClassOrigin::App)
            .extends("android.app.Activity")
            .method("onCreate", "(Landroid/os/Bundle;)V", |b| {
                b.ret_void();
            })
            .unwrap()
            .build();
        ApkBuilder::new("p.app", ApiLevel::new(21), ApiLevel::new(28))
            .activity("p.Main")
            .class(main)
            .unwrap()
            .build()
    }

    #[test]
    fn class_fingerprint_tracks_content() {
        let a = apk();
        let class = a.primary.classes().next().unwrap();
        let fp = class_fingerprint(class);
        assert_eq!(fp, class_fingerprint(class), "deterministic");
        let mut changed = class.clone();
        changed.interfaces.push("p.Marker".into());
        assert_ne!(fp, class_fingerprint(&changed));
    }

    #[test]
    fn context_fingerprint_folds_detector_set() {
        use saint_adf::{AndroidFramework, SynthConfig};
        use saintdroid::DetectorSet;
        use std::sync::Arc;

        let framework = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
        let amd = SaintDroid::new(Arc::clone(&framework));
        let all = SaintDroid::new(framework).with_detectors(DetectorSet::all());
        assert_eq!(
            context_fingerprint(&amd),
            context_fingerprint(&amd),
            "deterministic"
        );
        assert_ne!(
            context_fingerprint(&amd),
            context_fingerprint(&all),
            "enabling a detector family must invalidate every cached artifact"
        );
    }

    #[test]
    fn app_key_tracks_manifest_and_payload() {
        let a = apk();
        let ctx = 7;
        let base = app_key(ctx, &a);
        assert_eq!(base, app_key(ctx, &a), "deterministic");

        let mut remanifested = a.clone();
        remanifested.manifest.package = "p.other".into();
        assert_ne!(base, app_key(ctx, &remanifested));

        let mut repacked = a.clone();
        let class = a.primary.classes().next().unwrap().clone();
        repacked.primary = saint_ir::DexFile::new("classes.dex");
        let mut dex = saint_ir::DexFile::new("assets/p.dex");
        dex.add_class(class).unwrap();
        repacked.secondary.push(dex);
        assert_ne!(
            base,
            app_key(ctx, &repacked),
            "dex placement is key-relevant"
        );
    }
}
