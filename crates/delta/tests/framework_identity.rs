//! The context key's framework part is the memoized content
//! fingerprint of the framework spec, not anything tied to one
//! `AndroidFramework` value: a store populated by one tool must replay
//! for a second tool built over a separately constructed but equal
//! framework (a daemon restart, another worker process), and must not
//! replay for a different framework.

use std::sync::Arc;

use saint_adf::{AndroidFramework, SynthConfig};
use saint_corpus::{RealWorldConfig, RealWorldCorpus};
use saint_delta::{hash, DeltaScanner};
use saintdroid::SaintDroid;

fn canon(report: &saintdroid::Report) -> String {
    let mut r = report.clone();
    r.duration = std::time::Duration::ZERO;
    serde_json::to_string(&r).expect("serialize report")
}

#[test]
fn equal_frameworks_share_the_store_and_different_ones_do_not() {
    let dir = std::env::temp_dir().join(format!("saint-delta-fw-identity-{}", std::process::id()));
    let mut cfg = RealWorldConfig::small();
    cfg.apps = 2;
    let corpus = RealWorldCorpus::new(cfg);
    let apk = &corpus.get(0).apk;
    let sapk = saint_ir::codec::encode_apk(apk);

    let first = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
    let second = Arc::new(AndroidFramework::with_scale(&SynthConfig::small()));
    assert!(!Arc::ptr_eq(&first, &second));
    let populating = SaintDroid::new(first);
    let replaying = SaintDroid::new(second);
    assert_eq!(
        hash::context_fingerprint(&populating),
        hash::context_fingerprint(&replaying)
    );

    let (cold, cold_stats) = DeltaScanner::new(&dir).scan_encoded(&populating, &sapk, apk, 1);
    assert!(!cold_stats.app_hit, "an empty store cannot hit");

    let (warm, warm_stats) = DeltaScanner::new(&dir).scan_encoded(&replaying, &sapk, apk, 1);
    assert!(
        warm_stats.app_hit,
        "an equal framework must replay the stored app"
    );
    assert_eq!(
        canon(&cold),
        canon(&warm),
        "replayed report is byte-identical"
    );

    let other = SaintDroid::new(Arc::new(AndroidFramework::curated()));
    assert_ne!(
        hash::context_fingerprint(&populating),
        hash::context_fingerprint(&other)
    );
    let (_, other_stats) = DeltaScanner::new(&dir).scan_encoded(&other, &sapk, apk, 1);
    assert!(
        !other_stats.app_hit,
        "a different framework must miss the stored app"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
