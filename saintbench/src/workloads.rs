//! The four workloads. Each runs in its own fresh process: set-up
//! first (timed), inputs read afterwards (untimed), then the timed
//! window. With tracing on, the engine carries the `saint-obs` registry
//! and trace sink and the harness adds timers around public calls; the
//! per-layer figures and the ledger come from those.

use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use saint_adf::AndroidFramework;
use saint_delta::{hash, DeltaScanner, DeltaStats};
use saint_ir::{codec, Apk};
use saint_obs::{MetricsRegistry, RegistrySnapshot, TraceEvent, TraceSink};
use saint_service::protocol::{self, Envelope, LineRead};
use saint_service::{Client, ErrorResponse, ScanRequest, ScanResponse, ServerConfig};
use saintdroid::engine::par_map;
use saintdroid::{MismatchKind, Report, ScanEngine};
use serde::Deserialize as _;

use crate::inputs::{self, read_inputs, Input};
use crate::ledger::{union_len, Ledger};
use crate::spec::Spec;
use crate::stats::{self, Families, TruthScore};
use crate::sys;

/// How one measuring process was asked to run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload settings.
    pub spec: Spec,
    /// The prepared inputs.
    pub dir: PathBuf,
    /// The frozen framework image (upload-stream).
    pub image: PathBuf,
    /// Worker threads (`nproc`).
    pub jobs: usize,
    /// Run length the inputs were sized for.
    pub seconds: u64,
    /// Workload seed (the open-loop schedule derives from it).
    pub seed: u64,
    /// Attach the registry and trace sink and record per-layer figures.
    pub trace: bool,
    /// Which slice of the run's work this process does, of `parts`.
    pub part: usize,
    /// Processes the run's work is split across.
    pub parts: usize,
}

/// What one measuring process found.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Set-up time of this process, in seconds.
    pub setup_s: f64,
    /// The timed work's duration (wall for closed loops, summed latency
    /// for the open loop) — the base of the tracing overhead.
    pub timed_s: f64,
    /// Wall time of the timed window, in seconds (for the open loop,
    /// until the last answer).
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Whether every verdict matched the planted truth.
    pub correct: bool,
    /// Planted-truth score over this process's apps.
    pub score: TruthScore,
    /// Operations answered within the latency limit.
    pub within: u64,
    /// Latency of every completed operation, in ms; the caller pools
    /// them over the run's processes for `p50_ms` and `p90_ms`.
    pub latencies_ms: Vec<f64>,
    /// Peak resident set of the process, in MiB.
    pub peak_rss_mb: f64,
    /// End-to-end metrics of a whole run, filled in by the caller.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// The traced run's ledger.
    pub ledger: Option<Ledger>,
}

/// Runs the workload `ctx` names.
///
/// # Errors
///
/// Input, daemon and percentile failures, as text.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    match ctx.spec.name.as_str() {
        "store-sweep" => store_sweep(ctx),
        "large-apps" => large_apps(ctx),
        "update-wave" => update_wave(ctx),
        "upload-stream" => upload_stream(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Observation attached to a traced run.
struct Obs {
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceSink>>,
}

impl Obs {
    fn new(on: bool) -> Self {
        Obs {
            metrics: on.then(|| Arc::new(MetricsRegistry::new())),
            trace: on.then(|| Arc::new(TraceSink::new())),
        }
    }

    fn attach(&self, mut engine: ScanEngine) -> ScanEngine {
        if let Some(m) = &self.metrics {
            engine = engine.with_metrics(Arc::clone(m));
        }
        if let Some(t) = &self.trace {
            engine = engine.with_trace(Arc::clone(t));
        }
        engine
    }

    fn snapshot(&self) -> RegistrySnapshot {
        self.metrics
            .as_ref()
            .map_or_else(|| MetricsRegistry::new().snapshot(), |m| m.snapshot())
    }

    fn events(&self) -> Vec<TraceEvent> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, |t| t.drain_sorted())
    }
}

/// Phase seconds and counter values between two registry snapshots.
struct SnapshotDiff<'a> {
    before: &'a RegistrySnapshot,
    after: &'a RegistrySnapshot,
}

impl SnapshotDiff<'_> {
    fn phase_s(&self, name: &str) -> f64 {
        let t = |s: &RegistrySnapshot| s.phase(name).map_or(0.0, |p| p.total_secs());
        t(self.after) - t(self.before)
    }

    fn counter(&self, name: &str) -> f64 {
        let c = |s: &RegistrySnapshot| s.counter(name).unwrap_or(0);
        (c(self.after) - c(self.before)) as f64
    }
}

const DETECTORS: [(&str, &str); 4] = [
    ("detect_invocation", "amd.invocation_s"),
    ("detect_callback", "amd.callback_s"),
    ("detect_permission", "amd.permission_s"),
    ("detect_declared_sdk", "amd.declared_sdk_s"),
];

fn families(report: &Report) -> Families {
    Families {
        api: report.count(MismatchKind::ApiInvocation) as u64,
        apc: report.count(MismatchKind::ApiCallback) as u64,
        prm: (report.count(MismatchKind::PermissionRequest)
            + report.count(MismatchKind::PermissionRevocation)) as u64,
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The parsed boot of the `scan` verb: framework model, engine with
/// fresh shared caches, and `prewarm` (ARM mining). Returns the engine
/// and the prewarm time.
fn boot_parsed(ctx: &Ctx, obs: &Obs) -> (ScanEngine, f64) {
    let fw = Arc::new(AndroidFramework::with_scale(&inputs::synth_config(
        &ctx.spec,
    )));
    let engine = obs.attach(ScanEngine::new(fw).jobs(ctx.jobs));
    let t = Instant::now();
    engine.prewarm();
    (engine, secs(t.elapsed()))
}

/// End-to-end figures shared by every workload.
struct Summary<'a> {
    latencies_ms: &'a [f64],
    wall_s: f64,
    within_limit: u64,
    attempted: u64,
    failed: u64,
    score: TruthScore,
}

fn summarize(run: &mut Run, s: &Summary<'_>) {
    run.peak_rss_mb = sys::peak_rss_mb();
    run.latencies_ms = s.latencies_ms.to_vec();
    run.wall_s = s.wall_s;
    run.attempted = s.attempted;
    run.failed = s.failed;
    run.within = s.within_limit;
    run.score = s.score;
    run.correct = s.score.bad_verdicts == 0 && s.score.recall() == 1.0;
    if s.score.bad_verdicts > 0 {
        eprintln!(
            "saintbench: {} verdicts differ from the planted truth",
            s.score.bad_verdicts
        );
    }
}

fn within(latencies_ms: &[f64], limit_ms: f64) -> u64 {
    latencies_ms.iter().filter(|&&l| l <= limit_ms).count() as u64
}

/// This process's share of `inputs`: every `parts`-th package by size
/// rank, in input order, so each process gets the same size profile.
fn slice(inputs: Vec<Input>, part: usize, parts: usize) -> Vec<Input> {
    let mut by_size: Vec<usize> = (0..inputs.len()).collect();
    by_size.sort_by_key(|&i| (inputs[i].sapk.len(), i));
    let mut mine = vec![false; inputs.len()];
    for (rank, &i) in by_size.iter().enumerate() {
        mine[i] = rank % parts.max(1) == part;
    }
    inputs
        .into_iter()
        .zip(mine)
        .filter_map(|(input, keep)| keep.then_some(input))
        .collect()
}

fn read_slice(ctx: &Ctx, file: &str) -> Result<Vec<Input>, String> {
    let inputs = read_inputs(&ctx.dir.join(file)).map_err(|e| e.to_string())?;
    Ok(slice(inputs, ctx.part, ctx.parts))
}

/// Engine-level per-layer figures common to the scan workloads.
fn engine_layers(run: &mut Run, engine: &ScanEngine, d: &SnapshotDiff<'_>) {
    let l = &mut run.layers;
    l.insert("clvm.load_s".into(), d.phase_s("clvm_load"));
    l.insert("clvm.classes_loaded".into(), d.counter("classes_loaded"));
    l.insert("explore.s".into(), d.phase_s("explore"));
    l.insert(
        "explore.methods_analyzed".into(),
        d.counter("methods_analyzed"),
    );
    for (phase, name) in DETECTORS {
        l.insert(name.into(), d.phase_s(phase));
    }
    l.insert(
        "amd.invocation_sites".into(),
        d.counter("invocation_sites_scanned"),
    );
    l.insert("scan.total_s".into(), d.phase_s("scan_total"));
    let rate = |s: Option<saintdroid::engine::CacheStats>| s.map_or(0.0, |s| s.hit_rate());
    l.insert("cache.class_hit_rate".into(), rate(engine.cache_stats()));
    l.insert(
        "cache.artifact_hit_rate".into(),
        rate(engine.artifact_cache_stats()),
    );
    l.insert(
        "cache.scan_hit_rate".into(),
        rate(engine.scan_cache_stats()),
    );
    l.insert(
        "cache.class_entries".into(),
        engine.cache_stats().map_or(0.0, |s| s.entries as f64),
    );
}

fn detect_s(d: &SnapshotDiff<'_>) -> f64 {
    DETECTORS.iter().map(|(p, _)| d.phase_s(p)).sum()
}

// ---------------------------------------------------------------------
// store-sweep
// ---------------------------------------------------------------------

fn store_sweep(ctx: &Ctx) -> Result<Run, String> {
    let t0 = Instant::now();
    let obs = Obs::new(ctx.trace);
    let (engine, arm_s) = boot_parsed(ctx, &obs);
    let mut run = Run {
        setup_s: secs(t0.elapsed()),
        ..Run::default()
    };
    let inputs = read_slice(ctx, "apps.bin")?;
    let before = obs.snapshot();

    let mut latencies = Vec::with_capacity(inputs.len());
    let mut score = TruthScore::default();
    let (mut failed, mut busy_s, mut decode_s, mut decoded_bytes) = (0u64, 0.0, 0.0, 0usize);
    let mut workers = 1usize;
    let start = Instant::now();
    for chunk in inputs.chunks(64) {
        let decoded = par_map(ctx.jobs, chunk, |_, input| {
            let t = Instant::now();
            let apk = codec::decode_apk(&input.sapk);
            (apk, t.elapsed())
        });
        let mut apks = Vec::with_capacity(chunk.len());
        let mut meta = Vec::with_capacity(chunk.len());
        for (input, (apk, took)) in chunk.iter().zip(decoded) {
            decode_s += secs(took);
            decoded_bytes += input.sapk.len();
            match apk {
                Ok(apk) => {
                    apks.push(apk);
                    meta.push((input.truth, took));
                }
                Err(_) => failed += 1,
            }
        }
        let batch = engine.scan_batch_timed(&apks);
        workers = workers.max(batch.workers.len());
        busy_s += batch.workers.iter().map(|w| secs(w.busy)).sum::<f64>();
        for (report, (truth, took)) in batch.reports.iter().zip(meta) {
            if report.has_errors() {
                failed += 1;
                continue;
            }
            latencies.push((took + report.duration).as_secs_f64() * 1e3);
            score.add(families(report), truth);
        }
    }
    let wall = secs(start.elapsed());
    run.timed_s = wall;
    summarize(
        &mut run,
        &Summary {
            latencies_ms: &latencies,
            wall_s: wall,
            within_limit: within(&latencies, ctx.spec.latency_limit_ms),
            attempted: inputs.len() as u64,
            failed,
            score,
        },
    );

    if ctx.trace {
        let after = obs.snapshot();
        let d = SnapshotDiff {
            before: &before,
            after: &after,
        };
        engine_layers(&mut run, &engine, &d);
        let l = &mut run.layers;
        l.insert("arm.mine_s".into(), arm_s);
        l.insert("engine.busy_frac".into(), busy_s / (workers as f64 * wall));
        l.insert("engine.app_jobs".into(), 1.0);
        l.insert(
            "codec.decode_ms".into(),
            1e3 * decode_s / inputs.len() as f64,
        );
        l.insert(
            "codec.decode_mb_per_s".into(),
            decoded_bytes as f64 / 1048576.0 / decode_s,
        );
        // Thread-seconds: decode and scan both run on `jobs` threads,
        // and with one app per worker every engine span nests inside
        // its scan on that worker's thread.
        let mut ledger = Ledger::new("thread-seconds", ctx.jobs as f64 * wall);
        ledger.item("codec.decode", decode_s);
        ledger.item("explore", d.phase_s("explore"));
        for (phase, name) in DETECTORS {
            ledger.item(name.trim_end_matches("_s"), d.phase_s(phase));
        }
        ledger.item(
            "scan.merge_and_arm_fetch",
            d.phase_s("scan_total") - d.phase_s("explore") - detect_s(&d),
        );
        ledger.item("engine.dispatch", busy_s - d.phase_s("scan_total"));
        ledger.nested("clvm.load", d.phase_s("clvm_load"));
        run.ledger = Some(ledger);
    }
    Ok(run)
}

// ---------------------------------------------------------------------
// large-apps
// ---------------------------------------------------------------------

fn large_apps(ctx: &Ctx) -> Result<Run, String> {
    let t0 = Instant::now();
    let obs = Obs::new(ctx.trace);
    let (engine, arm_s) = boot_parsed(ctx, &obs);
    let mut run = Run {
        setup_s: secs(t0.elapsed()),
        ..Run::default()
    };
    let inputs = read_slice(ctx, "apps.bin")?;
    let apks: Vec<Apk> = inputs
        .iter()
        .map(|i| codec::decode_apk(&i.sapk).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let before = obs.snapshot();

    let mut latencies = Vec::with_capacity(apks.len());
    let mut score = TruthScore::default();
    let (mut failed, mut busy_s, mut workers) = (0u64, 0.0, 1usize);
    let start = Instant::now();
    for (apk, input) in apks.iter().zip(&inputs) {
        let t = Instant::now();
        let batch = engine.scan_batch_timed(std::slice::from_ref(apk));
        let took = t.elapsed();
        workers = workers.max(batch.workers.len());
        busy_s += batch.workers.iter().map(|w| secs(w.busy)).sum::<f64>();
        let report = &batch.reports[0];
        if report.has_errors() {
            failed += 1;
            continue;
        }
        latencies.push(took.as_secs_f64() * 1e3);
        score.add(families(report), input.truth);
    }
    let wall = secs(start.elapsed());
    run.timed_s = wall;
    summarize(
        &mut run,
        &Summary {
            latencies_ms: &latencies,
            wall_s: wall,
            within_limit: within(&latencies, ctx.spec.latency_limit_ms),
            attempted: apks.len() as u64,
            failed,
            score,
        },
    );

    if ctx.trace {
        let after = obs.snapshot();
        let d = SnapshotDiff {
            before: &before,
            after: &after,
        };
        engine_layers(&mut run, &engine, &d);
        // The engine's documented auto split: one app slot, the rest of
        // the budget (capped by cores) as intra-app tasks.
        let app_jobs = (ctx.jobs / workers).min(sys::nproc() / workers).max(1);
        let l = &mut run.layers;
        l.insert("arm.mine_s".into(), arm_s);
        l.insert("engine.busy_frac".into(), busy_s / (workers as f64 * wall));
        l.insert("engine.app_jobs".into(), app_jobs as f64);
        // Wall basis: one app in flight. Detectors run concurrently, so
        // their share of the critical path is the union of their spans.
        let events = obs.events();
        let detect: Vec<(u64, u64)> = events
            .iter()
            .filter(|e| e.cat.starts_with("detect_"))
            .map(|e| (e.ts_us, e.dur_us))
            .collect();
        let detect_wall = union_len(&detect) as f64 / 1e6;
        let scan_total = d.phase_s("scan_total");
        let mut ledger = Ledger::new("wall", wall);
        ledger.item("explore", d.phase_s("explore"));
        ledger.item("amd (concurrent detectors)", detect_wall);
        ledger.item(
            "scan.merge_and_arm_fetch",
            scan_total - d.phase_s("explore") - detect_wall,
        );
        ledger.item(
            "engine.dispatch",
            latencies.iter().sum::<f64>() / 1e3 - scan_total,
        );
        ledger.nested("clvm.load", d.phase_s("clvm_load"));
        for (phase, name) in DETECTORS {
            ledger.nested(name, d.phase_s(phase));
        }
        run.ledger = Some(ledger);
    }
    Ok(run)
}

// ---------------------------------------------------------------------
// update-wave
// ---------------------------------------------------------------------

/// One delta rescan: decode and scan times and what was reused.
struct DeltaScan {
    decode: Duration,
    scan: Duration,
    stats: DeltaStats,
    got: Families,
    errored: bool,
}

/// Decodes and delta-scans `items` on `jobs` threads over `scanner`.
fn delta_scan_all(
    engine: &ScanEngine,
    scanner: &DeltaScanner,
    items: &[&Input],
    jobs: usize,
) -> Vec<Option<DeltaScan>> {
    par_map(jobs, items, |_, input| {
        let t = Instant::now();
        let apk = codec::decode_apk(&input.sapk).ok()?;
        let decode = t.elapsed();
        let t = Instant::now();
        let (report, stats) = scanner.scan_encoded(engine.tool(), &input.sapk, &apk, 1);
        Some(DeltaScan {
            decode,
            scan: t.elapsed(),
            stats,
            got: families(&report),
            errored: report.has_errors(),
        })
    })
}

fn dir_bytes(path: &Path) -> u64 {
    std::fs::read_dir(path).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                Ok(m) => m.len(),
                Err(_) => 0,
            })
            .sum()
    })
}

fn update_wave(ctx: &Ctx) -> Result<Run, String> {
    let t0 = Instant::now();
    let obs = Obs::new(ctx.trace);
    let (engine, arm_s) = boot_parsed(ctx, &obs);
    let boot_s = secs(t0.elapsed());
    // Reading the base corpus is input I/O, not set-up: off the clock.
    let base = read_inputs(&ctx.dir.join("base.bin")).map_err(|e| e.to_string())?;
    let store = ctx.dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let t1 = Instant::now();
    let populate = DeltaScanner::new(&store);
    let base_refs: Vec<&Input> = base.iter().collect();
    let populated = delta_scan_all(&engine, &populate, &base_refs, ctx.jobs);
    let populate_s = secs(t1.elapsed());
    let mut run = Run {
        setup_s: boot_s + populate_s,
        ..Run::default()
    };
    let populate_ok = populated.iter().zip(&base).all(|(s, input)| {
        s.as_ref()
            .is_some_and(|s| !s.errored && stats::verdict_ok(s.got, input.truth))
    });
    // This process's waves: a contiguous run of whole update cycles.
    let all_waves = read_inputs(&ctx.dir.join("waves.bin")).map_err(|e| e.to_string())?;
    let (from, to) = (
        ctx.part * all_waves.len() / ctx.parts,
        (ctx.part + 1) * all_waves.len() / ctx.parts,
    );
    let waves: Vec<(usize, Input)> = all_waves
        .into_iter()
        .enumerate()
        .skip(from)
        .take(to - from)
        .collect();
    let before = obs.snapshot();

    let mut latencies = Vec::new();
    let mut score = TruthScore::default();
    let (mut failed, mut decode_s, mut decoded_bytes) = (0u64, 0.0, 0usize);
    let (mut hit_s, mut hits, mut splice_s, mut splices) = (0.0, 0u64, 0.0, 0u64);
    let (mut class_hits, mut classes_seen, mut reanalyzed) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    for (w, update) in &waves {
        // A fresh scanner per wave: reuse goes through the on-disk
        // store, not the in-process memo.
        let scanner = DeltaScanner::new(&store);
        let mut items: Vec<&Input> = base.iter().collect();
        items[w % base.len()] = update;
        for (res, input) in delta_scan_all(&engine, &scanner, &items, ctx.jobs)
            .into_iter()
            .zip(&items)
        {
            let Some(s) = res.filter(|s| !s.errored) else {
                failed += 1;
                continue;
            };
            decode_s += secs(s.decode);
            decoded_bytes += input.sapk.len();
            latencies.push((s.decode + s.scan).as_secs_f64() * 1e3);
            score.add(s.got, input.truth);
            classes_seen += s.stats.classes_seen;
            reanalyzed += s.stats.reanalyzed;
            if s.stats.app_hit {
                hits += 1;
                hit_s += secs(s.scan);
            } else {
                splices += 1;
                splice_s += secs(s.scan);
                class_hits += s.stats.hits;
            }
        }
    }
    let wall = secs(start.elapsed());
    run.timed_s = wall;
    let attempted = (waves.len() * base.len()) as u64;
    summarize(
        &mut run,
        &Summary {
            latencies_ms: &latencies,
            wall_s: wall,
            within_limit: within(&latencies, ctx.spec.latency_limit_ms),
            attempted,
            failed,
            score,
        },
    );
    run.correct &= populate_ok;

    if ctx.trace {
        let after = obs.snapshot();
        let d = SnapshotDiff {
            before: &before,
            after: &after,
        };
        engine_layers(&mut run, &engine, &d);
        // Costs of the delta layer's public steps, timed call by call
        // over the same inputs after the window.
        let tool = engine.tool();
        let probe = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            for _ in 0..base.len() {
                f();
            }
            1e3 * secs(t.elapsed()) / base.len() as f64
        };
        let context_ms = probe(&mut || {
            std::hint::black_box(hash::context_fingerprint(tool));
        });
        let ctx_key = hash::context_fingerprint(tool);
        let mut k = 0;
        let app_key_ms = probe(&mut || {
            std::hint::black_box(hash::encoded_app_key(ctx_key, &base[k].sapk));
            k = (k + 1) % base.len();
        });
        let apks: Vec<Apk> = base
            .iter()
            .filter_map(|i| codec::decode_apk(&i.sapk).ok())
            .collect();
        let mut k = 0;
        let partition_ms = probe(&mut || {
            std::hint::black_box(saint_delta::bundled_groups(&apks[k % apks.len()]));
            k += 1;
        });
        let reader = saint_delta::DeltaStore::new(&store);
        let mut k = 0;
        let store_read_ms = probe(&mut || {
            let key = hash::encoded_app_key(ctx_key, &base[k].sapk);
            std::hint::black_box(reader.load_app(key).is_ok());
            k = (k + 1) % base.len();
        }) - app_key_ms;

        let l = &mut run.layers;
        l.insert("arm.mine_s".into(), arm_s);
        l.insert(
            "codec.decode_ms".into(),
            1e3 * decode_s / latencies.len().max(1) as f64,
        );
        l.insert(
            "codec.decode_mb_per_s".into(),
            decoded_bytes as f64 / 1048576.0 / decode_s,
        );
        l.insert("delta.context_key_ms".into(), context_ms);
        l.insert("delta.app_key_ms".into(), app_key_ms);
        l.insert("delta.partition_ms".into(), partition_ms);
        l.insert("delta.store_read_ms".into(), store_read_ms);
        l.insert("delta.hit_ms".into(), 1e3 * hit_s / hits.max(1) as f64);
        l.insert(
            "delta.splice_ms".into(),
            1e3 * splice_s / splices.max(1) as f64,
        );
        l.insert("delta.app_hits".into(), hits as f64);
        l.insert("delta.class_hits".into(), class_hits as f64);
        l.insert("delta.classes_reanalyzed".into(), reanalyzed as f64);
        l.insert(
            "delta.class_hit_rate".into(),
            1.0 - reanalyzed as f64 / classes_seen.max(1) as f64,
        );
        l.insert(
            "delta.store_mb".into(),
            dir_bytes(&store) as f64 / 1048576.0,
        );
        l.insert(
            "delta.populate_ms_per_app".into(),
            1e3 * populate_s / base.len() as f64,
        );

        // Thread-seconds over the rescan threads. The app-hit path's
        // split comes from the call-by-call probes above.
        let mut ledger = Ledger::new("thread-seconds", ctx.jobs as f64 * wall);
        ledger.item("codec.decode", decode_s);
        let n = (hits + splices) as f64;
        let keys_s = n * (context_ms + app_key_ms) / 1e3;
        let read_s = hits as f64 * store_read_ms / 1e3;
        ledger.item("delta.context_and_app_key (probed)", keys_s);
        ledger.item("delta.store_read (probed)", read_s);
        ledger.item(
            "delta.hit_rest",
            hit_s - (hits as f64 * (context_ms + app_key_ms + store_read_ms) / 1e3),
        );
        ledger.item("explore", d.phase_s("explore"));
        ledger.item("amd", detect_s(&d));
        ledger.item(
            "delta.splice_rest",
            splice_s
                - splices as f64 * (context_ms + app_key_ms) / 1e3
                - d.phase_s("explore")
                - detect_s(&d),
        );
        ledger.nested("clvm.load", d.phase_s("clvm_load"));
        run.ledger = Some(ledger);
    }
    let _ = std::fs::remove_dir_all(&store);
    Ok(run)
}

// ---------------------------------------------------------------------
// upload-stream
// ---------------------------------------------------------------------

/// How long after the last due time unanswered uploads are given up.
const DRAIN_GRACE: Duration = Duration::from_secs(30);
/// Per-upload daemon deadline; a timed-out upload is a failure.
const UPLOAD_DEADLINE_MS: u64 = 10_000;

/// What a connection's reader saw for one upload.
#[derive(Debug, Clone, Copy)]
struct Answer {
    done: Duration,
    got: Option<Families>,
    bytes: usize,
}

fn upload_stream(ctx: &Ctx) -> Result<Run, String> {
    let t0 = Instant::now();
    let obs = Obs::new(ctx.trace);
    let fw = Arc::new(AndroidFramework::with_scale(&inputs::synth_config(
        &ctx.spec,
    )));
    let mut engine = ScanEngine::new(fw).jobs(ctx.jobs);
    if let Some(t) = &obs.trace {
        engine = engine.with_trace(Arc::clone(t));
    }
    // The daemon always carries a registry; installing it before the
    // attach records the attach itself.
    let engine = engine.ensure_metrics();
    let boot = engine
        .attach_frozen(&ctx.image)
        .map_err(|e| format!("frozen attach failed: {e}"))?;
    let t = Instant::now();
    engine.prewarm();
    let preload_s = secs(t.elapsed());
    let preloaded = engine.frozen_boot().map_or(0, |b| b.classes_preloaded);
    let registry = engine.metrics().map(Arc::clone);
    let cfg = ServerConfig {
        listen: "127.0.0.1:0".to_string(),
        jobs: ctx.jobs,
        ..ServerConfig::default()
    };
    let handle = saint_service::start(engine, &cfg).map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let mut run = Run {
        setup_s: secs(t0.elapsed()),
        ..Run::default()
    };
    let result = stream(ctx, &addr, &mut run);
    if let (Ok(()), true) = (&result, ctx.trace) {
        let l = &mut run.layers;
        l.insert("frozen.attach_s".into(), secs(boot.startup));
        l.insert("frozen.preload_s".into(), preload_s);
        l.insert("frozen.classes_preloaded".into(), preloaded as f64);
        l.insert("frozen.bytes_mapped".into(), boot.bytes_mapped as f64);
        if let Some(reg) = registry {
            let s = reg.snapshot();
            l.insert(
                "clvm.load_s".into(),
                s.phase("clvm_load").map_or(0.0, |p| p.total_secs()),
            );
        }
    }
    handle.begin_shutdown();
    handle.wait();
    result.map(|()| run)
}

/// Sends the open-loop stream and fills in `run`.
fn stream(ctx: &Ctx, addr: &str, run: &mut Run) -> Result<(), String> {
    let inputs = read_slice(ctx, "apps.bin")?;
    let window = Duration::from_secs(ctx.seconds).div_f64(ctx.parts as f64);
    let schedule = stats::poisson_schedule(
        ctx.spec.rate_per_s,
        window,
        ctx.seed ^ (0x5EED + ctx.part as u64),
    );
    if schedule.len() > inputs.len() {
        return Err(format!(
            "schedule has {} arrivals but only {} uploads were prepared",
            schedule.len(),
            inputs.len()
        ));
    }
    // Request lines are built before the window: the client's encoding
    // is not part of the system under test.
    let lines: Vec<String> = inputs[..schedule.len()]
        .iter()
        .enumerate()
        .map(|(k, i)| {
            protocol::to_line(
                &ScanRequest::new(&i.sapk, Some(UPLOAD_DEADLINE_MS)).with_id(k as u64),
            )
        })
        .collect();
    // One pipelined connection per core, all opened before any reader
    // starts, so a failed connect leaves no reader blocked.
    let writers = (0..ctx.jobs.max(1))
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect::<std::io::Result<Vec<TcpStream>>>()
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    let readers = writers
        .iter()
        .map(|w| w.try_clone().map(BufReader::new))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new(vec![None; schedule.len()]);
    let pending = AtomicUsize::new(schedule.len());
    let samples: Mutex<Vec<ScanResponse>> = Mutex::new(Vec::new());
    let mut sent = vec![Duration::ZERO; schedule.len()];
    let start = Instant::now();
    let res = std::thread::scope(|s| -> Result<(), String> {
        for reader in readers {
            s.spawn(|| read_answers(reader, start, &answers, &pending, &samples));
        }
        let sent_all = (|| -> Result<(), String> {
            for (k, due) in schedule.iter().enumerate() {
                let now = start.elapsed();
                if *due > now {
                    std::thread::sleep(*due - now);
                }
                sent[k] = start.elapsed();
                let mut conn = &writers[k % writers.len()];
                conn.write_all(lines[k].as_bytes())
                    .map_err(|e| format!("upload write failed: {e}"))?;
            }
            Ok(())
        })();
        // Wait for the answers, then close the connections so the
        // readers see end of stream and exit.
        let give_up = window + DRAIN_GRACE;
        while pending.load(Ordering::Acquire) > 0 && start.elapsed() < give_up {
            std::thread::sleep(Duration::from_millis(5));
        }
        for w in &writers {
            let _ = w.shutdown(Shutdown::Both);
        }
        sent_all
    });
    res?;
    let answers = answers.into_inner().map_err(|_| "reader panicked")?;

    let mut score = TruthScore::default();
    let mut requests = Vec::with_capacity(schedule.len());
    let mut response_bytes = 0usize;
    for (k, due) in schedule.iter().enumerate() {
        let outcome = match answers[k] {
            Some(Answer {
                done,
                got: Some(got),
                bytes,
            }) => {
                score.add(got, inputs[k].truth);
                response_bytes += bytes;
                stats::Outcome::Answered { done }
            }
            _ => stats::Outcome::Failed,
        };
        requests.push(stats::Request {
            due: *due,
            sent: sent[k],
            outcome,
        });
    }
    let limit = Duration::from_secs_f64(ctx.spec.latency_limit_ms / 1e3);
    let open = stats::open_loop(&requests, limit);
    let wall = requests
        .iter()
        .filter_map(|r| match r.outcome {
            stats::Outcome::Answered { done } => Some(secs(done)),
            stats::Outcome::Failed => None,
        })
        .fold(secs(window), f64::max);
    run.timed_s = open.latencies_ms.iter().sum::<f64>() / 1e3;
    summarize(
        run,
        &Summary {
            latencies_ms: &open.latencies_ms,
            wall_s: wall,
            within_limit: open.within_limit,
            attempted: open.attempted,
            failed: open.failed,
            score,
        },
    );

    if ctx.trace {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let m = client.metrics().map_err(|e| e.to_string())?;
        let phase = |name: &str| {
            m.phases
                .iter()
                .find(|p| p.name == name)
                .map_or((0.0, 0), |p| (p.total_ns as f64 / 1e6, p.count))
        };
        let counter = |name: &str| {
            m.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0.0, |c| c.value as f64)
        };
        let (queue_ms, queued) = phase("queue_wait");
        let (scan_ms, scanned) = phase("scan_total");
        let answered = open.latencies_ms.len().max(1) as f64;
        let mean_latency = open.latencies_ms.iter().sum::<f64>() / answered;
        let queue_mean = queue_ms / queued.max(1) as f64;
        let scan_mean = scan_ms / scanned.max(1) as f64;
        // Decode and serialization, timed call by call after the window
        // over a sample of this run's uploads and answers.
        let sample = &lines[..lines.len().min(40)];
        let mut decoded_bytes = 0usize;
        let t = Instant::now();
        for line in sample {
            let req: ScanRequest = serde_json::from_str(line).map_err(|e| e.to_string())?;
            let bytes = protocol::base64_decode(&req.package_b64).unwrap_or_default();
            decoded_bytes += bytes.len();
            std::hint::black_box(codec::decode_apk(&bytes).is_ok());
        }
        let decode_s = secs(t.elapsed());
        let decode_ms = 1e3 * decode_s / sample.len().max(1) as f64;
        let responses = samples.into_inner().map_err(|_| "reader panicked")?;
        let t = Instant::now();
        for resp in &responses {
            std::hint::black_box(protocol::to_line(resp));
        }
        let serialize_ms = 1e3 * secs(t.elapsed()) / responses.len().max(1) as f64;
        let l = &mut run.layers;
        l.insert("service.queue_wait_ms".into(), queue_mean);
        l.insert("service.scan_ms".into(), scan_mean);
        l.insert(
            "service.wire_ms".into(),
            mean_latency - open.lag_ms - queue_mean - scan_mean,
        );
        l.insert(
            "service.backpressure_suspends".into(),
            counter("backpressure_suspends"),
        );
        l.insert("service.write_stalls".into(), counter("write_stalls"));
        l.insert("gen.lag_ms".into(), open.lag_ms);
        l.insert(
            "gen.offered_rps".into(),
            schedule.len() as f64 / secs(window),
        );
        l.insert("codec.decode_ms".into(), decode_ms);
        l.insert(
            "codec.decode_mb_per_s".into(),
            decoded_bytes as f64 / 1048576.0 / decode_s,
        );
        l.insert("report.serialize_ms".into(), serialize_ms);
        l.insert("report.bytes".into(), response_bytes as f64 / answered);
        let rate = |c: &Option<saint_service::protocol::CacheStatus>| {
            c.as_ref().map_or(0.0, |c| c.hit_rate)
        };
        l.insert("cache.class_hit_rate".into(), rate(&m.class_cache));
        l.insert("cache.artifact_hit_rate".into(), rate(&m.artifact_cache));
        l.insert("cache.scan_hit_rate".into(), rate(&m.scan_cache));
        l.insert(
            "cache.class_entries".into(),
            m.class_cache.as_ref().map_or(0.0, |c| c.entries as f64),
        );
        l.insert("scan.total_s".into(), scan_ms / 1e3);
        l.insert("explore.s".into(), phase("explore").0 / 1e3);
        l.insert("clvm.classes_loaded".into(), counter("classes_loaded"));
        l.insert(
            "explore.methods_analyzed".into(),
            counter("methods_analyzed"),
        );
        l.insert(
            "amd.invocation_sites".into(),
            counter("invocation_sites_scanned"),
        );
        for (p, name) in DETECTORS {
            l.insert(name.into(), phase(p).0 / 1e3);
        }
        // Wall basis per upload: the summed latency splits into
        // generator lag, queue wait, scan and the rest of the wire path
        // (base64, decode, serialization, reactor I/O).
        let total = open.latencies_ms.iter().sum::<f64>() / 1e3;
        let mut ledger = Ledger::new("summed upload latency", total);
        ledger.item("gen.lag", open.lag_ms * answered / 1e3);
        ledger.item("service.queue_wait", queue_ms / 1e3);
        ledger.item("service.scan", scan_ms / 1e3);
        ledger.item(
            "codec.base64_and_decode (probed)",
            decode_ms * answered / 1e3,
        );
        ledger.item("report.serialize (probed)", serialize_ms * answered / 1e3);
        ledger.nested("explore", phase("explore").0 / 1e3);
        run.ledger = Some(ledger);
    }
    Ok(())
}

/// Reads one connection's answers until end of stream, recording when
/// each arrived and what it reported.
fn read_answers(
    mut reader: BufReader<TcpStream>,
    start: Instant,
    answers: &Mutex<Vec<Option<Answer>>>,
    pending: &AtomicUsize,
    samples: &Mutex<Vec<ScanResponse>>,
) {
    loop {
        let raw = match protocol::read_line_bounded(&mut reader, protocol::MAX_LINE_BYTES) {
            Ok(LineRead::Line(raw)) => raw,
            _ => return,
        };
        let done = start.elapsed();
        let Ok(value) = serde_json::from_str_value(&raw) else {
            continue;
        };
        let kind = Envelope::from_value(&value).ok().and_then(|e| e.kind);
        let (id, got) = match kind.as_deref() {
            Some("scan") => match ScanResponse::from_value(&value) {
                Ok(resp) => {
                    let got = (!resp.report.has_errors()).then(|| families(&resp.report));
                    let id = resp.id;
                    if let Ok(mut kept) = samples.lock() {
                        if kept.len() < 40 {
                            kept.push(resp);
                        }
                    }
                    (id, got)
                }
                Err(_) => continue,
            },
            Some("error") => match ErrorResponse::from_value(&value) {
                Ok(err) => (err.id, None),
                Err(_) => continue,
            },
            _ => continue,
        };
        let Some(id) = id.and_then(|id| usize::try_from(id).ok()) else {
            continue;
        };
        if let Ok(mut a) = answers.lock() {
            if let Some(slot) = a.get_mut(id) {
                if slot.is_none() {
                    *slot = Some(Answer {
                        done,
                        got,
                        bytes: raw.len(),
                    });
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }
}
