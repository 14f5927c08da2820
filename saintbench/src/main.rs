//! `saintbench` — end-to-end and per-layer benchmark of the SAINTDroid
//! reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path saintbench/Cargo.toml -- \
//!     --workload store-sweep --seed 1 --seconds 15 --trace 0
//! ```
//!
//! One invocation is one run of one workload. It prepares the seeded
//! inputs (untimed, cached per build, workload, seed and run length),
//! times the workload's set-up in several fresh processes, runs the
//! workload in one more fresh process, and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics and the
//! time ledger with `--trace 1`. Workload settings are in
//! `workloads.json`; the metric list is in `BENCHMARK.json` at the
//! repository root.

mod inputs;
mod ledger;
mod spec;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::workloads::{Ctx, Run};

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("apps_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("planted_recall", "frac"),
    ("planted_precision", "frac"),
    ("success_frac", "frac"),
    ("within_slo_frac", "frac"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// A layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 57] = [
    ("arm.mine_s", "s"),
    ("frozen.attach_s", "s"),
    ("frozen.preload_s", "s"),
    ("frozen.classes_preloaded", "count"),
    ("frozen.bytes_mapped", "bytes"),
    ("codec.decode_ms", "ms"),
    ("codec.decode_mb_per_s", "MiB/s"),
    ("engine.busy_frac", "frac"),
    ("engine.app_jobs", "count"),
    ("clvm.load_s", "s"),
    ("clvm.classes_loaded", "count"),
    ("cache.class_hit_rate", "frac"),
    ("cache.artifact_hit_rate", "frac"),
    ("cache.scan_hit_rate", "frac"),
    ("cache.class_entries", "count"),
    ("explore.s", "s"),
    ("explore.methods_analyzed", "count"),
    ("amd.invocation_s", "s"),
    ("amd.callback_s", "s"),
    ("amd.permission_s", "s"),
    ("amd.declared_sdk_s", "s"),
    ("amd.invocation_sites", "count"),
    ("report.serialize_ms", "ms"),
    ("report.bytes", "bytes"),
    ("scan.total_s", "s"),
    ("scan.unattributed_frac", "frac"),
    ("delta.context_key_ms", "ms"),
    ("delta.app_key_ms", "ms"),
    ("delta.partition_ms", "ms"),
    ("delta.store_read_ms", "ms"),
    ("delta.hit_ms", "ms"),
    ("delta.splice_ms", "ms"),
    ("delta.app_hits", "count"),
    ("delta.class_hits", "count"),
    ("delta.classes_reanalyzed", "count"),
    ("delta.class_hit_rate", "frac"),
    ("delta.store_mb", "MiB"),
    ("delta.populate_ms_per_app", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.scan_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.backpressure_suspends", "count"),
    ("service.write_stalls", "count"),
    ("gen.lag_ms", "ms"),
    ("gen.offered_rps", "1/s"),
    ("host.nproc", "count"),
    ("host.jobs", "count"),
    ("host.load_1m", "load"),
    ("host.load_1m_end", "load"),
    ("host.steal_frac", "frac"),
    ("proc.cpu_s", "s"),
    ("proc.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("ledger.total_s", "s"),
    ("ledger.residual_s", "s"),
];

/// A child process that outlives this is killed: the whole run must end
/// within the harness's 180-second budget.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: Option<PathBuf>,
    image: Option<PathBuf>,
    part: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        mode: "run".into(),
        seconds: 15,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "prepare" | "measure" => a.mode = arg.clone(),
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--dir" => a.dir = Some(PathBuf::from(value()?)),
            "--image" => a.image = Some(PathBuf::from(value()?)),
            "--part" => a.part = value()?.parse().map_err(|e| format!("--part: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        let spec = spec::find(&args.workload).ok_or_else(|| {
            let names: Vec<String> = spec::all().into_iter().map(|s| s.name).collect();
            format!(
                "unknown workload {:?}; choose one of {}",
                args.workload,
                names.join(", ")
            )
        })?;
        match args.mode.as_str() {
            "prepare" => prepare(&args, &spec),
            "measure" => measure(&args, spec),
            _ => orchestrate(&args, &spec),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("saintbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn required<'a>(p: &'a Option<PathBuf>, flag: &str) -> Result<&'a Path, String> {
    p.as_deref().ok_or_else(|| format!("{flag} is required"))
}

/// `prepare`: writes the inputs (and, for upload-stream, the frozen
/// image) in a process of its own, so generation never shares a heap
/// with a timed set-up.
fn prepare(args: &Args, spec: &spec::Spec) -> Result<(), String> {
    let dir = required(&args.dir, "--dir")?;
    let jobs = sys::nproc();
    if spec.name == "upload-stream" {
        let image = required(&args.image, "--image")?;
        inputs::prepare_frozen_image(&inputs::synth_config(spec), image)
            .map_err(|e| format!("frozen image: {e}"))?;
    }
    inputs::prepare(spec, args.seed, args.seconds, dir, jobs).map_err(|e| e.to_string())
}

/// `measure`: one fresh process running the workload (or only its
/// set-up) and printing its figures as one JSON line.
fn measure(args: &Args, spec: spec::Spec) -> Result<(), String> {
    let ctx = Ctx {
        spec,
        dir: required(&args.dir, "--dir")?.to_path_buf(),
        image: args.image.clone().unwrap_or_default(),
        jobs: sys::nproc(),
        seconds: args.seconds,
        seed: args.seed,
        trace: args.trace,
        part: args.part,
        parts: spec::processes(),
    };
    if ctx.part >= ctx.parts {
        return Err(format!("--part must be below {}", ctx.parts));
    }
    let wall = Instant::now();
    let mut run = workloads::run(&ctx)?;
    if let Some(ledger) = &run.ledger {
        eprint!("{}", ledger.render(&ctx.spec.name));
        run.layers
            .insert("scan.unattributed_frac".into(), ledger.unattributed_frac());
        run.layers.insert("ledger.total_s".into(), ledger.total_s);
        run.layers
            .insert("ledger.residual_s".into(), ledger.residual_s());
    }
    run.layers.insert("proc.cpu_s".into(), sys::process_cpu_s());
    run.layers
        .insert("proc.wall_s".into(), wall.elapsed().as_secs_f64());
    println!("{}", child_line(&run));
    Ok(())
}

/// A finite number as JSON (non-finite values read 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn map_json(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn child_line(run: &Run) -> String {
    let s = &run.score;
    format!(
        "{{\"setup_s\":{},\"timed_s\":{},\"wall_s\":{},\"attempted\":{},\"failed\":{},\"within\":{},\
         \"matched\":{},\"injected\":{},\"reported\":{},\"bad\":{},\"correct\":{},\
         \"peak_rss_mb\":{},\"lat\":[{}],\"layers\":{}}}",
        num(run.setup_s),
        num(run.timed_s),
        num(run.wall_s),
        run.attempted,
        run.failed,
        run.within,
        s.matched,
        s.injected,
        s.reported,
        s.bad_verdicts,
        run.correct,
        num(run.peak_rss_mb),
        run.latencies_ms
            .iter()
            .map(|l| num(*l))
            .collect::<Vec<_>>()
            .join(","),
        map_json(&run.layers)
    )
}

/// A JSON number as `f64` (anything else reads 0).
fn as_f64(v: &serde::Value) -> f64 {
    match v {
        serde::Value::F64(x) => *x,
        serde::Value::I64(x) => *x as f64,
        serde::Value::U64(x) => *x as f64,
        _ => 0.0,
    }
}

fn parse_child(line: &str) -> Result<Run, String> {
    let v = serde_json::from_str_value(line).map_err(|e| format!("bad child output: {e}"))?;
    let f = |key: &str| v.get(key).map_or(0.0, as_f64);
    let map = |key: &str| -> BTreeMap<String, f64> {
        match v.get(key) {
            Some(serde::Value::Object(entries)) => entries
                .iter()
                .map(|(k, x)| (k.clone(), as_f64(x)))
                .collect(),
            _ => BTreeMap::new(),
        }
    };
    let count = |key: &str| f(key) as u64;
    Ok(Run {
        setup_s: f("setup_s"),
        timed_s: f("timed_s"),
        wall_s: f("wall_s"),
        attempted: count("attempted"),
        failed: count("failed"),
        within: count("within"),
        score: stats::TruthScore {
            matched: count("matched"),
            injected: count("injected"),
            reported: count("reported"),
            bad_verdicts: count("bad"),
        },
        correct: matches!(v.get("correct"), Some(serde::Value::Bool(true))),
        latencies_ms: v
            .get("lat")
            .and_then(serde::Value::as_array)
            .map_or_else(Vec::new, |a| a.iter().map(as_f64).collect()),
        peak_rss_mb: f("peak_rss_mb"),
        layers: map("layers"),
        ..Run::default()
    })
}

/// Runs this executable with `args` as a child, waits for it (killing
/// it past [`CHILD_LIMIT`]) and returns the last line of its stdout.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut proc = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let mut stdout = proc.stdout.take().ok_or("child stdout")?;
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut out);
        out
    });
    let start = Instant::now();
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if start.elapsed() > CHILD_LIMIT {
            let _ = proc.kill();
            let _ = proc.wait();
            let _ = reader.join();
            return Err(format!("child {} ran past {CHILD_LIMIT:?}", args[0]));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader.join().map_err(|_| "child reader panicked")?;
    if !status.success() {
        return Err(format!("child {} failed: {status}", args[0]));
    }
    Ok(out.lines().last().unwrap_or_default().to_string())
}

/// Identity of the build under test: a hash of this executable.
fn build_key() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(exe).map_err(|e| e.to_string())?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    Ok(h.finish())
}

/// Removes every entry of `dir` except `keep`.
fn prune(dir: &Path, keep: &Path, prefix: &str) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.filter_map(Result::ok) {
            let path = e.path();
            let name = e.file_name().to_string_lossy().into_owned();
            if path != keep && name.starts_with(prefix) {
                let _ = std::fs::remove_dir_all(&path);
            }
        }
    }
}

/// One run's end-to-end figures from its processes: set-up time and
/// memory are the median over processes; throughput and latency
/// percentiles pool the processes' scans; the rest comes from summed
/// counts.
fn combine(parts: &[Run]) -> Result<Run, String> {
    let mut run = Run {
        correct: parts.iter().all(|p| p.correct),
        ..Run::default()
    };
    for p in parts {
        run.attempted += p.attempted;
        run.failed += p.failed;
        run.within += p.within;
        run.score.matched += p.score.matched;
        run.score.injected += p.score.injected;
        run.score.reported += p.score.reported;
        run.score.bad_verdicts += p.score.bad_verdicts;
        run.latencies_ms.extend_from_slice(&p.latencies_ms);
        run.wall_s += p.wall_s;
        for key in ["proc.cpu_s", "proc.wall_s"] {
            let v = p.layers.get(key).copied().unwrap_or(0.0);
            *run.layers.entry(key.into()).or_insert(0.0) += v;
        }
    }
    let median_of = |f: &dyn Fn(&Run) -> f64| -> Result<f64, String> {
        let v: Vec<f64> = parts.iter().map(f).collect();
        stats::median(&v).ok_or_else(|| "a run needs at least one process".to_string())
    };
    run.setup_s = median_of(&|p| p.setup_s)?;
    let e2e = &mut run.e2e;
    e2e.insert("setup_s".into(), run.setup_s);
    e2e.insert("peak_rss_mb".into(), median_of(&|p| p.peak_rss_mb)?);
    e2e.insert(
        "apps_per_s".into(),
        run.latencies_ms.len() as f64 / run.wall_s.max(f64::EPSILON),
    );
    e2e.insert("p50_ms".into(), stats::percentile(&run.latencies_ms, 0.5)?);
    e2e.insert("p90_ms".into(), stats::percentile(&run.latencies_ms, 0.9)?);
    let attempted = run.attempted.max(1) as f64;
    e2e.insert("planted_recall".into(), run.score.recall());
    e2e.insert("planted_precision".into(), run.score.precision());
    e2e.insert("success_frac".into(), 1.0 - run.failed as f64 / attempted);
    e2e.insert("within_slo_frac".into(), run.within as f64 / attempted);
    let per_process: Vec<String> = parts
        .iter()
        .map(|p| {
            format!(
                "setup_s={:.3} apps_per_s={:.2} p50_ms={:.2}",
                p.setup_s,
                p.latencies_ms.len() as f64 / p.wall_s.max(f64::EPSILON),
                stats::median(&p.latencies_ms).unwrap_or(0.0),
            )
        })
        .collect();
    eprintln!("saintbench: processes [{}]", per_process.join("; "));
    Ok(run)
}

/// One whole run: prepare, the run's processes, and the result
/// line.
fn orchestrate(args: &Args, spec: &spec::Spec) -> Result<(), String> {
    let load_start = sys::load_1m();
    let ticks_start = sys::cpu_ticks();
    let jobs = sys::nproc();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let cache = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("saintbench-inputs");
    let build = cache.join(format!("{:016x}", build_key()?));
    prune(&cache, &build, "");
    let dir = build.join(format!("{}-{}-{}", spec.name, args.seed, args.seconds));
    let image = build.join("framework-paper.sfrz");
    let common = |mode: &str| -> Vec<String> {
        vec![
            mode.to_string(),
            "--workload".into(),
            spec.name.clone(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            args.seconds.to_string(),
            "--dir".into(),
            dir.display().to_string(),
            "--image".into(),
            image.display().to_string(),
        ]
    };
    if !dir.join("done").exists() {
        prune(&build, &dir, &format!("{}-", spec.name));
        let t = Instant::now();
        child(&common("prepare"))?;
        eprintln!(
            "saintbench: prepared {} seed {} in {:.1}s (untimed)",
            spec.name,
            args.seed,
            t.elapsed().as_secs_f64()
        );
    }
    let measure = |trace: bool, part: usize| -> Result<Run, String> {
        let mut a = common("measure");
        a.extend([
            "--trace".into(),
            if trace { "1" } else { "0" }.into(),
            "--part".into(),
            part.to_string(),
        ]);
        parse_child(&child(&a)?)
    };

    let (run, metrics) = if args.trace {
        // The first slice, untraced and then traced: the per-layer
        // figures come from the second, the overhead from the pair.
        let plain = measure(false, 0)?;
        let mut traced = measure(true, 0)?;
        let overhead = traced.timed_s / plain.timed_s.max(f64::EPSILON) - 1.0;
        traced.layers.insert("trace.overhead_frac".into(), overhead);
        traced.layers.insert("trace.wall_s".into(), traced.timed_s);
        traced
            .layers
            .insert("trace.untraced_wall_s".into(), plain.timed_s);
        let metrics: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "host.nproc" => sys::nproc() as f64,
                    "host.jobs" => jobs as f64,
                    "host.load_1m" => load_start,
                    "host.load_1m_end" => sys::load_1m(),
                    "host.steal_frac" => sys::steal_frac(ticks_start, sys::cpu_ticks()),
                    _ => traced.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect();
        (traced, metrics)
    } else {
        let parts = (0..spec::processes())
            .map(|part| measure(false, part))
            .collect::<Result<Vec<Run>, String>>()?;
        let run = combine(&parts)?;
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, run.e2e.get(name).copied().unwrap_or(0.0)))
            .collect();
        (run, metrics)
    };
    eprintln!(
        "saintbench: contention nproc={} jobs={jobs} load_1m start={load_start:.2} end={:.2} \
         host_steal_frac={:.3} proc_cpu_s={:.2} proc_wall_s={:.2}",
        sys::nproc(),
        sys::load_1m(),
        sys::steal_frac(ticks_start, sys::cpu_ticks()),
        run.layers.get("proc.cpu_s").copied().unwrap_or(0.0),
        run.layers.get("proc.wall_s").copied().unwrap_or(0.0),
    );
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.correct,
        run.attempted.max(1),
        run.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &serde::Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(serde::Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(serde::Value::as_str)
                        .expect(k)
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json beside the benchmark directory");
        let v = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(serde::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(serde::Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let specs: Vec<String> = spec::all().into_iter().map(|s| s.name).collect();
        assert_eq!(workloads, specs);

        // The layer-to-end-to-end map in workloads.json names every
        // per-layer metric exactly once.
        let settings =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("workloads.json"))
                .expect("workloads.json");
        let settings = serde_json::from_str_value(&settings).expect("workloads.json parses");
        let mut mapped: Vec<String> = settings
            .get("layers")
            .and_then(serde::Value::as_array)
            .expect("layers")
            .iter()
            .flat_map(|l| {
                l.get("metrics")
                    .and_then(serde::Value::as_array)
                    .expect("metrics")
                    .iter()
                    .map(|m| m.as_str().expect("metric name").to_string())
            })
            .collect();
        mapped.sort();
        let mut listed: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        listed.sort();
        assert_eq!(mapped, listed);
    }

    #[test]
    fn child_lines_round_trip() {
        let mut run = Run {
            setup_s: 1.25,
            timed_s: 3.5,
            attempted: 7,
            failed: 1,
            correct: true,
            ..Run::default()
        };
        run.peak_rss_mb = 0.125;
        run.latencies_ms = vec![1.5, 2.25];
        run.layers.insert("x.y".into(), f64::NAN);
        let back = parse_child(&child_line(&run)).expect("parses");
        assert_eq!(back.setup_s, 1.25);
        assert_eq!(back.attempted, 7);
        assert!(back.correct);
        assert_eq!(back.peak_rss_mb, 0.125);
        assert_eq!(back.latencies_ms, vec![1.5, 2.25]);
        assert_eq!(back.layers["x.y"], 0.0);
    }

    #[test]
    fn arguments_parse_and_reject_bad_trace() {
        let argv: Vec<String> = [
            "--workload",
            "large-apps",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).expect("parses");
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        let bad: Vec<String> = ["--trace", "2"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err());
    }
}
