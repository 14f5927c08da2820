//! The untimed prepare step and the input files it leaves behind.
//!
//! Inputs are generated from the workload seed, encoded as SAPK
//! containers and written beside a ground-truth sidecar, so a timed
//! process only reads bytes and never runs the generator. A set of
//! inputs lives in its own directory, keyed by workload, seed and run
//! length; a `done` marker is written last, so an interrupted prepare
//! is redone rather than trusted.

use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use saint_adf::{well_known, AndroidFramework, SynthConfig};
use saint_corpus::{churn_wave, RealWorldConfig, RealWorldCorpus};
use saint_ir::{codec, ApiLevel, ClassBuilder, ClassOrigin};
use saintdroid::engine::par_map_indexed;

use crate::spec::Spec;
use crate::stats::Families;

/// One input package: its SAPK bytes and what the generator planted.
#[derive(Debug, Clone)]
pub struct Input {
    /// Canonical SAPK container bytes.
    pub sapk: Vec<u8>,
    /// Planted mismatch sites per family.
    pub truth: Families,
}

/// Name of the class an update adds to plant one unguarded API-26 call.
const NOTIFY_CLASS: &str = "upd.NotifyChannelIssue";

/// The RQ2-style generator configuration of a workload at `seed`.
#[must_use]
pub fn corpus_config(spec: &Spec, seed: u64, apps: usize) -> RealWorldConfig {
    let mut cfg = if spec.framework == "paper-large" {
        saint_bench::Scale::Paper.large_app_config()
    } else {
        RealWorldConfig::paper()
    };
    cfg.seed = seed;
    cfg.apps = apps;
    cfg.size_scale *= spec.size_factor;
    cfg
}

/// The framework expansion a workload analyzes against.
#[must_use]
pub fn synth_config(spec: &Spec) -> SynthConfig {
    corpus_config(spec, 0, 0).synth
}

fn truth_of(app: &saint_corpus::RealWorldApp) -> Families {
    Families {
        api: app.injected.api as u64,
        apc: app.injected.apc as u64,
        prm: (app.injected.prm_request + app.injected.prm_revocation) as u64,
    }
}

/// Generates `apps` packages of the workload corpus on `jobs` threads,
/// stratified by size: a pool of `pool_factor × apps` packages is
/// drawn from the seed, and the packages at evenly spaced size
/// quantiles of the pool are kept, in pool order. App sizes are
/// heavy-tailed, so a plain draw of a few dozen apps would make the
/// work of a run depend on the seed; stratifying fixes the size profile
/// and leaves the seed to choose which apps fill it.
fn generate(spec: &Spec, seed: u64, apps: usize, pool_factor: usize, jobs: usize) -> Vec<Input> {
    let pool = apps * pool_factor.max(1);
    let corpus = RealWorldCorpus::new(corpus_config(spec, seed, pool));
    let mut drawn = par_map_indexed(jobs, pool, |i| {
        let app = corpus.get(i);
        Some(Input {
            sapk: codec::encode_apk(&app.apk),
            truth: truth_of(&app),
        })
    });
    let mut by_size: Vec<usize> = (0..pool).collect();
    by_size.sort_by_key(|&i| drawn[i].as_ref().map_or(0, |d| d.sapk.len()));
    let mut keep: Vec<usize> = (0..apps)
        .map(|q| by_size[(2 * q + 1) * pool / (2 * apps)])
        .collect();
    keep.sort_unstable();
    keep.iter()
        .map(|&i| drawn[i].take().expect("each quantile picks a distinct app"))
        .collect()
}

/// The update of base app `app` in wave `wave`: `churn` of its classes
/// touched (analysis-neutral), and — on every `notify_every`-th wave of
/// an app whose `minSdk` is below 26 — one class calling
/// `NotificationManager.createNotificationChannel` (API 26) unguarded,
/// counted in the truth. A stale whole-app replay of the pre-update
/// report therefore misses a planted site instead of passing.
fn update(base: &Input, wave: usize, churn: f64, notify_every: usize, seed: u64) -> Input {
    let mut apk = codec::decode_apk(&base.sapk).expect("generated packages decode");
    churn_wave(
        &mut apk,
        churn,
        seed ^ (wave as u64).wrapping_mul(0xA24B_AED4_963E_E407),
    );
    let mut truth = base.truth;
    if notify_every > 0
        && wave.is_multiple_of(notify_every)
        && apk.manifest.min_sdk < ApiLevel::new(26)
    {
        let class = ClassBuilder::new(NOTIFY_CLASS, ClassOrigin::App)
            .method("trigger", "()V", |b| {
                b.invoke_virtual(well_known::create_notification_channel(), &[], None);
                b.ret_void();
            })
            .expect("fixed class body is valid")
            .build();
        apk.primary.update_class(class);
        truth.api += 1;
    }
    Input {
        sapk: codec::encode_apk(&apk),
        truth,
    }
}

/// Writes the workload's inputs for `seed` and a `seconds`-long run
/// into `dir`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn prepare(spec: &Spec, seed: u64, seconds: u64, dir: &Path, jobs: usize) -> io::Result<()> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    fs::create_dir_all(dir)?;
    let run = seconds as f64;
    match spec.name.as_str() {
        "update-wave" => {
            let base = generate(spec, seed, spec.apps, spec.pool_factor, jobs);
            let waves = spec.waves(seconds);
            let updates: Vec<Input> = par_map_indexed(jobs, waves, |w| {
                update(
                    &base[w % base.len()],
                    w,
                    spec.churn_fraction,
                    spec.notify_every,
                    seed,
                )
            });
            write_inputs(&dir.join("base.bin"), &base)?;
            write_inputs(&dir.join("waves.bin"), &updates)?;
        }
        "upload-stream" => {
            // One distinct package per scheduled arrival; every process
            // schedules `rate · seconds / processes` of them.
            let parts = crate::spec::processes();
            let apps = parts * (spec.rate_per_s * run / parts as f64).round() as usize;
            let drawn = generate(spec, seed, apps, spec.pool_factor, jobs);
            write_inputs(&dir.join("apps.bin"), &drawn)?;
        }
        _ => {
            let drawn = generate(spec, seed, spec.scans(seconds), spec.pool_factor, jobs);
            write_inputs(&dir.join("apps.bin"), &drawn)?;
        }
    }
    fs::write(dir.join("done"), b"ok\n")
}

/// Compiles the paper-scale frozen framework image to `path` unless a
/// readable image is already there.
///
/// # Errors
///
/// Propagates filesystem failures and a compiled image that does not
/// attach.
pub fn prepare_frozen_image(synth: &SynthConfig, path: &Path) -> io::Result<()> {
    if saint_frozen::FrozenFramework::open(path).is_ok() {
        return Ok(());
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let fw = Arc::new(AndroidFramework::with_scale(synth));
    let bytes = saint_frozen::freeze_framework(&fw);
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, path)?;
    saint_frozen::FrozenFramework::open(path)
        .map(|_| ())
        .map_err(|e| io::Error::other(format!("compiled image does not attach: {e}")))
}

/// Record layout: `u64` length, SAPK bytes, then three `u64` truth
/// counts (API, APC, PRM), all little-endian.
fn write_inputs(path: &Path, inputs: &[Input]) -> io::Result<()> {
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    out.write_all(&(inputs.len() as u64).to_le_bytes())?;
    for input in inputs {
        out.write_all(&(input.sapk.len() as u64).to_le_bytes())?;
        out.write_all(&input.sapk)?;
        for v in [input.truth.api, input.truth.apc, input.truth.prm] {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    out.flush()
}

/// Reads a file written by the prepare step.
///
/// # Errors
///
/// Propagates I/O failures; a truncated or malformed file is
/// `InvalidData`.
pub fn read_inputs(path: &Path) -> io::Result<Vec<Input>> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    let mut at = 0usize;
    let mut take = |n: usize| -> io::Result<&[u8]> {
        let end = at
            .checked_add(n)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "truncated input file"))?;
        let s = &bytes[at..end];
        at = end;
        Ok(s)
    };
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte slice"));
    let count = word(take(8)?);
    let mut out = Vec::new();
    for _ in 0..count {
        let len = usize::try_from(word(take(8)?))
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "oversized record"))?;
        let sapk = take(len)?.to_vec();
        let truth = Families {
            api: word(take(8)?),
            apc: word(take(8)?),
            prm: word(take(8)?),
        };
        out.push(Input { sapk, truth });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_round_trip_and_truncation_is_refused() {
        let dir = std::env::temp_dir().join(format!("saintbench-io-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("x.bin");
        let inputs = vec![
            Input {
                sapk: vec![1, 2, 3],
                truth: Families {
                    api: 4,
                    apc: 5,
                    prm: 6,
                },
            },
            Input {
                sapk: Vec::new(),
                truth: Families::default(),
            },
        ];
        write_inputs(&path, &inputs).expect("write");
        let back = read_inputs(&path).expect("read");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].sapk, vec![1, 2, 3]);
        assert_eq!(back[0].truth, inputs[0].truth);
        let bytes = fs::read(&path).expect("reread");
        fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        assert!(read_inputs(&path).is_err());
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
