//! Workload settings, read from `workloads.json` (compiled in), so the
//! documented settings and the ones the harness runs are one file.

use serde::Value;

/// The settings file, embedded at build time.
const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// One workload's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: String,
    /// Framework expansion: `paper`, or `paper-large` for the
    /// large-app configuration.
    pub framework: String,
    /// Fixed corpus size, where the workload has one.
    pub apps: usize,
    /// Multiplier on the generator's app sizes.
    pub size_factor: f64,
    /// Packages drawn per package kept by size stratification.
    pub pool_factor: usize,
    /// Scans per second of `--seconds`, sizing a closed loop's fixed
    /// work to the run length on the reference host.
    pub scans_per_run_second: f64,
    /// Open-loop arrival rate, per second.
    pub rate_per_s: f64,
    /// Latency limit of `within_slo_frac`, in ms.
    pub latency_limit_ms: f64,
    /// Share of an updated app's classes churned.
    pub churn_fraction: f64,
    /// Every n-th update also plants the API-26 class.
    pub notify_every: usize,
}

impl Spec {
    /// Scans in one run of `seconds`: at least 100, so the run's
    /// `p90_ms` has ten samples beyond it.
    #[must_use]
    pub fn scans(&self, seconds: u64) -> usize {
        ((self.scans_per_run_second * seconds as f64).round() as usize).max(100)
    }

    /// Update waves in one run: each wave rescans the whole base
    /// corpus with one app updated. Every process gets whole update
    /// cycles, so every base app is updated equally often.
    #[must_use]
    pub fn waves(&self, seconds: u64) -> usize {
        let n = self.apps.max(1);
        let p = processes();
        let cycles = (self.scans(seconds) as f64 / (n * n * p) as f64).round() as usize;
        cycles.max(1) * p * n
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("workloads.json: missing `{key}`"))
}

fn num(v: &Value, key: &str) -> f64 {
    match field(v, key) {
        Value::F64(x) => *x,
        Value::I64(x) => *x as f64,
        Value::U64(x) => *x as f64,
        other => panic!("workloads.json: `{key}` is not a number: {other:?}"),
    }
}

fn text(v: &Value, key: &str) -> String {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("workloads.json: `{key}` is not a string"))
        .to_string()
}

/// Every workload in the settings file, in file order.
#[must_use]
pub fn all() -> Vec<Spec> {
    let root = serde_json::from_str_value(WORKLOADS_JSON).expect("workloads.json parses");
    field(&root, "workloads")
        .as_array()
        .expect("workloads.json: `workloads` is an array")
        .iter()
        .map(|w| Spec {
            name: text(w, "name"),
            framework: text(w, "framework"),
            apps: num(w, "apps") as usize,
            size_factor: num(w, "size_factor"),
            pool_factor: num(w, "pool_factor") as usize,
            scans_per_run_second: num(w, "scans_per_run_second"),
            rate_per_s: num(w, "rate_per_s"),
            latency_limit_ms: num(w, "latency_limit_ms"),
            churn_fraction: num(w, "churn_fraction"),
            notify_every: num(w, "notify_every") as usize,
        })
        .collect()
}

/// Fresh processes one run is split across. Each sets up and then does
/// an equal slice of the work; time figures are their median.
#[must_use]
pub fn processes() -> usize {
    let root = serde_json::from_str_value(WORKLOADS_JSON).expect("workloads.json parses");
    (num(&root, "processes") as usize).max(1)
}

/// The named workload.
#[must_use]
pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_parse_and_size_runs_for_a_p90() {
        let specs = all();
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["store-sweep", "large-apps", "update-wave", "upload-stream"]
        );
        for s in &specs {
            assert!(s.scans(1) >= 100, "{}", s.name);
            assert!(s.latency_limit_ms > 0.0, "{}", s.name);
        }
        let wave = find("update-wave").expect("listed");
        assert_eq!(wave.waves(20) % (wave.apps * processes()), 0);
        let open = find("upload-stream").expect("listed");
        assert!(open.rate_per_s > 0.0);
        assert!(processes() >= 3);
    }
}
