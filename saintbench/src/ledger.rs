//! The per-layer time ledger of a traced run: layer self-times that add
//! back up to a stated total, with the residual no layer accounts for.

use std::fmt::Write as _;

/// A ledger over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// What the total is: `wall` (one critical path) or
    /// `thread-seconds` (workers × wall).
    pub basis: &'static str,
    /// The total the items add back up to, in seconds.
    pub total_s: f64,
    /// Layer self-times, in seconds.
    pub items: Vec<(String, f64)>,
    /// Inclusive figures nested inside the items above (for example,
    /// class loading inside exploration and the detectors); shown,
    /// never summed.
    pub nested: Vec<(String, f64)>,
}

impl Ledger {
    /// A ledger of `total_s` seconds on `basis`.
    #[must_use]
    pub fn new(basis: &'static str, total_s: f64) -> Self {
        Ledger {
            basis,
            total_s,
            items: Vec::new(),
            nested: Vec::new(),
        }
    }

    /// Adds a layer self-time.
    pub fn item(&mut self, name: &str, seconds: f64) {
        self.items.push((name.to_string(), seconds));
    }

    /// Adds an inclusive figure that is already part of some item.
    pub fn nested(&mut self, name: &str, seconds: f64) {
        self.nested.push((name.to_string(), seconds));
    }

    /// The part of the total no item accounts for.
    #[must_use]
    pub fn residual_s(&self) -> f64 {
        self.total_s - self.items.iter().map(|(_, s)| s).sum::<f64>()
    }

    /// The residual as a share of the total.
    #[must_use]
    pub fn unattributed_frac(&self) -> f64 {
        if self.total_s > 0.0 {
            self.residual_s() / self.total_s
        } else {
            0.0
        }
    }

    /// A table: one line per item, the residual, and the total.
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("ledger {title} ({} basis)\n", self.basis);
        let pct = |s: f64| 100.0 * s / self.total_s.max(f64::EPSILON);
        for (name, s) in &self.items {
            let _ = writeln!(out, "  {name:<28} {s:>10.4} s {:>6.1}%", pct(*s));
        }
        let r = self.residual_s();
        let _ = writeln!(
            out,
            "  {:<28} {r:>10.4} s {:>6.1}%",
            "(unattributed)",
            pct(r)
        );
        let _ = writeln!(out, "  {:<28} {:>10.4} s  100.0%", "total", self.total_s);
        for (name, s) in &self.nested {
            let _ = writeln!(out, "    inside the above: {name:<18} {s:>10.4} s");
        }
        out
    }
}

/// Total length covered by a set of `[start, start + len)` intervals,
/// counting overlaps once.
#[must_use]
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, len)| (s, s.saturating_add(len)))
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 10), (30, 5)]), 20);
        assert_eq!(union_len(&[(0, 10), (2, 3)]), 10);
    }

    #[test]
    fn items_and_residual_add_up_to_the_total() {
        let mut l = Ledger::new("wall", 10.0);
        l.item("a", 6.0);
        l.item("b", 3.0);
        l.nested("c", 1.0);
        assert!((l.residual_s() - 1.0).abs() < 1e-12);
        assert!((l.unattributed_frac() - 0.1).abs() < 1e-12);
        assert!(l.render("t").contains("(unattributed)"));
    }
}
