//! Per-layer metrics of a traced run, folded from spans and exact counts.
//!
//! A traced run repeats its op in passes of identical work. Each pass
//! group starts with a warm-up pass that is dropped; every later pass
//! must reproduce the same allocation counts and the same workload
//! counts exactly, or the run fails. Times are the median over passes
//! of (self time in the pass / ops in the pass), so work done once per
//! pass, such as the checkpoint that ends an `nc_full` session, is
//! amortised per op.

use crate::spans::{self, PassAgg, Span, OP};
use crate::{median, Outcome};
use std::collections::BTreeMap;

/// Exact per-pass counts a workload reports, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Spans recorded on client threads whose allocation counts depend on
/// how TCP segments the responses, so they are neither attributed nor
/// compared.
const UNCOUNTED: &[&str] = &[OP, "serve.rtt"];

pub struct Traced {
    /// Names the span dump: `<workload>-seed<n>`.
    pub label: String,
    pub spans: Vec<Span>,
    /// Workload counts per pass id.
    pub counts: BTreeMap<u32, Counts>,
    /// Pass groups; the first pass of each group is the warm-up.
    pub groups: Vec<Vec<u32>>,
    /// Median op time of the public entry point, untraced, this process.
    pub untraced_op_ms: f64,
    /// Whether the mirror loop reproduced the entry point's loss bitwise.
    pub mirror_matches: bool,
}

fn time_metric(name: &str) -> (String, f64, &'static str) {
    match name {
        "eval.gather" => (format!("{name}_us"), 1e3, "us"),
        _ => (format!("{name}_ms"), 1e6, "ms"),
    }
}

/// The `PER_LAYER` entry named `s`: every span metric must be listed.
fn intern(s: String) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == s)
        .unwrap_or_else(|| panic!("span metric {s} is missing from PER_LAYER"))
}

fn check_exact(
    group: &[u32],
    aggs: &BTreeMap<u32, PassAgg>,
    counts: &BTreeMap<u32, Counts>,
) -> Result<(), String> {
    let reference = group[1];
    for &p in &group[2..] {
        let (a, b) = (&aggs[&reference], &aggs[&p]);
        for (name, t) in &a.by_name {
            if UNCOUNTED.contains(name) {
                continue;
            }
            let u = b.get(name);
            if (t.allocs, t.bytes, t.calls) != (u.allocs, u.bytes, u.calls) {
                return Err(format!(
                    "pass {p} disagrees with pass {reference} on {name}: \
                     allocs {} vs {}, bytes {} vs {}, calls {} vs {}",
                    u.allocs, t.allocs, u.bytes, t.bytes, u.calls, t.calls
                ));
            }
        }
        if let (Some(ca), Some(cb)) = (counts.get(&reference), counts.get(&p)) {
            for (k, v) in ca {
                if cb.get(k).map(|x| x.to_bits()) != Some(v.to_bits()) {
                    return Err(format!(
                        "pass {p} disagrees with pass {reference} on count {k}: {:?} vs {v}",
                        cb.get(k)
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Fold a traced run into per-layer metrics, failing when counts do not
/// repeat exactly between passes.
pub fn outcome(t: Traced) -> Result<Outcome, String> {
    let aggs = spans::aggregate(&t.spans);
    let mut o = Outcome::default();
    let mut seen_in: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (gi, group) in t.groups.iter().enumerate() {
        if group.len() < 3 {
            return Err(format!(
                "pass group {gi} has {} passes; needs a warm-up and two more",
                group.len()
            ));
        }
        for p in group {
            if !aggs.contains_key(p) {
                return Err(format!("pass {p} recorded no spans"));
            }
        }
        check_exact(group, &aggs, &t.counts)?;
        let measured = &group[1..];
        let names: Vec<&'static str> = aggs[&measured[0]].by_name.keys().copied().collect();
        for name in names {
            if name == OP {
                continue;
            }
            if let Some(prev) = seen_in.insert(name, gi) {
                return Err(format!(
                    "span {name} recorded in pass groups {prev} and {gi}"
                ));
            }
            let per_op = |f: &dyn Fn(&PassAgg) -> f64| {
                let mut v: Vec<f64> = measured
                    .iter()
                    .map(|p| f(&aggs[p]) / aggs[p].ops().max(1) as f64)
                    .collect();
                median(&mut v)
            };
            let (metric, div, unit) = time_metric(name);
            o.set(
                intern(metric),
                per_op(&|a| a.get(name).self_ns as f64) / div,
                unit,
            );
            if !UNCOUNTED.contains(&name) {
                o.set(
                    intern(format!("{name}.allocs")),
                    per_op(&|a| a.get(name).allocs as f64),
                    "count",
                );
                o.set(
                    intern(format!("{name}.alloc_mb")),
                    per_op(&|a| a.get(name).bytes as f64) / (1u64 << 20) as f64,
                    "MiB",
                );
            }
        }
        if gi == 0 {
            let mut op_ms: Vec<f64> = measured
                .iter()
                .flat_map(|p| aggs[p].op_ns.iter().map(|&ns| ns as f64 / 1e6))
                .collect();
            let mut unattributed: Vec<f64> = measured
                .iter()
                .map(|p| aggs[p].get(OP).self_ns as f64 / 1e6 / aggs[p].ops().max(1) as f64)
                .collect();
            let op_ms = median(&mut op_ms);
            o.set("trace.op_ms", op_ms, "ms");
            o.set("trace.unattributed_ms", median(&mut unattributed), "ms");
            o.set("trace.untraced_op_ms", t.untraced_op_ms, "ms");
            o.set("trace.gap_ms", op_ms - t.untraced_op_ms, "ms");
            o.attempted = measured.iter().map(|p| aggs[p].ops() as u64).sum();
            o.notes.push(format!(
                "ops traced: {} over {} passes after a warm-up pass; counts repeated exactly \
                 in every pass",
                o.attempted,
                measured.len()
            ));
        }
        if let Some(c) = t.counts.get(&measured[0]) {
            for (&k, &v) in c {
                let unit = crate::PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == k)
                    .map_or("count", |&(_, u)| u);
                o.set(k, v, unit);
            }
        }
    }
    o.set(
        "trace.mirror_matches",
        if t.mirror_matches { 1.0 } else { 0.0 },
        "count",
    );
    if !t.mirror_matches {
        o.notes.push(
            "the traced mirror loop no longer reproduces the entry point's loss bitwise: the \
             trainer changed, so per-layer times describe the old step"
                .into(),
        );
    }
    let dump = crate::work_dir().join(format!("spans-{}.jsonl", t.label));
    spans::write_jsonl(&dump, &t.spans).map_err(|e| format!("writing {}: {e}", dump.display()))?;
    o.notes.push(format!(
        "{} spans written to {}",
        t.spans.len(),
        dump.display()
    ));
    Ok(o)
}
