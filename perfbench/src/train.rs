//! What the three training workloads share: repeated identical sessions,
//! the determinism gate, and the end-to-end metrics built from them.

use crate::{fastest, median, peak_rss_mb, timed, Outcome};
use std::time::Instant;

/// One training session's result as the benchmark checks it.
pub struct Session {
    /// Epochs or optimizer steps the session ran.
    pub ops: usize,
    /// Final training loss.
    pub loss: f64,
    /// Best validation metric, where the task has one.
    pub val: Option<f64>,
}

/// Samples of one measured phase: wall seconds of every set-up, and
/// every session with its wall seconds.
pub struct Measured<D> {
    pub setup_s: Vec<f64>,
    pub runs: Vec<(Session, f64)>,
    /// What the last set-up produced.
    pub data: D,
}

/// Run identical sessions back to back until `seconds` have passed, and
/// at least three times: the first is a warm-up whose time is dropped.
///
/// `prepare` (the workload's set-up) runs before the first session and
/// again before later ones, spread evenly over the phase up to
/// `setup_points` times in all, dropping the previous result first. The
/// machine's speed drifts over seconds, so set-up times taken at one
/// moment would not repeat between runs; spread out, the fastest does.
/// Every set-up is identical, so sessions see identical inputs.
pub fn measure<D>(
    seconds: f64,
    setup_points: usize,
    mut prepare: impl FnMut() -> Result<D, String>,
    mut session: impl FnMut(&D) -> Result<Session, String>,
) -> Result<Measured<D>, String> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut data = None;
    let mut runs = Vec::new();
    while runs.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let due = seconds * setup_s.len() as f64 / setup_points as f64;
        if data.is_none() || (setup_s.len() < setup_points && start.elapsed().as_secs_f64() >= due)
        {
            drop(data.take());
            let (d, s) = timed(&mut prepare);
            setup_s.push(s);
            data = Some(d?);
        }
        let (r, wall) = timed(|| session(data.as_ref().expect("prepared above")));
        runs.push((r?, wall));
    }
    Ok(Measured {
        setup_s,
        runs,
        data: data.expect("prepared at least once"),
    })
}

/// The determinism gate: every repetition's loss and validation metric
/// must equal the first bitwise and be finite, and the validation
/// metric must clear `val_floor`.
pub fn check_sessions(runs: &[(Session, f64)], val_floor: Option<f64>) -> Result<(), String> {
    let first = &runs[0].0;
    for (i, (s, _)) in runs.iter().enumerate() {
        if !s.loss.is_finite() {
            return Err(format!(
                "repetition {i}: non-finite training loss {}",
                s.loss
            ));
        }
        if s.loss.to_bits() != first.loss.to_bits() || s.ops != first.ops {
            return Err(format!(
                "repetition {i} diverged from the first: loss {:e} after {} ops vs {:e} after {}",
                s.loss, s.ops, first.loss, first.ops
            ));
        }
        if s.val.map(f64::to_bits) != first.val.map(f64::to_bits) {
            return Err(format!(
                "repetition {i}: validation metric {:?} differs from the first {:?}",
                s.val, first.val
            ));
        }
    }
    if let (Some(floor), Some(val)) = (val_floor, first.val) {
        if val.is_nan() || val < floor {
            return Err(format!(
                "validation metric {val} is below the floor {floor}"
            ));
        }
    }
    Ok(())
}

/// End-to-end metrics of a training workload from its gated session
/// repetitions and set-up times.
///
/// Sessions repeat identical work, and other tenants' load on the shared
/// machine only ever adds time, in regimes lasting seconds: one process's
/// per-session medians moved 20% between two halves of a 40-second run
/// while its fastest sessions moved 5%. So `op_ms` and `setup_s` are the
/// fastest repetition; the medians are printed beside them.
///
/// `throughput_per_s` is reported on every workload because the
/// benchmark's metric set is shared; here it is derived as `1e3 / op_ms`
/// and can only move when `op_ms` does. It is measured on its own only on
/// `serve_http`.
pub fn outcome<D>(
    m: &Measured<D>,
    val_floor: Option<f64>,
    op_name: &str,
) -> Result<Outcome, String> {
    let runs = &m.runs;
    check_sessions(runs, val_floor)?;
    let timed_runs = &runs[1..];
    let mut per_op_ms: Vec<f64> = timed_runs
        .iter()
        .map(|(s, wall)| wall * 1e3 / s.ops as f64)
        .collect();
    let mut setup_s = m.setup_s.clone();
    let op_ms = fastest(&per_op_ms);
    let first = &runs[0].0;
    let mut o = Outcome {
        attempted: runs.len() as u64,
        ..Outcome::default()
    };
    o.set("setup_s", fastest(&setup_s), "s");
    o.set("setup_s_median", median(&mut setup_s), "s");
    o.set("op_ms", op_ms, "ms");
    o.set("op_ms_median", median(&mut per_op_ms), "ms");
    o.set("throughput_per_s", 1e3 / op_ms, "1/s");
    o.set("peak_rss_mb", peak_rss_mb()?, "MiB");
    o.set("train_loss", first.loss, "loss");
    if let Some(v) = first.val {
        o.set("val_metric", v, "acc");
    }
    o.set("failed_frac", 0.0, "ratio");
    o.notes.push(format!(
        "op = one {op_name}; op_ms is the fastest of {} session samples (session wall / {} \
         {op_name}s; first session dropped as warm-up); throughput_per_s is derived, 1e3 / op_ms; \
         setup_s \
         is the fastest of {} set-ups spread over the run",
        timed_runs.len(),
        first.ops,
        setup_s.len()
    ));
    o.notes.push(format!(
        "sessions attempted {}, failed 0; every repetition's loss and validation metric \
         equal the first bitwise",
        runs.len()
    ));
    Ok(o)
}
