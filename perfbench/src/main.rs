//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nc_full --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` a run drives one workload through the public entry
//! points users call (`TrainSession`, `sampled_epochs_streamed`,
//! `Server` + `HttpClient`), checks every output, and prints the
//! end-to-end metrics. With `--trace 1` it instead repeats the
//! workload's op through the public per-layer calls inside spans and
//! prints per-layer self times and exact counts. Either way the last
//! line of stdout is one JSON object; a failed check prints no JSON and
//! exits 1. See `perfbench/README.md` for the workloads and metrics.

mod alloc;
mod gc_batch;
mod layers;
mod nc_full;
mod serve_http;
mod spans;
mod stream_sampled;
mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics every `--trace 0` run reports, with units.
/// Must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
/// Must match `per_layer` in `BENCHMARK.json`. A metric whose layer the
/// workload does not exercise reads 0 and is listed as such.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate_ms", "ms"),
    ("data.sample_ms", "ms"),
    ("data.gather_ms", "ms"),
    ("data.sampled_nodes", "count"),
    ("data.truncations", "count"),
    ("nn.ctx_build_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.forward_calls", "count"),
    ("core.kl_loss_ms", "ms"),
    ("core.recon_loss_ms", "ms"),
    ("core.egos_l1", "count"),
    ("tensor.backward_ms", "ms"),
    ("tensor.adam_step_ms", "ms"),
    ("tensor.tape_nodes", "count"),
    ("tensor.peak_tape_mb", "MiB"),
    ("eval.val_forward_ms", "ms"),
    ("ckpt.record_structure_ms", "ms"),
    ("ckpt.encode_ms", "ms"),
    ("ckpt.save_ms", "ms"),
    ("ckpt.bytes", "count"),
    ("ckpt.load_ms", "ms"),
    ("eval.frozen_forward_ms", "ms"),
    ("eval.gather_us", "us"),
    ("serve.rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.forward_ms_per_flush", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.forwards_per_request", "ratio"),
    ("serve.rejected", "count"),
    ("data.generate.allocs", "count"),
    ("data.generate.alloc_mb", "MiB"),
    ("data.sample.allocs", "count"),
    ("data.sample.alloc_mb", "MiB"),
    ("data.gather.allocs", "count"),
    ("data.gather.alloc_mb", "MiB"),
    ("nn.ctx_build.allocs", "count"),
    ("nn.ctx_build.alloc_mb", "MiB"),
    ("core.forward.allocs", "count"),
    ("core.forward.alloc_mb", "MiB"),
    ("core.kl_loss.allocs", "count"),
    ("core.kl_loss.alloc_mb", "MiB"),
    ("core.recon_loss.allocs", "count"),
    ("core.recon_loss.alloc_mb", "MiB"),
    ("tensor.backward.allocs", "count"),
    ("tensor.backward.alloc_mb", "MiB"),
    ("tensor.adam_step.allocs", "count"),
    ("tensor.adam_step.alloc_mb", "MiB"),
    ("eval.val_forward.allocs", "count"),
    ("eval.val_forward.alloc_mb", "MiB"),
    ("ckpt.record_structure.allocs", "count"),
    ("ckpt.record_structure.alloc_mb", "MiB"),
    ("ckpt.encode.allocs", "count"),
    ("ckpt.encode.alloc_mb", "MiB"),
    ("ckpt.save.allocs", "count"),
    ("ckpt.save.alloc_mb", "MiB"),
    ("ckpt.load.allocs", "count"),
    ("ckpt.load.alloc_mb", "MiB"),
    ("eval.frozen_forward.allocs", "count"),
    ("eval.frozen_forward.alloc_mb", "MiB"),
    ("eval.gather.allocs", "count"),
    ("eval.gather.alloc_mb", "MiB"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.gap_ms", "ms"),
    ("trace.mirror_matches", "count"),
];

const WORKLOADS: &[&str] = &["nc_full", "gc_batch", "stream_sampled", "serve_http"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => &flag[2..],
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run measured: metric name -> (value, unit), the ops attempted
/// (all succeeded: a failure ends the run), and free-form notes printed
/// before the JSON.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }
}

/// Smallest of `v`. Panics on an empty slice.
pub fn fastest(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "fastest of no samples");
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `v` (sorted in place). Panics on an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (sorted in place).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Wall seconds of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Hand the heap's free memory back to the system, then reset this
/// process's `VmHWM` to its current resident set, so a later
/// [`peak_rss_mb`] covers only what runs after this call.
///
/// Without the trim, how much freed memory glibc keeps from earlier work
/// differs between seeds (measured 14.8 vs 20.2 MiB after the same
/// training) and carries into the peak.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be called
        // at any time; the system allocator `alloc::Counting` forwards to
        // is glibc's malloc, the heap it trims.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// A per-process scratch directory inside the checkout (checkpoints and
/// span dumps), under the build directory that version control ignores.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench-work")
}

fn run(a: &Args) -> Result<Outcome, String> {
    match (a.workload.as_str(), a.trace) {
        ("nc_full", false) => nc_full::run(a),
        ("nc_full", true) => nc_full::trace(a),
        ("gc_batch", false) => gc_batch::run(a),
        ("gc_batch", true) => gc_batch::trace(a),
        ("stream_sampled", false) => stream_sampled::run(a),
        ("stream_sampled", true) => stream_sampled::trace(a),
        ("serve_http", false) => serve_http::run(a),
        ("serve_http", true) => serve_http::trace(a),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: FAILED: {e}",
                args.workload, args.seed
            );
            std::process::exit(1);
        }
    };
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    let mut unexercised = Vec::new();
    for &(name, unit) in spec {
        if !out.metrics.contains_key(name) {
            if !args.trace {
                eprintln!("perfbench: {} did not report {name}", args.workload);
                std::process::exit(1);
            }
            unexercised.push(name);
            out.set(name, 0.0, unit);
        }
    }
    if !unexercised.is_empty() {
        out.notes.push(format!(
            "layers this workload does not exercise (reported as 0): {}",
            unexercised.join(", ")
        ));
    }
    if args.trace {
        out.notes.push(
            "not measured: mg-runtime (kernels are serial in the default build) and mg-obs \
             (MG_TRACE is unset)"
                .into(),
        );
    }
    if let Some((name, (value, _))) = out.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        eprintln!(
            "perfbench: {} reported non-finite {name} = {value}",
            args.workload
        );
        std::process::exit(1);
    }
    if out.attempted == 0 {
        eprintln!("perfbench: {} attempted no op", args.workload);
        std::process::exit(1);
    }
    for (name, (value, unit)) in &out.metrics {
        println!("metric {name} = {value} {unit}");
    }
    for n in &out.notes {
        println!("note: {n}");
    }
    let fields: Vec<String> = spec
        .iter()
        .map(|&(name, unit)| {
            let (value, _) = out.metrics[name];
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    // any failed op fails the run above, so a printed result has none
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        out.attempted,
        fields.join(", ")
    );
}
