//! `serve_http`: an in-process `Server` on an ephemeral loopback port
//! with `ServeConfig::default()`, serving a frozen AdamGNN checkpoint of
//! the `nc_full` graph (hidden 16, 2 levels, 40 epochs). Load is a closed
//! loop of two clients on keep-alive `HttpClient`s sending a seeded mix
//! of `/v1/nodes` and `/v1/links` requests.
//!
//! The only workload where mg-serve and frozen replay do the work and the
//! training layers do none; it reads checkpoints where `nc_full` writes
//! them. Training the fixture checkpoint is preparation, outside
//! `setup_s`.

use crate::layers::{self, Traced};
use crate::spans::{self, span};
use crate::{
    fastest, median, nc_full, peak_rss_mb, quantile, reset_peak_rss, work_dir, Args, Outcome,
};
use adamgnn_core::PoolingKind;
use mg_ckpt::Checkpoint;
use mg_data::NodeDataset;
use mg_eval::{FrozenModel, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_nn::GraphCtx;
use mg_obs::Json;
use mg_serve::{
    HttpClient, LinksRequest, LinksResponse, NodesRequest, NodesResponse, ServeConfig, Server,
};
use mg_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Long enough that the fixture converges: at 8 epochs its final loss
/// spread 12% between seeds, at 40 epochs 4%.
const FIXTURE_EPOCHS: usize = 40;
/// Server starts timed for `setup_s`: the serving one, then the rest
/// after the closed loop, `SETUP_GAP` apart.
const SETUP_REPS: usize = 21;
const SETUP_GAP: Duration = Duration::from_millis(100);
const CLIENTS: usize = 2;
/// Distinct requests in the seeded mix; clients cycle through it.
const MIX: usize = 256;
const WARMUP_S: f64 = 0.5;
/// Ops per pass of the traced in-process request mirror.
const MIRROR_OPS: usize = 64;
/// Pass id of the traced closed-loop phase's spans.
const HTTP_PASS: u32 = 200;

struct Fixture {
    ds: Arc<NodeDataset>,
    path: PathBuf,
    loss: f64,
    val: f64,
}

/// Train and checkpoint the model the server loads.
fn fixture(seed: u64) -> Result<Fixture, String> {
    let ds = Arc::new(nc_full::dataset(seed));
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("serve_http-{seed}-{}.mgck", std::process::id()));
    let cfg = TrainConfig {
        epochs: FIXTURE_EPOCHS,
        lr: 0.02,
        patience: FIXTURE_EPOCHS,
        hidden: 16,
        levels: 2,
        seed,
        pooling: PoolingKind::AdamGnn,
        ..TrainConfig::default()
    };
    let out = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg,
    )
    .checkpoint_to(&path)
    .run(ds.as_ref())
    .map_err(|e| format!("training the served checkpoint failed: {e}"))?;
    let loss = out
        .trace
        .records
        .last()
        .ok_or("fixture recorded no epoch")?
        .loss;
    let val = out.val_metric.ok_or("fixture has no validation metric")?;
    if !loss.is_finite() {
        return Err(format!("fixture training loss is {loss}"));
    }
    Ok(Fixture {
        ds,
        path,
        loss,
        val,
    })
}

fn start(fx: &Fixture) -> Result<Server, String> {
    let (ds, path) = (Arc::clone(&fx.ds), fx.path.clone());
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    Server::start(cfg, move || {
        let model = FrozenModel::load(&path)?;
        Ok((model, GraphCtx::new(ds.graph.clone(), ds.features.clone())))
    })
    .map_err(|e| format!("server failed to start: {e}"))
}

enum Items {
    Nodes(Vec<usize>),
    Links(Vec<(usize, usize)>),
}

/// One request of the mix and the body a correct server answers.
struct Req {
    path: &'static str,
    items: Items,
    body: String,
    expected: String,
}

impl Req {
    fn new(h: &Matrix, items: Items) -> Result<Req, String> {
        Ok(match &items {
            Items::Nodes(ids) => Req {
                path: "/v1/nodes",
                body: NodesRequest { ids: ids.clone() }.to_json(),
                expected: answer(h, &items)?,
                items,
            },
            Items::Links(pairs) => Req {
                path: "/v1/links",
                body: LinksRequest {
                    pairs: pairs.clone(),
                }
                .to_json(),
                expected: answer(h, &items)?,
                items,
            },
        })
    }
}

/// The seeded request mix. Expected bodies are gathered through
/// `FrozenModel::*_from` from an output matrix computed here, directly.
fn mix(seed: u64, h: &Matrix) -> Result<Vec<Req>, String> {
    let n = h.rows();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let mut reqs = Vec::with_capacity(MIX);
    for _ in 0..MIX {
        let k = rng.random_range(1..5);
        let items = if rng.random_bool(0.5) {
            Items::Nodes((0..k).map(|_| rng.random_range(0..n)).collect())
        } else {
            Items::Links(
                (0..k)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                    .collect(),
            )
        };
        reqs.push(Req::new(h, items)?);
    }
    Ok(reqs)
}

/// The response body for `items`, gathered from the output matrix `h`.
fn answer(h: &Matrix, items: &Items) -> Result<String, String> {
    let body = match items {
        Items::Nodes(ids) => {
            let embeddings = FrozenModel::embeddings_from(h, ids).map_err(|e| e.to_string())?;
            let labels = FrozenModel::labels_from(h, ids).map_err(|e| e.to_string())?;
            NodesResponse { embeddings, labels }.to_json()
        }
        Items::Links(pairs) => {
            let scores = FrozenModel::link_scores_from(h, pairs).map_err(|e| e.to_string())?;
            LinksResponse { scores }.to_json()
        }
    };
    Ok(body)
}

/// Load the checkpoint and build the serving context, as the server's
/// init does, and compute the full output matrix.
fn direct(fx: &Fixture) -> Result<(FrozenModel, GraphCtx, Matrix), String> {
    let model = span("ckpt.load", || {
        let ck = Checkpoint::load(&fx.path)?;
        FrozenModel::from_checkpoint(ck)
    })
    .map_err(|e| format!("checkpoint does not load: {e}"))?;
    let ctx = span("nn.ctx_build", || {
        GraphCtx::new(fx.ds.graph.clone(), fx.ds.features.clone())
    });
    let h = model
        .node_outputs(&ctx)
        .map_err(|e| format!("direct forward failed: {e}"))?;
    Ok((model, ctx, h))
}

/// One closed-loop phase: `CLIENTS` keep-alive clients, each sending its
/// next request when the last is answered, until `seconds` pass. Every
/// answer must be a 200 whose body equals the direct gather. Returns the
/// round trip of every request, in seconds, and the phase's wall time.
fn closed_loop(addr: SocketAddr, reqs: &[Req], seconds: f64) -> Result<(Vec<f64>, f64), String> {
    let started = Instant::now();
    let per_client: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || -> Result<Vec<f64>, String> {
                    spans::set_pass(HTTP_PASS);
                    let mut client =
                        HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut rtt = Vec::new();
                    let mut i = c * MIX / CLIENTS;
                    while started.elapsed().as_secs_f64() < seconds {
                        let r = &reqs[i % MIX];
                        i += 1;
                        let t = Instant::now();
                        let answer = span("serve.rtt", || {
                            client.request("POST", r.path, Some(&r.body))
                        });
                        rtt.push(t.elapsed().as_secs_f64());
                        match answer {
                            Ok((200, body)) if body == r.expected => {}
                            Ok((200, body)) => {
                                return Err(format!(
                                    "{} {} answered {body}, but the direct gather gives {}",
                                    r.path, r.body, r.expected
                                ))
                            }
                            Ok((status, body)) => {
                                return Err(format!(
                                    "{} {} answered {status}: {body}",
                                    r.path, r.body
                                ))
                            }
                            Err(e) => {
                                return Err(format!("{} {}: transport error: {e}", r.path, r.body))
                            }
                        }
                    }
                    spans::hand_over();
                    Ok(rtt)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for r in per_client {
        all.extend(r?);
    }
    Ok((all, wall))
}

/// The `/statsz` counters the per-layer metrics are deltas of. A counter
/// the server no longer reports reads 0.
#[derive(Clone, Copy, Default)]
struct Stats {
    requests: f64,
    ok: f64,
    rejected: f64,
    flushes: f64,
    batched: f64,
    queue_ns: f64,
    forward_ns: f64,
}

fn statsz(addr: SocketAddr) -> Result<Stats, String> {
    let mut c = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (status, body) = c
        .request("GET", "/statsz", None)
        .map_err(|e| format!("/statsz: {e}"))?;
    if status != 200 {
        return Err(format!("/statsz answered {status}: {body}"));
    }
    let v = Json::parse(&body).map_err(|e| format!("/statsz body: {e}"))?;
    let num = |path: &[&str]| {
        let mut node = Some(&v);
        for k in path {
            node = node.and_then(|n| n.get(k));
        }
        node.and_then(Json::as_f64).unwrap_or(0.0)
    };
    let mut batched = 0.0;
    if let Some(Json::Obj(hist)) = v.get("batch").and_then(|b| b.get("hist")) {
        for (size, count) in hist {
            batched += size.parse::<f64>().unwrap_or(0.0) * count.as_f64().unwrap_or(0.0);
        }
    }
    Ok(Stats {
        requests: num(&["requests"]),
        ok: num(&["by_status", "200"]),
        rejected: num(&["rejected_overload"]),
        flushes: num(&["batch", "flushes"]),
        batched,
        queue_ns: num(&["queue_ns_total"]),
        forward_ns: num(&["forward_ns_total"]),
    })
}

fn cleanup(fx: &Fixture) {
    let _ = std::fs::remove_file(&fx.path);
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let fx = fixture(a.seed)?;
    let result = measure(a, &fx);
    cleanup(&fx);
    result
}

fn measure(a: &Args, fx: &Fixture) -> Result<Outcome, String> {
    let (_, _, h) = direct(fx)?;
    let reqs = mix(a.seed, &h)?;
    // training the fixture and the direct forward are preparation: the
    // peak covers serving only
    reset_peak_rss()?;
    let t = Instant::now();
    let server = start(fx)?;
    let mut setup = vec![t.elapsed().as_secs_f64()];
    let result = (|| {
        closed_loop(server.addr(), &reqs, WARMUP_S)?;
        closed_loop(server.addr(), &reqs, a.seconds)
    })();
    // read before the extra set-ups below: each start and shutdown
    // leaves allocator arenas behind that a single server never has
    let peak_rss = peak_rss_mb();
    server.shutdown();
    let (mut rtt, wall) = result?;
    for _ in 1..SETUP_REPS {
        // spaced out, so the starts sample more than one moment of the
        // machine's load
        std::thread::sleep(SETUP_GAP);
        let t = Instant::now();
        let server = start(fx)?;
        setup.push(t.elapsed().as_secs_f64());
        server.shutdown();
    }
    let sent = rtt.len();
    let mut o = Outcome {
        attempted: sent as u64,
        ..Outcome::default()
    };
    o.set("setup_s", fastest(&setup), "s");
    o.set("setup_s_median", median(&mut setup), "s");
    o.set("op_ms", median(&mut rtt) * 1e3, "ms");
    o.set("op_ms_p99", quantile(&mut rtt, 0.99) * 1e3, "ms");
    o.set("throughput_per_s", sent as f64 / wall, "1/s");
    o.set("peak_rss_mb", peak_rss?, "MiB");
    o.set("train_loss", fx.loss, "loss");
    o.set("val_metric", fx.val, "acc");
    o.set("failed_frac", 0.0, "ratio");
    o.notes.push(format!(
        "op = one request round trip over a closed loop of {CLIENTS} keep-alive clients for \
         {:.1} s after a {WARMUP_S} s warm-up; requests sent {sent}, succeeded {sent}, failed 0; \
         every body equals the direct FrozenModel gather",
        wall
    ));
    if sent < 1000 {
        o.notes.push(format!(
            "only {sent} requests: fewer than 10 lie beyond op_ms_p99"
        ));
    }
    o.notes.push(format!(
        "setup_s is the fastest of {SETUP_REPS} Server::start calls to ready (checkpoint load, \
         context build, validating forward); peak_rss_mb covers serving only (heap trimmed and \
         VmHWM reset after the fixture's training) and is read before the extra starts; \
         train_loss and val_metric belong to the \
         {FIXTURE_EPOCHS}-epoch fixture the server loads",
    ));
    Ok(o)
}

pub fn trace(a: &Args) -> Result<Outcome, String> {
    let fx = fixture(a.seed)?;
    let result = trace_measure(a, &fx);
    cleanup(&fx);
    result
}

fn trace_measure(a: &Args, fx: &Fixture) -> Result<Outcome, String> {
    let start_t = Instant::now();
    let (model, ctx, h) = direct(fx)?;
    let reqs = mix(a.seed, &h)?;

    let server = start(fx)?;
    let phases = (|| {
        // warm-up and the untraced phase run before spans and allocation
        // counting start, so only the traced closed loop records rtt spans
        closed_loop(server.addr(), &reqs, WARMUP_S)?;
        let (mut untraced, _) = closed_loop(server.addr(), &reqs, a.seconds / 4.0)?;
        let untraced_ms = median(&mut untraced) * 1e3;

        spans::enable();
        let mut setup_passes = Vec::new();
        for rep in 0..4 {
            let pass = 100 + rep;
            spans::set_pass(pass);
            setup_passes.push(pass);
            spans::op(|| direct(fx))?;
        }

        let mut op_passes = Vec::new();
        while op_passes.len() < 3 || start_t.elapsed().as_secs_f64() < a.seconds * 0.6 {
            let pass = op_passes.len() as u32;
            spans::set_pass(pass);
            for i in 0..MIRROR_OPS {
                let r = &reqs[i * 7 % MIX];
                spans::op(|| -> Result<(), String> {
                    let h = span("eval.frozen_forward", || model.node_outputs(&ctx))
                        .map_err(|e| format!("frozen forward failed: {e}"))?;
                    let body = span("eval.gather", || answer(&h, &r.items))?;
                    if body != r.expected {
                        return Err(format!(
                            "mirror answered {body} for {}, expected {}",
                            r.body, r.expected
                        ));
                    }
                    Ok(())
                })?;
            }
            op_passes.push(pass);
        }

        let before = statsz(server.addr())?;
        let (rtt, wall) = closed_loop(server.addr(), &reqs, a.seconds / 4.0)?;
        let after = statsz(server.addr())?;
        Ok::<_, String>((
            untraced_ms,
            setup_passes,
            op_passes,
            before,
            after,
            rtt.len(),
            wall,
        ))
    })();
    server.shutdown();
    let (untraced_ms, setup_passes, op_passes, before, after, sent, wall) = phases?;

    let spans = spans::take();
    let mut rtt_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.pass == HTTP_PASS && s.name == "serve.rtt")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let mut o = layers::outcome(Traced {
        label: format!("serve_http-seed{}", a.seed),
        spans,
        counts: BTreeMap::new(),
        groups: vec![op_passes, setup_passes],
        untraced_op_ms: untraced_ms,
        mirror_matches: true,
    })?;
    let traced_rtt = median(&mut rtt_ms);
    // the traced op of this workload is the traced round trip
    o.set("serve.rtt_ms", traced_rtt, "ms");
    o.set("trace.op_ms", traced_rtt, "ms");
    o.set("trace.gap_ms", traced_rtt - untraced_ms, "ms");
    let d = |f: fn(&Stats) -> f64| f(&after) - f(&before);
    let (batched, flushes) = (d(|s| s.batched), d(|s| s.flushes));
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    o.set(
        "serve.queue_wait_ms",
        ratio(d(|s| s.queue_ns), batched) / 1e6,
        "ms",
    );
    o.set(
        "serve.forward_ms_per_flush",
        ratio(d(|s| s.forward_ns), flushes) / 1e6,
        "ms",
    );
    o.set("serve.batch_mean", ratio(batched, flushes), "count");
    o.set(
        "serve.forwards_per_request",
        ratio(flushes, batched),
        "ratio",
    );
    o.set("serve.rejected", d(|s| s.rejected), "count");
    o.notes.push(format!(
        "traced closed-loop phase: {wall:.1} s, requests sent {sent}, succeeded {sent}, failed 0; \
         /statsz deltas over the phase: {} requests ({} answered 200, counting the first \
         /statsz scrape), {batched} through the batcher in {flushes} flushes",
        d(|s| s.requests),
        d(|s| s.ok)
    ));
    o.notes.push(format!(
        "op (for eval.*) = one request answered in-process: a frozen forward plus the gather, \
         {MIRROR_OPS} per pass; the server runs one forward per flush instead"
    ));
    Ok(o)
}
