//! `stream_sampled`: `sampled_epochs_streamed` over the default
//! million-node `BigGraph` (average degree 8, 32 features), batch 32,
//! fanouts [5, 5].
//!
//! Set-up is mg-data's streaming CSR builder. Each step samples, gathers
//! features on demand and builds a subgraph context over a working set
//! far larger than L2; no other workload leans on the data layer.

use crate::layers::{self, Counts, Traced};
use crate::spans::{self, span};
use crate::train::{self, Session};
use crate::{median, Args, Outcome};
use adamgnn_core::{kl_loss, reconstruction_loss, total_loss, PoolingKind};
use mg_data::{BigGraph, BigGraphConfig, NeighborSampler, NodeFeatureSource, SampledSubgraph};
use mg_eval::{sampled_epochs_streamed, MinibatchConfig, NodeModelKind, TrainConfig};
use mg_nn::GraphCtx;
use mg_tensor::{AdamConfig, Matrix, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

const BATCH: usize = 32;
const FANOUTS: [usize; 2] = [5, 5];
/// Optimizer steps per session: short sessions are short samples of
/// `op_ms` (see `nc_full::EPOCHS`).
const STEPS: usize = 8;
/// Each generation takes about half a second, so three (spread over the
/// run) keep the run short while still giving `setup_s` a median.
const SETUP_REPS: usize = 3;

fn generate(seed: u64) -> Result<BigGraph, String> {
    let cfg = BigGraphConfig {
        seed,
        ..BigGraphConfig::default()
    };
    let big = span("data.generate", || BigGraph::generate(&cfg));
    if big.peak_bytes > cfg.byte_budget {
        return Err(format!(
            "streaming builder peak {} exceeds its budget {}",
            big.peak_bytes, cfg.byte_budget
        ));
    }
    Ok(big)
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: 1,
        lr: 0.02,
        hidden: 16,
        levels: 2,
        seed,
        pooling: PoolingKind::AdamGnn,
        ..TrainConfig::default()
    }
}

fn minibatch() -> MinibatchConfig {
    MinibatchConfig {
        batch_size: BATCH,
        fanouts: FANOUTS.to_vec(),
    }
}

fn session(big: &BigGraph, cfg: &TrainConfig) -> Result<Session, String> {
    let e = sampled_epochs_streamed(
        big,
        NodeModelKind::AdamGnn,
        cfg,
        &minibatch(),
        BATCH * STEPS,
    )
    .map_err(|e| format!("streamed sampled epoch failed: {e}"))?;
    if e.steps != STEPS || e.sampled_nodes < e.steps * BATCH {
        return Err(format!(
            "expected {STEPS} steps of at least {BATCH} nodes, got {} steps and {} nodes",
            e.steps, e.sampled_nodes
        ));
    }
    Ok(Session {
        ops: e.steps,
        loss: e.mean_loss,
        val: None,
    })
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let cfg = config(a.seed);
    let m = train::measure(
        a.seconds,
        SETUP_REPS,
        || generate(a.seed),
        |big| session(big, &cfg),
    )?;
    let mut o = train::outcome(&m, None, "optimizer step")?;
    let big = &m.data;
    o.notes.push(format!(
        "{} nodes, {} edges; batch {BATCH}, fanouts {FANOUTS:?}; train_loss is the mean over \
         a session's steps",
        big.n(),
        big.graph().num_edges()
    ));
    Ok(o)
}

/// One mirror session of `sampled_epochs_streamed`.
fn mirror(big: &BigGraph, cfg: &TrainConfig) -> Result<(f64, Counts), String> {
    let n = big.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let model = NodeModelKind::AdamGnn.build(
        &mut store,
        big.feat_dim(),
        cfg.hidden,
        big.num_classes(),
        cfg,
        &mut rng,
    );
    let adam = AdamConfig::with_lr(cfg.lr);
    let mut sampler = NeighborSampler::new(n);
    let mut loss_sum = 0.0;
    let (mut nodes, mut truncated, mut egos, mut tape_nodes, mut peak_tape) = (0, 0, 0, 0, 0);
    for _ in 0..STEPS {
        spans::op(|| -> Result<(), String> {
            let seeds: Vec<usize> = (0..BATCH).map(|_| rng.random_range(0..n)).collect();
            let sub = span("data.sample", || {
                sampler.sample(big.graph(), &seeds, &FANOUTS, &mut rng)
            });
            let (x, labels) = span("data.gather", || gather(big, &sub));
            let ctx = span("nn.ctx_build", || GraphCtx::new(sub.topo.clone(), x));
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let (logits, internals) = span("core.forward", || {
                model.forward(&tape, &bind, &ctx, true, &mut rng)
            });
            let out = internals.ok_or("AdamGNN forward returned no internals")?;
            let task = tape.cross_entropy(
                logits,
                Rc::new(labels),
                Rc::new(sub.seed_locals().collect()),
            );
            let kl = span("core.kl_loss", || kl_loss(&tape, out.h, &out.egos_l1));
            let recon = span("core.recon_loss", || {
                reconstruction_loss(&tape, out.h, &ctx.graph, &mut rng)
            });
            let mut loss = total_loss(&tape, task, kl, recon, &cfg.weights);
            if let Some(aux) = out.aux {
                loss = tape.add(loss, aux);
            }
            loss_sum += tape.value(loss).scalar();
            let mut grads = span("tensor.backward", || tape.backward(loss));
            span("tensor.adam_step", || store.step(&mut grads, &bind, &adam));
            nodes += sub.nodes.len();
            truncated += sub.truncated;
            egos += out.egos_l1.len();
            tape_nodes += tape.len();
            peak_tape = peak_tape.max(tape.peak_tape_bytes());
            Ok(())
        })?;
    }
    let steps = STEPS as f64;
    let counts = BTreeMap::from([
        ("data.sampled_nodes", nodes as f64 / steps),
        ("data.truncations", truncated as f64 / steps),
        ("core.forward_calls", 1.0),
        ("core.egos_l1", egos as f64 / steps),
        ("tensor.tape_nodes", tape_nodes as f64 / steps),
        (
            "tensor.peak_tape_mb",
            peak_tape as f64 / (1u64 << 20) as f64,
        ),
    ]);
    Ok((loss_sum / steps, counts))
}

/// Feature rows and labels of a sampled subgraph, gathered on demand
/// through the public `NodeFeatureSource` calls, as the trainer does.
fn gather(src: &dyn NodeFeatureSource, sub: &SampledSubgraph) -> (Matrix, Vec<usize>) {
    let mut x = Matrix::zeros(sub.nodes.len(), src.feat_dim());
    let mut labels = Vec::with_capacity(sub.nodes.len());
    for (l, &g) in sub.nodes.iter().enumerate() {
        src.fill_features(g, x.row_mut(l));
        labels.push(src.label(g));
    }
    (x, labels)
}

pub fn trace(a: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut big = generate(a.seed)?;
    let cfg = config(a.seed);

    // the untraced phase runs before spans and allocation counting start
    let runs = train::measure(a.seconds / 4.0, 1, || Ok(()), |_| session(&big, &cfg))?.runs;
    train::check_sessions(&runs, None)?;
    let mut untraced: Vec<f64> = runs[1..]
        .iter()
        .map(|(s, w)| w * 1e3 / s.ops as f64)
        .collect();

    spans::enable();
    let mut setup_passes = Vec::new();
    for rep in 0..SETUP_REPS as u32 {
        let pass = 100 + rep;
        spans::set_pass(pass);
        setup_passes.push(pass);
        // drop the previous graph first: two at once would double the peak
        drop(big);
        big = spans::op(|| generate(a.seed))?;
    }

    let (mut counts, mut op_passes) = (BTreeMap::new(), Vec::new());
    let mut matches = true;
    while op_passes.len() < 3 || start.elapsed().as_secs_f64() < a.seconds {
        let pass = op_passes.len() as u32;
        spans::set_pass(pass);
        let (loss, c) = mirror(&big, &cfg)?;
        matches &= loss.to_bits() == runs[0].0.loss.to_bits();
        counts.insert(pass, c);
        op_passes.push(pass);
    }
    layers::outcome(Traced {
        label: format!("stream_sampled-seed{}", a.seed),
        spans: spans::take(),
        counts,
        groups: vec![op_passes, setup_passes],
        untraced_op_ms: median(&mut untraced),
        mirror_matches: matches,
    })
}
