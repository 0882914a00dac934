//! `gc_batch`: AdamGNN graph classification on NCI1-like graphs (scale
//! 0.05: 205 graphs of at most 60 nodes), through prebuilt contexts.
//!
//! Per-graph overhead dominates: a batch runs up to 32 separate small
//! forwards on one tape. Block-diagonal batching removes exactly this;
//! `nc_full` never reaches it.

use crate::layers::{self, Counts, Traced};
use crate::spans::{self, span};
use crate::train::{self, Session};
use crate::{median, Args, Outcome};
use adamgnn_core::PoolingKind;
use mg_data::{make_graph_dataset, GraphDatasetKind, GraphGenConfig, Split};
use mg_eval::{
    build_contexts, GraphModelKind, SessionInput, SessionKind, TrainConfig, TrainSession,
};
use mg_nn::{GraphClassifier, GraphCtx};
use mg_tensor::{AdamConfig, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Epochs per session: short sessions are short samples of `op_ms`
/// (see `nc_full::EPOCHS`). Over five seeds the runs' fastest one-epoch
/// samples fell within 6% of each other but for one outlier; two-epoch
/// samples spread over 36%.
const EPOCHS: usize = 1;
const BATCH: usize = 32;
/// Best validation accuracy must clear this. Two classes and 20
/// validation graphs: seeds 1-12 reach 0.35-0.65 after one epoch, so the
/// floor only catches a model that does far worse than a constant guess.
const VAL_FLOOR: f64 = 0.25;

type Contexts = Vec<(GraphCtx, usize)>;

/// Generate the graphs and build their contexts: the workload's set-up.
fn prepare(seed: u64) -> (Contexts, usize) {
    let ds = span("data.generate", || {
        make_graph_dataset(
            GraphDatasetKind::Nci1,
            &GraphGenConfig {
                scale: 0.05,
                max_nodes: 60,
                seed,
            },
        )
    });
    let contexts = span("nn.ctx_build", || build_contexts(&ds));
    (contexts, ds.feat_dim)
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        lr: 0.01,
        patience: EPOCHS + 1,
        hidden: 64,
        levels: 2,
        seed,
        pooling: PoolingKind::AdamGnn,
        ..TrainConfig::default()
    }
}

fn session(
    contexts: &[(GraphCtx, usize)],
    feat_dim: usize,
    cfg: &TrainConfig,
) -> Result<Session, String> {
    let out = TrainSession::new(
        SessionKind::GraphClassification(GraphModelKind::AdamGnn),
        cfg,
    )
    .run(SessionInput::Prebuilt { contexts, feat_dim })
    .map_err(|e| format!("graph-classification session failed: {e}"))?;
    let loss = out
        .trace
        .records
        .last()
        .ok_or("the session recorded no epoch")?
        .loss;
    Ok(Session {
        ops: out.epochs_run,
        loss,
        val: out.val_metric,
    })
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let cfg = config(a.seed);
    let m = train::measure(
        a.seconds,
        usize::MAX,
        || Ok(prepare(a.seed)),
        |(contexts, feat_dim)| session(contexts, *feat_dim, &cfg),
    )?;
    let mut o = train::outcome(&m, Some(VAL_FLOOR), "epoch")?;
    let contexts = &m.data.0;
    o.notes.push(format!(
        "{} graphs, {} nodes in all, batches of {BATCH}",
        contexts.len(),
        contexts.iter().map(|(c, _)| c.graph.n()).sum::<usize>()
    ));
    Ok(o)
}

/// Eval-mode accuracy over `idx`, as the trainer computes it.
fn accuracy(
    model: &dyn GraphClassifier,
    store: &ParamStore,
    contexts: &[(GraphCtx, usize)],
    idx: &[usize],
    rng: &mut StdRng,
) -> f64 {
    let mut correct = 0;
    for &gi in idx {
        let (ctx, label) = &contexts[gi];
        let tape = Tape::new();
        let bind = store.bind(&tape);
        let out = model.forward(&tape, &bind, ctx, false, rng);
        if tape.value(out.logits).row_argmax(0) == *label {
            correct += 1;
        }
    }
    correct as f64 / idx.len().max(1) as f64
}

/// One mirror session of the graph-classification trainer.
fn mirror(
    contexts: &[(GraphCtx, usize)],
    feat_dim: usize,
    cfg: &TrainConfig,
) -> Result<(f64, f64, Counts), String> {
    let split =
        Split::random_80_10_10(contexts.len(), cfg.seed ^ 0x9c9c).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let model = GraphModelKind::AdamGnn.build(&mut store, feat_dim, cfg.hidden, 2, cfg, &mut rng);
    let adam = AdamConfig::with_lr(cfg.lr);
    let (mut best_val, mut epoch_loss) = (f64::NEG_INFINITY, f64::NAN);
    let (mut steps, mut forwards, mut tape_nodes, mut peak_tape) = (0usize, 0usize, 0usize, 0usize);
    for _ in 0..cfg.epochs {
        spans::op(|| {
            let mut order = split.train.clone();
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut batch_losses = Vec::new();
            for chunk in order.chunks(BATCH) {
                let tape = Tape::new();
                let bind = store.bind(&tape);
                let mut losses = Vec::with_capacity(chunk.len());
                for &gi in chunk {
                    let (ctx, label) = &contexts[gi];
                    let out = span("core.forward", || {
                        model.forward(&tape, &bind, ctx, true, &mut rng)
                    });
                    let ce =
                        tape.cross_entropy(out.logits, Rc::new(vec![*label]), Rc::new(vec![0]));
                    losses.push(match out.aux_loss {
                        Some(aux) => tape.add(ce, aux),
                        None => ce,
                    });
                }
                forwards += chunk.len();
                let mut sum = losses[0];
                for &l in &losses[1..] {
                    sum = tape.add(sum, l);
                }
                let loss = tape.scale(sum, 1.0 / losses.len() as f64);
                batch_losses.push(tape.value(loss).scalar());
                let mut grads = span("tensor.backward", || tape.backward(loss));
                steps += 1;
                tape_nodes += tape.len();
                peak_tape = peak_tape.max(tape.peak_tape_bytes());
                span("tensor.adam_step", || store.step(&mut grads, &bind, &adam));
            }
            epoch_loss = batch_losses.iter().sum::<f64>() / batch_losses.len().max(1) as f64;
            span("eval.val_forward", || {
                let val = accuracy(model.as_ref(), &store, contexts, &split.val, &mut rng);
                if val > best_val {
                    best_val = val;
                    accuracy(model.as_ref(), &store, contexts, &split.test, &mut rng);
                }
            });
        });
    }
    let counts = BTreeMap::from([
        ("core.forward_calls", forwards as f64 / steps as f64),
        ("tensor.tape_nodes", tape_nodes as f64 / steps as f64),
        (
            "tensor.peak_tape_mb",
            peak_tape as f64 / (1u64 << 20) as f64,
        ),
    ]);
    Ok((epoch_loss, best_val, counts))
}

pub fn trace(a: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let (contexts, feat_dim) = prepare(a.seed);
    let cfg = config(a.seed);

    // the untraced phase runs before spans and allocation counting start
    let runs = train::measure(
        a.seconds / 4.0,
        1,
        || Ok(()),
        |_| session(&contexts, feat_dim, &cfg),
    )?
    .runs;
    train::check_sessions(&runs, Some(VAL_FLOOR))?;
    let mut untraced: Vec<f64> = runs[1..]
        .iter()
        .map(|(s, w)| w * 1e3 / s.ops as f64)
        .collect();

    spans::enable();
    let mut setup_passes = Vec::new();
    for rep in 0..4 {
        let pass = 100 + rep;
        spans::set_pass(pass);
        setup_passes.push(pass);
        spans::op(|| prepare(a.seed));
    }

    let (mut counts, mut op_passes) = (BTreeMap::new(), Vec::new());
    let mut matches = true;
    while op_passes.len() < 3 || start.elapsed().as_secs_f64() < a.seconds {
        let pass = op_passes.len() as u32;
        spans::set_pass(pass);
        let (loss, val, c) = mirror(&contexts, feat_dim, &cfg)?;
        matches &= loss.to_bits() == runs[0].0.loss.to_bits() && Some(val) == runs[0].0.val;
        counts.insert(pass, c);
        op_passes.push(pass);
    }
    layers::outcome(Traced {
        label: format!("gc_batch-seed{}", a.seed),
        spans: spans::take(),
        counts,
        groups: vec![op_passes, setup_passes],
        untraced_op_ms: median(&mut untraced),
        mirror_matches: matches,
    })
}
