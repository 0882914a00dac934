//! `nc_full`: AdamGNN full-batch node classification on the Cora-like
//! generator at scale 0.3, in 2-epoch sessions that each end with a
//! checkpoint.
//!
//! One big forward and backward per epoch: the kernel- and
//! autograd-heavy path, and the writing side of mg-ckpt.

use crate::layers::{self, Counts, Traced};
use crate::spans::{self, span};
use crate::train::{self, Session};
use crate::{median, work_dir, Args, Outcome};
use adamgnn_core::{kl_loss, reconstruction_loss, total_loss, PoolingKind};
use mg_ckpt::Checkpoint;
use mg_data::{make_node_dataset, NodeDataset, NodeDatasetKind, NodeGenConfig, Split};
use mg_eval::{accuracy, NodeModelKind, SessionKind, TrainConfig, TrainSession};
use mg_nn::GraphCtx;
use mg_tensor::{AdamConfig, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Cora-like at 0.3 scale: 812 nodes and ~21 MB of tape per step. Full
/// scale (2,708 nodes, 68 MB) is memory-bound and its epoch time moved
/// by half between sessions on identical work.
pub const SCALE: f64 = 0.3;
pub const FEATS: usize = 256;
/// Epochs per session. Sessions are the samples of `op_ms`; short ones
/// let the fastest sample land inside one of the machine's fast spells
/// (over four seeds, 10-epoch sessions gave a 30-42% quartile spread
/// between runs, 2-epoch ones 9-16%).
/// Each session writes its checkpoint after its last epoch.
const EPOCHS: usize = 2;
/// Best validation accuracy must clear this (7 classes: chance ≈ 0.14;
/// seeds 1-10 reach 0.59-0.85 after two epochs).
const VAL_FLOOR: f64 = 0.4;

/// The workload's dataset for `seed`; `serve_http` serves the same graph.
pub fn dataset(seed: u64) -> NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: SCALE,
            max_feat_dim: FEATS,
            seed,
        },
    )
}

fn config(seed: u64) -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        lr: 0.01,
        // above the epoch count, so every session runs every epoch
        patience: EPOCHS + 1,
        hidden: 64,
        levels: 2,
        seed,
        pooling: PoolingKind::AdamGnn,
        ..TrainConfig::default()
    }
}

fn ckpt_path(seed: u64) -> Result<PathBuf, String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir.join(format!("nc_full-{seed}-{}.mgck", std::process::id())))
}

fn session(ds: &NodeDataset, cfg: &TrainConfig, path: &Path) -> Result<Session, String> {
    let out = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::AdamGnn), cfg)
        .checkpoint_to(path)
        .run(ds)
        .map_err(|e| format!("node-classification session failed: {e}"))?;
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

/// The checkpoint the sessions wrote must load and describe the run.
fn check_checkpoint(path: &Path, s: &Session) -> Result<Checkpoint, String> {
    let ck =
        Checkpoint::load(path).map_err(|e| format!("written checkpoint does not load: {e}"))?;
    let last = ck.trace.last().ok_or("checkpoint holds no trace rows")?;
    if ck.state.epochs_run != s.ops || last.loss.to_bits() != s.loss.to_bits() {
        return Err(format!(
            "checkpoint records {} epochs and loss {:e}; the session ran {} and ended at {:e}",
            ck.state.epochs_run, last.loss, s.ops, s.loss
        ));
    }
    Ok(ck)
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let path = ckpt_path(a.seed)?;
    let cfg = config(a.seed);
    let measured = train::measure(
        a.seconds,
        usize::MAX,
        || Ok(dataset(a.seed)),
        |ds| session(ds, &cfg, &path),
    );
    let checked = measured.and_then(|m| check_checkpoint(&path, &m.runs[0].0).map(|_| m));
    let _ = std::fs::remove_file(&path);
    let m = checked?;
    let ds = &m.data;
    let mut o = train::outcome(&m, Some(VAL_FLOOR), "epoch")?;
    o.notes.push(format!(
        "{} nodes, {} edges, {} features; a checkpoint after every {EPOCHS}-epoch session",
        ds.n(),
        ds.graph.num_edges(),
        ds.feat_dim()
    ));
    Ok(o)
}

/// One mirror session: the full-batch trainer's epoch, step for step,
/// through the public per-layer calls. Returns the final loss and best
/// validation accuracy, and the pass's exact counts.
fn mirror(
    ds: &NodeDataset,
    cfg: &TrainConfig,
    template: &Checkpoint,
    path: &Path,
) -> Result<(f64, f64, Counts), String> {
    let ctx = span("nn.ctx_build", || {
        GraphCtx::new(ds.graph.clone(), ds.features.clone())
    });
    let split = Split::random_80_10_10(ds.n(), cfg.seed ^ 0x5eed).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut store = ParamStore::new();
    let model = NodeModelKind::AdamGnn.build(
        &mut store,
        ds.feat_dim(),
        cfg.hidden,
        ds.num_classes,
        cfg,
        &mut rng,
    );
    let adam = AdamConfig::with_lr(cfg.lr);
    let targets = Rc::new(ds.labels.clone());
    let train_nodes = Rc::new(split.train.clone());
    let (mut best_val, mut last_loss) = (f64::NEG_INFINITY, f64::NAN);
    let (mut tape_nodes, mut peak_tape, mut egos, mut ckpt_bytes) =
        (0usize, 0usize, 0usize, 0usize);
    for epoch in 0..cfg.epochs {
        spans::op(|| -> Result<(), String> {
            let tape = Tape::new();
            let bind = store.bind(&tape);
            let (logits, internals) = span("core.forward", || {
                model.forward(&tape, &bind, &ctx, true, &mut rng)
            });
            let out = internals.ok_or("AdamGNN forward returned no internals")?;
            let task = tape.cross_entropy(logits, targets.clone(), train_nodes.clone());
            let kl = span("core.kl_loss", || kl_loss(&tape, out.h, &out.egos_l1));
            let recon = span("core.recon_loss", || {
                reconstruction_loss(&tape, out.h, &ctx.graph, &mut rng)
            });
            let mut loss = total_loss(&tape, task, kl, recon, &cfg.weights);
            if let Some(aux) = out.aux {
                loss = tape.add(loss, aux);
            }
            last_loss = tape.value(loss).scalar();
            let mut grads = span("tensor.backward", || tape.backward(loss));
            tape_nodes += tape.len();
            peak_tape = peak_tape.max(tape.peak_tape_bytes());
            egos += out.egos_l1.len();
            span("tensor.adam_step", || store.step(&mut grads, &bind, &adam));
            let val = span("eval.val_forward", || {
                let tape = Tape::new();
                let bind = store.bind(&tape);
                let (logits, _) = model.forward(&tape, &bind, &ctx, false, &mut rng);
                let lv = tape.value_cloned(logits);
                let val = accuracy(&lv, &ds.labels, &split.val);
                if val > best_val {
                    std::hint::black_box(accuracy(&lv, &ds.labels, &split.test));
                }
                val
            });
            best_val = best_val.max(val);
            if epoch + 1 == cfg.epochs {
                let structure = span("ckpt.record_structure", || {
                    model.record_structure(&store, &ctx)
                });
                let (params, adam_t) = store.export_state();
                let mut ck = template.clone();
                (ck.params, ck.adam_t, ck.rng, ck.structure) =
                    (params, adam_t, rng.state(), structure);
                ckpt_bytes = span("ckpt.encode", || ck.to_bytes()).len();
                span("ckpt.save", || ck.save(path)).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
    }
    let steps = cfg.epochs as f64;
    let counts = BTreeMap::from([
        ("core.forward_calls", 1.0),
        ("core.egos_l1", egos as f64 / steps),
        ("tensor.tape_nodes", tape_nodes as f64 / steps),
        (
            "tensor.peak_tape_mb",
            peak_tape as f64 / (1u64 << 20) as f64,
        ),
        ("ckpt.bytes", ckpt_bytes as f64),
    ]);
    Ok((last_loss, best_val, counts))
}

pub fn trace(a: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let ds = dataset(a.seed);
    let cfg = config(a.seed);
    let path = ckpt_path(a.seed)?;

    // the untraced phase runs before spans and allocation counting start
    let runs = train::measure(a.seconds / 4.0, 1, || Ok(()), |_| session(&ds, &cfg, &path))?.runs;
    train::check_sessions(&runs, Some(VAL_FLOOR))?;
    let mut template = check_checkpoint(&path, &runs[0].0)?;
    template.params.clear();
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
        spans::op(|| span("data.generate", || dataset(a.seed)));
    }

    let (mut counts, mut op_passes) = (BTreeMap::new(), Vec::new());
    let mut matches = true;
    while op_passes.len() < 3 || start.elapsed().as_secs_f64() < a.seconds {
        let pass = op_passes.len() as u32;
        spans::set_pass(pass);
        let (loss, val, c) = mirror(&ds, &cfg, &template, &path)?;
        matches &= loss.to_bits() == runs[0].0.loss.to_bits() && Some(val) == runs[0].0.val;
        counts.insert(pass, c);
        op_passes.push(pass);
    }
    let _ = std::fs::remove_file(&path);
    layers::outcome(Traced {
        label: format!("nc_full-seed{}", a.seed),
        spans: spans::take(),
        counts,
        groups: vec![op_passes, setup_passes],
        untraced_op_ms: median(&mut untraced),
        mirror_matches: matches,
    })
}
