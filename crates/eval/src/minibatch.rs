//! Sampled ego-subgraph minibatch steps for the node-level tasks.
//!
//! Each optimizer step draws a batch of seed nodes (NC) or training
//! edges (LP), expands a fanout-bounded neighborhood with
//! [`mg_data::NeighborSampler`], gathers the sampled nodes' features
//! into a small dense matrix, and runs the full model — including
//! AdamGNN's fitness→pooling→flyback stack — on the induced subgraph.
//! The loss is restricted to the seed rows, so backward naturally
//! scatters gradients onto the *global* parameter matrices (AdamGNN has
//! no per-node parameters; everything is weight matrices shared across
//! nodes).
//!
//! The session trainers ([`crate::node_tasks`]) evaluate full-graph, so
//! minibatch metrics stay directly comparable to full-batch ones. The
//! million-node path ([`sampled_epochs_streamed`]) shares the NC step
//! but never builds a full-graph context at all — it trains purely on
//! sampled subgraphs over a [`NodeFeatureSource`].
//!
//! Sampling draws from the same `StdRng` stream as everything else in
//! the epoch, so checkpoint/resume (which snapshots the RNG state at
//! epoch boundaries) replays the exact seed shuffles, fanout choices and
//! negative draws of an uninterrupted run.

use crate::epoch_loop::{Learner, Recon};
use crate::models::{AnyNodeModel, NodeModelKind};
use crate::node_tasks::{push_negatives, TrainConfig};
use mg_data::{NeighborSampler, NodeDataset, NodeFeatureSource, SampledSubgraph};
use mg_graph::Topology;
use mg_nn::GraphCtx;
use mg_obs::SampleStepRecord;
use mg_tensor::{Matrix, MgError, Tape};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::HashMap;
use std::rc::Rc;

/// Sampled-minibatch options, attached to a session with
/// [`crate::TrainSession::minibatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinibatchConfig {
    /// Seed nodes (NC) or training edges (LP) per optimizer step.
    pub batch_size: usize,
    /// Neighbors kept per node per hop; the length is the sampled
    /// receptive-field depth. `[12, 12]` matches a 2-level model.
    pub fanouts: Vec<usize>,
}

impl Default for MinibatchConfig {
    fn default() -> Self {
        MinibatchConfig {
            batch_size: 64,
            fanouts: vec![12, 12],
        }
    }
}

impl MinibatchConfig {
    /// Stable identity string, embedded in checkpoint metadata so a
    /// full-batch checkpoint cannot silently resume a sampled run (or
    /// vice versa, or across different sampling configurations).
    pub(crate) fn task_tag(&self, base: &str) -> String {
        let fans = self
            .fanouts
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("-");
        format!("{base}_minibatch/b{}/f{}", self.batch_size, fans)
    }
}

/// A fresh shuffled copy of `items`, drawn from the trainer RNG
/// (Fisher–Yates). Shuffling a fresh clone each epoch makes the batch
/// order a function of the RNG position alone, so a resumed run (which
/// restores the RNG but not the previous permutation) replays it.
pub(crate) fn shuffled<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut items = items.to_vec();
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
    items
}

/// Gather the sampled nodes' feature rows and labels into batch-local
/// arrays (row `l` of the matrix is global node `sub.nodes[l]`).
fn gather_batch(src: &dyn NodeFeatureSource, sub: &SampledSubgraph) -> (Matrix, Vec<usize>) {
    let d = src.feat_dim();
    let k = sub.nodes.len();
    let mut x = Matrix::zeros(k, d);
    let mut labels = Vec::with_capacity(k);
    for (l, &g) in sub.nodes.iter().enumerate() {
        src.fill_features(g, x.row_mut(l));
        labels.push(src.label(g));
    }
    (x, labels)
}

/// A sampled trainer's configuration and the sampler's reusable scratch.
pub(crate) struct Sampled<'a> {
    pub mb: &'a MinibatchConfig,
    pub sampler: NeighborSampler,
}

impl<'a> Sampled<'a> {
    pub fn new(mb: &'a MinibatchConfig, n: usize) -> Result<Self, MgError> {
        if mb.batch_size == 0 || mb.fanouts.is_empty() {
            return Err(MgError::InvalidInput {
                detail: "minibatch needs batch_size >= 1 and at least one fanout".into(),
            });
        }
        Ok(Sampled {
            mb,
            sampler: NeighborSampler::new(n),
        })
    }
}

/// Emit the `sample_step` record of the step at `(epoch, step)`.
fn record_step(l: &mut Learner, (epoch, step): (usize, usize), sub: &SampledSubgraph, loss: f64) {
    l.obs.sample_step(&SampleStepRecord {
        epoch,
        step,
        seeds: sub.num_seeds,
        sampled_nodes: sub.nodes.len(),
        sampled_edges: sub.topo.num_edges(),
        truncated: sub.truncated,
        loss,
    });
}

/// One sampled node-classification step, shared by the session trainer
/// and [`sampled_epochs_streamed`]: sample the seeds' neighbourhood,
/// forward on it, and step on the cross-entropy of the seed rows (plus
/// AdamGNN's KL and `L_R` on the subgraph). Returns the loss and the
/// subgraph.
pub(crate) fn sampled_nc_step(
    l: &mut Learner,
    model: &AnyNodeModel,
    src: &dyn NodeFeatureSource,
    s: &mut Sampled<'_>,
    seeds: &[usize],
    at: (usize, usize),
) -> (f64, SampledSubgraph) {
    let sub = s
        .sampler
        .sample(src.graph(), seeds, &s.mb.fanouts, &mut l.rng);
    let (sub_x, sub_labels) = gather_batch(src, &sub);
    let sub_ctx = GraphCtx::new(sub.topo.clone(), sub_x);
    let tape = Tape::new();
    let bind = l.store.bind(&tape);
    let (logits, internals) = model.forward(&tape, &bind, &sub_ctx, true, &mut l.rng);
    let seed_locals: Vec<usize> = sub.seed_locals().collect();
    let task = tape.cross_entropy(logits, Rc::new(sub_labels), Rc::new(seed_locals));
    let recon = Recon::Graph(&sub_ctx.graph);
    let loss = l.node_step(&tape, &bind, task, internals.as_ref(), recon);
    record_step(l, at, &sub, loss);
    (loss, sub)
}

/// One sampled link-prediction step: the batch's edge endpoints seed the
/// sampler on the training graph, and the BCE scores the batch's
/// positive pairs plus as many in-subgraph negatives, screened against
/// the *full* graph as in the full-batch trainer (+ γ·KL for AdamGNN).
pub(crate) fn sampled_lp_step(
    l: &mut Learner,
    model: &AnyNodeModel,
    ds: &NodeDataset,
    train_graph: &Topology,
    s: &mut Sampled<'_>,
    batch: &[(usize, usize)],
    at: (usize, usize),
) {
    let seeds: Vec<usize> = batch.iter().flat_map(|&(u, v)| [u, v]).collect();
    let sub = s
        .sampler
        .sample(train_graph, &seeds, &s.mb.fanouts, &mut l.rng);
    // endpoints are seeds, so they occupy the remap's prefix
    let local: HashMap<usize, usize> = sub.seed_locals().map(|l| (sub.nodes[l], l)).collect();
    let (sub_x, _) = gather_batch(ds, &sub);
    let sub_ctx = GraphCtx::new(sub.topo.clone(), sub_x);
    let tape = Tape::new();
    let bind = l.store.bind(&tape);
    let (h, internals) = model.forward(&tape, &bind, &sub_ctx, true, &mut l.rng);
    let mut pairs: Vec<(usize, usize)> =
        batch.iter().map(|&(u, v)| (local[&u], local[&v])).collect();
    let mut labels = vec![1.0; pairs.len()];
    let k = sub.nodes.len();
    push_negatives(
        &mut pairs,
        &mut labels,
        batch.len(),
        k,
        200,
        &mut l.rng,
        |a, b| ds.graph.has_edge(sub.nodes[a], sub.nodes[b]),
    );
    let task = tape.bce_pairs(h, Rc::new(pairs), Rc::new(labels));
    let loss = l.node_step(&tape, &bind, task, internals.as_ref(), Recon::Task);
    record_step(l, at, &sub, loss);
}

/// Result of one streamed sampled epoch over a [`NodeFeatureSource`].
#[derive(Clone, Copy, Debug)]
pub struct StreamedEpoch {
    /// Mean composite loss over the epoch's steps.
    pub mean_loss: f64,
    /// Optimizer steps taken.
    pub steps: usize,
    /// Total nodes sampled across all steps.
    pub sampled_nodes: usize,
    /// Total fanout truncation events.
    pub truncated: usize,
}

/// Run sampled node-classification training epochs directly over a
/// [`NodeFeatureSource`] — the million-node path. Unlike the fixture
/// trainers this never builds a full-graph [`GraphCtx`] (whose
/// precomputed normalizations and dense feature matrix are exactly the
/// O(n)+O(m) materializations minibatching exists to avoid); every
/// matrix it touches is batch-sized. `seeds_per_epoch` nodes are drawn
/// uniformly per epoch, in batches of `mb.batch_size`.
pub fn sampled_epochs_streamed(
    src: &dyn NodeFeatureSource,
    kind: NodeModelKind,
    cfg: &TrainConfig,
    mb: &MinibatchConfig,
    seeds_per_epoch: usize,
) -> Result<StreamedEpoch, MgError> {
    if mb.batch_size == 0 || mb.fanouts.is_empty() || seeds_per_epoch == 0 {
        return Err(MgError::InvalidInput {
            detail: "streamed sampling needs batch_size, fanouts and seeds_per_epoch >= 1".into(),
        });
    }
    let n = src.n();
    let (mut l, model) = Learner::new(cfg, |store, rng| {
        kind.build(
            store,
            src.feat_dim(),
            cfg.hidden,
            src.num_classes(),
            cfg,
            rng,
        )
    });
    let mut s = Sampled::new(mb, n)?;
    let (mut sampled_nodes, mut truncated) = (0, 0);
    for epoch in 0..cfg.epochs {
        for step in 0..seeds_per_epoch.div_ceil(mb.batch_size) {
            let take = mb.batch_size.min(seeds_per_epoch - step * mb.batch_size);
            let seeds: Vec<usize> = (0..take).map(|_| l.rng.random_range(0..n)).collect();
            let (loss, sub) = sampled_nc_step(&mut l, &model, src, &mut s, &seeds, (epoch, step));
            if !loss.is_finite() {
                return Err(MgError::InvalidInput {
                    detail: format!(
                        "non-finite sampled loss at epoch {epoch} step {step}; lower lr or fanouts"
                    ),
                });
            }
            sampled_nodes += sub.nodes.len();
            truncated += sub.truncated;
        }
    }
    Ok(StreamedEpoch {
        mean_loss: l.steps.mean_loss(),
        steps: l.steps.count,
        sampled_nodes,
        truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use mg_data::{make_node_dataset, BigGraph, BigGraphConfig, NodeDatasetKind, NodeGenConfig};

    fn tiny_ds() -> NodeDataset {
        make_node_dataset(
            NodeDatasetKind::Cora,
            &NodeGenConfig {
                scale: 0.08,
                max_feat_dim: 48,
                seed: 11,
            },
        )
    }

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            lr: 0.02,
            patience: 12,
            hidden: 16,
            levels: 2,
            seed: 1,
            ..Default::default()
        }
    }

    fn small_mb() -> MinibatchConfig {
        MinibatchConfig {
            batch_size: 32,
            fanouts: vec![8, 8],
        }
    }

    #[test]
    fn sampled_nc_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &fast_cfg(),
        )
        .minibatch(small_mb())
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance + 0.1, "acc = {}", res.test_metric);
        assert_eq!(res.trace.len(), res.epochs_run);
    }

    #[test]
    fn sampled_adamgnn_nc_runs() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &fast_cfg(),
        )
        .minibatch(small_mb())
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance, "acc = {}", res.test_metric);
    }

    #[test]
    fn sampled_lp_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::Gcn), &fast_cfg())
            .minibatch(small_mb())
            .run(&ds)
            .unwrap();
        assert!(res.test_metric > 0.55, "auc = {}", res.test_metric);
    }

    #[test]
    fn minibatch_is_deterministic() {
        let ds = tiny_ds();
        let run = || {
            TrainSession::new(
                SessionKind::NodeClassification(NodeModelKind::Gcn),
                &fast_cfg(),
            )
            .minibatch(small_mb())
            .run(&ds)
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(
            a.val_metric.unwrap().to_bits(),
            b.val_metric.unwrap().to_bits()
        );
    }

    #[test]
    fn minibatch_rejects_graph_tasks_and_bad_config() {
        let ds = tiny_ds();
        let err = TrainSession::new(SessionKind::NodeClustering(NodeModelKind::Gcn), &fast_cfg())
            .minibatch(small_mb())
            .run(&ds);
        assert!(matches!(err, Err(MgError::InvalidInput { .. })));
        let err = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &fast_cfg(),
        )
        .minibatch(MinibatchConfig {
            batch_size: 0,
            fanouts: vec![4],
        })
        .run(&ds);
        assert!(matches!(err, Err(MgError::InvalidInput { .. })));
    }

    #[test]
    fn checkpoint_resume_replays_sampled_run_bitwise() {
        let ds = tiny_ds();
        let dir = std::env::temp_dir().join("mg_minibatch_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sampled.mgck");
        let cfg = fast_cfg();
        // uninterrupted reference
        let full = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .minibatch(small_mb())
            .run(&ds)
            .unwrap();
        // interrupted run: stop at epoch 6, checkpoint, resume
        let short_cfg = TrainConfig { epochs: 6, ..cfg };
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &short_cfg,
        )
        .minibatch(small_mb())
        .checkpoint_to(&path)
        .run(&ds)
        .unwrap();
        let resumed = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .minibatch(small_mb())
            .resume_from(&path)
            .run(&ds)
            .unwrap();
        assert_eq!(full.test_metric.to_bits(), resumed.test_metric.to_bits());
        assert_eq!(
            full.val_metric.unwrap().to_bits(),
            resumed.val_metric.unwrap().to_bits()
        );
        assert_eq!(full.epochs_run, resumed.epochs_run);
        // trace prefix + continuation must equal the uninterrupted trace
        assert_eq!(full.trace.records.len(), resumed.trace.records.len());
        for (a, b) in full.trace.records.iter().zip(resumed.trace.records.iter()) {
            assert_eq!(a.loss.to_bits(), b.loss.to_bits());
            assert_eq!(a.val.to_bits(), b.val.to_bits());
        }
        // a full-batch checkpoint must not resume a sampled run
        let fb_path = dir.join("fullbatch.mgck");
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &short_cfg,
        )
        .checkpoint_to(&fb_path)
        .run(&ds)
        .unwrap();
        let err = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .minibatch(small_mb())
            .resume_from(&fb_path)
            .run(&ds);
        assert!(matches!(err, Err(MgError::Mismatch { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_epoch_trains_without_full_ctx() {
        let big = BigGraph::generate(&BigGraphConfig {
            n: 5000,
            classes: 5,
            avg_degree: 8,
            feat_dim: 20,
            seed: 3,
            byte_budget: 8 << 20,
        });
        let cfg = TrainConfig {
            epochs: 2,
            lr: 0.02,
            hidden: 16,
            levels: 2,
            seed: 2,
            ..Default::default()
        };
        let mb = MinibatchConfig {
            batch_size: 64,
            fanouts: vec![6, 6],
        };
        let out = sampled_epochs_streamed(&big, NodeModelKind::Gcn, &cfg, &mb, 256).unwrap();
        assert_eq!(out.steps, 8); // 2 epochs x ceil(256/64)
        assert!(out.mean_loss.is_finite() && out.mean_loss > 0.0);
        assert!(out.sampled_nodes > 0);
    }
}
