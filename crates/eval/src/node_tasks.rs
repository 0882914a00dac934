//! Node classification (accuracy) and link prediction (ROC-AUC),
//! following the paper's protocol: 80/10/10 splits, the test metric at
//! the best validation epoch, the composite AdamGNN loss. Both train
//! full-batch or, with a [`MinibatchConfig`], on sampled ego-subgraphs
//! ([`crate::minibatch`]); evaluation is always a full-graph forward, so
//! the two report comparable metrics.

use crate::epoch_loop::{EpochLoop, EpochTask, Learner, Recon};
use crate::metrics::{accuracy, pair_scores, roc_auc};
use crate::minibatch::{sampled_lp_step, sampled_nc_step, shuffled, MinibatchConfig, Sampled};
use crate::models::{AnyNodeModel, NodeModelKind};
use crate::session::{CkptHooks, RunOutcome};
use adamgnn_core::{FrozenStructure, LossWeights, PoolingKind};
use mg_ckpt::CkptMeta;
use mg_data::{LinkSplit, NodeDataset, Split};
use mg_nn::GraphCtx;
use mg_tensor::{Matrix, MgError, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::RngExt;
use std::rc::Rc;

/// Training options shared by both node tasks.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f64,
    /// Early-stopping patience in epochs without validation improvement.
    pub patience: usize,
    pub hidden: usize,
    /// AdamGNN granularity levels.
    pub levels: usize,
    pub seed: u64,
    /// AdamGNN composite-loss weights (γ, δ); zero disables a term.
    pub weights: LossWeights,
    /// AdamGNN flyback aggregator toggle (Table 5 ablation).
    pub flyback: bool,
    /// Pooling operator AdamGNN models coarsen with (Table-4 rivals run
    /// behind the same trait). Ignored by the flat baselines.
    pub pooling: PoolingKind,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 120,
            lr: 0.01,
            patience: 30,
            hidden: 64,
            levels: 3,
            seed: 0,
            weights: LossWeights::default(),
            flyback: true,
            pooling: adamgnn_core::pooling_env_default(),
        }
    }
}

/// The driver of a node-level job: checkpoint identity (a sampled job's
/// task tag embeds its sampling config) and the graph trained on.
pub(crate) fn node_loop<'a>(
    task: &'static str,
    kind: NodeModelKind,
    ds: &NodeDataset,
    out_dim: usize,
    mb: Option<&MinibatchConfig>,
    cfg: &'a TrainConfig,
    hooks: &'a CkptHooks<'a>,
) -> EpochLoop<'a> {
    EpochLoop {
        task,
        meta: CkptMeta {
            task: mb.map_or_else(|| task.to_string(), |mb| mb.task_tag(task)),
            model: kind.name().into(),
            dataset: ds.name.clone(),
            in_dim: ds.feat_dim(),
            out_dim,
            n_nodes: ds.n(),
        },
        size: (ds.n(), ds.graph.num_edges()),
        cfg,
        hooks,
    }
}

/// Node classification: cross-entropy on the training nodes.
struct NodeClassification<'a> {
    ds: &'a NodeDataset,
    model: AnyNodeModel,
    ctx: GraphCtx,
    split: Split,
    targets: Rc<Vec<usize>>,
    train_nodes: Rc<Vec<usize>>,
    sampled: Option<Sampled<'a>>,
    /// Logits of the latest validation forward, reused for the test metric.
    logits: Matrix,
}

/// The node-classification trainer behind [`crate::TrainSession`].
pub(crate) fn node_classification(
    kind: NodeModelKind,
    ds: &NodeDataset,
    cfg: &TrainConfig,
    mb: Option<&MinibatchConfig>,
    hooks: &CkptHooks<'_>,
) -> Result<RunOutcome, MgError> {
    let sampled = mb.map(|mb| Sampled::new(mb, ds.n())).transpose()?;
    let split = Split::random_80_10_10(ds.n(), cfg.seed ^ 0x5eed)?;
    let driver = node_loop(
        "node_classification",
        kind,
        ds,
        ds.num_classes,
        mb,
        cfg,
        hooks,
    );
    driver.run(|store, rng| NodeClassification {
        model: kind.build(store, ds.feat_dim(), cfg.hidden, ds.num_classes, cfg, rng),
        ctx: GraphCtx::new(ds.graph.clone(), ds.features.clone()),
        targets: Rc::new(ds.labels.clone()),
        train_nodes: Rc::new(split.train.clone()),
        split,
        sampled,
        ds,
        logits: Matrix::zeros(0, 0),
    })
}

impl EpochTask for NodeClassification<'_> {
    fn train_epoch(&mut self, l: &mut Learner, epoch: usize) -> Result<(), MgError> {
        let Some(s) = &mut self.sampled else {
            let tape = Tape::new();
            let bind = l.store.bind(&tape);
            let (logits, internals) = self
                .model
                .forward(&tape, &bind, &self.ctx, true, &mut l.rng);
            let task = tape.cross_entropy(logits, self.targets.clone(), self.train_nodes.clone());
            l.node_step(
                &tape,
                &bind,
                task,
                internals.as_ref(),
                Recon::Graph(&self.ctx.graph),
            );
            return Ok(());
        };
        let order = shuffled(&self.split.train, &mut l.rng);
        for (step, seeds) in order.chunks(s.mb.batch_size).enumerate() {
            sampled_nc_step(l, &self.model, self.ds, s, seeds, (epoch, step));
        }
        Ok(())
    }

    fn validate(&mut self, l: &mut Learner) -> Option<f64> {
        self.logits = l.infer(&self.model, &self.ctx);
        Some(accuracy(&self.logits, &self.ds.labels, &self.split.val))
    }

    fn test(&mut self, _l: &mut Learner) -> f64 {
        accuracy(&self.logits, &self.ds.labels, &self.split.test)
    }

    fn structure(&self, store: &ParamStore) -> Option<FrozenStructure> {
        // sampled steps rebuild the pooling structure per subgraph: none to pin
        match self.sampled {
            Some(_) => None,
            None => self.model.record_structure(store, &self.ctx),
        }
    }
}

/// Link prediction: the encoder sees only the training graph and its
/// embedding is decoded by inner products under a pair BCE, which for
/// AdamGNN *is* `L_R` (total `L_R + γ·L_KL`, as in the paper).
struct LinkPrediction<'a> {
    ds: &'a NodeDataset,
    model: AnyNodeModel,
    ctx: GraphCtx,
    link: LinkSplit,
    sampled: Option<Sampled<'a>>,
    /// Embeddings of the latest validation forward, reused for the test
    /// metric.
    emb: Matrix,
}

/// The link-prediction trainer behind [`crate::TrainSession`].
pub(crate) fn link_prediction(
    kind: NodeModelKind,
    ds: &NodeDataset,
    cfg: &TrainConfig,
    mb: Option<&MinibatchConfig>,
    hooks: &CkptHooks<'_>,
) -> Result<RunOutcome, MgError> {
    let sampled = mb.map(|mb| Sampled::new(mb, ds.n())).transpose()?;
    let link = LinkSplit::new(&ds.graph, cfg.seed ^ 0x11bb)?;
    let driver = node_loop("link_prediction", kind, ds, cfg.hidden, mb, cfg, hooks);
    driver.run(|store, rng| LinkPrediction {
        model: kind.build(store, ds.feat_dim(), cfg.hidden, cfg.hidden, cfg, rng),
        ctx: GraphCtx::new(link.train_graph.clone(), ds.features.clone()),
        link,
        sampled,
        ds,
        emb: Matrix::zeros(0, 0),
    })
}

impl EpochTask for LinkPrediction<'_> {
    fn train_epoch(&mut self, l: &mut Learner, epoch: usize) -> Result<(), MgError> {
        let Some(s) = &mut self.sampled else {
            let tape = Tape::new();
            let bind = l.store.bind(&tape);
            let (h, internals) = self
                .model
                .forward(&tape, &bind, &self.ctx, true, &mut l.rng);
            // fresh negatives each epoch, screened against the full graph
            let pos = &self.link.train_pos;
            let (mut pairs, mut labels) = (pos.clone(), vec![1.0; pos.len()]);
            let n = self.ds.n();
            push_negatives(
                &mut pairs,
                &mut labels,
                pos.len(),
                n,
                100,
                &mut l.rng,
                |u, v| self.ds.graph.has_edge(u, v),
            );
            let task = tape.bce_pairs(h, Rc::new(pairs), Rc::new(labels));
            l.node_step(&tape, &bind, task, internals.as_ref(), Recon::Task);
            return Ok(());
        };
        let order = shuffled(&self.link.train_pos, &mut l.rng);
        for (step, batch) in order.chunks(s.mb.batch_size).enumerate() {
            let train_graph = &self.link.train_graph;
            sampled_lp_step(
                l,
                &self.model,
                self.ds,
                train_graph,
                s,
                batch,
                (epoch, step),
            );
        }
        Ok(())
    }

    fn validate(&mut self, l: &mut Learner) -> Option<f64> {
        self.emb = l.infer(&self.model, &self.ctx);
        let (pos, neg) = (&self.link.val_pos, &self.link.val_neg);
        Some(roc_auc(
            &pair_scores(&self.emb, pos),
            &pair_scores(&self.emb, neg),
        ))
    }

    fn test(&mut self, _l: &mut Learner) -> f64 {
        let (pos, neg) = (&self.link.test_pos, &self.link.test_neg);
        roc_auc(&pair_scores(&self.emb, pos), &pair_scores(&self.emb, neg))
    }

    fn structure(&self, store: &ParamStore) -> Option<FrozenStructure> {
        match self.sampled {
            Some(_) => None,
            None => self.model.record_structure(store, &self.ctx),
        }
    }
}

/// Append up to `count` negative pairs among `0..n` with label 0, by
/// rejection sampling that gives up after `guard_per_pair * count` draws.
/// This predates [`mg_data::sample_non_edges`] and is kept draw for draw
/// (the mg-verify link-prediction golden pins it); unlike the evaluation
/// sets, a rare shortfall only softens one step's loss.
pub(crate) fn push_negatives(
    pairs: &mut Vec<(usize, usize)>,
    labels: &mut Vec<f64>,
    count: usize,
    n: usize,
    guard_per_pair: usize,
    rng: &mut StdRng,
    adjacent: impl Fn(usize, usize) -> bool,
) {
    let (mut added, mut guard) = (0, 0);
    while added < count && guard < guard_per_pair * count {
        guard += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && !adjacent(u, v) {
            pairs.push((u, v));
            labels.push(0.0);
            added += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};

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
            epochs: 30,
            lr: 0.02,
            patience: 30,
            hidden: 16,
            levels: 2,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn gcn_nc_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::Gcn),
            &fast_cfg(),
        )
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance + 0.1, "acc = {}", res.test_metric);
        assert_eq!(res.trace.len(), res.epochs_run, "traced by default");
    }

    #[test]
    fn adamgnn_nc_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &fast_cfg(),
        )
        .run(&ds)
        .unwrap();
        let chance = 1.0 / ds.num_classes as f64;
        assert!(res.test_metric > chance + 0.1, "acc = {}", res.test_metric);
    }

    #[test]
    fn gcn_lp_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::Gcn), &fast_cfg())
            .traced(false)
            .run(&ds)
            .unwrap();
        assert!(res.test_metric > 0.6, "auc = {}", res.test_metric);
        assert!(res.trace.is_empty(), "untraced session drops the trace");
    }

    #[test]
    fn adamgnn_lp_beats_chance() {
        let ds = tiny_ds();
        let res = TrainSession::new(
            SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
            &fast_cfg(),
        )
        .run(&ds)
        .unwrap();
        assert!(res.test_metric > 0.6, "auc = {}", res.test_metric);
    }

    /// Two sessions with identical configuration must agree bit for bit
    /// (the determinism contract the goldens rely on).
    #[test]
    fn repeated_session_is_bitwise_repeatable() {
        let ds = tiny_ds();
        let cfg = fast_cfg();
        let a = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .run(&ds)
            .unwrap();
        let b = TrainSession::new(SessionKind::NodeClassification(NodeModelKind::Gcn), &cfg)
            .run(&ds)
            .unwrap();
        assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits());
        assert_eq!(
            a.val_metric.unwrap().to_bits(),
            b.val_metric.unwrap().to_bits()
        );
        assert_eq!(a.epochs_run, b.epochs_run);
    }
}
