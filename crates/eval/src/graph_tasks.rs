//! Graph classification (Table 1's task), following the paper's
//! protocol: 80/10/10 graph split, mini-batch training, accuracy at the
//! best-validation epoch.

use crate::epoch_loop::{EpochLoop, EpochTask, Learner};
use crate::minibatch::shuffled;
use crate::models::GraphModelKind;
use crate::node_tasks::TrainConfig;
use crate::session::{CkptHooks, RunOutcome};
use crate::telemetry::LossTerms;
use mg_ckpt::CkptMeta;
use mg_data::{GraphDataset, Split};
use mg_nn::{GraphClassifier, GraphCtx};
use mg_tensor::{MgError, Tape};
use std::rc::Rc;

/// Graphs per optimiser step.
const BATCH: usize = 32;

/// Pre-build per-graph contexts once (adjacency normalisations are
/// gradient-free and reusable across epochs).
pub fn build_contexts(ds: &GraphDataset) -> Vec<(GraphCtx, usize)> {
    ds.samples
        .iter()
        .map(|s| (GraphCtx::new(s.graph.clone(), s.features.clone()), s.label))
        .collect()
}

/// Graph classification: per batch, the mean over its graphs of the
/// cross-entropy plus any model-internal auxiliary loss. There is no
/// persistent structure to pin: graph-level pooling is derived per input
/// graph.
struct GraphClassification<'a> {
    model: Box<dyn GraphClassifier>,
    contexts: &'a [(GraphCtx, usize)],
    split: Split,
}

/// The graph-classification trainer behind [`crate::TrainSession`].
pub(crate) fn graph_classification(
    kind: GraphModelKind,
    contexts: &[(GraphCtx, usize)],
    feat_dim: usize,
    cfg: &TrainConfig,
    hooks: &CkptHooks<'_>,
) -> Result<RunOutcome, MgError> {
    let split = Split::random_80_10_10(contexts.len(), cfg.seed ^ 0x9c9c)?;
    let driver = EpochLoop {
        task: "graph_classification",
        meta: CkptMeta {
            task: "graph_classification".into(),
            model: kind.name().into(),
            dataset: format!("{}_graphs", contexts.len()),
            in_dim: feat_dim,
            out_dim: 2,
            n_nodes: 0,
        },
        size: contexts.iter().fold((0, 0), |(n, m), (c, _)| {
            (n + c.graph.n(), m + c.graph.num_edges())
        }),
        cfg,
        hooks,
    };
    driver.run(|store, rng| GraphClassification {
        model: kind.build(store, feat_dim, cfg.hidden, 2, cfg, rng),
        contexts,
        split,
    })
}

impl GraphClassification<'_> {
    fn accuracy(&self, l: &mut Learner, idx: &[usize]) -> f64 {
        if idx.is_empty() {
            return 0.0;
        }
        let mut correct = 0;
        for &gi in idx {
            let (ctx, label) = &self.contexts[gi];
            let tape = Tape::new();
            let bind = l.store.bind(&tape);
            let out = self.model.forward(&tape, &bind, ctx, false, &mut l.rng);
            if tape.value(out.logits).row_argmax(0) == *label {
                correct += 1;
            }
        }
        correct as f64 / idx.len() as f64
    }
}

impl EpochTask for GraphClassification<'_> {
    const TIMED: bool = true;

    fn train_epoch(&mut self, l: &mut Learner, _epoch: usize) -> Result<(), MgError> {
        for chunk in shuffled(&self.split.train, &mut l.rng).chunks(BATCH) {
            let tape = Tape::new();
            let bind = l.store.bind(&tape);
            let mut losses = Vec::with_capacity(chunk.len());
            for &gi in chunk {
                let (ctx, label) = &self.contexts[gi];
                let out = self.model.forward(&tape, &bind, ctx, true, &mut l.rng);
                let ce = tape.cross_entropy(out.logits, Rc::new(vec![*label]), Rc::new(vec![0]));
                losses.push(match out.aux_loss {
                    Some(aux) => tape.add(ce, aux),
                    None => ce,
                });
            }
            let mut sum = losses[0];
            for &loss in &losses[1..] {
                sum = tape.add(sum, loss);
            }
            let loss = tape.scale(sum, 1.0 / losses.len() as f64);
            l.step(&tape, &bind, loss, LossTerms::default(), None);
        }
        Ok(())
    }

    fn validate(&mut self, l: &mut Learner) -> Option<f64> {
        Some(self.accuracy(l, &self.split.val))
    }

    fn test(&mut self, l: &mut Learner) -> f64 {
        self.accuracy(l, &self.split.test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionKind, TrainSession};
    use mg_data::{make_graph_dataset, GraphDatasetKind, GraphGenConfig};

    fn tiny() -> GraphDataset {
        make_graph_dataset(
            GraphDatasetKind::Mutagenicity,
            &GraphGenConfig {
                scale: 0.04,
                max_nodes: 30,
                seed: 2,
            },
        )
    }

    #[test]
    fn gin_gc_beats_chance_on_motif_data() {
        let cfg = TrainConfig {
            epochs: 25,
            lr: 0.01,
            patience: 25,
            hidden: 32,
            levels: 2,
            seed: 3,
            ..Default::default()
        };
        let res = TrainSession::new(SessionKind::GraphClassification(GraphModelKind::Gin), &cfg)
            .run(&tiny())
            .unwrap();
        assert!(res.test_metric > 0.6, "acc = {}", res.test_metric);
        assert!(res.epoch_seconds.unwrap() > 0.0);
        assert_eq!(res.trace.len(), res.epochs_run);
    }

    #[test]
    fn adamgnn_gc_beats_chance_on_motif_data() {
        let cfg = TrainConfig {
            epochs: 25,
            lr: 0.01,
            patience: 25,
            hidden: 32,
            levels: 2,
            seed: 3,
            ..Default::default()
        };
        let res = TrainSession::new(
            SessionKind::GraphClassification(GraphModelKind::AdamGnn),
            &cfg,
        )
        .run(&tiny())
        .unwrap();
        assert!(res.test_metric > 0.6, "acc = {}", res.test_metric);
    }
}
