//! The one training loop behind every [`crate::TrainSession`] task.
//!
//! [`EpochLoop`] owns everything the tasks have in common: the parameter
//! store, Adam and the RNG (the model's initial weights are the stream's
//! first draws), resume, patience and the best-validation bookkeeping,
//! checkpoint writes, the [`TrainTrace`] and the mg-obs run records. A
//! task ([`EpochTask`]) contributes its epoch's optimiser steps, its
//! validation and test metrics and, optionally, a structure to pin.
//! Every step goes through [`Learner::step`], the one place parameters
//! change, so every task reports the same per-epoch telemetry.

use crate::metrics::mean_std;
use crate::models::AnyNodeModel;
use crate::node_tasks::TrainConfig;
use crate::session::{self, CkptHooks, RunOutcome};
use crate::telemetry::{self, LossTerms, StepObs};
use crate::trace::TrainTrace;
use adamgnn_core::{
    kl_loss, reconstruction_loss, total_loss, AdamGnnOutput, FrozenStructure, LossWeights,
};
use mg_ckpt::{Checkpoint, CkptMeta, TraceRow, TrainState};
use mg_graph::Topology;
use mg_nn::GraphCtx;
use mg_obs::{EpochRecord, RunMeta, Trace};
use mg_tensor::{AdamConfig, Binding, Matrix, MgError, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One task's share of training; [`EpochLoop`] does the rest.
pub(crate) trait EpochTask {
    /// Whether the task reports epoch wall times (graph classification,
    /// Table 4). They ride in its checkpoints, so a resumed run's mean
    /// covers every epoch.
    const TIMED: bool = false;

    /// Run one epoch's optimiser steps, each through [`Learner::step`].
    fn train_epoch(&mut self, l: &mut Learner, epoch: usize) -> Result<(), MgError>;

    /// Validation metric after the epoch, or `None` for a task without a
    /// validation split (which therefore never early-stops).
    fn validate(&mut self, l: &mut Learner) -> Option<f64>;

    /// Test metric at the current parameters; asked for each time
    /// validation improves.
    fn test(&mut self, l: &mut Learner) -> f64;

    /// The headline metric of a task without validation, computed once
    /// after the last epoch. `None` reports the test metric at the best
    /// validation epoch instead.
    fn finish(&mut self, _l: &mut Learner) -> Option<f64> {
        None
    }

    /// The learned structure a checkpoint pins for frozen inference.
    fn structure(&self, _store: &ParamStore) -> Option<FrozenStructure> {
        None
    }
}

/// Where a node task's reconstruction term `L_R` (Eq. 6) comes from.
#[derive(Clone, Copy)]
pub(crate) enum Recon<'g> {
    /// Node classification: `L_R` is sampled on this graph, weighted by δ.
    Graph(&'g Topology),
    /// Link prediction and clustering: the pair BCE task loss *is* `L_R`.
    Task,
}

/// The state every optimiser step of a run reads and advances:
/// parameters with their Adam moments, the one RNG stream, and the
/// telemetry sink.
pub(crate) struct Learner {
    pub store: ParamStore,
    pub rng: StdRng,
    pub obs: Trace,
    adam: AdamConfig,
    weights: LossWeights,
    /// The steps taken since the driver last took them.
    pub steps: Steps,
}

impl Learner {
    /// Seed the RNG and build the model; its initial weights are the
    /// stream's first draws. Telemetry starts disabled.
    pub fn new<M>(
        cfg: &TrainConfig,
        build: impl FnOnce(&mut ParamStore, &mut StdRng) -> M,
    ) -> (Learner, M) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let model = build(&mut store, &mut rng);
        let learner = Learner {
            store,
            rng,
            obs: Trace::disabled(),
            adam: AdamConfig::with_lr(cfg.lr),
            weights: cfg.weights,
            steps: Steps::default(),
        };
        (learner, model)
    }

    /// Compose a node task's objective `L = L_task + γ·L_KL + δ·L_R + aux`
    /// and step on it. Only AdamGNN exposes `internals`; other models
    /// train on the task loss alone. Returns the loss value.
    pub fn node_step(
        &mut self,
        tape: &Tape,
        bind: &Binding,
        task: Var,
        internals: Option<&AdamGnnOutput>,
        recon: Recon<'_>,
    ) -> f64 {
        let w = self.weights;
        let zero = || tape.constant(Matrix::zeros(1, 1));
        let mut terms = LossTerms {
            task: Some(task),
            kl: None,
            recon: matches!(recon, Recon::Task).then_some(task),
        };
        let mut loss = match (internals, recon) {
            (Some(out), Recon::Graph(graph)) => {
                let kl = if w.gamma != 0.0 {
                    kl_loss(tape, out.h, &out.egos_l1)
                } else {
                    zero()
                };
                let r = if w.delta != 0.0 {
                    reconstruction_loss(tape, out.h, graph, &mut self.rng)
                } else {
                    zero()
                };
                terms.kl = Some(kl);
                terms.recon = Some(r);
                total_loss(tape, task, kl, r, &w)
            }
            (Some(out), Recon::Task) if w.gamma != 0.0 => {
                let kl = kl_loss(tape, out.h, &out.egos_l1);
                terms.kl = Some(kl);
                tape.add(task, tape.scale(kl, w.gamma))
            }
            _ => task,
        };
        // operator-specific auxiliary term (None for the default operator)
        if let Some(aux) = internals.and_then(|o| o.aux) {
            loss = tape.add(loss, aux);
        }
        self.step(tape, bind, loss, terms, internals)
    }

    /// Backward, telemetry, Adam step: the one place parameters change.
    /// Telemetry reads the gradients before the optimiser consumes them
    /// and draws nothing, so a traced step equals an untraced one.
    pub fn step(
        &mut self,
        tape: &Tape,
        bind: &Binding,
        loss: Var,
        terms: LossTerms,
        internals: Option<&AdamGnnOutput>,
    ) -> f64 {
        let value = tape.value(loss).scalar();
        let mut grads = tape.backward(loss);
        let obs = self
            .obs
            .enabled()
            .then(|| telemetry::collect_step(tape, &self.store, bind, &grads, terms, internals));
        self.store.step(&mut grads, bind, &self.adam);
        self.steps.push(value, obs);
        value
    }

    /// Eval-mode forward of a node model; the output values.
    pub fn infer(&mut self, model: &AnyNodeModel, ctx: &GraphCtx) -> Matrix {
        let tape = Tape::new();
        let bind = self.store.bind(&tape);
        let (out, _) = model.forward(&tape, &bind, ctx, false, &mut self.rng);
        tape.value_cloned(out)
    }
}

/// Optimiser steps folded into one epoch's numbers.
#[derive(Default)]
pub(crate) struct Steps {
    pub count: usize,
    loss_sum: f64,
    /// Loss terms summed over the steps, peak tape bytes maxed, gradient
    /// norms, β and level sizes of the last step; `None` untraced.
    obs: Option<StepObs>,
}

impl Steps {
    fn push(&mut self, loss: f64, obs: Option<StepObs>) {
        self.count += 1;
        self.loss_sum += loss;
        if let Some(mut s) = obs {
            if let Some(prev) = self.obs.take() {
                let sum = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| a + b);
                s.loss_task = sum(prev.loss_task, s.loss_task);
                s.loss_kl = sum(prev.loss_kl, s.loss_kl);
                s.loss_recon = sum(prev.loss_recon, s.loss_recon);
                s.peak_tape_bytes = s.peak_tape_bytes.max(prev.peak_tape_bytes);
            }
            self.obs = Some(s);
        }
    }

    /// Mean loss per step.
    pub fn mean_loss(&self) -> f64 {
        self.loss_sum / self.count.max(1) as f64
    }

    /// The mg-obs epoch record: losses are means per step, like the
    /// trace's loss.
    fn record(self, epoch: usize, val: Option<f64>, train_ns: u64, eval_ns: u64) -> EpochRecord {
        let n = self.count.max(1) as f64;
        let mean = |x: Option<f64>| x.map(|x| x / n);
        let s = self.obs.unwrap_or_default();
        EpochRecord {
            epoch,
            loss_total: self.loss_sum / n,
            loss_task: mean(s.loss_task),
            loss_kl: mean(s.loss_kl),
            loss_recon: mean(s.loss_recon),
            val_metric: val,
            train_ns,
            eval_ns,
            grad_norms: s.grad_norms,
            beta: s.beta,
            level_sizes: s.level_sizes,
            peak_tape_bytes: s.peak_tape_bytes,
        }
    }
}

/// The epoch driver of one training run.
pub(crate) struct EpochLoop<'a> {
    /// Task name of the mg-obs records.
    pub task: &'static str,
    /// Checkpoint identity; a resumed checkpoint must match it.
    pub meta: CkptMeta,
    /// Nodes and edges trained on, for the `run_start` record.
    pub size: (usize, usize),
    pub cfg: &'a TrainConfig,
    pub hooks: &'a CkptHooks<'a>,
}

impl EpochLoop<'_> {
    /// Build the task (its model drawing from the fresh RNG), restore a
    /// checkpoint if resuming, and train to the epoch budget or the
    /// early stop.
    pub fn run<T: EpochTask>(
        self,
        build: impl FnOnce(&mut ParamStore, &mut StdRng) -> T,
    ) -> Result<RunOutcome, MgError> {
        let cfg = self.cfg;
        let (mut l, mut task) = Learner::new(cfg, build);
        let mut st = TrainState {
            next_epoch: 0,
            epochs_run: 0,
            best_val: f64::NEG_INFINITY,
            best_test: 0.0,
            bad_epochs: 0,
        };
        let mut trace = TrainTrace::new();
        let mut epoch_times = Vec::new();
        if let Some(ck) = self.hooks.resume {
            session::check_resume(ck, &self.meta, cfg)?;
            l.store.import_state(&ck.params, ck.adam_t)?;
            l.rng = StdRng::from_state(ck.rng);
            st = ck.state;
            for row in &ck.trace {
                trace.push(row.epoch, row.loss, row.val);
            }
            epoch_times.clone_from(&ck.epoch_times);
        }
        // A checkpoint taken at the early stop must not train further.
        // Stopping takes at least one epoch without improvement, so a task
        // without validation never stops, not even at patience 0.
        let start = if st.bad_epochs >= cfg.patience.max(1) {
            cfg.epochs
        } else {
            st.next_epoch
        };

        l.obs = Trace::from_env(self.task);
        l.obs.run_start(&RunMeta {
            model: self.meta.model.clone(),
            dataset: self.meta.dataset.clone(),
            n_nodes: self.size.0,
            n_edges: self.size.1,
            seed: cfg.seed,
            epochs: cfg.epochs,
            hidden: cfg.hidden,
            levels: cfg.levels,
            gamma: cfg.weights.gamma,
            delta: cfg.weights.delta,
            pooling: cfg.pooling.name().to_string(),
        });
        for epoch in start..cfg.epochs {
            st.epochs_run = epoch + 1;
            let started = Instant::now();
            task.train_epoch(&mut l, epoch)?;
            let train_time = started.elapsed();
            if T::TIMED {
                epoch_times.push(train_time.as_secs_f64());
            }
            let started = Instant::now();
            let val = task.validate(&mut l);
            let eval_ns = started.elapsed().as_nanos() as u64;
            let steps = std::mem::take(&mut l.steps);
            trace.push(epoch, steps.mean_loss(), val.unwrap_or(f64::NAN));
            if l.obs.enabled() {
                let train_ns = train_time.as_nanos() as u64;
                l.obs.epoch(&steps.record(epoch, val, train_ns, eval_ns));
            }
            let stop = match val {
                Some(v) if v > st.best_val => {
                    st.best_val = v;
                    st.best_test = task.test(&mut l);
                    st.bad_epochs = 0;
                    false
                }
                Some(_) => {
                    st.bad_epochs += 1;
                    st.bad_epochs >= cfg.patience
                }
                None => false,
            };
            st.next_epoch = epoch + 1;
            if self.hooks.due(epoch + 1, stop || epoch + 1 == cfg.epochs) {
                let (params, adam_t) = l.store.export_state();
                let rows = trace.records.iter().map(|r| TraceRow {
                    epoch: r.epoch,
                    loss: r.loss,
                    val: r.val,
                });
                let ck = Checkpoint {
                    meta: self.meta.clone(),
                    config: session::to_ckpt_config(cfg),
                    state: st,
                    params,
                    adam_t,
                    rng: l.rng.state(),
                    trace: rows.collect(),
                    epoch_times: epoch_times.clone(),
                    structure: task.structure(&l.store),
                };
                ck.save(self.hooks.path.expect("due() implies a destination"))?;
            }
            if stop {
                break;
            }
        }
        let score = task.finish(&mut l);
        crate::maybe_dump_kernel_stats(self.task);
        l.obs.kernel_stats();
        let (test_metric, val_metric) = match score {
            Some(score) => (score, None),
            None => (st.best_test, Some(st.best_val)),
        };
        l.obs.run_end(st.epochs_run, val_metric, Some(test_metric));
        Ok(RunOutcome {
            test_metric,
            val_metric,
            epochs_run: st.epochs_run,
            trace,
            epoch_seconds: T::TIMED.then(|| mean_std(&epoch_times).0),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{NodeModelKind, RunOutcome, SessionKind, TrainConfig, TrainSession};

    fn ds() -> mg_data::NodeDataset {
        let gen = mg_data::NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 16,
            seed: 3,
        };
        mg_data::make_node_dataset(mg_data::NodeDatasetKind::Cora, &gen)
    }

    /// Full run == (prefix run to a checkpoint, resumed to the budget).
    fn resume_matches(
        kind: SessionKind,
        cfg: TrainConfig,
        prefix: usize,
        name: &str,
    ) -> RunOutcome {
        let ds = ds();
        let path = std::env::temp_dir().join(format!("mg_epoch_loop_{name}.mgck"));
        let full = TrainSession::new(kind, &cfg).run(&ds).unwrap();
        let short = TrainConfig {
            epochs: prefix,
            ..cfg
        };
        let session = TrainSession::new(kind, &short).checkpoint_to(&path);
        session.run(&ds).unwrap();
        let resumed = TrainSession::new(kind, &cfg).resume_from(&path);
        let resumed = resumed.run(&ds).unwrap();
        let _ = std::fs::remove_file(&path);
        let bits = |r: &RunOutcome| -> Vec<_> {
            let rows = r.trace.records.iter();
            rows.map(|e| (e.epoch, e.loss.to_bits(), e.val.to_bits()))
                .collect()
        };
        assert_eq!(bits(&full), bits(&resumed), "{name}");
        assert_eq!(full.test_metric.to_bits(), resumed.test_metric.to_bits());
        assert_eq!(full.epochs_run, resumed.epochs_run);
        full
    }

    fn cfg(patience: usize) -> TrainConfig {
        TrainConfig {
            epochs: 6,
            lr: 0.02,
            patience,
            hidden: 12,
            levels: 2,
            seed: 5,
            ..Default::default()
        }
    }

    /// A task without validation never stops early, not even at
    /// patience 0, and resumes from its checkpoints at patience 0.
    #[test]
    fn unsupervised_task_never_stops_early() {
        let kind = SessionKind::NodeClustering(NodeModelKind::Gcn);
        let full = resume_matches(kind, cfg(0), 2, "clustering");
        assert_eq!(full.epochs_run, 6);
        assert_eq!(full.trace.len(), 6);
    }

    /// At patience 0 a supervised run continues while validation
    /// improves; a checkpoint taken at an improving epoch is no early
    /// stop, so resuming it continues the run too.
    #[test]
    fn patience_zero_checkpoint_resumes_while_improving() {
        let kind = SessionKind::NodeClassification(NodeModelKind::Gcn);
        let full = resume_matches(kind, cfg(0), 1, "patience0");
        assert!(full.epochs_run > 1, "first epochs improve on -inf");
    }
}
