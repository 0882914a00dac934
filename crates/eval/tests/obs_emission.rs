//! End-to-end check of the mg-obs wiring: a traced node-classification
//! run must (a) be bit-identical to an untraced run — telemetry is pure
//! observation — and (b) emit a schema-valid JSONL trace with one
//! `EpochRecord` per epoch carrying all three loss terms, flyback-β
//! stats, per-level hyper-node counts and per-parameter gradient norms.
//!
//! These tests live in their own test binary because `MG_TRACE` is
//! process global: the library tests (which never set it) cannot race
//! with them, and the tests here serialise on [`ENV_LOCK`] so they
//! cannot race with each other.

use mg_data::{
    make_graph_dataset, make_node_dataset, GraphDatasetKind, GraphGenConfig, NodeDatasetKind,
    NodeGenConfig,
};
use mg_eval::{
    GraphModelKind, MinibatchConfig, NodeModelKind, SessionKind, TrainConfig, TrainSession,
};
use mg_obs::{validate_trace, Json};
use std::sync::Mutex;

/// Guards every MG_TRACE mutation in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny_ds() -> mg_data::NodeDataset {
    make_node_dataset(
        NodeDatasetKind::Cora,
        &NodeGenConfig {
            scale: 0.05,
            max_feat_dim: 32,
            seed: 11,
        },
    )
}

fn fast_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 6,
        lr: 0.02,
        patience: 6,
        hidden: 16,
        levels: 2,
        seed: 1,
        ..Default::default()
    }
}

#[test]
fn traced_run_is_bitwise_identical_and_emits_valid_jsonl() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();

    let session = || {
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .run(&ds)
    };

    // Baseline: MG_TRACE unset — telemetry fully disabled.
    std::env::remove_var("MG_TRACE");
    let base_res = session().unwrap();

    // Traced run into a temp file.
    let path = std::env::temp_dir().join(format!("mg_obs_emission_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let obs_res = session().unwrap();
    std::env::remove_var("MG_TRACE");

    // (a) Telemetry must not perturb the computation: bitwise equality.
    assert_eq!(
        base_res.trace, obs_res.trace,
        "tracing changed the training run"
    );
    assert_eq!(
        base_res.test_metric.to_bits(),
        obs_res.test_metric.to_bits()
    );
    assert_eq!(
        base_res.val_metric.unwrap().to_bits(),
        obs_res.val_metric.unwrap().to_bits()
    );
    assert_eq!(base_res.epochs_run, obs_res.epochs_run);

    // (b) The emitted trace parses and matches the schema.
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.run_starts, 1);
    assert_eq!(report.run_ends, 1);
    assert_eq!(report.kernel_stats, 1);
    assert_eq!(
        report.epochs, obs_res.epochs_run,
        "one EpochRecord per epoch actually run"
    );

    // Spot-check the payload of each epoch record: the AdamGNN composite
    // loss decomposes into all three terms, β stats and hyper-node
    // counts are present (levels=2 ⇒ 2 pooling levels), and every
    // parameter reports a gradient norm.
    let mut saw_epoch = false;
    for line in text.lines() {
        let v = Json::parse(line).expect("line parses");
        if v.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        saw_epoch = true;
        assert_eq!(
            v.get("task").and_then(Json::as_str),
            Some("node_classification")
        );
        for term in ["loss_total", "loss_task", "loss_kl", "loss_recon"] {
            let x = v
                .get(term)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("epoch record missing finite {term}: {line}"));
            assert!(x.is_finite());
        }
        let beta = v.get("beta").expect("beta stats present");
        assert!(beta
            .get("mean")
            .and_then(Json::as_arr)
            .is_some_and(|a| !a.is_empty()));
        let sizes = v
            .get("level_sizes")
            .and_then(Json::as_arr)
            .expect("level_sizes present");
        assert_eq!(sizes.len(), cfg.levels, "one hyper-node count per level");
        let norms = v
            .get("grad_norms")
            .and_then(Json::as_arr)
            .expect("grad_norms present");
        assert!(!norms.is_empty(), "per-parameter gradient norms recorded");
    }
    assert!(saw_epoch);

    let _ = std::fs::remove_file(&path);
}

/// Every traced trainer must close its trace: exactly one run_start,
/// one kernel_stats and one run_end per run (a table sweep appending
/// several runs to one file stays well-formed). Regression for the LP
/// trainer, which once emitted epochs but never run_end.
#[test]
fn all_trainers_emit_complete_run_records() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();
    let path = std::env::temp_dir().join(format!("mg_obs_complete_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let nc = TrainSession::new(
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        &cfg,
    )
    .run(&ds)
    .unwrap();
    let lp = TrainSession::new(SessionKind::LinkPrediction(NodeModelKind::AdamGnn), &cfg)
        .run(&ds)
        .unwrap();
    let cl = TrainSession::new(SessionKind::NodeClustering(NodeModelKind::Gcn), &cfg)
        .run(&ds)
        .unwrap();
    std::env::remove_var("MG_TRACE");
    assert!(cl.test_metric >= 0.0);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.run_starts, 3, "one run_start per run");
    assert_eq!(report.kernel_stats, 3, "one kernel_stats per run");
    assert_eq!(report.run_ends, 3, "one run_end per run");
    assert_eq!(report.epochs, nc.epochs_run + lp.epochs_run + cfg.epochs);

    let _ = std::fs::remove_file(&path);
}

/// Run `session` once untraced and once traced into a fresh file; return
/// both outcomes and the trace text.
fn untraced_and_traced(
    name: &str,
    session: impl Fn() -> mg_eval::RunOutcome,
) -> (mg_eval::RunOutcome, mg_eval::RunOutcome, String) {
    std::env::remove_var("MG_TRACE");
    let base = session();
    let path = std::env::temp_dir().join(format!("mg_obs_{name}_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("MG_TRACE", &path);
    let traced = session();
    std::env::remove_var("MG_TRACE");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    (base, traced, text)
}

/// Bitwise equality of everything deterministic in two outcomes.
fn assert_same_run(a: &mg_eval::RunOutcome, b: &mg_eval::RunOutcome, what: &str) {
    assert_eq!(a.trace, b.trace, "{what}: tracing changed the run");
    assert_eq!(a.test_metric.to_bits(), b.test_metric.to_bits(), "{what}");
    assert_eq!(
        a.val_metric.map(f64::to_bits),
        b.val_metric.map(f64::to_bits),
        "{what}"
    );
    assert_eq!(a.epochs_run, b.epochs_run, "{what}");
}

fn sampled_mb() -> MinibatchConfig {
    MinibatchConfig {
        batch_size: 32,
        fanouts: vec![6, 6],
    }
}

/// Telemetry is pure observation on the sampled trainer too.
#[test]
fn traced_sampled_run_is_bitwise_identical() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();
    let (base, traced, text) = untraced_and_traced("sampled_nc", || {
        TrainSession::new(
            SessionKind::NodeClassification(NodeModelKind::AdamGnn),
            &cfg,
        )
        .minibatch(sampled_mb())
        .run(&ds)
        .unwrap()
    });
    assert_same_run(&base, &traced, "sampled node classification");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.epochs, traced.epochs_run);
    assert!(report.sample_steps >= traced.epochs_run);
}

/// Telemetry is pure observation on the graph-classification trainer.
#[test]
fn traced_graph_classification_is_bitwise_identical() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = make_graph_dataset(
        GraphDatasetKind::Mutagenicity,
        &GraphGenConfig {
            scale: 0.03,
            max_nodes: 20,
            seed: 2,
        },
    );
    let cfg = TrainConfig {
        epochs: 3,
        patience: 3,
        ..fast_cfg()
    };
    let (base, traced, text) = untraced_and_traced("gc", || {
        TrainSession::new(
            SessionKind::GraphClassification(GraphModelKind::AdamGnn),
            &cfg,
        )
        .run(&ds)
        .unwrap()
    });
    assert_same_run(&base, &traced, "graph classification");
    let report = validate_trace(&text).expect("trace validates");
    assert_eq!(report.epochs, traced.epochs_run);
}

/// Sampled epochs report the same loss decomposition, gradient norms
/// and flyback-β statistics as full-batch epochs, for node
/// classification and link prediction alike.
#[test]
fn sampled_epoch_records_carry_the_loss_decomposition() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = tiny_ds();
    let cfg = fast_cfg();
    for kind in [
        SessionKind::NodeClassification(NodeModelKind::AdamGnn),
        SessionKind::LinkPrediction(NodeModelKind::AdamGnn),
    ] {
        let (_, traced, text) = untraced_and_traced("sampled_terms", || {
            TrainSession::new(kind, &cfg)
                .minibatch(sampled_mb())
                .run(&ds)
                .unwrap()
        });
        let report = validate_trace(&text).expect("trace validates");
        assert_eq!(report.epochs, traced.epochs_run);
        let mut epochs = 0;
        for line in text.lines() {
            let v = Json::parse(line).expect("line parses");
            if v.get("kind").and_then(Json::as_str) != Some("epoch") {
                continue;
            }
            epochs += 1;
            for term in ["loss_total", "loss_task", "loss_kl", "loss_recon"] {
                let x = v.get(term).and_then(Json::as_f64).unwrap_or_else(|| {
                    panic!("{}: epoch record missing {term}: {line}", kind.task_name())
                });
                assert!(x.is_finite());
            }
            assert!(
                v.get("grad_norms")
                    .and_then(Json::as_arr)
                    .is_some_and(|a| !a.is_empty()),
                "{}: no gradient norms: {line}",
                kind.task_name()
            );
            assert!(
                v.get("beta")
                    .and_then(|b| b.get("mean"))
                    .and_then(Json::as_arr)
                    .is_some_and(|a| !a.is_empty()),
                "{}: no flyback-β stats: {line}",
                kind.task_name()
            );
        }
        assert_eq!(epochs, traced.epochs_run);
    }
}
