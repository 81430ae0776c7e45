//! Batched vs scalar inference throughput — the headline measurement of
//! the batched inference engine.
//!
//! `irn/score_next_scalar_x16` runs 16 independent scalar forwards (the
//! pre-batching hot path of every experiment table: one forward per user
//! per path step); `irn/score_next_batch_16` answers the same 16 queries
//! in one `[16, T]` forward.  The ratio of the two medians is printed as
//! `speedup`, and `IRS_BENCH_ASSERT=1` turns the ≥3× acceptance threshold
//! into a hard failure for local verification.
//!
//! CI runs this in smoke mode (`CRITERION_SAMPLES=5`: five samples per
//! entry) with `CRITERION_JSON=BENCH_inference.json` so the perf trajectory
//! accumulates as a build artifact.

use criterion::{criterion_group, criterion_main, Criterion};
use irs_baselines::SequentialScorer;
use irs_bench::harness::{DatasetKind, Harness, HarnessConfig};
use irs_data::ItemId;
use std::hint::black_box;

const BATCH: usize = 16;

fn bench_irn_inference(c: &mut Criterion) {
    let h = Harness::build(HarnessConfig::quick(DatasetKind::LastfmLike));
    // Timing is weight-independent; one epoch keeps setup short.
    let mut cfg = h.irn_config();
    cfg.train.epochs = 1;
    let irn = h.train_irn_with(&cfg);

    let (test, objectives) = h.test_slice();
    assert!(test.len() >= BATCH, "quick preset must provide ≥{BATCH} test users");
    let users: Vec<usize> = test[..BATCH].iter().map(|tc| tc.user).collect();
    let contexts: Vec<&[ItemId]> = test[..BATCH].iter().map(|tc| tc.history.as_slice()).collect();
    let objs: Vec<ItemId> = objectives[..BATCH].to_vec();

    let mut group = c.benchmark_group("irn");
    group.sample_size(10);
    group.bench_function(format!("score_next_scalar_x{BATCH}"), |b| {
        b.iter(|| {
            for i in 0..BATCH {
                black_box(irn.score_next(users[i], contexts[i], objs[i]));
            }
        })
    });
    group.bench_function(format!("score_next_batch_{BATCH}"), |b| {
        b.iter(|| black_box(irn.score_next_batch(&users, &contexts, &objs)))
    });
    group.finish();

    report_speedup(
        &format!("irn/score_next_scalar_x{BATCH}"),
        &format!("irn/score_next_batch_{BATCH}"),
        3.0,
    );
}

/// Scalar-x16 vs batch-16 for one evaluator/baseline model.
fn bench_scorer<S: SequentialScorer>(
    c: &mut Criterion,
    name: &str,
    scorer: &S,
    users: &[usize],
    contexts: &[&[ItemId]],
    min_speedup: f64,
) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    group.bench_function(format!("score_scalar_x{BATCH}"), |b| {
        b.iter(|| {
            for i in 0..BATCH {
                black_box(scorer.score(users[i], contexts[i]));
            }
        })
    });
    group.bench_function(format!("score_batch_{BATCH}"), |b| {
        b.iter(|| black_box(scorer.score_batch(users, contexts)))
    });
    group.finish();

    report_speedup(
        &format!("{name}/score_scalar_x{BATCH}"),
        &format!("{name}/score_batch_{BATCH}"),
        min_speedup,
    );
}

fn bench_evaluator_inference(c: &mut Criterion) {
    let h = Harness::build(HarnessConfig::quick(DatasetKind::LastfmLike));
    let (test, _) = h.test_slice();
    let users: Vec<usize> = test[..BATCH].iter().map(|tc| tc.user).collect();
    let contexts: Vec<&[ItemId]> = test[..BATCH].iter().map(|tc| tc.history.as_slice()).collect();

    // Transformer family: batched tape-free engine vs scalar graph path.
    let bert = h.train_bert4rec();
    bench_scorer(c, "bert4rec", &bert, &users, &contexts, 3.0);
    // RNN family: fused-gate tape-free recurrence vs scalar graph path.
    let gru = h.train_gru4rec();
    bench_scorer(c, "gru4rec", &gru, &users, &contexts, 1.5);
    // CNN family: value-level convolutional pass vs scalar graph path.
    let caser = h.train_caser();
    bench_scorer(c, "caser", &caser, &users, &contexts, 1.5);
}

/// Print (and optionally assert) the scalar/batched throughput ratio from
/// the recorded medians.
fn report_speedup(scalar_label: &str, batched_label: &str, min_speedup: f64) {
    let results = criterion::recorded_results();
    let find = |label: &str| {
        results.iter().find(|(l, _)| l == label).map(|&(_, ns)| ns).unwrap_or(f64::NAN)
    };
    let scalar = find(scalar_label);
    let batched = find(batched_label);
    let speedup = scalar / batched;
    println!("bench: {batched_label:<40} speedup {speedup:.2}x over scalar");
    if std::env::var("IRS_BENCH_ASSERT").as_deref() == Ok("1") {
        assert!(
            speedup >= min_speedup,
            "batched inference must be ≥{min_speedup}x scalar at batch {BATCH}, got {speedup:.2}x"
        );
    }
}

criterion_group!(benches, bench_irn_inference, bench_evaluator_inference);
criterion_main!(benches);
