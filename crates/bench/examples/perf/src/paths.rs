//! `paths`: regenerate and score influence paths (Algorithm 1, Eq. 11–14).
//!
//! Set-up builds the harness and trains IRN, SASRec and the Bert4Rec
//! evaluator for one epoch each.  The request stream is the test cases
//! replicated with a fresh seeded objective per replica.  One operation
//! takes the next 32 requests and runs `Harness::generate_paths` (M = 20)
//! for IRN and for Rec2Inf(SASRec, k = 50), then `evaluate_paths` on both
//! sets; throughput counts paths generated and scored.
//!
//! The frameworks, the SASRec backbone, the evaluator's scorer and the
//! item distance are wrapped in adapters that delegate to the wrapped
//! value and, in the traced phase, record a span per call.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use irs_baselines::SequentialScorer;
use irs_bench::harness::Harness;
use irs_core::{generate_influence_path, InfluenceRecommender, NextQuery, Rec2Inf};
use irs_data::split::{sample_objectives, TestCase};
use irs_data::{ItemId, UserId};
use irs_embed::ItemDistance;
use irs_eval::{evaluate_paths, Evaluator, IrsMetrics, PathRecord};

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{probes, sequential, Checks, Ctx, Run};

/// Influence-path budget `M`.
const M: usize = 20;
/// Requests per operation.
const OP_REQUESTS: usize = 32;
/// Rec2Inf candidate-set size (the paper's k).
const K: usize = 50;
/// Training epochs of every model in set-up.
const EPOCHS: usize = 1;
/// Requests per framework checked against the scalar Algorithm 1.
const EQUIVALENCE_REQUESTS: usize = 16;

/// The span that adapter spans hang under (the current operation stage).
#[derive(Default)]
struct Parent(AtomicUsize);

impl Parent {
    fn set(&self, id: Option<SpanId>) {
        self.0.store(id.map_or(0, |i| i + 1), Ordering::Relaxed);
    }

    fn get(&self) -> Option<SpanId> {
        self.0.load(Ordering::Relaxed).checked_sub(1)
    }
}

/// An `InfluenceRecommender` that records a span per batched call.
struct TimedRec<'a, R> {
    inner: &'a R,
    name: &'static str,
    tracer: &'a Tracer,
    parent: &'a Parent,
}

impl<R: InfluenceRecommender> InfluenceRecommender for TimedRec<'_, R> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn next_item(
        &self,
        user: UserId,
        history: &[ItemId],
        objective: ItemId,
        path: &[ItemId],
    ) -> Option<ItemId> {
        self.inner.next_item(user, history, objective, path)
    }

    fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
        let t = Instant::now();
        self.inner.next_items_into(queries, out);
        self.tracer.record(self.name, self.parent.get(), t, Instant::now(), queries.len() as u64);
    }
}

/// A `SequentialScorer` that records a span per batch.
struct TimedScorer<'a, S> {
    inner: S,
    name: &'static str,
    tracer: &'a Tracer,
    parent: &'a Parent,
}

impl<S: SequentialScorer> SequentialScorer for TimedScorer<'_, S> {
    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn score(&self, user: UserId, history: &[ItemId]) -> Vec<f32> {
        self.inner.score(user, history)
    }

    fn score_batch(&self, users: &[UserId], histories: &[&[ItemId]]) -> Vec<Vec<f32>> {
        let t = Instant::now();
        let scores = self.inner.score_batch(users, histories);
        self.tracer.record(self.name, self.parent.get(), t, Instant::now(), users.len() as u64);
        scores
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An `ItemDistance` that counts calls while tracing (a span per call
/// would cost more than the call; `embed.distance_ns` times it instead).
struct CountingDistance<'a, D> {
    inner: D,
    tracer: &'a Tracer,
    calls: AtomicU64,
}

impl<D: ItemDistance> ItemDistance for CountingDistance<'_, D> {
    fn distance(&self, a: ItemId, b: ItemId) -> f32 {
        if self.tracer.is_on() {
            self.calls.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.distance(a, b)
    }
}

/// Test cases replicated with one fresh seeded objective per replica.
struct Requests {
    test: Vec<TestCase>,
    seed: u64,
    replica: u64,
    objectives: Vec<ItemId>,
    next: usize,
}

impl Requests {
    fn take(&mut self, h: &Harness, n: usize) -> (Vec<TestCase>, Vec<ItemId>) {
        let (mut cases, mut objectives) = (Vec::with_capacity(n), Vec::with_capacity(n));
        while cases.len() < n {
            if self.next == self.objectives.len() {
                self.objectives =
                    sample_objectives(&h.dataset, &self.test, 5, self.seed ^ self.replica);
                self.replica += 1;
                self.next = 0;
            }
            cases.push(self.test[self.next].clone());
            objectives.push(self.objectives[self.next]);
            self.next += 1;
        }
        (cases, objectives)
    }
}

/// Path-weighted sums of the paper metrics.
#[derive(Default)]
struct Quality {
    paths: f64,
    sums: [f64; 4],
}

impl Quality {
    fn add(&mut self, m: &IrsMetrics) {
        let n = m.count as f64;
        self.paths += n;
        for (sum, v) in self.sums.iter_mut().zip([m.sr, m.ioi, m.ior, m.log_ppl]) {
            *sum += v * n;
        }
    }

    fn report(&self, run: &mut Run, framework: &str) {
        for (name, sum) in ["sr", "ioi", "ior", "log_ppl"].iter().zip(self.sums) {
            let mean = sum / self.paths;
            run.checks.expect("paths.metrics_finite", mean.is_finite(), || {
                format!("{framework} {name} = {mean}")
            });
            run.detail(format!("paths.{framework}_{name}"), mean);
        }
    }
}

/// The validity checks of one generated path.
fn check_path(checks: &mut Checks, rec: &PathRecord, num_items: usize) {
    let p = &rec.path;
    checks.expect("paths.budget", p.len() <= M, || format!("path of {} items exceeds M", p.len()));
    let fresh = p.iter().enumerate().all(|(i, item)| {
        *item < num_items && !rec.history.contains(item) && !p[..i].contains(item)
    });
    checks.expect("paths.fresh_items", fresh, || {
        format!("path {p:?} repeats an item, reuses its history or leaves the catalogue")
    });
    let stops = p.iter().position(|&i| i == rec.objective).is_none_or(|i| i + 1 == p.len());
    checks.expect("paths.stops_at_objective", stops, || {
        format!("path {p:?} continues past its objective {}", rec.objective)
    });
}

pub fn run(ctx: &Ctx) -> Run {
    // About 50 operations per run: p75 is the highest percentile with ten
    // samples beyond it.
    let mut run = Run::new(0.75, true);
    let (mut h, irn, sasrec, bert) = ctx.set_up(&mut run, |run, span| {
        let mut h = ctx.build_harness(run, span);
        h.config.epochs = EPOCHS;
        let mut irn_cfg = h.irn_config();
        irn_cfg.train.epochs = EPOCHS;
        let irn = ctx.fit(run, "setup.fit.irn", span, || h.train_irn_with(&irn_cfg));
        let sasrec = ctx.fit(run, "setup.fit.sasrec", span, || h.train_sasrec());
        let bert = ctx.fit(run, "setup.fit.bert4rec", span, || h.train_bert4rec());
        (h, irn, sasrec, bert)
    });
    let tracer = &ctx.tracer;
    let num_items = h.dataset.num_items;
    let (irn_stage, rec_stage, eval_stage) =
        (Parent::default(), Parent::default(), Parent::default());
    let irn_rec = TimedRec { inner: &irn, name: "core.irn.next_items", tracer, parent: &irn_stage };
    let distance = CountingDistance { inner: h.distance(), tracer, calls: AtomicU64::new(0) };
    let backbone = TimedScorer {
        inner: &sasrec,
        name: "baselines.sasrec.score_batch",
        tracer,
        parent: &rec_stage,
    };
    let rec2inf_inner = Rec2Inf::new(backbone, &distance, K);
    let rec2inf = TimedRec {
        inner: &rec2inf_inner,
        name: "core.rec2inf.next_items",
        tracer,
        parent: &rec_stage,
    };
    let evaluator = Evaluator::new(TimedScorer {
        inner: &bert,
        name: "eval.score_batch",
        tracer,
        parent: &eval_stage,
    });
    let mut requests = Requests {
        test: h.split.test.clone(),
        seed: ctx.seed,
        replica: 0,
        objectives: Vec::new(),
        next: 0,
    };
    h.config.test_users = 0;

    let mut quality = [Quality::default(), Quality::default()];
    let mut first: Option<[Vec<PathRecord>; 2]> = None;
    let mut checks = Checks::default();
    let mut op = |timed: bool| -> f64 {
        let op_span = tracer.open("paths.op", None);
        let (test, objectives) = requests.take(&h, OP_REQUESTS);
        (h.split.test, h.objectives) = (test, objectives);
        let stage = |name, parent: &Parent, rec: &dyn Fn() -> Vec<PathRecord>| {
            let span = tracer.open(name, op_span);
            parent.set(span);
            let paths = rec();
            tracer.close(span, paths.len() as u64);
            paths
        };
        let irn_paths = stage("core.irn.generate", &irn_stage, &|| h.generate_paths(&irn_rec, M));
        let rec_paths =
            stage("core.rec2inf.generate", &rec_stage, &|| h.generate_paths(&rec2inf, M));
        let span = tracer.open("eval.evaluate", op_span);
        eval_stage.set(span);
        let metrics =
            [evaluate_paths(&evaluator, &irn_paths), evaluate_paths(&evaluator, &rec_paths)];
        let n = irn_paths.len() + rec_paths.len();
        tracer.close(span, n as u64);
        let steps: usize = irn_paths.iter().chain(&rec_paths).map(|r| r.path.len()).sum();
        tracer.close(op_span, steps as u64);
        for rec in irn_paths.iter().chain(&rec_paths) {
            check_path(&mut checks, rec, num_items);
        }
        if timed {
            quality[0].add(&metrics[0]);
            quality[1].add(&metrics[1]);
        }
        first.get_or_insert([irn_paths, rec_paths]);
        n as f64
    };

    let warm = Instant::now();
    op(false);
    run.walls.push(("warmup", warm.elapsed().as_secs_f64()));
    let phase = sequential(ctx, || op(true));
    run.attempted = phase.samples.iter().map(|s| s.units).sum::<f64>() as u64;
    run.phase = Some(phase);
    run.checks.merge(checks);
    quality[0].report(&mut run, "irn");
    quality[1].report(&mut run, "rec2inf");

    // Batched Algorithm 1 must produce exactly the scalar paths.
    let t = Instant::now();
    let [irn_first, rec_first] = first.expect("the warm-up operation ran");
    let frameworks: [(&dyn InfluenceRecommender, &[PathRecord]); 2] =
        [(&irn, &irn_first), (&rec2inf, &rec_first)];
    for (rec, batch) in frameworks {
        for r in batch.iter().take(EQUIVALENCE_REQUESTS) {
            let scalar = generate_influence_path(rec, r.user, &r.history, r.objective, M);
            run.checks.expect("paths.batched_equals_scalar", scalar == r.path, || {
                format!("{}: lockstep {:?} vs scalar {scalar:?}", rec.name(), r.path)
            });
        }
    }
    run.walls.push(("equivalence", t.elapsed().as_secs_f64()));

    if ctx.trace {
        let op = tracer.total("paths.op");
        let share = |name: &str| tracer.total(name).secs / op.secs;
        let irn_calls = tracer.total("core.irn.next_items");
        let rec_calls = tracer.total("core.rec2inf.next_items");
        let evaluated = tracer.total("eval.evaluate").count as f64;
        let sasrec_secs = tracer.total("baselines.sasrec.score_batch").secs;
        let distance_calls = distance.calls.load(Ordering::Relaxed) as f64;
        run.layer("core.irn.rows_per_call", irn_calls.count as f64 / irn_calls.calls as f64);
        run.layer("core.steps_per_path", op.count as f64 / evaluated);
        run.layer("core.irn.share", share("core.irn.generate"));
        run.layer("core.rec2inf.share", share("core.rec2inf.generate"));
        run.layer("baselines.sasrec.share", sasrec_secs / rec_calls.secs);
        run.layer("embed.distance_calls_per_step", distance_calls / rec_calls.count as f64);
        run.layer("eval.share", share("eval.evaluate"));
        run.layer("eval.rows_per_path", tracer.total("eval.score_batch").count as f64 / evaluated);
        // IRN's fit wall per minibatch step in set-up.
        let steps = EPOCHS * h.split.train.len().div_ceil(irn.config().train.batch_size);
        let step_ms = median(&tracer.durations("setup.fit.irn")) * 1e3 / steps as f64;
        run.layer("train.step_ms", step_ms);
        probes::measure(ctx, &mut run, &h, &irn, step_ms);
    }
    run
}
