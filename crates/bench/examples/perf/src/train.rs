//! `train`: IRN minibatch training through the public training step.
//!
//! Set-up builds the standard MovieLens-like harness and initialises IRN
//! (item2vec embeddings, no epochs).  The timed phase then trains it with
//! `IncrementalTrainer::fold`, one minibatch of 16 subsequences per call —
//! the forward/backward/clipped-Adam step `Irn::fit` runs — over seeded
//! shuffles of the training subsequences, epoch after epoch.  One
//! operation is one minibatch step; throughput counts training samples.

use std::time::Instant;

use irs_core::IncrementalTrainer;
use irs_data::split::SubSeq;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::stats::median;
use crate::{probes, sequential, Ctx, Run};

/// Seeded epoch-by-epoch minibatches over the training subsequences.
struct Minibatches<'a> {
    train: &'a [SubSeq],
    order: Vec<usize>,
    next: usize,
    batch: usize,
    rng: rand::rngs::StdRng,
}

impl<'a> Minibatches<'a> {
    fn new(train: &'a [SubSeq], batch: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.shuffle(&mut rng);
        Minibatches { train, order, next: 0, batch, rng }
    }

    /// The next minibatch, and whether it closes an epoch.
    fn next_batch(&mut self) -> (Vec<SubSeq>, bool) {
        let end = (self.next + self.batch).min(self.order.len());
        let batch = self.order[self.next..end].iter().map(|&i| self.train[i].clone()).collect();
        self.next = end;
        let epoch_done = end == self.order.len();
        if epoch_done {
            self.next = 0;
            self.order.shuffle(&mut self.rng);
        }
        (batch, epoch_done)
    }
}

pub fn run(ctx: &Ctx) -> Run {
    let mut run = Run::new(0.95, true);
    let (h, irn) = ctx.set_up(&mut run, |run, span| {
        let h = ctx.build_harness(run, span);
        let mut cfg = h.irn_config();
        cfg.train.epochs = 0;
        let irn = ctx.fit(run, "setup.fit.irn", span, || h.train_irn_with(&cfg));
        (h, irn)
    });
    let batch = irn.config().train.batch_size;
    let mut trainer = IncrementalTrainer::new(irn);
    // Smoke runs train on a slice so that a one-second run sees epochs end.
    let train = &h.split.train[..if ctx.smoke { 8 * batch } else { h.split.train.len() }];
    let mut batches = Minibatches::new(train, batch, ctx.seed ^ 0x7a1);
    // Mean minibatch loss of every completed epoch.
    let mut epoch_losses: Vec<f64> = Vec::new();
    let (mut epoch_sum, mut epoch_steps) = (0.0f64, 0u64);
    let mut nonfinite = 0u64;
    let mut step = || -> f64 {
        let (seqs, epoch_done) = batches.next_batch();
        let t = Instant::now();
        let loss = trainer.fold(&seqs);
        ctx.tracer.record("train.step", None, t, Instant::now(), seqs.len() as u64);
        nonfinite += u64::from(!loss.is_finite());
        epoch_sum += f64::from(loss);
        epoch_steps += 1;
        if epoch_done {
            epoch_losses.push(epoch_sum / epoch_steps as f64);
            (epoch_sum, epoch_steps) = (0.0, 0);
        }
        seqs.len() as f64
    };

    // Untimed warm-up: the first steps record the tape.
    let warm = Instant::now();
    for _ in 0..2 {
        step();
    }
    run.walls.push(("warmup", warm.elapsed().as_secs_f64()));
    run.phase = Some(sequential(ctx, &mut step));

    let steps = run.operations() as u64;
    run.attempted = steps;
    run.failed = nonfinite;
    run.checks.expect("train.losses_finite", nonfinite == 0, || {
        format!("{nonfinite} of {steps} minibatch losses were not finite")
    });
    let falls = epoch_losses.len() >= 2 && epoch_losses.last() < epoch_losses.first();
    run.checks.expect("train.loss_falls", falls, || {
        format!("epoch mean losses {epoch_losses:?} do not fall from the first to the last")
    });
    for (i, loss) in epoch_losses.iter().enumerate() {
        run.detail(format!("train.epoch{i}_loss"), *loss);
    }
    run.detail("train.subsequences", h.split.train.len() as f64);

    if ctx.trace {
        let step_ms = median(&ctx.tracer.durations("train.step")) * 1e3;
        run.layer("train.step_ms", step_ms);
        probes::measure(ctx, &mut run, &h, trainer.model(), step_ms);
    }
    run
}
