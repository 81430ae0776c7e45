//! Online learning: feedback replay buffer + background trainer.
//!
//! Closing the loop the paper's interactive protocol implies: the HTTP
//! frontend logs every `(user, context, item, accepted)` feedback event
//! into a bounded [`ReplayBuffer`]; a background trainer thread
//! periodically folds the buffer into incremental training steps on a
//! private *student* model and publishes the result to the canary arm of
//! the [`SnapshotRegistry`].  Live traffic assigned to the canary then
//! scores against the freshly-trained weights, and an operator (or the
//! CI canary pipeline) promotes or rolls back on the per-arm metrics.
//!
//! ## Robustness contract
//!
//! A panicking or slow trainer can never wedge or corrupt serving:
//!
//! * the trainer owns a **cloned parameter set** (the student) — the
//!   served snapshots are immutable, and a publish is one atomic
//!   registry slot replacement of a *freshly deserialised* model;
//! * every tick runs under `catch_unwind`; a panic increments a visible
//!   counter, marks the trainer dead, wakes any force-publish waiters
//!   with an error, and leaves the server serving static snapshots;
//! * the request path never waits on the trainer — its only shared
//!   state is the replay buffer's mutex, held for a push or a bounded
//!   copy;
//! * shutdown joins the trainer with a bounded wait and *detaches* a
//!   stalled thread instead of hanging the process.
//!
//! The trait seam ([`OnlineLearner`]) exists so tests can inject
//! deliberately panicking or stalling learners; [`IrnOnlineLearner`] is
//! the production implementation around
//! [`irs_core::IncrementalTrainer`].  Learners are built *inside* the
//! trainer thread from a `Send` factory (the tape a trainer records is
//! not `Send`; the model it is built from is).

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use irs_core::{IncrementalTrainer, Irn};
use irs_data::split::SubSeq;
use irs_obs::{log_error, log_warn};

use crate::snapshot::{ModelSnapshot, SnapshotRegistry, CANARY_ARM};

/// One logged feedback interaction, exactly what `POST
/// /v1/session/{id}/feedback` observed.
#[derive(Debug, Clone)]
pub struct FeedbackEvent {
    /// The session's user.
    pub user: usize,
    /// The user's context *at proposal time*: history ⊕ accepted path.
    pub context: Vec<usize>,
    /// The proposed item being reacted to.
    pub item: usize,
    /// Whether the user accepted it.
    pub accepted: bool,
}

/// Bounded drop-oldest event buffer with replay semantics: events stay
/// resident (and keep being folded on later ticks) until displaced by
/// newer ones, so a small burst of feedback is revisited across several
/// training ticks instead of being consumed once.
pub struct ReplayBuffer {
    inner: Mutex<VecDeque<FeedbackEvent>>,
    cap: usize,
    logged: AtomicU64,
    dropped: AtomicU64,
}

impl ReplayBuffer {
    /// A buffer holding at most `cap` events (at least 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        ReplayBuffer {
            inner: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap,
            logged: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Log one event, dropping the oldest beyond the cap.
    pub fn push(&self, event: FeedbackEvent) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.len() >= self.cap {
            inner.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.push_back(event);
        self.logged.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current contents into `out` (cleared first).  A bounded
    /// clone under the lock — the trainer folds from the copy so the
    /// request path never contends with a forward/backward pass.
    pub fn snapshot_into(&self, out: &mut Vec<FeedbackEvent>) {
        out.clear();
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        out.extend(inner.iter().cloned());
    }

    /// Events currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events logged since startup.
    pub fn logged(&self) -> u64 {
        self.logged.load(Ordering::Relaxed)
    }

    /// Events displaced by the cap since startup.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// What one fold pass consumed and produced.
#[derive(Debug, Clone, Copy)]
pub struct FoldOutcome {
    /// Training examples actually used (accepted events long enough to
    /// carry a target).
    pub examples: usize,
    /// Mean minibatch loss (`NaN` when nothing was usable).
    pub loss: f32,
}

/// The trainer thread's model seam: fold events into the student, and
/// publish the student as a servable snapshot.  Implemented by
/// [`IrnOnlineLearner`] in production and by panicking/stalling fakes in
/// the fault-injection tests.
pub trait OnlineLearner {
    /// Fold one pass over `events` into the student.
    fn fold(&mut self, events: &[FeedbackEvent]) -> FoldOutcome;
    /// Clone the student's current parameters into a fresh servable
    /// snapshot.
    fn publish(&mut self) -> io::Result<ModelSnapshot>;
}

/// Production learner: an [`IncrementalTrainer`] around a student
/// [`Irn`], publishing via the IRSP writer (serialise → deserialise a
/// fresh model, so the served snapshot shares no mutable state with the
/// student).
pub struct IrnOnlineLearner {
    trainer: IncrementalTrainer,
    published: u64,
}

impl IrnOnlineLearner {
    /// Wrap a student model (typically loaded from the same IRSP file
    /// the server booted from).
    pub fn new(student: Irn) -> Self {
        IrnOnlineLearner { trainer: IncrementalTrainer::new(student), published: 0 }
    }
}

impl OnlineLearner for IrnOnlineLearner {
    fn fold(&mut self, events: &[FeedbackEvent]) -> FoldOutcome {
        let max_len = self.trainer.model().config().max_len;
        // Accepted events become training subsequences "context ⊕ item":
        // the accepted item takes the objective slot, so the student
        // learns paths that lead to items this user actually took.
        // Rejections are logged (they shape the acceptance-rate metric)
        // but not trained on — there is no paper objective for them.
        let seqs: Vec<SubSeq> = events
            .iter()
            .filter(|e| e.accepted)
            .map(|e| {
                let mut items = Vec::with_capacity(e.context.len() + 1);
                items.extend_from_slice(&e.context);
                items.push(e.item);
                if items.len() > max_len {
                    items.drain(..items.len() - max_len);
                }
                SubSeq { user: e.user, items }
            })
            .filter(|s| s.items.len() >= 2)
            .collect();
        if seqs.is_empty() {
            return FoldOutcome { examples: 0, loss: f32::NAN };
        }
        let loss = self.trainer.fold(&seqs);
        FoldOutcome { examples: seqs.len(), loss }
    }

    fn publish(&mut self) -> io::Result<ModelSnapshot> {
        let bytes = self.trainer.snapshot_bytes()?;
        let params = irs_nn::irsp_summary(&bytes[..])?;
        let student = self.trainer.model();
        let model =
            Irn::load(&bytes[..], student.num_items(), student.num_users(), student.config())?;
        self.published += 1;
        Ok(ModelSnapshot {
            label: format!("online-{}", self.published),
            model: Box::new(model),
            params,
            num_items: Some(student.num_items()),
        })
    }
}

/// Online-trainer knobs (`irs serve --online-train --publish-every-s
/// --replay-cap`).
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Cadence of timed fold+publish ticks.
    pub publish_every: Duration,
    /// Replay-buffer capacity in events.
    pub replay_cap: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { publish_every: Duration::from_secs(60), replay_cap: 4096 }
    }
}

/// Monotonic trainer counters, shared with `/v1/stats`.
#[derive(Default)]
struct OnlineCounters {
    folds: AtomicU64,
    examples: AtomicU64,
    publishes: AtomicU64,
    last_loss_bits: AtomicU32,
    trainer_panics: AtomicU64,
    alive: AtomicBool,
}

/// A point-in-time copy of the online-learning counters.
#[derive(Debug, Clone, Copy)]
pub struct OnlineStatsView {
    /// Feedback events logged to the replay buffer.
    pub events_logged: u64,
    /// Events displaced by the replay cap.
    pub events_dropped: u64,
    /// Events currently resident.
    pub replay_len: usize,
    /// Fold passes completed.
    pub folds: u64,
    /// Training examples consumed across all folds.
    pub examples: u64,
    /// Snapshots published to the canary arm.
    pub publishes: u64,
    /// Mean loss of the last fold (`NaN` before the first).
    pub last_loss: f32,
    /// Trainer panics caught (each one kills the trainer; serving
    /// degrades to the static snapshots).
    pub trainer_panics: u64,
    /// Whether the trainer thread is still running.
    pub trainer_alive: bool,
}

/// Why a forced publish did not return a fresh version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcePublishError {
    /// The trainer thread has died (panicked or exited).
    Dead,
    /// The trainer did not complete a tick within the timeout (stalled
    /// or severely backlogged).
    Timeout,
}

/// Force-publish handshake + shutdown signalling between the HTTP
/// frontend and the trainer thread.
struct Control {
    state: Mutex<ControlState>,
    signal: Condvar,
}

#[derive(Default)]
struct ControlState {
    /// Force-publish tickets issued.
    pending: u64,
    /// Tickets the trainer has served.
    served: u64,
    /// Canary version after the last served forced tick.
    last_version: u64,
    stop: bool,
    dead: bool,
}

/// Handle on a running online trainer: log events through
/// [`OnlineHandle::replay`], force a publish tick, read counters, stop.
pub struct OnlineHandle {
    replay: Arc<ReplayBuffer>,
    counters: Arc<OnlineCounters>,
    control: Arc<Control>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl OnlineHandle {
    /// Spawn the trainer thread.  `factory` builds the learner *on* the
    /// trainer thread (learners need not be `Send`; the factory must
    /// be).  A panicking factory counts as a trainer panic: the server
    /// keeps serving statically.
    pub fn start<F>(registry: Arc<SnapshotRegistry>, config: OnlineConfig, factory: F) -> Self
    where
        F: FnOnce() -> Box<dyn OnlineLearner> + Send + 'static,
    {
        let replay = Arc::new(ReplayBuffer::new(config.replay_cap));
        let counters = Arc::new(OnlineCounters {
            last_loss_bits: AtomicU32::new(f32::NAN.to_bits()),
            alive: AtomicBool::new(true),
            ..Default::default()
        });
        let control = Arc::new(Control {
            state: Mutex::new(ControlState::default()),
            signal: Condvar::new(),
        });
        let thread = {
            let replay = replay.clone();
            let counters = counters.clone();
            let control = control.clone();
            std::thread::Builder::new()
                .name("irs-online-trainer".into())
                .spawn(move || {
                    trainer_loop(&registry, &replay, &counters, &control, &config, factory)
                })
                .expect("spawn online trainer")
        };
        OnlineHandle { replay, counters, control, thread: Mutex::new(Some(thread)) }
    }

    /// The buffer the frontend logs feedback events into.
    pub fn replay(&self) -> &Arc<ReplayBuffer> {
        &self.replay
    }

    /// Ask the trainer for an immediate fold+publish tick and wait (up
    /// to `timeout`) for the new canary version.  The wait parks on a
    /// condvar — a stalled trainer costs the caller the timeout, never
    /// a wedge.
    pub fn force_publish(&self, timeout: Duration) -> Result<u64, ForcePublishError> {
        let mut state = self.control.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.dead {
            return Err(ForcePublishError::Dead);
        }
        state.pending += 1;
        let ticket = state.pending;
        self.control.signal.notify_all();
        let (state, _) = self
            .control
            .signal
            .wait_timeout_while(state, timeout, |s| s.served < ticket && !s.dead)
            .unwrap_or_else(PoisonError::into_inner);
        if state.served >= ticket {
            Ok(state.last_version)
        } else if state.dead {
            Err(ForcePublishError::Dead)
        } else {
            Err(ForcePublishError::Timeout)
        }
    }

    /// A point-in-time copy of every online-learning counter.
    pub fn stats(&self) -> OnlineStatsView {
        OnlineStatsView {
            events_logged: self.replay.logged(),
            events_dropped: self.replay.dropped(),
            replay_len: self.replay.len(),
            folds: self.counters.folds.load(Ordering::Relaxed),
            examples: self.counters.examples.load(Ordering::Relaxed),
            publishes: self.counters.publishes.load(Ordering::Relaxed),
            last_loss: f32::from_bits(self.counters.last_loss_bits.load(Ordering::Relaxed)),
            trainer_panics: self.counters.trainer_panics.load(Ordering::Relaxed),
            trainer_alive: self.counters.alive.load(Ordering::Relaxed),
        }
    }

    /// Signal the trainer to stop and join it with a bounded wait; a
    /// thread stalled inside a learner is detached (the robustness
    /// contract: shutdown must not hang on a stuck trainer).  Idempotent.
    pub fn stop(&self) {
        {
            let mut state = self.control.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.stop = true;
        }
        self.control.signal.notify_all();
        let Some(thread) = self.thread.lock().unwrap_or_else(PoisonError::into_inner).take() else {
            return;
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while !thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if thread.is_finished() {
            let _ = thread.join();
        } else {
            log_warn!("online", "trainer stalled at shutdown; detaching it");
            drop(thread); // detach
        }
    }
}

impl Drop for OnlineHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn trainer_loop<F>(
    registry: &SnapshotRegistry,
    replay: &ReplayBuffer,
    counters: &OnlineCounters,
    control: &Control,
    config: &OnlineConfig,
    factory: F,
) where
    F: FnOnce() -> Box<dyn OnlineLearner>,
{
    let die = |panics: &AtomicU64, bump: bool| {
        if bump {
            panics.fetch_add(1, Ordering::Relaxed);
        }
        counters.alive.store(false, Ordering::Relaxed);
        let mut state = control.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.dead = true;
        control.signal.notify_all();
    };

    // The learner is built on this thread (its training tape is not
    // `Send`); a factory panic — e.g. a corrupt model file — degrades to
    // static serving like any other trainer panic.
    let mut learner = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(factory)) {
        Ok(l) => l,
        Err(_) => {
            log_error!("online", "learner construction panicked; serving statically");
            die(&counters.trainer_panics, true);
            return;
        }
    };

    let mut staged: Vec<FeedbackEvent> = Vec::new();
    // Whether a fold has moved the student since the last publish —
    // timed ticks skip publishing otherwise, so an idle server does not
    // churn canary versions (and cache generations) republishing
    // identical weights.
    let mut dirty = false;
    loop {
        let forced_up_to = {
            let state = control.state.lock().unwrap_or_else(PoisonError::into_inner);
            let (state, _) = control
                .signal
                .wait_timeout_while(state, config.publish_every, |s| {
                    !s.stop && s.pending <= s.served
                })
                .unwrap_or_else(PoisonError::into_inner);
            if state.stop {
                break;
            }
            (state.pending > state.served).then_some(state.pending)
        };
        let forced = forced_up_to.is_some();
        replay.snapshot_into(&mut staged);
        let tick = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !staged.is_empty() {
                let outcome = learner.fold(&staged);
                counters.folds.fetch_add(1, Ordering::Relaxed);
                counters.examples.fetch_add(outcome.examples as u64, Ordering::Relaxed);
                counters.last_loss_bits.store(outcome.loss.to_bits(), Ordering::Relaxed);
                if outcome.examples > 0 {
                    dirty = true;
                }
            }
            if dirty || forced {
                match learner.publish() {
                    Ok(snapshot) => {
                        let version = registry.publish(CANARY_ARM, snapshot);
                        counters.publishes.fetch_add(1, Ordering::Relaxed);
                        dirty = false;
                        Some(version)
                    }
                    Err(e) => {
                        log_error!("online", "publish failed: {e}");
                        None
                    }
                }
            } else {
                None
            }
        }));
        match tick {
            Ok(published) => {
                if let Some(ticket) = forced_up_to {
                    let mut state = control.state.lock().unwrap_or_else(PoisonError::into_inner);
                    state.served = ticket;
                    state.last_version =
                        published.unwrap_or_else(|| registry.arm_version(CANARY_ARM));
                    control.signal.notify_all();
                }
            }
            Err(_) => {
                log_error!("online", "trainer panicked; serving statically from here on");
                die(&counters.trainer_panics, true);
                return;
            }
        }
    }
    die(&counters.trainer_panics, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::InfluenceRecommender;
    use irs_data::{ItemId, UserId};

    struct Fixed(ItemId);
    impl InfluenceRecommender for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn next_item(
            &self,
            _user: UserId,
            _history: &[ItemId],
            _objective: ItemId,
            _path: &[ItemId],
        ) -> Option<ItemId> {
            Some(self.0)
        }
    }

    fn registry() -> Arc<SnapshotRegistry> {
        Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory("base", Box::new(Fixed(1)))))
    }

    fn event(accepted: bool) -> FeedbackEvent {
        FeedbackEvent { user: 0, context: vec![1, 2], item: 3, accepted }
    }

    /// Counts folds/publishes; versions its published snapshots.
    struct CountingLearner {
        folds: usize,
    }
    impl OnlineLearner for CountingLearner {
        fn fold(&mut self, events: &[FeedbackEvent]) -> FoldOutcome {
            self.folds += 1;
            FoldOutcome { examples: events.iter().filter(|e| e.accepted).count(), loss: 0.5 }
        }
        fn publish(&mut self) -> io::Result<ModelSnapshot> {
            Ok(ModelSnapshot::in_memory(format!("fold-{}", self.folds), Box::new(Fixed(7))))
        }
    }

    struct PanickingLearner;
    impl OnlineLearner for PanickingLearner {
        fn fold(&mut self, _events: &[FeedbackEvent]) -> FoldOutcome {
            panic!("injected trainer fault");
        }
        fn publish(&mut self) -> io::Result<ModelSnapshot> {
            unreachable!("fold panics first");
        }
    }

    #[test]
    fn replay_buffer_drops_oldest_beyond_cap() {
        let buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(FeedbackEvent { user: i, context: vec![], item: i, accepted: true });
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.logged(), 5);
        assert_eq!(buf.dropped(), 2);
        let mut out = Vec::new();
        buf.snapshot_into(&mut out);
        assert_eq!(out.iter().map(|e| e.item).collect::<Vec<_>>(), vec![2, 3, 4]);
        // Snapshot copies; the buffer keeps its events (replay semantics).
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn force_publish_folds_and_publishes_to_the_canary() {
        let reg = registry();
        let handle = OnlineHandle::start(
            reg.clone(),
            OnlineConfig { publish_every: Duration::from_secs(3600), ..Default::default() },
            || Box::new(CountingLearner { folds: 0 }),
        );
        handle.replay().push(event(true));
        handle.replay().push(event(false));
        let v = handle.force_publish(Duration::from_secs(10)).expect("publish");
        assert_eq!(v, 2, "first publish draws global version 2");
        assert_eq!(reg.arm_version(CANARY_ARM), 2);
        assert_eq!(reg.arm_version(0), 1, "stable arm untouched");
        assert_eq!(reg.arm(CANARY_ARM).model.next_item(0, &[], 9, &[]), Some(7));
        let stats = handle.stats();
        assert_eq!(stats.folds, 1);
        assert_eq!(stats.examples, 1, "only the accepted event trains");
        assert_eq!(stats.publishes, 1);
        assert!(stats.trainer_alive);
        assert_eq!(stats.trainer_panics, 0);
        // A second forced tick re-folds the resident events and
        // publishes again under a fresh version.
        let v2 = handle.force_publish(Duration::from_secs(10)).expect("second publish");
        assert_eq!(v2, 3);
        handle.stop();
        let stats = handle.stats();
        assert!(!stats.trainer_alive, "stopped trainer reports not alive");
        assert_eq!(stats.trainer_panics, 0, "a clean stop is not a panic");
    }

    #[test]
    fn empty_buffer_timed_ticks_do_not_churn_versions() {
        let reg = registry();
        let handle = OnlineHandle::start(
            reg.clone(),
            OnlineConfig { publish_every: Duration::from_millis(20), ..Default::default() },
            || Box::new(CountingLearner { folds: 0 }),
        );
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(reg.arm_version(CANARY_ARM), 1, "nothing to train on, nothing published");
        assert_eq!(handle.stats().publishes, 0);
        handle.stop();
    }

    #[test]
    fn panicking_learner_degrades_to_static_and_is_visible() {
        let reg = registry();
        let handle = OnlineHandle::start(
            reg.clone(),
            OnlineConfig { publish_every: Duration::from_secs(3600), ..Default::default() },
            || Box::new(PanickingLearner),
        );
        handle.replay().push(event(true));
        let err = handle.force_publish(Duration::from_secs(10)).unwrap_err();
        assert_eq!(err, ForcePublishError::Dead);
        let stats = handle.stats();
        assert_eq!(stats.trainer_panics, 1);
        assert!(!stats.trainer_alive);
        assert_eq!(reg.arm_version(CANARY_ARM), 1, "no corrupt snapshot was published");
        // The buffer still accepts events (logging is independent of the
        // trainer's health), and further force requests fail fast.
        handle.replay().push(event(true));
        assert_eq!(
            handle.force_publish(Duration::from_secs(1)).unwrap_err(),
            ForcePublishError::Dead
        );
        handle.stop();
    }

    #[test]
    fn irn_learner_trains_and_publishes_loadable_snapshots() {
        use irs_core::{Irn, IrnConfig, NeuralTrainConfig};
        let seqs: Vec<SubSeq> = (0..8)
            .map(|s| SubSeq { user: s % 3, items: (0..5).map(|k| (s + k) % 8).collect() })
            .collect();
        let config = IrnConfig {
            dim: 8,
            user_dim: 4,
            layers: 1,
            heads: 2,
            max_len: 8,
            train: NeuralTrainConfig { epochs: 1, ..Default::default() },
            ..Default::default()
        };
        let student = Irn::fit(&seqs, &[], 8, 3, &config, None);
        let mut learner = IrnOnlineLearner::new(student);
        let events: Vec<FeedbackEvent> = (0..6)
            .map(|i| FeedbackEvent {
                user: i % 3,
                context: vec![i % 8, (i + 1) % 8],
                item: (i + 2) % 8,
                accepted: i % 3 != 0,
            })
            .collect();
        let outcome = learner.fold(&events);
        assert_eq!(outcome.examples, 4, "only accepted events train");
        assert!(outcome.loss.is_finite());
        let snap = learner.publish().unwrap();
        assert_eq!(snap.label, "online-1");
        assert_eq!(snap.num_items, Some(8));
        assert!(snap.num_scalars() > 0);
        assert!(snap.model.next_item(0, &[1, 2], 5, &[]).is_some());
        // Long contexts are windowed into the model's max_len.
        let long = vec![FeedbackEvent {
            user: 0,
            context: (0..20).map(|i| i % 8).collect(),
            item: 3,
            accepted: true,
        }];
        let outcome = learner.fold(&long);
        assert_eq!(outcome.examples, 1);
        assert!(outcome.loss.is_finite());
    }
}
