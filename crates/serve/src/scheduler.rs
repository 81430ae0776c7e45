//! Dynamic micro-batching scheduler.
//!
//! Concurrent `next_item` requests from different sessions land in one
//! bounded queue; worker threads drain it under a *work-conserving*
//! policy — a worker blocks for the first request, takes whatever else
//! is already queued (up to `max_batch`) and dispatches at once — and
//! answer every request in the batch with a single
//! [`InfluenceRecommender::next_items_into`] call against the current
//! model snapshot.
//!
//! A request is never held back waiting for co-travellers: a worker is
//! idle only when the queue is empty.  Under load the queue refills while
//! the workers run their forwards, so batches form from that backlog;
//! `max_batch` bounds the forward-pass size.  `BatchPolicy { max_batch:
//! 1, .. }` degenerates to no batching (the baseline configuration
//! `serve_load --compare` measures against).
//!
//! Batch composition is unobservable in the answers (the batched≡scalar
//! bitwise contract), so regrouping requests by arrival timing is safe.
//!
//! # Allocation discipline
//!
//! The handoff is built so a warm caller pays **zero allocations per
//! round-trip**: replies travel through a reusable [`EngineCaller`] slot
//! (a `Mutex` + `Condvar` cell, not a fresh channel per request), the
//! caller's `history`/`path` buffers move *into* the queued request and
//! are handed back through the slot when the worker answers, and the
//! worker itself keeps its batch/query/answer buffers across batches
//! (stack-allocated query slices up to [`STACK_QUERIES`]).  The legacy
//! [`Engine::next_item`] entry point allocates a fresh slot per call and
//! remains for tests and one-shot callers.
//!
//! [`InfluenceRecommender::next_items_into`]: irs_core::InfluenceRecommender::next_items_into

use std::collections::VecDeque;
use std::mem;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use irs_core::{ContextCache, NextQuery};
use irs_data::{ItemId, UserId};
use irs_obs::log_error;

use crate::metrics::ServeMetrics;
use crate::snapshot::{ModelSnapshot, SnapshotRegistry, NUM_ARMS};

/// Micro-batching knobs.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Largest coalesced batch (1 disables batching).
    pub max_batch: usize,
    /// Scheduler worker threads draining the queue.
    pub workers: usize,
    /// Bound on queued requests; producers block when it is reached
    /// (backpressure instead of unbounded memory growth).
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 16, workers: 2, queue_capacity: 1024 }
    }
}

/// Where a worker writes a request's answer and hands the caller's
/// buffers back.  One slot serves one in-flight request at a time but is
/// reused across requests by [`EngineCaller`].
#[derive(Default)]
struct ReplyState {
    done: bool,
    answer: Option<ItemId>,
    /// The caller's `history`/`path` buffers, returned so the next
    /// request on this slot reuses their capacity.
    history: Vec<ItemId>,
    path: Vec<ItemId>,
    /// The session's context cache, updated by the worker and returned
    /// for the caller to park back in its session store.
    cache: Option<ContextCache>,
}

#[derive(Default)]
struct ReplySlot {
    state: Mutex<ReplyState>,
    ready: Condvar,
}

impl ReplySlot {
    fn arm(&self) {
        let mut st = self.state.lock().expect("reply slot poisoned");
        st.done = false;
        st.answer = None;
        st.cache = None;
    }
}

/// The worker-side handle on a slot.  `deliver` answers the request and
/// returns the buffers; dropping an undelivered reply (a worker dying
/// mid-batch) still wakes the caller with `None` so nobody blocks
/// forever.
struct Reply {
    slot: Arc<ReplySlot>,
    delivered: bool,
}

impl Reply {
    fn new(slot: Arc<ReplySlot>) -> Self {
        Reply { slot, delivered: false }
    }

    fn deliver(
        mut self,
        answer: Option<ItemId>,
        history: Vec<ItemId>,
        path: Vec<ItemId>,
        cache: Option<ContextCache>,
    ) {
        self.delivered = true;
        let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        st.answer = answer;
        st.history = history;
        st.path = path;
        st.cache = cache;
        st.done = true;
        drop(st);
        self.slot.ready.notify_one();
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.delivered {
            let mut st = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
            st.done = true;
            drop(st);
            self.slot.ready.notify_one();
        }
    }
}

/// One queued scoring request: the session state needed to build a
/// [`NextQuery`], plus the slot the answer travels back on.
struct ScoreRequest {
    user: UserId,
    history: Vec<ItemId>,
    objective: ItemId,
    path: Vec<ItemId>,
    /// The session's incremental state, travelling with the request (see
    /// [`EngineCaller::stage_cache`]).
    cache: Option<ContextCache>,
    /// Whether this session participates in context caching at all; when
    /// false the request always takes the batched path untouched.
    want_cache: bool,
    /// The traffic arm (snapshot slot) this request scores against.
    arm: usize,
    /// When the request entered the queue — the start of its
    /// `queue`-stage span.
    enqueued_at: Instant,
    reply: Reply,
}

impl ScoreRequest {
    fn query(&self) -> NextQuery<'_> {
        NextQuery {
            user: self.user,
            history: &self.history,
            objective: self.objective,
            path: &self.path,
        }
    }
}

struct QueueInner {
    requests: VecDeque<ScoreRequest>,
    shutdown: bool,
}

struct SharedQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// A caller-owned scheduling workspace: one reusable reply slot plus the
/// `history`/`path` staging buffers a request is built from.  Fill the
/// buffers, call [`Engine::next_item_with`], repeat — a warm caller
/// allocates nothing per round-trip (the buffers travel to the worker
/// and come back through the slot).
pub struct EngineCaller {
    slot: Arc<ReplySlot>,
    history: Vec<ItemId>,
    path: Vec<ItemId>,
    cache: Option<ContextCache>,
    want_cache: bool,
    arm: usize,
}

impl EngineCaller {
    /// Create an empty workspace (the one-time allocations happen here).
    pub fn new() -> Self {
        EngineCaller {
            slot: Arc::new(ReplySlot::default()),
            history: Vec::new(),
            path: Vec::new(),
            cache: None,
            want_cache: false,
            arm: 0,
        }
    }

    /// Score the next round-trip against `arm`'s snapshot (sticky
    /// traffic-split assignment).  Like the staged cache, this is per
    /// round-trip: [`Engine::next_item_with`] resets it to the stable
    /// arm, so a forgotten restage can only ever fall back to stable.
    pub fn set_arm(&mut self, arm: usize) {
        self.arm = arm.min(NUM_ARMS - 1);
    }

    /// Stage the session's context cache (possibly `None` — a first
    /// request, or one whose cache was evicted) for the next round-trip
    /// and opt the request into cached serving.  The worker updates the
    /// state and hands it back; collect it with
    /// [`EngineCaller::take_cache`] after the round-trip and park it in
    /// the session store.
    pub fn stage_cache(&mut self, cache: Option<ContextCache>) {
        self.cache = cache;
        self.want_cache = true;
    }

    /// The context cache returned by the last round-trip, if any.
    pub fn take_cache(&mut self) -> Option<ContextCache> {
        self.cache.take()
    }

    /// The staging buffer for the query's viewing history.  Cleared by
    /// [`Engine::next_item_with`] after each round-trip.
    pub fn history_mut(&mut self) -> &mut Vec<ItemId> {
        &mut self.history
    }

    /// The staging buffer for the query's path-so-far.  Cleared by
    /// [`Engine::next_item_with`] after each round-trip.
    pub fn path_mut(&mut self) -> &mut Vec<ItemId> {
        &mut self.path
    }
}

impl Default for EngineCaller {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of the engine counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsSnapshot {
    /// Requests answered.
    pub requests: u64,
    /// Batched forward passes issued.
    pub batches: u64,
    /// Requests the recommender could not extend a path for.
    pub gave_up: u64,
    /// Cache-opted requests whose stored prefix was reused.
    pub cache_hits: u64,
    /// Cache-opted requests that had to (re)encode their context from
    /// scratch (first request of a session, evicted cache, or a history
    /// that stopped extending the stored prefix).
    pub cache_misses: u64,
    /// Caches discarded because a snapshot hot-swap outdated their
    /// generation.
    pub cache_invalidations: u64,
}

impl StatsSnapshot {
    /// Mean coalesced batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// The micro-batching engine: a bounded request queue plus worker threads
/// scoring coalesced batches against [`SnapshotRegistry::current`].
pub struct Engine {
    queue: Arc<SharedQueue>,
    registry: Arc<SnapshotRegistry>,
    metrics: Arc<ServeMetrics>,
    policy: BatchPolicy,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Spawn the scheduler's worker threads.
    pub fn start(registry: Arc<SnapshotRegistry>, policy: BatchPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(policy.workers >= 1, "at least one worker is required");
        assert!(policy.queue_capacity >= 1, "queue capacity must be at least 1");
        let queue = Arc::new(SharedQueue {
            inner: Mutex::new(QueueInner { requests: VecDeque::new(), shutdown: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: policy.queue_capacity,
        });
        let metrics = Arc::new(ServeMetrics::new());
        let workers = (0..policy.workers)
            .map(|_| {
                let queue = queue.clone();
                let registry = registry.clone();
                let metrics = metrics.clone();
                let policy = policy.clone();
                std::thread::spawn(move || worker_loop(&queue, &registry, &metrics, &policy))
            })
            .collect();
        Engine { queue, registry, metrics, policy, workers: Mutex::new(workers) }
    }

    /// The snapshot registry this engine scores against.
    pub fn registry(&self) -> &Arc<SnapshotRegistry> {
        &self.registry
    }

    /// The metrics registry this engine (and the frontend built on it)
    /// records into.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// The batching policy the engine runs under.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Submit one request and block until the scheduler answers it.
    /// Returns `None` when the recommender cannot extend the path or the
    /// engine is shutting down.
    ///
    /// This is the one-shot entry point (it allocates a fresh reply slot
    /// per call); steady-state servers should hold an [`EngineCaller`]
    /// and use [`Engine::next_item_with`] instead.
    pub fn next_item(
        &self,
        user: UserId,
        history: Vec<ItemId>,
        objective: ItemId,
        path: Vec<ItemId>,
    ) -> Option<ItemId> {
        let slot = Arc::new(ReplySlot::default());
        self.submit_and_wait(&slot, user, history, objective, path, None, false, 0).0
    }

    /// The allocation-free round-trip: submit a request built from the
    /// caller's staged `history`/`path` buffers, block for the batched
    /// answer, and reclaim the buffers (cleared, capacity kept) for the
    /// next request.
    pub fn next_item_with(
        &self,
        caller: &mut EngineCaller,
        user: UserId,
        objective: ItemId,
    ) -> Option<ItemId> {
        let history = mem::take(&mut caller.history);
        let path = mem::take(&mut caller.path);
        let cache = caller.cache.take();
        let want_cache = caller.want_cache;
        let arm = caller.arm;
        let (answer, mut history, mut path, cache) = self.submit_and_wait(
            &caller.slot,
            user,
            history,
            objective,
            path,
            cache,
            want_cache,
            arm,
        );
        history.clear();
        path.clear();
        caller.history = history;
        caller.path = path;
        caller.cache = cache;
        caller.want_cache = false;
        caller.arm = 0;
        answer
    }

    #[allow(clippy::too_many_arguments)]
    fn submit_and_wait(
        &self,
        slot: &Arc<ReplySlot>,
        user: UserId,
        history: Vec<ItemId>,
        objective: ItemId,
        path: Vec<ItemId>,
        cache: Option<ContextCache>,
        want_cache: bool,
        arm: usize,
    ) -> (Option<ItemId>, Vec<ItemId>, Vec<ItemId>, Option<ContextCache>) {
        slot.arm();
        {
            let mut inner = self.queue.inner.lock().expect("serve queue poisoned");
            while inner.requests.len() >= self.queue.capacity && !inner.shutdown {
                inner = self.queue.not_full.wait(inner).expect("serve queue poisoned");
            }
            if inner.shutdown {
                return (None, history, path, cache);
            }
            inner.requests.push_back(ScoreRequest {
                user,
                history,
                objective,
                path,
                cache,
                want_cache,
                arm: arm.min(NUM_ARMS - 1),
                enqueued_at: Instant::now(),
                reply: Reply::new(slot.clone()),
            });
        }
        self.queue.not_empty.notify_one();
        let mut st = slot.state.lock().expect("reply slot poisoned");
        while !st.done {
            st = slot.ready.wait(st).expect("reply slot poisoned");
        }
        let answer = st.answer.take();
        let history = mem::take(&mut st.history);
        let path = mem::take(&mut st.path);
        let cache = st.cache.take();
        (answer, history, path, cache)
    }

    /// One scheduling round-trip for a live session: clone its query
    /// state and block for the batched answer.  Feed the result back
    /// with [`InteractiveSession::record`] /
    /// [`InteractiveSession::record_give_up`] (the session stays with
    /// the caller — under a store lock, on a client thread, wherever).
    ///
    /// [`InteractiveSession::record`]: irs_core::InteractiveSession::record
    /// [`InteractiveSession::record_give_up`]: irs_core::InteractiveSession::record_give_up
    pub fn propose(&self, session: &irs_core::InteractiveSession) -> Option<ItemId> {
        let q = session.query();
        self.next_item(q.user, q.history.to_vec(), q.objective, q.path.to_vec())
    }

    /// Current counter values.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.metrics.requests.get(),
            batches: self.metrics.batches.get(),
            gave_up: self.metrics.gave_up.get(),
            cache_hits: self.metrics.cache_hits.get(),
            cache_misses: self.metrics.cache_misses.get(),
            cache_invalidations: self.metrics.cache_invalidations.get(),
        }
    }

    /// Drain the queue, stop the workers and join them (idempotent).
    /// Queued requests are still answered; requests submitted after
    /// shutdown get `None`.
    pub fn shutdown(&self) {
        {
            let mut inner = self.queue.inner.lock().expect("serve queue poisoned");
            inner.shutdown = true;
        }
        self.queue.not_empty.notify_all();
        self.queue.not_full.notify_all();
        let handles: Vec<_> =
            self.workers.lock().expect("worker list poisoned").drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Record a popped request's `queue`-stage span (time spent waiting for
/// a worker).  Queue/assemble spans are labelled by the request's cache
/// *intent* (`want_cache`); the forward span relabels by the path
/// actually taken.
fn record_queue_wait(metrics: &ServeMetrics, req: &ScoreRequest, now: Instant) {
    metrics.stages.queue[req.arm.min(NUM_ARMS - 1)][usize::from(req.want_cache)]
        .record(now.saturating_duration_since(req.enqueued_at));
}

/// Collect one micro-batch into `batch` (cleared first): block for the
/// first request, then take whatever is already queued, up to
/// `max_batch`, without waiting for more.  Returns the instant of the
/// first pop (the start of the batch's `assemble` span), or `None` when
/// the engine shut down and the queue is drained.
fn collect_batch(
    queue: &SharedQueue,
    policy: &BatchPolicy,
    batch: &mut Vec<ScoreRequest>,
    metrics: &ServeMetrics,
) -> Option<Instant> {
    batch.clear();
    let mut inner = queue.inner.lock().expect("serve queue poisoned");
    while inner.requests.is_empty() {
        if inner.shutdown {
            return None;
        }
        inner = queue.not_empty.wait(inner).expect("serve queue poisoned");
    }
    let first_pop = Instant::now();
    let take = inner.requests.len().min(policy.max_batch);
    batch.extend(inner.requests.drain(..take));
    drop(inner);
    queue.not_full.notify_all();
    for req in batch.iter() {
        record_queue_wait(metrics, req, first_pop);
    }
    Some(first_pop)
}

/// Batches at most this large borrow a stack-allocated query slice; the
/// rare larger batch falls back to a heap `Vec` (one allocation per
/// *batch*, not per request).
const STACK_QUERIES: usize = 64;

/// A context cache freshly minted against `snapshot`, or `None` when the
/// model has no incremental path.
fn fresh_cache(snapshot: &ModelSnapshot, version: u64) -> Option<ContextCache> {
    snapshot.model.new_context_cache().map(|state| ContextCache { state, generation: version })
}

fn worker_loop(
    queue: &SharedQueue,
    registry: &SnapshotRegistry,
    metrics: &ServeMetrics,
    policy: &BatchPolicy,
) {
    const EMPTY_QUERY: NextQuery<'static> =
        NextQuery { user: 0, history: &[], objective: 0, path: &[] };
    // Worker-lifetime buffers: reused across batches so a warm worker
    // allocates nothing per batch.
    let mut batch: Vec<ScoreRequest> = Vec::with_capacity(policy.max_batch);
    let mut answers: Vec<Option<ItemId>> = Vec::with_capacity(policy.max_batch);
    let mut cold: [Vec<usize>; NUM_ARMS] =
        std::array::from_fn(|_| Vec::with_capacity(policy.max_batch));
    let mut cold_answers: Vec<Option<ItemId>> = Vec::with_capacity(policy.max_batch);
    while let Some(first_pop) = collect_batch(queue, policy, &mut batch, metrics) {
        // The assemble span — the queue drain after the first pop — is
        // shared by every request in the batch.
        let assembled = first_pop.elapsed();
        for req in batch.iter() {
            metrics.stages.assemble[req.arm.min(NUM_ARMS - 1)][usize::from(req.want_cache)]
                .record(assembled);
        }
        // One snapshot per (batch, arm): every request in the batch bound
        // for a given arm is scored by the same model even if a publish
        // lands mid-flight.  Arms are fetched lazily — the common
        // all-stable batch never touches the canary slot's lock — and
        // each version is read consistently with its snapshot so the
        // generation checks below can't mix an old model with a new
        // version.
        let mut arms: [Option<(Arc<ModelSnapshot>, u64)>; NUM_ARMS] = std::array::from_fn(|_| None);
        answers.clear();
        answers.resize(batch.len(), None);
        for c in &mut cold {
            c.clear();
        }
        cold_answers.clear();
        // Panic isolation: a model panic (bad input reaching an
        // embedding lookup, a future model bug) must not kill the worker
        // — one dead worker silently halves capacity and once all are
        // gone every submitter blocks forever.  The poisoned batch is
        // answered `None`; the worker lives on.
        let scored = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // A coalesced batch mixes cached and cold sessions: requests
            // carrying per-session state take the incremental path one by
            // one (their step is O(1) in the context length, so skipping
            // the batched forward costs nothing), the rest coalesce into
            // one batched forward *per arm*.
            for i in 0..batch.len() {
                let req = &mut batch[i];
                let a = req.arm.min(NUM_ARMS - 1);
                if !req.want_cache {
                    cold[a].push(i);
                    continue;
                }
                let (snapshot, version) = {
                    let slot = arms[a].get_or_insert_with(|| registry.arm_versioned(a));
                    (slot.0.clone(), slot.1)
                };
                let cache = match req.cache.take() {
                    Some(c) if c.generation == version => Some(c),
                    Some(_stale) => {
                        metrics.cache_invalidations.inc();
                        fresh_cache(&snapshot, version)
                    }
                    None => fresh_cache(&snapshot, version),
                };
                let Some(mut cache) = cache else {
                    // The model has no incremental path; serve batched.
                    cold[a].push(i);
                    continue;
                };
                let forward_started = Instant::now();
                let (answer, hit) =
                    snapshot.model.next_item_cached(&req.query(), cache.state.as_mut());
                metrics.stages.forward[a][1].record(forward_started.elapsed());
                let counter = if hit { &metrics.cache_hits } else { &metrics.cache_misses };
                counter.inc();
                answers[i] = answer;
                req.cache = Some(cache);
            }
            for (a, cold) in cold.iter().enumerate() {
                if cold.is_empty() {
                    continue;
                }
                let snapshot = {
                    let slot = arms[a].get_or_insert_with(|| registry.arm_versioned(a));
                    slot.0.clone()
                };
                cold_answers.clear();
                let forward_started = Instant::now();
                if cold.len() <= STACK_QUERIES {
                    let mut qbuf = [EMPTY_QUERY; STACK_QUERIES];
                    for (slot, &i) in qbuf.iter_mut().zip(cold.iter()) {
                        *slot = batch[i].query();
                    }
                    snapshot.model.next_items_into(&qbuf[..cold.len()], &mut cold_answers);
                } else {
                    let queries: Vec<NextQuery<'_>> =
                        cold.iter().map(|&i| batch[i].query()).collect();
                    snapshot.model.next_items_into(&queries, &mut cold_answers);
                }
                // The shared batched forward is attributed to every
                // request that rode it.
                let forward = forward_started.elapsed();
                for _ in cold.iter() {
                    metrics.stages.forward[a][0].record(forward);
                }
                if cold_answers.len() != cold.len() {
                    return false;
                }
                for (&i, answer) in cold.iter().zip(cold_answers.drain(..)) {
                    answers[i] = answer;
                }
            }
            true
        }));
        match scored {
            Ok(true) => {}
            Ok(false) => {
                // Cached answers and fully-scored arms are sound; only
                // the short-answered arm's batched cold requests (and any
                // arm after it) stay `None`.
                log_error!(
                    "scheduler",
                    "model under-answered a batched arm; answering None for the rest"
                );
            }
            Err(_) => {
                log_error!(
                    "scheduler",
                    "model panicked scoring a batch of {}; answering None",
                    batch.len()
                );
                answers.clear();
                answers.resize(batch.len(), None);
            }
        }
        metrics.requests.add(batch.len() as u64);
        metrics.batches.inc();
        metrics.gave_up.add(answers.iter().filter(|a| a.is_none()).count() as u64);
        for (req, answer) in batch.drain(..).zip(answers.drain(..)) {
            let ScoreRequest { history, path, reply, cache, .. } = req;
            reply.deliver(answer, history, path, cache);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ModelSnapshot;
    use irs_core::InfluenceRecommender;

    /// Deterministic stand-in: answers `base + path.len()`, unless the
    /// objective is reachable.
    struct Walker {
        base: ItemId,
    }

    impl InfluenceRecommender for Walker {
        fn name(&self) -> String {
            "walker".into()
        }
        fn next_item(
            &self,
            _user: UserId,
            _history: &[ItemId],
            objective: ItemId,
            path: &[ItemId],
        ) -> Option<ItemId> {
            let next = self.base + path.len();
            (next <= objective).then_some(next)
        }
    }

    fn engine(policy: BatchPolicy) -> Engine {
        let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory(
            "walker",
            Box::new(Walker { base: 10 }),
        )));
        Engine::start(registry, policy)
    }

    #[test]
    fn answers_match_the_scalar_recommender() {
        let eng = engine(BatchPolicy::default());
        assert_eq!(eng.next_item(0, vec![1], 99, vec![]), Some(10));
        assert_eq!(eng.next_item(0, vec![1], 99, vec![10, 11]), Some(12));
        assert_eq!(eng.next_item(0, vec![1], 5, vec![]), None, "unreachable objective");
        let stats = eng.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.gave_up, 1);
        eng.shutdown();
    }

    #[test]
    fn workspace_round_trips_match_and_reclaim_buffers() {
        let eng = engine(BatchPolicy::default());
        let mut caller = EngineCaller::new();
        caller.history_mut().extend_from_slice(&[1, 2, 3]);
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), Some(10));
        assert!(caller.history_mut().is_empty(), "buffers come back cleared");
        assert!(caller.path_mut().is_empty());
        assert!(caller.history_mut().capacity() >= 3, "…but keep their capacity");
        caller.history_mut().push(1);
        caller.path_mut().extend_from_slice(&[10, 11]);
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), Some(12));
        caller.history_mut().push(1);
        assert_eq!(eng.next_item_with(&mut caller, 0, 5), None, "unreachable objective");
        eng.shutdown();
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), None, "post-shutdown answers None");
    }

    /// Where a [`Gated`] model's first batched call stands.
    #[derive(Default)]
    struct Gate {
        /// The first call is inside the model, parked.
        entered: bool,
        /// The test released it.
        open: bool,
    }

    /// A [`Walker`] whose first batched call parks until the test opens
    /// the gate, so a backlog builds up behind a busy worker.
    struct Gated {
        walker: Walker,
        gate: Arc<(Mutex<Gate>, Condvar)>,
    }

    impl InfluenceRecommender for Gated {
        fn name(&self) -> String {
            "gated".into()
        }
        fn next_item(
            &self,
            user: UserId,
            history: &[ItemId],
            objective: ItemId,
            path: &[ItemId],
        ) -> Option<ItemId> {
            self.walker.next_item(user, history, objective, path)
        }
        fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
            let (state, cv) = &*self.gate;
            let mut gate = state.lock().unwrap();
            if !gate.entered {
                gate.entered = true;
                cv.notify_all();
                while !gate.open {
                    gate = cv.wait(gate).unwrap();
                }
            }
            drop(gate);
            out.extend(
                queries.iter().map(|q| self.next_item(q.user, q.history, q.objective, q.path)),
            );
        }
    }

    /// Park the single worker on a first request, queue `k` more behind
    /// it, release the worker, and return how many batches the backlog
    /// took.  Every answer is checked against the scalar recommender.
    fn backlog_batches(max_batch: usize, k: usize) -> u64 {
        let gate = Arc::new((Mutex::new(Gate::default()), Condvar::new()));
        let model = Gated { walker: Walker { base: 10 }, gate: gate.clone() };
        let registry =
            Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory("gated", Box::new(model))));
        let eng = Arc::new(Engine::start(
            registry,
            BatchPolicy { max_batch, workers: 1, queue_capacity: 256 },
        ));
        let first = {
            let eng = eng.clone();
            std::thread::spawn(move || eng.next_item(0, vec![], 99, vec![]))
        };
        {
            let (state, cv) = &*gate;
            let mut g = state.lock().unwrap();
            while !g.entered {
                g = cv.wait(g).unwrap();
            }
        }
        // Varied path lengths and objectives, so some answers are `None`.
        let query = |t: usize| (t, vec![t], 11 + t % 4, vec![7; t % 3]);
        let handles: Vec<_> = (0..k)
            .map(|t| {
                let eng = eng.clone();
                let (user, history, objective, path) = query(t);
                std::thread::spawn(move || eng.next_item(user, history, objective, path))
            })
            .collect();
        while eng.queue.inner.lock().unwrap().requests.len() < k {
            std::thread::yield_now();
        }
        {
            let (state, cv) = &*gate;
            state.lock().unwrap().open = true;
            cv.notify_all();
        }
        assert_eq!(first.join().unwrap(), Some(10));
        let scalar = Walker { base: 10 };
        for (t, h) in handles.into_iter().enumerate() {
            let (user, history, objective, path) = query(t);
            assert_eq!(h.join().unwrap(), scalar.next_item(user, &history, objective, &path));
        }
        let stats = eng.stats();
        assert_eq!(stats.requests, 1 + k as u64);
        eng.shutdown();
        stats.batches - 1
    }

    #[test]
    fn concurrent_requests_coalesce_into_batches() {
        // A backlog that fits is answered in one batch, whatever its size…
        assert_eq!(backlog_batches(8, 1), 1);
        assert_eq!(backlog_batches(8, 5), 1);
        assert_eq!(backlog_batches(8, 8), 1);
        // …and a larger one in ⌈k / max_batch⌉ full-as-possible batches.
        assert_eq!(backlog_batches(8, 9), 2);
        assert_eq!(backlog_batches(4, 10), 3);
        assert_eq!(backlog_batches(1, 3), 3);
    }

    #[test]
    fn batch_size_one_still_answers_everything() {
        let eng = Arc::new(engine(BatchPolicy {
            max_batch: 1,
            workers: 2,
            queue_capacity: 4, // force backpressure too
        }));
        let mut handles = Vec::new();
        for t in 0..12usize {
            let eng = eng.clone();
            handles.push(std::thread::spawn(move || eng.next_item(t, vec![], 99, vec![])));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(10));
        }
        let stats = eng.stats();
        assert_eq!(stats.requests, 12);
        assert_eq!(stats.batches, 12, "max_batch 1 must never coalesce");
        eng.shutdown();
    }

    #[test]
    fn shutdown_answers_queued_requests_and_rejects_new_ones() {
        let eng = engine(BatchPolicy::default());
        assert_eq!(eng.next_item(0, vec![], 99, vec![]), Some(10));
        eng.shutdown();
        // A fresh engine whose queue is already shut down answers None.
        let eng = engine(BatchPolicy::default());
        {
            let mut inner = eng.queue.inner.lock().unwrap();
            inner.shutdown = true;
        }
        assert_eq!(eng.next_item(0, vec![], 99, vec![]), None);
        eng.shutdown();
    }

    #[test]
    fn oversized_batches_fall_back_to_the_heap_path() {
        // A backlog larger than the stack query buffer, drained as one
        // batch, exercises the heap fallback in `worker_loop`.
        assert_eq!(backlog_batches(STACK_QUERIES + 8, STACK_QUERIES + 8), 1);
    }

    #[test]
    fn requests_route_to_their_assigned_arm() {
        use crate::snapshot::CANARY_ARM;
        let eng = engine(BatchPolicy::default());
        // Publish a distinguishable model on the canary arm.
        eng.registry()
            .publish(CANARY_ARM, ModelSnapshot::in_memory("canary", Box::new(Walker { base: 50 })));
        let mut caller = EngineCaller::new();
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), Some(10), "default is stable");
        caller.set_arm(CANARY_ARM);
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), Some(50), "canary serves its model");
        // The arm resets after each round-trip (sticky assignment is
        // restaged per request by the frontend).
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), Some(10));
        // Out-of-range arms clamp instead of panicking.
        caller.set_arm(99);
        assert_eq!(eng.next_item_with(&mut caller, 0, 99), Some(50));
        eng.shutdown();
    }

    #[test]
    fn mean_batch_reflects_coalescing() {
        let s = StatsSnapshot {
            requests: 12,
            batches: 3,
            gave_up: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidations: 0,
        };
        assert!((s.mean_batch() - 4.0).abs() < 1e-12);
        let empty = StatsSnapshot { requests: 0, batches: 0, gave_up: 0, ..s };
        assert_eq!(empty.mean_batch(), 0.0);
    }
}
