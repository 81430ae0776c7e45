//! Dynamic micro-batching by flat combining: the callers score.
//!
//! Concurrent `next_item` requests from different sessions land in one
//! bounded queue, and the engine owns no threads to drain it.  A caller
//! that enqueues while fewer than [`BatchPolicy::workers`] callers are
//! scoring becomes a *runner*: it takes up to `max_batch` queued requests
//! in FIFO order, answers every request in the batch with one
//! [`InfluenceRecommender::next_items_into`] call per arm against the
//! current model snapshots, and repeats while its own request is still
//! queued.  When it stops, it hands the runner role to the caller of the
//! oldest queued request through that request's reply slot, or gives the
//! role up when nothing is left waiting.  So:
//!
//! * at most `workers` callers score at once;
//! * a queued request always has a runner;
//! * no caller keeps scoring for others once its own request has left
//!   the queue.
//!
//! A lone request is therefore scored on the thread that submitted it,
//! with no thread hand-off at all.  The queue is *work-conserving*: a
//! request is never held back waiting for co-travellers.  Under load it
//! refills while the runners score, so batches form from that backlog;
//! `max_batch` bounds the forward-pass size.  `BatchPolicy { max_batch:
//! 1, .. }` degenerates to no batching (the baseline configuration
//! `serve_load --compare` measures against).  This is flat combining
//! (Hendler et al., "Flat Combining and the Synchronization-Parallelism
//! Tradeoff", SPAA 2010) with up to `workers` combiners.
//!
//! Batch composition is unobservable in the answers (the batched≡scalar
//! bitwise contract), so regrouping requests by arrival timing is safe.
//!
//! # Allocation discipline
//!
//! The handoff is built so a warm caller pays **zero allocations per
//! round-trip**: answers and the runner role travel through a reusable
//! [`EngineCaller`] slot (a `Mutex` + `Condvar` cell, not a fresh channel
//! per request), and the caller's `history`/`path` buffers move *into*
//! the queued request and are handed back through the slot when a runner
//! answers.  The per-batch buffers (the batch, its answers, the per-arm
//! cold indices) live in a pool the engine owns: `workers` sets,
//! allocated in [`Engine::start`], which a runner borrows for as long as
//! it holds the role (query slices up to [`STACK_QUERIES`] live on the
//! stack).  The legacy [`Engine::next_item`] entry point allocates a
//! fresh slot per call and remains for tests and one-shot callers.
//!
//! [`InfluenceRecommender::next_items_into`]: irs_core::InfluenceRecommender::next_items_into

use std::collections::VecDeque;
use std::mem;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    /// Most callers scoring batches at once (the runners).
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

/// Where a runner writes a request's answer and hands the caller's
/// buffers back, or hands the caller the runner role.  One slot serves
/// one in-flight request at a time but is reused across requests by
/// [`EngineCaller`].
#[derive(Default)]
struct ReplyState {
    done: bool,
    /// The runner role was handed to this slot's caller (see
    /// [`Runner::release`]).
    run: bool,
    /// The caller is parked on `ready`; signals notify only then, so a
    /// runner answering its own request makes no wake-up call.
    parked: bool,
    answer: Option<ItemId>,
    /// The caller's `history`/`path` buffers, returned so the next
    /// request on this slot reuses their capacity.
    history: Vec<ItemId>,
    path: Vec<ItemId>,
    /// The session's context cache, updated by the runner and returned
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

    /// Update the state under its lock and wake the caller if it is
    /// parked.
    fn signal(&self, update: impl FnOnce(&mut ReplyState)) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        update(&mut st);
        let parked = st.parked;
        drop(st);
        if parked {
            self.ready.notify_one();
        }
    }
}

/// The runner-side handle on a slot.  `deliver` answers the request and
/// returns the buffers; dropping an undelivered reply (a runner unwinding
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
        self.slot.signal(|st| {
            st.answer = answer;
            st.history = history;
            st.path = path;
            st.cache = cache;
            st.done = true;
        });
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if !self.delivered {
            self.slot.signal(|st| st.done = true);
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
    /// Its caller holds the runner role or has been handed it, so a
    /// releasing runner must not hand it another.
    has_runner: bool,
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

/// One runner's per-batch buffers, kept across batches and runners so a
/// warm runner allocates nothing.
#[derive(Default)]
struct BatchBuffers {
    batch: Vec<ScoreRequest>,
    answers: Vec<Option<ItemId>>,
    /// Batch indices of the requests scored by one batched forward per
    /// arm.
    cold: [Vec<usize>; NUM_ARMS],
    cold_answers: Vec<Option<ItemId>>,
}

impl BatchBuffers {
    fn with_capacity(max_batch: usize) -> Self {
        BatchBuffers {
            batch: Vec::with_capacity(max_batch),
            answers: Vec::with_capacity(max_batch),
            cold: std::array::from_fn(|_| Vec::with_capacity(max_batch)),
            cold_answers: Vec::with_capacity(max_batch),
        }
    }
}

struct QueueInner {
    requests: VecDeque<ScoreRequest>,
    /// Requests ever taken off the front of `requests`.  A request's
    /// ticket is `taken + requests.len()` when it is pushed, so it is
    /// still queued exactly while its ticket is at least `taken`.
    taken: u64,
    /// Callers holding the runner role, counting one handed the role but
    /// not yet awake (at most `BatchPolicy::workers`).
    runners: usize,
    /// Producers blocked on `not_full`; a runner taking a batch notifies
    /// only when there are some.
    blocked: usize,
    /// The per-batch buffer sets of the runners not scoring right now.
    pool: Vec<BatchBuffers>,
    shutdown: bool,
}

struct SharedQueue {
    inner: Mutex<QueueInner>,
    not_full: Condvar,
    /// Signalled when the last runner gives its role up after shutdown.
    idle: Condvar,
    capacity: usize,
}

/// A caller-owned scheduling workspace: one reusable reply slot plus the
/// `history`/`path` staging buffers a request is built from.  Fill the
/// buffers, call [`Engine::next_item_with`], repeat — a warm caller
/// allocates nothing per round-trip (the buffers travel with the request
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
    /// and opt the request into cached serving.  The runner updates the
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

/// The micro-batching engine: a bounded request queue whose callers score
/// coalesced batches against [`SnapshotRegistry::current`] themselves.
pub struct Engine {
    queue: SharedQueue,
    registry: Arc<SnapshotRegistry>,
    metrics: Arc<ServeMetrics>,
    policy: BatchPolicy,
}

impl Engine {
    /// Build the engine: the queue and its pool of `policy.workers`
    /// per-batch buffer sets.  It starts no threads; callers run the
    /// batches.
    pub fn start(registry: Arc<SnapshotRegistry>, policy: BatchPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(policy.workers >= 1, "at least one worker is required");
        assert!(policy.queue_capacity >= 1, "queue capacity must be at least 1");
        let pool = (0..policy.workers).map(|_| BatchBuffers::with_capacity(policy.max_batch));
        let queue = SharedQueue {
            inner: Mutex::new(QueueInner {
                requests: VecDeque::new(),
                taken: 0,
                runners: 0,
                blocked: 0,
                pool: pool.collect(),
                shutdown: false,
            }),
            not_full: Condvar::new(),
            idle: Condvar::new(),
            capacity: policy.queue_capacity,
        };
        Engine { queue, registry, metrics: Arc::new(ServeMetrics::new()), policy }
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

    /// Submit one request and block until it is answered (on this thread
    /// when it becomes a runner).  Returns `None` when the recommender
    /// cannot extend the path or the engine is shutting down.
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
        let mut inner = self.queue.inner.lock().expect("serve queue poisoned");
        while inner.requests.len() >= self.queue.capacity && !inner.shutdown {
            inner.blocked += 1;
            inner = self.queue.not_full.wait(inner).expect("serve queue poisoned");
            inner.blocked -= 1;
        }
        if inner.shutdown {
            return (None, history, path, cache);
        }
        let ticket = inner.taken + inner.requests.len() as u64;
        let runner = inner.runners < self.policy.workers;
        inner.requests.push_back(ScoreRequest {
            user,
            history,
            objective,
            path,
            cache,
            want_cache,
            arm: arm.min(NUM_ARMS - 1),
            has_runner: runner,
            enqueued_at: Instant::now(),
            reply: Reply::new(slot.clone()),
        });
        if runner {
            inner.runners += 1;
            self.run(inner, ticket);
        } else {
            drop(inner);
        }
        let mut st = slot.state.lock().expect("reply slot poisoned");
        loop {
            if mem::take(&mut st.run) {
                drop(st);
                self.run(self.queue.inner.lock().expect("serve queue poisoned"), ticket);
                st = slot.state.lock().expect("reply slot poisoned");
            } else if st.done {
                break;
            } else {
                st.parked = true;
                st = slot.ready.wait(st).expect("reply slot poisoned");
                st.parked = false;
            }
        }
        let answer = st.answer.take();
        let history = mem::take(&mut st.history);
        let path = mem::take(&mut st.path);
        let cache = st.cache.take();
        (answer, history, path, cache)
    }

    /// Score batches as a runner while the caller's own request (`ticket`)
    /// is still queued, then release the role (see [`Runner`]).  Entered
    /// with the queue lock held and the role counted in `runners`; nothing
    /// under the lock may panic, or the role's guard would wait on it.
    fn run<'a>(&'a self, mut inner: MutexGuard<'a, QueueInner>, ticket: u64) {
        let buffers =
            inner.pool.pop().unwrap_or_else(|| BatchBuffers::with_capacity(self.policy.max_batch));
        let mut runner = Runner { queue: &self.queue, buffers, released: false };
        while inner.taken <= ticket {
            let first_pop = Instant::now();
            let take = inner.requests.len().min(self.policy.max_batch);
            runner.buffers.batch.extend(inner.requests.drain(..take));
            inner.taken += take as u64;
            let wake_producers = inner.blocked > 0;
            drop(inner);
            if wake_producers {
                self.queue.not_full.notify_all();
            }
            self.score_batch(&mut runner.buffers, first_pop);
            inner = self.queue.inner.lock().expect("serve queue poisoned");
        }
        runner.release(&mut inner);
    }

    /// Score a taken batch on this thread and deliver every answer.
    fn score_batch(&self, buffers: &mut BatchBuffers, first_pop: Instant) {
        const EMPTY_QUERY: NextQuery<'static> =
            NextQuery { user: 0, history: &[], objective: 0, path: &[] };
        let BatchBuffers { batch, answers, cold, cold_answers } = buffers;
        let metrics = &*self.metrics;
        for req in batch.iter() {
            record_queue_wait(metrics, req, first_pop);
        }
        // The assemble span — from taking the batch to scoring it — is
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
        for c in cold.iter_mut() {
            c.clear();
        }
        cold_answers.clear();
        // Panic isolation: a model panic (bad input reaching an
        // embedding lookup, a future model bug) must not unwind into the
        // caller that happens to be running the batch — an HTTP worker
        // would die over another session's request.  The poisoned batch
        // is answered `None`; the runner carries on.
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
                    let slot = arms[a].get_or_insert_with(|| self.registry.arm_versioned(a));
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
                    let slot = arms[a].get_or_insert_with(|| self.registry.arm_versioned(a));
                    slot.0.clone()
                };
                cold_answers.clear();
                let forward_started = Instant::now();
                if cold.len() <= STACK_QUERIES {
                    let mut qbuf = [EMPTY_QUERY; STACK_QUERIES];
                    for (slot, &i) in qbuf.iter_mut().zip(cold.iter()) {
                        *slot = batch[i].query();
                    }
                    snapshot.model.next_items_into(&qbuf[..cold.len()], cold_answers);
                } else {
                    let queries: Vec<NextQuery<'_>> =
                        cold.iter().map(|&i| batch[i].query()).collect();
                    snapshot.model.next_items_into(&queries, cold_answers);
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

    /// Refuse new requests and wait until no caller is scoring
    /// (idempotent).  Queued requests are still answered — each has a
    /// runner; requests submitted after shutdown get `None`.
    pub fn shutdown(&self) {
        let mut inner = self.queue.inner.lock().expect("serve queue poisoned");
        inner.shutdown = true;
        self.queue.not_full.notify_all();
        while inner.runners > 0 {
            inner = self.queue.idle.wait(inner).expect("serve queue poisoned");
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The runner role, held by a caller while it scores batches, with the
/// buffer set borrowed from the engine's pool.  Releasing it — after the
/// last batch, or from `drop` while a panic outside the model unwinds
/// the runner — returns the buffers to the pool and hands the role on.
struct Runner<'a> {
    queue: &'a SharedQueue,
    buffers: BatchBuffers,
    released: bool,
}

impl Runner<'_> {
    /// Give the role back under the queue lock: return the buffers, then
    /// hand the role to the caller of the oldest queued request that has
    /// no runner yet, or give it up when there is none (every queued
    /// request then belongs to a caller already running).
    fn release(&mut self, inner: &mut QueueInner) {
        self.released = true;
        inner.pool.push(mem::take(&mut self.buffers));
        match inner.requests.iter_mut().find(|req| !req.has_runner) {
            Some(next) => {
                // Signalled under the queue lock: until the lock drops no
                // runner can take `next`, so its caller sees `run` no
                // later than its answer.
                next.has_runner = true;
                next.reply.slot.signal(|st| st.run = true);
            }
            None => {
                inner.runners -= 1;
                if inner.runners == 0 && inner.shutdown {
                    self.queue.idle.notify_all();
                }
            }
        }
    }
}

impl Drop for Runner<'_> {
    fn drop(&mut self) {
        if !self.released {
            // Answer `None` to whatever the unwinding batch still holds.
            // The runner's own request, if still queued, keeps its
            // `has_runner` mark, so the role is never handed to a caller
            // that has gone; a later runner answers it, or dropping the
            // engine does.
            self.buffers.batch.clear();
            let mut inner = self.queue.inner.lock().unwrap_or_else(|e| e.into_inner());
            self.release(&mut inner);
        }
    }
}

/// Record a popped request's `queue`-stage span (time spent waiting for
/// a runner to take it).  Queue/assemble spans are labelled by the
/// request's cache *intent* (`want_cache`); the forward span relabels by
/// the path actually taken.
fn record_queue_wait(metrics: &ServeMetrics, req: &ScoreRequest, now: Instant) {
    metrics.stages.queue[req.arm.min(NUM_ARMS - 1)][usize::from(req.want_cache)]
        .record(now.saturating_duration_since(req.enqueued_at));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ModelSnapshot;
    use irs_core::InfluenceRecommender;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    /// the gate, so a backlog builds up behind a busy runner.
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

    /// Park the single runner on a first request, queue `k` more behind
    /// it, release the runner, and return how many batches the backlog
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
        // batch, exercises the heap fallback in `score_batch`.
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

    /// Build an engine serving `model` on the stable arm.
    fn engine_with(
        model: impl InfluenceRecommender + Send + Sync + 'static,
        policy: BatchPolicy,
    ) -> Arc<Engine> {
        let registry =
            Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory("test", Box::new(model))));
        Arc::new(Engine::start(registry, policy))
    }

    /// Where a [`Turnstile`] model's batched calls stand.
    #[derive(Default)]
    struct Passage {
        /// The thread of every batched call so far, in entry order.
        entered: Vec<std::thread::ThreadId>,
        /// How many calls may return.
        released: usize,
    }

    type Passageway = Arc<(Mutex<Passage>, Condvar)>;

    /// A [`Walker`] whose batched calls record the thread they run on and
    /// park until the test has let that many calls through.
    struct Turnstile {
        walker: Walker,
        gate: Passageway,
    }

    impl InfluenceRecommender for Turnstile {
        fn name(&self) -> String {
            "turnstile".into()
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
            let mut passage = state.lock().unwrap();
            passage.entered.push(std::thread::current().id());
            let call = passage.entered.len();
            cv.notify_all();
            while passage.released < call {
                passage = cv.wait(passage).unwrap();
            }
            drop(passage);
            out.extend(
                queries.iter().map(|q| self.next_item(q.user, q.history, q.objective, q.path)),
            );
        }
    }

    /// An engine over a [`Turnstile`] that lets `released` calls through.
    fn turnstile_engine(policy: BatchPolicy, released: usize) -> (Arc<Engine>, Passageway) {
        let passage = Passage { entered: Vec::new(), released };
        let gate = Arc::new((Mutex::new(passage), Condvar::new()));
        let model = Turnstile { walker: Walker { base: 10 }, gate: gate.clone() };
        (engine_with(model, policy), gate)
    }

    /// Block until `cond` holds at the turnstile.
    fn wait_for(gate: &Passageway, cond: impl Fn(&Passage) -> bool) {
        let (state, cv) = &**gate;
        let mut passage = state.lock().unwrap();
        while !cond(&passage) {
            passage = cv.wait(passage).unwrap();
        }
    }

    /// Let the first `calls` batched calls return.
    fn let_through(gate: &Passageway, calls: usize) {
        let (state, cv) = &**gate;
        state.lock().unwrap().released = calls;
        cv.notify_all();
    }

    #[test]
    fn a_lone_request_is_scored_on_the_calling_thread() {
        let (eng, gate) = turnstile_engine(BatchPolicy::default(), usize::MAX);
        assert_eq!(eng.next_item(0, vec![1], 99, vec![]), Some(10));
        assert_eq!(gate.0.lock().unwrap().entered, [std::thread::current().id()]);
        eng.shutdown();
    }

    #[test]
    fn a_runner_returns_once_its_own_batch_is_delivered() {
        let policy = BatchPolicy { max_batch: 4, workers: 1, queue_capacity: 64 };
        let (eng, gate) = turnstile_engine(policy, 0);
        let (returned, a_returned) = std::sync::mpsc::channel();
        let a = {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let answer = eng.next_item(0, vec![], 99, vec![]);
                returned.send(()).unwrap();
                answer
            })
        };
        wait_for(&gate, |p| p.entered.len() == 1);
        // B queues behind A's parked batch: the only role is taken.
        let b = {
            let eng = eng.clone();
            std::thread::spawn(move || eng.next_item(1, vec![], 99, vec![10]))
        };
        while eng.queue.inner.lock().unwrap().requests.is_empty() {
            std::thread::yield_now();
        }
        let_through(&gate, 1);
        // A hands the role to B and returns, though B's batch cannot
        // finish until a second call is let through.
        let in_time = a_returned.recv_timeout(std::time::Duration::from_secs(20)).is_ok();
        if !in_time {
            let_through(&gate, usize::MAX);
        }
        assert!(in_time, "the runner stayed to score the batch it handed off");
        let a_id = a.thread().id();
        assert_eq!(a.join().unwrap(), Some(10));
        wait_for(&gate, |p| p.entered.len() == 2);
        assert!(!b.is_finished(), "B's batch is parked in the model");
        let b_id = b.thread().id();
        assert_eq!(gate.0.lock().unwrap().entered, [a_id, b_id], "each batch ran on its runner");
        let_through(&gate, 2);
        assert_eq!(b.join().unwrap(), Some(11));
        eng.shutdown();
    }

    /// A [`Walker`] that records the most batched calls inside it at once.
    struct Census {
        walker: Walker,
        inside: AtomicUsize,
        most: Arc<AtomicUsize>,
    }

    impl InfluenceRecommender for Census {
        fn name(&self) -> String {
            "census".into()
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
            let now = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
            self.most.fetch_max(now, Ordering::SeqCst);
            // Linger, so an overlapping call would be counted.
            std::thread::yield_now();
            out.extend(
                queries.iter().map(|q| self.next_item(q.user, q.history, q.objective, q.path)),
            );
            self.inside.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// The `r`-th request of burst thread `t`: varied paths and
    /// objectives, so some answers are `None`.
    fn burst_query(t: usize, r: usize) -> (UserId, Vec<ItemId>, ItemId, Vec<ItemId>) {
        (t, vec![t, r], 11 + (t + r) % 5, vec![7; (t + r) % 3])
    }

    #[test]
    fn a_burst_never_scores_more_than_workers_batches_at_once() {
        const THREADS: usize = 16;
        const REQUESTS: usize = 50;
        let scalar = Walker { base: 10 };
        for workers in 1..=3 {
            let most = Arc::new(AtomicUsize::new(0));
            let model = Census {
                walker: Walker { base: 10 },
                inside: AtomicUsize::new(0),
                most: most.clone(),
            };
            let eng = engine_with(model, BatchPolicy { max_batch: 4, workers, queue_capacity: 8 });
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let eng = eng.clone();
                    std::thread::spawn(move || {
                        (0..REQUESTS)
                            .map(|r| {
                                let (user, history, objective, path) = burst_query(t, r);
                                eng.next_item(user, history, objective, path)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                for (r, got) in h.join().unwrap().into_iter().enumerate() {
                    let (user, history, objective, path) = burst_query(t, r);
                    let want = scalar.next_item(user, &history, objective, &path);
                    assert_eq!(got, want, "workers {workers}, thread {t}, request {r}");
                }
            }
            let most = most.load(Ordering::SeqCst);
            assert!(most <= workers, "{most} batches scored at once under workers {workers}");
            assert_eq!(eng.stats().requests, (THREADS * REQUESTS) as u64);
            {
                let inner = eng.queue.inner.lock().unwrap();
                assert_eq!(inner.runners, 0, "every role was given up");
                assert_eq!(inner.pool.len(), workers, "every buffer set is back in the pool");
            }
            eng.shutdown();
        }
    }

    /// The objective [`Brittle`] panics on.
    const POISON: ItemId = 666;

    /// A [`Walker`] whose batched call panics when a query aims at
    /// [`POISON`].
    struct Brittle(Walker);

    impl InfluenceRecommender for Brittle {
        fn name(&self) -> String {
            "brittle".into()
        }
        fn next_item(
            &self,
            user: UserId,
            history: &[ItemId],
            objective: ItemId,
            path: &[ItemId],
        ) -> Option<ItemId> {
            self.0.next_item(user, history, objective, path)
        }
        fn next_items_into(&self, queries: &[NextQuery<'_>], out: &mut Vec<Option<ItemId>>) {
            assert!(queries.iter().all(|q| q.objective != POISON), "poisoned objective");
            out.extend(
                queries.iter().map(|q| self.next_item(q.user, q.history, q.objective, q.path)),
            );
        }
    }

    #[test]
    fn a_panicking_model_answers_none_and_the_engine_keeps_answering() {
        let eng = engine_with(Brittle(Walker { base: 10 }), BatchPolicy::default());
        assert_eq!(eng.next_item(0, vec![], POISON, vec![]), None, "the poisoned batch");
        assert_eq!(eng.next_item(0, vec![], 99, vec![]), Some(10), "the runner carried on");
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let eng = eng.clone();
                std::thread::spawn(move || eng.next_item(t, vec![], 99, vec![t]))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(11));
        }
        let stats = eng.stats();
        assert_eq!((stats.requests, stats.gave_up), (10, 1));
        {
            let inner = eng.queue.inner.lock().unwrap();
            assert_eq!(inner.runners, 0, "the panic released no role twice and leaked none");
            assert_eq!(inner.pool.len(), 2);
        }
        eng.shutdown();
    }
}
