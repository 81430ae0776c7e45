//! The serving stack's unified metrics surface.
//!
//! One [`Registry`] owns every counter the server exports; the
//! scheduler, session store, traffic split, online trainer and HTTP
//! frontend all record through handles registered here.  `GET /metrics`
//! (Prometheus text exposition) and `GET /v1/stats` (flat JSON) are
//! both rendered from this registry, so the two endpoints share one
//! vocabulary by construction: every `/v1/stats` key `k` is the
//! `/metrics` family `irs_k` (or `irs_k_info` for string annotations).
//!
//! Two recording disciplines coexist:
//!
//! - **Hot-path handles** (scheduler counters, per-arm traffic
//!   counters, stage histograms) are bumped inline by the worker and
//!   handler threads — lock-free atomics, zero allocation.
//! - **Sampled values** (session census, cache residency, snapshot
//!   labels, online-trainer stats, config echoes) are copied into their
//!   gauges by `sample_metrics` in `http.rs` immediately before either
//!   endpoint renders, so scrapes see a coherent point-in-time view
//!   without threading registry handles through every subsystem.
//!
//! Flat keys are registered in the exact order the hand-written
//! `/v1/stats` serialiser used, so the JSON payload is byte-compatible
//! with earlier releases (new `arm{i}_window_*` keys extend each arm
//! block).

use irs_obs::{Counter, Flag, Gauge, Registry, Text};

use crate::snapshot::NUM_ARMS;
use crate::split::ArmMetrics;
use irs_obs::Histogram;

/// Per-arm registry handles: sampled gauges plus the hot
/// [`ArmMetrics`] the traffic split records through.
pub(crate) struct ArmObs {
    pub(crate) weight: Gauge,
    pub(crate) snapshot: Text,
    pub(crate) version: Gauge,
    pub(crate) sessions: Gauge,
    pub(crate) acceptance_rate: Gauge,
    pub(crate) p50_us: Gauge,
    pub(crate) p95_us: Gauge,
    pub(crate) window_requests: Gauge,
    pub(crate) window_accepted: Gauge,
    pub(crate) window_rejected: Gauge,
    pub(crate) window_acceptance_rate: Gauge,
    pub(crate) window_mean_us: Gauge,
    /// Hot handles shared with the [`crate::split::TrafficSplit`].
    pub(crate) hot: ArmMetrics,
}

impl ArmObs {
    fn register(r: &Registry, arm: usize) -> ArmObs {
        let name = |suffix: &str| format!("arm{arm}_{suffix}");
        let weight = r.gauge(&name("weight"), "Traffic share routed to this arm");
        let snapshot = r.text(&name("snapshot"), "Snapshot label served by this arm");
        let version = r.gauge(&name("version"), "Snapshot version served by this arm");
        let sessions = r.gauge(&name("sessions"), "Live sessions sticky-assigned to this arm");
        let requests = r.counter(&name("requests"), "Proposals served through this arm");
        let accepted = r.counter(&name("accepted"), "Feedback events accepted on this arm");
        let rejected = r.counter(&name("rejected"), "Feedback events rejected on this arm");
        let acceptance_rate =
            r.gauge(&name("acceptance_rate"), "Lifetime accepted/(accepted+rejected)");
        let p50_us = r.gauge(&name("p50_us"), "Lifetime round-trip latency p50 (µs)");
        let p95_us = r.gauge(&name("p95_us"), "Lifetime round-trip latency p95 (µs)");
        let window_requests =
            r.gauge(&name("window_requests"), "Proposals served inside the sliding window");
        let window_accepted =
            r.gauge(&name("window_accepted"), "Feedback accepted inside the sliding window");
        let window_rejected =
            r.gauge(&name("window_rejected"), "Feedback rejected inside the sliding window");
        let window_acceptance_rate =
            r.gauge(&name("window_acceptance_rate"), "Acceptance rate over the sliding window");
        let window_mean_us = r
            .gauge(&name("window_mean_us"), "Mean round-trip latency (µs) over the sliding window");
        let latency =
            r.histogram(&name("latency_us"), "Round-trip latency histogram for this arm (µs)");
        ArmObs {
            weight,
            snapshot,
            version,
            sessions,
            acceptance_rate,
            p50_us,
            p95_us,
            window_requests,
            window_accepted,
            window_rejected,
            window_acceptance_rate,
            window_mean_us,
            hot: ArmMetrics::with_handles(requests, accepted, rejected, latency),
        }
    }
}

/// Online-trainer handles, all sampled from
/// [`crate::online::OnlineHandle::stats`] at scrape time (zeroes when
/// online training is off, so dashboards scrape one stable schema).
pub(crate) struct OnlineObs {
    pub(crate) enabled: Flag,
    pub(crate) events_logged: Counter,
    pub(crate) events_dropped: Counter,
    pub(crate) replay_len: Gauge,
    pub(crate) folds: Counter,
    pub(crate) examples: Counter,
    pub(crate) publishes: Counter,
    pub(crate) last_loss: Gauge,
    pub(crate) trainer_panics: Counter,
    pub(crate) trainer_alive: Flag,
}

impl OnlineObs {
    fn register(r: &Registry) -> OnlineObs {
        OnlineObs {
            enabled: r.flag("online_enabled", "Whether an online trainer is attached"),
            events_logged: r
                .counter("online_events_logged", "Feedback events logged to the replay buffer"),
            events_dropped: r
                .counter("online_events_dropped", "Feedback events dropped by the replay buffer"),
            replay_len: r
                .gauge("online_replay_len", "Feedback events resident in the replay buffer"),
            folds: r.counter("online_folds", "Online training folds completed"),
            examples: r.counter("online_examples", "Replay examples consumed by online folds"),
            publishes: r.counter("online_publishes", "Canary snapshots published by the trainer"),
            last_loss: r.gauge("online_last_loss", "Loss of the most recent online fold"),
            trainer_panics: r.counter("online_trainer_panics", "Online trainer panics survived"),
            trainer_alive: r.flag("online_trainer_alive", "Whether the trainer thread is alive"),
        }
    }
}

/// Per-request stage-timing histograms: one `stage_latency_us` family,
/// labelled by `stage` (`queue` wait → batch `assemble` → model
/// `forward` → response `encode`), `arm`, and `cached` (`hot` for the
/// incremental context-cache path, `cold` for the batched path).
/// Indexing is `[arm][cached as usize]`.
pub(crate) struct StageTimers {
    pub(crate) queue: [[Histogram; 2]; NUM_ARMS],
    pub(crate) assemble: [[Histogram; 2]; NUM_ARMS],
    pub(crate) forward: [[Histogram; 2]; NUM_ARMS],
    pub(crate) encode: [[Histogram; 2]; NUM_ARMS],
}

impl StageTimers {
    fn register(r: &Registry) -> StageTimers {
        const HELP: &str = "Per-request stage latency (µs) by stage, arm and cache path";
        let series = |stage: &str| -> [[Histogram; 2]; NUM_ARMS] {
            std::array::from_fn(|arm| {
                std::array::from_fn(|cached| {
                    let path = if cached == 1 { "hot" } else { "cold" };
                    let labels = format!("stage=\"{stage}\",arm=\"{arm}\",cached=\"{path}\"");
                    r.histogram_with_labels("stage_latency_us", HELP, &labels)
                })
            })
        };
        StageTimers {
            queue: series("queue"),
            assemble: series("assemble"),
            forward: series("forward"),
            encode: series("encode"),
        }
    }
}

/// Every metric the serving stack exports, plus the [`Registry`] that
/// renders them.  Owned by the [`crate::scheduler::Engine`] (one per
/// engine, shared with the HTTP frontend through `engine.metrics()`).
pub struct ServeMetrics {
    registry: Registry,
    // Scheduler hot-path counters.
    pub(crate) requests: Counter,
    pub(crate) batches: Counter,
    pub(crate) mean_batch: Gauge,
    pub(crate) gave_up: Counter,
    pub(crate) cache_hits: Counter,
    pub(crate) cache_misses: Counter,
    pub(crate) cache_invalidations: Counter,
    // Sampled at scrape time.
    pub(crate) cache_resident_bytes: Gauge,
    pub(crate) cache_evictions: Counter,
    pub(crate) sessions: Gauge,
    pub(crate) evicted_sessions: Counter,
    pub(crate) snapshot: Text,
    pub(crate) snapshot_version: Gauge,
    pub(crate) snapshot_params: Gauge,
    pub(crate) max_batch: Gauge,
    pub(crate) workers: Gauge,
    pub(crate) http_workers: Gauge,
    pub(crate) open_connections: Gauge,
    pub(crate) layout: Text,
    pub(crate) context_cache_budget_mb: Gauge,
    pub(crate) arms: [ArmObs; NUM_ARMS],
    pub(crate) online: OnlineObs,
    pub(crate) uptime_ms: Gauge,
    pub(crate) stages: StageTimers,
}

impl ServeMetrics {
    /// Register the full serving vocabulary on a fresh registry.
    pub fn new() -> ServeMetrics {
        let r = Registry::new();
        let requests = r.counter("requests", "Requests answered by the scheduler");
        let batches = r.counter("batches", "Batched forward passes issued");
        let mean_batch = r.gauge("mean_batch", "Mean coalesced batch size");
        let gave_up = r.counter("gave_up", "Requests the recommender could not extend a path for");
        let cache_hits = r.counter("cache_hits", "Context-cache prefix reuses");
        let cache_misses = r.counter("cache_misses", "Context-cache rebuilds from scratch");
        let cache_invalidations =
            r.counter("cache_invalidations", "Context caches outdated by a snapshot swap");
        let cache_resident_bytes =
            r.gauge("cache_resident_bytes", "Bytes of parked per-session context caches");
        let cache_evictions =
            r.counter("cache_evictions", "Context caches evicted to stay within the byte budget");
        let sessions = r.gauge("sessions", "Live sessions");
        let evicted_sessions =
            r.counter("evicted_sessions", "Sessions aged out by the TTL sweeper");
        let snapshot = r.text("snapshot", "Label of the stable snapshot");
        let snapshot_version = r.gauge("snapshot_version", "Version of the stable snapshot");
        let snapshot_params = r.gauge("snapshot_params", "Scalar parameter count of the snapshot");
        let max_batch = r.gauge("max_batch", "Configured largest coalesced batch");
        let workers = r.gauge("workers", "Most callers scoring batches at once");
        let http_workers = r.gauge("http_workers", "HTTP worker threads");
        let open_connections = r.gauge("open_connections", "Currently open client connections");
        let layout = r.text("layout", "Encoding layout the served models score with");
        let context_cache_budget_mb =
            r.gauge("context_cache_budget_mb", "Configured context-cache byte budget (MiB)");
        let arms = std::array::from_fn(|arm| ArmObs::register(&r, arm));
        let online = OnlineObs::register(&r);
        let uptime_ms = r.gauge("uptime_ms", "Milliseconds since server start");
        let stages = StageTimers::register(&r);
        ServeMetrics {
            registry: r,
            requests,
            batches,
            mean_batch,
            gave_up,
            cache_hits,
            cache_misses,
            cache_invalidations,
            cache_resident_bytes,
            cache_evictions,
            sessions,
            evicted_sessions,
            snapshot,
            snapshot_version,
            snapshot_params,
            max_batch,
            workers,
            http_workers,
            open_connections,
            layout,
            context_cache_budget_mb,
            arms,
            online,
            uptime_ms,
            stages,
        }
    }

    /// The registry backing both exposition endpoints.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Clones of the per-arm hot handles, for wiring a
    /// [`crate::split::TrafficSplit`] onto the registry.
    pub(crate) fn arm_handles(&self) -> [ArmMetrics; NUM_ARMS] {
        std::array::from_fn(|arm| self.arms[arm].hot.clone())
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_and_flat_visit_share_the_vocabulary() {
        let m = ServeMetrics::new();
        m.requests.add(2);
        m.arms[0].hot.record_request(std::time::Duration::from_micros(80));
        let mut keys = Vec::new();
        m.registry().visit_flat(|name, _| keys.push(name.to_string()));
        // Flat order opens with the scheduler block, exactly as the old
        // hand-written /v1/stats payload did.
        assert_eq!(
            &keys[..7],
            &[
                "requests",
                "batches",
                "mean_batch",
                "gave_up",
                "cache_hits",
                "cache_misses",
                "cache_invalidations"
            ]
        );
        assert_eq!(keys.last().map(String::as_str), Some("uptime_ms"));
        assert!(keys.iter().any(|k| k == "arm1_window_acceptance_rate"));
        // Histograms stay out of the flat view but render in exposition.
        assert!(!keys.iter().any(|k| k.contains("latency_us")));
        let mut text = Vec::new();
        m.registry().render_prometheus(&mut text);
        let text = String::from_utf8(text).unwrap();
        assert!(text.contains("# TYPE irs_arm0_latency_us histogram"), "{text}");
        assert!(
            text.contains(
                "irs_stage_latency_us_count{stage=\"forward\",arm=\"0\",cached=\"hot\"} 0"
            ),
            "{text}"
        );
        assert!(text.contains("irs_arm0_requests 1"), "{text}");
    }

    #[test]
    fn arm_handles_share_state_with_the_registry() {
        let m = ServeMetrics::new();
        let handles = m.arm_handles();
        handles[1].record_feedback(true);
        let mut seen = None;
        m.registry().visit_flat(|name, value| {
            if name == "arm1_accepted" {
                seen = Some(format!("{value:?}"));
            }
        });
        assert_eq!(seen.as_deref(), Some("Int(1)"));
    }
}
