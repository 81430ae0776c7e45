//! # irs_serve — online recommendation serving
//!
//! The paper's IRN is an *interactive* recommender: it re-plans a
//! persuasion path step by step as the user accepts or rejects items.
//! This crate turns the offline engines built for that protocol
//! (`Irn::score_next_batch`, `InfluenceRecommender::next_items_into`)
//! into an online service for concurrent live traffic:
//!
//! * [`SessionStore`] — a sharded concurrent map of per-user
//!   [`irs_core::InteractiveSession`] state (history ⊕ accepted path,
//!   objective, rejection blocklist);
//! * [`Engine`] — a **dynamic micro-batching scheduler**: worker threads
//!   drain a bounded request queue under a work-conserving policy (take
//!   whatever is queued, up to a max batch size, and never wait for
//!   more) and coalesce concurrent `next_item` requests from different
//!   sessions into single batched
//!   [`InfluenceRecommender::next_items_into`] calls, sharing one PIM cache
//!   per model snapshot;
//! * [`SnapshotRegistry`] — atomically hot-swappable model snapshots
//!   loaded from `IRSP` files through the architecture-checked
//!   `ParamStore::load_parameters` path, so a running server picks up a
//!   retrained model without restart;
//! * [`HttpServer`] — a hand-rolled HTTP/1.1 keep-alive frontend on
//!   `std::net::TcpListener` (no third-party dependencies): a bounded
//!   worker pool plus a single readiness poller multiplex every
//!   connection (idle sessions cost a parked socket, not a thread), and
//!   each worker's reusable [`RequestWorkspace`] makes the steady-state
//!   request path allocation-free;
//! * one JSON grammar: the arena parser [`JsonSlab`] reads request bodies,
//!   and [`JsonValue::parse`] is the same parser building an owned tree;
//! * [`HttpClient`] — the one blocking HTTP/1.1 client that `serve_load`,
//!   the serving bench and the HTTP tests drive the frontend with.
//!
//! ## Why micro-batching is safe
//!
//! The scheduler regroups requests arbitrarily: which sessions share a
//! forward pass depends on arrival timing.  That is unobservable in the
//! recommendations because the workspace's batched≡scalar contract makes
//! every batched score *bitwise* identical to the scalar graph path —
//! batch composition cannot leak into the results.  The scheduler-level
//! property tests in `tests/scheduler_properties.rs` pin this end to end:
//! random session mixes and arrival orders produce exactly the
//! recommendations per-session scalar `next_item` calls produce.
//!
//! [`InfluenceRecommender::next_items_into`]: irs_core::InfluenceRecommender::next_items_into

mod client;
mod conn;
mod http;
mod json;
mod metrics;
mod online;
mod pool;
mod scheduler;
mod session;
mod snapshot;
mod split;
mod workspace;

pub use client::{HttpClient, HttpResponse};
pub use http::{layout_name, HttpServer, ServerConfig, ServerHandle};
pub use json::{
    write_json_num, write_json_str, JsonError, JsonRef, JsonSlab, JsonValue, MAX_DEPTH,
};
pub use metrics::ServeMetrics;
pub use online::{
    FeedbackEvent, FoldOutcome, ForcePublishError, IrnOnlineLearner, OnlineConfig, OnlineHandle,
    OnlineLearner, OnlineStatsView, ReplayBuffer,
};
pub use scheduler::{BatchPolicy, Engine, EngineCaller, StatsSnapshot};
pub use session::{SessionId, SessionPin, SessionStore};
pub use snapshot::{
    IrnArchitecture, ModelSnapshot, SnapshotLoader, SnapshotRegistry, CANARY_ARM, NUM_ARMS,
};
pub use split::{
    ArmMetrics, LatencyHistogram, TrafficSplit, ARM_WINDOW_BUCKET, ARM_WINDOW_BUCKETS,
};
pub use workspace::RequestWorkspace;
