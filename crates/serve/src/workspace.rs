//! Per-worker request workspace.
//!
//! Every HTTP worker owns one [`RequestWorkspace`] for its whole
//! lifetime.  All the scratch space a request needs lives here — the
//! JSON parse arena, the response-body staging buffer, the scheduler
//! round-trip slot with its query staging buffers — and is *reset, not
//! reallocated*, between requests.  Together with the per-connection
//! I/O buffers ([`crate::conn::Conn`]) this makes the steady-state
//! request path allocation-free: after warm-up, serving a `next` request
//! touches no allocator at all (guarded by the `alloc_steady`
//! integration test).

use crate::json::JsonSlab;
use crate::scheduler::EngineCaller;

/// The default response content type; handlers that serve something
/// else (the Prometheus exposition endpoint) override
/// [`RequestWorkspace::content_type`] per request.
pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";

/// Reusable per-worker scratch space (see module docs).
pub struct RequestWorkspace {
    /// Arena the request body is parsed into (nodes + decoded text are
    /// reused across requests).
    pub slab: JsonSlab,
    /// Response body staging buffer; the response head is written once
    /// the body length is known.
    pub body: Vec<u8>,
    /// `Content-Type` of the staged body (reset to JSON per request;
    /// static so setting it never allocates).
    pub(crate) content_type: &'static str,
    /// Scheduler round-trip workspace: reply slot + query staging
    /// buffers that travel with the queued request and come back.
    pub caller: EngineCaller,
}

impl RequestWorkspace {
    /// A fresh workspace (all one-time allocations happen lazily as the
    /// first requests size the buffers).
    pub fn new() -> Self {
        RequestWorkspace {
            slab: JsonSlab::default(),
            body: Vec::new(),
            content_type: CONTENT_TYPE_JSON,
            caller: EngineCaller::new(),
        }
    }
}

impl Default for RequestWorkspace {
    fn default() -> Self {
        Self::new()
    }
}
