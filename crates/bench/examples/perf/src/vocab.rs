//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics.  `BENCHMARK.json` at the repository root is
//! rendered from these tables (`perf --list`), and a test keeps the two
//! identical.

/// One workload the benchmark can run.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses and bypasses.
    pub why: &'static str,
}

/// One reported metric.
pub struct MetricDef {
    /// Name in the result line and result file.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Relative worsening of the parent's median that counts as a
    /// regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// The command that runs the benchmark from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/examples/perf/Cargo.toml",
    "--",
];

/// Directories holding the benchmark.
pub const PATHS: &[&str] = &["crates/bench/examples/perf"];

/// Seconds each run measures.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "train",
        why: "IRN minibatch training: the autograd tape, matmul/GELU/softmax kernels and Adam do \
              the work; serving, the evaluator and the tape-free inference paths are bypassed",
    },
    WorkloadDef {
        name: "paths",
        why: "Algorithm 1 with IRN and Rec2Inf(SASRec), scored by the Bert4Rec evaluator: batched \
              tape-free inference and evaluator scoring, no autograd and no HTTP",
    },
    WorkloadDef {
        name: "serve_short",
        why: "HTTP sessions on 3-item histories stay inside IRN's T=20 window, so the context \
              cache hits and HTTP, JSON, sessions and batching dominate",
    },
    WorkloadDef {
        name: "serve_long",
        why:
            "HTTP sessions on full histories outgrow the window, so the cache is bypassed and cold \
              forwards dominate while the online trainer competes for the cores",
    },
];

/// Metrics every untraced run reports.  Their meaning per workload is
/// given in the README's metric dictionary.  On the shared 2-vCPU host
/// the baselines come from, host speed drifts by up to 20% between runs
/// minutes apart, so every bound is the 25% the benchmark format allows.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput", "1/s", "higher", 0.25),
    e2e("latency_p50_ms", "ms", "lower", 0.25),
    e2e("latency_tail_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Metrics every traced run reports.  Times are measured on every
/// workload; counts and shares of a layer a workload does not run read 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("data.build_s", "s", "lower"),
    layer("setup.fit_s", "s", "lower"),
    layer("train.step_ms", "ms", "lower"),
    layer("train.probe_coverage", "fraction", "higher"),
    layer("nn.embed.fwd_us", "us", "lower"),
    layer("nn.embed.bwd_us", "us", "lower"),
    layer("nn.attn.fwd_us", "us", "lower"),
    layer("nn.attn.bwd_us", "us", "lower"),
    layer("nn.ffn.fwd_us", "us", "lower"),
    layer("nn.ffn.bwd_us", "us", "lower"),
    layer("nn.norm.fwd_us", "us", "lower"),
    layer("nn.norm.bwd_us", "us", "lower"),
    layer("nn.head.fwd_us", "us", "lower"),
    layer("nn.head.bwd_us", "us", "lower"),
    layer("nn.loss.fwd_us", "us", "lower"),
    layer("nn.loss.bwd_us", "us", "lower"),
    layer("nn.optim_us", "us", "lower"),
    layer("tensor.matmul.gflops", "GFLOP/s", "higher"),
    layer("tensor.gelu_ns_per_elem", "ns", "lower"),
    layer("core.irn.score_next_batch_us", "us", "lower"),
    layer("embed.distance_ns", "ns", "lower"),
    layer("core.irn.rows_per_call", "rows", "higher"),
    layer("core.steps_per_path", "steps", "lower"),
    layer("core.irn.share", "fraction", "lower"),
    layer("core.rec2inf.share", "fraction", "lower"),
    layer("baselines.sasrec.share", "fraction", "lower"),
    layer("embed.distance_calls_per_step", "count", "lower"),
    layer("eval.share", "fraction", "lower"),
    layer("eval.rows_per_path", "rows", "lower"),
    layer("serve.cache_hit_ratio", "fraction", "higher"),
    layer("serve.cache_invalidations", "count", "lower"),
    layer("serve.mean_batch", "rows", "higher"),
    layer("serve.requests_per_session", "count", "lower"),
    layer("serve.stage.queue_share", "fraction", "lower"),
    layer("serve.stage.assemble_share", "fraction", "lower"),
    layer("serve.stage.forward_share", "fraction", "lower"),
    layer("serve.stage.encode_share", "fraction", "lower"),
    layer("serve.http_share", "fraction", "lower"),
    layer("online.folds", "count", "higher"),
    layer("online.examples", "count", "higher"),
    layer("online.publishes", "count", "higher"),
    layer("obs.trace_overhead", "fraction", "lower"),
];

fn quoted(items: &[&str]) -> String {
    items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
}

fn metric_lines(defs: &[MetricDef]) -> String {
    defs.iter()
        .map(|m| {
            let bound = m.bound.map(|b| format!(", \"bound\": {b}")).unwrap_or_default();
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

/// `BENCHMARK.json`, one entry per line.
pub fn benchmark_json() -> String {
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        quoted(PATHS),
        metric_lines(END_TO_END),
        metric_lines(PER_LAYER),
    )
}
