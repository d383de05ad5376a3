//! Every metric the benchmark reports, with its unit, and for the
//! per-layer metrics which end-to-end metric they should move on which
//! workload. `BENCHMARK.json` and the README list the same names; the
//! README also says how each is measured.

/// An end-to-end metric (reported with `--trace 0`).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
}

/// A per-layer metric (reported with `--trace 1`).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// Where it should move (and where it is predicted flat).
    pub workloads: &'static str,
}

/// The workloads, in the order the README lists them.
pub const WORKLOADS: [&str; 3] = ["generate", "chat_sessions", "verify"];

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
    },
    EndToEnd {
        name: "legality",
        unit: "ratio",
    },
    EndToEnd {
        name: "diversity",
        unit: "bits",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    workloads: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        moves,
        workloads,
    }
}

pub const PER_LAYER: [PerLayer; 28] = [
    layer(
        "rpc.overhead_us_p50",
        "us",
        "latency_p50_ms",
        "verify (small share on generate)",
    ),
    layer(
        "engine.queue_us_p50",
        "us",
        "latency_p99_ms",
        "chat_sessions, generate",
    ),
    layer(
        "engine.queue_us_p99",
        "us",
        "latency_p99_ms",
        "chat_sessions, generate",
    ),
    layer("engine.exec_us_p50", "us", "latency_p50_ms", "all"),
    layer(
        "engine.cache_hit_ratio",
        "ratio",
        "throughput_ops_s",
        "verify (0 on generate)",
    ),
    layer("wire.decode_us_p50", "us", "latency_p50_ms", "verify"),
    layer(
        "wire.request_bytes_p50",
        "bytes",
        "latency_p50_ms",
        "verify",
    ),
    layer(
        "wire.encode_us_p50",
        "us",
        "latency_p50_ms",
        "generate, chat_sessions",
    ),
    layer(
        "wire.reply_bytes_p50",
        "bytes",
        "latency_p50_ms",
        "generate, chat_sessions",
    ),
    layer(
        "diffusion.predict_x0_us",
        "us",
        "throughput_ops_s, latency_p50_ms",
        "generate, chat_sessions (flat on verify)",
    ),
    layer(
        "diffusion.predict_x0_calls_per_op",
        "count",
        "throughput_ops_s, latency_p50_ms",
        "generate, chat_sessions (flat on verify)",
    ),
    layer(
        "diffusion.sample_self_ms",
        "ms",
        "throughput_ops_s",
        "generate",
    ),
    layer(
        "extend.self_ms",
        "ms",
        "latency_p99_ms",
        "chat_sessions (extend turns set the tail)",
    ),
    layer(
        "agent.turn_nonsampler_ms",
        "ms",
        "latency_p50_ms",
        "chat_sessions",
    ),
    layer(
        "agent.tool_calls_per_turn",
        "count",
        "latency_p50_ms",
        "chat_sessions",
    ),
    layer(
        "legalize.solve_us_p50",
        "us",
        "throughput_ops_s, legality",
        "verify, chat_sessions",
    ),
    layer(
        "legalize.success_ratio",
        "ratio",
        "throughput_ops_s, legality",
        "verify, chat_sessions",
    ),
    layer(
        "drc.check_us_p50",
        "us",
        "throughput_ops_s",
        "verify, chat_sessions",
    ),
    layer(
        "metrics.evaluate_ms_p50",
        "ms",
        "throughput_ops_s",
        "verify",
    ),
    layer(
        "session.persist_us_p50",
        "us",
        "latency_p50_ms, latency_p99_ms",
        "chat_sessions (nothing else persists)",
    ),
    layer(
        "session.rehydrate_us_p50",
        "us",
        "latency_p50_ms, latency_p99_ms",
        "chat_sessions (nothing else persists)",
    ),
    layer(
        "session.snapshot_bytes_p50",
        "bytes",
        "latency_p50_ms, latency_p99_ms",
        "chat_sessions (nothing else persists)",
    ),
    layer(
        "session.spills_per_turn",
        "ratio",
        "latency_p99_ms",
        "chat_sessions",
    ),
    layer(
        "session.rehydrates_per_turn",
        "ratio",
        "latency_p99_ms",
        "chat_sessions",
    ),
    layer("dataset.build_ms", "ms", "setup_s", "all"),
    layer("diffusion.fit_ms", "ms", "setup_s", "all"),
    layer(
        "trace.residual_share",
        "ratio",
        "(makes unexplained time visible)",
        "all",
    ),
    layer("trace.overhead", "ratio", "(tracing cost)", "all"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let value: serde_json::Value = serde_json::from_str(json).expect("BENCHMARK.json parses");
        value
            .get(section)
            .and_then(|v| v.as_array())
            .expect("section is a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the benchmark directory on its own
        };
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layers);
        assert_eq!(names_in(&json, "workloads"), WORKLOADS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
