//! Metric names, units and output formats — the benchmark's contract
//! with `BENCHMARK.json` (a unit test holds the two together).

use crate::harness::RunResult;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: name, unit, direction, bound (the share of the
/// parent's median by which the metric may worsen).
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Lower, 0.25),
    ("ops_per_s", "1/s", Higher, 0.10),
    ("op_us_p50", "us", Lower, 0.10),
    ("op_us_tail", "us", Lower, 0.20),
    ("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics: name, unit, direction. A metric whose layer a
/// workload never reaches reads 0 there.
pub const PER_LAYER: [(&str, &str, Better); 69] = [
    ("isa.parse_ns_per_frame", "ns", Lower),
    ("decode_cache.probe_ns", "ns", Lower),
    ("decode_cache.hits", "count", Higher),
    ("decode_cache.misses", "count", Lower),
    ("decode_cache.evictions", "count", Lower),
    ("decode_cache.invalidations", "count", Lower),
    ("decode_cache.hit_ratio", "ratio", Higher),
    ("protect.lookup_ns", "ns", Lower),
    ("protect.entries", "count", Lower),
    ("interp.ns_per_instr", "ns", Lower),
    ("runtime.instrs_per_frame", "count", Lower),
    ("runtime.passes_per_frame", "count", Lower),
    ("runtime.recirculations", "count", Lower),
    ("runtime.mem_accesses", "count", Lower),
    ("runtime.ns_per_frame", "ns", Lower),
    ("runtime.fixed_ns_per_frame", "ns", Lower),
    ("runtime.passthrough_ns_per_frame", "ns", Lower),
    ("runtime.allocs_per_frame", "count", Lower),
    ("runtime.drops_malformed", "count", Lower),
    ("runtime.drops_violation", "count", Lower),
    ("pool.enqueue_ns_per_frame", "ns", Lower),
    ("pool.drain_wait_ns_per_round", "ns", Lower),
    ("pool.worker_busy_share", "ratio", Higher),
    ("pool.overhead_ns_per_frame", "ns", Lower),
    ("pool.batches", "count", Lower),
    ("pool.handoffs", "count", Lower),
    ("pool.bytes_per_worker", "B", Lower),
    ("switch.handle_frame_ns", "ns", Lower),
    ("switch.poll_us", "us", Lower),
    ("sim.overhead_ns_per_frame", "ns", Lower),
    ("sim.delivered", "count", Higher),
    ("sim.lost", "count", Lower),
    ("sim.realloc_rounds", "count", Lower),
    ("sim.first_hit_virt_ms", "ms", Lower),
    ("client.compile_us", "us", Lower),
    ("client.synthesize_us", "us", Lower),
    ("client.request_ns", "ns", Lower),
    ("client.template_hit_ratio", "ratio", Higher),
    ("alloc.admit_us_p50", "us", Lower),
    ("alloc.admit_us_tail", "us", Lower),
    ("alloc.compute_share", "ratio", Lower),
    ("alloc.mutants_considered", "count", Lower),
    ("alloc.feasible_candidates", "count", Lower),
    ("alloc.victims_per_admit", "count", Lower),
    ("alloc.utilization", "ratio", Higher),
    ("alloc.rejected", "count", Lower),
    ("analysis.verify_us", "us", Lower),
    ("controller.verify_accepted", "count", Higher),
    ("controller.verify_rejected", "count", Lower),
    ("controller.optimizer.cache_hits", "count", Higher),
    ("controller.optimizer.cache_misses", "count", Lower),
    ("controller.request_us", "us", Lower),
    ("controller.poll_us", "us", Lower),
    ("controller.snapshot_ack_us", "us", Lower),
    ("controller.reactivate_ack_us", "us", Lower),
    ("controller.dealloc_us", "us", Lower),
    ("controller.table_update_ns", "ns", Lower),
    ("controller.victims", "count", Lower),
    ("controller.queue_len_max", "count", Lower),
    ("oplog.records", "count", Lower),
    ("oplog.bytes", "B", Lower),
    ("oplog.recover_ms", "ms", Lower),
    ("oplog.reconcile_us", "us", Lower),
    ("telemetry.bound_ns_per_frame", "ns", Lower),
    ("telemetry.snapshot_us", "us", Lower),
    ("bench.disturbance", "ratio", Lower),
    ("bench.trace_overhead", "ratio", Lower),
    ("bench.gen_s", "s", Lower),
    ("bench.unexplained_ns_per_frame", "ns", Lower),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count and percentile, printed beside the value.
    pub note: String,
}

/// The five end-to-end metrics of a run.
pub fn end_to_end(r: &RunResult, tail_pct: f64) -> Vec<Metric> {
    let per_slice = format!("n={}", r.slices);
    let ops = format!("n={}x{}", r.slices, r.ops_per_slice);
    let values = [
        (r.setup_s, per_slice.clone()),
        (r.ops_per_s, per_slice.clone()),
        (r.op_us_p50, ops.clone()),
        (r.op_us_tail, format!("p{}, {ops}", tail_pct * 100.0)),
        (r.peak_rss_mb, per_slice),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), (value, note))| Metric {
            name,
            value,
            unit,
            note,
        })
        .collect()
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `workload/metric value unit (note)`.
pub fn line(workload: &str, m: &Metric) -> String {
    format!(
        "{workload}/{} {} {} ({})",
        m.name,
        finite(m.value),
        m.unit,
        m.note
    )
}

/// The result object the contract prescribes: exactly `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Where and on what the run happened: `(key, value)` pairs.
pub fn meta(seed: u64) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    vec![
        ("git_sha", env("BENCH_GIT_SHA")),
        ("rustc", env("BENCH_RUSTC")),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZero::get)
                .to_string(),
        ),
        ("seed", seed.to_string()),
        ("workers", crate::dp::pool_workers().to_string()),
    ]
}

/// Pull `"name": {"value": X` out of a result line (the runner reads
/// its children's output; no JSON library is vendored).
pub fn value_in(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pull a top-level scalar (`"correct": true`, `"failed": 0`) out of a
/// result line.
pub fn scalar_in<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "setup_s",
                value: 0.021_729_695,
                unit: "s",
                note: "n=49".into(),
            },
            Metric {
                name: "ops_per_s",
                value: 4_019_643.727_057_873_7,
                unit: "1/s",
                note: "n=49".into(),
            },
        ];
        let json = result_json(true, 655_360, 0, &metrics);
        assert!(json.starts_with(
            "{\"correct\": true, \"attempted\": 655360, \"failed\": 0, \"metrics\": {"
        ));
        assert_eq!(value_in(&json, "setup_s"), Some(0.021_729_695));
        assert_eq!(value_in(&json, "ops_per_s"), Some(4_019_643.727_057_873_7));
        assert_eq!(scalar_in(&json, "correct"), Some("true"));
        assert_eq!(scalar_in(&json, "failed"), Some("0"));
        assert_eq!(value_in(&json, "absent"), None);
        assert_eq!(
            line("dp_short", &metrics[0]),
            "dp_short/setup_s 0.021729695 s (n=49)"
        );
        // A division by zero somewhere must not break the JSON.
        let bad = Metric {
            name: "x",
            value: f64::NAN,
            unit: "s",
            note: String::new(),
        };
        assert_eq!(value_in(&result_json(true, 1, 0, &[bad]), "x"), Some(0.0));
    }
}
