//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds. `BENCHMARK.json` at the repo
//! root is `perf --benchmark-json` of this table; `--compare` reads the
//! bounds from here.

use serde_json::{json, Value};

/// Seconds one run measures when `--seconds` is not given (and the
/// `run_seconds` written into `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// Standalone build + run, as the driver invokes it from a checkout root.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "crates/bench/src/bin/perf/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/bench/src/bin/perf"];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names are final: later issues refer to them.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "single_stream",
        why: "1 ABR session, 1 shard, in-process closed loop: per-decision llm/nn/tensor cost with batching, shards and sockets bypassed",
    },
    WorkloadDef {
        name: "dense_direct",
        why: "64 mixed sessions on 4 shards, in-process rounds: the serving core at full batch; wire and ingress do nothing",
    },
    WorkloadDef {
        name: "dense_socket",
        why: "dense_direct's fleet over one loopback connection, window 1: the difference to dense_direct is wire + ingress at saturation",
    },
    WorkloadDef {
        name: "open_socket",
        why: "Poisson arrivals at 2000 decisions/s over the socket, timed from the due time: small ragged batches, ingress coalescing and queue wait dominate",
    },
    WorkloadDef {
        name: "paged_tight",
        why: "64 ABR sessions under a 40% page budget: paged KV, memory guard, eviction pricing and re-anchor prefill do the work",
    },
    WorkloadDef {
        name: "shard_kill",
        why: "episodes of a 64-session fleet losing shard 0 mid-tick: fault detection, recovery replay and the through-fault rate",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the fleet sees. `failed_share` is not here because the
/// driver's metrics must never read 0: failures travel in the result
/// line's `failed` / `attempted` and as `harness.failed_share`.
pub const END_TO_END: [EndToEndDef; 6] = [
    EndToEndDef { name: "decisions_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEndDef { name: "latency_p50_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "latency_p99_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "cpu_us_per_decision", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEndDef { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
    EndToEndDef { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, better: Better::Higher }
}

const fn lo(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, better: Better::Lower }
}

/// Per-layer metrics of the traced run; layer = module name. A metric
/// whose layer the workload does not exercise reads 0.
pub const PER_LAYER: [LayerDef; 69] = [
    hi("tensor.matmul_gmacs.dense", "GMAC/s"),
    hi("tensor.matmul_gmacs.single", "GMAC/s"),
    lo("tensor.pool.dispatches_per_decision", "count"),
    hi("tensor.pool.tasks_per_dispatch", "count"),
    lo("nn.attention_us.kv128", "us"),
    lo("nn.attention_us.kv128_paged", "us"),
    lo("llm.append_us_per_row.decode", "us"),
    lo("llm.append_us_per_row.prefill", "us"),
    lo("llm.paged.alloc_release_ns_per_page", "ns"),
    lo("llm.paged.peak_used_share", "share"),
    lo("multimodal.plan_step_us.abr", "us"),
    lo("multimodal.plan_step_us.cjs", "us"),
    lo("multimodal.plan_step_us.vp", "us"),
    lo("heads.settle_step_us.abr", "us"),
    lo("heads.settle_step_us.cjs", "us"),
    lo("heads.settle_step_us.vp", "us"),
    lo("backbone.append_batched_us_per_row", "us"),
    lo("serving.step_ms.b16", "ms"),
    lo("serving.rows_per_decision", "count"),
    lo("serving.self_share", "share"),
    lo("sched.queue_push_drain_ns", "ns"),
    lo("sched.place_ns", "ns"),
    lo("sched.queue_wait_ms_p50", "ms"),
    lo("sched.busy_refusals", "count"),
    lo("shard.submit_us_p50", "us"),
    lo("shard.tick_ms_p50", "ms"),
    lo("shard.tick_ms_p99", "ms"),
    lo("shard.poll_us_p50", "us"),
    hi("shard.decisions_per_tick", "count"),
    lo("shard.phase_share.drain", "share"),
    lo("shard.phase_share.plan_step", "share"),
    lo("shard.phase_share.settle", "share"),
    lo("shard.phase_share.memory_guard", "share"),
    lo("shard.phase_share.steer", "share"),
    lo("shard.evictions", "count"),
    lo("shard.evicted_rebuild_rows", "count"),
    lo("shard.deferrals", "count"),
    lo("shard.steered", "count"),
    lo("wire.encode_ns.submit", "ns"),
    lo("wire.decode_ns.submit", "ns"),
    lo("wire.encode_ns.completion", "ns"),
    lo("wire.decode_ns.completion", "ns"),
    lo("wire.bytes_per_decision", "count"),
    lo("ingress.send_us_p50", "us"),
    lo("ingress.grant_rtt_ms_p50", "ms"),
    lo("ingress.overhead_ms_mean", "ms"),
    hi("ingress.decisions_per_tick", "count"),
    lo("ingress.busy", "count"),
    lo("ingress.protocol_errors", "count"),
    hi("ingress.socket_over_direct", "share"),
    lo("ingress.sweep_p99_ms.r1000", "ms"),
    lo("ingress.sweep_p99_ms.r2000", "ms"),
    lo("ingress.sweep_p99_ms.r4000", "ms"),
    hi("ingress.max_rate_meeting_slo", "1/s"),
    lo("metrics.scrape_rtt_ms_p50", "ms"),
    lo("telemetry.events_dropped", "count"),
    lo("fault.declare_ticks", "count"),
    lo("fault.recover_ms_p50", "ms"),
    lo("fault.sessions_recovered", "count"),
    lo("fault.replay_rows", "count"),
    lo("fault.tickets_failed", "count"),
    lo("fault.arrivals_requeued", "count"),
    lo("harness.sched_lag_ms_p99", "ms"),
    lo("harness.trace_overhead_share", "share"),
    lo("harness.attribution_residual_share", "share"),
    lo("harness.failed_share", "share"),
    hi("harness.machine_speed", "share"),
    lo("alloc.count_per_decision", "count"),
    lo("alloc.bytes_per_decision", "count"),
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The document written to `BENCHMARK.json` (exactly the contract's keys).
pub fn benchmark_json() -> Value {
    let workloads: Vec<Value> =
        WORKLOADS.iter().map(|w| json!({"name": w.name, "why": w.why})).collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({"name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound})
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    let command: Vec<&str> = COMMAND.to_vec();
    let paths: Vec<&str> = PATHS.to_vec();
    json!({
        "command": command,
        "paths": paths,
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}` — the contract's name rule.
#[cfg(test)]
fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

/// At most 16 of letters, digits, `_ / % . -`.
#[cfg(test)]
fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn schema_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{} [{}]", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{} [{}]", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|c| c.len() <= 200));
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_schema() {
        // Walk up from the package root (crates/bench under the workspace,
        // this directory standalone) to the repo root.
        let mut dir = std::env::current_dir().unwrap();
        let path = loop {
            let p = dir.join("BENCHMARK.json");
            if p.exists() {
                break p;
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the package root");
        };
        let on_disk = crate::jsonio::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(on_disk, benchmark_json(), "regenerate with `perf --benchmark-json`");
    }
}
