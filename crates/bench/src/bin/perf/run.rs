//! One workload, measured: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::calib::Speedometer;
use crate::schema::{END_TO_END, PER_LAYER};
use crate::spans::Rec;
use crate::workloads::{self, Block, Segment, Sizes, Workload, PHASE_KEYS};
use crate::{alloc, jsonio, probes, stats, sysinfo};
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Times set-up is repeated at least in an untraced run; `setup_s` is the
/// lower quartile, like every other time a run reports.
pub const SETUP_REPS: usize = 5;
/// Blocks a run measures at least, whatever its time budget.
const MIN_BLOCKS: usize = 3;

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: String,
    pub correct: bool,
    /// What the output check verified, or why it failed.
    pub check: String,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in schema order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Sample counts behind the medians.
    pub blocks: usize,
    /// Segments pooled (the fastest quarter).
    pub segments: usize,
    /// Latency samples in the pool.
    pub latency_samples: usize,
    pub tail_percentile: f64,
    /// Machine speed the time-like metrics were scaled by (1 for the
    /// traced run, whose metrics are raw).
    pub machine_speed: f64,
}

impl Outcome {
    /// The driver's result line.
    pub fn result_value(&self) -> Value {
        let mut metrics = Map::new();
        for &(name, value, unit) in &self.metrics {
            metrics.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
    }

    /// Every metric by name with its unit, then the check's verdict.
    pub fn print(&self) {
        for &(name, value, unit) in &self.metrics {
            println!("{:<14} {:<42} {:>16.6} {}", self.workload, name, value, unit);
        }
        println!(
            "{:<14} blocks={} pooled_segments={} latency_samples={} tail=p{} machine_speed={:.4} attempted={} failed={}",
            self.workload,
            self.blocks,
            self.segments,
            self.latency_samples,
            self.tail_percentile * 100.0,
            self.machine_speed,
            self.attempted,
            self.failed
        );
        let verdict = if self.correct { "ok" } else { "FAILED" };
        println!("{:<14} check {verdict}: {}", self.workload, self.check);
    }
}

/// Share of a run's segments it reports from: the fastest quarter. The
/// reference box is a small VM on a shared host; for stretches of a
/// second, sometimes minutes, identical code runs 20-40 % slower because
/// of its neighbours. That interference is one-sided — it can slow a
/// segment, never speed it up — so the fastest segments are the ones that
/// measured the program alone.
const FAST_SHARE: f64 = 0.25;

/// What the selected segments say, pooled.
struct Pooled {
    decisions_per_s: f64,
    p50_ms: f64,
    tail_ms: f64,
    tail_percentile: f64,
    cpu_us: f64,
    segments: usize,
    samples: usize,
}

/// Pool the fastest [`FAST_SHARE`] of the blocks' segments, ordered by
/// mean latency (in a closed loop that is by throughput, and it also
/// orders the open loop's slices, whose throughput is the offered rate).
fn pool_fastest(blocks: &[Block]) -> Pooled {
    let mut segs: Vec<(f64, &Segment)> = blocks
        .iter()
        .flat_map(|b| b.segments.iter())
        .map(|s| (stats::mean(&s.lat_ms), s))
        .collect();
    segs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite latencies"));
    let keep = ((segs.len() as f64 * FAST_SHARE).ceil() as usize).clamp(1, segs.len());
    let kept: Vec<&Segment> = segs[..keep].iter().map(|&(_, s)| s).collect();
    let decisions: u64 = kept.iter().map(|s| s.decisions).sum();
    let wall: f64 = kept.iter().map(|s| s.wall_s).sum();
    let cpu: f64 = kept.iter().map(|s| s.cpu_s).sum();
    let lat =
        stats::sorted(&kept.iter().flat_map(|s| s.lat_ms.iter().copied()).collect::<Vec<_>>());
    // p99 whenever ten samples lie beyond it; lower for smoke-sized runs.
    let tail_percentile = stats::tail_percentile(lat.len()).min(0.99);
    Pooled {
        decisions_per_s: decisions as f64 / wall,
        p50_ms: stats::percentile_sorted(&lat, 0.5),
        tail_ms: stats::percentile_sorted(&lat, tail_percentile),
        tail_percentile,
        cpu_us: cpu / decisions.max(1) as f64 * 1e6,
        segments: keep,
        samples: lat.len(),
    }
}

/// Blocks for `budget` (at least [`MIN_BLOCKS`]), a calibration reading
/// after each.
fn run_blocks(w: &mut dyn Workload, meter: &mut Speedometer, budget: Duration) -> Vec<Block> {
    let deadline = Instant::now() + budget;
    let mut off = Rec::new(false);
    let mut blocks = Vec::new();
    while blocks.len() < MIN_BLOCKS || Instant::now() < deadline {
        blocks.push(w.block(&mut off));
        meter.read();
    }
    blocks
}

fn finish_check(w: &mut dyn Workload, failed: u64) -> (bool, String) {
    match w.check() {
        Ok(what) if failed == 0 => (true, what),
        Ok(what) => (true, format!("{what}; {failed} requests failed or were refused")),
        Err(why) => (false, why),
    }
}

/// The untraced run: set up `setup_reps` times, measure blocks for
/// `seconds`, check outputs.
pub fn end_to_end(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
) -> Outcome {
    let mut meter = Speedometer::new();
    // Set up `setup_reps` times, and cheap set-ups more often (up to three
    // times as often within a second) so their median is of more than a
    // handful of millisecond-sized samples.
    let mut setup_s = Vec::with_capacity(3 * setup_reps);
    let mut current: Option<Box<dyn Workload>> = None;
    let first = Instant::now();
    while setup_s.len() < setup_reps.max(1)
        || (setup_s.len() < 3 * setup_reps && first.elapsed() < Duration::from_secs(1))
    {
        if let Some(prev) = current.take() {
            prev.finish();
        }
        meter.read();
        let t0 = Instant::now();
        let mut w = workloads::build(name, sizes, seed, false);
        w.warm();
        setup_s.push(t0.elapsed().as_secs_f64());
        current = Some(w);
    }
    let mut w = current.expect("set up at least once");

    meter.read();
    let blocks = run_blocks(w.as_mut(), &mut meter, Duration::from_secs_f64(seconds));
    let attempted: u64 = blocks.iter().map(|b| b.attempted).sum();
    let failed: u64 = blocks.iter().map(|b| b.failed).sum();
    let (correct, check) = finish_check(w.as_mut(), failed);
    // An open loop's throughput is its offered rate, whatever the machine.
    let throughput_speed = if w.offered_rate() { 1.0 } else { meter.speed() };
    w.finish();

    // Times are scaled to the reference box's speed (see `calib`): on a
    // machine running at 0.8 of it, 10 ms measured is 8 ms there.
    let pooled = pool_fastest(&blocks);
    let speed = meter.speed();
    let value = |metric: &str| match metric {
        "decisions_per_s" => pooled.decisions_per_s / throughput_speed,
        "latency_p50_ms" => pooled.p50_ms * speed,
        "latency_p99_ms" => pooled.tail_ms * speed,
        "cpu_us_per_decision" => pooled.cpu_us * speed,
        "peak_rss_mb" => sysinfo::peak_rss_mb(),
        "setup_s" => stats::percentile(&setup_s, 0.25) * speed,
        other => unreachable!("no measurement for end-to-end metric {other}"),
    };
    Outcome {
        workload: name.to_string(),
        correct,
        check,
        attempted,
        failed,
        metrics: END_TO_END.iter().map(|m| (m.name, value(m.name), m.unit)).collect(),
        blocks: blocks.len(),
        segments: pooled.segments,
        latency_samples: pooled.samples,
        tail_percentile: pooled.tail_percentile,
        machine_speed: speed,
    }
}

/// The traced run: blocks alternate untraced / traced (their ratio is the
/// tracing overhead), then the layer probes and the workload's own
/// extras. Spans stay in memory until the run ends.
pub fn traced(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    trace_out: Option<&std::path::Path>,
) -> Outcome {
    let mut w = workloads::build(name, sizes, seed, true);
    w.warm();

    let mut rec = Rec::new(true);
    let mut off = Rec::new(false);
    let mut meter = Speedometer::new();
    let (mut plain, mut with_trace): (Vec<Block>, Vec<Block>) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let (mut allocs, mut alloc_bytes, mut dispatches, mut tasks) = (0u64, 0u64, 0u64, 0u64);
    while with_trace.len() < 2 || Instant::now() < deadline {
        plain.push(w.block(&mut off));
        let (a0, pool0) = (alloc::totals(), netllm::pool_dispatch_snapshot());
        alloc::arm(true);
        with_trace.push(w.block(&mut rec));
        alloc::arm(false);
        let (a1, pool1) = (alloc::totals(), netllm::pool_dispatch_snapshot());
        allocs += a1.0 - a0.0;
        alloc_bytes += a1.1 - a0.1;
        dispatches += pool1.dispatches - pool0.dispatches;
        tasks += pool1.tasks - pool0.tasks;
        meter.read();
    }
    // Adjacent blocks share the machine's mood, so the overhead is judged
    // pair by pair.
    let plain_dps = stats::median(&plain.iter().map(Block::decisions_per_s).collect::<Vec<_>>());
    let overhead: Vec<f64> = plain
        .iter()
        .zip(&with_trace)
        .map(|(p, t)| 1.0 - t.decisions_per_s() / p.decisions_per_s())
        .collect();
    let decisions: u64 = with_trace.iter().map(Block::decisions).sum();
    let attempted: u64 = plain.iter().chain(&with_trace).map(|b| b.attempted).sum();
    let failed: u64 = plain.iter().chain(&with_trace).map(|b| b.failed).sum();
    let per_decision = |x: f64| x / decisions.max(1) as f64;

    let probe_budget = Duration::from_secs_f64((seconds * 0.01).clamp(0.002, 0.1));
    let probed = probes::run_all(&mut rec, sizes, seed, probe_budget);
    let extras = w.extras(&mut rec, plain_dps);
    let (correct, check) = finish_check(w.as_mut(), failed);
    w.finish();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.extend(probed);
    m.extend(extras);
    let ticks = rec.count("ticks");
    let phase_total: f64 = PHASE_KEYS.iter().map(|k| rec.count(k)).sum();
    let share = |k: &str| if phase_total > 0.0 { rec.count(k) / phase_total } else { 0.0 };
    let ingress_ticks = rec.count("ingress_ticks");
    m.extend([
        ("tensor.pool.dispatches_per_decision", per_decision(dispatches as f64)),
        (
            "tensor.pool.tasks_per_dispatch",
            if dispatches > 0 { tasks as f64 / dispatches as f64 } else { 0.0 },
        ),
        ("llm.paged.peak_used_share", rec.count("peak_used_share")),
        ("sched.queue_wait_ms_p50", rec.pct("queue_wait_ms", 0.5)),
        ("sched.busy_refusals", rec.count("busy_refusals")),
        ("shard.submit_us_p50", rec.pct("submit_us", 0.5)),
        ("shard.tick_ms_p50", rec.pct("tick_ms", 0.5)),
        ("shard.tick_ms_p99", rec.pct("tick_ms", 0.99)),
        ("shard.poll_us_p50", rec.pct("poll_us", 0.5)),
        (
            "shard.decisions_per_tick",
            if ticks > 0.0 { rec.count("tick_served") / ticks } else { 0.0 },
        ),
        ("shard.phase_share.drain", share(PHASE_KEYS[0])),
        ("shard.phase_share.plan_step", share(PHASE_KEYS[1])),
        ("shard.phase_share.settle", share(PHASE_KEYS[2])),
        ("shard.phase_share.memory_guard", share(PHASE_KEYS[3])),
        ("shard.phase_share.steer", share(PHASE_KEYS[4])),
        ("shard.evictions", rec.count("evictions")),
        ("shard.evicted_rebuild_rows", rec.count("evicted_rebuild_rows")),
        ("shard.deferrals", rec.count("deferrals")),
        ("shard.steered", rec.count("steered")),
        ("ingress.send_us_p50", rec.pct("send_us", 0.5)),
        ("ingress.grant_rtt_ms_p50", rec.pct("grant_rtt_ms", 0.5)),
        ("ingress.overhead_ms_mean", rec.mean("overhead_ms")),
        (
            "ingress.decisions_per_tick",
            if ingress_ticks > 0.0 {
                rec.count("ingress_completions") / ingress_ticks
            } else {
                0.0
            },
        ),
        ("ingress.busy", rec.count("ingress_busy")),
        ("ingress.protocol_errors", rec.count("ingress_protocol_errors")),
        ("metrics.scrape_rtt_ms_p50", rec.pct("scrape_rtt_ms", 0.5)),
        ("telemetry.events_dropped", rec.count("events_dropped")),
        ("fault.declare_ticks", rec.pct("declare_ticks", 0.5)),
        ("fault.recover_ms_p50", rec.pct("recover_ms", 0.5)),
        ("fault.sessions_recovered", rec.count("sessions_recovered")),
        ("fault.replay_rows", rec.count("replay_rows")),
        ("fault.tickets_failed", rec.count("tickets_failed")),
        ("fault.arrivals_requeued", rec.count("arrivals_requeued")),
        ("harness.sched_lag_ms_p99", rec.pct("sched_lag_ms", 0.99)),
        ("harness.trace_overhead_share", stats::median(&overhead)),
        ("harness.attribution_residual_share", rec.pct("residual_share", 0.5)),
        ("harness.failed_share", failed as f64 / attempted.max(1) as f64),
        ("harness.machine_speed", meter.speed()),
        ("alloc.count_per_decision", per_decision(allocs as f64)),
        ("alloc.bytes_per_decision", per_decision(alloc_bytes as f64)),
    ]);
    if let Some(path) = trace_out {
        rec.write_jsonl(path).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    for (layer, ns) in rec.self_time_by_layer() {
        println!(
            "{name:<14} self_time.{layer:<20} {:>16.3} ms over {} spans",
            ns as f64 / 1e6,
            rec.spans().len()
        );
    }

    let metrics =
        PER_LAYER.iter().map(|d| (d.name, m.remove(d.name).unwrap_or(0.0), d.unit)).collect();
    assert!(
        m.is_empty(),
        "measured metrics missing from the schema: {:?}",
        m.keys().collect::<Vec<_>>()
    );
    let pooled = pool_fastest(&with_trace);
    Outcome {
        workload: name.to_string(),
        correct,
        check,
        attempted,
        failed,
        metrics,
        blocks: with_trace.len(),
        segments: pooled.segments,
        latency_samples: pooled.samples,
        tail_percentile: pooled.tail_percentile,
        machine_speed: 1.0,
    }
}

/// Check a result line against the contract: exactly the four keys, every
/// metric of the run's kind present with its unit, nothing else.
pub fn validate_result(v: &Value, traced: bool) -> Result<(), String> {
    let Value::Object(top) = v else { return Err("result is not an object".into()) };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if !matches!(jsonio::get(v, "correct"), Some(Value::Bool(_))) {
        return Err("`correct` is not a boolean".into());
    }
    for k in ["attempted", "failed"] {
        let n = jsonio::num(v, k).ok_or(format!("`{k}` is not a number"))?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("`{k}` = {n} is not a whole number"));
        }
    }
    if jsonio::num(v, "attempted").unwrap_or(0.0) < 1.0 {
        return Err("`attempted` is below 1".into());
    }
    let Some(Value::Object(metrics)) = jsonio::get(v, "metrics") else {
        return Err("`metrics` is not an object".into());
    };
    let want: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
    };
    if metrics.len() != want.len() {
        return Err(format!("{} metrics where the schema has {}", metrics.len(), want.len()));
    }
    for (name, unit) in want {
        let entry = metrics.get(name).ok_or(format!("metric {name} is missing"))?;
        let value =
            jsonio::num(entry, "value").ok_or(format!("metric {name} has no numeric value"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if jsonio::get(entry, "unit") != Some(&Value::String(unit.to_string())) {
            return Err(format!("metric {name} does not carry unit {unit}"));
        }
        if !traced && value == 0.0 {
            return Err(format!("end-to-end metric {name} reads 0"));
        }
    }
    Ok(())
}
