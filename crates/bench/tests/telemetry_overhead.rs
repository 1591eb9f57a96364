//! Telemetry-plane gate (PR 10): scrape under load. While a dense
//! workload runs over a real loopback socket, a second connection scrapes
//! the full [`netllm::MetricsSnapshot`] (per-shard tick-phase histograms,
//! per-shard latency, per-label served counts, folded ingress counters)
//! and drains the event journal by cursor — the PR 10 acceptance path end
//! to end. Telemetry is always on (there is no off path to compare
//! against); what tracing costs is `perf`'s `harness.trace_overhead_share`.

use netllm::{serve, EventKind, FleetModels, IngressConfig, WireClient, TICK_PHASES};
use nt_bench::netload::{dense_socket, ObsStreams};

/// A remote reader sees the whole observability plane while load runs:
/// phase histograms fill, per-shard latency matches completions, labels
/// tally, ingress counters arrive folded into the same snapshot, and the
/// journal drains by cursor with monotonic sequence numbers.
#[test]
fn scrape_metrics_and_events_while_dense_load_runs() {
    const B: usize = 8;
    const ROUNDS: usize = 6;
    const SHARDS: usize = 2;

    let models = FleetModels::tiny(&std::env::temp_dir().join("netllm-telemetry-scrape"), 2);
    let handle = serve(models, IngressConfig { shards: SHARDS, ..IngressConfig::default() })
        .expect("serve ingress");
    let addr = handle.addr();

    let streams = ObsStreams::generate(B, ROUNDS, 0x7E1E);
    let load = std::thread::spawn(move || dense_socket(addr, B, ROUNDS, &streams));

    // Dedicated scrape connection, per the WireClient contract: no
    // submits in flight here, so every reply is the one we asked for.
    let mut scraper = WireClient::connect(addr).expect("connect scraper");
    let mut cursor = 0u64;
    let mut mid_load_scrapes = 0u32;
    let mut seen_tick_span = false;
    let mut last_seq_seen: Option<u64> = None;
    while !load.is_finished() {
        let snap = scraper.scrape_metrics().expect("scrape during load");
        assert_eq!(snap.shards.len(), SHARDS);
        let view = scraper.scrape_events(cursor).expect("drain during load");
        assert!(view.next_seq >= cursor, "cursor went backwards");
        for e in &view.events {
            assert!(e.seq >= cursor, "event from before the cursor");
            if let Some(prev) = last_seq_seen {
                assert!(e.seq > prev, "event seqs not strictly increasing across drains");
            }
            last_seq_seen = Some(e.seq);
            if matches!(e.kind, EventKind::TickSpan { .. }) {
                seen_tick_span = true;
            }
        }
        cursor = view.next_seq;
        mid_load_scrapes += 1;
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let decisions = load.join().expect("load thread");
    assert_eq!(decisions, (B * ROUNDS) as u64);
    assert!(mid_load_scrapes > 0, "never scraped while load was running");

    // Final settle scrape: everything served is attributed somewhere.
    let snap = scraper.scrape_metrics().expect("final scrape");
    let served: u64 = snap.shards.iter().map(|s| s.served).sum();
    assert_eq!(served, (B * ROUNDS) as u64);
    assert_eq!(snap.shard_phases.len(), SHARDS);
    for phases in &snap.shard_phases {
        assert_eq!(phases.len(), TICK_PHASES);
    }
    let step_samples: u64 =
        snap.shard_phases.iter().map(|p| p[netllm::TickPhase::PlanStep as usize].count).sum();
    assert!(step_samples > 0, "no plan+step phase samples recorded");
    let by_label: u64 = snap.served_by_label.iter().map(|(_, n)| n).sum();
    assert_eq!(by_label, served, "per-label served must cover every decision");
    // Satellite (a): ingress counters arrive folded into the snapshot.
    assert_eq!(snap.ingress.completions, (B * ROUNDS) as u64);
    assert_eq!(snap.ingress.protocol_errors, 0);
    assert!(snap.ingress.ticks > 0);
    let shard_lat: u64 = snap.shard_latency.iter().map(|l| l.count).sum();
    assert_eq!(shard_lat, snap.ingress_latency.count, "per-shard latency must total the fleet");

    let view = scraper.scrape_events(cursor).expect("final drain");
    assert!(
        seen_tick_span || view.events.iter().any(|e| matches!(e.kind, EventKind::TickSpan { .. })),
        "dense load produced no tick-span events"
    );
    // Exhausted journal: draining from the head returns an empty batch.
    let empty = scraper.scrape_events(view.next_seq).expect("drain at head");
    assert!(empty.events.is_empty());
    assert_eq!(empty.next_seq, view.next_seq);

    handle.shutdown();
}
