//! Client-server link emulator — the "real-world test" substitute (Fig 14).
//!
//! The paper's real-world evaluation runs dash.js against an Apache server
//! through mahimahi-emulated links (broadband + cellular traces, 80 ms
//! RTT). What that adds over the chunk simulator is *transport dynamics*:
//! every chunk request pays a round trip, and the transfer ramps up over
//! several RTTs (congestion-window growth) before it is link-limited —
//! small chunks on long-RTT paths never reach link rate.
//!
//! This module reproduces those dynamics with an RTT-round transfer model:
//! the sender's window starts at `IW` packets and doubles each round
//! (slow start) until it saturates the per-round link capacity taken from
//! the bandwidth trace. [`run_emulated_session`] is
//! [`crate::sim::run_session`]'s loop with another fetch: only how long a
//! chunk takes to download differs, so the same [`AbrPolicy`]
//! implementations stream through it unchanged, chunk by chunk.
//!
//! Not modelled (documented limitation): packet loss, competing flows, and
//! queueing delay variation; the emulation captures first-order transport
//! timing, which is what shifts policy behaviour versus the simulator.

use crate::qoe::{ChunkRecord, QoeWeights, SessionStats};
use crate::sim::{stream, AbrPolicy, SimConfig};
use crate::trace::BandwidthTrace;
use crate::video::Video;

/// Transport parameters of the emulated path.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    pub rtt_secs: f64,
    /// Initial congestion window, in packets.
    pub init_window_pkts: u32,
    /// Packet size in bits (1500 B MSS).
    pub pkt_bits: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig { rtt_secs: 0.08, init_window_pkts: 10, pkt_bits: 12_000.0 }
    }
}

/// Time to transfer `megabits` starting at absolute time `t0` over the
/// emulated path, including the request round trip.
pub fn transfer_time(link: &LinkConfig, trace: &BandwidthTrace, t0: f64, megabits: f64) -> f64 {
    let mut remaining = megabits * 1e6; // bits
    let mut t = t0 + link.rtt_secs; // request RTT
    let mut elapsed = link.rtt_secs;
    let mut window_bits = link.init_window_pkts as f64 * link.pkt_bits;
    // RTT rounds; terminates because link capacity is > 0 every round.
    while remaining > 0.0 {
        let cap_bits = trace.at(t) * 1e6 * link.rtt_secs;
        let sent = window_bits.min(cap_bits).min(remaining);
        remaining -= sent;
        if remaining <= 0.0 {
            // Partial final round: time proportional to the fraction used.
            let frac = if sent > 0.0 { sent / window_bits.min(cap_bits).max(1.0) } else { 1.0 };
            elapsed += link.rtt_secs * frac.clamp(0.0, 1.0);
            break;
        }
        elapsed += link.rtt_secs;
        t += link.rtt_secs;
        if window_bits < cap_bits {
            window_bits *= 2.0; // slow start
        } else {
            window_bits = cap_bits; // link-limited steady state
        }
    }
    elapsed
}

/// Stream one session through the emulated path: the loop of
/// [`crate::sim::run_session`], with each chunk's download timed by
/// [`transfer_time`]. That time includes the request round trip, so the
/// throughput estimate divides by all of it.
pub fn run_emulated_session(
    policy: &mut dyn AbrPolicy,
    video: &Video,
    trace: &BandwidthTrace,
    link: &LinkConfig,
    cfg: &SimConfig,
    weights: &QoeWeights,
) -> (SessionStats, Vec<ChunkRecord>) {
    stream(policy, video, cfg, weights, |time, size| {
        let download = transfer_time(link, trace, time, size);
        (download, download)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FixedRung;
    use crate::video::envivio_like;
    use nt_tensor::Rng;

    fn flat(mbps: f64) -> BandwidthTrace {
        BandwidthTrace::new("flat", vec![mbps; 600])
    }

    #[test]
    fn small_transfer_is_rtt_dominated() {
        let link = LinkConfig::default();
        let trace = flat(100.0);
        // 10 packets fit in the initial window: request RTT + ~1 round.
        let t = transfer_time(&link, &trace, 0.0, 10.0 * 12_000.0 / 1e6);
        assert!(t >= link.rtt_secs && t <= 3.0 * link.rtt_secs, "{t}");
    }

    #[test]
    fn large_transfer_approaches_link_rate() {
        let link = LinkConfig::default();
        let trace = flat(4.0);
        let megabits = 40.0;
        let t = transfer_time(&link, &trace, 0.0, megabits);
        let ideal = megabits / 4.0;
        assert!(t > ideal, "must be slower than ideal");
        assert!(t < ideal * 1.5, "but within 50% for a long transfer: {t} vs {ideal}");
    }

    #[test]
    fn longer_rtt_hurts_small_transfers_more() {
        let trace = flat(8.0);
        let short = LinkConfig { rtt_secs: 0.02, ..Default::default() };
        let long = LinkConfig { rtt_secs: 0.2, ..Default::default() };
        let small = 1.0; // megabit
        let ratio_small =
            transfer_time(&long, &trace, 0.0, small) / transfer_time(&short, &trace, 0.0, small);
        let big = 100.0;
        let ratio_big =
            transfer_time(&long, &trace, 0.0, big) / transfer_time(&short, &trace, 0.0, big);
        assert!(ratio_small > ratio_big, "RTT penalty must be relatively worse for small objects");
    }

    #[test]
    fn emulated_session_is_slower_than_ideal_sim() {
        let video = envivio_like(&mut Rng::seeded(1));
        let trace = flat(3.0);
        let link = LinkConfig::default();
        let (emu_stats, _) = run_emulated_session(
            &mut FixedRung(2),
            &video,
            &trace,
            &link,
            &SimConfig::default(),
            &QoeWeights::default(),
        );
        let (sim_stats, _) = crate::sim::run_session(
            &mut FixedRung(2),
            &video,
            &trace,
            &SimConfig::default(),
            &QoeWeights::default(),
        );
        // Transport overhead can only hurt.
        assert!(emu_stats.qoe_per_chunk <= sim_stats.qoe_per_chunk + 1e-9);
    }

    #[test]
    fn bandwidth_changes_mid_transfer_are_respected() {
        let link = LinkConfig::default();
        // 10 Mbps for 1 s then 1 Mbps.
        let mut mbps = vec![10.0];
        mbps.extend(vec![1.0; 100]);
        let trace = BandwidthTrace::new("step", mbps);
        let fast = transfer_time(&link, &trace, 0.0, 8.0);
        let slow = transfer_time(&link, &trace, 1.0, 8.0);
        assert!(slow > fast, "starting after the drop must be slower");
    }
}
