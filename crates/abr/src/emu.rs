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
//! the sender's window starts at 10 packets of 1500 B and doubles each
//! round (slow start) until it saturates the per-round link capacity taken
//! from the bandwidth trace. [`run_emulated_session`] is
//! [`crate::sim::run_session`]'s loop with another fetch: only how long a
//! chunk takes to download differs, so the same [`AbrPolicy`]
//! implementations stream through it unchanged, chunk by chunk.
//!
//! Not modelled (documented limitation): packet loss, competing flows, and
//! queueing delay variation; the emulation captures first-order transport
//! timing, which is what shifts policy behaviour versus the simulator.

use crate::qoe::{ChunkRecord, SessionStats};
use crate::sim::{stream, AbrPolicy, RTT_SECS};
use crate::trace::BandwidthTrace;
use crate::video::Video;

/// Initial congestion window, in packets.
const INIT_WINDOW_PKTS: f64 = 10.0;
/// Packet size in bits (1500 B MSS).
const PKT_BITS: f64 = 12_000.0;

/// Time to transfer `megabits` starting at absolute time `t0` over an
/// emulated path with round-trip time `rtt_secs`, including the request
/// round trip. Sessions run at [`RTT_SECS`].
pub fn transfer_time(rtt_secs: f64, trace: &BandwidthTrace, t0: f64, megabits: f64) -> f64 {
    let mut remaining = megabits * 1e6; // bits
    let mut t = t0 + rtt_secs; // request RTT
    let mut elapsed = rtt_secs;
    let mut window_bits = INIT_WINDOW_PKTS * PKT_BITS;
    // RTT rounds; terminates because link capacity is > 0 every round.
    while remaining > 0.0 {
        let cap_bits = trace.at(t) * 1e6 * rtt_secs;
        let sent = window_bits.min(cap_bits).min(remaining);
        remaining -= sent;
        if remaining <= 0.0 {
            // Partial final round: time proportional to the fraction used.
            let frac = if sent > 0.0 { sent / window_bits.min(cap_bits).max(1.0) } else { 1.0 };
            elapsed += rtt_secs * frac.clamp(0.0, 1.0);
            break;
        }
        elapsed += rtt_secs;
        t += rtt_secs;
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
) -> (SessionStats, Vec<ChunkRecord>) {
    stream(policy, video, |time, size| {
        let download = transfer_time(RTT_SECS, trace, time, size);
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
        let trace = flat(100.0);
        // 10 packets fit in the initial window: request RTT + ~1 round.
        let t = transfer_time(RTT_SECS, &trace, 0.0, 10.0 * 12_000.0 / 1e6);
        assert!((RTT_SECS..=3.0 * RTT_SECS).contains(&t), "{t}");
    }

    #[test]
    fn large_transfer_approaches_link_rate() {
        let trace = flat(4.0);
        let megabits = 40.0;
        let t = transfer_time(RTT_SECS, &trace, 0.0, megabits);
        let ideal = megabits / 4.0;
        assert!(t > ideal, "must be slower than ideal");
        assert!(t < ideal * 1.5, "but within 50% for a long transfer: {t} vs {ideal}");
    }

    #[test]
    fn longer_rtt_hurts_small_transfers_more() {
        let trace = flat(8.0);
        let (short, long) = (0.02, 0.2);
        let small = 1.0; // megabit
        let ratio_small =
            transfer_time(long, &trace, 0.0, small) / transfer_time(short, &trace, 0.0, small);
        let big = 100.0;
        let ratio_big =
            transfer_time(long, &trace, 0.0, big) / transfer_time(short, &trace, 0.0, big);
        assert!(ratio_small > ratio_big, "RTT penalty must be relatively worse for small objects");
    }

    #[test]
    fn emulated_session_is_slower_than_ideal_sim() {
        let video = envivio_like(&mut Rng::seeded(1));
        let trace = flat(3.0);
        let (emu_stats, _) = run_emulated_session(&mut FixedRung(2), &video, &trace);
        let (sim_stats, _) = crate::sim::run_session(&mut FixedRung(2), &video, &trace);
        // Transport overhead can only hurt.
        assert!(emu_stats.qoe_per_chunk <= sim_stats.qoe_per_chunk + 1e-9);
    }

    #[test]
    fn bandwidth_changes_mid_transfer_are_respected() {
        // 10 Mbps for 1 s then 1 Mbps.
        let mut mbps = vec![10.0];
        mbps.extend(vec![1.0; 100]);
        let trace = BandwidthTrace::new("step", mbps);
        let fast = transfer_time(RTT_SECS, &trace, 0.0, 8.0);
        let slow = transfer_time(RTT_SECS, &trace, 1.0, 8.0);
        assert!(slow > fast, "starting after the drop must be slower");
    }
}
