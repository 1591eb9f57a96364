//! Chunk-level streaming simulator (Pensieve mechanics).
//!
//! The client downloads chunks sequentially; each download drains the
//! playback buffer at real time and refills it by one chunk duration on
//! completion. Downloads slower than the remaining buffer cause rebuffering;
//! a full buffer ([`BUFFER_CAP_SECS`]) makes the client idle before the next
//! request. A fixed per-request RTT ([`RTT_SECS`]) models the HTTP round
//! trip. Playback starts from an empty buffer.

use crate::qoe::{session_stats, ChunkRecord, SessionStats};
use crate::trace::BandwidthTrace;
use crate::video::{Video, CHUNK_SECS};

/// Round-trip time of every chunk request (s), in the simulator and the
/// emulator alike.
pub const RTT_SECS: f64 = 0.08;
/// Playback buffer capacity (s of content).
pub const BUFFER_CAP_SECS: f64 = 60.0;

/// Everything a policy may observe before choosing the next chunk's rung.
/// Mirrors the Pensieve/GENET state (Table 1: time-series throughput +
/// delay, sequence of next-chunk sizes, scalar buffer).
#[derive(Clone, Debug)]
pub struct AbrObservation {
    /// Past chunk throughputs, most recent last (Mbps), up to `HIST`.
    pub throughput_hist: Vec<f64>,
    /// Past chunk download times (s), aligned with `throughput_hist`.
    pub delay_hist: Vec<f64>,
    /// Sizes of the *next* chunk at each rung (megabits).
    pub next_sizes: Vec<f64>,
    /// Current buffer occupancy (s).
    pub buffer_secs: f64,
    /// Rung of the previously downloaded chunk, if any.
    pub last_rung: Option<usize>,
    /// Fraction of chunks remaining (1.0 at start, ~0 at end).
    pub remain_frac: f64,
    /// The ladder in Mbps (for policies that reason about bitrates).
    pub ladder_mbps: Vec<f64>,
    /// Index of the chunk about to be requested.
    pub chunk_index: usize,
}

impl AbrObservation {
    /// Deterministic synthetic observation stream: `len` open-loop
    /// observations over the standard 6-rung ladder, with uniformly drawn
    /// throughput/delay histories and buffer levels. Open loop means the
    /// observations do not depend on the policy's actions, which is what
    /// the serving equivalence tests and throughput benches need — every
    /// path sees byte-identical inputs.
    pub fn synthetic_stream(seed: u64, len: usize) -> Vec<AbrObservation> {
        let mut rng = nt_tensor::Rng::seeded(seed);
        (0..len)
            .map(|i| AbrObservation {
                throughput_hist: (0..HIST).map(|_| rng.uniform(0.5, 6.0) as f64).collect(),
                delay_hist: (0..HIST).map(|_| rng.uniform(0.5, 3.0) as f64).collect(),
                next_sizes: (0..6).map(|r| 0.4 + 0.3 * r as f64).collect(),
                buffer_secs: rng.uniform(2.0, 25.0) as f64,
                last_rung: (i > 0).then_some(0),
                remain_frac: 1.0 - i as f64 / len.max(1) as f64,
                ladder_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
                chunk_index: i,
            })
            .collect()
    }
}

/// History window length exposed to policies.
pub const HIST: usize = 8;

/// An ABR policy: selects the rung for the next chunk.
pub trait AbrPolicy {
    fn name(&self) -> &str;
    /// Called once before each session.
    fn reset(&mut self) {}
    fn select(&mut self, obs: &AbrObservation) -> usize;
}

/// Stream one full session of `video` over `trace` under `policy`.
pub fn run_session(
    policy: &mut dyn AbrPolicy,
    video: &Video,
    trace: &BandwidthTrace,
) -> (SessionStats, Vec<ChunkRecord>) {
    stream(policy, video, |time, size| {
        let download = RTT_SECS + trace.transfer_time(time + RTT_SECS, size);
        (download, download - RTT_SECS)
    })
}

/// The session loop every entry point shares. `fetch(time, megabits)`
/// returns the chunk's `(download_secs, transfer_secs)`: the wait the
/// buffer sees, and the part of it the throughput estimate divides by.
pub(crate) fn stream(
    policy: &mut dyn AbrPolicy,
    video: &Video,
    mut fetch: impl FnMut(f64, f64) -> (f64, f64),
) -> (SessionStats, Vec<ChunkRecord>) {
    policy.reset();
    let mut time = 0.0f64;
    let mut buffer = 0.0f64;
    let mut records: Vec<ChunkRecord> = Vec::with_capacity(video.num_chunks());
    let mut thr_hist: Vec<f64> = Vec::new();
    let mut delay_hist: Vec<f64> = Vec::new();
    let mut last_rung: Option<usize> = None;

    for chunk in 0..video.num_chunks() {
        let obs = AbrObservation {
            throughput_hist: tail(&thr_hist),
            delay_hist: tail(&delay_hist),
            next_sizes: (0..video.num_rungs()).map(|r| video.size(chunk, r)).collect(),
            buffer_secs: buffer,
            last_rung,
            remain_frac: (video.num_chunks() - chunk) as f64 / video.num_chunks() as f64,
            ladder_mbps: (0..video.num_rungs()).map(|r| video.bitrate_mbps(r)).collect(),
            chunk_index: chunk,
        };
        let rung = policy.select(&obs).min(video.num_rungs() - 1);

        let size = video.size(chunk, rung);
        let (download, transfer) = fetch(time, size);
        // The first chunk's wait is startup delay, not a playback stall.
        let rebuffer = if chunk == 0 { 0.0 } else { (download - buffer).max(0.0) };
        buffer = (buffer - download).max(0.0) + CHUNK_SECS;
        time += download;
        // Full buffer: idle until there is room for the next chunk.
        if buffer > BUFFER_CAP_SECS {
            let idle = buffer - BUFFER_CAP_SECS;
            time += idle;
            buffer = BUFFER_CAP_SECS;
        }
        let throughput = size / transfer.max(1e-6);
        thr_hist.push(throughput);
        delay_hist.push(download);
        records.push(ChunkRecord {
            chunk,
            rung,
            bitrate_mbps: video.bitrate_mbps(rung),
            rebuffer_secs: rebuffer,
            download_secs: download,
            buffer_after: buffer,
            throughput_mbps: throughput,
        });
        last_rung = Some(rung);
    }
    (session_stats(&records), records)
}

fn tail(v: &[f64]) -> Vec<f64> {
    let start = v.len().saturating_sub(HIST);
    v[start..].to_vec()
}

/// Fixed-rung policy (useful as a floor/ceiling reference and in tests).
pub struct FixedRung(pub usize);

impl AbrPolicy for FixedRung {
    fn name(&self) -> &str {
        "fixed"
    }
    fn select(&mut self, _obs: &AbrObservation) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::BandwidthTrace;
    use crate::video::envivio_like;
    use nt_tensor::Rng;

    fn flat_trace(mbps: f64) -> BandwidthTrace {
        BandwidthTrace::new("flat", vec![mbps; 600])
    }

    #[test]
    fn lowest_rung_on_fast_link_never_rebuffers() {
        let video = envivio_like(&mut Rng::seeded(1));
        let trace = flat_trace(10.0);
        let (stats, recs) = run_session(&mut FixedRung(0), &video, &trace);
        assert_eq!(recs.len(), 48);
        assert!(stats.total_rebuffer_secs < 1e-9, "rebuffer {}", stats.total_rebuffer_secs);
    }

    #[test]
    fn highest_rung_on_slow_link_rebuffers_heavily() {
        let video = envivio_like(&mut Rng::seeded(2));
        let trace = flat_trace(1.0);
        let (stats, _) = run_session(&mut FixedRung(5), &video, &trace);
        assert!(stats.total_rebuffer_secs > 100.0, "4.3Mbps video on 1Mbps link must stall");
        assert!(stats.qoe_per_chunk < 0.0);
    }

    #[test]
    fn buffer_is_capped() {
        let video = envivio_like(&mut Rng::seeded(3));
        let trace = flat_trace(50.0);
        let (_, recs) = run_session(&mut FixedRung(0), &video, &trace);
        for r in &recs {
            assert!(r.buffer_after <= 60.0 + 1e-9);
        }
    }

    #[test]
    fn throughput_history_grows_to_window() {
        struct Probe {
            seen: Vec<usize>,
        }
        impl AbrPolicy for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn select(&mut self, obs: &AbrObservation) -> usize {
                self.seen.push(obs.throughput_hist.len());
                0
            }
        }
        let video = envivio_like(&mut Rng::seeded(4));
        let trace = flat_trace(3.0);
        let mut p = Probe { seen: vec![] };
        run_session(&mut p, &video, &trace);
        assert_eq!(p.seen[0], 0);
        assert_eq!(p.seen[1], 1);
        assert_eq!(*p.seen.last().unwrap(), HIST);
    }

    #[test]
    fn observed_throughput_matches_link() {
        let video = envivio_like(&mut Rng::seeded(5));
        let trace = flat_trace(3.0);
        let (_, recs) = run_session(&mut FixedRung(2), &video, &trace);
        for r in recs.iter().skip(1) {
            assert!((r.throughput_mbps - 3.0).abs() < 0.3, "{}", r.throughput_mbps);
        }
    }

    #[test]
    fn rung_out_of_range_is_clamped() {
        let video = envivio_like(&mut Rng::seeded(6));
        let trace = flat_trace(3.0);
        let (_, recs) = run_session(&mut FixedRung(99), &video, &trace);
        assert!(recs.iter().all(|r| r.rung == 5));
    }
}
