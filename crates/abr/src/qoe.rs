//! Quality-of-Experience metric (paper §A.6).
//!
//! `QoE = mean_i( bitrate_i − λ·rebuf_i − γ·|bitrate_i − bitrate_{i−1}| )`
//! with λ = [`LAMBDA_REBUF`], γ = [`GAMMA_CHANGE`] (the Pensieve weights the
//! paper adopts). Bitrates in Mbps, rebuffering in seconds.

use serde::{Deserialize, Serialize};

/// λ: QoE penalty per second of rebuffering.
pub const LAMBDA_REBUF: f64 = 4.3;
/// γ: QoE penalty per Mbps of bitrate change between consecutive chunks.
pub const GAMMA_CHANGE: f64 = 1.0;

/// One downloaded chunk's outcome.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChunkRecord {
    pub chunk: usize,
    pub rung: usize,
    pub bitrate_mbps: f64,
    pub rebuffer_secs: f64,
    pub download_secs: f64,
    pub buffer_after: f64,
    /// Observed throughput during this download (Mbps).
    pub throughput_mbps: f64,
}

/// Per-session aggregate, including the Figure 12 factor breakdown.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SessionStats {
    pub qoe_per_chunk: f64,
    pub mean_bitrate_mbps: f64,
    pub total_rebuffer_secs: f64,
    pub mean_bitrate_change_mbps: f64,
    pub chunks: usize,
}

/// Compute per-chunk QoE for chunk `i` given the previous bitrate.
pub fn chunk_qoe(bitrate: f64, rebuf: f64, prev_bitrate: Option<f64>) -> f64 {
    let change = prev_bitrate.map(|p| (bitrate - p).abs()).unwrap_or(0.0);
    bitrate - LAMBDA_REBUF * rebuf - GAMMA_CHANGE * change
}

/// Aggregate a full session.
pub fn session_stats(records: &[ChunkRecord]) -> SessionStats {
    if records.is_empty() {
        return SessionStats::default();
    }
    let n = records.len() as f64;
    let mut qoe = 0.0;
    let mut change_sum = 0.0;
    let mut prev: Option<f64> = None;
    for r in records {
        qoe += chunk_qoe(r.bitrate_mbps, r.rebuffer_secs, prev);
        if let Some(p) = prev {
            change_sum += (r.bitrate_mbps - p).abs();
        }
        prev = Some(r.bitrate_mbps);
    }
    SessionStats {
        qoe_per_chunk: qoe / n,
        mean_bitrate_mbps: records.iter().map(|r| r.bitrate_mbps).sum::<f64>() / n,
        total_rebuffer_secs: records.iter().map(|r| r.rebuffer_secs).sum(),
        mean_bitrate_change_mbps: change_sum / n,
        chunks: records.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bitrate: f64, rebuf: f64) -> ChunkRecord {
        ChunkRecord {
            chunk: 0,
            rung: 0,
            bitrate_mbps: bitrate,
            rebuffer_secs: rebuf,
            download_secs: 1.0,
            buffer_after: 10.0,
            throughput_mbps: bitrate,
        }
    }

    #[test]
    fn first_chunk_has_no_change_penalty() {
        assert_eq!(chunk_qoe(2.0, 0.0, None), 2.0);
        assert_eq!(chunk_qoe(2.0, 0.0, Some(1.0)), 1.0);
    }

    #[test]
    fn rebuffer_is_heavily_penalised() {
        assert!((chunk_qoe(1.0, 1.0, None) - (1.0 - 4.3)).abs() < 1e-12);
    }

    #[test]
    fn session_aggregation_matches_hand_computation() {
        let records = vec![rec(1.0, 0.0), rec(2.0, 0.5), rec(2.0, 0.0)];
        let s = session_stats(&records);
        // chunk1: 1.0 ; chunk2: 2.0 - 4.3*0.5 - 1.0 = -1.15 ; chunk3: 2.0
        let want = (1.0 + (2.0 - 2.15 - 1.0) + 2.0) / 3.0;
        assert!((s.qoe_per_chunk - want).abs() < 1e-12);
        assert!((s.total_rebuffer_secs - 0.5).abs() < 1e-12);
        assert!((s.mean_bitrate_change_mbps - (1.0 + 0.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_session_is_zero() {
        let s = session_stats(&[]);
        assert_eq!(s.chunks, 0);
        assert_eq!(s.qoe_per_chunk, 0.0);
    }
}
