//! Rule-based ABR baselines: BBA and RobustMPC (paper §A.3).

use crate::qoe::chunk_qoe;
use crate::sim::{AbrObservation, AbrPolicy};
use crate::video::CHUNK_SECS;

/// Buffer-Based Adaptation (Huang et al., SIGCOMM'14).
///
/// Maps buffer occupancy linearly from the lowest rung (below
/// [`Bba::RESERVOIR_SECS`]) to the highest (above the reservoir plus
/// [`Bba::CUSHION_SECS`]).
pub struct Bba;

impl Bba {
    /// Buffer level (s) at and below which BBA picks the lowest rung.
    pub const RESERVOIR_SECS: f64 = 5.0;
    /// Buffer span (s) above the reservoir over which the rung ramps up.
    pub const CUSHION_SECS: f64 = 10.0;
}

impl AbrPolicy for Bba {
    fn name(&self) -> &str {
        "BBA"
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        let n = obs.ladder_mbps.len();
        let b = obs.buffer_secs;
        if b <= Self::RESERVOIR_SECS {
            return 0;
        }
        if b >= Self::RESERVOIR_SECS + Self::CUSHION_SECS {
            return n - 1;
        }
        let f = (b - Self::RESERVOIR_SECS) / Self::CUSHION_SECS;
        ((f * (n - 1) as f64).round() as usize).min(n - 1)
    }
}

/// RobustMPC (Yin et al., SIGCOMM'15): discounted-harmonic-mean throughput
/// prediction + exhaustive QoE optimisation over [`Mpc::HORIZON`] chunks.
#[derive(Default)]
pub struct Mpc {
    /// Running maximum relative prediction error (the "robust" discount).
    max_err: f64,
    last_pred: Option<f64>,
}

impl Mpc {
    /// Chunks the planner looks ahead.
    pub const HORIZON: usize = 5;

    fn harmonic_mean(xs: &[f64]) -> Option<f64> {
        if xs.is_empty() {
            return None;
        }
        let s: f64 = xs.iter().map(|x| 1.0 / x.max(1e-9)).sum();
        Some(xs.len() as f64 / s)
    }
}

impl AbrPolicy for Mpc {
    fn name(&self) -> &str {
        "MPC"
    }

    fn reset(&mut self) {
        self.max_err = 0.0;
        self.last_pred = None;
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        // Update the robustness discount from the last prediction's error.
        if let (Some(pred), Some(&actual)) = (self.last_pred, obs.throughput_hist.last()) {
            let err = ((pred - actual) / actual.max(1e-9)).abs();
            self.max_err = self.max_err.max(err.min(1.0));
        }
        let recent: Vec<f64> = obs.throughput_hist.iter().rev().take(5).cloned().collect();
        let Some(hm) = Self::harmonic_mean(&recent) else {
            return 0; // cold start: be conservative
        };
        self.last_pred = Some(hm);
        let predicted = hm / (1.0 + self.max_err);

        // Exhaustive search over rung sequences of length `HORIZON`.
        // Chunk sizes beyond the next chunk are approximated from the ladder
        // (the client only knows the next chunk's true sizes, as in the
        // paper's MPC implementation).
        let p = predicted.max(1e-9);
        let mut plan = Plan {
            ladder: &obs.ladder_mbps,
            next_dl: obs.next_sizes.iter().map(|size| size / p).collect(),
            later_dl: obs.ladder_mbps.iter().map(|br| br * CHUNK_SECS / p).collect(),
            seq: [0; Self::HORIZON],
            best: (f64::NEG_INFINITY, [0; Self::HORIZON]),
        };
        plan.walk(0, obs.buffer_secs, 0.0, obs.last_rung.map(|r| obs.ladder_mbps[r]));
        plan.best.1[0]
    }
}

/// MPC's search, depth first: every prefix is scored once and carried
/// down (buffer, QoE so far, previous bitrate), so a chunk costs one step
/// per tree node instead of `HORIZON` per sequence. Each sequence's QoE is
/// still summed step 0 → `HORIZON − 1`.
struct Plan<'a> {
    ladder: &'a [f64],
    /// Predicted download time of each rung: the next chunk's true size,
    /// and the ladder's approximation for the chunks after it.
    next_dl: Vec<f64>,
    later_dl: Vec<f64>,
    seq: [usize; Mpc::HORIZON],
    /// Best QoE so far and its sequence. Ties go to the smaller reversed
    /// sequence, the first one in the order where `seq[0]` varies
    /// fastest: the plan `session_bits` pins.
    best: (f64, [usize; Mpc::HORIZON]),
}

impl Plan<'_> {
    fn walk(&mut self, depth: usize, buffer: f64, qoe: f64, prev: Option<f64>) {
        if depth == Mpc::HORIZON {
            if qoe > self.best.0
                || (qoe == self.best.0 && self.seq.iter().rev().lt(self.best.1.iter().rev()))
            {
                self.best = (qoe, self.seq);
            }
            return;
        }
        for (r, &br) in self.ladder.iter().enumerate() {
            let dl = if depth == 0 { self.next_dl[r] } else { self.later_dl[r] };
            let rebuf = (dl - buffer).max(0.0);
            self.seq[depth] = r;
            let after = (buffer - dl).max(0.0) + CHUNK_SECS;
            self.walk(depth + 1, after, qoe + chunk_qoe(br, rebuf, prev), Some(br));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_session;
    use crate::trace::{generate_set, TraceKind};
    use crate::video::envivio_like;
    use nt_tensor::Rng;

    fn obs(buffer: f64, thr: &[f64], last: Option<usize>) -> AbrObservation {
        AbrObservation {
            throughput_hist: thr.to_vec(),
            delay_hist: vec![1.0; thr.len()],
            next_sizes: vec![1.2, 3.0, 4.8, 7.4, 11.4, 17.2],
            buffer_secs: buffer,
            last_rung: last,
            remain_frac: 0.5,
            ladder_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
            chunk_index: 10,
        }
    }

    #[test]
    fn bba_maps_buffer_monotonically() {
        let mut bba = Bba;
        let mut prev = 0;
        for b in [0.0, 3.0, 6.0, 9.0, 12.0, 15.0, 20.0] {
            let r = bba.select(&obs(b, &[2.0], None));
            assert!(r >= prev, "BBA must be monotone in buffer");
            prev = r;
        }
        assert_eq!(bba.select(&obs(0.0, &[2.0], None)), 0);
        assert_eq!(bba.select(&obs(30.0, &[2.0], None)), 5);
    }

    #[test]
    fn mpc_cold_start_is_conservative() {
        let mut mpc = Mpc::default();
        assert_eq!(mpc.select(&obs(0.0, &[], None)), 0);
    }

    #[test]
    fn mpc_picks_high_rung_when_bandwidth_is_plentiful() {
        let mut mpc = Mpc::default();
        let r = mpc.select(&obs(20.0, &[8.0, 8.0, 8.0, 8.0, 8.0], Some(5)));
        assert!(r >= 4, "got {r}");
    }

    #[test]
    fn mpc_picks_low_rung_when_bandwidth_is_scarce() {
        let mut mpc = Mpc::default();
        let r = mpc.select(&obs(2.0, &[0.4, 0.4, 0.4, 0.4, 0.4], Some(0)));
        assert!(r <= 1, "got {r}");
    }

    #[test]
    fn mpc_beats_bba_on_broadband() {
        // The ranking the paper reports among rule-based policies.
        let video = envivio_like(&mut Rng::seeded(1));
        let traces = generate_set(TraceKind::FccLike, 32, 400, &mut Rng::seeded(2));
        let mut bba_total = 0.0;
        let mut mpc_total = 0.0;
        for t in &traces {
            bba_total += run_session(&mut Bba, &video, t).0.qoe_per_chunk;
            mpc_total += run_session(&mut Mpc::default(), &video, t).0.qoe_per_chunk;
        }
        assert!(
            mpc_total > bba_total,
            "MPC ({mpc_total:.2}) should beat BBA ({bba_total:.2}) on FCC-like traces"
        );
    }
}
