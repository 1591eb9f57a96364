//! TRACK-like learning-based VP baseline (Rondón et al., TPAMI'22).
//!
//! TRACK is the paper's state-of-the-art VP comparator: an LSTM
//! encoder-decoder over head motion fused with video saliency. This
//! reproduction keeps the architecture family: an LSTM encodes history
//! *deltas*, a linear projection of the saliency frame is fused into the
//! encoder state, and an LSTM decoder rolls the horizon out step by step
//! (so a model trained at one horizon can be evaluated at longer ones, as
//! the paper's unseen settings require). Outputs are per-step deltas applied
//! to the last observed viewport — wrap-safe by construction.

use crate::baselines::VpPredictor;
use crate::metrics::{apply_deltas, to_deltas, Viewport};
use crate::motion::{VpSample, GRID};
use nt_nn::{clip_grad_norm, Adam, Fwd, Init, Linear, Lstm, ParamStore};
use nt_tensor::{NodeId, Rng, Tensor};

/// Scale between degrees and network units.
const DELTA_SCALE: f32 = 5.0;
const HIDDEN: usize = 24;

/// The TRACK model.
pub struct Track {
    pub store: ParamStore,
    enc: Lstm,
    sal_proj: Linear,
    dec: Lstm,
    head: Linear,
}

impl Track {
    pub fn new(seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = Rng::seeded(seed);
        let enc = Lstm::new(&mut store, "track.enc", 3, HIDDEN, &mut rng);
        let sal_proj =
            Linear::new(&mut store, "track.sal", GRID * GRID, HIDDEN, true, Init::Xavier, &mut rng);
        let dec = Lstm::new(&mut store, "track.dec", 3, HIDDEN, &mut rng);
        let head = Linear::new(&mut store, "track.head", HIDDEN, 3, true, Init::Xavier, &mut rng);
        Track { store, enc, sal_proj, dec, head }
    }

    /// Encode history+saliency, then decode `pw` delta predictions.
    fn rollout(&self, f: &mut Fwd, sample: &VpSample, pw: usize) -> Vec<NodeId> {
        let hist_deltas = to_deltas(&sample.history);
        let t = hist_deltas.len();
        let mut flat = Vec::with_capacity(t * 3);
        for d in &hist_deltas {
            flat.extend(d.iter().map(|x| x / DELTA_SCALE));
        }
        let x = f.input(Tensor::from_vec([t, 3], flat));
        let (_, h_enc, _) = self.enc.forward(f, &self.store, x);
        let sal = f.input(sample.saliency.clone().reshape([1, GRID * GRID]));
        let sal_h = self.sal_proj.forward(f, &self.store, sal);
        let sal_h = f.g.tanh(sal_h);
        let fused = f.g.add(h_enc, sal_h); // [1, HIDDEN]

        // Decoder: the LSTM cell stepped by hand, state seeded by the fused
        // encoding, each step fed the previous step's prediction.
        let mut h = fused;
        let mut c = f.input(Tensor::zeros([1, HIDDEN]));
        let mut prev_delta: NodeId = {
            let last = hist_deltas.last().copied().unwrap_or([0.0; 3]);
            f.input(Tensor::from_vec([1, 3], last.iter().map(|x| x / DELTA_SCALE).collect()))
        };
        let mut outs = Vec::with_capacity(pw);
        for _ in 0..pw {
            (h, c) = self.dec.cell(f, &self.store, prev_delta, h, c);
            prev_delta = self.head.forward(f, &self.store, h); // [1,3]
            outs.push(prev_delta);
        }
        outs
    }

    /// Supervised training on extracted samples.
    pub fn train(&mut self, samples: &[VpSample], epochs: usize, lr: f32, seed: u64) -> f32 {
        assert!(!samples.is_empty());
        let mut opt = Adam::new(lr);
        let mut rng = Rng::seeded(seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut last_loss = f32::MAX;
        for ep in 0..epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0f64;
            for (step, &i) in order.iter().enumerate() {
                let s = &samples[i];
                let mut full = vec![*s.history.last().unwrap()];
                full.extend_from_slice(&s.future);
                let target_deltas = to_deltas(&full);
                let pw = target_deltas.len();
                let mut f = Fwd::train(seed ^ (ep * 10_000 + step) as u64);
                // Model-feedback rollout (no teacher forcing): the decoder
                // trains on the same input distribution it sees at test time.
                let outs = self.rollout(&mut f, s, pw);
                let pred = f.g.concat(&outs, 0); // [pw, 3]
                let mut tflat = Vec::with_capacity(pw * 3);
                for d in &target_deltas {
                    tflat.extend(d.iter().map(|x| x / DELTA_SCALE));
                }
                let tgt = f.input(Tensor::from_vec([pw, 3], tflat));
                let loss = f.g.mse(pred, tgt);
                total += f.g.value(loss).item() as f64;
                let mut grads = f.backward(loss);
                clip_grad_norm(&mut grads, 1.0);
                opt.step(&mut self.store, &grads);
            }
            last_loss = (total / samples.len() as f64) as f32;
        }
        last_loss
    }
}

impl VpPredictor for Track {
    fn name(&self) -> &str {
        "TRACK"
    }

    fn predict(&mut self, sample: &VpSample, pw: usize) -> Vec<Viewport> {
        let mut f = Fwd::eval();
        let outs = self.rollout(&mut f, sample, pw);
        let deltas: Vec<[f32; 3]> = outs
            .iter()
            .map(|&n| {
                let v = f.g.value(n).data();
                [v[0] * DELTA_SCALE, v[1] * DELTA_SCALE, v[2] * DELTA_SCALE]
            })
            .collect();
        apply_deltas(sample.history.last().unwrap(), &deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{evaluate, Static};
    use crate::motion::{extract_samples, generate, jin2022_like, DatasetSpec};

    #[test]
    fn untrained_track_produces_valid_horizon() {
        let ds = generate(&DatasetSpec { videos: 1, viewers: 1, secs: 15, ..jin2022_like() });
        let samples = extract_samples(&ds, &[0], &[0], 10, 20, 10, 5);
        let mut track = Track::new(1);
        let p = track.predict(&samples[0], 20);
        assert_eq!(p.len(), 20);
        for v in &p {
            assert!((-180.0..180.0).contains(&v[2]));
        }
    }

    #[test]
    fn variable_horizon_is_supported() {
        let ds = generate(&DatasetSpec { videos: 1, viewers: 1, secs: 15, ..jin2022_like() });
        let samples = extract_samples(&ds, &[0], &[0], 10, 30, 10, 5);
        let mut track = Track::new(2);
        assert_eq!(track.predict(&samples[0], 30).len(), 30);
        assert_eq!(track.predict(&samples[0], 7).len(), 7);
    }

    #[test]
    fn training_reduces_loss_and_tracks_static_or_better() {
        // Full-budget training (used by the figure benches) beats all the
        // rule baselines; this unit test uses a tiny budget and only checks
        // the direction of travel: loss drops and the model lands in the
        // Static ballpark rather than diverging.
        let ds = generate(&DatasetSpec { videos: 2, viewers: 4, secs: 30, ..jin2022_like() });
        let train = extract_samples(&ds, &[0], &[0, 1, 2], 10, 20, 5, 100);
        let test = extract_samples(&ds, &[1], &[3], 10, 20, 7, 40);
        let mut track = Track::new(3);
        let l1 = track.train(&train, 1, 2e-3, 42);
        let l2 = track.train(&train, 3, 2e-3, 43);
        assert!(l2 < l1, "loss should drop: {l1} -> {l2}");
        let track_mae = evaluate(&mut track, &test, 20);
        let static_mae = evaluate(&mut Static, &test, 20);
        assert!(
            track_mae < static_mae * 1.25,
            "tiny-budget TRACK ({track_mae:.2}) should be near Static ({static_mae:.2})"
        );
    }
}
