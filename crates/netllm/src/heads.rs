//! Networking heads (paper §4.2).
//!
//! Each head is a lightweight trainable linear projector from LLM output
//! features directly to a task answer. By construction the answer is drawn
//! from the valid range (a real rung index, physical viewport coordinates,
//! an existing candidate stage), and one backbone inference yields one
//! complete answer — the two properties token-based decoding lacks.

use nt_nn::{Exec, Init, Linear, ParamStore};
use nt_tensor::Rng;

/// VP head: hidden states at the `pw` query positions -> per-step viewport
/// deltas `(roll, pitch, yaw)`.
pub struct VpHead {
    lin: Linear,
}

impl VpHead {
    pub fn new(store: &mut ParamStore, d_model: usize, rng: &mut Rng) -> Self {
        VpHead { lin: Linear::new(store, "head.vp", d_model, 3, true, Init::Xavier, rng) }
    }

    /// `[pw, d_model]` -> `[pw, 3]` deltas (network units).
    pub fn run<E: Exec>(&self, e: &mut E, store: &ParamStore, hidden: &E::V) -> E::V {
        e.linear(store, &self.lin, hidden)
    }
}

/// ABR head: hidden state -> probability logits over the bitrate ladder.
pub struct AbrHead {
    lin: Linear,
    pub rungs: usize,
}

impl AbrHead {
    pub fn new(store: &mut ParamStore, d_model: usize, rungs: usize, rng: &mut Rng) -> Self {
        AbrHead {
            lin: Linear::new(store, "head.abr", d_model, rungs, true, Init::Xavier, rng),
            rungs,
        }
    }

    /// `[n, d_model]` -> `[n, rungs]` logits.
    pub fn run<E: Exec>(&self, e: &mut E, store: &ParamStore, hidden: &E::V) -> E::V {
        e.linear(store, &self.lin, hidden)
    }
}

/// CJS heads: a stage scorer applied per candidate token position, and an
/// executor-cap head over the discrete parallelism menu.
pub struct CjsHeads {
    stage: Linear,
    cap: Linear,
    pub num_caps: usize,
}

impl CjsHeads {
    pub fn new(store: &mut ParamStore, d_model: usize, num_caps: usize, rng: &mut Rng) -> Self {
        CjsHeads {
            stage: Linear::new(store, "head.cjs_stage", d_model, 1, true, Init::Xavier, rng),
            cap: Linear::new(store, "head.cjs_cap", d_model, num_caps, true, Init::Xavier, rng),
            num_caps,
        }
    }

    /// Candidate hiddens `[c, d_model]` -> stage logits `[1, c]`.
    pub fn stage_logits<E: Exec>(&self, e: &mut E, store: &ParamStore, cand_hidden: &E::V) -> E::V {
        let c = e.shape(cand_hidden)[0];
        let scores = e.linear(store, &self.stage, cand_hidden); // [c,1]
        e.reshape(scores, [1, c])
    }

    /// One hidden `[1, d_model]` -> cap logits `[1, num_caps]`.
    pub fn cap_logits<E: Exec>(&self, e: &mut E, store: &ParamStore, hidden: &E::V) -> E::V {
        e.linear(store, &self.cap, hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_nn::Fwd;
    use nt_tensor::Tensor;

    #[test]
    fn abr_head_answers_are_always_valid() {
        // Whatever the hidden state, argmax over head logits is a real rung.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(1);
        let head = AbrHead::new(&mut s, 16, 6, &mut rng);
        for i in 0..50 {
            let mut f = Fwd::eval();
            let h = f.input(Tensor::randn([1, 16], 10.0, &mut Rng::seeded(i)));
            let logits = head.run(&mut f, &s, &h);
            let a = f.g.value(logits).argmax();
            assert!(a < 6);
        }
    }

    #[test]
    fn vp_head_shape() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(2);
        let head = VpHead::new(&mut s, 16, &mut rng);
        let mut f = Fwd::eval();
        let h = f.input(Tensor::randn([20, 16], 1.0, &mut rng));
        let y = head.run(&mut f, &s, &h);
        assert_eq!(f.g.value(y).shape(), &[20, 3]);
    }

    #[test]
    fn cjs_stage_logits_match_candidate_count() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(3);
        let heads = CjsHeads::new(&mut s, 16, 5, &mut rng);
        let mut f = Fwd::eval();
        let cands = f.input(Tensor::randn([7, 16], 1.0, &mut rng));
        let logits = heads.stage_logits(&mut f, &s, &cands);
        assert_eq!(f.g.value(logits).shape(), &[1, 7]);
        let h = f.input(Tensor::randn([1, 16], 1.0, &mut rng));
        let cap = heads.cap_logits(&mut f, &s, &h);
        assert_eq!(f.g.value(cap).shape(), &[1, 5]);
    }
}
