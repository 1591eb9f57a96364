//! LSTM layer, used by the TRACK viewport-prediction baseline (the paper's
//! state-of-the-art VP comparator is LSTM-based).

use crate::layers::{Init, Linear};
use crate::store::{Fwd, ParamStore};
use nt_tensor::{NodeId, Rng, Tensor};

/// Single-layer LSTM over `[t, in]` sequences producing `[t, hidden]`.
///
/// Gate order inside the packed `4*hidden` projection: input, forget, cell,
/// output. The forget-gate bias is initialised to 1.0 (standard trick for
/// gradient flow early in training).
#[derive(Clone, Debug)]
pub struct Lstm {
    pub w_ih: Linear,
    pub w_hh: Linear,
    pub hidden: usize,
}

impl Lstm {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        let w_ih =
            Linear::new(store, &format!("{name}.w_ih"), input, 4 * hidden, true, Init::Xavier, rng);
        let w_hh = Linear::new(
            store,
            &format!("{name}.w_hh"),
            hidden,
            4 * hidden,
            false,
            Init::Xavier,
            rng,
        );
        // Forget-gate bias = 1.
        if let Some(bid) = w_ih.b {
            let b = store.data_mut(bid);
            for i in hidden..2 * hidden {
                b.data_mut()[i] = 1.0;
            }
        }
        Lstm { w_ih, w_hh, hidden }
    }

    /// Run the sequence; returns per-step hidden states `[t, hidden]` and the
    /// final `(h, c)` (each `[1, hidden]`).
    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId) -> (NodeId, NodeId, NodeId) {
        let shape = f.g.value(x).shape().to_vec();
        assert_eq!(shape.len(), 2, "Lstm input must be [t, in]");
        let t = shape[0];
        let mut h = f.input(Tensor::zeros([1, self.hidden]));
        let mut c = f.input(Tensor::zeros([1, self.hidden]));
        let mut outs = Vec::with_capacity(t);
        for step in 0..t {
            let xt = f.g.narrow(x, 0, step, 1); // [1, in]
            (h, c) = self.cell(f, store, xt, h, c);
            outs.push(h);
        }
        let seq = f.g.concat(&outs, 0); // [t, hidden]
        (seq, h, c)
    }

    /// One step of the cell: input `x_t` `[1, in]` and state `(h, c)` (each
    /// `[1, hidden]`) to the next `(h, c)`. [`Lstm::forward`] steps it over
    /// a sequence; a decoder that feeds back its own outputs steps it by
    /// hand.
    pub fn cell(
        &self,
        f: &mut Fwd,
        store: &ParamStore,
        x_t: NodeId,
        h: NodeId,
        c: NodeId,
    ) -> (NodeId, NodeId) {
        let gi = self.w_ih.forward(f, store, x_t);
        let gh = self.w_hh.forward(f, store, h);
        let gates = f.g.add(gi, gh); // [1, 4h]
        let i = f.g.narrow(gates, 1, 0, self.hidden);
        let fg = f.g.narrow(gates, 1, self.hidden, self.hidden);
        let gc = f.g.narrow(gates, 1, 2 * self.hidden, self.hidden);
        let o = f.g.narrow(gates, 1, 3 * self.hidden, self.hidden);
        let i = f.g.sigmoid(i);
        let fg = f.g.sigmoid(fg);
        let gc = f.g.tanh(gc);
        let o = f.g.sigmoid(o);
        let fc = f.g.mul(fg, c);
        let ig = f.g.mul(i, gc);
        let c = f.g.add(fc, ig);
        let tc = f.g.tanh(c);
        (f.g.mul(o, tc), c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;

    #[test]
    fn output_shapes() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(1);
        let lstm = Lstm::new(&mut s, "l", 3, 8, &mut rng);
        let mut f = Fwd::eval();
        let x = f.input(Tensor::randn([5, 3], 1.0, &mut rng));
        let (seq, h, c) = lstm.forward(&mut f, &s, x);
        assert_eq!(f.g.value(seq).shape(), &[5, 8]);
        assert_eq!(f.g.value(h).shape(), &[1, 8]);
        assert_eq!(f.g.value(c).shape(), &[1, 8]);
    }

    #[test]
    fn learns_to_memorise_first_input() {
        // Target: output at final step = first input value. Requires memory.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(2);
        let lstm = Lstm::new(&mut s, "l", 1, 12, &mut rng);
        let head = Linear::new(&mut s, "head", 12, 1, true, Init::Xavier, &mut rng);
        let mut opt = Adam::new(0.01);
        let mut last = f32::MAX;
        for step in 0..300 {
            let mut data_rng = Rng::seeded(step as u64);
            let first = data_rng.uniform(-1.0, 1.0);
            let mut xs = vec![first];
            for _ in 1..6 {
                xs.push(data_rng.uniform(-1.0, 1.0));
            }
            let mut f = Fwd::eval();
            let x = f.input(Tensor::from_vec([6, 1], xs));
            let (_, h, _) = lstm.forward(&mut f, &s, x);
            let y = head.forward(&mut f, &s, h);
            let t = f.input(Tensor::from_vec([1, 1], vec![first]));
            let loss = f.g.mse(y, t);
            last = f.g.value(loss).item();
            let grads = f.backward(loss);
            opt.step(&mut s, &grads);
        }
        assert!(last < 0.05, "LSTM should memorise the first input, loss {last}");
    }

    #[test]
    fn gradients_flow_through_time() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(3);
        let lstm = Lstm::new(&mut s, "l", 2, 4, &mut rng);
        let mut f = Fwd::eval();
        let x = f.input(Tensor::randn([10, 2], 1.0, &mut rng));
        let (_, h, _) = lstm.forward(&mut f, &s, x);
        let l = f.g.sum_all(h);
        let grads = f.backward(l);
        assert!(!grads.is_empty());
        for (_, g) in &grads {
            assert!(!g.has_non_finite());
            assert!(g.norm() > 0.0, "zero gradient through time");
        }
    }
}
