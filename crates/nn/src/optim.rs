//! The optimizer: Adam, which consumes the `(ParamId, Tensor)` gradient
//! pairs harvested by [`crate::store::Fwd::backward`].

use crate::store::{Grads, ParamId, ParamStore};
use nt_tensor::Tensor;

/// Adam.
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0 }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    pub fn step(&mut self, store: &mut ParamStore, grads: &Grads) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (id, g) in grads {
            if !store.is_trainable(*id) {
                continue;
            }
            self.step_one(store, *id, g, bc1, bc2);
        }
    }

    fn step_one(&self, store: &mut ParamStore, id: ParamId, g: &Tensor, bc1: f32, bc2: f32) {
        let lr = self.lr;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let (data, m, v) = store.adam_state(id);
        let (dd, md, vd) = (data.data_mut(), m.data_mut(), v.data_mut());
        for i in 0..dd.len() {
            let gi = g.data()[i];
            md[i] = b1 * md[i] + (1.0 - b1) * gi;
            vd[i] = b2 * vd[i] + (1.0 - b2) * gi * gi;
            let mhat = md[i] / bc1;
            let vhat = vd[i] / bc2;
            dd[i] -= lr * (mhat / (vhat.sqrt() + eps));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Fwd;

    fn quadratic_loss(store: &ParamStore, id: ParamId) -> (f32, Grads) {
        // loss = mean((w - 3)^2)
        let mut f = Fwd::eval();
        let w = f.p(store, id);
        let t = f.input(Tensor::full(store.data(id).shape().to_vec(), 3.0));
        let l = f.g.mse(w, t);
        let v = f.g.value(l).item();
        (v, f.backward(l))
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::zeros([4]), true);
        let mut opt = Adam::new(0.1);
        let mut last = f32::MAX;
        for _ in 0..300 {
            let (l, g) = quadratic_loss(&s, id);
            last = l;
            opt.step(&mut s, &g);
        }
        assert!(last < 1e-4, "adam should converge, loss {last}");
    }

    #[test]
    fn adam_skips_frozen_params() {
        let mut s = ParamStore::new();
        let id = s.add("w", Tensor::zeros([2]), false);
        let mut opt = Adam::new(0.1);
        opt.step(&mut s, &vec![(id, Tensor::ones([2]))]);
        assert_eq!(s.data(id).data(), &[0.0, 0.0]);
    }
}
