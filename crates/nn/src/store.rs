//! Parameter storage and the forward-pass context.
//!
//! A [`ParamStore`] owns all learnable tensors of a model, each tagged with a
//! name and a `trainable` flag (frozen backbone weights keep their data but
//! receive no gradient state). A [`Fwd`] wraps an autodiff [`Graph`] for one
//! step: parameters are bound into the tape on first use and their gradients
//! are harvested by [`Fwd::backward`].

use nt_tensor::{Graph, NodeId, Tensor};
use std::collections::HashMap;

/// Identifier of a parameter inside a [`ParamStore`].
pub type ParamId = usize;

#[derive(Debug)]
struct Slot {
    name: String,
    data: Tensor,
    trainable: bool,
    /// Adam first/second moments, allocated lazily by the optimizer.
    m: Option<Tensor>,
    v: Option<Tensor>,
}

/// Owns every parameter of a model (or of several models).
#[derive(Default, Debug)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter; returns its id.
    pub fn add(&mut self, name: impl Into<String>, data: Tensor, trainable: bool) -> ParamId {
        self.slots.push(Slot { name: name.into(), data, trainable, m: None, v: None });
        self.slots.len() - 1
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn data(&self, id: ParamId) -> &Tensor {
        &self.slots[id].data
    }

    pub fn data_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id].data
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id].name
    }

    pub fn is_trainable(&self, id: ParamId) -> bool {
        self.slots[id].trainable
    }

    /// Freeze or unfreeze a parameter.
    pub fn set_trainable(&mut self, id: ParamId, trainable: bool) {
        self.slots[id].trainable = trainable;
        if !trainable {
            self.slots[id].m = None;
            self.slots[id].v = None;
        }
    }

    /// Freeze every parameter whose name starts with `prefix`.
    pub fn freeze_prefix(&mut self, prefix: &str) {
        for id in 0..self.slots.len() {
            if self.slots[id].name.starts_with(prefix) {
                self.set_trainable(id, false);
            }
        }
    }

    /// Ids of all parameters.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        0..self.slots.len()
    }

    /// Total parameter count (elements).
    pub fn num_params(&self) -> usize {
        self.slots.iter().map(|s| s.data.numel()).sum()
    }

    /// Trainable parameter count (elements).
    pub fn num_trainable(&self) -> usize {
        self.slots.iter().filter(|s| s.trainable).map(|s| s.data.numel()).sum()
    }

    /// Bytes held by parameter data.
    pub fn bytes_params(&self) -> usize {
        self.num_params() * 4
    }

    /// Bytes of per-parameter *training state* (gradient buffer + Adam
    /// moments), which only exists for trainable parameters. Together with
    /// [`Graph::peak_bytes`] this reproduces the paper's Figure 4 memory
    /// accounting.
    pub fn bytes_training_state(&self) -> usize {
        // grad + m + v, each the size of the parameter
        self.num_trainable() * 4 * 3
    }

    pub(crate) fn adam_state(&mut self, id: ParamId) -> (&mut Tensor, &mut Tensor, &mut Tensor) {
        let slot = &mut self.slots[id];
        let shape = slot.data.shape().to_vec();
        if slot.m.is_none() {
            slot.m = Some(Tensor::zeros(shape.clone()));
            slot.v = Some(Tensor::zeros(shape));
        }
        (&mut slot.data, slot.m.as_mut().unwrap(), slot.v.as_mut().unwrap())
    }
}

/// Gradients harvested from one backward pass: `(param, grad)` pairs for the
/// trainable parameters that participated in the step.
pub type Grads = Vec<(ParamId, Tensor)>;

/// Merge `src` into `dst`, accumulating duplicate param ids. Used for
/// gradient accumulation over micro-batches.
pub fn merge_grads(dst: &mut Grads, src: Grads) {
    for (id, g) in src {
        if let Some((_, d)) = dst.iter_mut().find(|(i, _)| *i == id) {
            let sum = d.add(&g);
            *d = sum;
        } else {
            dst.push((id, g));
        }
    }
}

/// Global-norm gradient clipping; returns the pre-clip norm.
pub fn clip_grad_norm(grads: &mut Grads, max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for (_, g) in grads.iter() {
        for &x in g.data() {
            sq += (x as f64) * (x as f64);
        }
    }
    let norm = (sq.sqrt()) as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for (_, g) in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= scale;
            }
        }
    }
    norm
}

/// One forward/backward step context: a tape plus the parameter bindings
/// made on it.
pub struct Fwd {
    /// The underlying autodiff tape. Ops are invoked directly on it.
    pub g: Graph,
    bound: HashMap<ParamId, NodeId>,
}

impl Fwd {
    /// Training-mode context (dropout active).
    pub fn train(seed: u64) -> Self {
        Fwd { g: Graph::new(true, seed), bound: HashMap::new() }
    }

    /// Inference-mode context.
    pub fn eval() -> Self {
        Fwd { g: Graph::inference(), bound: HashMap::new() }
    }

    /// Bind a parameter into the tape (idempotent per id within a step).
    /// Frozen parameters are bound as constants so the tape skips their
    /// gradient work entirely.
    pub fn p(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if let Some(&n) = self.bound.get(&id) {
            return n;
        }
        let n = self.g.leaf(store.data(id).clone(), store.is_trainable(id));
        self.bound.insert(id, n);
        n
    }

    /// Insert input data (no gradient).
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.g.constant(t)
    }

    /// Run backward from `loss` and harvest per-parameter gradients. The
    /// context stays readable afterwards (e.g. [`Fwd::peak_bytes`]).
    pub fn backward(&mut self, loss: NodeId) -> Grads {
        self.g.backward(loss);
        let mut grads = Vec::new();
        for (&pid, &nid) in &self.bound {
            if let Some(g) = self.g.grad(nid) {
                grads.push((pid, g.clone()));
            }
        }
        // Deterministic order regardless of hash-map iteration.
        grads.sort_by_key(|(id, _)| *id);
        grads
    }

    /// Peak tape memory (activation + gradient bytes) for this step.
    pub fn peak_bytes(&self) -> usize {
        self.g.peak_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_counts_trainable_separately() {
        let mut s = ParamStore::new();
        let a = s.add("w", Tensor::zeros([10, 10]), true);
        let _b = s.add("frozen", Tensor::zeros([5, 5]), false);
        assert_eq!(s.num_params(), 125);
        assert_eq!(s.num_trainable(), 100);
        s.set_trainable(a, false);
        assert_eq!(s.num_trainable(), 0);
        assert_eq!(s.bytes_training_state(), 0);
    }

    #[test]
    fn freeze_prefix_only_touches_matching() {
        let mut s = ParamStore::new();
        s.add("llm.block0.w", Tensor::zeros([2]), true);
        s.add("head.w", Tensor::zeros([2]), true);
        s.freeze_prefix("llm.");
        assert_eq!(s.num_trainable(), 2);
    }

    #[test]
    fn fwd_binds_params_once_and_harvests_grads() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_slice(&[2.0, 3.0]), true);
        let mut f = Fwd::eval();
        let n1 = f.p(&s, w);
        let n2 = f.p(&s, w);
        assert_eq!(n1, n2, "binding must be idempotent");
        let x = f.input(Tensor::from_slice(&[1.0, 1.0]));
        let y = f.g.mul(n1, x);
        let l = f.g.sum_all(y);
        let grads = f.backward(l);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.data(), &[1.0, 1.0]);
    }

    #[test]
    fn frozen_params_produce_no_grads() {
        let mut s = ParamStore::new();
        let w = s.add("w", Tensor::from_slice(&[2.0]), false);
        let mut f = Fwd::eval();
        let n = f.p(&s, w);
        let l = f.g.sum_all(n);
        let grads = f.backward(l);
        assert!(grads.is_empty());
    }

    #[test]
    fn clip_rescales_when_above_threshold() {
        let mut grads: Grads = vec![(0, Tensor::from_slice(&[3.0, 4.0]))];
        let norm = clip_grad_norm(&mut grads, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let clipped = grads[0].1.norm();
        assert!((clipped - 1.0).abs() < 1e-5);
        // below threshold: untouched
        let mut g2: Grads = vec![(0, Tensor::from_slice(&[0.3, 0.4]))];
        clip_grad_norm(&mut g2, 1.0);
        assert_eq!(g2[0].1.data(), &[0.3, 0.4]);
    }

    #[test]
    fn merge_grads_accumulates_same_id() {
        let mut a: Grads = vec![(0, Tensor::from_slice(&[1.0]))];
        merge_grads(&mut a, vec![(0, Tensor::from_slice(&[2.0])), (1, Tensor::from_slice(&[5.0]))]);
        assert_eq!(a[0].1.data(), &[3.0]);
        assert_eq!(a[1].1.data(), &[5.0]);
    }
}
