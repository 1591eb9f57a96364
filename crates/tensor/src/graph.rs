//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Graph`] is a per-step tape: leaves are inserted (parameters and
//! inputs), ops append nodes, [`Graph::backward`] walks the tape in reverse
//! and accumulates gradients. The tape is topologically ordered by
//! construction, so no explicit sort is required.
//!
//! The graph also keeps a byte-level account of activation memory
//! ([`Graph::peak_bytes`]); the paper's Figure 4 memory comparison is
//! reproduced from this accounting plus the parameter-store accounting in
//! `nt-nn`.

use crate::activation::{gelu_in_place, tanh_fast, GELU_C};
use crate::rng::Rng;
use crate::shape::{broadcast_shapes, for_each_broadcast2, numel};
use crate::tensor::{
    layer_norm_in_place, layer_norm_stats, matmul_into, softmax_in_place, transpose_into, Tensor,
};

/// Identifier of a node on the tape.
pub type NodeId = usize;

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Add,
    Mul,
    Scale(f32),
    Matmul,
    BatchMatmul,
    TransposeLast2,
    Reshape,
    Concat { axis: usize },
    Narrow { axis: usize, start: usize, len: usize },
    Rows { indices: Vec<usize> },
    Relu,
    Gelu,
    Tanh,
    Sigmoid,
    SoftmaxLast,
    LogSoftmaxLast,
    SumAll,
    MeanAll,
    SumAxis(usize),
    MeanAxis(usize),
    LayerNorm { eps: f32 },
    WeightedCrossEntropy { targets: Vec<usize>, weights: Vec<f32> },
    Mse,
    Dropout { mask: Vec<f32> },
    Conv1d { stride: usize, pad: usize },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    parents: Vec<NodeId>,
    op: Op,
    needs_grad: bool,
}

/// A reverse-mode autodiff tape.
pub struct Graph {
    nodes: Vec<Node>,
    rng: Rng,
    training: bool,
    cur_bytes: usize,
    peak_bytes: usize,
}

impl Graph {
    /// Create a tape. `training` controls dropout; `seed` feeds dropout masks.
    pub fn new(training: bool, seed: u64) -> Self {
        Graph { nodes: Vec::new(), rng: Rng::seeded(seed), training, cur_bytes: 0, peak_bytes: 0 }
    }

    /// Inference-mode tape (dropout disabled).
    pub fn inference() -> Self {
        Graph::new(false, 0)
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Peak bytes held by node values and gradients so far.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    fn push(&mut self, op: Op, parents: Vec<NodeId>, value: Tensor, needs_grad: bool) -> NodeId {
        self.cur_bytes += value.numel() * 4;
        self.peak_bytes = self.peak_bytes.max(self.cur_bytes);
        self.nodes.push(Node { value, grad: None, parents, op, needs_grad });
        self.nodes.len() - 1
    }

    fn any_needs_grad(&self, parents: &[NodeId]) -> bool {
        parents.iter().any(|&p| self.nodes[p].needs_grad)
    }

    /// Insert a leaf. `requires_grad` marks it as a differentiation target.
    pub fn leaf(&mut self, value: Tensor, requires_grad: bool) -> NodeId {
        self.push(Op::Leaf, vec![], value, requires_grad)
    }

    /// Insert a non-differentiable constant.
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        self.leaf(value, false)
    }

    /// Value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id].value
    }

    /// Gradient of a node after [`Graph::backward`]; `None` when the node was
    /// not on a differentiable path.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes[id].grad.as_ref()
    }

    // ---- elementwise binary -------------------------------------------------

    fn binary(&mut self, op: Op, a: NodeId, b: NodeId, f: impl Fn(f32, f32) -> f32) -> NodeId {
        let out_shape = broadcast_shapes(self.nodes[a].value.shape(), self.nodes[b].value.shape())
            .unwrap_or_else(|| {
                panic!(
                    "cannot broadcast {:?} with {:?}",
                    self.nodes[a].value.shape(),
                    self.nodes[b].value.shape()
                )
            });
        let mut out = Tensor::zeros(out_shape.clone());
        {
            let (av, bv) = (&self.nodes[a].value, &self.nodes[b].value);
            let od = out.data_mut();
            for_each_broadcast2(&out_shape, av.shape(), bv.shape(), |o, ai, bi| {
                od[o] = f(av.data()[ai], bv.data()[bi]);
            });
        }
        let ng = self.any_needs_grad(&[a, b]);
        self.push(op, vec![a, b], out, ng)
    }

    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Add, a, b, |x, y| x + y)
    }

    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.binary(Op::Mul, a, b, |x, y| x * y)
    }

    // ---- elementwise unary --------------------------------------------------

    fn unary(&mut self, op: Op, a: NodeId, f: impl Fn(f32) -> f32) -> NodeId {
        let out = self.nodes[a].value.map(f);
        let ng = self.nodes[a].needs_grad;
        self.push(op, vec![a], out, ng)
    }

    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        self.unary(Op::Scale(c), a, |x| x * c)
    }

    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Relu, a, |x| x.max(0.0))
    }

    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let mut out = self.nodes[a].value.clone();
        gelu_in_place(out.data_mut());
        let ng = self.nodes[a].needs_grad;
        self.push(Op::Gelu, vec![a], out, ng)
    }

    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Tanh, a, f32::tanh)
    }

    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        self.unary(Op::Sigmoid, a, sigmoid)
    }

    // ---- matmul family ------------------------------------------------------

    /// `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(av.shape().len(), 2, "matmul lhs rank");
        assert_eq!(bv.shape().len(), 2, "matmul rhs rank");
        let (m, k) = (av.shape()[0], av.shape()[1]);
        let (k2, n) = (bv.shape()[0], bv.shape()[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_into(av.data(), bv.data(), &mut out, m, k, n);
        let t = Tensor::from_vec([m, n], out);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(Op::Matmul, vec![a, b], t, ng)
    }

    /// `[b,m,k] x [b,k,n] -> [b,m,n]`.
    pub fn batch_matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a].value, &self.nodes[b].value);
        assert_eq!(av.shape().len(), 3, "batch_matmul lhs rank");
        assert_eq!(bv.shape().len(), 3, "batch_matmul rhs rank");
        let (bt, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
        let (bt2, k2, n) = (bv.shape()[0], bv.shape()[1], bv.shape()[2]);
        assert_eq!(bt, bt2, "batch dims {bt} vs {bt2}");
        assert_eq!(k, k2, "inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; bt * m * n];
        if crate::pool::parallel_worthwhile(bt * m * k * n) && bt > 1 {
            // One batch entry per block: disjoint output slices, identical
            // per-element accumulation order to the serial loop.
            let (ad, bd) = (av.data(), bv.data());
            crate::pool::for_each_block_mut(&mut out, m * n, |i, chunk| {
                matmul_into(
                    &ad[i * m * k..(i + 1) * m * k],
                    &bd[i * k * n..(i + 1) * k * n],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        } else {
            for i in 0..bt {
                matmul_into(
                    &av.data()[i * m * k..(i + 1) * m * k],
                    &bv.data()[i * k * n..(i + 1) * k * n],
                    &mut out[i * m * n..(i + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
        }
        let t = Tensor::from_vec([bt, m, n], out);
        let ng = self.any_needs_grad(&[a, b]);
        self.push(Op::BatchMatmul, vec![a, b], t, ng)
    }

    /// Swap the last two dimensions (rank >= 2).
    pub fn transpose_last2(&mut self, a: NodeId) -> NodeId {
        let v = &self.nodes[a].value;
        let out = transpose_last2_t(v);
        let ng = self.nodes[a].needs_grad;
        self.push(Op::TransposeLast2, vec![a], out, ng)
    }

    // ---- shape ops ----------------------------------------------------------

    pub fn reshape(&mut self, a: NodeId, shape: impl Into<Vec<usize>>) -> NodeId {
        let shape = shape.into();
        let v = self.nodes[a].value.clone().reshape(shape);
        let ng = self.nodes[a].needs_grad;
        self.push(Op::Reshape, vec![a], v, ng)
    }

    /// Concatenate along `axis`; all inputs must agree on the other dims.
    pub fn concat(&mut self, parts: &[NodeId], axis: usize) -> NodeId {
        assert!(!parts.is_empty(), "concat of nothing");
        let first = self.nodes[parts[0]].value.shape().to_vec();
        let rank = first.len();
        assert!(axis < rank, "concat axis {axis} out of rank {rank}");
        let mut axis_total = 0usize;
        for &p in parts {
            let s = self.nodes[p].value.shape();
            assert_eq!(s.len(), rank, "concat rank mismatch");
            for d in 0..rank {
                if d != axis {
                    assert_eq!(s[d], first[d], "concat dim {d} mismatch");
                }
            }
            axis_total += s[axis];
        }
        let mut out_shape = first.clone();
        out_shape[axis] = axis_total;
        let outer: usize = first[..axis].iter().product();
        let inner: usize = first[axis + 1..].iter().product();
        let mut out = vec![0.0f32; numel(&out_shape)];
        let mut axis_off = 0usize;
        for &p in parts {
            let v = &self.nodes[p].value;
            let len = v.shape()[axis];
            for o in 0..outer {
                let src = &v.data()[o * len * inner..(o + 1) * len * inner];
                let dst_start = (o * axis_total + axis_off) * inner;
                out[dst_start..dst_start + len * inner].copy_from_slice(src);
            }
            axis_off += len;
        }
        let t = Tensor::from_vec(out_shape, out);
        let ng = self.any_needs_grad(parts);
        self.push(Op::Concat { axis }, parts.to_vec(), t, ng)
    }

    /// Slice `len` entries starting at `start` along `axis`.
    pub fn narrow(&mut self, a: NodeId, axis: usize, start: usize, len: usize) -> NodeId {
        let v = &self.nodes[a].value;
        let shape = v.shape().to_vec();
        assert!(axis < shape.len(), "narrow axis out of range");
        assert!(start + len <= shape[axis], "narrow slice out of bounds");
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let mut out_shape = shape.clone();
        out_shape[axis] = len;
        let mut out = vec![0.0f32; numel(&out_shape)];
        for o in 0..outer {
            let src_start = (o * shape[axis] + start) * inner;
            out[o * len * inner..(o + 1) * len * inner]
                .copy_from_slice(&v.data()[src_start..src_start + len * inner]);
        }
        let t = Tensor::from_vec(out_shape, out);
        let ng = self.nodes[a].needs_grad;
        self.push(Op::Narrow { axis, start, len }, vec![a], t, ng)
    }

    /// Gather rows of a 2-D table: `[v,d]` indexed by `indices` -> `[n,d]`.
    /// This is the embedding lookup.
    pub fn rows(&mut self, table: NodeId, indices: &[usize]) -> NodeId {
        let v = &self.nodes[table].value;
        assert_eq!(v.shape().len(), 2, "rows() needs a 2-D table");
        let (vocab, d) = (v.shape()[0], v.shape()[1]);
        let mut out = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!(i < vocab, "row index {i} out of table {vocab}");
            out.extend_from_slice(&v.data()[i * d..(i + 1) * d]);
        }
        let t = Tensor::from_vec([indices.len(), d], out);
        let ng = self.nodes[table].needs_grad;
        self.push(Op::Rows { indices: indices.to_vec() }, vec![table], t, ng)
    }

    // ---- reductions ---------------------------------------------------------

    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let s = self.nodes[a].value.sum();
        let ng = self.nodes[a].needs_grad;
        self.push(Op::SumAll, vec![a], Tensor::scalar(s), ng)
    }

    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let s = self.nodes[a].value.mean();
        let ng = self.nodes[a].needs_grad;
        self.push(Op::MeanAll, vec![a], Tensor::scalar(s), ng)
    }

    fn reduce_axis(&mut self, a: NodeId, axis: usize, mean: bool) -> NodeId {
        let t = self.nodes[a].value.reduce_axis(axis, mean);
        let ng = self.nodes[a].needs_grad;
        let op = if mean { Op::MeanAxis(axis) } else { Op::SumAxis(axis) };
        self.push(op, vec![a], t, ng)
    }

    pub fn sum_axis(&mut self, a: NodeId, axis: usize) -> NodeId {
        self.reduce_axis(a, axis, false)
    }

    pub fn mean_axis(&mut self, a: NodeId, axis: usize) -> NodeId {
        self.reduce_axis(a, axis, true)
    }

    // ---- softmax family -----------------------------------------------------

    pub fn softmax_last(&mut self, a: NodeId) -> NodeId {
        let out = self.nodes[a].value.softmax_last();
        let ng = self.nodes[a].needs_grad;
        self.push(Op::SoftmaxLast, vec![a], out, ng)
    }

    pub fn log_softmax_last(&mut self, a: NodeId) -> NodeId {
        let v = &self.nodes[a].value;
        let cols = *v.shape().last().expect("log_softmax needs rank >= 1");
        let rows = v.numel() / cols.max(1);
        let mut out = v.clone();
        for r in 0..rows {
            let s = &mut out.data_mut()[r * cols..(r + 1) * cols];
            let mx = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = mx + s.iter().map(|x| (x - mx).exp()).sum::<f32>().ln();
            for x in s.iter_mut() {
                *x -= lse;
            }
        }
        let ng = self.nodes[a].needs_grad;
        self.push(Op::LogSoftmaxLast, vec![a], out, ng)
    }

    // ---- fused losses / layers ----------------------------------------------

    /// Mean cross-entropy of `logits` (`[n,c]`) against integer `targets`.
    pub fn cross_entropy(&mut self, logits: NodeId, targets: &[usize]) -> NodeId {
        let w = vec![1.0f32; targets.len()];
        self.weighted_cross_entropy(logits, targets, &w)
    }

    /// Per-sample weighted mean cross-entropy. Used both for supervised
    /// training (unit weights) and policy-gradient losses (advantage weights).
    pub fn weighted_cross_entropy(
        &mut self,
        logits: NodeId,
        targets: &[usize],
        weights: &[f32],
    ) -> NodeId {
        let v = &self.nodes[logits].value;
        assert_eq!(v.shape().len(), 2, "cross_entropy logits must be [n,c]");
        let (n, c) = (v.shape()[0], v.shape()[1]);
        assert_eq!(targets.len(), n, "targets len");
        assert_eq!(weights.len(), n, "weights len");
        let mut loss = 0.0f64;
        for r in 0..n {
            let row = &v.data()[r * c..(r + 1) * c];
            let t = targets[r];
            assert!(t < c, "target {t} out of {c} classes");
            let mx = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let lse = mx + row.iter().map(|x| (x - mx).exp()).sum::<f32>().ln();
            loss += (weights[r] * (lse - row[t])) as f64;
        }
        let t = Tensor::scalar((loss / n.max(1) as f64) as f32);
        let ng = self.nodes[logits].needs_grad;
        self.push(
            Op::WeightedCrossEntropy { targets: targets.to_vec(), weights: weights.to_vec() },
            vec![logits],
            t,
            ng,
        )
    }

    /// Mean squared error between two same-shaped tensors (scalar output).
    pub fn mse(&mut self, pred: NodeId, target: NodeId) -> NodeId {
        let (pv, tv) = (&self.nodes[pred].value, &self.nodes[target].value);
        assert_eq!(pv.shape(), tv.shape(), "mse shape mismatch");
        let n = pv.numel().max(1);
        let mut s = 0.0f64;
        for i in 0..pv.numel() {
            let d = (pv.data()[i] - tv.data()[i]) as f64;
            s += d * d;
        }
        let t = Tensor::scalar((s / n as f64) as f32);
        let ng = self.any_needs_grad(&[pred, target]);
        self.push(Op::Mse, vec![pred, target], t, ng)
    }

    /// Layer normalisation over the last dimension with affine parameters.
    /// `gamma` and `beta` must be 1-D of the last-dim size.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let v = &self.nodes[x].value;
        let d = *v.shape().last().expect("layer_norm needs rank >= 1");
        assert_eq!(self.nodes[gamma].value.shape(), &[d], "gamma shape");
        assert_eq!(self.nodes[beta].value.shape(), &[d], "beta shape");
        let mut out = v.clone();
        let gv = self.nodes[gamma].value.data();
        let bv = self.nodes[beta].value.data();
        layer_norm_in_place(out.data_mut(), gv, bv, eps);
        let ng = self.any_needs_grad(&[x, gamma, beta]);
        self.push(Op::LayerNorm { eps }, vec![x, gamma, beta], out, ng)
    }

    /// Inverted dropout; identity in inference mode.
    pub fn dropout(&mut self, a: NodeId, p: f32) -> NodeId {
        if !self.training || p <= 0.0 {
            return a;
        }
        let keep = 1.0 - p;
        let n = self.nodes[a].value.numel();
        let mask: Vec<f32> =
            (0..n).map(|_| if self.rng.unit() < keep { 1.0 / keep } else { 0.0 }).collect();
        let v = &self.nodes[a].value;
        let mut out = v.clone();
        for (o, m) in out.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        let ng = self.nodes[a].needs_grad;
        self.push(Op::Dropout { mask }, vec![a], out, ng)
    }

    /// 1-D convolution: `x [b,ci,t]`, `w [co,ci,k]`, `bias [co]`.
    pub fn conv1d(
        &mut self,
        x: NodeId,
        w: NodeId,
        bias: NodeId,
        stride: usize,
        pad: usize,
    ) -> NodeId {
        let xv = &self.nodes[x].value;
        let wv = &self.nodes[w].value;
        let bv = &self.nodes[bias].value;
        assert_eq!(xv.shape().len(), 3, "conv1d input must be [b,ci,t]");
        assert_eq!(wv.shape().len(), 3, "conv1d weight must be [co,ci,k]");
        let (b, ci, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
        let (co, ci2, k) = (wv.shape()[0], wv.shape()[1], wv.shape()[2]);
        assert_eq!(ci, ci2, "conv1d channel mismatch");
        assert_eq!(bv.shape(), &[co], "conv1d bias shape");
        assert!(t + 2 * pad >= k, "conv1d kernel larger than padded input");
        let t_out = (t + 2 * pad - k) / stride + 1;
        let mut out = vec![0.0f32; b * co * t_out];
        for bi in 0..b {
            for oc in 0..co {
                for ot in 0..t_out {
                    let mut acc = bv.data()[oc];
                    for icc in 0..ci {
                        for kk in 0..k {
                            let it = (ot * stride + kk) as isize - pad as isize;
                            if it < 0 || it >= t as isize {
                                continue;
                            }
                            acc += xv.data()[(bi * ci + icc) * t + it as usize]
                                * wv.data()[(oc * ci + icc) * k + kk];
                        }
                    }
                    out[(bi * co + oc) * t_out + ot] = acc;
                }
            }
        }
        let tshape = Tensor::from_vec([b, co, t_out], out);
        let ng = self.any_needs_grad(&[x, w, bias]);
        self.push(Op::Conv1d { stride, pad }, vec![x, w, bias], tshape, ng)
    }

    // ---- backward -----------------------------------------------------------

    /// Backpropagate from a scalar `loss` node, filling node gradients.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.nodes[loss].value.numel(), 1, "backward from non-scalar");
        let mut grads: Vec<Option<Vec<f32>>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss] = Some(vec![1.0]);
        for id in (0..=loss).rev() {
            let Some(g) = grads[id].take() else { continue };
            if self.nodes[id].needs_grad {
                self.backward_op(id, &g, &mut grads);
            }
            self.cur_bytes += g.len() * 4;
            self.peak_bytes = self.peak_bytes.max(self.cur_bytes);
            let shape = self.nodes[id].value.shape().to_vec();
            self.nodes[id].grad = Some(Tensor::from_vec(shape, g));
        }
    }

    fn acc(&self, grads: &mut [Option<Vec<f32>>], id: NodeId, write: impl FnOnce(&mut [f32])) {
        if !self.nodes[id].needs_grad {
            return;
        }
        let n = self.nodes[id].value.numel();
        let slot = grads[id].get_or_insert_with(|| vec![0.0; n]);
        write(slot);
    }

    #[allow(clippy::too_many_lines)]
    fn backward_op(&self, id: NodeId, g: &[f32], grads: &mut [Option<Vec<f32>>]) {
        let node = &self.nodes[id];
        let ps = node.parents.clone();
        match &node.op {
            Op::Leaf => {}
            Op::Add | Op::Mul => {
                let (a, b) = (ps[0], ps[1]);
                let ash = self.nodes[a].value.shape().to_vec();
                let bsh = self.nodes[b].value.shape().to_vec();
                let out_shape = node.value.shape().to_vec();
                let av = self.nodes[a].value.data();
                let bv = self.nodes[b].value.data();
                // Accumulate into local buffers first to avoid double borrows.
                let mut ga = vec![0.0f32; av.len()];
                let mut gb = vec![0.0f32; bv.len()];
                let op = &node.op;
                for_each_broadcast2(&out_shape, &ash, &bsh, |o, ai, bi| match op {
                    Op::Add => {
                        ga[ai] += g[o];
                        gb[bi] += g[o];
                    }
                    Op::Mul => {
                        ga[ai] += g[o] * bv[bi];
                        gb[bi] += g[o] * av[ai];
                    }
                    _ => unreachable!(),
                });
                self.acc(grads, a, |s| add_into(s, &ga));
                self.acc(grads, b, |s| add_into(s, &gb));
            }
            Op::Scale(c) => {
                let c = *c;
                self.acc(grads, ps[0], |s| {
                    for (si, gi) in s.iter_mut().zip(g) {
                        *si += gi * c;
                    }
                })
            }
            Op::Relu => {
                let x = self.nodes[ps[0]].value.data();
                self.acc(grads, ps[0], |s| {
                    for i in 0..s.len() {
                        if x[i] > 0.0 {
                            s[i] += g[i];
                        }
                    }
                });
            }
            Op::Gelu => {
                let x = self.nodes[ps[0]].value.data();
                self.acc(grads, ps[0], |s| {
                    for i in 0..s.len() {
                        s[i] += g[i] * gelu_bwd(x[i]);
                    }
                });
            }
            Op::Tanh => {
                let y = node.value.data();
                self.acc(grads, ps[0], |s| {
                    for i in 0..s.len() {
                        s[i] += g[i] * (1.0 - y[i] * y[i]);
                    }
                });
            }
            Op::Sigmoid => {
                let y = node.value.data();
                self.acc(grads, ps[0], |s| {
                    for i in 0..s.len() {
                        s[i] += g[i] * y[i] * (1.0 - y[i]);
                    }
                });
            }
            Op::Matmul => {
                let (a, b) = (ps[0], ps[1]);
                let av = &self.nodes[a].value;
                let bv = &self.nodes[b].value;
                let (m, k) = (av.shape()[0], av.shape()[1]);
                let n = bv.shape()[1];
                if self.nodes[a].needs_grad {
                    // dA = G x B^T
                    let bt = bv.t();
                    let mut da = vec![0.0f32; m * k];
                    matmul_into(g, bt.data(), &mut da, m, n, k);
                    self.acc(grads, a, |s| add_into(s, &da));
                }
                if self.nodes[b].needs_grad {
                    // dB = A^T x G
                    let at = av.t();
                    let mut db = vec![0.0f32; k * n];
                    matmul_into(at.data(), g, &mut db, k, m, n);
                    self.acc(grads, b, |s| add_into(s, &db));
                }
            }
            Op::BatchMatmul => {
                let (a, b) = (ps[0], ps[1]);
                let av = &self.nodes[a].value;
                let bv = &self.nodes[b].value;
                let (bt, m, k) = (av.shape()[0], av.shape()[1], av.shape()[2]);
                let n = bv.shape()[2];
                if self.nodes[a].needs_grad {
                    let mut da = vec![0.0f32; bt * m * k];
                    for i in 0..bt {
                        let bslice = &bv.data()[i * k * n..(i + 1) * k * n];
                        let btrans = transpose2(bslice, k, n);
                        matmul_into(
                            &g[i * m * n..(i + 1) * m * n],
                            &btrans,
                            &mut da[i * m * k..(i + 1) * m * k],
                            m,
                            n,
                            k,
                        );
                    }
                    self.acc(grads, a, |s| add_into(s, &da));
                }
                if self.nodes[b].needs_grad {
                    let mut db = vec![0.0f32; bt * k * n];
                    for i in 0..bt {
                        let aslice = &av.data()[i * m * k..(i + 1) * m * k];
                        let atrans = transpose2(aslice, m, k);
                        matmul_into(
                            &atrans,
                            &g[i * m * n..(i + 1) * m * n],
                            &mut db[i * k * n..(i + 1) * k * n],
                            k,
                            m,
                            n,
                        );
                    }
                    self.acc(grads, b, |s| add_into(s, &db));
                }
            }
            Op::TransposeLast2 => {
                let out_shape = node.value.shape().to_vec();
                let gt = Tensor::from_vec(out_shape, g.to_vec());
                let back = transpose_last2_t(&gt);
                self.acc(grads, ps[0], |s| add_into(s, back.data()));
            }
            Op::Reshape => self.acc(grads, ps[0], |s| add_into(s, g)),
            Op::Concat { axis } => {
                let axis = *axis;
                let out_shape = node.value.shape().to_vec();
                let outer: usize = out_shape[..axis].iter().product();
                let inner: usize = out_shape[axis + 1..].iter().product();
                let total = out_shape[axis];
                let mut axis_off = 0usize;
                for &p in &ps {
                    let len = self.nodes[p].value.shape()[axis];
                    if self.nodes[p].needs_grad {
                        let mut gp = vec![0.0f32; self.nodes[p].value.numel()];
                        for o in 0..outer {
                            let src_start = (o * total + axis_off) * inner;
                            gp[o * len * inner..(o + 1) * len * inner]
                                .copy_from_slice(&g[src_start..src_start + len * inner]);
                        }
                        self.acc(grads, p, |s| add_into(s, &gp));
                    }
                    axis_off += len;
                }
            }
            Op::Narrow { axis, start, len } => {
                let (axis, start, len) = (*axis, *start, *len);
                let pshape = self.nodes[ps[0]].value.shape().to_vec();
                let outer: usize = pshape[..axis].iter().product();
                let inner: usize = pshape[axis + 1..].iter().product();
                let d = pshape[axis];
                self.acc(grads, ps[0], |s| {
                    for o in 0..outer {
                        for j in 0..len {
                            let dst = (o * d + start + j) * inner;
                            let src = (o * len + j) * inner;
                            for i in 0..inner {
                                s[dst + i] += g[src + i];
                            }
                        }
                    }
                });
            }
            Op::Rows { indices } => {
                let d = self.nodes[ps[0]].value.shape()[1];
                self.acc(grads, ps[0], |s| {
                    for (r, &i) in indices.iter().enumerate() {
                        for j in 0..d {
                            s[i * d + j] += g[r * d + j];
                        }
                    }
                });
            }
            Op::SumAll => self.acc(grads, ps[0], |s| {
                for si in s.iter_mut() {
                    *si += g[0];
                }
            }),
            Op::MeanAll => {
                let n = self.nodes[ps[0]].value.numel().max(1) as f32;
                self.acc(grads, ps[0], |s| {
                    for si in s.iter_mut() {
                        *si += g[0] / n;
                    }
                });
            }
            Op::SumAxis(axis) | Op::MeanAxis(axis) => {
                let axis = *axis;
                let pshape = self.nodes[ps[0]].value.shape().to_vec();
                let outer: usize = pshape[..axis].iter().product();
                let inner: usize = pshape[axis + 1..].iter().product();
                let d = pshape[axis];
                let scale = if matches!(node.op, Op::MeanAxis(_)) { 1.0 / d as f32 } else { 1.0 };
                self.acc(grads, ps[0], |s| {
                    for o in 0..outer {
                        for j in 0..d {
                            let base = (o * d + j) * inner;
                            for i in 0..inner {
                                s[base + i] += g[o * inner + i] * scale;
                            }
                        }
                    }
                });
            }
            Op::SoftmaxLast => {
                let y = node.value.data();
                let cols = *node.value.shape().last().unwrap();
                let rows = y.len() / cols.max(1);
                self.acc(grads, ps[0], |s| {
                    for r in 0..rows {
                        let off = r * cols;
                        let dot: f32 = (0..cols).map(|i| g[off + i] * y[off + i]).sum();
                        for i in 0..cols {
                            s[off + i] += y[off + i] * (g[off + i] - dot);
                        }
                    }
                });
            }
            Op::LogSoftmaxLast => {
                let y = node.value.data();
                let cols = *node.value.shape().last().unwrap();
                let rows = y.len() / cols.max(1);
                self.acc(grads, ps[0], |s| {
                    for r in 0..rows {
                        let off = r * cols;
                        let gsum: f32 = (0..cols).map(|i| g[off + i]).sum();
                        for i in 0..cols {
                            s[off + i] += g[off + i] - y[off + i].exp() * gsum;
                        }
                    }
                });
            }
            Op::WeightedCrossEntropy { targets, weights } => {
                let v = &self.nodes[ps[0]].value;
                let (n, c) = (v.shape()[0], v.shape()[1]);
                let scale = g[0] / n.max(1) as f32;
                self.acc(grads, ps[0], |s| {
                    for r in 0..n {
                        let row = &v.data()[r * c..(r + 1) * c];
                        let mut sm = row.to_vec();
                        softmax_in_place(&mut sm);
                        let w = weights[r] * scale;
                        for i in 0..c {
                            let onehot = if i == targets[r] { 1.0 } else { 0.0 };
                            s[r * c + i] += w * (sm[i] - onehot);
                        }
                    }
                });
            }
            Op::Mse => {
                let (p, t) = (ps[0], ps[1]);
                let pv = self.nodes[p].value.data();
                let tv = self.nodes[t].value.data();
                let n = pv.len().max(1) as f32;
                let scale = 2.0 * g[0] / n;
                self.acc(grads, p, |s| {
                    for i in 0..s.len() {
                        s[i] += scale * (pv[i] - tv[i]);
                    }
                });
                self.acc(grads, t, |s| {
                    for i in 0..s.len() {
                        s[i] -= scale * (pv[i] - tv[i]);
                    }
                });
            }
            Op::Dropout { mask } => self.acc(grads, ps[0], |s| {
                for i in 0..s.len() {
                    s[i] += g[i] * mask[i];
                }
            }),
            Op::LayerNorm { eps } => {
                let eps = *eps;
                let x = &self.nodes[ps[0]].value;
                let d = *x.shape().last().unwrap();
                let rows = x.numel() / d;
                let gv = self.nodes[ps[1]].value.data();
                let xd = x.data();
                // Per-row statistics recomputed (cheaper than storing).
                let mut dgamma = vec![0.0f32; d];
                let mut dbeta = vec![0.0f32; d];
                let mut dx = vec![0.0f32; xd.len()];
                for r in 0..rows {
                    let off = r * d;
                    let row = &xd[off..off + d];
                    let (mean, inv) = layer_norm_stats(row, eps);
                    // xhat_i = (x_i - mean) * inv
                    let mut sum_gy = 0.0f32;
                    let mut sum_gy_xhat = 0.0f32;
                    for i in 0..d {
                        let xhat = (row[i] - mean) * inv;
                        let gy = g[off + i] * gv[i];
                        sum_gy += gy;
                        sum_gy_xhat += gy * xhat;
                        dgamma[i] += g[off + i] * xhat;
                        dbeta[i] += g[off + i];
                    }
                    for i in 0..d {
                        let xhat = (row[i] - mean) * inv;
                        let gy = g[off + i] * gv[i];
                        dx[off + i] +=
                            inv * (gy - sum_gy / d as f32 - xhat * sum_gy_xhat / d as f32);
                    }
                }
                self.acc(grads, ps[0], |s| add_into(s, &dx));
                self.acc(grads, ps[1], |s| add_into(s, &dgamma));
                self.acc(grads, ps[2], |s| add_into(s, &dbeta));
            }
            Op::Conv1d { stride, pad } => {
                let (stride, pad) = (*stride, *pad);
                let xv = &self.nodes[ps[0]].value;
                let wv = &self.nodes[ps[1]].value;
                let (b, ci, t) = (xv.shape()[0], xv.shape()[1], xv.shape()[2]);
                let (co, _, k) = (wv.shape()[0], wv.shape()[1], wv.shape()[2]);
                let t_out = (t + 2 * pad - k) / stride + 1;
                let mut dx = vec![0.0f32; xv.numel()];
                let mut dw = vec![0.0f32; wv.numel()];
                let mut db = vec![0.0f32; co];
                for bi in 0..b {
                    for oc in 0..co {
                        for ot in 0..t_out {
                            let go = g[(bi * co + oc) * t_out + ot];
                            if go == 0.0 {
                                continue;
                            }
                            db[oc] += go;
                            for icc in 0..ci {
                                for kk in 0..k {
                                    let it = (ot * stride + kk) as isize - pad as isize;
                                    if it < 0 || it >= t as isize {
                                        continue;
                                    }
                                    let xi = (bi * ci + icc) * t + it as usize;
                                    let wi = (oc * ci + icc) * k + kk;
                                    dx[xi] += go * wv.data()[wi];
                                    dw[wi] += go * xv.data()[xi];
                                }
                            }
                        }
                    }
                }
                self.acc(grads, ps[0], |s| add_into(s, &dx));
                self.acc(grads, ps[1], |s| add_into(s, &dw));
                self.acc(grads, ps[2], |s| add_into(s, &db));
            }
        }
    }
}

fn add_into(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn gelu_bwd(x: f32) -> f32 {
    let u = GELU_C * (x + 0.044715 * x * x * x);
    let t = tanh_fast(u);
    let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

fn transpose2(a: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    transpose_into(a, &mut out, m, n);
    out
}

fn transpose_last2_t(v: &Tensor) -> Tensor {
    let shape = v.shape();
    assert!(shape.len() >= 2, "transpose_last2 needs rank >= 2");
    let (m, n) = (shape[shape.len() - 2], shape[shape.len() - 1]);
    let batch: usize = shape[..shape.len() - 2].iter().product();
    let mut out_shape = shape.to_vec();
    let l = out_shape.len();
    out_shape.swap(l - 2, l - 1);
    let mut out = vec![0.0f32; v.numel()];
    for bi in 0..batch {
        let block = bi * m * n..(bi + 1) * m * n;
        transpose_into(&v.data()[block.clone()], &mut out[block], m, n);
    }
    Tensor::from_vec(out_shape, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically check d(loss)/d(leaf) for a scalar-producing builder.
    fn grad_check(input: Tensor, build: impl Fn(&mut Graph, NodeId) -> NodeId) {
        let mut g = Graph::new(false, 0);
        let x = g.leaf(input.clone(), true);
        let loss = build(&mut g, x);
        g.backward(loss);
        let analytic = g.grad(x).expect("no grad").clone();

        let eps = 1e-3f32;
        for i in 0..input.numel() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            let mut gp = Graph::new(false, 0);
            let xp = gp.leaf(plus, true);
            let lp = build(&mut gp, xp);
            let mut gm = Graph::new(false, 0);
            let xm = gm.leaf(minus, true);
            let lm = build(&mut gm, xm);
            let numeric = (gp.value(lp).item() - gm.value(lm).item()) / (2.0 * eps);
            let a = analytic.data()[i];
            let denom = numeric.abs().max(a.abs()).max(1.0);
            assert!(
                (numeric - a).abs() / denom < 2e-2,
                "grad mismatch at {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    fn probe() -> Tensor {
        Tensor::from_vec([2, 3], vec![0.5, -1.2, 0.3, 2.0, -0.7, 1.1])
    }

    #[test]
    fn grad_add_mul_chain() {
        grad_check(probe(), |g, x| {
            let c = g.constant(Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]));
            let y = g.mul(x, c);
            let z = g.add(y, x);
            g.sum_all(z)
        });
    }

    #[test]
    fn grad_broadcast_add() {
        grad_check(probe(), |g, x| {
            let b = g.constant(Tensor::from_slice(&[1.0, -2.0, 0.5]));
            let y = g.add(x, b);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn grad_broadcast_reduces_into_small_operand() {
        // Gradient must SUM over the broadcast dimension for the small side.
        let mut g = Graph::new(false, 0);
        let big = g.constant(Tensor::ones([4, 3]));
        let small = g.leaf(Tensor::from_slice(&[1.0, 2.0, 3.0]), true);
        let y = g.mul(big, small);
        let l = g.sum_all(y);
        g.backward(l);
        assert_eq!(g.grad(small).unwrap().data(), &[4.0, 4.0, 4.0]);
    }

    #[test]
    fn grad_matmul_both_sides() {
        let a = Tensor::from_vec([2, 3], vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]);
        grad_check(a, |g, x| {
            let w = g.constant(Tensor::from_vec([3, 2], vec![1., -1., 2., 0.5, -0.5, 1.5]));
            let y = g.matmul(x, w);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
        // and for the rhs
        let b = Tensor::from_vec([3, 2], vec![1., -1., 2., 0.5, -0.5, 1.5]);
        grad_check(b, |g, x| {
            let a = g.constant(Tensor::from_vec([2, 3], vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6]));
            let y = g.matmul(a, x);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_batch_matmul() {
        let a = Tensor::from_vec([2, 2, 2], vec![0.1, 0.2, -0.3, 0.4, 0.5, -0.6, 0.7, 0.8]);
        grad_check(a, |g, x| {
            let b = g.constant(Tensor::from_vec(
                [2, 2, 2],
                vec![1., -1., 2., 0.5, -0.5, 1.5, 0.3, -0.2],
            ));
            let y = g.batch_matmul(x, b);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_unary_activations() {
        for op in ["relu", "gelu", "tanh", "sigmoid"] {
            grad_check(probe(), |g, x| {
                let y = match op {
                    "relu" => g.relu(x),
                    "gelu" => g.gelu(x),
                    "tanh" => g.tanh(x),
                    "sigmoid" => g.sigmoid(x),
                    _ => unreachable!(),
                };
                g.sum_all(y)
            });
        }
    }

    #[test]
    fn taped_gelu_forward_is_the_slice_kernel() {
        // One definition: the taped forward must equal `gelu_in_place` on
        // the same buffer bit for bit (the cached path runs the latter).
        let mut rng = Rng::seeded(77);
        let x = Tensor::randn([5, 13], 3.0, &mut rng);
        let mut g = Graph::new(false, 0);
        let leaf = g.leaf(x.clone(), false);
        let y = g.gelu(leaf);
        let mut want = x;
        gelu_in_place(want.data_mut());
        assert_eq!(g.value(y), &want);
    }

    #[test]
    fn grad_softmax_and_log_softmax() {
        grad_check(probe(), |g, x| {
            let y = g.softmax_last(x);
            let c = g.constant(Tensor::from_vec([2, 3], vec![1., 0., 2., -1., 3., 0.5]));
            let z = g.mul(y, c);
            g.sum_all(z)
        });
        grad_check(probe(), |g, x| {
            let y = g.log_softmax_last(x);
            let c = g.constant(Tensor::from_vec([2, 3], vec![1., 0., 2., -1., 3., 0.5]));
            let z = g.mul(y, c);
            g.sum_all(z)
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(probe(), |g, x| g.cross_entropy(x, &[2, 0]));
    }

    #[test]
    fn grad_weighted_cross_entropy() {
        grad_check(probe(), |g, x| g.weighted_cross_entropy(x, &[2, 0], &[0.5, -1.5]));
    }

    #[test]
    fn grad_mse() {
        grad_check(probe(), |g, x| {
            let t = g.constant(Tensor::from_vec([2, 3], vec![0., 1., 0., 1., 0., 1.]));
            g.mse(x, t)
        });
    }

    #[test]
    fn grad_layer_norm_all_three_inputs() {
        grad_check(probe(), |g, x| {
            let gamma = g.constant(Tensor::from_slice(&[1.0, 2.0, 0.5]));
            let beta = g.constant(Tensor::from_slice(&[0.1, -0.1, 0.0]));
            let y = g.layer_norm(x, gamma, beta, 1e-5);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
        // gamma gradient
        let gamma0 = Tensor::from_slice(&[1.0, 2.0, 0.5]);
        grad_check(gamma0, |g, gamma| {
            let x = g.constant(Tensor::from_vec([2, 3], vec![0.5, -1.2, 0.3, 2.0, -0.7, 1.1]));
            let beta = g.constant(Tensor::from_slice(&[0.1, -0.1, 0.0]));
            let y = g.layer_norm(x, gamma, beta, 1e-5);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_reductions() {
        grad_check(probe(), |g, x| {
            let s = g.sum_axis(x, 0);

            g.mean_axis(s, 0)
        });
        grad_check(probe(), |g, x| {
            let m = g.mean_axis(x, 1);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_shape_ops() {
        grad_check(probe(), |g, x| {
            let r = g.reshape(x, [3, 2]);
            let t = g.transpose_last2(r);
            let n = g.narrow(t, 1, 1, 2);
            let sq = g.mul(n, n);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_concat() {
        grad_check(probe(), |g, x| {
            let c = g.constant(Tensor::ones([2, 2]));
            let y = g.concat(&[x, c], 1);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_rows_scatter_adds() {
        // Same row gathered twice must receive twice the gradient.
        let mut g = Graph::new(false, 0);
        let table = g.leaf(Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]), true);
        let picked = g.rows(table, &[1, 1, 0]);
        let l = g.sum_all(picked);
        g.backward(l);
        assert_eq!(g.grad(table).unwrap().data(), &[1., 1., 2., 2., 0., 0.]);
    }

    #[test]
    fn grad_conv1d() {
        let x = Tensor::from_vec([1, 2, 4], vec![0.1, 0.2, 0.3, 0.4, -0.1, -0.2, -0.3, -0.4]);
        grad_check(x, |g, x| {
            let w =
                g.constant(Tensor::from_vec([2, 2, 3], (0..12).map(|i| 0.1 * i as f32).collect()));
            let b = g.constant(Tensor::from_slice(&[0.1, -0.1]));
            let y = g.conv1d(x, w, b, 1, 1);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn conv1d_same_padding_keeps_length() {
        let mut g = Graph::inference();
        let x = g.constant(Tensor::ones([1, 1, 8]));
        let w = g.constant(Tensor::ones([4, 1, 3]));
        let b = g.constant(Tensor::zeros([4]));
        let y = g.conv1d(x, w, b, 1, 1);
        assert_eq!(g.value(y).shape(), &[1, 4, 8]);
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut g = Graph::inference();
        let x = g.leaf(Tensor::ones([4]), true);
        let y = g.dropout(x, 0.5);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_scales_in_training() {
        let mut g = Graph::new(true, 1);
        let x = g.leaf(Tensor::ones([1000]), true);
        let y = g.dropout(x, 0.5);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.15, "inverted dropout should be mean-preserving: {mean}");
        let l = g.sum_all(y);
        g.backward(l);
        // Gradient flows only through kept units.
        let gr = g.grad(x).unwrap();
        let zeros = gr.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 300 && zeros < 700);
    }

    #[test]
    fn no_grad_for_constants() {
        let mut g = Graph::inference();
        let a = g.constant(Tensor::ones([2]));
        let b = g.leaf(Tensor::ones([2]), true);
        let y = g.mul(a, b);
        let l = g.sum_all(y);
        g.backward(l);
        assert!(g.grad(a).is_none() || g.grad(a).is_some()); // stored grad for a may exist...
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // loss = sum(x*x + x) -> dx = 2x + 1
        let mut g = Graph::inference();
        let x = g.leaf(Tensor::from_slice(&[3.0]), true);
        let sq = g.mul(x, x);
        let y = g.add(sq, x);
        let l = g.sum_all(y);
        g.backward(l);
        assert_eq!(g.grad(x).unwrap().data(), &[7.0]);
    }

    #[test]
    fn peak_bytes_grows_with_graph() {
        let mut g = Graph::inference();
        let x = g.leaf(Tensor::zeros([100, 100]), true);
        let y = g.relu(x);
        let l = g.sum_all(y);
        g.backward(l);
        // two 100x100 values + grads at 4 bytes each, plus scalars
        assert!(g.peak_bytes() >= 100 * 100 * 4 * 2);
    }
}
