//! Core layers: Linear (with optional LoRA adapter), Embedding, LayerNorm,
//! Conv1d and a two-layer MLP.

use crate::store::{Fwd, ParamId, ParamStore};
use nt_tensor::tensor::matmul_into;
use nt_tensor::{NodeId, Rng, Tensor};

/// Weight initialisation schemes.
#[derive(Clone, Copy, Debug)]
pub enum Init {
    /// N(0, std).
    Normal(f32),
    /// Xavier/Glorot uniform for a `[fan_in, fan_out]` matrix.
    Xavier,
    /// Kaiming/He normal (fan-in) — use before ReLU-family activations.
    Kaiming,
    Zeros,
}

impl Init {
    pub fn sample(self, shape: &[usize], fan_in: usize, fan_out: usize, rng: &mut Rng) -> Tensor {
        match self {
            Init::Normal(std) => Tensor::randn(shape.to_vec(), std, rng),
            Init::Xavier => {
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                Tensor::rand_uniform(shape.to_vec(), -a, a, rng)
            }
            Init::Kaiming => {
                let std = (2.0 / fan_in as f32).sqrt();
                Tensor::randn(shape.to_vec(), std, rng)
            }
            Init::Zeros => Tensor::zeros(shape.to_vec()),
        }
    }
}

/// Low-rank adapter attached to a [`Linear`]: `y += x·A·B * (alpha/r)`.
///
/// This is the paper's DD-LRNA low-rank matrices (§4.3): the base weight is
/// frozen and all task-specific parameter change is constrained to `A`/`B`.
#[derive(Clone, Debug)]
pub struct Lora {
    pub a: ParamId,
    pub b: ParamId,
    pub rank: usize,
    pub scale: f32,
}

/// Fully connected layer `y = x·W + b` over the last dimension.
/// Accepts rank-2 `[n, in]` or rank-3 `[b, t, in]` inputs.
#[derive(Clone, Debug)]
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
    pub in_dim: usize,
    pub out_dim: usize,
    pub lora: Option<Lora>,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
        init: Init,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add(
            format!("{name}.w"),
            init.sample(&[in_dim, out_dim], in_dim, out_dim, rng),
            true,
        );
        let b = bias.then(|| store.add(format!("{name}.b"), Tensor::zeros([out_dim]), true));
        Linear { w, b, in_dim, out_dim, lora: None }
    }

    /// Attach a LoRA adapter of rank `r`; freezes the base weight (and bias).
    /// `A` is initialised randomly, `B` to zero, so the adapted layer starts
    /// exactly equal to the frozen layer (standard LoRA initialisation).
    pub fn attach_lora(&mut self, store: &mut ParamStore, r: usize, alpha: f32, rng: &mut Rng) {
        assert!(r > 0, "LoRA rank must be positive");
        let name = store.name(self.w).trim_end_matches(".w").to_string();
        store.set_trainable(self.w, false);
        if let Some(b) = self.b {
            store.set_trainable(b, false);
        }
        let a = store.add(
            format!("{name}.lora_a"),
            Tensor::randn([self.in_dim, r], (1.0 / self.in_dim as f32).sqrt(), rng),
            true,
        );
        let b = store.add(format!("{name}.lora_b"), Tensor::zeros([r, self.out_dim]), true);
        self.lora = Some(Lora { a, b, rank: r, scale: alpha / r as f32 });
    }

    /// Remove the adapter (used by the "no domain knowledge" ablation).
    pub fn detach_lora(&mut self) {
        self.lora = None;
    }

    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId) -> NodeId {
        let shape = f.g.value(x).shape().to_vec();
        let rank = shape.len();
        assert!(rank == 2 || rank == 3, "Linear input must be rank 2 or 3, got {shape:?}");
        assert_eq!(*shape.last().unwrap(), self.in_dim, "Linear in_dim mismatch");
        let flat = if rank == 3 { f.g.reshape(x, [shape[0] * shape[1], self.in_dim]) } else { x };
        let w = f.p(store, self.w);
        let mut y = f.g.matmul(flat, w);
        if let Some(l) = &self.lora {
            let a = f.p(store, l.a);
            let b = f.p(store, l.b);
            let xa = f.g.matmul(flat, a);
            let xab = f.g.matmul(xa, b);
            let scaled = f.g.scale(xab, l.scale);
            y = f.g.add(y, scaled);
        }
        if let Some(bid) = self.b {
            let b = f.p(store, bid);
            y = f.g.add(y, b);
        }
        if rank == 3 {
            f.g.reshape(y, [shape[0], shape[1], self.out_dim])
        } else {
            y
        }
    }

    /// Graph-free inference forward over `[n, in_dim]`:
    /// [`Linear::eval_into`] into a fresh buffer.
    pub fn eval(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear::eval input must be [n, in]");
        let n = x.shape()[0];
        let mut out = Vec::new();
        self.eval_into(store, x.data(), n, &mut out);
        Tensor::from_vec([n, self.out_dim], out)
    }

    /// Graph-free inference forward of `n` row-major rows `x` (`[n,
    /// in_dim]`) into `out`, resized to `[n, out_dim]`: same math
    /// (including the LoRA branch) without tape bookkeeping or parameter
    /// cloning. The bias seeds `out` before the accumulating matmul kernel
    /// runs, so no broadcast pass is needed afterwards, and an `out`
    /// reused across calls allocates nothing once it has grown.
    pub fn eval_into(&self, store: &ParamStore, x: &[f32], n: usize, out: &mut Vec<f32>) {
        assert_eq!(x.len(), n * self.in_dim, "Linear in_dim mismatch");
        out.resize(n * self.out_dim, 0.0);
        match self.b {
            Some(bid) => {
                let bias = store.data(bid).data();
                for row in out.chunks_exact_mut(self.out_dim) {
                    row.copy_from_slice(bias);
                }
            }
            None => out.fill(0.0),
        }
        let w = store.data(self.w);
        matmul_into(x, w.data(), out, n, self.in_dim, self.out_dim);
        if let Some(l) = &self.lora {
            let mut xa = vec![0.0f32; n * l.rank];
            matmul_into(x, store.data(l.a).data(), &mut xa, n, self.in_dim, l.rank);
            let mut xab = vec![0.0f32; n * self.out_dim];
            matmul_into(&xa, store.data(l.b).data(), &mut xab, n, l.rank, self.out_dim);
            for (o, v) in out.iter_mut().zip(&xab) {
                *o += v * l.scale;
            }
        }
    }
}

/// Token/row embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    pub table: ParamId,
    pub vocab: usize,
    pub dim: usize,
}

impl Embedding {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let table =
            store.add(format!("{name}.table"), Tensor::randn([vocab, dim], 0.02, rng), true);
        Embedding { table, vocab, dim }
    }

    /// Look up `ids`, producing `[len, dim]`.
    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        let t = f.p(store, self.table);
        f.g.rows(t, ids)
    }

    /// Graph-free lookup.
    pub fn eval(&self, store: &ParamStore, ids: &[usize]) -> Tensor {
        store.data(self.table).gather_rows(ids)
    }
}

/// Layer normalisation with affine parameters over the last dimension.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub eps: f32,
}

impl LayerNorm {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::ones([dim]), true);
        let beta = store.add(format!("{name}.beta"), Tensor::zeros([dim]), true);
        LayerNorm { gamma, beta, eps: 1e-5 }
    }

    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId) -> NodeId {
        let g = f.p(store, self.gamma);
        let b = f.p(store, self.beta);
        f.g.layer_norm(x, g, b, self.eps)
    }

    /// Graph-free inference forward over every row of `xs`, in place
    /// (same per-row statistics as the taped kernel, so cached and
    /// uncached paths agree numerically).
    pub fn eval_in_place(&self, store: &ParamStore, xs: &mut [f32]) {
        let gv = store.data(self.gamma).data();
        assert_eq!(xs.len() % gv.len(), 0, "layer_norm rows must be gamma-wide");
        nt_tensor::tensor::layer_norm_in_place(xs, gv, store.data(self.beta).data(), self.eps);
    }
}

/// 1-D convolution layer (`same` or `valid` padding).
#[derive(Clone, Debug)]
pub struct Conv1d {
    pub w: ParamId,
    pub b: ParamId,
    pub stride: usize,
    pub pad: usize,
}

impl Conv1d {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        c_in: usize,
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = c_in * kernel;
        let std = (2.0 / fan_in as f32).sqrt();
        let w =
            store.add(format!("{name}.w"), Tensor::randn([c_out, c_in, kernel], std, rng), true);
        let b = store.add(format!("{name}.b"), Tensor::zeros([c_out]), true);
        Conv1d { w, b, stride, pad }
    }

    /// `x` is `[batch, c_in, t]`.
    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId) -> NodeId {
        let w = f.p(store, self.w);
        let b = f.p(store, self.b);
        f.g.conv1d(x, w, b, self.stride, self.pad)
    }

    /// Graph-free inference forward of `b` series `[b, c_in, t]` into their
    /// per-step features `[b * t_out, c_out]`: row `i * t_out + s` is
    /// series `i` at output step `s`, the taped conv's `[b, c_out, t_out]`
    /// transposed. Channels run innermost, against a `[c_in, k, c_out]`
    /// view of the weights. Each output keeps the taped conv's chain: the
    /// bias, then the taps in ascending (channel, offset) order with the
    /// padding skipped, so the values are its bits.
    pub fn eval_steps(&self, store: &ParamStore, x: &Tensor) -> Tensor {
        let wv = store.data(self.w);
        let bias = store.data(self.b).data();
        assert_eq!(x.shape().len(), 3, "conv1d input must be [b,ci,t]");
        let (b, ci, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let (co, ci2, k) = (wv.shape()[0], wv.shape()[1], wv.shape()[2]);
        assert_eq!(ci, ci2, "conv1d channel mismatch");
        assert!(t + 2 * self.pad >= k, "conv1d kernel larger than padded input");
        let t_out = (t + 2 * self.pad - k) / self.stride + 1;
        let mut taps = vec![0.0f32; ci * k * co];
        for (oc, w_oc) in wv.data().chunks_exact(ci * k).enumerate() {
            for (tap, &w) in w_oc.iter().enumerate() {
                taps[tap * co + oc] = w;
            }
        }
        let mut out = Vec::with_capacity(b * t_out * co);
        for series in x.data().chunks_exact(ci * t) {
            for s in 0..t_out {
                // Offsets `kk` whose input step `s * stride + kk - pad`
                // lies inside the series.
                let first = s * self.stride;
                let (lo, hi) =
                    (self.pad.saturating_sub(first), k.min((t + self.pad).saturating_sub(first)));
                let start = out.len();
                out.extend_from_slice(bias);
                let row = &mut out[start..];
                for (xs, taps) in series.chunks_exact(t).zip(taps.chunks_exact(k * co)) {
                    for kk in lo..hi {
                        let v = xs[first + kk - self.pad];
                        for (o, w) in row.iter_mut().zip(&taps[kk * co..(kk + 1) * co]) {
                            *o += v * w;
                        }
                    }
                }
            }
        }
        Tensor::from_vec([b * t_out, co], out)
    }
}

/// Two-layer MLP with GELU, the Transformer feed-forward shape.
#[derive(Clone, Debug)]
pub struct Mlp {
    pub up: Linear,
    pub down: Linear,
}

impl Mlp {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        let up = Linear::new(store, &format!("{name}.up"), dim, hidden, true, Init::Kaiming, rng);
        let down =
            Linear::new(store, &format!("{name}.down"), hidden, dim, true, Init::Xavier, rng);
        Mlp { up, down }
    }

    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId) -> NodeId {
        let h = self.up.forward(f, store, x);
        let h = f.g.gelu(h);
        self.down.forward(f, store, h)
    }

    /// Graph-free inference forward of `n` rows `x` into `out`, through
    /// `hidden` (GELU applied in place): with both buffers reused across
    /// calls, nothing is allocated.
    pub fn eval_into(
        &self,
        store: &ParamStore,
        x: &[f32],
        n: usize,
        hidden: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        self.up.eval_into(store, x, n, hidden);
        nt_tensor::gelu_in_place(hidden);
        self.down.eval_into(store, hidden, n, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_shapes_rank2_and_rank3() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(1);
        let lin = Linear::new(&mut s, "l", 4, 3, true, Init::Xavier, &mut rng);
        let mut f = Fwd::eval();
        let x2 = f.input(Tensor::ones([5, 4]));
        let y2 = lin.forward(&mut f, &s, x2);
        assert_eq!(f.g.value(y2).shape(), &[5, 3]);
        let x3 = f.input(Tensor::ones([2, 5, 4]));
        let y3 = lin.forward(&mut f, &s, x3);
        assert_eq!(f.g.value(y3).shape(), &[2, 5, 3]);
    }

    #[test]
    fn lora_starts_as_identity_and_freezes_base() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(2);
        let mut lin = Linear::new(&mut s, "l", 4, 4, true, Init::Xavier, &mut rng);
        let x = Tensor::randn([3, 4], 1.0, &mut rng);

        let mut f = Fwd::eval();
        let xin = f.input(x.clone());
        let base_node = lin.forward(&mut f, &s, xin);
        let base = f.g.value(base_node).clone();

        lin.attach_lora(&mut s, 2, 2.0, &mut rng);
        assert!(!s.is_trainable(lin.w), "base weight must freeze");
        let mut f2 = Fwd::eval();
        let xin2 = f2.input(x);
        let adapted_node = lin.forward(&mut f2, &s, xin2);
        let adapted = f2.g.value(adapted_node).clone();
        for (a, b) in base.data().iter().zip(adapted.data()) {
            assert!((a - b).abs() < 1e-6, "LoRA with zero B must be identity");
        }
        // Only the adapter params are trainable now.
        assert_eq!(s.num_trainable(), 4 * 2 + 2 * 4);
    }

    #[test]
    fn lora_gradients_flow_to_adapter_only() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(3);
        let mut lin = Linear::new(&mut s, "l", 4, 2, false, Init::Xavier, &mut rng);
        lin.attach_lora(&mut s, 2, 2.0, &mut rng);
        let mut f = Fwd::eval();
        let x = f.input(Tensor::ones([1, 4]));
        let y = lin.forward(&mut f, &s, x);
        let l = f.g.sum_all(y);
        let grads = f.backward(l);
        let names: Vec<&str> = grads.iter().map(|(id, _)| s.name(*id)).collect();
        assert!(names.contains(&"l.lora_a"));
        assert!(names.contains(&"l.lora_b"));
        assert!(!names.contains(&"l.w"));
    }

    #[test]
    fn embedding_lookup_shape() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(4);
        let emb = Embedding::new(&mut s, "e", 10, 6, &mut rng);
        let mut f = Fwd::eval();
        let y = emb.forward(&mut f, &s, &[1, 2, 2, 9]);
        assert_eq!(f.g.value(y).shape(), &[4, 6]);
    }

    #[test]
    fn layer_norm_normalises_rows() {
        let mut s = ParamStore::new();
        let ln = LayerNorm::new(&mut s, "ln", 8);
        let mut f = Fwd::eval();
        let mut rng = Rng::seeded(5);
        let x = f.input(Tensor::randn([3, 8], 5.0, &mut rng));
        let y = ln.forward(&mut f, &s, x);
        let v = f.g.value(y);
        for r in 0..3 {
            let row = v.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    /// A conv layer with random weights and a random (non-zero) bias.
    fn random_conv(
        c_in: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> (ParamStore, Conv1d) {
        let mut s = ParamStore::new();
        let conv = Conv1d::new(&mut s, "c", c_in, 5, k, stride, pad, rng);
        *s.data_mut(conv.b) = Tensor::randn([5], 1.0, rng);
        (s, conv)
    }

    #[test]
    fn conv_kernel_matches_the_taped_loop_bit_for_bit() {
        // Every shape the sweep reaches, batched (b = 3) and unbatched:
        // the graph-free kernel's `[b * t_out, c_out]` rows must hold the
        // taped conv's forward value, transposed.
        let mut rng = Rng::seeded(7);
        for c_in in 1..=4 {
            for k in 1..=5 {
                for stride in 1..=3 {
                    for pad in 0..=2 {
                        let (s, conv) = random_conv(c_in, k, stride, pad, &mut rng);
                        for t in k.saturating_sub(2 * pad).max(1)..=12 {
                            for b in [1, 3] {
                                let x = Tensor::randn([b, c_in, t], 1.0, &mut rng);
                                let mut g = nt_tensor::Graph::inference();
                                let (xi, w, bias) = (
                                    g.constant(x.clone()),
                                    g.constant(s.data(conv.w).clone()),
                                    g.constant(s.data(conv.b).clone()),
                                );
                                let y = g.conv1d(xi, w, bias, stride, pad);
                                let y = g.transpose_last2(y);
                                let want = g.value(y);
                                let got = conv.eval_steps(&s, &x);
                                assert_eq!(got.shape()[0], b * want.shape()[1]);
                                let bits = |v: &Tensor| -> Vec<u32> {
                                    v.data().iter().map(|x| x.to_bits()).collect()
                                };
                                assert_eq!(
                                    bits(&got),
                                    bits(want),
                                    "c_in {c_in} k {k} stride {stride} pad {pad} t {t} b {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mlp_trains_xor() {
        // End-to-end sanity: a small MLP fits XOR with Adam.
        use crate::optim::Adam;
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(6);
        let l1 = Linear::new(&mut s, "l1", 2, 16, true, Init::Kaiming, &mut rng);
        let l2 = Linear::new(&mut s, "l2", 16, 2, true, Init::Xavier, &mut rng);
        let xs = Tensor::from_vec([4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = [0usize, 1, 1, 0];
        let mut opt = Adam::new(0.01);
        let mut last = f32::MAX;
        for step in 0..400 {
            let mut f = Fwd::train(step);
            let x = f.input(xs.clone());
            let h = l1.forward(&mut f, &s, x);
            let h = f.g.relu(h);
            let logits = l2.forward(&mut f, &s, h);
            let loss = f.g.cross_entropy(logits, &ys);
            last = f.g.value(loss).item();
            let grads = f.backward(loss);
            opt.step(&mut s, &grads);
        }
        assert!(last < 0.05, "XOR loss should converge, got {last}");
    }
}
