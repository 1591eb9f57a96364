//! One module definition, two executors.
//!
//! Every encoder, projection, head and token layout on the model side of
//! the backbone is written once, generic over [`Exec`]. The taped executor
//! is [`Fwd`]: values are tape nodes, and each op records the graph ops
//! DD-LRNA differentiates through. The eager executor is [`Eager`]: values
//! are [`Tensor`]s, and each op runs the graph-free serving kernel
//! (bias-seeded [`Linear::eval`], [`LayerNorm::eval_in_place`], in-place
//! GELU, [`Conv1d::eval_steps`]). Each op forwards to the layer primitive or
//! tensor kernel its module called before it was generic, so neither
//! executor changes a bit of what it computes.

use crate::layers::{Conv1d, Embedding, LayerNorm, Linear};
use crate::store::{Fwd, ParamStore};
use nt_tensor::tensor::matmul_into;
use nt_tensor::{NodeId, Tensor};
use std::borrow::Cow;

/// `(first row, rows)` of each consecutive group of `counts`.
fn row_groups(counts: &[usize]) -> impl Iterator<Item = (usize, usize)> + '_ {
    counts.iter().scan(0, |start, &n| {
        *start += n;
        Some((*start - n, n))
    })
}

/// The ops a module is written in. Ops that can reuse their operand take
/// it by value; ops that only read it take a reference.
pub trait Exec {
    /// A value: a tape node ([`Fwd`]) or a tensor ([`Eager`]).
    type V: Clone;

    /// Input data.
    fn input(&mut self, t: Tensor) -> Self::V;
    /// Read-only input data: copied onto the tape, borrowed eagerly.
    fn constant<'t>(&mut self, t: &'t Tensor) -> Cow<'t, Self::V>;
    /// Shape of a value.
    fn shape<'a>(&'a self, x: &'a Self::V) -> &'a [usize];
    /// `x·W + b` over `[n, in]` rows.
    fn linear(&mut self, store: &ParamStore, l: &Linear, x: &Self::V) -> Self::V;
    /// Layer normalisation of every row.
    fn layer_norm(&mut self, store: &ParamStore, ln: &LayerNorm, x: Self::V) -> Self::V;
    /// Convolve `b` series `[b, c_in, t]` into their per-step features,
    /// stacked `[b * t_out, c_out]`.
    fn conv_steps(&mut self, store: &ParamStore, conv: &Conv1d, series: Tensor) -> Self::V;
    /// Look up `[ids.len(), dim]` rows of an embedding table.
    fn embed(&mut self, store: &ParamStore, table: &Embedding, ids: &[usize]) -> Self::V;
    fn gelu(&mut self, x: Self::V) -> Self::V;
    fn relu(&mut self, x: Self::V) -> Self::V;
    /// Elementwise `a + b` of same-shaped values.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `[m, k] x [k, n] -> [m, n]`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Column means of consecutive row groups of `[sum counts, d]`, one
    /// `[1, d]` row per group: `[counts.len(), d]`.
    fn mean_rows(&mut self, x: &Self::V, counts: &[usize]) -> Self::V;
    /// Block-diagonal product: each square block `[n_i, n_i]` times its
    /// own `n_i` consecutive rows of `x` (`[sum n_i, d]`), stacked.
    fn block_matmul(&mut self, blocks: &[&Self::V], x: &Self::V) -> Self::V;
    /// Rows `idx` of `[n, d]`.
    fn gather_rows(&mut self, x: &Self::V, idx: &[usize]) -> Self::V;
    /// Stack `[n_i, d]` values into `[sum n_i, d]`.
    fn concat(&mut self, parts: &[Self::V]) -> Self::V;
    fn reshape(&mut self, x: Self::V, shape: [usize; 2]) -> Self::V;
}

impl Fwd {
    /// One group's value as it is, more groups' stacked.
    fn stack(&mut self, parts: Vec<NodeId>) -> NodeId {
        match parts[..] {
            [one] => one,
            _ => self.g.concat(&parts, 0),
        }
    }
}

impl Exec for Fwd {
    type V = NodeId;

    fn input(&mut self, t: Tensor) -> NodeId {
        self.g.constant(t)
    }

    fn constant<'t>(&mut self, t: &'t Tensor) -> Cow<'t, NodeId> {
        Cow::Owned(self.g.constant(t.clone()))
    }

    fn shape<'a>(&'a self, x: &'a NodeId) -> &'a [usize] {
        self.g.value(*x).shape()
    }

    fn linear(&mut self, store: &ParamStore, l: &Linear, x: &NodeId) -> NodeId {
        l.forward(self, store, *x)
    }

    fn layer_norm(&mut self, store: &ParamStore, ln: &LayerNorm, x: NodeId) -> NodeId {
        ln.forward(self, store, x)
    }

    fn conv_steps(&mut self, store: &ParamStore, conv: &Conv1d, series: Tensor) -> NodeId {
        let x = self.g.constant(series);
        let y = conv.forward(self, store, x); // [b, c_out, t_out]
        let y = self.g.transpose_last2(y);
        let (b, t_out, c_out) = (self.shape(&y)[0], self.shape(&y)[1], self.shape(&y)[2]);
        self.g.reshape(y, [b * t_out, c_out])
    }

    fn embed(&mut self, store: &ParamStore, table: &Embedding, ids: &[usize]) -> NodeId {
        table.forward(self, store, ids)
    }

    fn gelu(&mut self, x: NodeId) -> NodeId {
        self.g.gelu(x)
    }

    fn relu(&mut self, x: NodeId) -> NodeId {
        self.g.relu(x)
    }

    fn add(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        self.g.add(*a, *b)
    }

    fn matmul(&mut self, a: &NodeId, b: &NodeId) -> NodeId {
        self.g.matmul(*a, *b)
    }

    fn mean_rows(&mut self, x: &NodeId, counts: &[usize]) -> NodeId {
        let d = self.shape(x)[1];
        let means: Vec<NodeId> = row_groups(counts)
            .map(|(start, n)| {
                let rows = if counts.len() == 1 { *x } else { self.g.narrow(*x, 0, start, n) };
                let mean = self.g.mean_axis(rows, 0); // [d]
                self.g.reshape(mean, [1, d])
            })
            .collect();
        self.stack(means)
    }

    fn block_matmul(&mut self, blocks: &[&NodeId], x: &NodeId) -> NodeId {
        let counts: Vec<usize> = blocks.iter().map(|b| self.shape(b)[0]).collect();
        let parts: Vec<NodeId> = row_groups(&counts)
            .zip(blocks)
            .map(|((start, n), block)| {
                let rows = if blocks.len() == 1 { *x } else { self.g.narrow(*x, 0, start, n) };
                self.g.matmul(**block, rows)
            })
            .collect();
        self.stack(parts)
    }

    fn gather_rows(&mut self, x: &NodeId, idx: &[usize]) -> NodeId {
        self.g.rows(*x, idx)
    }

    fn concat(&mut self, parts: &[NodeId]) -> NodeId {
        self.g.concat(parts, 0)
    }

    fn reshape(&mut self, x: NodeId, shape: [usize; 2]) -> NodeId {
        self.g.reshape(x, shape)
    }
}

/// The graph-free executor serving runs: no tape, no parameter clones,
/// and GELU and layer norm in place on the tensor they are handed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Eager;

impl Exec for Eager {
    type V = Tensor;

    fn input(&mut self, t: Tensor) -> Tensor {
        t
    }

    fn constant<'t>(&mut self, t: &'t Tensor) -> Cow<'t, Tensor> {
        Cow::Borrowed(t)
    }

    fn shape<'a>(&'a self, x: &'a Tensor) -> &'a [usize] {
        x.shape()
    }

    fn linear(&mut self, store: &ParamStore, l: &Linear, x: &Tensor) -> Tensor {
        l.eval(store, x)
    }

    fn layer_norm(&mut self, store: &ParamStore, ln: &LayerNorm, mut x: Tensor) -> Tensor {
        ln.eval_in_place(store, x.data_mut());
        x
    }

    fn conv_steps(&mut self, store: &ParamStore, conv: &Conv1d, series: Tensor) -> Tensor {
        conv.eval_steps(store, &series)
    }

    fn embed(&mut self, store: &ParamStore, table: &Embedding, ids: &[usize]) -> Tensor {
        table.eval(store, ids)
    }

    fn gelu(&mut self, mut x: Tensor) -> Tensor {
        nt_tensor::gelu_in_place(x.data_mut());
        x
    }

    fn relu(&mut self, mut x: Tensor) -> Tensor {
        x.data_mut().iter_mut().for_each(|v| *v = v.max(0.0));
        x
    }

    fn add(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        a.add(b)
    }

    fn matmul(&mut self, a: &Tensor, b: &Tensor) -> Tensor {
        a.matmul(b)
    }

    fn mean_rows(&mut self, x: &Tensor, counts: &[usize]) -> Tensor {
        // `reduce_axis`'s order per group (rows ascending, one divide).
        let d = x.shape()[1];
        let mut out = vec![0.0f32; counts.len() * d];
        for ((start, n), mean) in row_groups(counts).zip(out.chunks_exact_mut(d)) {
            for row in x.data()[start * d..(start + n) * d].chunks_exact(d) {
                mean.iter_mut().zip(row).for_each(|(o, v)| *o += v);
            }
            mean.iter_mut().for_each(|o| *o /= n as f32);
        }
        Tensor::from_vec([counts.len(), d], out)
    }

    fn block_matmul(&mut self, blocks: &[&Tensor], x: &Tensor) -> Tensor {
        // `Tensor::matmul` per block, written in place of its own rows.
        let d = x.shape()[1];
        let mut out = vec![0.0f32; x.numel()];
        let mut start = 0;
        for block in blocks {
            let n = block.shape()[0];
            let rows = start * d..(start + n) * d;
            matmul_into(block.data(), &x.data()[rows.clone()], &mut out[rows], n, n, d);
            start += n;
        }
        assert_eq!(start, x.shape()[0], "blocks must cover every row");
        Tensor::from_vec([start, d], out)
    }

    fn gather_rows(&mut self, x: &Tensor, idx: &[usize]) -> Tensor {
        x.gather_rows(idx)
    }

    fn concat(&mut self, parts: &[Tensor]) -> Tensor {
        nt_tensor::concat(parts, 0)
    }

    fn reshape(&mut self, x: Tensor, shape: [usize; 2]) -> Tensor {
        x.reshape(shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_tensor::Rng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_ops_agree_across_executors() {
        // The ops that take a batch explicitly: the taped executor's
        // values are the eager executor's bits, at three items of ragged
        // sizes (conv series share one length by construction).
        let mut rng = Rng::seeded(11);
        let mut store = ParamStore::new();
        let conv = Conv1d::new(&mut store, "c", 2, 5, 3, 1, 1, &mut rng);
        let series = Tensor::randn([3, 2, 6], 1.0, &mut rng);
        let x = Tensor::randn([2 + 4 + 3, 5], 1.0, &mut rng);
        let counts = [2, 4, 3];
        let blocks: Vec<Tensor> =
            counts.iter().map(|&n| Tensor::randn([n, n], 1.0, &mut rng)).collect();
        let block_refs: Vec<&Tensor> = blocks.iter().collect();

        let mut e = Eager;
        let eager = [
            e.conv_steps(&store, &conv, series.clone()),
            e.mean_rows(&x, &counts),
            e.block_matmul(&block_refs, &x),
        ];
        let mut f = Fwd::eval();
        let xi = f.input(x.clone());
        let nodes: Vec<NodeId> = blocks.iter().map(|b| f.input(b.clone())).collect();
        let node_refs: Vec<&NodeId> = nodes.iter().collect();
        let taped = [
            f.conv_steps(&store, &conv, series),
            f.mean_rows(&xi, &counts),
            f.block_matmul(&node_refs, &xi),
        ];
        for (op, (want, got)) in
            ["conv_steps", "mean_rows", "block_matmul"].iter().zip(eager.iter().zip(taped))
        {
            assert_eq!(want.shape(), f.g.value(got).shape(), "{op}");
            assert_eq!(bits(want), bits(f.g.value(got)), "{op}");
        }
    }
}
