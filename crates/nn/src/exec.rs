//! One module definition, two executors.
//!
//! Every encoder, projection, head and token layout on the model side of
//! the backbone is written once, generic over [`Exec`]. The taped executor
//! is [`Fwd`]: values are tape nodes, and each op records the graph ops
//! DD-LRNA differentiates through. The eager executor is [`Eager`]: values
//! are [`Tensor`]s, and each op runs the graph-free serving kernel
//! (bias-seeded [`Linear::eval`], [`LayerNorm::eval_in_place`], in-place
//! GELU, [`Conv1d::eval`]). Each op forwards to the layer primitive or
//! tensor kernel its module called before it was generic, so neither
//! executor changes a bit of what it computes.

use crate::layers::{Conv1d, Embedding, LayerNorm, Linear};
use crate::store::{Fwd, ParamStore};
use nt_tensor::{NodeId, Tensor};
use std::borrow::Cow;

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
    /// Convolve a `[c_in, t]` series into `[t, c_out]` per-step features.
    fn conv_steps(&mut self, store: &ParamStore, conv: &Conv1d, series: Tensor) -> Self::V;
    /// Look up `[ids.len(), dim]` rows of an embedding table.
    fn embed(&mut self, store: &ParamStore, table: &Embedding, ids: &[usize]) -> Self::V;
    fn gelu(&mut self, x: Self::V) -> Self::V;
    fn relu(&mut self, x: Self::V) -> Self::V;
    /// Elementwise `a + b` of same-shaped values.
    fn add(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// `[m, k] x [k, n] -> [m, n]`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;
    /// Column means of `[n, d]` as one row `[1, d]`.
    fn mean_rows(&mut self, x: &Self::V) -> Self::V;
    /// Rows `idx` of `[n, d]`.
    fn gather_rows(&mut self, x: &Self::V, idx: &[usize]) -> Self::V;
    /// Stack `[n_i, d]` values into `[sum n_i, d]`.
    fn concat(&mut self, parts: &[Self::V]) -> Self::V;
    fn reshape(&mut self, x: Self::V, shape: [usize; 2]) -> Self::V;
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
        let (c, t) = (series.shape()[0], series.shape()[1]);
        let x = self.g.constant(series.reshape([1, c, t]));
        let y = conv.forward(self, store, x); // [1, c_out, t_out]
        let (c_out, t_out) = (self.shape(&y)[1], self.shape(&y)[2]);
        let y = self.g.reshape(y, [c_out, t_out]);
        self.g.transpose_last2(y)
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

    fn mean_rows(&mut self, x: &NodeId) -> NodeId {
        let d = self.shape(x)[1];
        let mean = self.g.mean_axis(*x, 0); // [d]
        self.g.reshape(mean, [1, d])
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
        let (c, t) = (series.shape()[0], series.shape()[1]);
        let y = conv.eval(store, &series.reshape([1, c, t])); // [1, c_out, t_out]
        let (c_out, t_out) = (y.shape()[1], y.shape()[2]);
        y.reshape([c_out, t_out]).t()
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

    fn mean_rows(&mut self, x: &Tensor) -> Tensor {
        // `reduce_axis`'s order (rows ascending, one divide), as a `[1, d]` row.
        let (n, d) = (x.shape()[0], x.shape()[1]);
        let mut out = vec![0.0f32; d];
        x.data().chunks(d).for_each(|row| out.iter_mut().zip(row).for_each(|(o, v)| *o += v));
        out.iter_mut().for_each(|o| *o /= n as f32);
        Tensor::from_vec([1, d], out)
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
