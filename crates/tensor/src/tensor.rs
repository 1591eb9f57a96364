//! The dense `f32` tensor value type.
//!
//! `Tensor` is a plain value: a shape plus a row-major `Vec<f32>`. All
//! differentiable computation happens in [`crate::graph::Graph`]; the methods
//! here are construction helpers and graph-free math used on inference-only
//! paths (policy sampling, metrics, simulators).

use crate::pool;
use crate::rng::Rng;
use crate::shape::{broadcast_shapes, for_each_broadcast2, numel};
use crate::simd;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::ops::Range;

/// A dense row-major `f32` tensor.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Build a tensor from raw parts. Panics when `data.len()` does not match
    /// the shape.
    pub fn from_vec(shape: impl Into<Vec<usize>>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} wants {} elements, got {}",
            shape,
            numel(&shape),
            data.len()
        );
        Tensor { shape, data }
    }

    /// A scalar tensor (empty shape).
    pub fn scalar(v: f32) -> Self {
        Tensor { shape: vec![], data: vec![v] }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Tensor { shape, data: vec![0.0; n] }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Vec<usize>>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Vec<usize>>, v: f32) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        Tensor { shape, data: vec![v; n] }
    }

    /// I.i.d. standard-normal entries scaled by `std`, drawn from `rng`.
    pub fn randn(shape: impl Into<Vec<usize>>, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        let data = (0..n).map(|_| rng.normal() * std).collect();
        Tensor { shape, data }
    }

    /// I.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Vec<usize>>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let n = numel(&shape);
        let data = (0..n).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape, data }
    }

    /// 1-D tensor holding `v`.
    pub fn from_slice(v: &[f32]) -> Self {
        Tensor { shape: vec![v.len()], data: v.to_vec() }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.data.len()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Scalar value of a single-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on tensor with {} elements", self.data.len());
        self.data[0]
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(mut self, shape: impl Into<Vec<usize>>) -> Self {
        let shape = shape.into();
        assert_eq!(numel(&shape), self.data.len(), "reshape to incompatible shape {shape:?}");
        self.shape = shape;
        self
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let off = self.offset(idx);
        &mut self.data[off]
    }

    /// Row-major offset of a multi-index, folded over the shape without
    /// building a strides `Vec`. Panics unless there is one index per dim.
    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "index of rank {} into {:?}",
            idx.len(),
            self.shape
        );
        idx.iter().zip(&self.shape).fold(0, |off, (&i, &dim)| off * dim + i)
    }

    /// Row `i` of a 2-D tensor.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row() needs a 2-D tensor");
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Sum (or, with `mean`, the mean) over `axis`, which is dropped from
    /// the shape. Each output element adds its inputs in ascending index
    /// order, then divides once.
    pub fn reduce_axis(&self, axis: usize, mean: bool) -> Tensor {
        let shape = &self.shape;
        assert!(axis < shape.len(), "reduce axis out of range");
        let outer: usize = shape[..axis].iter().product();
        let inner: usize = shape[axis + 1..].iter().product();
        let d = shape[axis];
        let mut out_shape = shape.clone();
        out_shape.remove(axis);
        let mut out = vec![0.0f32; outer * inner];
        for o in 0..outer {
            for j in 0..d {
                let base = (o * d + j) * inner;
                for i in 0..inner {
                    out[o * inner + i] += self.data[base + i];
                }
            }
        }
        if mean {
            for x in &mut out {
                *x /= d as f32;
            }
        }
        Tensor::from_vec(out_shape, out)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Broadcasting elementwise combine; panics on incompatible shapes.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let out_shape = broadcast_shapes(&self.shape, &other.shape)
            .unwrap_or_else(|| panic!("cannot broadcast {:?} with {:?}", self.shape, other.shape));
        let mut out = Tensor::zeros(out_shape.clone());
        for_each_broadcast2(&out_shape, &self.shape, &other.shape, |o, a, b| {
            out.data[o] = f(self.data[a], other.data[b]);
        });
        out
    }

    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Index of the maximum element (first on ties).
    pub fn argmax(&self) -> usize {
        argmax(&self.data)
    }

    /// 2-D matrix multiply: `[m,k] x [k,n] -> [m,n]`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        matmul_into(&self.data, &other.data, &mut out, m, k, n);
        Tensor { shape: vec![m, n], data: out }
    }

    /// Softmax over the last dimension (numerically stable).
    pub fn softmax_last(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_last_mut();
        out
    }

    /// In-place softmax over the last dimension: overwrites `self` without
    /// allocating. The inference paths use this; the cloning
    /// [`Tensor::softmax_last`] remains for taped forwards that must keep
    /// their input value alive.
    pub fn softmax_last_mut(&mut self) {
        assert!(!self.shape.is_empty(), "softmax needs rank >= 1");
        let cols = *self.shape.last().unwrap();
        let rows = self.data.len() / cols.max(1);
        for r in 0..rows {
            let s = &mut self.data[r * cols..(r + 1) * cols];
            softmax_in_place(s);
        }
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Transpose of a 2-D tensor (cache-blocked).
    pub fn t(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "t() needs a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        transpose_into(&self.data, &mut out, m, n);
        Tensor { shape: vec![n, m], data: out }
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Slice `len` entries starting at `start` along `axis` (graph-free
    /// kernel; the differentiable version is [`crate::graph::Graph::narrow`]).
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Tensor {
        assert!(axis < self.shape.len(), "narrow axis out of range");
        assert!(start + len <= self.shape[axis], "narrow slice out of bounds");
        let outer: usize = self.shape[..axis].iter().product();
        let inner: usize = self.shape[axis + 1..].iter().product();
        let d = self.shape[axis];
        let mut out_shape = self.shape.clone();
        out_shape[axis] = len;
        let mut out = vec![0.0f32; outer * len * inner];
        for o in 0..outer {
            let src = (o * d + start) * inner;
            out[o * len * inner..(o + 1) * len * inner]
                .copy_from_slice(&self.data[src..src + len * inner]);
        }
        Tensor { shape: out_shape, data: out }
    }

    /// Gather rows of a 2-D tensor by index (graph-free embedding lookup).
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.shape.len(), 2, "gather_rows needs a 2-D tensor");
        let (n, d) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(indices.len() * d);
        for &i in indices {
            assert!(i < n, "row index {i} out of {n}");
            out.extend_from_slice(&self.data[i * d..(i + 1) * d]);
        }
        Tensor { shape: vec![indices.len(), d], data: out }
    }
}

/// Index of the maximum of `xs` (first on ties): [`Tensor::argmax`] over
/// a slice, such as one row of a batch of logits.
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// Concatenate tensors along `axis` (graph-free kernel; all inputs must
/// agree on the other dims). This plus [`Tensor::narrow`] are the two
/// shape ops a KV cache leans on: append new keys/values, slice the live
/// prefix back out. The parts may be owned or borrowed.
pub fn concat<T: Borrow<Tensor>>(parts: &[T], axis: usize) -> Tensor {
    assert!(!parts.is_empty(), "concat of nothing");
    let tensor: fn(&T) -> &Tensor = Borrow::borrow;
    let first = tensor(&parts[0]).shape().to_vec();
    let rank = first.len();
    assert!(axis < rank, "concat axis {axis} out of rank {rank}");
    let mut axis_total = 0usize;
    for p in parts {
        let s = tensor(p).shape();
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
    let mut out = vec![0.0f32; crate::shape::numel(&out_shape)];
    let mut axis_off = 0usize;
    for p in parts.iter().map(tensor) {
        let len = p.shape()[axis];
        for o in 0..outer {
            let src = &p.data()[o * len * inner..(o + 1) * len * inner];
            let dst_start = (o * axis_total + axis_off) * inner;
            out[dst_start..dst_start + len * inner].copy_from_slice(src);
        }
        axis_off += len;
    }
    Tensor::from_vec(out_shape, out)
}

/// Rows per register-blocked pass: four output rows advance together so
/// every loaded `b` value is reused four times from registers.
const MR: usize = 4;
/// Column-block width of the register tile — the `NR` const generic of
/// the kernel bodies below — per instantiation ([`crate::simd`]): each
/// accumulator row is a fixed `[f32; NR]` array the autovectorizer maps
/// onto two vector registers, so the tile is 4x8 in 4-lane baseline
/// (SSE2) code, 4x16 in 8-lane AVX2 code and 4x32 in 16-lane AVX-512
/// code — eight accumulator registers every time.
const NR_BASELINE: usize = 8;
const NR_AVX2: usize = 16;
const NR_AVX512: usize = 32;
/// Inner-dimension tile: the block of `b` touched by one k-tile stays
/// cache-resident while all row quads stream past it. Accumulation still
/// runs in ascending-`k` order, so tiling never changes the result.
const KC: usize = 512;
/// Widths of the sub-quad register tile ([`sub_quad_rows`]), widest
/// first. An instantiation takes the ones up to `2 * NR`, four of its
/// vectors: 64/48/32/24/16/8 at AVX-512, 32/24/16/8 at AVX2, 16/8 in
/// baseline code.
const SUB_QUAD_WIDTHS: [usize; 6] = [64, 48, 32, 24, 16, 8];
/// RHS widths below this use the packed-transpose dot kernel instead of
/// the register-tile kernel (too few columns to fill a lane block).
/// Decided before an instantiation is picked: the dot kernel
/// reassociates, so which shapes take it must not depend on the CPU.
const N_SKINNY: usize = 8;

/// `out += a x b` for row-major matrices.
///
/// The kernel holds an MRxNR register accumulator tile per output block
/// (`matmul_blocked_wide`), is tiled over the inner dimension (`KC`),
/// and — for skinny right-hand sides — switches to a transposed-`B`
/// packing so both operands of every dot product are contiguous. Large
/// products additionally split their output rows across the persistent
/// worker pool ([`crate::pool`], `NT_THREADS` knob). All paths accumulate
/// each output element in ascending-`k` order through a single chain, so
/// serial and parallel execution, and the three instantiations of the
/// kernel, are bit-identical (only the skinny dot kernel reassociates
/// within a chain, identically on all of them).
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if pool::parallel_worthwhile(m * k * n) && m > MR {
        // Contiguous row bands, each a multiple of MR so only the final
        // band can hit the remainder kernel.
        let band_rows = m.div_ceil(pool::num_threads()).next_multiple_of(MR);
        pool::for_each_block_mut(out, band_rows * n, |band, chunk| {
            let r0 = band * band_rows;
            let rows = chunk.len() / n;
            matmul_serial(&a[r0 * k..(r0 + rows) * k], b, chunk, rows, k, n);
        });
    } else {
        matmul_serial(a, b, out, m, k, n);
    }
}

/// One thread's GEMM. The register-tile kernel runs in the widest
/// instantiation the CPU has; the skinny dot kernel has one (its eight
/// accumulator lanes are fixed by the summation order, and one 8-lane
/// chain measured no faster than the baseline's two 4-lane ones).
fn matmul_serial(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if n < N_SKINNY && k >= 16 {
        return matmul_dot_packed(a, b, out, m, k, n);
    }
    simd::dispatch(
        #[inline(always)]
        |level| matmul_blocked(level, a, b, out, m, k, n),
    );
}

/// The register-tile kernel at `level`'s tile width, in the caller's
/// codegen.
#[inline(always)]
fn matmul_blocked(
    level: simd::Level,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match level {
        simd::Level::Baseline => matmul_blocked_wide::<NR_BASELINE>(a, b, out, m, k, n),
        simd::Level::Avx2 => matmul_blocked_wide::<NR_AVX2>(a, b, out, m, k, n),
        simd::Level::Avx512 => matmul_blocked_wide::<NR_AVX512>(a, b, out, m, k, n),
    }
}

/// Wide-RHS register-tile kernel.
///
/// The whole [`MR`]-row quads come first. For each [`KC`] k-tile their
/// columns are cut into `NR`-wide blocks ([`quad_column_block`]), then the
/// remainder steps down through the narrower tiles — 32 → 16 → 8 → ragged
/// tail ([`column_cut`]) — so no shape is served by a narrower tile than
/// a lower instantiation gives it (`n = 48` is 32 + 16 and `n = 24` is
/// 16 + 8, not a block plus a column-at-a-time tail); what is left (`< 8`
/// columns) is the ragged tail ([`axpy_row_tail`]). The rows that do not
/// fill a quad — every row of an `m < 4` call, the `m % 4` tail of a
/// larger one — then run together as one sub-quad tile
/// ([`sub_quad_rows`]). Every tile reads `b` in place: on the served
/// shapes a per-call packed panel bought nothing it did not spend on its
/// allocation and copy.
///
/// Every output element is still one accumulation chain in ascending-`k`
/// order (each tile is seeded from `out` and written back), so this is
/// bit-identical to the naive triple loop and to its own parallel
/// row-band splits (`tests/kernel_props.rs`), whatever `NR` is.
#[inline(always)]
fn matmul_blocked_wide<const NR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let quads = m - m % MR;
    let (wide, at16, at8, tail) = column_cut::<NR>(n);
    for k0 in (0..k).step_by(KC) {
        let ks = k0..(k0 + KC).min(k);
        for j in (0..wide).step_by(NR) {
            quad_column_block::<NR>(a, b, out, quads, k, n, ks.clone(), j);
        }
        if let Some(j) = at16 {
            quad_column_block::<NR_AVX2>(a, b, out, quads, k, n, ks.clone(), j);
        }
        if let Some(j) = at8 {
            quad_column_block::<NR_BASELINE>(a, b, out, quads, k, n, ks.clone(), j);
        }
        if tail < n {
            for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)).take(quads) {
                axpy_row_tail(arow, b, orow, n, ks.clone(), tail);
            }
        }
        match m - quads {
            0 => {}
            1 => sub_quad_rows::<1, NR>(a, b, out, quads, k, n, ks),
            2 => sub_quad_rows::<2, NR>(a, b, out, quads, k, n, ks),
            _ => sub_quad_rows::<3, NR>(a, b, out, quads, k, n, ks),
        }
    }
}

/// The column cut of an `NR`-wide instantiation over `n` columns, as
/// `(wide, at16, at8, tail)`: `NR`-wide blocks cover `0..wide`; a
/// remainder of 16 or more then gets one 16-wide block at `at16` and one
/// of 8 or more one 8-wide block at `at8` (each only in an instantiation
/// wider than that block); the ragged tail is `tail..n`.
#[inline(always)]
fn column_cut<const NR: usize>(n: usize) -> (usize, Option<usize>, Option<usize>, usize) {
    let wide = n - n % NR;
    let mut tail = wide;
    let (mut at16, mut at8) = (None, None);
    if NR > NR_AVX2 && tail + NR_AVX2 <= n {
        at16 = Some(tail);
        tail += NR_AVX2;
    }
    if NR > NR_BASELINE && tail + NR_BASELINE <= n {
        at8 = Some(tail);
        tail += NR_BASELINE;
    }
    (wide, at16, at8, tail)
}

/// One `W`-wide column block of one k-tile over the first `quads` rows (a
/// multiple of [`MR`]), one `MR x W` [`tile`] per quad.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn quad_column_block<const W: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    quads: usize,
    k: usize,
    n: usize,
    ks: Range<usize>,
    j0: usize,
) {
    for i in (0..quads).step_by(MR) {
        tile::<MR, W>(a, k, b, n, out, n, ks.clone(), i, j0);
    }
}

/// The `R < MR` rows from `i0` on over one k-tile, as one `R`-row
/// [`tile`] per column block: the rows advance
/// together, so each loaded `b` value serves all of them and every `k`
/// step has `R` times the independent chains of a one-row loop. The
/// column cut takes the widest of [`SUB_QUAD_WIDTHS`] up to `2 * NR` that
/// fits, then the next, down to 8; what is left (`< 8` columns) is the
/// ragged tail ([`axpy_row_tail`]).
#[inline(always)]
fn sub_quad_rows<const R: usize, const NR: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    k: usize,
    n: usize,
    ks: Range<usize>,
) {
    let mut j = 0usize;
    while let Some(w) = SUB_QUAD_WIDTHS.into_iter().find(|&w| w <= 2 * NR && j + w <= n) {
        let ks = ks.clone();
        match w {
            64 => tile::<R, 64>(a, k, b, n, out, n, ks, i0, j),
            48 => tile::<R, 48>(a, k, b, n, out, n, ks, i0, j),
            32 => tile::<R, 32>(a, k, b, n, out, n, ks, i0, j),
            24 => tile::<R, 24>(a, k, b, n, out, n, ks, i0, j),
            16 => tile::<R, 16>(a, k, b, n, out, n, ks, i0, j),
            _ => tile::<R, 8>(a, k, b, n, out, n, ks, i0, j),
        }
        j += w;
    }
    if j < n {
        for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)).skip(i0).take(R) {
            axpy_row_tail(arow, b, orow, n, ks.clone(), j);
        }
    }
}

/// One `R x W` register tile over one k-tile: rows `i0..i0 + R`, columns
/// `j0..j0 + W` of `out`, reading the matching `W`-wide row of `b` in
/// place for each `k` in `ks`. Each operand is row-major with its own row
/// stride (the GEMM passes `k, n, n`; attention's PV passes its weight,
/// value and output strides). `out` is loaded and stored once per tile
/// instead of once per `k` step, and each `[f32; W]` accumulator row is a
/// fixed array the autovectorizer maps onto SIMD lanes.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile<const R: usize, const W: usize>(
    a: &[f32],
    a_stride: usize,
    b: &[f32],
    b_stride: usize,
    out: &mut [f32],
    o_stride: usize,
    ks: Range<usize>,
    i0: usize,
    j0: usize,
) {
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[(i0 + r) * a_stride..][..ks.end]);
    let mut acc = [[0.0f32; W]; R];
    for (r, accr) in acc.iter_mut().enumerate() {
        let o = (i0 + r) * o_stride + j0;
        accr.copy_from_slice(&out[o..o + W]);
    }
    for kk in ks {
        let brow = &b[kk * b_stride + j0..kk * b_stride + j0 + W];
        let x: [f32; R] = std::array::from_fn(|r| arows[r][kk]);
        for l in 0..W {
            for r in 0..R {
                acc[r][l] += x[r] * brow[l];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let o = (i0 + r) * o_stride + j0;
        out[o..o + W].copy_from_slice(accr);
    }
}

/// Ragged column tail of one output row (columns `j0..n`, fewer than a
/// block): plain ascending-k axpy over the last few columns, unpacked.
#[inline(always)]
fn axpy_row_tail(arow: &[f32], b: &[f32], orow: &mut [f32], n: usize, ks: Range<usize>, j0: usize) {
    for kk in ks {
        let x = arow[kk];
        let brow = &b[kk * n + j0..(kk + 1) * n];
        for (o, &bv) in orow[j0..].iter_mut().zip(brow) {
            *o += x * bv;
        }
    }
}

/// Skinny-RHS kernel: packs `b` transposed so each output element is one
/// dot product over two contiguous slices, computed with eight partial
/// accumulators (reassociation within 1e-4 of the naive triple loop;
/// every consumer compares paths that share this same kernel).
fn matmul_dot_packed(a: &[f32], b: &[f32], out: &mut [f32], _m: usize, k: usize, n: usize) {
    let mut bt = vec![0.0f32; k * n];
    transpose_into(b, &mut bt, k, n);
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (bcol, o) in bt.chunks_exact(k).zip(orow) {
            *o += dot8(arow, bcol);
        }
    }
}

/// Dot product with eight independent accumulator lanes.
fn dot8(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let xc = x.chunks_exact(8);
    let yc = y.chunks_exact(8);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (xs, ys) in xc.zip(yc) {
        for l in 0..8 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (a, b) in xr.iter().zip(yr) {
        tail += a * b;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Cache-blocked out-of-place transpose: `src` is `[rows, cols]`
/// row-major, `dst` receives `[cols, rows]`. 32x32 tiles keep both the
/// read and the write side inside a few cache lines per pass.
pub fn transpose_into(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    const TB: usize = 32;
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for r0 in (0..rows).step_by(TB) {
        let r1 = (r0 + TB).min(rows);
        for c0 in (0..cols).step_by(TB) {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                let srow = &src[r * cols..];
                for c in c0..c1 {
                    dst[c * rows + r] = srow[c];
                }
            }
        }
    }
}

/// Numerically stable in-place softmax of a slice.
pub fn softmax_in_place(s: &mut [f32]) {
    if s.is_empty() {
        return;
    }
    let mx = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for v in s.iter_mut() {
        *v = (*v - mx).exp();
        z += *v;
    }
    if z > 0.0 {
        for v in s.iter_mut() {
            *v /= z;
        }
    }
}

/// Mean and `1 / sqrt(variance + eps)` of one layer-norm row. Both sums
/// run sequentially in index order — the order every layer-norm result in
/// the workspace is defined by — so they are deliberately not lane-split.
pub(crate) fn layer_norm_stats(row: &[f32], eps: f32) -> (f32, f32) {
    let d = row.len() as f32;
    let mean = row.iter().sum::<f32>() / d;
    let var = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / d;
    (mean, 1.0 / (var + eps).sqrt())
}

/// [`layer_norm_stats`] of four rows at once (`quad` is `[4, d]`): four
/// independent chains advance together, each still its own row's sum in
/// index order, so every result is bit-identical to the one-row kernel —
/// the additions of one chain wait on each other, those of four rows do
/// not.
fn layer_norm_stats4(quad: &[f32], d: usize, eps: f32) -> [(f32, f32); 4] {
    let (r0, rest) = quad.split_at(d);
    let (r1, rest) = rest.split_at(d);
    let (r2, r3) = rest.split_at(d);
    // Whatever `Iterator::sum` starts from, so an all-`-0.0` row agrees.
    let zero: f32 = std::iter::empty::<f32>().sum();
    let n = d as f32;
    let mut s = [zero; 4];
    for c in 0..d {
        s[0] += r0[c];
        s[1] += r1[c];
        s[2] += r2[c];
        s[3] += r3[c];
    }
    let m = s.map(|s| s / n);
    let mut v = [zero; 4];
    for c in 0..d {
        v[0] += (r0[c] - m[0]) * (r0[c] - m[0]);
        v[1] += (r1[c] - m[1]) * (r1[c] - m[1]);
        v[2] += (r2[c] - m[2]) * (r2[c] - m[2]);
        v[3] += (r3[c] - m[3]) * (r3[c] - m[3]);
    }
    std::array::from_fn(|r| (m[r], 1.0 / (v[r] / n + eps).sqrt()))
}

/// In-place affine layer normalisation of every `gamma.len()`-wide row of
/// `xs`: the one kernel behind the taped [`crate::Graph::layer_norm`] and
/// the graph-free `LayerNorm::eval_in_place`, so the two agree bit for
/// bit. Rows go four at a time through `layer_norm_stats4`, the remainder
/// through `layer_norm_stats`; a row's result does not depend on which.
pub fn layer_norm_in_place(xs: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) {
    assert_eq!(gamma.len(), beta.len(), "layer_norm gamma/beta length");
    let d = gamma.len();
    let normalise = |row: &mut [f32], (mean, inv): (f32, f32)| {
        for ((x, g), b) in row.iter_mut().zip(gamma).zip(beta) {
            *x = (*x - mean) * inv * g + b;
        }
    };
    let mut quads = xs.chunks_exact_mut(4 * d);
    for quad in &mut quads {
        let stats = layer_norm_stats4(quad, d, eps);
        for (row, stats) in quad.chunks_exact_mut(d).zip(stats) {
            normalise(row, stats);
        }
    }
    for row in quads.into_remainder().chunks_exact_mut(d) {
        normalise(row, layer_norm_stats(row, eps));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.row(0), &[1., 2., 3.]);
        assert_eq!(t.numel(), 6);
        assert_eq!(Tensor::scalar(4.0).item(), 4.0);
    }

    #[test]
    fn at_folds_every_rank() {
        let t = Tensor::from_vec([2, 3, 4], (0..24).map(|x| x as f32).collect());
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.at(&[1, 0, 2]), 14.0);
        assert_eq!(Tensor::scalar(4.0).at(&[]), 4.0);
    }

    /// A short index used to be cut to the shape's prefix by `zip` and
    /// land on another element.
    #[test]
    #[should_panic(expected = "index of rank 1")]
    fn at_mut_rejects_a_short_index() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1]) = 1.0;
    }

    #[test]
    #[should_panic]
    fn bad_shape_panics() {
        Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn broadcast_add_bias() {
        let x = Tensor::from_vec([2, 3], vec![0., 0., 0., 1., 1., 1.]);
        let b = Tensor::from_slice(&[10., 20., 30.]);
        let y = x.add(&b);
        assert_eq!(y.data(), &[10., 20., 30., 11., 21., 31.]);
    }

    #[test]
    fn matmul_matches_hand_result() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().at(&[2, 1]), 6.0);
    }

    #[test]
    fn blocked_transpose_matches_indexing_across_tile_boundaries() {
        // Sizes straddling the 32x32 tile: exercises full tiles + ragged edges.
        let mut rng = Rng::seeded(40);
        for (m, n) in [(1, 1), (7, 33), (33, 7), (64, 64), (65, 31), (40, 100)] {
            let a = Tensor::randn([m, n], 1.0, &mut rng);
            let at = a.t();
            assert_eq!(at.shape(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(at.at(&[j, i]), a.at(&[i, j]), "({i},{j}) of {m}x{n}");
                }
            }
        }
    }

    /// Naive triple loop, the pre-blocking reference semantics.
    fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a.data()[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b.data()[kk * n + j];
                }
            }
        }
        Tensor::from_vec([m, n], out)
    }

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        // Shapes cover: quad rows + remainder rows, skinny-n dot kernel
        // (n < 8, k >= 16), k-tile boundaries, and zero entries (the old
        // kernel's skip branch must not have been load-bearing).
        let mut rng = Rng::seeded(41);
        for (m, k, n) in
            [(1, 4, 1), (4, 16, 3), (5, 48, 6), (7, 33, 1), (8, 48, 48), (13, 96, 20), (6, 600, 9)]
        {
            let mut a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            a.data_mut()[0] = 0.0; // exercise explicit zeros too
            let got = a.matmul(&b);
            let want = matmul_naive(&a, &b);
            for (x, y) in got.data().iter().zip(want.data()) {
                assert!((x - y).abs() < 1e-4, "{m}x{k}x{n}: {x} vs {y}");
            }
        }
    }

    /// The register-tile kernel's baseline instantiation, its 16- and
    /// 32-wide tile logic in baseline codegen, and the kernel as
    /// dispatched at every level this CPU has (AVX2, AVX-512), each
    /// against the naive ascending-`k` loop bit for bit: `n` sits on both
    /// sides of the 8-, 16- and 32-wide column tails and on every step of
    /// the 32 + 16 + 8 + tail cut, `k = 600` crosses the KC seam, `m`
    /// covers sub-quad rows and quad remainders (31, 32, 33 among
    /// them). Runs in release too
    /// (`cargo test --release -p nt-tensor`), where the loops are
    /// actually vectorised. Skinny shapes reach the dot kernel through
    /// `matmul_serial` only; it reassociates, so it keeps its 1e-4.
    #[test]
    fn both_instantiations_match_the_naive_loop_bit_for_bit() {
        type Gemm<'a> = &'a dyn Fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
        let at_level = |level: simd::Level| {
            move |a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize| {
                simd::dispatch_up_to(
                    level,
                    #[inline(always)]
                    |l| matmul_blocked(l, a, b, out, m, k, n),
                )
            }
        };
        let at_levels: Vec<_> =
            simd::runnable_levels().into_iter().map(|l| (format!("{l:?}"), at_level(l))).collect();
        let mut kernels: Vec<(&str, bool, Gemm)> = vec![
            ("baseline", true, &matmul_blocked_wide::<NR_BASELINE>),
            ("16-wide, baseline codegen", true, &matmul_blocked_wide::<NR_AVX2>),
            ("32-wide, baseline codegen", true, &matmul_blocked_wide::<NR_AVX512>),
            ("dispatched", false, &matmul_serial),
        ];
        kernels.extend(at_levels.iter().map(|(name, f)| (name.as_str(), true, f as Gemm)));
        let mk: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 600];
        let ns: &[usize] = &[
            1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 47, 48, 56, 63, 64, 65, 144, 192,
        ];
        let mut rng = Rng::seeded(43);
        for &m in mk {
            for &k in mk {
                for &n in ns {
                    let skinny = n < N_SKINNY && k >= 16;
                    if skinny && k == 600 {
                        // As in tests/kernel_props.rs: no k-tile seam in
                        // the dot kernel, and its error outgrows 1e-4.
                        continue;
                    }
                    let a = Tensor::randn([m, k], 1.0, &mut rng);
                    let b = Tensor::randn([k, n], 1.0, &mut rng);
                    let want = matmul_naive(&a, &b);
                    for &(name, tile_only, kernel) in &kernels {
                        // `matmul_serial` sends skinny shapes to the dot
                        // kernel; everything else is the tile kernel.
                        let exact = tile_only || !skinny;
                        let mut got = vec![0.0f32; m * n];
                        kernel(a.data(), b.data(), &mut got, m, k, n);
                        for (i, (x, y)) in got.iter().zip(want.data()).enumerate() {
                            assert!(
                                if exact {
                                    x.to_bits() == y.to_bits()
                                } else {
                                    (x - y).abs() < 1e-4
                                },
                                "{name} {m}x{k}x{n} elem {i}: {x} vs naive {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec([2, 4], vec![1., 2., 3., 4., -1., 0., 1., 2.]);
        let s = t.softmax_last();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_last_mut_matches_cloning_softmax() {
        let mut rng = Rng::seeded(42);
        let t = Tensor::randn([3, 7], 2.0, &mut rng);
        let cloned = t.softmax_last();
        let mut inplace = t;
        inplace.softmax_last_mut();
        assert_eq!(cloned, inplace);
    }

    #[test]
    fn softmax_handles_extremes() {
        let t = Tensor::from_slice(&[1000.0, 0.0, -1000.0]);
        let s = t.softmax_last();
        assert!((s.data()[0] - 1.0).abs() < 1e-5);
        assert!(!s.has_non_finite());
    }

    /// Four rows' statistics advancing together must not change a bit:
    /// every row count 0..=9 (whole quads, every remainder) against the
    /// one-row kernel applied row by row, an all-`-0.0` row included.
    #[test]
    fn layer_norm_quads_match_the_one_row_kernel_bit_for_bit() {
        let mut rng = Rng::seeded(44);
        for d in [1usize, 5, 48] {
            let gamma: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
            let beta: Vec<f32> = (0..d).map(|_| rng.normal()).collect();
            for rows in 0..=9usize {
                let mut xs = Tensor::randn([rows, d], 2.0, &mut rng).into_data();
                if rows > 2 {
                    xs[2 * d..3 * d].fill(-0.0);
                }
                let mut want = xs.clone();
                for row in want.chunks_exact_mut(d) {
                    let (mean, inv) = layer_norm_stats(row, 1e-5);
                    for ((x, g), b) in row.iter_mut().zip(&gamma).zip(&beta) {
                        *x = (*x - mean) * inv * g + b;
                    }
                }
                layer_norm_in_place(&mut xs, &gamma, &beta, 1e-5);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&xs), bits(&want), "{rows} rows of {d}");
            }
        }
    }

    #[test]
    fn argmax_first_on_ties() {
        let t = Tensor::from_slice(&[1.0, 3.0, 3.0, 2.0]);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn randn_is_deterministic_under_seed() {
        let mut r1 = Rng::seeded(7);
        let mut r2 = Rng::seeded(7);
        let a = Tensor::randn([4, 4], 1.0, &mut r1);
        let b = Tensor::randn([4, 4], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn narrow_kernel_slices_rows_and_cols() {
        let t = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.narrow(0, 1, 1).data(), &[4., 5., 6.]);
        assert_eq!(t.narrow(1, 1, 2).data(), &[2., 3., 5., 6.]);
        assert_eq!(t.narrow(1, 1, 2).shape(), &[2, 2]);
    }

    #[test]
    fn concat_kernel_roundtrips_with_narrow() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([1, 2], vec![5., 6.]);
        let cat = concat(&[&a, &b], 0);
        assert_eq!(cat.shape(), &[3, 2]);
        assert_eq!(cat.narrow(0, 0, 2), a);
        assert_eq!(cat.narrow(0, 2, 1), b);
        // Column-axis concat too (the KV layout appends along time).
        let c = concat(&[&a, &a], 1);
        assert_eq!(c.shape(), &[2, 4]);
        assert_eq!(c.data(), &[1., 2., 1., 2., 3., 4., 3., 4.]);
    }

    #[test]
    fn gather_rows_kernel_matches_indexing() {
        let t = Tensor::from_vec([3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2., 5., 6.]);
    }
}
