//! # nt-tensor
//!
//! Dense `f32` tensors with reverse-mode automatic differentiation, built
//! from scratch for the NetLLM reproduction (no BLAS; `unsafe` is denied
//! crate-wide except for two small audited scopes: the lifetime erasure
//! in the persistent worker pool, `pool::dispatch`, and the call into
//! the AVX2 or AVX-512 instantiation of a kernel once the CPU has
//! reported the feature, `simd::dispatch_up_to`).
//!
//! Design goals follow the smoltcp ethos: simplicity and robustness over
//! cleverness. Everything is deterministic under an explicit seed
//! ([`rng::Rng`]), and the autodiff tape tracks its own memory footprint
//! ([`graph::Graph::peak_bytes`]) so training-state cost comparisons
//! (paper Figure 4) are measured, not estimated.
//!
//! ## Feature inventory
//!
//! Implemented:
//! - row-major dense tensors, NumPy-style broadcasting for binary ops
//! - matmul / batched matmul (KC-tiled, MRxNR register-blocked SIMD
//!   kernels reading B in place — one source, a baseline 4x8, an AVX2
//!   4x16 and an AVX-512 4x32 instantiation chosen per call from what
//!   the CPU reports — optional row-block parallelism via the persistent
//!   [`pool`] behind the `NT_THREADS` knob), transpose, reshape, concat,
//!   narrow, row gather
//! - the cached attention core's block kernels ([`attn`]: QKᵀ and PV
//!   register tiles over channel-major key blocks, causal softmax),
//!   instantiated the same three ways
//! - activations (relu/gelu/tanh/sigmoid/exp/ln), softmax & log-softmax
//! - fused layer-norm, 1-D convolution, inverted dropout
//! - losses: MSE, (weighted) cross-entropy — the weighted form doubles as a
//!   policy-gradient objective
//! - reverse-mode autodiff over all of the above, with finite-difference
//!   gradient tests
//!
//! Not implemented (by design): GPU backends, f16/bf16, views/in-place ops,
//! higher-order derivatives.

#![deny(unsafe_code)]

mod activation;
pub mod attn;
pub mod graph;
pub mod pool;
pub mod rng;
pub mod shape;
mod simd;
pub mod tensor;

pub use activation::{gelu, gelu_in_place};
pub use graph::{Graph, NodeId};
pub use rng::Rng;
pub use tensor::{concat, transpose_into, Tensor};
