//! # nt-nn
//!
//! Neural-network layers, the Adam optimizer, LoRA adaptation and
//! checkpointing on top of [`nt_tensor`]. This crate supplies every
//! architecture the NetLLM paper touches: Transformer blocks for the LLM
//! backbone, 1-D CNN feature encoders, LSTM (the TRACK baseline),
//! GraphSAGE-style GNNs (Decima and the DAG modality encoder), and plain
//! MLPs.
//!
//! ## Feature inventory
//!
//! - [`store::ParamStore`]/[`store::Fwd`] — parameter ownership, freezing,
//!   per-step gradient harvesting, byte-level training-state accounting
//! - [`layers`] — `Linear` (+[`layers::Lora`] adapters), `Embedding`,
//!   `LayerNorm`, `Conv1d`, `Mlp`
//! - [`attention`] — multi-head self-attention with causal masking,
//!   pre-norm `TransformerBlock`, and the reused `Workspace` of its
//!   graph-free cached forward
//! - [`exec`] — the [`exec::Exec`] op set every model-side module is
//!   written in once, and its two executors: taped over [`store::Fwd`],
//!   graph-free over `Tensor` ([`exec::Eager`])
//! - [`lstm`], [`gnn`] — recurrent and graph encoders
//! - [`optim`] — Adam; global-norm clipping is in [`store`]
//! - [`checkpoint`] — compact binary checkpoints (4 bytes/param)

#![forbid(unsafe_code)]

pub mod attention;
pub mod checkpoint;
pub mod exec;
pub mod gnn;
pub mod layers;
pub mod lstm;
pub mod optim;
pub mod store;

pub use attention::{
    causal_mask, AttnKv, KvPage, KvStorage, MultiHeadAttention, PagedAttnKv, TransformerBlock,
    Workspace,
};
pub use exec::{Eager, Exec};
pub use gnn::{normalized_adjacency, Gnn, GnnLayer};
pub use layers::{Conv1d, Embedding, Init, LayerNorm, Linear, Lora, Mlp};
pub use lstm::Lstm;
pub use optim::Adam;
pub use store::{clip_grad_norm, merge_grads, Fwd, Grads, ParamId, ParamStore};
