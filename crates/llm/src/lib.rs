//! # nt-llm
//!
//! The foundation-model substrate of the NetLLM reproduction: a from-scratch
//! decoder-only Transformer ("TinyLM") with a character tokenizer, an LM
//! head for the token pathway, autoregressive generation, LoRA attachment,
//! and an actually-executed synthetic pre-training stage that stands in for
//! "pre-trained on massive corpora" (see `DESIGN.md` for why the
//! substitution preserves the paper's claims).
//!
//! ## Feature inventory
//!
//! - [`tokenizer::Tokenizer`] — char-level vocabulary (digits + letters +
//!   punctuation), BOS/EOS/PAD/UNK
//! - [`model::TinyLm`] — causal Transformer backbone; token pathway
//!   ([`model::TinyLm::forward_logits`], [`model::TinyLm::generate`]) and
//!   embedding pathway ([`model::TinyLm::forward_embeddings`]) for NetLLM
//! - [`mod@pretrain`] — multi-skill synthetic corpus + pre-training loop
//! - [`zoo`] — named profiles (llama/opt/mistral/llava-sim, Fig 15), the
//!   size ladder (0.35b–13b-sim, Fig 16), disk-cached checkpoints
//!
//! Generation runs through [`model::KvCache`] incremental decoding (one
//! appended position per emitted token, with cross-call prefix reuse via
//! [`model::DecodeSession`]). There is one cached forward,
//! [`model::TinyLm::forward_embeddings_cached_batched`]: a serving tick
//! passes it every session's cache, a single sequence passes one. The
//! uncached full re-forward is kept as the reference path for the
//! equivalence tests and the latency benches. Still not implemented (by
//! design): beam search, BPE.

#![forbid(unsafe_code)]

pub mod model;
pub mod paged;
pub mod pretrain;
pub mod tokenizer;
pub mod zoo;

pub use model::{sample_logits, DecodeSession, KvCache, LmConfig, SlotMap, TinyLm};
pub use paged::{session_floor_bytes, PageConfig, PagePool, PoolStats};
pub use pretrain::{eval_loss, pretrain, Corpus, CorpusMix, PretrainReport};
pub use tokenizer::{Tokenizer, BOS, EOS, PAD, UNK};
pub use zoo::{profile_spec, size_spec, LoadedLm, ModelSpec, Profile, Zoo, SIZE_LADDER};
