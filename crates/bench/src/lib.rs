//! # nt-bench
//!
//! Benchmark harness for the NetLLM reproduction: the [`engine::Engine`]
//! builds and caches every trained artifact (baselines + adapted models),
//! [`figures`](../src/bin/figures.rs) regenerates each paper figure into
//! `reports/`, and the Criterion benches cover latency/overhead and
//! simulator micro-performance.

#![forbid(unsafe_code)]

pub mod engine;
pub mod netload;
pub mod report;
pub mod stats;
pub mod trace;

pub use engine::Engine;
pub use netload::{dense_socket, kind_of, replay_direct, replay_socket, ObsStreams, ReplayOutcome};
pub use report::{print_table, reports_dir, write_report};
pub use trace::{trace_seed, Trace, TraceConfig, TraceShape};
