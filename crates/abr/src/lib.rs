//! # nt-abr
//!
//! Adaptive-bitrate streaming substrate: the chunk-level simulator, trace
//! and video generators, QoE metric, rule-based baselines (BBA, RobustMPC),
//! the GENET-like RL baseline, and a transport-aware link emulator for the
//! paper's real-world test.
//!
//! ## Feature inventory
//!
//! - [`trace`] — FCC-like / cellular-like / synth-wide bandwidth families
//!   (Table 3, §A.5), exact step-function transfer integration
//! - [`video`] — EnvivioDash3-like and SynthVideo ladders with VBR sizes
//! - [`sim`] — Pensieve buffer dynamics, observation window, policy trait
//! - [`qoe`] — QoE(λ=4.3, γ=1) + per-factor breakdown (Fig 12)
//! - [`policy`] — BBA and RobustMPC
//! - [`genet`] — actor-critic + curriculum + MPC warm start, trained on the
//!   default setting only (so Fig 11/12's generalization gap is measured)
//! - [`emu`] — RTT-round transfer model for Fig 14's client/server test
//!
//! ## The fixed environment
//!
//! The paper evaluates ABR in one environment, so its settings are
//! constants, not options:
//!
//! - QoE weights [`LAMBDA_REBUF`] = 4.3 and [`GAMMA_CHANGE`] = 1 (Pensieve);
//! - [`RTT_SECS`] = 80 ms per chunk request, in the simulator and the
//!   emulator alike (the paper's mahimahi links);
//! - a [`BUFFER_CAP_SECS`] = 60 s playback buffer that starts empty;
//! - [`CHUNKS`] = 48 chunks of [`CHUNK_SECS`] = 4 s per video
//!   (EnvivioDash3);
//! - BBA's reservoir 5 s and cushion 10 s ([`Bba::RESERVOIR_SECS`],
//!   [`Bba::CUSHION_SECS`]) and RobustMPC's 5-chunk [`Mpc::HORIZON`], the
//!   published settings.
//!
//! Not implemented (by design): real HTTP/DASH, packet loss, competing
//! flows. Winners and orderings are the reproduction target, not absolute
//! QoE magnitudes.

#![forbid(unsafe_code)]

pub mod emu;
pub mod genet;
pub mod policy;
pub mod qoe;
pub mod sim;
pub mod trace;
pub mod video;

pub use emu::{run_emulated_session, transfer_time};
pub use genet::{featurize, train_genet, GenetPolicy, GenetTrainConfig, FEAT_DIM};
pub use policy::{Bba, Mpc};
pub use qoe::{chunk_qoe, session_stats, ChunkRecord, SessionStats, GAMMA_CHANGE, LAMBDA_REBUF};
pub use sim::{run_session, AbrObservation, AbrPolicy, FixedRung, BUFFER_CAP_SECS, HIST, RTT_SECS};
pub use trace::{generate, generate_set, stats, BandwidthTrace, TraceKind};
pub use video::{envivio_like, synth_video, Video, CHUNKS, CHUNK_SECS};
