//! # netllm
//!
//! Reproduction of **NetLLM: Adapting Large Language Models for Networking**
//! (Wu et al., ACM SIGCOMM 2024) — the framework itself. The three design
//! modules map to:
//!
//! - [`multimodal`] — the multimodal encoder (§4.1): modality-specific
//!   feature encoders (ViT-lite / 1D-CNN / FC / GNN) + trainable
//!   projections into token space + layer-norm;
//! - [`heads`] — networking heads (§4.2): one linear head per task,
//!   answers always valid, one backbone inference per answer;
//! - [`adapt`] + the `adapt()` methods in [`adapters`] — DD-LRNA (§4.3):
//!   data-driven SL/RL pipelines with all backbone change constrained to
//!   LoRA matrices.
//!
//! [`prompt`] implements the *alternatives* the paper measures against
//! (prompt learning + token decoding, Fig 2). [`api`] exposes the Fig 9
//! `RL_Collect`/`Adapt`/`Test` integration surface. [`settings`] encodes
//! Tables 2–4 and the fidelity ladder. [`serving`], [`sched`], [`shard`]
//! and [`fleet`] are the serving stack: an adapter-generic batched engine
//! ([`ServedTask`]), an async admission queue with pluggable placement
//! policies ([`AdmissionQueue`], [`AdmissionPolicy`]), a sharded fleet
//! stepped by submit/tick/poll ([`ShardedServer`]), and the
//! heterogeneous ABR+CJS+VP mix ([`NetLlmFleet`]).
//!
//! The backbone is the in-repo pre-trained [`nt_llm::TinyLm`] — see
//! `DESIGN.md` for the substitution argument (repro band: candle/burn are
//! not viable for LoRA-style LLM adaptation pipelines, so the stack is
//! built from scratch at simulator scale).
//!
//! [`wire`] and [`ingress`] put the fleet behind a socket: a
//! length-prefixed, version-negotiated wire protocol and an event-loop
//! front end where connections feed per-shard admission queues and a
//! dedicated scheduler thread owns `tick`. See `docs/PROTOCOL.md` for
//! the frame format and `docs/ARCHITECTURE.md` for the request
//! lifecycle.

#![forbid(unsafe_code)]

pub mod adapt;
pub mod adapters;
pub mod api;
pub mod backbone;
pub mod fault;
pub mod fleet;
pub mod heads;
pub mod health;
pub mod ingress;
pub mod metrics;
pub mod multimodal;
pub mod prompt;
pub mod sched;
pub mod serving;
pub mod settings;
pub mod shard;
pub mod telemetry;
pub mod wire;

pub use adapt::AdaptMode;
pub use adapters::abr::{AbrEpisode, AbrRecorder, AbrStep, AbrTrajectory, NetLlmAbr};
pub use adapters::cjs::{collect_episode, CjsEpisode, CjsObs, CjsStep, CjsTrajectory, NetLlmCjs};
pub use adapters::vp::{NetLlmVp, VpQuery, VpSlot};
pub use api::{
    adapt_abr, adapt_cjs, adapt_vp, build_abr_env, build_cjs_workloads, build_vp_data,
    rl_collect_abr, rl_collect_cjs, test_abr, test_cjs, VpData,
};
pub use backbone::{append_batched, InferenceSession};
pub use fault::{Fault, FaultEvent, FaultPlan, FaultReport};
pub use fleet::{FleetAction, FleetObs, FleetSlot, NetLlmFleet, FLEET_ABR, FLEET_CJS, FLEET_VP};
pub use heads::{AbrHead, CjsHeads, VpHead};
pub use health::{HealthChecker, HealthConfig, HealthState, Heartbeat};
pub use ingress::{
    serve, FleetModels, FrontDoor, IngressConfig, IngressHandle, IngressSnapshot, IngressStats,
    WireClient, WireReceiver, WireSender,
};
pub use metrics::{
    pool_dispatch_snapshot, FaultSnapshot, LatencySnapshot, MetricsRegistry, MetricsSnapshot,
    PoolDispatchSnapshot, ShardSnapshot, TickPhase, TICK_PHASES,
};
pub use prompt::{
    evaluate_token_path, parse_answer, render_answer, render_prompt, PromptVp, TokenPathStats,
};
pub use sched::{
    steer_improves, AdmissionPolicy, AdmissionQueue, Arrival, EvictionPolicy, MemoryReport,
    PagePressure, PlacementView, SubmitError, SubmitRetry, TickReport, Ticket, TicketStatus,
};
pub use serving::{
    step_single, Lane, LanePlan, ParkedSlot, RollbackPlan, ServedTask, ServingEngine, SessionId,
    StepOutcome, StepPlan,
};
pub use settings::{
    AbrSetting, CjsSetting, Fidelity, VpSetting, ABR_DEFAULT, ABR_UNSEEN1, ABR_UNSEEN2,
    ABR_UNSEEN3, CJS_DEFAULT, CJS_UNSEEN1, CJS_UNSEEN2, CJS_UNSEEN3, VP_DEFAULT, VP_UNSEEN1,
    VP_UNSEEN2, VP_UNSEEN3,
};
pub use shard::{GlobalSessionId, LeaveReport, ShardedServer};
pub use telemetry::{
    EventKind, EventsView, RefusalReason, SteerReason, TelemetryEvent, TelemetryRing,
};
pub use wire::{
    negotiate, read_frame, write_frame, BusyReason, Frame, WireError, MAX_FRAME_LEN,
    MIN_WIRE_VERSION, WIRE_VERSION,
};
