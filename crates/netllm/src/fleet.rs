//! One fleet, three workloads: a heterogeneous [`ServedTask`] that puts
//! ABR, CJS and VP sessions behind the *same* serving engine (and, via
//! [`crate::ShardedServer`], the same sharded fleet).
//!
//! This is the paper's serving claim made concrete: one adapted-LLM
//! deployment answers bitrate decisions, scheduling decisions and
//! viewport predictions concurrently, the realistic mix of heterogeneous
//! flows a network actually carries. Each member task keeps its own
//! weights (the repo adapts one backbone per task), so the engine sorts
//! a tick's slots by member: all of a member's slots in the batch share
//! one stacked backbone GEMM, members never mix weights, and per-slot
//! semantics — ABR re-anchoring, CJS candidate rollback, VP one-shot
//! eval — are exactly the member's own [`ServedTask`] hooks, delegated.

use crate::adapters::abr::AbrEpisode;
use crate::adapters::cjs::{CjsEpisode, CjsObs};
use crate::adapters::vp::{VpQuery, VpSlot};
use crate::backbone::InferenceSession;
use crate::serving::{Lane, LanePlan, ServedTask, StepOutcome};
use crate::{NetLlmAbr, NetLlmCjs, NetLlmVp};
use nt_abr::AbrObservation;
use nt_cjs::Decision;
use nt_llm::TinyLm;
use nt_nn::ParamStore;
use nt_tensor::Tensor;
use nt_vp::Viewport;

/// Backbone group of ABR sessions in a fleet.
pub const FLEET_ABR: usize = 0;
/// Backbone group of CJS sessions in a fleet.
pub const FLEET_CJS: usize = 1;
/// Backbone group of VP sessions in a fleet.
pub const FLEET_VP: usize = 2;

/// The three adapted models a fleet serves, borrowed for the serving
/// calls (weights stay owned by the caller, as with every served task).
pub struct NetLlmFleet<'m> {
    pub abr: &'m NetLlmAbr,
    pub cjs: &'m NetLlmCjs,
    pub vp: &'m NetLlmVp,
}

/// A tick observation for one fleet session (must match the slot's task).
#[derive(Clone, Debug)]
pub enum FleetObs {
    Abr(AbrObservation),
    Cjs(CjsObs),
    Vp(VpQuery),
}

impl From<AbrObservation> for FleetObs {
    fn from(o: AbrObservation) -> Self {
        FleetObs::Abr(o)
    }
}

impl From<CjsObs> for FleetObs {
    fn from(o: CjsObs) -> Self {
        FleetObs::Cjs(o)
    }
}

impl From<VpQuery> for FleetObs {
    fn from(o: VpQuery) -> Self {
        FleetObs::Vp(o)
    }
}

/// Per-session state of one fleet member.
pub enum FleetSlot {
    Abr(AbrEpisode),
    Cjs(CjsEpisode),
    Vp(VpSlot),
}

/// A fleet decision, tagged by member task.
#[derive(Clone, Debug)]
pub enum FleetAction {
    Abr(usize),
    Cjs(Decision),
    Vp(Vec<Viewport>),
}

impl FleetAction {
    /// The ABR bitrate rung (panics for other members).
    pub fn abr(self) -> usize {
        match self {
            FleetAction::Abr(a) => a,
            other => panic!("expected an ABR action, got {other:?}"),
        }
    }

    /// The CJS scheduling decision (panics for other members).
    pub fn cjs(self) -> Decision {
        match self {
            FleetAction::Cjs(d) => d,
            other => panic!("expected a CJS action, got {other:?}"),
        }
    }

    /// The VP viewport prediction (panics for other members).
    pub fn vp(self) -> Vec<Viewport> {
        match self {
            FleetAction::Vp(v) => v,
            other => panic!("expected a VP action, got {other:?}"),
        }
    }
}

impl NetLlmFleet<'_> {
    /// Whether a session of backbone `group` can be served `obs`: the
    /// modality matches the group, and the member admits the observation
    /// (see `NetLlmAbr::admits`, `NetLlmCjs::admits`, `NetLlmVp::admits`).
    pub fn admits(&self, obs: &FleetObs, group: usize) -> bool {
        match (obs, group) {
            (FleetObs::Abr(o), FLEET_ABR) => self.abr.admits(o),
            (FleetObs::Cjs(o), FLEET_CJS) => self.cjs.admits(o),
            (FleetObs::Vp(o), FLEET_VP) => self.vp.admits(o),
            _ => false,
        }
    }
}

impl ServedTask for NetLlmFleet<'_> {
    type Obs = FleetObs;
    type Action = FleetAction;
    type Slot = FleetSlot;

    fn groups(&self) -> usize {
        3
    }

    fn backbone(&self, group: usize) -> (&TinyLm, &ParamStore) {
        match group {
            FLEET_ABR => ServedTask::backbone(self.abr, 0),
            FLEET_CJS => ServedTask::backbone(self.cjs, 0),
            FLEET_VP => ServedTask::backbone(self.vp, 0),
            other => panic!("fleet has no group {other}"),
        }
    }

    fn task_label(&self, group: usize) -> &'static str {
        match group {
            FLEET_ABR => self.abr.task_label(0),
            FLEET_CJS => self.cjs.task_label(0),
            FLEET_VP => self.vp.task_label(0),
            other => panic!("fleet has no group {other}"),
        }
    }

    fn group_of(&self, slot: &FleetSlot) -> usize {
        match slot {
            FleetSlot::Abr(_) => FLEET_ABR,
            FleetSlot::Cjs(_) => FLEET_CJS,
            FleetSlot::Vp(_) => FLEET_VP,
        }
    }

    fn new_slot(&self, group: usize) -> FleetSlot {
        match group {
            FLEET_ABR => FleetSlot::Abr(self.abr.new_slot(0)),
            FLEET_CJS => FleetSlot::Cjs(self.cjs.new_slot(0)),
            FLEET_VP => FleetSlot::Vp(self.vp.new_slot(0)),
            other => panic!("fleet has no group {other}"),
        }
    }

    fn plan_rows(
        &self,
        slot: &FleetSlot,
        obs: &FleetObs,
        session: &InferenceSession,
    ) -> (usize, bool) {
        match (slot, obs) {
            (FleetSlot::Abr(ep), FleetObs::Abr(o)) => self.abr.plan_rows(ep, o, session),
            (FleetSlot::Cjs(ep), FleetObs::Cjs(o)) => self.cjs.plan_rows(ep, o, session),
            (FleetSlot::Vp(sl), FleetObs::Vp(o)) => self.vp.plan_rows(sl, o, session),
            _ => panic!("fleet observation does not match the session's task"),
        }
    }

    fn rebuild_rows(&self, slot: &FleetSlot, session: &InferenceSession) -> usize {
        match slot {
            FleetSlot::Abr(ep) => self.abr.rebuild_rows(ep, session),
            FleetSlot::Cjs(ep) => self.cjs.rebuild_rows(ep, session),
            FleetSlot::Vp(sl) => self.vp.rebuild_rows(sl, session),
        }
    }

    fn plan_batch(
        &self,
        lanes: &mut [Lane<'_, FleetSlot, FleetObs>],
        sessions: &[&InferenceSession],
        stacked: &mut Vec<f32>,
    ) -> Vec<LanePlan> {
        // A run is one group, so one member serves it whole.
        match self.group_of(lanes[0].slot) {
            FLEET_ABR => self.abr.plan_batch(&mut member(lanes, as_abr), sessions, stacked),
            FLEET_CJS => self.cjs.plan_batch(&mut member(lanes, as_cjs), sessions, stacked),
            _ => self.vp.plan_batch(&mut member(lanes, as_vp), sessions, stacked),
        }
    }

    fn settle_batch(
        &self,
        lanes: &mut [Lane<'_, FleetSlot, FleetObs>],
        hidden: &Tensor,
        rows: &[usize],
    ) -> Vec<StepOutcome<FleetAction>> {
        match self.group_of(lanes[0].slot) {
            FLEET_ABR => {
                let out = self.abr.settle_batch(&mut member(lanes, as_abr), hidden, rows);
                tagged(out, FleetAction::Abr)
            }
            FLEET_CJS => {
                let out = self.cjs.settle_batch(&mut member(lanes, as_cjs), hidden, rows);
                tagged(out, FleetAction::Cjs)
            }
            _ => {
                let out = self.vp.settle_batch(&mut member(lanes, as_vp), hidden, rows);
                tagged(out, FleetAction::Vp)
            }
        }
    }
}

/// A fleet run's lanes as lanes of the member `pick` unwraps.
fn member<'a, S, O>(
    lanes: &'a mut [Lane<'_, FleetSlot, FleetObs>],
    pick: fn(&'a mut FleetSlot, &'a FleetObs) -> Option<Lane<'a, S, O>>,
) -> Vec<Lane<'a, S, O>> {
    lanes
        .iter_mut()
        .map(|l| pick(l.slot, l.obs).expect("fleet observation does not match the session's task"))
        .collect()
}

fn as_abr<'a>(
    slot: &'a mut FleetSlot,
    obs: &'a FleetObs,
) -> Option<Lane<'a, AbrEpisode, AbrObservation>> {
    match (slot, obs) {
        (FleetSlot::Abr(slot), FleetObs::Abr(obs)) => Some(Lane { slot, obs }),
        _ => None,
    }
}

fn as_cjs<'a>(slot: &'a mut FleetSlot, obs: &'a FleetObs) -> Option<Lane<'a, CjsEpisode, CjsObs>> {
    match (slot, obs) {
        (FleetSlot::Cjs(slot), FleetObs::Cjs(obs)) => Some(Lane { slot, obs }),
        _ => None,
    }
}

fn as_vp<'a>(slot: &'a mut FleetSlot, obs: &'a FleetObs) -> Option<Lane<'a, VpSlot, VpQuery>> {
    match (slot, obs) {
        (FleetSlot::Vp(slot), FleetObs::Vp(obs)) => Some(Lane { slot, obs }),
        _ => None,
    }
}

/// A member's outcomes with its actions tagged as fleet actions.
fn tagged<A>(
    outs: Vec<StepOutcome<A>>,
    tag: fn(A) -> FleetAction,
) -> Vec<StepOutcome<FleetAction>> {
    outs.into_iter()
        .map(|o| StepOutcome { action: tag(o.action), logits: o.logits, rollback: o.rollback })
        .collect()
}
