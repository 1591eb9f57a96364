//! The served bits, pinned. ABR, CJS and VP sessions run through
//! [`step_single`] on random `7b-sim` backbones (window 4, fixed seeds),
//! and every plan's token rows, every hidden row the backbone returns,
//! every rollback's post tokens and every logit is folded into one FNV-1a
//! digest per task. The runs cross the ABR and CJS re-anchors, and every
//! CJS decision rolls its candidate tokens back.
//!
//! The digests are constants. A speed-up that claims to keep the served
//! bits (a kernel, workspace or batching change) must pass this test
//! unchanged. A constant may change only in a change that rides ROADMAP
//! item 10's rung 4 (task-metric equivalence), which states that it moves
//! bits and is judged by task metrics instead.
//!
//! The constants also fold in the random weights and synthetic
//! observations, drawn through `Rng::normal` (Box–Muller on `f32`
//! `ln` / `sin` / `cos`) and `exp`, which the platform's libm serves. They
//! were computed against glibc on x86-64. On a libc whose libm rounds any
//! of these differently the digests differ with no kernel changed, so a
//! failure there is not by itself a served-bits regression: compare the
//! digests at the parent commit on the same host first.

use netllm::{
    step_single, CjsObs, FleetModels, InferenceSession, Lane, LanePlan, ServedTask, StepOutcome,
    VpQuery,
};
use nt_abr::AbrObservation;
use nt_llm::TinyLm;
use nt_nn::ParamStore;
use nt_tensor::Tensor;
use nt_vp::VpSample;
use std::cell::Cell;

/// A served task that folds what passes through its hooks into an FNV-1a
/// digest and counts re-anchors and rollbacks; it changes nothing.
struct Digest<'t, T> {
    task: &'t T,
    hash: Cell<u64>,
    reanchors: Cell<usize>,
    rollbacks: Cell<usize>,
}

impl<'t, T> Digest<'t, T> {
    fn new(task: &'t T) -> Self {
        Digest {
            task,
            hash: Cell::new(0xcbf2_9ce4_8422_2325),
            reanchors: Cell::new(0),
            rollbacks: Cell::new(0),
        }
    }

    /// Fold the row count, then every value's bit pattern.
    fn eat(&self, rows: usize, values: &[f32]) {
        let mut h = self.hash.get();
        let words = std::iter::once(rows as u32).chain(values.iter().map(|v| v.to_bits()));
        for byte in words.flat_map(u32::to_le_bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        self.hash.set(h);
    }
}

impl<T: ServedTask> ServedTask for Digest<'_, T> {
    type Obs = T::Obs;
    type Action = T::Action;
    type Slot = T::Slot;

    fn backbone(&self, group: usize) -> (&TinyLm, &ParamStore) {
        self.task.backbone(group)
    }

    fn group_of(&self, slot: &T::Slot) -> usize {
        self.task.group_of(slot)
    }

    fn new_slot(&self, group: usize) -> T::Slot {
        self.task.new_slot(group)
    }

    fn plan_batch(
        &self,
        lanes: &mut [Lane<'_, T::Slot, T::Obs>],
        sessions: &[&InferenceSession],
        stacked: &mut Vec<f32>,
    ) -> Vec<LanePlan> {
        let start = stacked.len();
        let plans = self.task.plan_batch(lanes, sessions, stacked);
        let d = self.task.backbone(self.task.group_of(lanes[0].slot)).0.cfg.d_model;
        let mut row = start / d;
        for (plan, session) in plans.iter().zip(sessions) {
            self.eat(plan.rows, &stacked[row * d..(row + plan.rows) * d]);
            row += plan.rows;
            let reanchored = plan.reanchor && !session.is_empty();
            self.reanchors.set(self.reanchors.get() + usize::from(reanchored));
        }
        plans
    }

    fn settle_batch(
        &self,
        lanes: &mut [Lane<'_, T::Slot, T::Obs>],
        hidden: &Tensor,
        rows: &[usize],
    ) -> Vec<StepOutcome<T::Action>> {
        let outs = self.task.settle_batch(lanes, hidden, rows);
        let d = hidden.shape()[1];
        let mut row = 0;
        for (&n, out) in rows.iter().zip(&outs) {
            self.eat(n, &hidden.data()[row * d..(row + n) * d]);
            row += n;
            self.eat(1, &out.logits);
            if let Some(rb) = &out.rollback {
                self.eat(rb.drop_rows, rb.post_tokens.data());
                self.rollbacks.set(self.rollbacks.get() + 1);
            }
        }
        outs
    }
}

/// Serve `obs` in order through one slot and one session (`fresh`: a new
/// slot and session per observation, the one-shot shape); returns the
/// digest and the re-anchor and rollback counts.
fn digest<T: ServedTask>(task: &T, obs: &[T::Obs], fresh: bool) -> (u64, usize, usize) {
    let d = Digest::new(task);
    let mut slot = d.new_slot(0);
    let mut session = InferenceSession::new(task.backbone(0).0);
    for o in obs {
        if fresh {
            slot = d.new_slot(0);
            session = InferenceSession::new(task.backbone(0).0);
        }
        let _ = step_single(&d, &mut slot, &mut session, o);
    }
    (d.hash.get(), d.reanchors.get(), d.rollbacks.get())
}

#[test]
fn served_bits_match_the_pinned_digests() {
    let models =
        FleetModels::seeded(&std::env::temp_dir().join("netllm-served-bits"), "7b-sim", 4, 61);

    let abr_obs = AbrObservation::synthetic_stream(62, 26);
    let (abr, abr_reanchors, _) = digest(&models.abr, &abr_obs, false);
    assert!(abr_reanchors >= 2, "ABR run re-anchored {abr_reanchors} times");

    let cjs_obs = CjsObs::synthetic_stream(63, 6);
    let (cjs, cjs_reanchors, cjs_rollbacks) = digest(&models.cjs, &cjs_obs, false);
    assert!(cjs_reanchors >= 1, "CJS run re-anchored {cjs_reanchors} times");
    assert_eq!(cjs_rollbacks, cjs_obs.len(), "every CJS decision rolls its candidates back");

    let samples = VpSample::synthetic_pool();
    let vp_obs: Vec<VpQuery> = (0..6)
        .map(|i| VpQuery { sample: samples[(7 * i) % samples.len()].clone(), pw: [1, 4, 8][i % 3] })
        .collect();
    let (vp, _, _) = digest(&models.vp, &vp_obs, true);

    assert_eq!(
        [abr, cjs, vp],
        [0xa0f1_a46f_6490_ada6, 0x4015_8180_ff85_3533, 0xb54d_98d1_0739_b631],
        "served bits moved: ABR {abr:#018x}, CJS {cjs:#018x}, VP {vp:#018x} ({} ABR steps, \
         {abr_reanchors} re-anchors; {} CJS decisions, {cjs_reanchors} re-anchors)",
        abr_obs.len(),
        cjs_obs.len()
    );
}
