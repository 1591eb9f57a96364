//! The served bits, pinned. ABR, CJS and VP sessions run through
//! [`step_single`] on random `7b-sim` backbones (window 4, fixed seeds).
//! Two FNV-1a digests per task fold what passes through the hooks:
//! - the answer digest folds every plan's token rows, every logit and
//!   every rollback's post tokens;
//! - the read-rows digest folds the hidden rows the backbone returns,
//!   which are the rows a head reads: each lane's last `read` rows (ABR 1,
//!   CJS its candidates plus the graph row, VP its `pw` query rows).
//!
//! The runs cross the ABR and CJS re-anchors, and every CJS decision rolls
//! its candidate tokens back.
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

/// An FNV-1a digest.
struct Fnv(Cell<u64>);

impl Fnv {
    fn new() -> Self {
        Fnv(Cell::new(0xcbf2_9ce4_8422_2325))
    }

    /// Fold the row count, then every value's bit pattern.
    fn eat(&self, rows: usize, values: &[f32]) {
        let mut h = self.0.get();
        let words = std::iter::once(rows as u32).chain(values.iter().map(|v| v.to_bits()));
        for byte in words.flat_map(u32::to_le_bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        self.0.set(h);
    }
}

/// A served task that folds what passes through its hooks into the
/// answer and read-rows digests and counts re-anchors and rollbacks; it
/// changes nothing.
struct Digest<'t, T> {
    task: &'t T,
    answers: Fnv,
    read_rows: Fnv,
    reanchors: Cell<usize>,
    rollbacks: Cell<usize>,
}

impl<'t, T> Digest<'t, T> {
    fn new(task: &'t T) -> Self {
        Digest {
            task,
            answers: Fnv::new(),
            read_rows: Fnv::new(),
            reanchors: Cell::new(0),
            rollbacks: Cell::new(0),
        }
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
            self.answers.eat(plan.rows, &stacked[row * d..(row + plan.rows) * d]);
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
            self.read_rows.eat(n, &hidden.data()[row * d..(row + n) * d]);
            row += n;
            self.answers.eat(1, &out.logits);
            if let Some(rb) = &out.rollback {
                self.answers.eat(rb.drop_rows, rb.post_tokens.data());
                self.rollbacks.set(self.rollbacks.get() + 1);
            }
        }
        outs
    }
}

/// What one task's run folded.
struct Run {
    answers: u64,
    read_rows: u64,
    reanchors: usize,
    rollbacks: usize,
}

/// Serve `obs` in order through one slot and one session (`fresh`: a new
/// slot and session per observation, the one-shot shape).
fn digest<T: ServedTask>(task: &T, obs: &[T::Obs], fresh: bool) -> Run {
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
    Run {
        answers: d.answers.0.get(),
        read_rows: d.read_rows.0.get(),
        reanchors: d.reanchors.get(),
        rollbacks: d.rollbacks.get(),
    }
}

#[test]
fn served_bits_match_the_pinned_digests() {
    let models =
        FleetModels::seeded(&std::env::temp_dir().join("netllm-served-bits"), "7b-sim", 4, 61);

    let abr_obs = AbrObservation::synthetic_stream(62, 26);
    let abr = digest(&models.abr, &abr_obs, false);
    assert!(abr.reanchors >= 2, "ABR run re-anchored {} times", abr.reanchors);

    let cjs_obs = CjsObs::synthetic_stream(63, 6);
    let cjs = digest(&models.cjs, &cjs_obs, false);
    assert!(cjs.reanchors >= 1, "CJS run re-anchored {} times", cjs.reanchors);
    assert_eq!(cjs.rollbacks, cjs_obs.len(), "every CJS decision rolls its candidates back");

    let samples = VpSample::synthetic_pool();
    let vp_obs: Vec<VpQuery> = (0..6)
        .map(|i| VpQuery { sample: samples[(7 * i) % samples.len()].clone(), pw: [1, 4, 8][i % 3] })
        .collect();
    let vp = digest(&models.vp, &vp_obs, true);

    let runs = format!(
        "{} ABR steps, {} re-anchors; {} CJS decisions, {} re-anchors",
        abr_obs.len(),
        abr.reanchors,
        cjs_obs.len(),
        cjs.reanchors
    );
    assert_eq!(
        [abr.answers, cjs.answers, vp.answers],
        [0xe55f_6662_8d6c_566c, 0x9404_7bae_861f_7789, 0x9b23_fe40_7695_6e74],
        "answer bits moved: ABR {:#018x}, CJS {:#018x}, VP {:#018x} ({runs})",
        abr.answers,
        cjs.answers,
        vp.answers
    );
    assert_eq!(
        [abr.read_rows, cjs.read_rows, vp.read_rows],
        [0x28e8_c2c8_cd4b_6db9, 0x7b25_d07a_2f9b_7215, 0x338b_f591_9e60_ad16],
        "read hidden rows moved: ABR {:#018x}, CJS {:#018x}, VP {:#018x} ({runs})",
        abr.read_rows,
        cjs.read_rows,
        vp.read_rows
    );
}
