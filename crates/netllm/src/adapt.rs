//! Adaptation modes and the LoRA budget (paper §4.3 + Fig 13 ablations).
//!
//! Every task adapts with one LoRA budget: rank [`LORA_RANK`] = 4 at scale
//! [`LORA_ALPHA`] = 8 (LoRA, arXiv 2106.09685). The paper uses rank 32 (VP)
//! and 128 (ABR, CJS) on a 7B model; at these backbone sizes that split
//! scales down to a single rank.

use nt_llm::TinyLm;
use nt_nn::{clip_grad_norm, Adam, Fwd, ParamStore};
use nt_tensor::{NodeId, Rng};

/// Rank of every LoRA adapter.
pub const LORA_RANK: usize = 4;
/// LoRA scale numerator: the low-rank update is scaled by `alpha / rank`.
pub const LORA_ALPHA: f32 = 8.0;

/// Which knowledge the adapted model keeps (Fig 13):
///
/// - `FullKnowledge`: frozen pre-trained backbone + trainable LoRA —
///   the NetLLM configuration;
/// - `NoPretrain`: randomly initialised backbone trained end-to-end
///   (destroys pre-trained knowledge, keeps domain adaptation);
/// - `NoDomain`: frozen pre-trained backbone, *no* LoRA (encoder and head
///   still train — they are task plumbing, not backbone knowledge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptMode {
    FullKnowledge,
    NoPretrain,
    NoDomain,
}

impl AdaptMode {
    /// Configure the backbone's trainability for this mode.
    pub fn apply(self, lm: &mut TinyLm, store: &mut ParamStore, rng: &mut Rng) {
        match self {
            AdaptMode::FullKnowledge => {
                lm.attach_lora(store, LORA_RANK, LORA_ALPHA, rng);
            }
            AdaptMode::NoPretrain => {
                // Backbone stays fully trainable; caller supplies a
                // randomly-initialised backbone (Zoo::build_random).
            }
            AdaptMode::NoDomain => {
                store.freeze_prefix("llm.");
                lm.detach_lora();
            }
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AdaptMode::FullKnowledge => "full-knowledge",
            AdaptMode::NoPretrain => "no-pretrained-knowledge",
            AdaptMode::NoDomain => "no-domain-knowledge",
        }
    }
}

/// The DD-LRNA optimisation loop every adapter shares: `iters` steps of
/// Adam at `lr` with the gradient norm clipped to 1, returning the mean
/// loss over the final 20% of steps. Each iteration hands `loss_of` the
/// model, a fresh training tape (`Fwd::train(seed ^ it)`) and the one
/// sampling RNG (seeded with `seed`; draw order is the caller's), and
/// gets back the loss node to descend — or `None` to skip an unusable
/// sample. `store` names the model's parameters for the optimiser.
pub(crate) fn fit<M>(
    model: &mut M,
    store: fn(&mut M) -> &mut ParamStore,
    iters: usize,
    lr: f32,
    seed: u64,
    mut loss_of: impl FnMut(&M, &mut Fwd, &mut Rng) -> Option<NodeId>,
) -> f32 {
    let mut rng = Rng::seeded(seed);
    let mut opt = Adam::new(lr);
    let tail_start = iters.saturating_sub((iters / 5).max(1));
    let (mut tail, mut tail_n) = (0.0f64, 0usize);
    for it in 0..iters {
        let mut f = Fwd::train(seed ^ it as u64);
        let Some(loss) = loss_of(model, &mut f, &mut rng) else { continue };
        if it >= tail_start {
            tail += f.g.value(loss).item() as f64;
            tail_n += 1;
        }
        let mut grads = f.backward(loss);
        clip_grad_norm(&mut grads, 1.0);
        opt.step(store(model), &grads);
    }
    (tail / tail_n.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_llm::{size_spec, Zoo};

    #[test]
    fn modes_configure_trainability_correctly() {
        let zoo = Zoo::new(std::env::temp_dir().join("adapt-mode-test"));
        for mode in [AdaptMode::FullKnowledge, AdaptMode::NoPretrain, AdaptMode::NoDomain] {
            let mut loaded = zoo.build_random(&size_spec("0.35b-sim"));
            let mut rng = Rng::seeded(1);
            mode.apply(&mut loaded.lm, &mut loaded.store, &mut rng);
            let backbone_trainable: Vec<String> = loaded
                .store
                .ids()
                .filter(|&id| {
                    loaded.store.name(id).starts_with("llm.") && loaded.store.is_trainable(id)
                })
                .map(|id| loaded.store.name(id).to_string())
                .collect();
            match mode {
                AdaptMode::FullKnowledge => {
                    assert!(!backbone_trainable.is_empty());
                    assert!(
                        backbone_trainable.iter().all(|n| n.contains("lora")),
                        "{backbone_trainable:?}"
                    );
                }
                AdaptMode::NoPretrain => {
                    assert!(backbone_trainable.iter().any(|n| !n.contains("lora")));
                }
                AdaptMode::NoDomain => {
                    assert!(backbone_trainable.is_empty(), "{backbone_trainable:?}");
                }
            }
        }
    }

    #[test]
    fn fit_at_zero_iterations_returns_zero_and_changes_nothing() {
        fn params(s: &mut ParamStore) -> &mut ParamStore {
            s
        }
        let mut store = ParamStore::new();
        let id = store.add("w", nt_tensor::Tensor::full([3], 2.5), true);
        let loss = fit(&mut store, params, 0, 1e-3, 7, |_, _, _| unreachable!("no step runs"));
        assert_eq!(loss, 0.0);
        assert_eq!(store.data(id).data(), &[2.5, 2.5, 2.5]);
    }
}
