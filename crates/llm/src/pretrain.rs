//! Synthetic pre-training: the stand-in for "pre-trained on massive text".
//!
//! The paper's deep-dive (Fig 13) shows that the LLM's *pre-trained
//! knowledge* — generic sequence-modelling abilities like pattern mining and
//! planning — is what transfers to networking, not the text itself. We
//! therefore pre-train the backbone on a mixture of synthetic skills that
//! exercise exactly those abilities:
//!
//! - **copy / induction**: `prefix # prefix` — induction-head formation,
//! - **progression**: arithmetic token sequences — extrapolation,
//! - **markov**: letter chains with a fixed transition kernel — statistical
//!   structure,
//! - **brackets**: balanced nesting — hierarchy tracking,
//! - **sensor**: quantised random-walk "telemetry" rendered as digits —
//!   smooth time-series continuation, the closest skill to networking data,
//! - **caption** (multimodal profiles only): a coarse "saliency grid" line
//!   followed by the grid coordinate of its maximum — cross-referencing.
//!
//! A backbone pre-trained on this mixture measurably beats a random-init
//! backbone when adapted to VP/ABR/CJS (reproducing Fig 13's "no pre-trained
//! knowledge" ablation).

use crate::model::TinyLm;
use crate::tokenizer::Tokenizer;
use nt_nn::{clip_grad_norm, Adam, Fwd, ParamStore};
use nt_tensor::Rng;

/// Which synthetic skills a corpus mixes (weights are relative).
#[derive(Clone, Debug)]
pub struct CorpusMix {
    pub copy: f32,
    pub progression: f32,
    pub markov: f32,
    pub brackets: f32,
    pub sensor: f32,
    pub caption: f32,
}

impl CorpusMix {
    /// Text-only mixture (Llama2/OPT/Mistral-style profiles).
    pub fn text() -> Self {
        CorpusMix {
            copy: 1.0,
            progression: 1.0,
            markov: 1.0,
            brackets: 0.5,
            sensor: 1.5,
            caption: 0.0,
        }
    }

    /// Multimodal mixture (LLaVa-style profile): adds grid-caption pairs.
    pub fn multimodal() -> Self {
        CorpusMix { caption: 1.5, ..Self::text() }
    }
}

/// Synthetic corpus sampler.
pub struct Corpus {
    tok: Tokenizer,
    mix: CorpusMix,
    /// Markov transition kernel over 8 letters, row-stochastic.
    markov_kernel: Vec<Vec<f32>>,
    pub seq_len: usize,
}

impl Corpus {
    pub fn new(mix: CorpusMix, seq_len: usize, rng: &mut Rng) -> Self {
        let k = 8;
        let mut kernel = Vec::with_capacity(k);
        for _ in 0..k {
            let mut row: Vec<f32> = (0..k).map(|_| rng.unit().powi(2)).collect();
            let s: f32 = row.iter().sum();
            for x in &mut row {
                *x /= s;
            }
            kernel.push(row);
        }
        Corpus { tok: Tokenizer::new(), mix, markov_kernel: kernel, seq_len }
    }

    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tok
    }

    /// Sample one training sequence of token ids (BOS ... EOS), truncated to
    /// `seq_len`.
    pub fn sample(&self, rng: &mut Rng) -> Vec<usize> {
        let weights = [
            self.mix.copy,
            self.mix.progression,
            self.mix.markov,
            self.mix.brackets,
            self.mix.sensor,
            self.mix.caption,
        ];
        let text = match rng.categorical(&weights) {
            0 => self.copy_task(rng),
            1 => self.progression_task(rng),
            2 => self.markov_task(rng),
            3 => self.bracket_task(rng),
            4 => self.sensor_task(rng),
            _ => self.caption_task(rng),
        };
        let mut ids = self.tok.encode_wrapped(&text);
        ids.truncate(self.seq_len);
        ids
    }

    fn copy_task(&self, rng: &mut Rng) -> String {
        let n = rng.range(3, 9);
        let letters: String = (0..n).map(|_| (b'a' + rng.below(12) as u8) as char).collect();
        format!("{letters}#{letters}")
    }

    fn progression_task(&self, rng: &mut Rng) -> String {
        let start = rng.below(6);
        let step = rng.range(1, 4);
        let terms: Vec<String> = (0..8).map(|i| ((start + i * step) % 10).to_string()).collect();
        terms.join(" ")
    }

    fn markov_task(&self, rng: &mut Rng) -> String {
        let mut state = rng.below(8);
        let mut out = String::new();
        for _ in 0..24 {
            out.push((b'a' + state as u8) as char);
            state = rng.categorical(&self.markov_kernel[state]);
        }
        out
    }

    fn bracket_task(&self, rng: &mut Rng) -> String {
        // Balanced sequence via random walk that never goes negative.
        let mut out = String::new();
        let mut depth = 0usize;
        let total = rng.range(6, 12);
        let mut opens = 0;
        while opens < total || depth > 0 {
            if opens < total && (depth == 0 || rng.chance(0.55)) {
                out.push('(');
                depth += 1;
                opens += 1;
            } else {
                out.push(')');
                depth -= 1;
            }
            if out.len() > 26 {
                // close out
                while depth > 0 {
                    out.push(')');
                    depth -= 1;
                }
                break;
            }
        }
        out
    }

    fn sensor_task(&self, rng: &mut Rng) -> String {
        // Quantised mean-reverting random walk in [0,9].
        let mut level = rng.uniform(2.0, 7.0);
        let mut vel = 0.0f32;
        let mut out = String::new();
        for _ in 0..24 {
            out.push(char::from_digit(level.round().clamp(0.0, 9.0) as u32, 10).unwrap());
            vel = 0.8 * vel + rng.normal() * 0.45 + 0.05 * (4.5 - level);
            level = (level + vel).clamp(0.0, 9.0);
        }
        out
    }

    fn caption_task(&self, rng: &mut Rng) -> String {
        // 3x3 "saliency grid" of digits, then the row/col of the maximum.
        let mut cells = [[0u32; 3]; 3];
        let (pr, pc) = (rng.below(3), rng.below(3));
        for (r, row) in cells.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                let d = ((r as i32 - pr as i32).abs() + (c as i32 - pc as i32).abs()) as u32;
                *cell = 9u32.saturating_sub(d * 3 + rng.below(2) as u32);
            }
        }
        let grid: String = cells
            .iter()
            .map(|row| row.iter().map(|d| d.to_string()).collect::<String>())
            .collect::<Vec<_>>()
            .join("|");
        format!("{grid}={pr}{pc}")
    }
}

/// Result of a pre-training run.
#[derive(Clone, Debug)]
pub struct PretrainReport {
    pub steps: usize,
    pub initial_loss: f32,
    pub final_loss: f32,
    pub elapsed: std::time::Duration,
}

/// Pre-train `lm` on `corpus` for `steps` optimisation steps (one sequence
/// per step; small models converge fine without batching and it keeps the
/// single-core budget predictable).
pub fn pretrain(
    lm: &TinyLm,
    store: &mut ParamStore,
    corpus: &Corpus,
    steps: usize,
    lr: f32,
    seed: u64,
) -> PretrainReport {
    let start = std::time::Instant::now();
    let mut rng = Rng::seeded(seed);
    let mut opt = Adam::new(lr);
    let mut initial = 0.0f32;
    let mut ema = 0.0f32;
    for step in 0..steps {
        let ids = corpus.sample(&mut rng);
        if ids.len() < 2 {
            continue;
        }
        let mut f = Fwd::train(seed ^ step as u64);
        let loss = lm.sequence_loss(&mut f, store, &ids);
        let lv = f.g.value(loss).item();
        if step == 0 {
            initial = lv;
            ema = lv;
        } else {
            ema = 0.95 * ema + 0.05 * lv;
        }
        let mut grads = f.backward(loss);
        clip_grad_norm(&mut grads, 1.0);
        opt.step(store, &grads);
    }
    PretrainReport { steps, initial_loss: initial, final_loss: ema, elapsed: start.elapsed() }
}

/// Mean held-out next-token loss over `n` fresh sequences.
pub fn eval_loss(lm: &TinyLm, store: &ParamStore, corpus: &Corpus, n: usize, seed: u64) -> f32 {
    let mut rng = Rng::seeded(seed);
    let mut total = 0.0f64;
    let mut count = 0usize;
    for _ in 0..n {
        let ids = corpus.sample(&mut rng);
        if ids.len() < 2 {
            continue;
        }
        let mut f = Fwd::eval();
        let loss = lm.sequence_loss(&mut f, store, &ids);
        total += f.g.value(loss).item() as f64;
        count += 1;
    }
    (total / count.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LmConfig;
    use crate::tokenizer::BOS;
    use nt_tensor::Tensor;

    #[test]
    fn corpus_samples_fit_tokenizer_and_length() {
        let mut rng = Rng::seeded(1);
        let c = Corpus::new(CorpusMix::multimodal(), 48, &mut rng);
        for i in 0..50 {
            let ids = c.sample(&mut rng);
            assert!(ids.len() <= 48, "sample {i} too long");
            assert!(ids.iter().all(|&t| t < c.tokenizer().vocab_size()));
            assert_eq!(ids[0], BOS);
        }
    }

    #[test]
    fn bracket_task_is_balanced() {
        let mut rng = Rng::seeded(2);
        let c = Corpus::new(CorpusMix::text(), 64, &mut rng);
        for _ in 0..30 {
            let s = c.bracket_task(&mut rng);
            let mut depth = 0i32;
            for ch in s.chars() {
                depth += if ch == '(' { 1 } else { -1 };
                assert!(depth >= 0, "unbalanced: {s}");
            }
            assert_eq!(depth, 0, "unbalanced: {s}");
        }
    }

    #[test]
    fn caption_task_points_at_maximum() {
        let mut rng = Rng::seeded(3);
        let c = Corpus::new(CorpusMix::multimodal(), 64, &mut rng);
        for _ in 0..20 {
            let s = c.caption_task(&mut rng);
            let (grid, ans) = s.split_once('=').unwrap();
            let rows: Vec<&str> = grid.split('|').collect();
            let mut best = (0usize, 0usize, 0u32);
            for (r, row) in rows.iter().enumerate() {
                for (cidx, ch) in row.chars().enumerate() {
                    let v = ch.to_digit(10).unwrap();
                    if v > best.2 {
                        best = (r, cidx, v);
                    }
                }
            }
            let want = format!("{}{}", best.0, best.1);
            assert_eq!(ans, want, "caption mismatch in {s}");
        }
    }

    #[test]
    fn short_pretrain_reduces_loss() {
        let mut rng = Rng::seeded(4);
        let c = Corpus::new(CorpusMix::text(), 24, &mut rng);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: c.tokenizer().vocab_size(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 24,
            dropout: 0.0,
        };
        let lm = TinyLm::new(&mut store, cfg, &mut rng);
        let before = eval_loss(&lm, &store, &c, 10, 99);
        let rep = pretrain(&lm, &mut store, &c, 60, 3e-3, 7);
        let after = eval_loss(&lm, &store, &c, 10, 99);
        assert!(after < before, "pretraining should reduce loss: {before} -> {after}");
        assert!(rep.final_loss.is_finite());
    }

    #[test]
    fn pretrain_keeps_weights_finite() {
        let mut rng = Rng::seeded(5);
        let c = Corpus::new(CorpusMix::text(), 24, &mut rng);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: c.tokenizer().vocab_size(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 24,
            dropout: 0.1,
        };
        let lm = TinyLm::new(&mut store, cfg, &mut rng);
        pretrain(&lm, &mut store, &c, 30, 1e-2, 8);
        for id in store.ids() {
            assert!(!store.data(id).has_non_finite(), "param {} went non-finite", store.name(id));
        }
        let _ = Tensor::zeros([1]);
    }
}
