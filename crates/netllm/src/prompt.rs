//! Prompt learning and token-based decoding — the "natural alternatives"
//! NetLLM is measured against in Figure 2 (§3, §A.1).
//!
//! A textual template wraps the time-series viewports (the image modality
//! cannot be expressed in a prompt at all — exactly the paper's first
//! objection). The LLM is fine-tuned with LoRA on next-token prediction of
//! the answer span, and at test time the answer is decoded token by token
//! and parsed back into viewports. Three things are measured:
//!
//! - prediction MAE (Fig 2 left: worse than the multimodal encoder),
//! - fraction of parseable/valid answers (Fig 2 middle: < 100 %),
//! - per-answer wall-clock generation time (Fig 2 right: one backbone
//!   inference *per token* instead of one per answer).
//!
//! Decoding runs through the backbone's shared KV-cached engine
//! ([`TinyLm::generate`]), so each of those per-token inferences appends a
//! single position instead of re-running the prompt — the inference *count*
//! the figure reports is unchanged, only the per-inference cost shrank.

use crate::adapt::fit;
use nt_llm::zoo::LoadedLm;
use nt_llm::{TinyLm, Tokenizer, EOS};
use nt_nn::ParamStore;
use nt_tensor::Rng;
use nt_vp::{Viewport, VpSample};
use std::time::{Duration, Instant};

/// Fixed number of history/future samples in the §A.1 template (1 s at 5 Hz).
pub const PROMPT_STEPS: usize = 5;

/// Render the §A.1 prompt for a sample: `h:r,p,y;...;f:`.
pub fn render_prompt(history: &[Viewport]) -> String {
    let tail = &history[history.len().saturating_sub(PROMPT_STEPS)..];
    let mut s = String::from("h:");
    for v in tail {
        s.push_str(&format!(
            "{},{},{};",
            v[0].round() as i32,
            v[1].round() as i32,
            v[2].round() as i32
        ));
    }
    s.push_str("f:");
    s
}

/// Render the expected answer span for the future horizon.
pub fn render_answer(future: &[Viewport]) -> String {
    let mut s = String::new();
    for v in &future[..PROMPT_STEPS.min(future.len())] {
        s.push_str(&format!(
            "{},{},{};",
            v[0].round() as i32,
            v[1].round() as i32,
            v[2].round() as i32
        ));
    }
    s
}

/// Parse a generated answer back into viewports. Returns `None` when the
/// text is not a fully valid answer (wrong arity, unparseable numbers, or
/// out-of-range coordinates) — the hallucination cases of Fig 2 (middle).
pub fn parse_answer(text: &str) -> Option<Vec<Viewport>> {
    let mut out = Vec::new();
    for group in text.split(';') {
        if group.is_empty() {
            continue;
        }
        let parts: Vec<&str> = group.split(',').collect();
        if parts.len() != 3 {
            return None;
        }
        let mut v = [0.0f32; 3];
        for (i, p) in parts.iter().enumerate() {
            v[i] = p.trim().parse::<f32>().ok()?;
        }
        if !(-45.0..=45.0).contains(&v[0])
            || !(-90.0..=90.0).contains(&v[1])
            || !(-180.0..180.0).contains(&v[2])
        {
            return None;
        }
        out.push(v);
        if out.len() == PROMPT_STEPS {
            break;
        }
    }
    (out.len() == PROMPT_STEPS).then_some(out)
}

/// The prompt-learning adapted model.
pub struct PromptVp {
    pub lm: TinyLm,
    pub store: ParamStore,
    pub tok: Tokenizer,
    /// Sampling temperature at decode time.
    pub temperature: f32,
}

impl PromptVp {
    /// Wrap a backbone for prompt learning. The whole model fine-tunes
    /// (following the paper's §A.1 OpenPrompt setup, which tunes the LM on
    /// the templated data), so no LoRA adapter is attached.
    pub fn new(loaded: LoadedLm) -> Self {
        let LoadedLm { lm, store, tok, .. } = loaded;
        PromptVp { lm, store, tok, temperature: 0.6 }
    }

    /// Fine-tune on (prompt, answer) pairs; the loss covers only the answer
    /// span (standard instruction-tuning masking).
    pub fn adapt(&mut self, samples: &[VpSample], iters: usize, lr: f32, seed: u64) -> f32 {
        assert!(!samples.is_empty());
        let store: fn(&mut Self) -> &mut ParamStore = |m| &mut m.store;
        fit(self, store, iters, lr, seed, |m, f, rng| {
            let s = &samples[rng.below(samples.len())];
            let mut ids = m.tok.encode(&render_prompt(&s.history));
            let prompt_len = ids.len();
            ids.extend(m.tok.encode(&render_answer(&s.future)));
            ids.push(EOS);
            if ids.len() > m.lm.cfg.max_seq {
                return None;
            }
            let logits = m.lm.forward_logits(f, &m.store, &ids[..ids.len() - 1]);
            // Positions prompt_len-1 .. end predict the answer tokens.
            let answer_logits = f.g.narrow(logits, 0, prompt_len - 1, ids.len() - prompt_len);
            Some(f.g.cross_entropy(answer_logits, &ids[prompt_len..]))
        })
    }

    /// Token-decode one answer. Returns the parsed viewports (if valid), the
    /// number of backbone inferences and the wall-clock time.
    pub fn generate(
        &self,
        sample: &VpSample,
        rng: &mut Rng,
    ) -> (Option<Vec<Viewport>>, usize, Duration) {
        let prompt_ids = self.tok.encode(&render_prompt(&sample.history));
        let budget = self.lm.cfg.max_seq - prompt_ids.len() - 1;
        let start = Instant::now();
        let (out, inferences) =
            self.lm.generate(&self.store, &prompt_ids, budget.min(80), self.temperature, rng);
        let elapsed = start.elapsed();
        let text = self.tok.decode(&out);
        (parse_answer(&text), inferences, elapsed)
    }
}

/// Outcome of a token-pathway evaluation run (Fig 2 middle/right).
#[derive(Clone, Debug)]
pub struct TokenPathStats {
    pub total: usize,
    pub valid: usize,
    pub mean_inferences: f64,
    pub mean_latency: Duration,
    /// MAE over the valid answers only.
    pub mae_valid: f32,
}

/// Evaluate the token pathway over samples.
///
/// Invalid (unparseable/hallucinated) answers fall back to holding the last
/// observed viewport — the post-processing a deployed system would need —
/// so the prompt-learning MAE is finite even when validity is low. The
/// validity fraction itself is reported strictly.
pub fn evaluate_token_path(model: &PromptVp, samples: &[VpSample], seed: u64) -> TokenPathStats {
    let mut rng = Rng::seeded(seed);
    let mut valid = 0usize;
    let mut inf_sum = 0usize;
    let mut lat_sum = Duration::ZERO;
    let mut mae_sum = 0.0f64;
    for s in samples {
        let (parsed, inf, lat) = model.generate(s, &mut rng);
        inf_sum += inf;
        lat_sum += lat;
        let actual = &s.future[..PROMPT_STEPS.min(s.future.len())];
        match parsed {
            Some(vps) => {
                valid += 1;
                mae_sum += nt_vp::mae(&vps[..actual.len()], actual) as f64;
            }
            None => {
                let hold = vec![*s.history.last().unwrap(); actual.len()];
                mae_sum += nt_vp::mae(&hold, actual) as f64;
            }
        }
    }
    TokenPathStats {
        total: samples.len(),
        valid,
        mean_inferences: inf_sum as f64 / samples.len().max(1) as f64,
        mean_latency: lat_sum / samples.len().max(1) as u32,
        mae_valid: (mae_sum / samples.len().max(1) as f64) as f32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_llm::{size_spec, Zoo};
    use nt_tensor::Tensor;
    use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec};

    #[test]
    fn prompt_roundtrip_parses() {
        let future: Vec<Viewport> =
            (0..5).map(|i| [1.0 + i as f32, -10.0, 150.0 + i as f32]).collect();
        let ans = render_answer(&future);
        let parsed = parse_answer(&ans).expect("well-formed answer must parse");
        assert_eq!(parsed.len(), 5);
        assert!((parsed[0][2] - 150.0).abs() < 0.5);
    }

    #[test]
    fn malformed_answers_are_rejected() {
        assert!(parse_answer("1,2;3,4,5;").is_none(), "wrong arity");
        assert!(parse_answer("a,b,c;1,2,3;1,2,3;1,2,3;1,2,3;").is_none(), "non-numeric");
        assert!(parse_answer("0,0,999;0,0,0;0,0,0;0,0,0;0,0,0;").is_none(), "out of range");
        assert!(parse_answer("1,2,3;").is_none(), "too few groups");
    }

    #[test]
    fn prompt_fits_backbone_context() {
        let tok = Tokenizer::new();
        let history: Vec<Viewport> = (0..5).map(|_| [-45.0, -90.0, -179.0]).collect();
        let p = render_prompt(&history);
        let a = render_answer(&history);
        assert!(tok.encode(&p).len() + tok.encode(&a).len() + 2 <= 160, "template too long");
    }

    #[test]
    fn token_path_counts_inferences_per_token() {
        let zoo = Zoo::new(std::env::temp_dir().join("prompt-test"));
        let model = PromptVp::new(zoo.build_random(&size_spec("0.35b-sim")));
        let s = VpSample {
            history: (0..5).map(|i| [0.0, 0.0, i as f32]).collect(),
            future: (5..10).map(|i| [0.0, 0.0, i as f32]).collect(),
            saliency: Tensor::zeros([8, 8]),
        };
        let mut rng = Rng::seeded(2);
        let (_, inferences, _) = model.generate(&s, &mut rng);
        assert!(inferences > 1, "token decoding must need many inferences, got {inferences}");
    }

    #[test]
    fn short_finetune_reduces_answer_loss() {
        let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
        let samples = extract_samples(&ds, &[0], &[0, 1], 5, 5, 5, 30);
        let zoo = Zoo::new(std::env::temp_dir().join("prompt-ft-test"));
        let mut model = PromptVp::new(zoo.build_random(&size_spec("0.35b-sim")));
        let early = model.adapt(&samples, 5, 2e-3, 4);
        let late = model.adapt(&samples, 30, 2e-3, 5);
        assert!(late < early, "answer-span loss should drop: {early} -> {late}");
    }
}
