//! The multimodal encoder (paper §4.1).
//!
//! Modality-specific feature encoders turn raw task inputs into features;
//! trainable linear projections map each modality into the LLM token space;
//! a shared layer-norm stabilises the projected embeddings. The feature
//! encoders mirror the paper's choices: a ViT-style patch encoder for
//! images, 1-D CNN for time-series/sequence data, a fully connected layer
//! for scalars, and a GNN for DAGs.

use nt_nn::{Conv1d, Exec, Init, LayerNorm, Linear, ParamStore};
use nt_tensor::{Rng, Tensor};
use std::collections::VecDeque;

/// ViT-lite image encoder: non-overlapping patch embedding over a square
/// grid image, mean-pooled into one feature vector. The projection into
/// token space is separate (and always trainable), matching the paper's
/// "frozen pre-trained encoder + trainable projection" split.
pub struct ImageEncoder {
    patch: Linear,
    pub grid: usize,
    pub patch_size: usize,
}

impl ImageEncoder {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        grid: usize,
        patch_size: usize,
        feat_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(grid % patch_size, 0, "grid must divide into patches");
        let in_dim = patch_size * patch_size;
        let patch =
            Linear::new(store, &format!("{name}.patch"), in_dim, feat_dim, true, Init::Xavier, rng);
        ImageEncoder { patch, grid, patch_size }
    }

    /// Patch tokens one image expands into (`(grid / patch_size)^2`) —
    /// lets the memory scheduler size a query without encoding it.
    pub fn num_patches(&self) -> usize {
        let per_side = self.grid / self.patch_size;
        per_side * per_side
    }

    /// Every image's patches in order, stacked `[imgs.len() * num_patches,
    /// patch_size^2]`.
    fn patchify(&self, imgs: &[&Tensor]) -> Tensor {
        let (g, p) = (self.grid, self.patch_size);
        let per_side = g / p;
        let mut patches = Vec::with_capacity(imgs.len() * g * g);
        for img in imgs {
            assert_eq!(img.shape(), &[g, g], "image shape");
            for pr in 0..per_side {
                for pc in 0..per_side {
                    for r in 0..p {
                        let row = (pr * p + r) * g + pc * p;
                        patches.extend_from_slice(&img.data()[row..row + p]);
                    }
                }
            }
        }
        Tensor::from_vec([imgs.len() * per_side * per_side, p * p], patches)
    }

    /// Encode `[grid, grid]` images -> `[imgs.len() * num_patches,
    /// feat_dim]` features, each image's patches in order.
    pub fn run<E: Exec>(&self, e: &mut E, store: &ParamStore, imgs: &[&Tensor]) -> E::V {
        let x = e.input(self.patchify(imgs));
        let feats = e.linear(store, &self.patch, &x);
        e.gelu(feats)
    }
}

/// 1-D CNN encoder for time-series and sequence inputs: one token per
/// output channel position, or pooled to a single feature row.
pub struct SeriesEncoder {
    conv: Conv1d,
    pub channels_in: usize,
}

impl SeriesEncoder {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        channels_in: usize,
        feat_dim: usize,
        kernel: usize,
        rng: &mut Rng,
    ) -> Self {
        let conv = Conv1d::new(
            store,
            &format!("{name}.conv"),
            channels_in,
            feat_dim,
            kernel,
            1,
            kernel / 2,
            rng,
        );
        SeriesEncoder { conv, channels_in }
    }

    /// Encode `b` series `[b, channels_in, t]` -> `[b * t, feat_dim]`
    /// per-step features, each series' steps in order.
    pub fn steps<E: Exec>(&self, e: &mut E, store: &ParamStore, series: Tensor) -> E::V {
        assert_eq!(series.shape().len(), 3);
        assert_eq!(series.shape()[1], self.channels_in);
        let y = e.conv_steps(store, &self.conv, series); // [b * t, feat]
        e.gelu(y)
    }

    /// Encode `b` series to one pooled feature row each, `[b, feat_dim]`.
    pub fn pooled<E: Exec>(&self, e: &mut E, store: &ParamStore, series: Tensor) -> E::V {
        let b = series.shape()[0];
        let steps = self.steps(e, store, series);
        let per_series = e.shape(&steps)[0] / b;
        e.mean_rows(&steps, &vec![per_series; b])
    }
}

/// Fully connected encoder for scalar (or small fixed-vector) inputs.
pub struct ScalarEncoder {
    fc: Linear,
}

impl ScalarEncoder {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        feat_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let fc =
            Linear::new(store, &format!("{name}.fc"), in_dim, feat_dim, true, Init::Xavier, rng);
        ScalarEncoder { fc }
    }

    /// Encode `[n, in_dim]` -> `[n, feat_dim]`.
    pub fn run<E: Exec>(&self, e: &mut E, store: &ParamStore, x: Tensor) -> E::V {
        let xi = e.input(x);
        let y = e.linear(store, &self.fc, &xi);
        e.gelu(y)
    }
}

/// Trainable projection of one modality's features into the LLM token
/// space, plus the shared output layer-norm (paper Fig 6).
pub struct Projection {
    proj: Linear,
    norm: LayerNorm,
}

impl Projection {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        feat_dim: usize,
        d_model: usize,
        rng: &mut Rng,
    ) -> Self {
        Projection {
            proj: Linear::new(
                store,
                &format!("{name}.proj"),
                feat_dim,
                d_model,
                true,
                Init::Xavier,
                rng,
            ),
            norm: LayerNorm::new(store, &format!("{name}.norm"), d_model),
        }
    }

    /// `[n, feat_dim]` features -> `[n, d_model]` token-like embeddings.
    pub fn run<E: Exec>(&self, e: &mut E, store: &ParamStore, feats: E::V) -> E::V {
        let y = e.linear(store, &self.proj, &feats);
        e.layer_norm(store, &self.norm, y)
    }
}

/// The token rows a slot encoded for its most recent trajectory steps,
/// keyed by step index and bounded by the adapter's window. Encoding a
/// step is a pure function of that step, so a re-anchor rebuild copies the
/// rows kept here instead of rerunning the encoders, and the tokens it
/// appends are byte for byte those of a rebuild that encodes every step.
/// A step the ring does not hold is encoded afresh.
#[derive(Clone, Debug, Default)]
pub(crate) struct TokenRing {
    entries: VecDeque<(usize, Tensor)>,
}

impl TokenRing {
    /// Rows kept for step `step`, if the ring still holds them.
    pub(crate) fn get(&self, step: usize) -> Option<&Tensor> {
        self.entries.iter().find(|(i, _)| *i == step).map(|(_, rows)| rows)
    }

    /// Keep `rows` for step `step`, dropping the oldest steps beyond `cap`.
    /// Steps arrive in increasing order.
    pub(crate) fn push(&mut self, step: usize, rows: Tensor, cap: usize) {
        debug_assert!(self.entries.back().is_none_or(|&(i, _)| i < step), "steps out of order");
        self.entries.push_back((step, rows));
        while self.entries.len() > cap {
            self.entries.pop_front();
        }
    }

    /// Steps held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Forget every step, so the next rebuild encodes its whole window.
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_nn::Fwd;

    #[test]
    fn image_encoder_patch_count() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(1);
        let enc = ImageEncoder::new(&mut s, "img", 8, 4, 16, &mut rng);
        let mut f = Fwd::eval();
        let img = Tensor::randn([8, 8], 1.0, &mut rng);
        let y = enc.run(&mut f, &s, &[&img]);
        assert_eq!(f.g.value(y).shape(), &[4, 16]);
    }

    #[test]
    fn series_encoder_shapes() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(2);
        let enc = SeriesEncoder::new(&mut s, "ts", 3, 12, 3, &mut rng);
        let mut f = Fwd::eval();
        let series = Tensor::randn([2, 3, 10], 1.0, &mut rng);
        let steps = enc.steps(&mut f, &s, series.clone());
        assert_eq!(f.g.value(steps).shape(), &[20, 12]);
        let pooled = enc.pooled(&mut f, &s, series);
        assert_eq!(f.g.value(pooled).shape(), &[2, 12]);
    }

    #[test]
    fn projection_normalises_output() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(3);
        let proj = Projection::new(&mut s, "p", 8, 16, &mut rng);
        let mut f = Fwd::eval();
        let feats = f.input(Tensor::randn([5, 8], 3.0, &mut rng));
        let y = proj.run(&mut f, &s, feats);
        let v = f.g.value(y);
        assert_eq!(v.shape(), &[5, 16]);
        for r in 0..5 {
            let row = v.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-3, "layer-norm should centre rows, got {mean}");
        }
    }

    #[test]
    fn scalar_encoder_shapes() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(4);
        let enc = ScalarEncoder::new(&mut s, "sc", 1, 8, &mut rng);
        let mut f = Fwd::eval();
        let y = enc.run(&mut f, &s, Tensor::from_vec([2, 1], vec![0.5, -0.5]));
        assert_eq!(f.g.value(y).shape(), &[2, 8]);
    }
}
