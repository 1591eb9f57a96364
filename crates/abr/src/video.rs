//! Video models: bitrate ladders and per-chunk sizes.
//!
//! `EnvivioDash3`-like is the paper's default video (the Pensieve reference
//! clip: [`CHUNKS`] chunks x [`CHUNK_SECS`] s, six-rung ladder {300..4300}
//! kbps). `SynthVideo` follows the paper's generalization setting: same
//! format, larger bitrates.

use nt_tensor::Rng;
use serde::{Deserialize, Serialize};

/// Chunk duration in seconds, the same for every video.
pub const CHUNK_SECS: f64 = 4.0;
/// Chunks per video.
pub const CHUNKS: usize = 48;

/// A video prepared for ABR streaming.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Video {
    pub name: String,
    /// Ladder in kbps, ascending.
    pub bitrates_kbps: Vec<u32>,
    /// `sizes_megabits[chunk][rung]` — encoded chunk sizes.
    pub sizes_megabits: Vec<Vec<f64>>,
}

impl Video {
    pub fn num_chunks(&self) -> usize {
        self.sizes_megabits.len()
    }

    pub fn num_rungs(&self) -> usize {
        self.bitrates_kbps.len()
    }

    pub fn bitrate_mbps(&self, rung: usize) -> f64 {
        self.bitrates_kbps[rung] as f64 / 1000.0
    }

    /// Size of a chunk at a rung, in megabits.
    pub fn size(&self, chunk: usize, rung: usize) -> f64 {
        self.sizes_megabits[chunk][rung]
    }

    pub fn duration(&self) -> f64 {
        self.num_chunks() as f64 * CHUNK_SECS
    }
}

/// The default streaming clip (EnvivioDash3-like).
pub fn envivio_like(rng: &mut Rng) -> Video {
    build("envivio-like", &[300, 750, 1200, 1850, 2850, 4300], rng)
}

/// The paper's `SynthVideo`: same format, larger bitrates (unseen setting
/// 2/3 of Table 3).
pub fn synth_video(rng: &mut Rng) -> Video {
    build("synth-video", &[600, 1400, 2300, 3400, 4800, 6500], rng)
}

fn build(name: &str, ladder: &[u32], rng: &mut Rng) -> Video {
    // VBR encoding: per-chunk complexity multiplier shared across rungs
    // (scene complexity), plus small per-rung jitter.
    let mut sizes = Vec::with_capacity(CHUNKS);
    let mut complexity = 1.0f32;
    for _ in 0..CHUNKS {
        complexity = (0.7 * complexity + 0.3 * rng.uniform(0.75, 1.3)).clamp(0.6, 1.5);
        let row: Vec<f64> = ladder
            .iter()
            .map(|&kbps| {
                let nominal = kbps as f64 / 1000.0 * CHUNK_SECS; // megabits
                let jitter = 1.0 + rng.normal_ms(0.0, 0.04) as f64;
                (nominal * complexity as f64 * jitter).max(0.01)
            })
            .collect();
        sizes.push(row);
    }
    Video { name: name.into(), bitrates_kbps: ladder.to_vec(), sizes_megabits: sizes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envivio_shape_matches_paper_setting() {
        let v = envivio_like(&mut Rng::seeded(1));
        assert_eq!(v.num_chunks(), 48);
        assert_eq!(v.num_rungs(), 6);
        assert_eq!(v.bitrates_kbps, vec![300, 750, 1200, 1850, 2850, 4300]);
        assert!((v.duration() - 192.0).abs() < 1e-9);
    }

    #[test]
    fn sizes_increase_with_rung() {
        let v = envivio_like(&mut Rng::seeded(2));
        for c in 0..v.num_chunks() {
            for r in 1..v.num_rungs() {
                assert!(v.size(c, r) > v.size(c, r - 1), "chunk {c}: rung {r} not larger");
            }
        }
    }

    #[test]
    fn sizes_track_nominal_bitrate() {
        let v = envivio_like(&mut Rng::seeded(3));
        let mean_top: f64 =
            (0..v.num_chunks()).map(|c| v.size(c, 5)).sum::<f64>() / v.num_chunks() as f64;
        let nominal = 4.3 * 4.0;
        assert!((mean_top / nominal - 1.0).abs() < 0.3, "mean {mean_top} vs nominal {nominal}");
    }

    #[test]
    fn synth_video_has_larger_bitrates() {
        let a = envivio_like(&mut Rng::seeded(4));
        let b = synth_video(&mut Rng::seeded(4));
        assert!(b.bitrates_kbps.iter().max() > a.bitrates_kbps.iter().max());
        assert_eq!(a.num_rungs(), b.num_rungs());
    }
}
