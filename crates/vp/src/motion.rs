//! Synthetic head-motion datasets and saliency frames.
//!
//! The generator models a viewer watching an immersive video: a handful of
//! moving points of interest (POIs) on the sphere attract the viewer's gaze;
//! the head follows with momentum, occasionally saccading to a different
//! POI. This yields traces that are short-term predictable (momentum) but
//! long-term multimodal (saccades) — the regime real head-motion datasets
//! exhibit — and makes the *video content* genuinely informative, because
//! the saliency frames are rendered from the same POIs that drive motion.
//!
//! Two dataset profiles mirror the paper's (Table 2): `Jin2022`-like (27
//! videos x 84 viewers x 60 s) and `Wu2017`-like (9 longer videos x 48
//! viewers with more exploratory motion).

use crate::metrics::{wrap_deg, Viewport};
use nt_tensor::{Rng, Tensor};

/// Samples per second of viewport traces (the paper uses 5 Hz).
pub const HZ: usize = 5;

/// Saliency grid edge (frames are `GRID x GRID`).
pub const GRID: usize = 8;

/// Motion-dynamics parameters of a dataset profile.
#[derive(Clone, Copy, Debug)]
pub struct MotionProfile {
    pub num_pois: usize,
    /// Attraction gain toward the active POI (deg/s² per deg of error).
    pub attract: f32,
    /// Velocity damping per step.
    pub damping: f32,
    /// White acceleration noise (deg/s²).
    pub noise: f32,
    /// Per-step probability of saccading to another POI.
    pub saccade_prob: f32,
    /// POI drift speed (deg/s).
    pub poi_speed: f32,
    /// Maximum head velocity (deg per sample) — human heads do not teleport.
    pub vel_cap: f32,
}

/// Dataset specification.
#[derive(Clone, Copy, Debug)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub videos: usize,
    pub viewers: usize,
    pub secs: usize,
    pub profile: MotionProfile,
    pub seed: u64,
}

/// The default dataset (Jin2022-like).
pub fn jin2022_like() -> DatasetSpec {
    DatasetSpec {
        name: "jin2022-like",
        videos: 27,
        viewers: 84,
        secs: 60,
        profile: MotionProfile {
            num_pois: 3,
            attract: 3.5,
            damping: 0.85,
            noise: 0.8,
            saccade_prob: 0.008,
            poi_speed: 2.0,
            vel_cap: 5.0,
        },
        seed: 0x314,
    }
}

/// The unseen dataset (Wu2017-like): longer videos, fewer of them, more
/// exploratory viewers (faster drift, more frequent saccades).
pub fn wu2017_like() -> DatasetSpec {
    DatasetSpec {
        name: "wu2017-like",
        videos: 9,
        viewers: 48,
        secs: 120,
        profile: MotionProfile {
            num_pois: 4,
            attract: 3.0,
            damping: 0.90,
            noise: 1.8,
            saccade_prob: 0.025,
            poi_speed: 5.0,
            vel_cap: 8.0,
        },
        seed: 0x2017,
    }
}

/// One video: POI tracks plus per-sample saliency frames.
#[derive(Clone, Debug)]
pub struct VideoMotion {
    /// `pois[t][k] = (pitch, yaw)` of POI `k` at sample `t`.
    pub pois: Vec<Vec<(f32, f32)>>,
    /// Per-sample `GRID x GRID` saliency frames.
    pub saliency: Vec<Tensor>,
}

/// A viewer's trace over one video.
#[derive(Clone, Debug)]
pub struct ViewportTrace {
    pub samples: Vec<Viewport>,
    pub video: usize,
    pub viewer: usize,
}

/// A generated dataset: all videos and all traces.
pub struct VpDataset {
    pub spec: DatasetSpec,
    pub videos: Vec<VideoMotion>,
    pub traces: Vec<ViewportTrace>,
}

/// Generate the full dataset for a spec.
pub fn generate(spec: &DatasetSpec) -> VpDataset {
    let mut rng = Rng::seeded(spec.seed);
    let steps = spec.secs * HZ;
    let videos: Vec<VideoMotion> =
        (0..spec.videos).map(|_| gen_video(&spec.profile, steps, &mut rng)).collect();
    let mut traces = Vec::with_capacity(spec.videos * spec.viewers);
    for (v, video) in videos.iter().enumerate() {
        for viewer in 0..spec.viewers {
            traces.push(gen_trace(&spec.profile, video, v, viewer, &mut rng));
        }
    }
    VpDataset { spec: *spec, videos, traces }
}

fn gen_video(p: &MotionProfile, steps: usize, rng: &mut Rng) -> VideoMotion {
    let dt = 1.0 / HZ as f32;
    // POI tracks: smooth random walks on the sphere.
    let mut pos: Vec<(f32, f32)> =
        (0..p.num_pois).map(|_| (rng.uniform(-40.0, 40.0), rng.uniform(-180.0, 180.0))).collect();
    let mut vel: Vec<(f32, f32)> = (0..p.num_pois).map(|_| (0.0, 0.0)).collect();
    let mut pois = Vec::with_capacity(steps);
    let mut saliency = Vec::with_capacity(steps);
    for _ in 0..steps {
        for k in 0..p.num_pois {
            vel[k].0 = 0.9 * vel[k].0 + rng.normal() * p.poi_speed * dt;
            vel[k].1 = 0.9 * vel[k].1 + rng.normal() * p.poi_speed * dt * 2.0;
            pos[k].0 = (pos[k].0 + vel[k].0 * dt * HZ as f32 * dt).clamp(-60.0, 60.0);
            pos[k].1 = wrap_deg(pos[k].1 + vel[k].1 * dt * HZ as f32 * dt);
        }
        pois.push(pos.clone());
        saliency.push(render_saliency(&pos));
    }
    VideoMotion { pois, saliency }
}

/// Render POIs as Gaussian blobs on the equirectangular grid.
pub fn render_saliency(pois: &[(f32, f32)]) -> Tensor {
    let mut img = Tensor::zeros([GRID, GRID]);
    for (r, c, w) in grid_iter() {
        let (pitch, yaw) = cell_center(r, c);
        let mut v = 0.0f32;
        for &(pp, py) in pois {
            let dp = (pitch - pp) / 30.0;
            let dy = wrap_deg(yaw - py) / 45.0;
            v += (-0.5 * (dp * dp + dy * dy)).exp();
        }
        img.data_mut()[w] = v.min(2.0);
    }
    img
}

fn grid_iter() -> impl Iterator<Item = (usize, usize, usize)> {
    (0..GRID).flat_map(move |r| (0..GRID).map(move |c| (r, c, r * GRID + c)))
}

/// Centre (pitch, yaw) of a saliency cell.
pub fn cell_center(row: usize, col: usize) -> (f32, f32) {
    let pitch = 90.0 - (row as f32 + 0.5) * (180.0 / GRID as f32);
    let yaw = -180.0 + (col as f32 + 0.5) * (360.0 / GRID as f32);
    (pitch, yaw)
}

fn gen_trace(
    p: &MotionProfile,
    video: &VideoMotion,
    vid: usize,
    viewer: usize,
    rng: &mut Rng,
) -> ViewportTrace {
    let dt = 1.0 / HZ as f32;
    let steps = video.pois.len();
    let mut pitch = rng.uniform(-20.0, 20.0);
    let mut yaw = rng.uniform(-180.0, 180.0);
    let mut roll = 0.0f32;
    let (mut vp, mut vy) = (0.0f32, 0.0f32);
    let mut target = rng.below(p.num_pois);
    let mut samples = Vec::with_capacity(steps);
    for t in 0..steps {
        if rng.chance(p.saccade_prob) {
            target = rng.below(p.num_pois);
        }
        let (tp, ty) = video.pois[t][target];
        let ep = (tp - pitch).clamp(-60.0, 60.0);
        let ey = wrap_deg(ty - yaw).clamp(-90.0, 90.0);
        vp = (p.damping * vp + (p.attract * ep + rng.normal() * p.noise) * dt * dt * HZ as f32)
            .clamp(-p.vel_cap, p.vel_cap);
        vy = (p.damping * vy
            + (p.attract * ey + rng.normal() * p.noise * 1.5) * dt * dt * HZ as f32)
            .clamp(-p.vel_cap, p.vel_cap);
        // per-step velocity is in deg/sample
        pitch = (pitch + vp).clamp(-90.0, 90.0);
        yaw = wrap_deg(yaw + vy);
        roll = 0.95 * roll + rng.normal() * 0.3;
        samples.push([roll.clamp(-45.0, 45.0), pitch, yaw]);
    }
    ViewportTrace { samples, video: vid, viewer }
}

/// One supervised sample: history + saliency -> future.
#[derive(Clone, Debug)]
pub struct VpSample {
    pub history: Vec<Viewport>,
    pub future: Vec<Viewport>,
    /// Saliency frame at prediction time.
    pub saliency: Tensor,
}

impl VpSample {
    /// The fixed 30-sample pool serving tests and load generators draw
    /// their VP queries from: one Jin2022-like video, two viewers, 20 s,
    /// history 10 / horizon 20 samples.
    pub fn synthetic_pool() -> Vec<VpSample> {
        let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
        extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30)
    }
}

/// Extract sliding-window samples from a dataset subset.
///
/// `video_sel`/`viewer_sel` filter traces; `hw`/`pw` are in *samples*;
/// `stride` subsamples windows; `limit` caps the number of samples (windows
/// are taken round-robin across traces so no single trace dominates).
pub fn extract_samples(
    ds: &VpDataset,
    video_sel: &[usize],
    viewer_sel: &[usize],
    hw: usize,
    pw: usize,
    stride: usize,
    limit: usize,
) -> Vec<VpSample> {
    assert!(hw >= 2 && pw >= 1 && stride >= 1);
    let mut per_trace: Vec<Vec<VpSample>> = Vec::new();
    for tr in &ds.traces {
        if !video_sel.contains(&tr.video) || !viewer_sel.contains(&tr.viewer) {
            continue;
        }
        let video = &ds.videos[tr.video];
        let mut windows = Vec::new();
        let mut t = hw;
        while t + pw <= tr.samples.len() {
            windows.push(VpSample {
                history: tr.samples[t - hw..t].to_vec(),
                future: tr.samples[t..t + pw].to_vec(),
                saliency: video.saliency[t - 1].clone(),
            });
            t += stride;
        }
        per_trace.push(windows);
    }
    // Round-robin merge.
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        let mut any = false;
        for tw in &per_trace {
            if let Some(s) = tw.get(i) {
                out.push(s.clone());
                any = true;
                if out.len() >= limit {
                    return out;
                }
            }
        }
        if !any {
            break;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::to_deltas;

    fn small_spec() -> DatasetSpec {
        DatasetSpec { videos: 2, viewers: 3, secs: 12, ..jin2022_like() }
    }

    #[test]
    fn dataset_dimensions() {
        let ds = generate(&small_spec());
        assert_eq!(ds.videos.len(), 2);
        assert_eq!(ds.traces.len(), 6);
        assert_eq!(ds.traces[0].samples.len(), 12 * HZ);
        assert_eq!(ds.videos[0].saliency.len(), 12 * HZ);
        assert_eq!(ds.videos[0].saliency[0].shape(), &[GRID, GRID]);
    }

    #[test]
    fn viewports_stay_in_physical_ranges() {
        let ds = generate(&small_spec());
        for tr in &ds.traces {
            for s in &tr.samples {
                assert!((-45.0..=45.0).contains(&s[0]), "roll {}", s[0]);
                assert!((-90.0..=90.0).contains(&s[1]), "pitch {}", s[1]);
                assert!((-180.0..180.0).contains(&s[2]), "yaw {}", s[2]);
            }
        }
    }

    #[test]
    fn motion_is_smooth_short_term() {
        // Per-sample deltas at 5 Hz should be small most of the time.
        let ds = generate(&small_spec());
        let deltas = to_deltas(&ds.traces[0].samples);
        let big = deltas.iter().filter(|d| d[2].abs() > 30.0).count();
        assert!(
            (big as f32) < 0.05 * deltas.len() as f32,
            "too many large yaw jumps: {big}/{}",
            deltas.len()
        );
    }

    #[test]
    fn saliency_peaks_near_pois() {
        let img = render_saliency(&[(0.0, 0.0)]);
        // centre cells should be brightest
        let mut best = (0, 0);
        let mut bv = f32::MIN;
        for r in 0..GRID {
            for c in 0..GRID {
                if img.at(&[r, c]) > bv {
                    bv = img.at(&[r, c]);
                    best = (r, c);
                }
            }
        }
        let (p, y) = cell_center(best.0, best.1);
        assert!(p.abs() <= 25.0 && y.abs() <= 25.0, "peak at ({p},{y})");
    }

    #[test]
    fn extract_respects_windows_and_limit() {
        let ds = generate(&small_spec());
        let samples = extract_samples(&ds, &[0, 1], &[0, 1, 2], 10, 20, 5, 40);
        assert_eq!(samples.len(), 40);
        for s in &samples {
            assert_eq!(s.history.len(), 10);
            assert_eq!(s.future.len(), 20);
        }
    }

    #[test]
    fn wu2017_profile_is_more_dynamic() {
        let jin = generate(&DatasetSpec { videos: 2, viewers: 4, secs: 20, ..jin2022_like() });
        let wu = generate(&DatasetSpec { videos: 2, viewers: 4, secs: 20, ..wu2017_like() });
        let mean_speed = |ds: &VpDataset| {
            let mut total = 0.0f32;
            let mut n = 0usize;
            for tr in &ds.traces {
                for d in to_deltas(&tr.samples) {
                    total += d[2].abs();
                    n += 1;
                }
            }
            total / n as f32
        };
        assert!(mean_speed(&wu) > mean_speed(&jin), "wu2017-like must move faster");
    }
}
