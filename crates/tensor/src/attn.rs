//! Register-tile kernels of the cached attention core, one KV block at a
//! time.
//!
//! A KV cache hands attention its keys in **channel-major blocks** — block
//! `b` holds `width` consecutive positions as `[dim][width]`, so one
//! head's slice of it is a contiguous `[dh][width]` slab — and its values
//! row-major. The kernels here take plain slices and strides (they know
//! nothing of pages or caches) and are compiled once per instantiation
//! (`simd.rs`) like the GEMM:
//!
//! - [`qk_block`]: scores of up to all of a slot's new rows against one
//!   key block, a 4-row x `W`-lane accumulator tile per lane group;
//! - [`softmax_causal`]: each score row normalised over the prefix it may
//!   see and exactly zero everywhere else;
//! - [`pv_block`]: those rows' weighted sum over one value block, a 4-row
//!   x `dh` accumulator tile seeded from and written back to the output,
//!   so consecutive blocks continue one chain. This is the GEMM's own
//!   register tile (`tensor::tile`) with the weights as `A`, the value
//!   rows as `B` and each operand at its own row stride.
//!
//! The key slab is in the layout the GEMM tile reads `B` in too, but QK
//! keeps its own tile: on the GEMM tile it would need a zero-filled score
//! tile and a separate scaling pass, and that measured slower end to end
//! (`dense_direct` and `paged_tight` down 4-5%).
//!
//! Every score is one chain over `c = 0..dh` ascending from zero, scaled
//! once; every output element is one chain over ascending positions. No
//! instantiation reassociates or fuses, so all of them are bit-identical
//! to the naive per-element loops and to each other, whatever the block
//! width — which is what keeps paged and contiguous caches (different
//! block widths) bit-identical. The softmax's max and sum are split over
//! eight lanes fixed in the source, not by the vector width, for the same
//! reason.
//!
//! This softmax is the cached core's own. `tensor::softmax_in_place`
//! (taped forward, cross-entropy, sampling) stays on libm `exp` as the
//! independent reference the cached core is tested against.

use crate::activation::exp_fast;
use crate::simd;
use crate::tensor::tile;

/// Rows per register tile: four query rows share every loaded key or
/// value lane group, as in the GEMM.
const MR: usize = 4;
/// Widest lane group of the QK tile: 16 positions, one block of the
/// contiguous cache. The 4 x 16 accumulators are eight vector registers
/// in 8-lane AVX2 code and four in 16-lane AVX-512 code; 4-lane baseline
/// code takes 8 lanes at a time to stay at eight.
const QK_LANES: usize = 16;
const QK_LANES_BASELINE: usize = 8;
/// Partial maxima and sums of one softmax row. Fixed here rather than per
/// instantiation: the sum's association order is part of the result.
const SOFTMAX_LANES: usize = 8;
/// A softmax row is processed in whole groups of this many lanes — the
/// widest vector any instantiation uses — so its loops have no scalar
/// remainder. Padding lanes are exact zeros in the sum, so the group size
/// is not part of the result.
const SOFTMAX_PAD: usize = 16;
/// Rows per softmax stack.
const SOFTMAX_ROWS: usize = 8;

/// Scaled dot-product scores of `rows` query rows against one key block.
/// For every lane `l in 0..width`, with `c` ascending from zero over the
/// head's `dh = k.len() / width` channels and one multiply by `scale` at
/// the end:
///
/// ```text
/// scores[r * s_stride + l] = scale * Σ_c q[r * q_stride + c] * k[c * width + l]
/// ```
///
/// `k` is the head's `[dh][width]` slab of a channel-major key block.
/// Every lane of the block is computed, including lanes past the cache's
/// filled length (whatever a previous tenant left there): the caller
/// masks those after its softmax.
#[allow(clippy::too_many_arguments)]
pub fn qk_block(
    q: &[f32],
    q_stride: usize,
    rows: usize,
    k: &[f32],
    width: usize,
    scale: f32,
    scores: &mut [f32],
    s_stride: usize,
) {
    simd::dispatch(
        #[inline(always)]
        |level| qk_block_body(level, q, q_stride, rows, k, width, scale, scores, s_stride),
    );
}

/// [`qk_block`] in the caller's codegen: the lane group is the largest
/// power of two that divides `width`, up to what `level` holds in eight
/// registers.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn qk_block_body(
    level: simd::Level,
    q: &[f32],
    q_stride: usize,
    rows: usize,
    k: &[f32],
    width: usize,
    scale: f32,
    scores: &mut [f32],
    s_stride: usize,
) {
    if rows == 0 || width == 0 {
        return;
    }
    debug_assert_eq!(k.len() % width, 0, "key slab is [dh][width]");
    let max_lanes = if level == simd::Level::Baseline { QK_LANES_BASELINE } else { QK_LANES };
    match (1usize << width.trailing_zeros()).min(max_lanes) {
        16 => qk_tiles::<16>(q, q_stride, rows, k, width, scale, scores, s_stride),
        8 => qk_tiles::<8>(q, q_stride, rows, k, width, scale, scores, s_stride),
        4 => qk_tiles::<4>(q, q_stride, rows, k, width, scale, scores, s_stride),
        2 => qk_tiles::<2>(q, q_stride, rows, k, width, scale, scores, s_stride),
        _ => qk_tiles::<1>(q, q_stride, rows, k, width, scale, scores, s_stride),
    }
}

/// The QK tile body: per `W`-lane group of the block, every row quad
/// holds a 4 x `W` accumulator tile in registers while the head's `dh`
/// slab rows stream past; remainder rows get a 1 x `W` tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn qk_tiles<const W: usize>(
    q: &[f32],
    q_stride: usize,
    rows: usize,
    k: &[f32],
    width: usize,
    scale: f32,
    scores: &mut [f32],
    s_stride: usize,
) {
    let dh = k.len() / width;
    for l0 in (0..width).step_by(W) {
        let mut i = 0usize;
        while i + MR <= rows {
            let q0 = &q[i * q_stride..i * q_stride + dh];
            let q1 = &q[(i + 1) * q_stride..(i + 1) * q_stride + dh];
            let q2 = &q[(i + 2) * q_stride..(i + 2) * q_stride + dh];
            let q3 = &q[(i + 3) * q_stride..(i + 3) * q_stride + dh];
            // Four arrays, not one `[[f32; W]; 4]`, and `k` indexed by `c`:
            // measured, this is the form whose 4 x 16 tile stays in
            // registers in every instantiation (a `chunks_exact` walk of
            // the slab left it on the stack, at half the rate).
            let (mut a0, mut a1, mut a2, mut a3) = ([0.0f32; W], [0.0; W], [0.0; W], [0.0; W]);
            for c in 0..dh {
                let kl = &k[c * width + l0..c * width + l0 + W];
                let (x0, x1, x2, x3) = (q0[c], q1[c], q2[c], q3[c]);
                for l in 0..W {
                    a0[l] += x0 * kl[l];
                    a1[l] += x1 * kl[l];
                    a2[l] += x2 * kl[l];
                    a3[l] += x3 * kl[l];
                }
            }
            for l in 0..W {
                a0[l] *= scale;
                a1[l] *= scale;
                a2[l] *= scale;
                a3[l] *= scale;
            }
            for (r, acc) in [a0, a1, a2, a3].iter().enumerate() {
                let o = (i + r) * s_stride + l0;
                scores[o..o + W].copy_from_slice(acc);
            }
            i += MR;
        }
        while i < rows {
            let qr = &q[i * q_stride..i * q_stride + dh];
            let mut acc = [0.0f32; W];
            for c in 0..dh {
                let kl = &k[c * width + l0..c * width + l0 + W];
                for l in 0..W {
                    acc[l] += qr[c] * kl[l];
                }
            }
            for a in acc.iter_mut() {
                *a *= scale;
            }
            let o = i * s_stride + l0;
            scores[o..o + W].copy_from_slice(&acc);
            i += 1;
        }
    }
}

/// Causal softmax of a stack of `width`-wide score rows, in place: row `r`
/// is normalised over its first `vis_first + r` lanes (what a query at
/// that position may see) and every other lane of the row is set to
/// exactly zero — future positions, lanes past the cache's filled length,
/// blocks the row never scored. After it the whole stack is defined,
/// whatever was in those lanes before, so nothing stale reaches
/// [`pv_block`].
///
/// `e^x` is `exp_fast` (2.5e-7 relative), the maximum and the sum run in
/// eight interleaved partials combined by one fixed tree, and the
/// division is one reciprocal per row: within 1e-6 of an `f64` softmax,
/// bit-identical across instantiations.
pub fn softmax_causal(scores: &mut [f32], width: usize, vis_first: usize) {
    simd::dispatch(
        #[inline(always)]
        |_level| softmax_causal_body(scores, width, vis_first),
    );
}

/// [`softmax_causal`] in the caller's codegen. Rows go through in stacks
/// of [`SOFTMAX_ROWS`], pass by pass rather than row by row: a row's four
/// passes (mask and lane-split max, `exp_fast(v - max)`, lane-split sum,
/// scale by the reciprocal) each wait for the one before, different rows
/// wait for nothing, so pass-major order keeps several rows in flight.
///
/// A row's visible prefix is rounded up to whole [`SOFTMAX_PAD`] groups
/// and the lanes that adds are set to `-inf` first — `exp_fast` maps them
/// to exactly `0.0`, which the sum and the scaling leave alone — so every
/// pass is a plain loop over whole vectors in every instantiation: no
/// scalar `exp` tail at any prefix length. Only a row narrower than the
/// padding (1- to 8-position blocks) has remainder lanes; they join
/// partials `0..` in the same order. The largest element maps to exactly
/// 1.0, so a sum is at least 1.
#[inline(always)]
fn softmax_causal_body(scores: &mut [f32], width: usize, vis_first: usize) {
    if width == 0 {
        return;
    }
    for (c, stack) in scores.chunks_mut(SOFTMAX_ROWS * width).enumerate() {
        let visible = |r: usize| (vis_first + c * SOFTMAX_ROWS + r).min(width);
        let span = |r: usize| visible(r).next_multiple_of(SOFTMAX_PAD).min(width);
        let mut mx = [0.0f32; SOFTMAX_ROWS];
        for (r, row) in stack.chunks_exact_mut(width).enumerate() {
            row[visible(r)..span(r)].fill(f32::NEG_INFINITY);
            row[span(r)..].fill(0.0);
            mx[r] =
                lane_split(&row[..span(r)], f32::NEG_INFINITY, |a, b| if a > b { a } else { b });
        }
        for (r, row) in stack.chunks_exact_mut(width).enumerate() {
            for x in row[..span(r)].iter_mut() {
                *x = exp_fast(*x - mx[r]);
            }
        }
        for (r, row) in stack.chunks_exact_mut(width).enumerate() {
            let s = &mut row[..span(r)];
            if s.is_empty() {
                continue; // nothing visible: the row is all zeros
            }
            let inv = 1.0 / lane_split(s, 0.0, |a, b| a + b);
            for x in s.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// Reduce `s` with `f` in [`SOFTMAX_LANES`] interleaved partials (partial
/// `l` takes elements `l`, `l + 8`, ...) combined by one fixed tree.
#[inline(always)]
fn lane_split(s: &[f32], identity: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    let mut p = [identity; SOFTMAX_LANES];
    let groups = s.chunks_exact(SOFTMAX_LANES);
    let rest = groups.remainder();
    for g in groups {
        for l in 0..SOFTMAX_LANES {
            p[l] = f(p[l], g[l]);
        }
    }
    for (pl, &x) in p.iter_mut().zip(rest) {
        *pl = f(*pl, x);
    }
    f(f(f(p[0], p[4]), f(p[1], p[5])), f(f(p[2], p[6]), f(p[3], p[7])))
}

/// Weighted value sum of `rows` score rows over one value block,
/// continuing the chain already in `out`. For every channel `c in
/// 0..dh`, with `j` ascending over the block's first `keys` positions:
///
/// ```text
/// out[r * o_stride + c] += Σ_j w[r * w_stride + j] * v[j * v_stride + c]
/// ```
///
/// Causality arrives as a count: row 0 sees the block's first
/// `vis_first` positions (at least one) and every later row one more, so
/// a row quad stops at what its last row sees. A weight between a row's
/// own limit and its quad's must be an exact zero — it is multiplied in,
/// which leaves the chain's bits alone — and nothing past `keys` is read,
/// so unfilled value rows never matter.
#[allow(clippy::too_many_arguments)]
pub fn pv_block(
    w: &[f32],
    w_stride: usize,
    rows: usize,
    vis_first: usize,
    v: &[f32],
    v_stride: usize,
    keys: usize,
    dh: usize,
    out: &mut [f32],
    o_stride: usize,
) {
    simd::dispatch(
        #[inline(always)]
        |_level| pv_block_body(w, w_stride, rows, vis_first, v, v_stride, keys, dh, out, o_stride),
    );
}

/// [`pv_block`] in the caller's codegen: the head's `dh` channels are
/// covered left to right by the widest of the 16-, 12-, 8-, 6- and
/// 1-channel tiles that still fits — one pass for each of the zoo's head
/// widths (6, 8, 12, 16), 16 + 8 for 24, and single columns for whatever
/// an odd width leaves over.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pv_block_body(
    w: &[f32],
    w_stride: usize,
    rows: usize,
    vis_first: usize,
    v: &[f32],
    v_stride: usize,
    keys: usize,
    dh: usize,
    out: &mut [f32],
    o_stride: usize,
) {
    let mut c0 = 0usize;
    while c0 < dh {
        let (v, out) = (&v[c0..], &mut out[c0..]);
        c0 += match dh - c0 {
            16.. => pv_tiles::<16>(w, w_stride, rows, vis_first, v, v_stride, keys, out, o_stride),
            12.. => pv_tiles::<12>(w, w_stride, rows, vis_first, v, v_stride, keys, out, o_stride),
            8.. => pv_tiles::<8>(w, w_stride, rows, vis_first, v, v_stride, keys, out, o_stride),
            6.. => pv_tiles::<6>(w, w_stride, rows, vis_first, v, v_stride, keys, out, o_stride),
            _ => pv_tiles::<1>(w, w_stride, rows, vis_first, v, v_stride, keys, out, o_stride),
        };
    }
}

/// The PV tile body over `W` channels (returns `W`): the GEMM's
/// [`tile`] with the weights as `a` and the value rows as `b` — per row
/// quad a 4 x `W` accumulator tile seeded from `out`, one `mul` then
/// `add` per visible position in ascending order, written back; remainder
/// rows get a one-row tile. `W` is a constant so that every lane loop
/// runs over a whole fixed-size array — the one form every instantiation
/// keeps in registers (a run-time lane count sent the 512-bit one through
/// masked loads and a stack-resident tile, at a fraction of the rate).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pv_tiles<const W: usize>(
    w: &[f32],
    w_stride: usize,
    rows: usize,
    vis_first: usize,
    v: &[f32],
    v_stride: usize,
    keys: usize,
    out: &mut [f32],
    o_stride: usize,
) -> usize {
    let mut i = 0usize;
    while i + MR <= rows {
        let jn = keys.min(vis_first + i + MR - 1);
        tile::<MR, W>(w, w_stride, v, v_stride, out, o_stride, 0..jn, i, 0);
        i += MR;
    }
    while i < rows {
        let jn = keys.min(vis_first + i);
        tile::<1, W>(w, w_stride, v, v_stride, out, o_stride, 0..jn, i, 0);
        i += 1;
    }
    W
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::simd::Level;

    type Qk<'a> = &'a dyn Fn(&[f32], usize, usize, &[f32], usize, f32, &mut [f32], usize);
    type Pv<'a> =
        &'a dyn Fn(&[f32], usize, usize, usize, &[f32], usize, usize, usize, &mut [f32], usize);
    type Softmax<'a> = &'a dyn Fn(&mut [f32], usize, usize);

    /// Every way a kernel can run on this host, by name: the baseline
    /// body called directly, each level the CPU has through the capped
    /// dispatch, and the public entry as dispatched.
    fn each_instantiation(mut check: impl FnMut(&str, Qk, Pv, Softmax)) {
        check(
            "baseline body",
            &|q, qs, rows, k, width, scale, s, ss| {
                qk_block_body(Level::Baseline, q, qs, rows, k, width, scale, s, ss)
            },
            &pv_block_body,
            &softmax_causal_body,
        );
        for level in simd::runnable_levels() {
            check(
                &format!("{level:?}"),
                &|q, qs, rows, k, width, scale, s, ss| {
                    simd::dispatch_up_to(
                        level,
                        #[inline(always)]
                        |l| qk_block_body(l, q, qs, rows, k, width, scale, s, ss),
                    )
                },
                &|w, ws, rows, vis, v, vs, keys, dh, out, os| {
                    simd::dispatch_up_to(
                        level,
                        #[inline(always)]
                        |_| pv_block_body(w, ws, rows, vis, v, vs, keys, dh, out, os),
                    )
                },
                &|s, width, vis| {
                    simd::dispatch_up_to(
                        level,
                        #[inline(always)]
                        |_| softmax_causal_body(s, width, vis),
                    )
                },
            );
        }
        check("dispatched", &qk_block, &pv_block, &softmax_causal);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// One head of one slot, driven block by block the way the cached
    /// core drives it (`n` new rows on a `prefix`-long cache, head 1 of
    /// 2 so every stride and offset is live): the QK tile against the
    /// naive `c`-ascending chain scaled once, the PV tile against the
    /// naive position-ascending chain over the visible keys, by bits.
    /// Lanes past the filled length hold a finite marker, so whole blocks
    /// compare.
    #[test]
    fn qk_and_pv_tiles_match_the_naive_chains_bit_for_bit() {
        let mut rng = Rng::seeded(71);
        for dh in [1usize, 3, 4, 6, 7, 8, 12, 16, 17, 32] {
            let (d, off, scale) = (2 * dh, dh, 1.0 / (dh as f32).sqrt());
            for bt in [1usize, 2, 4, 8, 16, 32] {
                for n in 1..=9usize {
                    for prefix in [0usize, 1, 15, 16, 17, 33] {
                        let t = prefix + n;
                        let blocks = t.div_ceil(bt);
                        let width = blocks * bt;
                        let mut draw =
                            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.normal()).collect() };
                        let q = draw(n * d);
                        let k_rows = draw(t * d);
                        let v_rows = draw(t * d);
                        // Keys channel-major per block, unfilled lanes 7.0.
                        let mut k_blocks = vec![7.0f32; blocks * d * bt];
                        for j in 0..t {
                            for c in 0..d {
                                k_blocks[(j / bt) * d * bt + c * bt + j % bt] = k_rows[j * d + c];
                            }
                        }
                        let key =
                            |j: usize, c: usize| k_blocks[(j / bt) * d * bt + c * bt + j % bt];
                        let first = |b: usize| (b * bt).saturating_sub(prefix);

                        // Weights: random on the visible prefix, exact
                        // zeros beyond (what the softmax leaves).
                        let mut weights = vec![0.0f32; n * width];
                        for i in 0..n {
                            for j in 0..=prefix + i {
                                weights[i * width + j] = rng.normal();
                            }
                        }
                        let mut want_scores = vec![0.0f32; n * width];
                        let mut want_out = vec![0.0f32; n * d];
                        for i in 0..n {
                            let seen = (prefix + i) / bt + 1; // blocks row i scores
                            for j in 0..seen * bt {
                                let mut acc = 0.0f32;
                                for c in 0..dh {
                                    acc += q[i * d + off + c] * key(j, off + c);
                                }
                                want_scores[i * width + j] = acc * scale;
                            }
                            for c in 0..dh {
                                let mut acc = 0.0f32;
                                for j in 0..=prefix + i {
                                    acc += weights[i * width + j] * v_rows[j * d + off + c];
                                }
                                want_out[i * d + off + c] = acc;
                            }
                        }

                        each_instantiation(|name, qk, pv, _| {
                            let what = format!("{name}: dh {dh} bt {bt} n {n} prefix {prefix}");
                            let mut scores = vec![0.0f32; n * width];
                            let mut out = vec![0.0f32; n * d];
                            for b in 0..blocks {
                                let i0 = first(b);
                                qk(
                                    &q[i0 * d + off..],
                                    d,
                                    n - i0,
                                    &k_blocks[b * d * bt + off * bt..b * d * bt + (off + dh) * bt],
                                    bt,
                                    scale,
                                    &mut scores[i0 * width + b * bt..],
                                    width,
                                );
                                pv(
                                    &weights[i0 * width + b * bt..],
                                    width,
                                    n - i0,
                                    prefix + i0 + 1 - b * bt,
                                    &v_rows[b * bt * d + off..],
                                    d,
                                    (t - b * bt).min(bt),
                                    dh,
                                    &mut out[i0 * d + off..],
                                    d,
                                );
                            }
                            assert_eq!(bits(&scores), bits(&want_scores), "QK tile, {what}");
                            assert_eq!(bits(&out), bits(&want_out), "PV tile, {what}");
                        });
                    }
                }
            }
        }
    }

    /// The causal softmax against an `f64` softmax of the visible prefix:
    /// every prefix length 0..=40 (so the padded span's end sits at every
    /// lane position, in 40- and 48-wide rows), starting from rows whose
    /// other lanes are NaN. Visible lanes within 1e-6 and summing to 1
    /// within 1e-6, every other lane exactly `+0.0`, and the same bits
    /// from every instantiation. Eleven rows per call, so a stack
    /// boundary falls inside.
    #[test]
    fn causal_softmax_matches_f64_and_every_instantiation_agrees_by_bits() {
        let mut rng = Rng::seeded(72);
        for width in [40usize, 48] {
            for vis_first in 0..=40usize {
                let rows = 11usize;
                let visible = |r: usize| (vis_first + r).min(width);
                let mut input = vec![f32::NAN; rows * width];
                for r in 0..rows {
                    for x in &mut input[r * width..r * width + visible(r)] {
                        *x = 3.0 * rng.normal();
                    }
                }
                let mut first: Option<Vec<u32>> = None;
                each_instantiation(|name, _, _, softmax| {
                    let what = format!("{name}: width {width} vis_first {vis_first}");
                    let mut got = input.clone();
                    softmax(&mut got, width, vis_first);
                    for r in 0..rows {
                        let (seen, unseen) = got[r * width..(r + 1) * width].split_at(visible(r));
                        assert!(
                            unseen.iter().all(|x| x.to_bits() == 0),
                            "{what}: row {r} has a non-zero masked lane"
                        );
                        if seen.is_empty() {
                            continue;
                        }
                        let xs = &input[r * width..r * width + visible(r)];
                        let mx = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
                        let z: f64 = xs.iter().map(|&x| (x as f64 - mx).exp()).sum();
                        for (g, &x) in seen.iter().zip(xs) {
                            let want = (x as f64 - mx).exp() / z;
                            assert!((*g as f64 - want).abs() <= 1e-6, "{what}: {g} vs {want}");
                        }
                        let sum: f64 = seen.iter().map(|&x| x as f64).sum();
                        assert!((sum - 1.0).abs() <= 1e-6, "{what}: row {r} sums to {sum}");
                    }
                    let got = bits(&got);
                    assert_eq!(*first.get_or_insert_with(|| got.clone()), got, "{what}");
                });
            }
        }
    }
}
