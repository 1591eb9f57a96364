//! Register-tile kernels of the cached attention core, one KV block at a
//! time.
//!
//! A KV cache hands attention its keys in **channel-major blocks** — block
//! `b` holds `width` consecutive positions as `[dim][width]`, so one
//! head's slice of it is a contiguous `[dh][width]` slab — and its values
//! row-major. That key layout is exactly the packed `B` panel of the GEMM
//! tile in [`crate::tensor`]: one slab row per inner step, `width`
//! positions side by side in the lanes. The kernels here take plain
//! slices and strides (they know nothing of pages or caches) and are
//! compiled once per instantiation (`simd.rs`) like the GEMM:
//!
//! - [`qk_block`]: scores of up to all of a slot's new rows against one
//!   key block, a 4-row x `W`-lane accumulator tile per lane group;
//! - [`pv_block`]: those rows' weighted sum over one value block, a 4-row
//!   x `dh` accumulator tile seeded from and written back to the output,
//!   so consecutive blocks continue one chain.
//!
//! Every score is one chain over `c = 0..dh` ascending from zero, scaled
//! once; every output element is one chain over ascending positions. No
//! instantiation reassociates or fuses, so all of them are bit-identical
//! to the naive per-element loops and to each other, whatever the block
//! width — which is what keeps paged and contiguous caches (different
//! block widths) bit-identical.

use crate::simd;

/// Rows per register tile: four query rows share every loaded key or
/// value lane group, as in the GEMM.
const MR: usize = 4;
/// Widest lane group of the QK tile per instantiation: the 4 x `W`
/// accumulators are eight vector registers in 4-lane baseline code at 8
/// and in 8-lane AVX2 code at 16.
const QK_LANES_BASELINE: usize = 8;
const QK_LANES_WIDE: usize = 16;
/// Column chunk of the PV tile: a head is covered in chunks of at most
/// this many channels (one chunk for every head width in the zoo).
const PV_LANES: usize = 16;

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
        |wide| {
            let lanes = if wide { QK_LANES_WIDE } else { QK_LANES_BASELINE };
            qk_block_body(lanes, q, q_stride, rows, k, width, scale, scores, s_stride)
        },
    );
}

/// [`qk_block`] in the caller's codegen: the lane group is the largest
/// power of two that divides `width`, up to `max_lanes`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn qk_block_body(
    max_lanes: usize,
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
        |_wide| pv_block_body(w, w_stride, rows, vis_first, v, v_stride, keys, dh, out, o_stride),
    );
}

/// [`pv_block`] in the caller's codegen. The zoo's head widths each get
/// the tile body with `dh` a literal, so its lane loops have constant
/// trip counts; any other width runs the same body with `dh` a variable.
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
    match dh {
        6 => pv_tiles(w, w_stride, rows, vis_first, v, v_stride, keys, 6, out, o_stride),
        8 => pv_tiles(w, w_stride, rows, vis_first, v, v_stride, keys, 8, out, o_stride),
        12 => pv_tiles(w, w_stride, rows, vis_first, v, v_stride, keys, 12, out, o_stride),
        16 => pv_tiles(w, w_stride, rows, vis_first, v, v_stride, keys, 16, out, o_stride),
        _ => pv_tiles(w, w_stride, rows, vis_first, v, v_stride, keys, dh, out, o_stride),
    }
}

/// The PV tile body: per row quad and per [`PV_LANES`]-channel chunk of
/// the head, a 4 x chunk accumulator tile is seeded from `out`, takes one
/// `mul` then `add` per visible position in ascending order, and is
/// written back; remainder rows get a one-row tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pv_tiles(
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
    let mut i = 0usize;
    while i + MR <= rows {
        let jn = keys.min(vis_first + i + MR - 1);
        let w0 = &w[i * w_stride..i * w_stride + jn];
        let w1 = &w[(i + 1) * w_stride..(i + 1) * w_stride + jn];
        let w2 = &w[(i + 2) * w_stride..(i + 2) * w_stride + jn];
        let w3 = &w[(i + 3) * w_stride..(i + 3) * w_stride + jn];
        for c0 in (0..dh).step_by(PV_LANES) {
            let cw = (dh - c0).min(PV_LANES);
            let mut acc = [[0.0f32; PV_LANES]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                let o = (i + r) * o_stride + c0;
                accr[..cw].copy_from_slice(&out[o..o + cw]);
            }
            for j in 0..jn {
                let vr = &v[j * v_stride + c0..j * v_stride + c0 + cw];
                let (x0, x1, x2, x3) = (w0[j], w1[j], w2[j], w3[j]);
                for l in 0..cw {
                    acc[0][l] += x0 * vr[l];
                    acc[1][l] += x1 * vr[l];
                    acc[2][l] += x2 * vr[l];
                    acc[3][l] += x3 * vr[l];
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let o = (i + r) * o_stride + c0;
                out[o..o + cw].copy_from_slice(&accr[..cw]);
            }
        }
        i += MR;
    }
    while i < rows {
        let jn = keys.min(vis_first + i);
        let wr = &w[i * w_stride..i * w_stride + jn];
        for c0 in (0..dh).step_by(PV_LANES) {
            let cw = (dh - c0).min(PV_LANES);
            let o = i * o_stride + c0;
            let mut acc = [0.0f32; PV_LANES];
            acc[..cw].copy_from_slice(&out[o..o + cw]);
            for (j, &x) in wr.iter().enumerate() {
                let vr = &v[j * v_stride + c0..j * v_stride + c0 + cw];
                for l in 0..cw {
                    acc[l] += x * vr[l];
                }
            }
            out[o..o + cw].copy_from_slice(&acc[..cw]);
        }
        i += 1;
    }
}
