//! The one `exp` kernel behind [`gelu`] and `tanh_fast`, and the
//! slice-level [`gelu_in_place`] every GELU site goes through (taped
//! forward, its backward, the graph-free MLP and the multimodal
//! encoders) — one definition, so taped, cached and batched paths shift
//! together.
//!
//! Everything here is branch-free straight-line `f32` arithmetic with no
//! libm call, so the loop behind [`gelu_in_place`] autovectorises
//! (compares lower to `minps`/`maxps`/`andps` selects): 4 lanes in the
//! baseline SSE2 instantiation, 8 in the AVX2 and 16 in the AVX-512 one
//! [`crate::simd`] picks when the CPU has them. Each element is computed
//! by the same operation sequence wherever it sits in the slice — vector
//! body or scalar tail, any instantiation — so `gelu(x)` and the slice
//! kernel are bit-identical per element.
//!
//! [`exp_fast`] is also the `exp` of the cached attention core's softmax
//! ([`crate::attn::softmax_causal`]), and of nothing else:
//! `tensor::softmax_in_place` — taped forward, cross-entropy, sampling —
//! keeps libm's, as the independent reference.

use crate::simd;

pub(crate) const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// `1.5 * 2^23`: adding it to `|v| < 2^22` leaves `round(v)` in the low
/// mantissa bits (round-to-nearest-even) — rounding without `floor`,
/// which baseline SSE2 has no instruction for.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// `ln 2` in two parts: the high part has nine significant bits, so
/// `n * LN2_HI` is exact for every exponent `n` an `f32` can take.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `ln(2^-126)`: at and below it [`exp_fast`] returns exactly `0.0`
/// (results would be subnormal; libm's gradual underflow is not kept).
const EXP_LO: f32 = -87.336_54;
/// Inputs above this are clamped to it, so the result stays finite.
const EXP_HI: f32 = 88.0;

/// `e^x` to within 2.5e-7 relative error on `[EXP_LO, EXP_HI]`: `x = n
/// ln2 + r` with `|r| <= ln2/2`, Cephes' degree-5 polynomial for `e^r`,
/// and `2^n` built directly from exponent bits.
#[inline(always)]
#[allow(clippy::excessive_precision)] // Cephes' coefficients as published
pub(crate) fn exp_fast(x: f32) -> f32 {
    let xc = if x > EXP_HI { EXP_HI } else { x };
    let xc = if xc < EXP_LO { EXP_LO } else { xc };
    let t = xc * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_150_0e-4f32;
    p = p * r + 1.398_199_950_7e-3;
    p = p * r + 8.333_451_907_3e-3;
    p = p * r + 4.166_579_589_4e-2;
    p = p * r + 1.666_666_545_9e-1;
    p = p * r + 5.000_000_120_1e-1;
    let y = p * (r * r) + r + 1.0;
    // The low mantissa bits of `t` hold `n` in two's complement (the
    // magic constant's own low 9 bits are zero), `n + 127` is in 1..=254,
    // and the shift moves it into the exponent field.
    let scale = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    if x <= EXP_LO {
        0.0
    } else {
        y * scale
    }
}

/// `tanh` from a single [`exp_fast`] — within a few ulp of libm's
/// `tanhf` (every consumer goes through [`gelu`], so taped and
/// graph-free paths shift together). `|z| >= 9` saturates to exactly
/// `±1.0`, as `f32` tanh does: the clamp keeps `e^{2z}` where
/// `(e - 1) / (e + 1)` rounds to that.
#[inline(always)]
pub(crate) fn tanh_fast(z: f32) -> f32 {
    let zc = if z > 9.0 { 9.0 } else { z };
    let zc = if zc < -9.0 { -9.0 } else { zc };
    let e = exp_fast(2.0 * zc);
    (e - 1.0) / (e + 1.0)
}

/// Tanh-approximation GELU, shared by the taped forward, its backward and
/// the graph-free inference kernels (one definition keeps the cached and
/// uncached paths bit-identical).
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_fast(GELU_C * (x + 0.044715 * x * x * x)))
}

/// [`gelu`] over a slice, in place, in the widest instantiation of the
/// loop the CPU runs (bit-identical per element in all of them).
pub fn gelu_in_place(xs: &mut [f32]) {
    simd::dispatch(
        #[inline(always)]
        |_level| gelu_slice(xs),
    );
}

/// The one slice body behind every instantiation (nothing in it depends
/// on the vector width, so it ignores the level).
#[inline(always)]
fn gelu_slice(xs: &mut [f32]) {
    for v in xs.iter_mut() {
        *v = gelu(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rel_err(x: f32) -> f64 {
        let want = (x as f64).exp();
        ((exp_fast(x) as f64) - want).abs() / want
    }

    #[test]
    fn exp_matches_f64_exp_on_a_dense_grid() {
        let steps = 1_750_000; // 1e-4 spacing over [-87, 88]
        let worst = (0..=steps)
            .map(|i| rel_err(-87.0 + 175.0 * (i as f32 / steps as f32)))
            .fold(0.0f64, f64::max);
        assert!(worst <= 2.5e-7, "max relative error {worst:e}");
    }

    #[test]
    fn exp_underflows_to_exact_zero_and_stays_finite_at_the_top() {
        for x in [EXP_LO, EXP_LO - 1e-3, -88.0, -104.0, -1e9, f32::NEG_INFINITY] {
            assert_eq!(exp_fast(x).to_bits(), 0.0f32.to_bits(), "exp_fast({x})");
        }
        assert!(exp_fast(-87.336_5) > 0.0, "just above the cutoff is a normal number");
        assert!(exp_fast(88.0).is_finite());
        assert!(rel_err(88.0) <= 2.5e-7);
        assert_eq!(exp_fast(1e9), exp_fast(88.0), "inputs above the range clamp");
        assert!(exp_fast(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_matches_the_libm_tanh_formula() {
        // 2e-7 absolute plus one ulp of the result: for |gelu| >= 2 a
        // single ulp is already 2.4e-7, and `f32::tanh` itself lands an
        // ulp away from the f64 formula there.
        let libm = |x: f32| 0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh());
        let steps = 1_600_000;
        for x in (0..=steps).map(|i| -8.0 + 16.0 * (i as f32 / steps as f32)) {
            let (got, want) = (gelu(x), libm(x));
            let tol = 2e-7 + f32::EPSILON * want.abs();
            assert!((got - want).abs() <= tol, "gelu({x}) = {got}, libm formula {want}");
        }
        assert!(gelu(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_saturates_to_exactly_one() {
        for z in [9.0f32, 9.5, 18.0, 44.0, 1e9, f32::INFINITY] {
            assert_eq!(tanh_fast(z), 1.0, "tanh_fast({z})");
            assert_eq!(tanh_fast(-z), -1.0, "tanh_fast(-{z})");
        }
        assert_eq!(tanh_fast(0.0), 0.0);
    }

    #[test]
    fn slice_kernel_is_the_scalar_function_at_every_lane_position() {
        // Every length 0..=40 puts the body/tail split of a 4-, 8- and
        // 16-wide vector loop at every position. The baseline body always
        // runs; each level the CPU has runs through the capped dispatch,
        // and the public entry as dispatched.
        let levels = simd::runnable_levels();
        let xs: Vec<f32> = (0..40).map(|i| -7.0 + 0.37 * i as f32).collect();
        for len in 0..=xs.len() {
            let want: Vec<u32> = xs[..len].iter().map(|&x| gelu(x).to_bits()).collect();
            let run = |kernel: &dyn Fn(&mut [f32])| {
                let mut got = xs[..len].to_vec();
                kernel(&mut got);
                got.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            };
            assert_eq!(run(&gelu_slice), want, "baseline body, len {len}");
            assert_eq!(run(&gelu_in_place), want, "dispatched, len {len}");
            for &level in &levels {
                let at_level = |xs: &mut [f32]| {
                    simd::dispatch_up_to(
                        level,
                        #[inline(always)]
                        |_| gelu_slice(xs),
                    )
                };
                assert_eq!(run(&at_level), want, "{level:?}, len {len}");
            }
        }
    }

    proptest! {
        #[test]
        fn exp_relative_error_holds_anywhere_in_range(x in -87.0f32..88.0f32) {
            prop_assert!(rel_err(x) <= 2.5e-7, "x = {}: {:e}", x, rel_err(x));
        }
    }
}
