//! Kernel-equivalence property sweep. The contract of
//! [`nt_tensor::tensor::matmul_into`] is "one ascending-`k` accumulation
//! chain per output element", and the naive triple loop below *is* that
//! sentence — so on every shape the register-tile kernels serve, the
//! result must equal the oracle bit for bit (`to_bits()`). Only the
//! skinny dot kernel (`n < 8 && k >= 16`) reassociates inside a chain
//! (eight partial accumulators); it is held to 1e-4.
//!
//! Shapes are adversarial: every m, k in {1..9, 15, 16, 17, 31, 32, 33,
//! 63, 64, 65, 600} and n in {1..9, 15, 16, 17, 63, 64, 65}, covering
//! quad-row remainders, NR column-tail remainders, the sub-quad tile, the
//! skinny-RHS switch, the KC k-tile seam (`k = 600`, register-tile shapes
//! only) and pool row-band splits (`m = 600`). The `NT_THREADS` {1, 4}
//! axis comes from the CI matrix, which runs every test binary under both
//! values — band splits never change per-element accumulation order, so
//! the sweep must pass identically under either. `matmul_into` runs the
//! widest instantiation of the register-tile kernel the CPU has, so this
//! sweep holds whichever one the host dispatches; the in-crate sweep in
//! `src/tensor.rs` holds every one the host can run.

use nt_tensor::tensor::matmul_into;
use nt_tensor::Rng;

fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
    out
}

#[test]
fn register_tile_kernel_matches_legacy_kernel_across_adversarial_shapes() {
    let dims: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 63, 64, 65];
    let tall: Vec<usize> = dims.iter().copied().chain([31, 32, 33, 600]).collect();
    let mut rng = Rng::seeded(60);
    for &m in &tall {
        for &k in &tall {
            for &n in dims {
                let skinny = n < 8 && k >= 16;
                if skinny && k == 600 {
                    // The dot kernel has no k-tile seam to cross, and its
                    // reassociation error outgrows an absolute bound here.
                    continue;
                }
                let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
                let mut got = vec![0.0f32; m * n];
                matmul_into(&a, &b, &mut got, m, k, n);
                let want = naive(&a, &b, m, k, n);
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    if skinny {
                        assert!((x - y).abs() < 1e-4, "{m}x{k}x{n} elem {i}: {x} vs naive {y}");
                    } else {
                        assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} elem {i}: {x} vs {y}");
                    }
                }
            }
        }
    }
}

/// Both remaining kernels — register tiles (wide RHS) and the packed dot
/// kernel (skinny RHS) — *add into* `out`: seeding the output with a bias
/// must give bias + product.
#[test]
fn both_kernels_accumulate_into_seeded_output() {
    let mut rng = Rng::seeded(61);
    for (m, k, n) in [(5, 17, 11), (5, 17, 4)] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let seed: Vec<f32> = (0..m * n).map(|_| rng.normal()).collect();
        let mut base = vec![0.0f32; m * n];
        matmul_into(&a, &b, &mut base, m, k, n);
        let mut out = seed.clone();
        matmul_into(&a, &b, &mut out, m, k, n);
        for i in 0..m * n {
            assert!(
                (out[i] - (seed[i] + base[i])).abs() < 1e-5,
                "{m}x{k}x{n} elem {i} lost its seed"
            );
        }
    }
}
