//! Run-time choice between the two instantiations of a kernel body.
//!
//! A kernel here is one `#[inline(always)]` body of plain `f32` loops,
//! compiled twice: with the target's baseline features (SSE2 on
//! x86-64), and inside a `#[target_feature(enable = "avx2")]` function,
//! where the same loops become 8-lane code. Which one runs is decided
//! per call by what the CPU reports — no build flag, env var or Cargo
//! feature — so one binary serves every x86-64 host, and a pre-AVX2 or
//! non-x86 host runs exactly the baseline code. Neither instantiation
//! may fuse or reorder arithmetic (no `fma`, no intrinsics): each lane
//! still does one `mul` then one `add` per step, so the two are
//! bit-identical and the wide one inherits every equivalence gate.

/// Runs `kernel(true)` compiled with AVX2 enabled when the CPU has it,
/// `kernel(false)` compiled with the baseline features otherwise. The
/// flag lets the body pick its tile shape (a `const` generic) per
/// instantiation.
///
/// `kernel` and everything it calls down to the inner loops must be
/// `#[inline(always)]`: only code inlined into the `avx2` function
/// below is compiled with its features; an out-of-line callee keeps the
/// baseline ones (still correct, just not wider).
#[allow(unsafe_code)]
#[inline]
pub(crate) fn dispatch(kernel: impl FnOnce(bool)) {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2")]
        fn avx2(kernel: impl FnOnce(bool)) {
            kernel(true)
        }
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `avx2` requires nothing but the `avx2` target
            // feature, and the `is_x86_feature_detected!("avx2")` check
            // on the line above has just confirmed this CPU has it.
            return unsafe { avx2(kernel) };
        }
    }
    kernel(false)
}

/// Whether [`dispatch`] picks the wide instantiation on this host — for
/// tests, which must say so when their wide half cannot run.
#[cfg(test)]
pub(crate) fn wide_available() -> bool {
    let mut wide = false;
    dispatch(|w| wide = w);
    wide
}
