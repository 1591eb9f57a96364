//! Run-time choice between the instantiations of a kernel body.
//!
//! A kernel here is one `#[inline(always)]` body of plain `f32` loops,
//! compiled three times: with the target's baseline features (SSE2 on
//! x86-64, 4 lanes), inside a `#[target_feature(enable = "avx2")]`
//! function, where the same loops become 8-lane code, and inside an
//! `avx512f` one, where they become 16-lane code. Which one runs is
//! decided per call by what the CPU reports — no build flag, env var or
//! Cargo feature — so one binary serves every x86-64 host: the widest
//! level the CPU has wins, and a pre-AVX2 or non-x86 host runs exactly the
//! baseline code. No instantiation may fuse or reorder arithmetic (no
//! `fma` contraction, no intrinsics): each lane still does one `mul` then
//! one `add` per step, so all three are bit-identical and the wide ones
//! inherit every equivalence gate. Detection picks 512-bit code wherever
//! the CPU has it; that this is the faster choice is measured on the
//! reference VM only.

/// The instantiation [`dispatch`] is running: which vector width the
/// surrounding code is compiled for. A body reads it to pick its tile
/// shape (a `const` generic) and nothing else.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// The target's default features (SSE2 on x86-64): 4 lanes.
    Baseline,
    /// `avx2`: 8 lanes.
    Avx2,
    /// `avx512f`: 16 lanes.
    Avx512,
}

/// Runs `kernel` in the widest instantiation this CPU has, telling it
/// which one that is.
///
/// `kernel` and everything it calls down to the inner loops must be
/// `#[inline(always)]`: only code inlined into the `target_feature`
/// functions of [`dispatch_up_to`] is compiled with their features; an
/// out-of-line callee keeps the baseline ones (still correct, just not
/// wider).
#[inline]
pub(crate) fn dispatch(kernel: impl FnOnce(Level)) {
    dispatch_up_to(Level::Avx512, kernel)
}

/// [`dispatch`] with the choice capped at `cap` — how the bit-identity
/// tests reach the AVX2 instantiation on an AVX-512 host. Production code
/// has one caller, [`dispatch`], whose cap is the top level.
#[allow(unsafe_code)]
#[inline]
pub(crate) fn dispatch_up_to(cap: Level, kernel: impl FnOnce(Level)) {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx512f")]
        fn avx512(kernel: impl FnOnce(Level)) {
            kernel(Level::Avx512)
        }
        #[target_feature(enable = "avx2")]
        fn avx2(kernel: impl FnOnce(Level)) {
            kernel(Level::Avx2)
        }
        let use_avx512 = cap >= Level::Avx512 && std::is_x86_feature_detected!("avx512f");
        let use_avx2 = cap >= Level::Avx2 && std::is_x86_feature_detected!("avx2");
        if use_avx512 || use_avx2 {
            // SAFETY: `avx512` requires nothing but the `avx512f` target
            // feature and `avx2` nothing but `avx2`. `use_avx512` is only
            // true when `is_x86_feature_detected!("avx512f")` has just
            // confirmed this CPU has that feature, and the `else` arm is
            // only reached when `use_avx2` is, i.e. after
            // `is_x86_feature_detected!("avx2")` confirmed `avx2`.
            return unsafe {
                if use_avx512 {
                    avx512(kernel)
                } else {
                    avx2(kernel)
                }
            };
        }
    }
    kernel(Level::Baseline)
}

/// Every level this host can run, lowest first, for tests that hold each
/// instantiation of a kernel to its oracle (`dispatch_up_to(level, ..)`
/// then runs exactly `level`). Prints which levels it leaves out, so a
/// log says what its run covered.
#[cfg(test)]
pub(crate) fn runnable_levels() -> Vec<Level> {
    let mut top = Level::Baseline;
    dispatch(|l| top = l);
    match top {
        Level::Avx512 => {}
        Level::Avx2 => println!("avx512f not detected, skipped: that instantiation cannot run"),
        Level::Baseline => {
            println!("avx2 / avx512f not detected, skipped: only the baseline runs")
        }
    }
    [Level::Baseline, Level::Avx2, Level::Avx512].into_iter().filter(|&l| l <= top).collect()
}
