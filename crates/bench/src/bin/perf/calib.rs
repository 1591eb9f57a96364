//! Machine-speed calibration. The reference box is a small VM on a shared
//! host, and its speed is not a constant: the clock has two states (a lone
//! busy thread sometimes runs ~25 % faster), and for seconds to minutes at
//! a time the neighbours slow everything by 20-40 %. Between blocks the
//! harness times a fixed compute kernel that shares no code with the
//! program under test; the run's time-like metrics are then scaled to the
//! speed the kernel shows on a quiet reference box ([`REFERENCE_NS`]).
//! Measured on `dense_direct` over 30 minutes of mixed weather, that cuts
//! the spread of 16 s windows from 6.6 % to 2-3 % (README, "Noise").

use std::time::Instant;

/// What one kernel run takes on the quiet reference box with both
/// hardware threads busy. Only ratios to it matter for a comparison; it
/// keeps the reported numbers in the units of that box.
pub const REFERENCE_NS: f64 = 1_330_000.0;

/// Fixed L1/L2-resident compute: multiply-add sweeps, a dependent scalar
/// chain, and a small row-major matrix product.
struct Kernel {
    sweep: Vec<f32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            sweep: vec![1.0; 4096],
            a: vec![0.5; 64 * 48],
            b: vec![0.25; 48 * 192],
            c: vec![0.0; 64 * 192],
        }
    }

    /// ns for one run on the calling thread. A debug build (the tier-1
    /// smoke test, which measures nothing) does a sixteenth of the work.
    fn run(&mut self) -> f64 {
        let work = if cfg!(debug_assertions) { 1 } else { 16 };
        let t = Instant::now();
        let mut acc = 0.0f32;
        for rep in 0..64 * work {
            let scale = 1.0 + rep as f32 * 1e-7;
            for x in self.sweep.iter_mut() {
                *x = *x * scale + 0.25;
            }
            acc += self.sweep[(rep * 61) & 4095];
        }
        for i in 0..12_500 * work as u32 {
            acc = acc * 0.999_999 + (i & 3) as f32;
        }
        for _ in 0..work * 3 / 4 {
            for i in 0..64 {
                let row = &mut self.c[i * 192..(i + 1) * 192];
                row.fill(0.0);
                for k in 0..48 {
                    let av = self.a[i * 48 + k];
                    for (cx, bx) in row.iter_mut().zip(&self.b[k * 192..(k + 1) * 192]) {
                        *cx += av * bx;
                    }
                }
            }
            acc += std::hint::black_box(&self.c)[7];
        }
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64
    }
}

/// Collects kernel readings over a run and turns them into one speed.
pub struct Speedometer {
    here: Kernel,
    there: Kernel,
    readings: Vec<f64>,
}

impl Speedometer {
    pub fn new() -> Self {
        Speedometer { here: Kernel::new(), there: Kernel::new(), readings: Vec::new() }
    }

    /// Take one reading: the kernel on two threads at once (the workloads
    /// keep both hardware threads of the box busy), the slower of the two.
    pub fn read(&mut self) {
        let (here, there) = (&mut self.here, &mut self.there);
        let ns = std::thread::scope(|sc| {
            let helper = sc.spawn(|| there.run());
            let mine = here.run();
            mine.max(helper.join().expect("calibration thread panicked"))
        });
        self.readings.push(ns);
    }

    /// Machine speed relative to the reference box (1 = as fast, 0.8 =
    /// a fifth slower), from the lower quartile of the readings — the
    /// same quarter of the run its fastest segments come from.
    pub fn speed(&self) -> f64 {
        if self.readings.is_empty() {
            return 1.0;
        }
        REFERENCE_NS / crate::stats::percentile(&self.readings, 0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_reference_over_the_lower_quartile() {
        let mut m = Speedometer::new();
        assert_eq!(m.speed(), 1.0, "no readings, no correction");
        m.readings = vec![2.0 * REFERENCE_NS; 3];
        m.readings.push(9.0 * REFERENCE_NS);
        assert!((m.speed() - 0.5).abs() < 1e-12, "a machine twice as slow has speed 0.5");
        m.read();
        assert_eq!(m.readings.len(), 5);
        assert!(m.readings[4] > 0.0);
    }
}
