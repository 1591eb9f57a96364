//! Counting allocator for this binary only. It forwards to the system
//! allocator and, while armed (traced blocks), tallies calls and bytes so
//! the traced run can report allocations per decision. Disarmed it costs
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tallies are plain statistics that
// publish no other data, so `Relaxed` is sufficient.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[inline]
fn tally(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Start or stop counting (all threads).
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn totals() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_while_armed() {
        // The smoke test arms and disarms concurrently, so retry until one
        // armed allocation lands, and only lower bounds hold.
        let before = super::totals();
        for _ in 0..1000 {
            super::arm(true);
            let v: Vec<u8> = Vec::with_capacity(4096);
            std::hint::black_box(&v);
            if super::totals().1 >= before.1 + 4096 {
                break;
            }
        }
        super::arm(false);
        let after = super::totals();
        assert!(after.0 > before.0, "an armed allocation was counted");
        assert!(after.1 >= before.1 + 4096);
    }
}
