//! Paged KV-cache memory: the [`PagePool`] allocator.
//!
//! Every `KvCache` is a page *table* per layer ([`nt_nn::PagedAttnKv`])
//! over fixed-size [`nt_nn::KvPage`]s; a pool only decides who lends the
//! pages. A pool-less cache mints its own and keeps them, so worst-case
//! memory is the product of *every* live session's longest prefix —
//! unbounded at batch 64+ until each session happens to re-anchor. A
//! [`PagePool`] turns that into a hard configurable bound: its sessions'
//! pages come from one fleet-wide pool whose capacity is a **global byte
//! budget**, and the pool owns every page that is not currently lent out,
//! on a free list.
//!
//! ```text
//!            PagePool (budget_bytes -> capacity pages, pre-minted)
//!            ┌────────────────────────────────────────────┐
//!   alloc ──►│ free: [page][page][page][page] ...         │◄── release
//!            └────────────────────────────────────────────┘
//!      session A: layer0 [p7][p2]       layer1 [p9][p0]      (page tables)
//!      session B: layer0 [p4]           layer1 [p5]
//! ```
//!
//! Properties the rest of the stack builds on:
//!
//! - **Hard bound.** Every page is minted at construction, so
//!   `used + free == capacity` at all times and no interleaving of
//!   allocations can exceed the budget — the worst case is an
//!   [`PagePool::alloc_pages`] returning `None`, never an OOM-growing buffer.
//!   (Property-tested in `tests/paged_pool.rs`.)
//! - **All-or-nothing.** `alloc(n)` hands out `n` pages or none, so a
//!   multi-layer reservation can never strand a session half-grown.
//! - **Uniform pages.** Pages are interchangeable buffers for one model
//!   width (`dim`); which buffer a session gets never affects the math
//!   (the attention kernels are bit-identical across page widths).
//! - **Cheap handles.** [`PagePool`] is a clone-able `Arc` handle; every
//!   session's `KvCache` carries one so truncate/drop can return pages
//!   without threading the pool through every call site. Allocation and
//!   release take a `Mutex` — they happen a handful of times per serving
//!   tick, never inside the attention inner loops.

use crate::model::TinyLm;
use nt_nn::KvPage;
use std::sync::{Arc, Mutex};

/// Bytes one full-context session of `lm` occupies at `page_tokens`-sized
/// pages (`n_layers x pages_for(max_seq) x page_bytes`) — the minimum
/// viable pool budget, i.e. the floor [`PagePool::for_model`] asserts and
/// the serving engines re-check per admitted backbone. Budget sizing code
/// should derive its floor from here instead of hardcoding the product.
pub fn session_floor_bytes(lm: &TinyLm, page_tokens: usize) -> usize {
    let page_bytes = 2 * page_tokens * lm.cfg.d_model * 4;
    lm.cfg.n_layers * lm.cfg.max_seq.div_ceil(page_tokens) * page_bytes
}

/// Geometry + budget of a [`PagePool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageConfig {
    /// Cached positions per page. Must be a power of two (the attention
    /// row lookup is shift + mask).
    pub page_tokens: usize,
    /// Global KV byte budget. Capacity is `budget_bytes / page_bytes`
    /// whole pages; KV held by sessions of this pool can never exceed it.
    pub budget_bytes: usize,
}

/// Point-in-time occupancy of a [`PagePool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Positions per page.
    pub page_tokens: usize,
    /// Bytes per page (keys + values).
    pub page_bytes: usize,
    /// Live capacity: pages minted minus pages retired (the hard bound).
    pub capacity_pages: usize,
    /// Pages currently lent to sessions.
    pub used_pages: usize,
    /// Pages on the free list.
    pub free_pages: usize,
    /// Pages permanently retired ([`PagePool::retire_pages`]) — capacity
    /// surrendered when a fault domain dies.
    pub retired_pages: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

impl PoolStats {
    /// Bytes currently lent out (`used_pages * page_bytes`) — the number a
    /// memory gate compares against the budget.
    pub fn used_bytes(&self) -> usize {
        self.used_pages * self.page_bytes
    }
}

struct PoolInner {
    free: Vec<KvPage>,
    /// Pages dropped for good via [`PagePool::retire_pages`]. Capacity is
    /// `minted - retired`, so `used + free == capacity` stays an identity
    /// even while a fleet sheds the budget share of a dead shard.
    retired: usize,
}

struct PoolShared {
    page_tokens: usize,
    dim: usize,
    page_bytes: usize,
    minted: usize,
    budget_bytes: usize,
    inner: Mutex<PoolInner>,
}

/// Free-list allocator of fixed-size KV pages under a global byte budget.
/// Clone-able handle; all clones share one pool.
#[derive(Clone)]
pub struct PagePool {
    shared: Arc<PoolShared>,
}

impl PagePool {
    /// Pool of pages for a `dim`-wide model under `cfg`. Every page the
    /// budget affords is minted here, so the budget is a hard bound from
    /// the first allocation on.
    pub fn new(dim: usize, cfg: PageConfig) -> Self {
        assert!(dim > 0, "page pool needs a positive model dim");
        assert!(
            cfg.page_tokens.is_power_of_two(),
            "page_tokens {} must be a power of two",
            cfg.page_tokens
        );
        let page_bytes = 2 * cfg.page_tokens * dim * 4; // K + V rows, f32
        let capacity = cfg.budget_bytes / page_bytes;
        assert!(
            capacity >= 1,
            "budget {}B below one page ({page_bytes}B at page_tokens {} x dim {dim})",
            cfg.budget_bytes,
            cfg.page_tokens
        );
        let free = (0..capacity).map(|_| KvPage::new(cfg.page_tokens, dim)).collect();
        PagePool {
            shared: Arc::new(PoolShared {
                page_tokens: cfg.page_tokens,
                dim,
                page_bytes,
                minted: capacity,
                budget_bytes: cfg.budget_bytes,
                inner: Mutex::new(PoolInner { free, retired: 0 }),
            }),
        }
    }

    /// Pool sized for `lm`, asserting the budget can hold at least one
    /// full-context session (`n_layers x pages_for(max_seq)`) — below
    /// that, a single session could wedge admission forever.
    pub fn for_model(lm: &TinyLm, cfg: PageConfig) -> Self {
        let pool = PagePool::new(lm.cfg.d_model, cfg);
        let one_session = lm.cfg.n_layers * pool.pages_for(lm.cfg.max_seq);
        assert!(
            pool.capacity_pages() >= one_session,
            "budget {}B holds {} pages but one full-context session needs {one_session}",
            cfg.budget_bytes,
            pool.capacity_pages()
        );
        pool
    }

    /// Whether two handles refer to the same pool.
    pub fn same_pool(&self, other: &PagePool) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Positions per page.
    pub fn page_tokens(&self) -> usize {
        self.shared.page_tokens
    }

    /// Model width the pages are sized for.
    pub fn dim(&self) -> usize {
        self.shared.dim
    }

    /// Bytes per page (keys + values).
    pub fn page_bytes(&self) -> usize {
        self.shared.page_bytes
    }

    /// Live capacity — pages minted minus pages retired. The hard bound:
    /// `used + free == capacity` at all times.
    pub fn capacity_pages(&self) -> usize {
        let inner = self.shared.inner.lock().expect("page pool poisoned");
        self.shared.minted - inner.retired
    }

    /// Pages permanently retired via [`PagePool::retire_pages`].
    pub fn retired_pages(&self) -> usize {
        self.shared.inner.lock().expect("page pool poisoned").retired
    }

    /// Pages on the free list right now.
    pub fn free_pages(&self) -> usize {
        self.shared.inner.lock().expect("page pool poisoned").free.len()
    }

    /// Pages currently lent to sessions.
    pub fn used_pages(&self) -> usize {
        let inner = self.shared.inner.lock().expect("page pool poisoned");
        self.shared.minted - inner.retired - inner.free.len()
    }

    /// Bytes currently lent to sessions.
    pub fn used_bytes(&self) -> usize {
        self.used_pages() * self.page_bytes()
    }

    /// Pages needed to hold `positions` cached positions in **one** layer.
    pub fn pages_for(&self, positions: usize) -> usize {
        positions.div_ceil(self.page_tokens())
    }

    /// Occupancy snapshot.
    pub fn stats(&self) -> PoolStats {
        let inner = self.shared.inner.lock().expect("page pool poisoned");
        let capacity = self.shared.minted - inner.retired;
        PoolStats {
            page_tokens: self.page_tokens(),
            page_bytes: self.page_bytes(),
            capacity_pages: capacity,
            used_pages: capacity - inner.free.len(),
            free_pages: inner.free.len(),
            retired_pages: inner.retired,
            budget_bytes: self.shared.budget_bytes,
        }
    }

    /// Take `n` pages off the free list — all or nothing. `None` means the
    /// caller must evict, defer, or shrink; the pool never grows.
    /// (`KvCache` drives this internally; it is public so external cache
    /// implementations and the allocator property tests can too.)
    pub fn alloc_pages(&self, n: usize) -> Option<Vec<KvPage>> {
        let mut inner = self.shared.inner.lock().expect("page pool poisoned");
        if inner.free.len() < n {
            return None;
        }
        let at = inner.free.len() - n;
        Some(inner.free.split_off(at))
    }

    /// Return pages to the free list.
    pub fn release_pages(&self, pages: impl IntoIterator<Item = KvPage>) {
        let mut inner = self.shared.inner.lock().expect("page pool poisoned");
        inner.free.extend(pages);
        debug_assert!(
            inner.free.len() + inner.retired <= self.shared.minted,
            "released more pages than minted"
        );
    }

    /// Permanently shrink the pool by dropping up to `n` **free** pages;
    /// returns how many were retired. Capacity drops by the same amount,
    /// so `used + free == capacity` holds through the shrink. Best-effort
    /// by design: pages lent to live sessions are never clawed back, so
    /// callers retiring a dead fault domain's budget share should reclaim
    /// its sessions' pages first, then retire. Retirement is one-way — the
    /// pool never re-mints.
    pub fn retire_pages(&self, n: usize) -> usize {
        let mut inner = self.shared.inner.lock().expect("page pool poisoned");
        let take = n.min(inner.free.len());
        let at = inner.free.len() - take;
        inner.free.truncate(at);
        inner.retired += take;
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_pre_mints_the_whole_budget() {
        let pool = PagePool::new(8, PageConfig { page_tokens: 4, budget_bytes: 3 * 256 + 100 });
        // page_bytes = 2 * 4 * 8 * 4 = 256; 3 whole pages fit.
        assert_eq!(pool.page_bytes(), 256);
        assert_eq!(pool.capacity_pages(), 3);
        assert_eq!((pool.used_pages(), pool.free_pages()), (0, 3));
        assert_eq!(pool.stats().used_bytes(), 0);
    }

    #[test]
    fn alloc_is_all_or_nothing_and_release_restores() {
        let pool = PagePool::new(8, PageConfig { page_tokens: 4, budget_bytes: 4 * 256 });
        let a = pool.alloc_pages(3).expect("3 of 4 fit");
        assert_eq!((pool.used_pages(), pool.free_pages()), (3, 1));
        assert!(pool.alloc_pages(2).is_none(), "over-ask must not partially allocate");
        assert_eq!(pool.free_pages(), 1, "failed alloc takes nothing");
        pool.release_pages(a);
        assert_eq!((pool.used_pages(), pool.free_pages()), (0, 4));
    }

    #[test]
    fn pages_for_rounds_up_to_whole_pages() {
        let pool = PagePool::new(8, PageConfig { page_tokens: 4, budget_bytes: 1 << 16 });
        assert_eq!(pool.pages_for(0), 0);
        assert_eq!(pool.pages_for(1), 1);
        assert_eq!(pool.pages_for(4), 1);
        assert_eq!(pool.pages_for(5), 2);
    }

    #[test]
    #[should_panic(expected = "below one page")]
    fn budget_below_one_page_is_rejected() {
        let _ = PagePool::new(64, PageConfig { page_tokens: 16, budget_bytes: 100 });
    }

    #[test]
    fn retire_shrinks_capacity_and_keeps_the_occupancy_identity() {
        let pool = PagePool::new(8, PageConfig { page_tokens: 4, budget_bytes: 6 * 256 });
        let lent = pool.alloc_pages(2).expect("2 of 6 fit");
        // Only free pages retire: asking for 5 with 4 free retires 4.
        assert_eq!(pool.retire_pages(5), 4);
        assert_eq!(pool.retired_pages(), 4);
        assert_eq!(pool.capacity_pages(), 2);
        assert_eq!((pool.used_pages(), pool.free_pages()), (2, 0));
        assert_eq!(pool.used_pages() + pool.free_pages(), pool.capacity_pages());
        // Lent pages still come home to the shrunken pool.
        pool.release_pages(lent);
        assert_eq!((pool.used_pages(), pool.free_pages()), (0, 2));
        assert_eq!(pool.used_pages() + pool.free_pages(), pool.capacity_pages());
        let s = pool.stats();
        assert_eq!((s.capacity_pages, s.retired_pages), (2, 4));
    }

    #[test]
    fn retire_zero_and_retire_on_empty_free_list_are_noops() {
        let pool = PagePool::new(8, PageConfig { page_tokens: 4, budget_bytes: 2 * 256 });
        assert_eq!(pool.retire_pages(0), 0);
        let lent = pool.alloc_pages(2).unwrap();
        assert_eq!(pool.retire_pages(3), 0, "no free pages, nothing to retire");
        assert_eq!(pool.capacity_pages(), 2);
        pool.release_pages(lent);
    }
}
