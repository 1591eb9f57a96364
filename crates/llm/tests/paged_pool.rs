//! Property tests for the [`PagePool`] allocator invariants behind the
//! paged KV-cache subsystem: under arbitrary interleavings of session
//! joins, appends, divergence truncates, evictions (truncate-to-zero),
//! and leaves,
//!
//! - **no page is leaked** — every page a session ever held is back on
//!   the free list once the session leaves (and `used == 0` when every
//!   session is gone);
//! - **no page is double-freed** — `used_pages + free_pages ==
//!   capacity_pages` holds after every operation (a double release would
//!   push `free` past the minted capacity);
//! - **page tables stay tight** — a slot holds exactly
//!   `n_layers x pages_for(len)` pages (reserve allocates no more,
//!   truncate returns whole unused pages immediately);
//! - **the budget is hard** — an allocation the free list cannot cover
//!   takes nothing at all.

use nt_llm::{KvCache, LmConfig, PageConfig, PagePool, TinyLm};
use proptest::prelude::*;

/// Tiny backbone for the end-to-end half (1 layer, d=16, max_seq 16).
fn tiny() -> (nt_nn::ParamStore, TinyLm) {
    let mut store = nt_nn::ParamStore::new();
    let cfg = LmConfig {
        vocab: 16,
        d_model: 16,
        n_layers: 1,
        n_heads: 2,
        mlp_mult: 2,
        max_seq: 16,
        dropout: 0.0,
    };
    let lm = TinyLm::new(&mut store, cfg, &mut nt_tensor::Rng::seeded(1));
    (store, lm)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure allocator: alloc/release interleavings against shadow
    /// accounting. Alloc is all-or-nothing and `used + free == capacity`
    /// is invariant.
    #[test]
    fn alloc_release_conserves_pages(
        ops in proptest::collection::vec((0u8..2, 1usize..6), 1..120),
    ) {
        let pool = PagePool::new(8, PageConfig { page_tokens: 4, budget_bytes: 10 * 256 });
        let capacity = pool.capacity_pages();
        prop_assert_eq!(capacity, 10);
        let mut held: Vec<Vec<nt_nn::KvPage>> = Vec::new();
        for (op, n) in ops {
            match op {
                0 => {
                    let free_before = pool.free_pages();
                    match pool.alloc_pages(n) {
                        Some(pages) => {
                            prop_assert!(n <= free_before, "alloc succeeded past the free list");
                            prop_assert_eq!(pages.len(), n);
                            held.push(pages);
                        }
                        None => {
                            prop_assert!(n > free_before, "alloc refused although pages were free");
                            prop_assert!(pool.free_pages() == free_before,
                                "a refused alloc must take nothing");
                        }
                    }
                }
                _ => {
                    if !held.is_empty() {
                        let group = held.remove(n % held.len());
                        pool.release_pages(group);
                    }
                }
            }
            let outstanding: usize = held.iter().map(Vec::len).sum();
            prop_assert!(pool.used_pages() == outstanding, "pool lost track of lent pages");
            prop_assert!(
                pool.used_pages() + pool.free_pages() == capacity,
                "used + free must equal capacity"
            );
        }
        for group in held {
            pool.release_pages(group);
        }
        prop_assert!(pool.free_pages() == capacity, "pages leaked");
    }

    /// End-to-end through the real decode path: paged caches stepped by
    /// the batched forward under arbitrary join/append/truncate/evict/
    /// leave interleavings keep the pool accounting exact and tight.
    #[test]
    fn batched_session_never_leaks_or_double_frees(
        ops in proptest::collection::vec((0u8..8, 0usize..8), 1..32),
    ) {
        let (store, lm) = tiny();
        // Room for 4 full-context slots: 1 layer x ceil(16/4) = 4 pages
        // each; page_bytes = 2*4*16*4 = 512.
        let pool = PagePool::for_model(&lm, PageConfig { page_tokens: 4, budget_bytes: 16 * 512 });
        let capacity = pool.capacity_pages();
        let mut slots: Vec<(KvCache, Vec<usize>)> = Vec::new(); // (cache, shadow ids)
        let mut rng = nt_tensor::Rng::seeded(7);
        for (op, x) in ops {
            match op {
                0 | 1 => {
                    if slots.len() < 4 {
                        slots.push((KvCache::new_paged(&lm, &pool), Vec::new()));
                    }
                }
                2..=4 => {
                    // Append 1-3 fresh ids through the real batched forward
                    // (reserve -> attention extend).
                    let pick = x % slots.len().max(1);
                    if let Some((cache, ids)) = slots.get_mut(pick) {
                        let n = 1 + x % 3;
                        if ids.len() + n < lm.cfg.max_seq {
                            let fresh: Vec<usize> = (0..n).map(|_| rng.below(16)).collect();
                            let _ = lm.forward_hidden_cached(&store, &fresh, cache);
                            ids.extend(fresh);
                        }
                    }
                }
                5 => {
                    // Divergence truncate to an arbitrary prefix.
                    let pick = x % slots.len().max(1);
                    if let Some((cache, ids)) = slots.get_mut(pick) {
                        let keep = x % (ids.len() + 1);
                        cache.truncate(keep);
                        ids.truncate(keep);
                    }
                }
                6 => {
                    // Eviction: drop the whole cache, keep the slot.
                    let pick = x % slots.len().max(1);
                    if let Some((cache, ids)) = slots.get_mut(pick) {
                        cache.truncate(0);
                        ids.clear();
                    }
                }
                _ => {
                    if !slots.is_empty() {
                        drop(slots.remove(x % slots.len()));
                    }
                }
            }
            // The allocator invariants, after every single operation:
            prop_assert!(
                pool.used_pages() + pool.free_pages() == capacity,
                "used + free must equal capacity (double free or phantom page)"
            );
            prop_assert!(
                pool.used_pages() == slots.iter().map(|(c, _)| c.pages_held()).sum::<usize>(),
                "pool and page tables disagree on lent pages"
            );
            for (cache, ids) in &slots {
                prop_assert!(cache.len() == ids.len(), "cache and shadow ids disagree on length");
                prop_assert!(
                    cache.pages_held() == lm.cfg.n_layers * pool.pages_for(ids.len()),
                    "slot page table is not the tightest page-granular fit"
                );
            }
        }
        drop(slots);
        prop_assert!(pool.used_pages() == 0, "pages leaked after every session left");
        prop_assert_eq!(pool.free_pages(), capacity);
    }
}
