//! N-slots-vs-one-slot attention equivalence sweep over adversarial head
//! widths and ragged slot shapes. Both are shapes through one cached
//! core (`eval_cached` is `eval_cached_batched` of one), so a batched
//! step must reproduce per-slot steps at 1e-6 across every way a head
//! width is cut into value-pass tiles (16, 12, 8, 6 channels, then single
//! columns), with prefix lengths and new-row counts straddling the row
//! quad of 4 and the 16-position key block.

use nt_nn::attention::{AttnKv, MultiHeadAttention};
use nt_nn::store::ParamStore;
use nt_tensor::{Rng, Tensor};

#[test]
fn batched_matches_unbatched_across_head_widths_and_ragged_shapes() {
    // (dim, heads): head widths 3, 7, 8, 12, 17, 24, 10 — single columns
    // only, 6 + 1, one 8-tile, one 12-tile, 16 + 1, and two widths that
    // take more than one wide pass: 16 + 8 and 8 + 1 + 1.
    for (dim, heads) in [(3usize, 1usize), (7, 1), (16, 2), (24, 2), (17, 1), (24, 1), (10, 1)] {
        let mut store = ParamStore::new();
        let mut rng = Rng::seeded(71 + dim as u64);
        let mha = MultiHeadAttention::new(&mut store, "a", dim, heads, &mut rng);
        // Ragged slots: empty prefix, mid-quad, quad boundary, past it,
        // and new rows that run across the end of a key block.
        let prefix_lens = [0usize, 3, 4, 9, 14];
        let new_rows = [2usize, 1, 4, 3, 5];

        let mut kvs_seq: Vec<AttnKv> = prefix_lens.iter().map(|_| AttnKv::empty(dim)).collect();
        for (kv, &p) in kvs_seq.iter_mut().zip(&prefix_lens) {
            if p > 0 {
                let _ = mha.eval_cached(&store, &Tensor::randn([p, dim], 0.7, &mut rng), kv);
            }
        }
        let mut kvs_bat = kvs_seq.clone();

        let news: Vec<Tensor> =
            new_rows.iter().map(|&n| Tensor::randn([n, dim], 0.7, &mut rng)).collect();
        let seq_outs: Vec<Tensor> = news
            .iter()
            .zip(kvs_seq.iter_mut())
            .map(|(x, kv)| mha.eval_cached(&store, x, kv))
            .collect();

        let refs: Vec<&Tensor> = news.iter().collect();
        let stacked = nt_tensor::concat(&refs, 0);
        let mut kv_refs: Vec<&mut AttnKv> = kvs_bat.iter_mut().collect();
        let bat = mha.eval_cached_batched(&store, &stacked, &new_rows, &mut kv_refs);

        let mut row = 0usize;
        for (slot, out) in seq_outs.iter().enumerate() {
            for (i, want_row) in out.data().chunks(dim).enumerate() {
                for (j, want) in want_row.iter().enumerate() {
                    let got = bat.at(&[row + i, j]);
                    assert!(
                        (got - want).abs() < 1e-6,
                        "dim {dim} heads {heads} slot {slot} row {i} col {j}: \
                         batched {got} vs unbatched {want}"
                    );
                }
            }
            row += new_rows[slot];
        }
        for (a, b) in kvs_seq.iter().zip(&kvs_bat) {
            assert_eq!(a.len(), b.len(), "dim {dim}: caches advanced differently");
        }
    }
}
