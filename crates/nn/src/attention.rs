//! Multi-head self-attention and the pre-norm Transformer block.
//!
//! Heads are computed with per-head 2-D matmuls (simple, and fast enough at
//! the model scales this workspace uses). Causal masking adds `-1e9` above
//! the diagonal before the softmax.
//!
//! Two execution paths share the same math:
//!
//! - [`MultiHeadAttention::forward`] — taped, differentiable, used for
//!   training and one-shot evaluation;
//! - [`MultiHeadAttention::eval_cached_batched`] — graph-free incremental
//!   decoding against per-layer [`KvStorage`] caches, one per sequence:
//!   only the *new* rows are projected, their keys/values are appended to
//!   the caches, and attention runs new-queries x all-keys. Causality is
//!   enforced by the absolute position of each new row, so the result
//!   matches a full causal forward over the concatenated sequence. One
//!   sequence is a batch of one ([`MultiHeadAttention::eval_cached`]) —
//!   there is no second kernel.
//!
//! The cached path is laid out for the `nt_tensor::attn` register tiles:
//! a cache stores its keys in channel-major blocks (`[dim][B]` per `B`
//! positions — a page of a [`PagedAttnKv`], 16 positions of an
//! [`AttnKv`]) and its values row-major:
//!
//! ```text
//!   one block of one layer: B = 4 positions p0..p3, dim = heads x dh
//!
//!   keys, channel-major [dim][B]            values, row-major [B][dim]
//!
//!     c0      p0 p1 p2 p3 ┐                       c0 .. c(dh-1) │ c(dh) ..
//!     c1      p0 p1 p2 p3 │ head 0's slab:    p0   x ..   x     │   x   ..
//!     ..      .. .. .. .. │ [dh][B],          p1   x ..   x     │   x   ..
//!     c(dh-1) p0 p1 p2 p3 ┘ contiguous        p2   x ..   x     │   x   ..
//!     c(dh)   p0 p1 p2 p3 ┐                   p3   x ..   x     │   x   ..
//!     ..      .. .. .. .. │ head 1's slab         └── head 0 ──┘ └ head 1
//! ```
//!
//! so a head's keys are one contiguous slab with positions in the lanes
//! (QKᵀ is a 4-row x 16-lane tile over it) and its values are `dh`-wide
//! row slices (PV is a 4-row x `dh` tile walking them in position order).

use crate::layers::{Init, LayerNorm, Linear, Mlp};
use crate::store::{Fwd, ParamStore};
use nt_tensor::{attn, NodeId, Rng, Tensor};

/// Storage backend for a per-layer KV cache, read by the attention core
/// one **block** at a time: block `b` covers positions `b * block_tokens
/// ..` and holds its keys channel-major (`[dim][block_tokens]`, so a
/// head's slice is one contiguous slab whose lanes are positions — the
/// layout the `nt_tensor::attn` tiles stream) and its values row-major.
/// The reference ([`AttnKv`]) and paged ([`PagedAttnKv`]) layouts differ
/// only in block width and in where a block lives; every score is its own
/// chain over the head's channels and every output element one chain over
/// ascending positions whatever the width, which keeps the two layouts
/// bit-identical (tested with `==`, not a tolerance).
pub trait KvStorage {
    /// Number of cached positions.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append raw key/value rows (`n * dim` floats each, row-major); keys
    /// are transposed into their blocks on the way in. Paged storage
    /// requires the capacity to be reserved beforehand (pages pushed by
    /// the owner) — the attention kernel never allocates.
    fn extend_rows(&mut self, k_rows: &[f32], v_rows: &[f32]);

    /// Positions per block.
    fn block_tokens(&self) -> usize;

    /// Keys of block `b`, channel-major `[dim][block_tokens]`. Lanes at or
    /// past [`KvStorage::len`] hold whatever was written there before
    /// (zeros, a truncated suffix, a page's previous tenant; NaN once a
    /// debug build truncated a [`PagedAttnKv`]): readers mask them.
    fn k_block(&self, b: usize) -> &[f32];

    /// Values of block `b`, row-major `[.., dim]`, covering at least the
    /// block's filled positions.
    fn v_block(&self, b: usize) -> &[f32];
}

/// Write row-major key `rows` (`[m, d]`) into lanes `lane0..lane0 + m` of
/// a channel-major `[d][bt]` block.
fn write_keys(block: &mut [f32], bt: usize, lane0: usize, rows: &[f32], d: usize) {
    let m = rows.len() / d;
    for (c, lanes) in block.chunks_exact_mut(bt).enumerate() {
        for (r, lane) in lanes[lane0..lane0 + m].iter_mut().enumerate() {
            *lane = rows[r * d + c];
        }
    }
}

/// How `n` rows appended at position `at` fall into blocks of `bt`
/// positions: one `(block, first lane, rows of the append)` per block
/// touched.
fn block_runs(
    at: usize,
    n: usize,
    bt: usize,
) -> impl Iterator<Item = (usize, usize, std::ops::Range<usize>)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < n).then(|| {
            let (b, lane0) = ((at + done) / bt, (at + done) % bt);
            let rows = done..n.min(done + bt - lane0);
            done = rows.end;
            (b, lane0, rows)
        })
    })
}

/// Block width of the reference cache: one 16-lane tile per block, the
/// widest the attention tiles take.
const CONTIG_BLOCK: usize = 16;

/// The reference per-layer key/value cache: flat buffers that grow by
/// `extend` and shrink by `truncate`, so an append costs `O(new x dim)`
/// and a rollback is `O(1)` — the cache itself is never copied. Serving
/// never builds one (`nt-llm`'s `KvCache` is a [`PagedAttnKv`] per
/// layer); the by-bits attention tests compare the paged storage to it.
/// Keys sit in consecutive channel-major blocks of 16 positions
/// (`CONTIG_BLOCK`), values row-major `[t, dim]`; the head split happens at
/// attention time via strided reads, same split as the taped path.
#[derive(Clone, Debug)]
pub struct AttnKv {
    /// Whole blocks, `[dim][CONTIG_BLOCK]` each.
    k: Vec<f32>,
    /// Exactly the cached rows.
    v: Vec<f32>,
    dim: usize,
}

impl AttnKv {
    /// Empty cache for a `dim`-wide layer.
    pub fn empty(dim: usize) -> Self {
        AttnKv { k: Vec::new(), v: Vec::new(), dim }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.v.len() / self.dim.max(1)
    }

    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Drop every cached position from `len` on (prefix rollback). The
    /// tail block keeps the dropped keys in its lanes past `len`.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.k.truncate(len.div_ceil(CONTIG_BLOCK) * CONTIG_BLOCK * self.dim);
            self.v.truncate(len * self.dim);
        }
    }
}

impl KvStorage for AttnKv {
    fn len(&self) -> usize {
        AttnKv::len(self)
    }

    fn extend_rows(&mut self, k_rows: &[f32], v_rows: &[f32]) {
        let d = self.dim.max(1);
        debug_assert_eq!(k_rows.len() % d, 0);
        debug_assert_eq!(k_rows.len(), v_rows.len());
        let (len, n, block) = (self.len(), k_rows.len() / d, CONTIG_BLOCK * d);
        self.k.resize((len + n).div_ceil(CONTIG_BLOCK) * block, 0.0);
        for (b, lane0, rows) in block_runs(len, n, CONTIG_BLOCK) {
            let dst = &mut self.k[b * block..(b + 1) * block];
            write_keys(dst, CONTIG_BLOCK, lane0, &k_rows[rows.start * d..rows.end * d], d);
        }
        self.v.extend_from_slice(v_rows);
    }

    fn block_tokens(&self) -> usize {
        CONTIG_BLOCK
    }

    #[inline]
    fn k_block(&self, b: usize) -> &[f32] {
        let block = CONTIG_BLOCK * self.dim;
        &self.k[b * block..(b + 1) * block]
    }

    #[inline]
    fn v_block(&self, b: usize) -> &[f32] {
        let block = CONTIG_BLOCK * self.dim;
        &self.v[b * block..self.v.len().min((b + 1) * block)]
    }
}

/// One fixed-size KV page: backing store for up to `page_tokens` cached
/// positions of one layer — one block of a [`PagedAttnKv`], keys
/// channel-major `[dim][page_tokens]` beside values row-major
/// `[page_tokens][dim]`. Pages are uniform, interchangeable buffers — a
/// free-list allocator (`nt-llm`'s `PagePool`) hands them out and takes
/// them back without clearing them; which particular buffer a session
/// receives never affects the math.
#[derive(Clone, Debug)]
pub struct KvPage {
    k: Vec<f32>,
    v: Vec<f32>,
}

impl KvPage {
    /// A zeroed page holding `page_tokens` positions of a `dim`-wide layer.
    pub fn new(page_tokens: usize, dim: usize) -> Self {
        KvPage { k: vec![0.0; page_tokens * dim], v: vec![0.0; page_tokens * dim] }
    }

    /// Bytes held by the page buffers (keys + values).
    pub fn bytes(&self) -> usize {
        (self.k.len() + self.v.len()) * 4
    }
}

/// Per-layer key/value cache backed by fixed-size [`KvPage`]s instead of
/// one contiguous buffer: position `j` lives in page `j / page_tokens` at
/// lane (keys) and row (values) `j % page_tokens`, so a session's cache
/// grows page-granularly and a truncate can hand whole pages back to the
/// pool. A page is one block of the [`KvStorage`] interface; `page_tokens`
/// is a power of two, which is what lets the attention tiles cut a block
/// into whole lane groups.
///
/// The struct owns its page *table*; page *allocation* is the owner's job
/// (`nt-llm`'s `KvCache` reserves pages from the `PagePool` before an
/// append and releases them on truncate/drop). [`KvStorage::extend_rows`]
/// therefore only writes into reserved capacity and panics on overflow.
#[derive(Debug)]
pub struct PagedAttnKv {
    pages: Vec<KvPage>,
    len: usize,
    dim: usize,
    page_tokens: usize,
}

impl PagedAttnKv {
    /// Empty paged cache for a `dim`-wide layer. `page_tokens` must be a
    /// power of two (a block is cut into whole lane groups).
    pub fn new(page_tokens: usize, dim: usize) -> Self {
        assert!(page_tokens.is_power_of_two(), "page_tokens {page_tokens} must be a power of two");
        assert!(dim > 0, "paged KV needs a positive dim");
        PagedAttnKv { pages: Vec::new(), len: 0, dim, page_tokens }
    }

    /// Positions one page holds.
    pub fn page_tokens(&self) -> usize {
        self.page_tokens
    }

    /// Positions the current page table can hold without new pages.
    pub fn capacity(&self) -> usize {
        self.pages.len() * self.page_tokens
    }

    /// Pages currently held (used + reserved-but-unfilled).
    pub fn pages_held(&self) -> usize {
        self.pages.len()
    }

    /// Hand a reserved page to this layer's table (capacity grows by
    /// `page_tokens` positions).
    pub fn push_page(&mut self, page: KvPage) {
        debug_assert_eq!(page.k.len(), self.page_tokens * self.dim, "page sized for another pool");
        self.pages.push(page);
    }

    /// Roll back to the first `len` positions. Pages are not released
    /// here — call [`PagedAttnKv::release_unused`] to pop the pages the
    /// shorter prefix no longer touches. Debug builds fill every key lane
    /// and value row at or past the new length with NaN, so released
    /// pages go back poisoned and a stale lane that reached an output
    /// would read NaN instead of a plausible number.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        #[cfg(debug_assertions)]
        {
            let (pt, d) = (self.page_tokens, self.dim);
            for (p, page) in self.pages.iter_mut().enumerate().skip(self.len / pt) {
                let lane0 = self.len.saturating_sub(p * pt);
                for lanes in page.k.chunks_exact_mut(pt) {
                    lanes[lane0..].fill(f32::NAN);
                }
                page.v[lane0 * d..].fill(f32::NAN);
            }
        }
    }

    /// Pop every page wholly past the filled prefix (for return to the
    /// pool). After this, `capacity()` is the tightest page-granular fit
    /// of `len()`.
    pub fn release_unused(&mut self) -> Vec<KvPage> {
        let needed = self.len.div_ceil(self.page_tokens);
        self.pages.split_off(needed)
    }

    /// Bytes held by the page table — whole pages, including the
    /// partially-filled tail page (the honest accounting a memory budget
    /// must charge for).
    pub fn bytes(&self) -> usize {
        self.pages.iter().map(KvPage::bytes).sum()
    }
}

impl KvStorage for PagedAttnKv {
    fn len(&self) -> usize {
        self.len
    }

    fn extend_rows(&mut self, k_rows: &[f32], v_rows: &[f32]) {
        let (d, pt) = (self.dim, self.page_tokens);
        debug_assert_eq!(k_rows.len() % d, 0);
        debug_assert_eq!(k_rows.len(), v_rows.len());
        let n = k_rows.len() / d;
        assert!(
            self.len + n <= self.capacity(),
            "paged KV overflow: {} + {n} positions exceed {} reserved (reserve pages first)",
            self.len,
            self.capacity()
        );
        for (p, lane0, rows) in block_runs(self.len, n, pt) {
            let (src, page) = (rows.start * d..rows.end * d, &mut self.pages[p]);
            write_keys(&mut page.k, pt, lane0, &k_rows[src.clone()], d);
            page.v[lane0 * d..lane0 * d + src.len()].copy_from_slice(&v_rows[src]);
        }
        self.len += n;
    }

    fn block_tokens(&self) -> usize {
        self.page_tokens
    }

    #[inline]
    fn k_block(&self, b: usize) -> &[f32] {
        &self.pages[b].k
    }

    #[inline]
    fn v_block(&self, b: usize) -> &[f32] {
        &self.pages[b].v
    }
}

/// Multi-head self-attention over `[t, d]` sequences.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    pub heads: usize,
    pub dim: usize,
}

impl MultiHeadAttention {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(dim % heads, 0, "dim {dim} not divisible by heads {heads}");
        let mk = |store: &mut ParamStore, n: &str, rng: &mut Rng| {
            Linear::new(store, &format!("{name}.{n}"), dim, dim, false, Init::Xavier, rng)
        };
        MultiHeadAttention {
            wq: mk(store, "wq", rng),
            wk: mk(store, "wk", rng),
            wv: mk(store, "wv", rng),
            wo: mk(store, "wo", rng),
            heads,
            dim,
        }
    }

    /// All four projection layers (for LoRA attachment).
    pub fn projections_mut(&mut self) -> [&mut Linear; 4] {
        [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    /// Self-attention over `x: [t, d]`; `causal` masks future positions.
    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId, causal: bool) -> NodeId {
        let t = f.g.value(x).shape()[0];
        let dh = self.dim / self.heads;
        let q = self.wq.forward(f, store, x);
        let k = self.wk.forward(f, store, x);
        let v = self.wv.forward(f, store, x);
        let mask = causal.then(|| f.input(causal_mask(t)));

        let mut head_outs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = f.g.narrow(q, 1, h * dh, dh); // [t, dh]
            let kh = f.g.narrow(k, 1, h * dh, dh);
            let vh = f.g.narrow(v, 1, h * dh, dh);
            let kt = f.g.transpose_last2(kh); // [dh, t]
            let scores = f.g.matmul(qh, kt); // [t, t]
            let scaled = f.g.scale(scores, 1.0 / (dh as f32).sqrt());
            let masked = match mask {
                Some(m) => f.g.add(scaled, m),
                None => scaled,
            };
            let attn = f.g.softmax_last(masked);
            head_outs.push(f.g.matmul(attn, vh)); // [t, dh]
        }
        let cat = f.g.concat(&head_outs, 1); // [t, d]
        self.wo.forward(f, store, cat)
    }

    /// Graph-free causal attention for `x_new: [n, d]` new rows against (and
    /// extending) one cache: [`MultiHeadAttention::eval_cached_batched`]
    /// with a single slot. The first new row sits at absolute position
    /// `kv.len()` before the call. Returns `[n, d]`.
    pub fn eval_cached<S: KvStorage>(
        &self,
        store: &ParamStore,
        x_new: &Tensor,
        kv: &mut S,
    ) -> Tensor {
        self.eval_cached_batched(store, x_new, &[x_new.shape()[0]], &mut [kv])
    }

    /// Batched graph-free causal attention over many independent cached
    /// sequences ("slots"). `x_new` stacks every slot's new rows into one
    /// `[N, d]` tensor, grouped by slot in `rows_per_slot` order (ragged:
    /// slots may contribute different row counts, including zero), and
    /// `kvs[s]` is slot `s`'s cache — each with its own prefix length.
    /// Returns `[N, d]`: the attention core the cached block runs (see
    /// [`TransformerBlock::eval_cached_batched`]), into fresh buffers.
    ///
    /// The four projections run as single `[N, d]` GEMMs across all slots
    /// (the batching win); the attention core runs per slot and per head
    /// over the cache's blocks in place, on the `nt_tensor::attn` register
    /// tiles: scores are a 4-row x 16-lane tile over each key block a row
    /// can see (one chain over the head's channels per score, scaled
    /// once — what the taped `matmul(qh, kᵀ)` then `scale` computes), the
    /// head output a 4-row x `dh` tile that walks the value blocks in
    /// position order. Causality: a row at absolute position `p` takes
    /// its softmax over keys `0..=p` only and every other lane of its
    /// score row is then set to exactly zero, which is what the taped
    /// full-mask forward's `-1e9` entries underflow to — tested against
    /// it at 1e-5 — and what keeps a block's unfilled lanes (stale keys
    /// of a truncated suffix or of a page's previous tenant) out of the
    /// value pass. Every slot reads only its own cache and each output
    /// element is one ascending-position chain, so N slots reproduce N
    /// one-slot calls (1e-6, ragged prefixes) and the reference and
    /// paged layouts, whatever their block widths, are bit-identical.
    pub fn eval_cached_batched<S: KvStorage>(
        &self,
        store: &ParamStore,
        x_new: &Tensor,
        rows_per_slot: &[usize],
        kvs: &mut [&mut S],
    ) -> Tensor {
        let scratch = &mut AttnScratch::default();
        self.attend(store, x_new.data(), rows_per_slot, rows_per_slot, kvs, scratch);
        Tensor::from_vec([x_new.shape()[0], self.dim], std::mem::take(&mut scratch.out))
    }

    /// The attention core of [`MultiHeadAttention::eval_cached_batched`]
    /// over the row-major `[N, d]` rows `x`, through `scratch`, into
    /// `scratch.out`. Every row's key and value extend its slot's cache,
    /// but only the read rows — the last `read_per_slot[s]` of slot `s`'s
    /// rows — are queried: `scratch.out` is resized to `[sum read, d]`,
    /// the read rows in slot order. A read row's output is the same bits
    /// as when every row is read: each of its elements is one chain
    /// whatever the row count.
    fn attend<S: KvStorage>(
        &self,
        store: &ParamStore,
        x: &[f32],
        rows_per_slot: &[usize],
        read_per_slot: &[usize],
        kvs: &mut [&mut S],
        scratch: &mut AttnScratch,
    ) {
        let d = self.dim;
        let total = x.len() / d;
        assert_eq!(x.len(), total * d, "attention rows must be {d} wide");
        assert_eq!(rows_per_slot.len(), kvs.len(), "one row count per slot");
        assert_eq!(rows_per_slot.iter().sum::<usize>(), total, "row counts must cover x");
        let heads = self.heads;
        let dh = d / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let AttnScratch { read, q, k: k_new, v: v_new, cat, scores, out } = scratch;
        self.wk.eval_into(store, x, total, k_new);
        self.wv.eval_into(store, x, total, v_new);
        let reads = read_per_slot.iter().sum::<usize>();
        let x_read: &[f32] = if reads == total {
            x
        } else {
            read.clear();
            for rows in read_ranges(rows_per_slot, read_per_slot) {
                read.extend_from_slice(&x[rows.start * d..rows.end * d]);
            }
            read
        };
        self.wq.eval_into(store, x_read, reads, q);

        // The PV tiles accumulate into `cat`.
        cat.clear();
        cat.resize(reads * d, 0.0);
        let (mut row0, mut q0) = (0usize, 0usize);
        for (s, kv) in kvs.iter_mut().enumerate() {
            let n = rows_per_slot[s];
            let r = read_per_slot[s];
            if n > 0 {
                let new = row0 * d..(row0 + n) * d;
                kv.extend_rows(&k_new[new.clone()], &v_new[new]);
                row0 += n;
            }
            if r == 0 {
                continue;
            }
            let t = kv.len();
            let p0 = t - r; // absolute position of the slot's first read row
            let bt = kv.block_tokens();
            let blocks = t.div_ceil(bt);
            let width = blocks * bt; // score row: every lane of every block
            if scores.len() < r * width {
                scores.resize(r * width, 0.0);
            }
            for h in 0..heads {
                let off = h * dh;
                // Row `i` sits at position `p0 + i` and sees block `b` from
                // `i >= first(b)` on; earlier rows skip the block.
                let first = |b: usize| (b * bt).saturating_sub(p0);
                for b in 0..blocks {
                    let i0 = first(b);
                    attn::qk_block(
                        &q[(q0 + i0) * d + off..],
                        d,
                        r - i0,
                        &kv.k_block(b)[off * bt..(off + dh) * bt],
                        bt,
                        scale,
                        &mut scores[i0 * width + b * bt..],
                        width,
                    );
                }
                // Row `i` over keys `0..=p0 + i`; future positions, lanes
                // past the filled length and blocks the row skipped come
                // back exactly zero.
                attn::softmax_causal(&mut scores[..r * width], width, p0 + 1);
                for b in 0..blocks {
                    let i0 = first(b);
                    attn::pv_block(
                        &scores[i0 * width + b * bt..],
                        width,
                        r - i0,
                        p0 + i0 + 1 - b * bt,
                        &kv.v_block(b)[off..],
                        d,
                        (t - b * bt).min(bt),
                        dh,
                        &mut cat[(q0 + i0) * d + off..],
                        d,
                    );
                }
            }
            q0 += r;
        }
        self.wo.eval_into(store, cat, reads, out);
    }
}

/// The stacked row range of each slot's read rows: its last `read[s]` of
/// `rows[s]` rows, slots one after another.
fn read_ranges<'a>(
    rows: &'a [usize],
    read: &'a [usize],
) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
    assert_eq!(rows.len(), read.len(), "one read count per slot");
    rows.iter().zip(read).scan(0, |end, (&n, &r)| {
        assert!(r <= n, "a slot reads {r} of its {n} rows");
        *end += n;
        Some(*end - r..*end)
    })
}

/// The buffers of the graph-free cached forward
/// ([`TransformerBlock::eval_cached_batched`]): both layer norms' output,
/// the MLP's hidden rows, each sublayer's output and the attention core's
/// gathered read rows, projections, head concat and score rows. Every
/// buffer is resized to the call's shape and fully rewritten (or
/// zero-filled where a kernel accumulates) before it is read, so a
/// workspace carries no state from one forward to the next: reusing one
/// across layers, ticks and row counts changes no bit, and only saves the
/// allocations. One forward borrows it at a time — a serving engine keeps
/// one per band of slots it runs in parallel.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The layer-norm output the next sublayer reads, `[N, d]` (`[R, d]`
    /// for the MLP, `R` = rows read).
    normed: Vec<f32>,
    /// The MLP's hidden rows, `[R, mlp_mult * d]`.
    hidden: Vec<f32>,
    /// The MLP's output before the residual add, `[R, d]`.
    out: Vec<f32>,
    attn: AttnScratch,
}

/// The attention core's buffers (see [`Workspace`]).
#[derive(Debug, Default)]
struct AttnScratch {
    /// The read rows' input, `[R, d]` (`R` = rows read), when some rows
    /// go unread.
    read: Vec<f32>,
    /// Query projection of the read rows, `[R, d]`.
    q: Vec<f32>,
    /// Key and value projections of the new rows, `[N, d]` each.
    k: Vec<f32>,
    v: Vec<f32>,
    /// Every head's output side by side, `[R, d]`.
    cat: Vec<f32>,
    /// One slot's score rows for one head, `[r, blocks * block_tokens]`.
    scores: Vec<f32>,
    /// The output projection, before the residual add, `[R, d]`.
    out: Vec<f32>,
}

/// Upper-triangular `-1e9` mask (0 on and below the diagonal).
pub fn causal_mask(t: usize) -> Tensor {
    let mut m = Tensor::zeros([t, t]);
    // By flat index: `Tensor::at_mut` builds a strides `Vec` per call.
    for (i, row) in m.data_mut().chunks_exact_mut(t.max(1)).enumerate() {
        row[i + 1..].fill(-1e9);
    }
    m
}

/// Pre-norm Transformer block: `x + attn(ln1(x))`, then `x + mlp(ln2(x))`.
#[derive(Clone, Debug)]
pub struct TransformerBlock {
    pub ln1: LayerNorm,
    pub attn: MultiHeadAttention,
    pub ln2: LayerNorm,
    pub mlp: Mlp,
    pub dropout: f32,
}

impl TransformerBlock {
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_mult: usize,
        dropout: f32,
        rng: &mut Rng,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            attn: MultiHeadAttention::new(store, &format!("{name}.attn"), dim, heads, rng),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            mlp: Mlp::new(store, &format!("{name}.mlp"), dim, dim * mlp_mult, rng),
            dropout,
        }
    }

    pub fn forward(&self, f: &mut Fwd, store: &ParamStore, x: NodeId, causal: bool) -> NodeId {
        let n1 = self.ln1.forward(f, store, x);
        let a = self.attn.forward(f, store, n1, causal);
        let a = f.g.dropout(a, self.dropout);
        let x = f.g.add(x, a);
        let n2 = self.ln2.forward(f, store, x);
        let m = self.mlp.forward(f, store, n2);
        let m = f.g.dropout(m, self.dropout);
        f.g.add(x, m)
    }

    /// Graph-free incremental forward of the block, in place: `x` stacks
    /// every slot's new rows of the residual stream (row-major `[N, d]`,
    /// grouped per `rows_per_slot`); `kvs[s]` is slot `s`'s cache for
    /// this layer, extended in place with every new row's key and value.
    /// Only the read rows — slot `s`'s last `read_per_slot[s]` rows — go
    /// on through the queries, the attention output, the MLP and both
    /// residual adds: they are moved to the front of `x`, which leaves
    /// its first `sum read` rows holding their outputs (in slot order).
    /// Returns that count. A block whose output feeds another block reads
    /// every row (`read_per_slot == rows_per_slot`); the last block of a
    /// backbone reads only the rows a head reads. Each read row is the
    /// same bits either way.
    ///
    /// Dropout is identity (inference). LayerNorm and the MLP are
    /// position-wise, so they run as single stacked passes; only
    /// attention needs the per-slot split (see
    /// [`MultiHeadAttention::eval_cached_batched`]). Every intermediate
    /// lives in `ws`. Each residual add is `x += sublayer(x)`, the same
    /// bits as the taped `x + sublayer(x)`.
    pub fn eval_cached_batched<S: KvStorage>(
        &self,
        store: &ParamStore,
        x: &mut [f32],
        rows_per_slot: &[usize],
        read_per_slot: &[usize],
        kvs: &mut [&mut S],
        ws: &mut Workspace,
    ) -> usize {
        let d = self.attn.dim;
        let Workspace { normed, hidden, out, attn } = ws;
        normed.clear();
        normed.extend_from_slice(x);
        self.ln1.eval_in_place(store, normed);
        self.attn.attend(store, normed, rows_per_slot, read_per_slot, kvs, attn);
        let mut reads = 0;
        for rows in read_ranges(rows_per_slot, read_per_slot) {
            if rows.start != reads {
                x.copy_within(rows.start * d..rows.end * d, reads * d);
            }
            reads += rows.len();
        }
        let x = &mut x[..reads * d];
        add_rows(x, &attn.out);
        normed.clear();
        normed.extend_from_slice(x);
        self.ln2.eval_in_place(store, normed);
        self.mlp.eval_into(store, normed, reads, hidden, out);
        add_rows(x, out);
        reads
    }
}

/// `x += y`, elementwise over equal lengths.
fn add_rows(x: &mut [f32], y: &[f32]) {
    assert_eq!(x.len(), y.len(), "residual add needs matching lengths");
    for (a, b) in x.iter_mut().zip(y) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_output_shape() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(1);
        let mha = MultiHeadAttention::new(&mut s, "a", 16, 4, &mut rng);
        let mut f = Fwd::eval();
        let x = f.input(Tensor::randn([6, 16], 1.0, &mut rng));
        let y = mha.forward(&mut f, &s, x, true);
        assert_eq!(f.g.value(y).shape(), &[6, 16]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert_eq!(m.at(&[0, 0]), 0.0);
        assert_eq!(m.at(&[2, 0]), 0.0);
        assert!(m.at(&[0, 2]) < -1e8);
    }

    #[test]
    fn causal_attention_ignores_future_tokens() {
        // Changing a later token must not change an earlier position's output.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(2);
        let mha = MultiHeadAttention::new(&mut s, "a", 8, 2, &mut rng);
        let base = Tensor::randn([4, 8], 1.0, &mut rng);
        let mut modified = base.clone();
        for j in 0..8 {
            *modified.at_mut(&[3, j]) += 5.0;
        }
        let run = |x: Tensor| {
            let mut f = Fwd::eval();
            let xi = f.input(x);
            let y = mha.forward(&mut f, &s, xi, true);
            f.g.value(y).clone()
        };
        let y1 = run(base);
        let y2 = run(modified);
        for pos in 0..3 {
            for j in 0..8 {
                assert!(
                    (y1.at(&[pos, j]) - y2.at(&[pos, j])).abs() < 1e-5,
                    "position {pos} leaked future information"
                );
            }
        }
        // And the last position SHOULD change.
        assert!((y1.at(&[3, 0]) - y2.at(&[3, 0])).abs() > 1e-6);
    }

    #[test]
    fn non_causal_attention_sees_everything() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(3);
        let mha = MultiHeadAttention::new(&mut s, "a", 8, 2, &mut rng);
        let base = Tensor::randn([4, 8], 1.0, &mut rng);
        let mut modified = base.clone();
        *modified.at_mut(&[3, 0]) += 5.0;
        let run = |x: Tensor| {
            let mut f = Fwd::eval();
            let xi = f.input(x);
            let y = mha.forward(&mut f, &s, xi, false);
            f.g.value(y).clone()
        };
        let y1 = run(base);
        let y2 = run(modified);
        assert!((y1.at(&[0, 0]) - y2.at(&[0, 0])).abs() > 1e-7);
    }

    #[test]
    fn cached_attention_matches_full_causal_forward() {
        // Feeding the sequence in two chunks through the KV cache must give
        // the same outputs as one taped causal forward over the whole thing.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(7);
        let mha = MultiHeadAttention::new(&mut s, "a", 16, 4, &mut rng);
        let x = Tensor::randn([6, 16], 1.0, &mut rng);

        let mut f = Fwd::eval();
        let xi = f.input(x.clone());
        let full_node = mha.forward(&mut f, &s, xi, true);
        let full = f.g.value(full_node).clone();

        let mut kv = AttnKv::empty(16);
        let first = mha.eval_cached(&s, &x.narrow(0, 0, 4), &mut kv);
        let second = mha.eval_cached(&s, &x.narrow(0, 4, 2), &mut kv);
        assert_eq!(kv.len(), 6);
        let cached = nt_tensor::concat(&[&first, &second], 0);
        for (a, b) in full.data().iter().zip(cached.data()) {
            assert!((a - b).abs() < 1e-5, "cached attention diverged: {a} vs {b}");
        }

        // The N-slot shape against the same taped rows, without passing
        // through the one-slot shape: three slots feed prefixes of `x` in
        // ragged chunks (a slot sits out a call with zero rows), and by
        // causality every output row at position `p` must equal taped
        // row `p`.
        let mut kvs: Vec<AttnKv> = (0..3).map(|_| AttnKv::empty(16)).collect();
        for chunks in [[(0, 4), (0, 1), (0, 6)], [(4, 2), (1, 3), (6, 0)], [(6, 0), (4, 2), (6, 0)]]
        {
            let parts: Vec<Tensor> = chunks.iter().map(|&(p, n)| x.narrow(0, p, n)).collect();
            let stacked = nt_tensor::concat(&parts.iter().collect::<Vec<_>>(), 0);
            let rows = chunks.map(|(_, n)| n);
            let mut refs: Vec<&mut AttnKv> = kvs.iter_mut().collect();
            let out = mha.eval_cached_batched(&s, &stacked, &rows, &mut refs);
            let positions = chunks.iter().flat_map(|&(p, n)| p..p + n);
            for (got, p) in out.data().chunks(16).zip(positions) {
                for (a, b) in got.iter().zip(&full.data()[p * 16..(p + 1) * 16]) {
                    assert!((a - b).abs() < 1e-5, "batched row at {p} diverged: {a} vs {b}");
                }
            }
        }
        assert!(kvs.iter().all(|kv| kv.len() == 6));
    }

    #[test]
    fn cached_block_matches_full_forward_row_by_row() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(8);
        let blk = TransformerBlock::new(&mut s, "b0", 16, 2, 2, 0.0, &mut rng);
        let x = Tensor::randn([5, 16], 1.0, &mut rng);

        let mut f = Fwd::eval();
        let xi = f.input(x.clone());
        let full_node = blk.forward(&mut f, &s, xi, true);
        let full = f.g.value(full_node).clone();

        let (mut kv, mut ws) = (AttnKv::empty(16), Workspace::default());
        let mut rows = Vec::new();
        for i in 0..5 {
            let mut row = x.narrow(0, i, 1);
            blk.eval_cached_batched(&s, row.data_mut(), &[1], &[1], &mut [&mut kv], &mut ws);
            rows.push(row);
        }
        let refs: Vec<&Tensor> = rows.iter().collect();
        let cached = nt_tensor::concat(&refs, 0);
        for (a, b) in full.data().iter().zip(cached.data()) {
            assert!((a - b).abs() < 1e-5, "cached block diverged: {a} vs {b}");
        }
    }

    #[test]
    fn batched_attention_matches_per_slot_unbatched_with_ragged_prefixes() {
        // Three slots with different cached prefix lengths and different
        // new-row counts must reproduce three independent one-slot calls.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(21);
        let mha = MultiHeadAttention::new(&mut s, "a", 16, 4, &mut rng);
        let prefix_lens = [0usize, 3, 7];
        let new_rows = [2usize, 1, 3];

        let mut kvs_seq: Vec<AttnKv> = prefix_lens.iter().map(|_| AttnKv::empty(16)).collect();
        for (kv, &p) in kvs_seq.iter_mut().zip(&prefix_lens) {
            if p > 0 {
                let _ = mha.eval_cached(&s, &Tensor::randn([p, 16], 0.7, &mut rng), kv);
            }
        }
        let mut kvs_bat = kvs_seq.clone();

        let news: Vec<Tensor> =
            new_rows.iter().map(|&n| Tensor::randn([n, 16], 0.7, &mut rng)).collect();
        let seq_outs: Vec<Tensor> =
            news.iter().zip(kvs_seq.iter_mut()).map(|(x, kv)| mha.eval_cached(&s, x, kv)).collect();

        let refs: Vec<&Tensor> = news.iter().collect();
        let stacked = nt_tensor::concat(&refs, 0);
        let mut kv_refs: Vec<&mut AttnKv> = kvs_bat.iter_mut().collect();
        let bat = mha.eval_cached_batched(&s, &stacked, &new_rows, &mut kv_refs);

        let mut row = 0usize;
        for (slot, out) in seq_outs.iter().enumerate() {
            for (i, want_row) in out.data().chunks(16).enumerate() {
                for (j, want) in want_row.iter().enumerate() {
                    let got = bat.at(&[row + i, j]);
                    assert!(
                        (got - want).abs() < 1e-6,
                        "slot {slot} row {i} col {j}: batched {got} vs unbatched {want}"
                    );
                }
            }
            row += new_rows[slot];
        }
        // Caches must have advanced identically too.
        for (a, b) in kvs_seq.iter().zip(&kvs_bat) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn batched_block_skips_empty_slots() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(22);
        let blk = TransformerBlock::new(&mut s, "b0", 16, 2, 2, 0.0, &mut rng);
        let x = Tensor::randn([4, 16], 1.0, &mut rng);
        let mut kv_a = AttnKv::empty(16);
        let mut kv_idle = AttnKv::empty(16);
        let mut kv_b = AttnKv::empty(16);
        let mut kvs: Vec<&mut AttnKv> = vec![&mut kv_a, &mut kv_idle, &mut kv_b];
        let mut out = x.clone();
        let rows = [3, 0, 1];
        blk.eval_cached_batched(
            &s,
            out.data_mut(),
            &rows,
            &rows,
            &mut kvs,
            &mut Workspace::default(),
        );
        assert_eq!(kv_a.len(), 3);
        assert_eq!(kv_idle.len(), 0, "idle slot must not grow");
        assert_eq!(kv_b.len(), 1);

        // And the non-empty slots must match their unbatched equivalents.
        let mut s2_kv = AttnKv::empty(16);
        let mut want = x.narrow(0, 3, 1);
        let ws = &mut Workspace::default();
        blk.eval_cached_batched(&s, want.data_mut(), &[1], &[1], &mut [&mut s2_kv], ws);
        for (a, b) in out.narrow(0, 3, 1).data().iter().zip(want.data()) {
            assert!((a - b).abs() < 1e-6, "slot after idle diverged: {a} vs {b}");
        }
    }

    /// Every cached row of `kv` read back out as row-major `(keys,
    /// values)`, `len * dim` floats each.
    fn to_rows(kv: &impl KvStorage) -> (Vec<f32>, Vec<f32>) {
        let (len, bt) = (kv.len(), kv.block_tokens());
        let (mut k, mut v) = (Vec::new(), Vec::new());
        for b in 0..len.div_ceil(bt) {
            let filled = (len - b * bt).min(bt);
            let kb = kv.k_block(b);
            let d = kb.len() / bt;
            for lane in 0..filled {
                k.extend(kb.iter().skip(lane).step_by(bt));
            }
            v.extend_from_slice(&kv.v_block(b)[..filled * d]);
        }
        (k, v)
    }

    /// Hand `kv` enough pages for `upto` positions (the allocator's job in
    /// production — `nt-llm`'s `KvCache::reserve`).
    fn give_pages(kv: &mut PagedAttnKv, upto: usize, dim: usize) {
        while kv.capacity() < upto {
            kv.push_page(KvPage::new(kv.page_tokens(), dim));
        }
    }

    #[test]
    fn paged_attention_is_bit_identical_to_contiguous() {
        // Same rows through the contiguous and the paged storage must give
        // byte-for-byte equal outputs: both run the same tiles, every
        // score and every output element is one chain whatever the block
        // width, only where a block lives differs. Page size 4 with 6+2
        // rows exercises page-boundary crossings mid-append; the other
        // sizes put the paged block width below, at and above the
        // contiguous cache's 16.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(31);
        let mha = MultiHeadAttention::new(&mut s, "a", 16, 4, &mut rng);
        let x = Tensor::randn([8, 16], 1.0, &mut rng);

        for page_tokens in [4usize, 1, 2, 8, 16, 32] {
            let mut flat = AttnKv::empty(16);
            let mut paged = PagedAttnKv::new(page_tokens, 16);
            give_pages(&mut paged, 8, 16);

            let f1 = mha.eval_cached(&s, &x.narrow(0, 0, 6), &mut flat);
            let p1 = mha.eval_cached(&s, &x.narrow(0, 0, 6), &mut paged);
            assert_eq!(f1.data(), p1.data(), "paged first chunk must be bit-identical");
            let f2 = mha.eval_cached(&s, &x.narrow(0, 6, 2), &mut flat);
            let p2 = mha.eval_cached(&s, &x.narrow(0, 6, 2), &mut paged);
            assert_eq!(f2.data(), p2.data(), "paged second chunk must be bit-identical");
            assert_eq!(KvStorage::len(&paged), 8);
            assert_eq!(paged.pages_held(), 8usize.div_ceil(page_tokens));
            let ((fk, fv), (pk, pv)) = (to_rows(&flat), to_rows(&paged));
            for j in 0..8 {
                let row = j * 16..(j + 1) * 16;
                assert_eq!(fk[row.clone()], pk[row.clone()], "key row {j} diverged");
                assert_eq!(fv[row.clone()], pv[row], "value row {j} diverged");
            }
        }
    }

    #[test]
    fn paged_batched_attention_is_bit_identical_to_contiguous() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(32);
        let mha = MultiHeadAttention::new(&mut s, "a", 16, 4, &mut rng);
        let prefix_lens = [0usize, 5, 9];
        let new_rows = [2usize, 1, 3];

        for page_tokens in [4usize, 1, 2, 8, 16, 32] {
            let mut flats: Vec<AttnKv> = prefix_lens.iter().map(|_| AttnKv::empty(16)).collect();
            let mut pageds: Vec<PagedAttnKv> =
                prefix_lens.iter().map(|_| PagedAttnKv::new(page_tokens, 16)).collect();
            for ((flat, paged), &p) in flats.iter_mut().zip(pageds.iter_mut()).zip(&prefix_lens) {
                give_pages(paged, p + 4, 16);
                if p > 0 {
                    let warm = Tensor::randn([p, 16], 0.7, &mut rng);
                    let a = mha.eval_cached(&s, &warm, flat);
                    let b = mha.eval_cached(&s, &warm, paged);
                    assert_eq!(a.data(), b.data());
                }
            }
            let news: Vec<Tensor> =
                new_rows.iter().map(|&n| Tensor::randn([n, 16], 0.7, &mut rng)).collect();
            let refs: Vec<&Tensor> = news.iter().collect();
            let stacked = nt_tensor::concat(&refs, 0);
            let mut flat_refs: Vec<&mut AttnKv> = flats.iter_mut().collect();
            let want = mha.eval_cached_batched(&s, &stacked, &new_rows, &mut flat_refs);
            let mut paged_refs: Vec<&mut PagedAttnKv> = pageds.iter_mut().collect();
            let got = mha.eval_cached_batched(&s, &stacked, &new_rows, &mut paged_refs);
            assert_eq!(want.data(), got.data(), "paged batched attention must be bit-identical");
        }
    }

    /// A channel-major block is scored a whole lane group at a time,
    /// lanes past the filled length included, and those hold whatever
    /// was written there before: a truncated suffix, or the previous
    /// tenant of a recycled page. Row-major storage never touched a row
    /// at or past `len`; here the mask after the softmax is what keeps
    /// them out. Fill those lanes with NaN every way they can be filled:
    /// the outputs must equal a fresh cache's by bits.
    #[test]
    fn stale_lanes_of_a_truncated_or_recycled_block_never_reach_the_output() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(33);
        let mha = MultiHeadAttention::new(&mut s, "a", 16, 4, &mut rng);
        let x = Tensor::randn([7, 16], 1.0, &mut rng);
        let nan = vec![f32::NAN; 11 * 16];

        // Five rows, then two, on a cache `prepare`d some stale way; and
        // five rows, a NaN suffix truncated away mid-block, then one row
        // (shorter than what was dropped).
        fn serve<S: KvStorage>(
            mha: &MultiHeadAttention,
            s: &ParamStore,
            x: &Tensor,
            nan: &[f32],
            kv: &mut S,
            truncate: fn(&mut S, usize),
            mid_block: bool,
        ) -> Vec<u32> {
            let mut out = mha.eval_cached(s, &x.narrow(0, 0, 5), kv).into_data();
            if mid_block {
                kv.extend_rows(&nan[..3 * 16], &nan[..3 * 16]);
                truncate(kv, 5);
                out.extend(mha.eval_cached(s, &x.narrow(0, 5, 1), kv).into_data());
            } else {
                out.extend(mha.eval_cached(s, &x.narrow(0, 5, 2), kv).into_data());
            }
            assert!(out.iter().all(|v| v.is_finite()), "a stale lane reached the output");
            out.iter().map(|v| v.to_bits()).collect()
        }

        for mid_block in [false, true] {
            let flat = |kv: &mut AttnKv| serve(&mha, &s, &x, &nan, kv, AttnKv::truncate, mid_block);
            let paged = |kv: &mut PagedAttnKv| {
                serve(&mha, &s, &x, &nan, kv, PagedAttnKv::truncate, mid_block)
            };
            let want = flat(&mut AttnKv::empty(16));

            let mut kv = AttnKv::empty(16);
            kv.extend_rows(&nan, &nan);
            kv.truncate(0);
            assert_eq!(flat(&mut kv), want, "contiguous, NaN rows truncated away");

            for page_tokens in [4usize, 16] {
                let mut fresh = PagedAttnKv::new(page_tokens, 16);
                give_pages(&mut fresh, 11, 16);
                assert_eq!(paged(&mut fresh), want, "paged, fresh pages");

                let mut kv = PagedAttnKv::new(page_tokens, 16);
                give_pages(&mut kv, 11, 16);
                kv.extend_rows(&nan, &nan);
                kv.truncate(0);
                assert_eq!(paged(&mut kv), want, "paged, NaN rows truncated away");

                // The same pages through the pool's round trip: released
                // as they are, handed to the next tenant uncleared.
                kv.truncate(0);
                kv.extend_rows(&nan, &nan);
                kv.truncate(0);
                let mut tenant = PagedAttnKv::new(page_tokens, 16);
                for page in kv.release_unused() {
                    tenant.push_page(page);
                }
                assert_eq!(paged(&mut tenant), want, "paged, pages recycled from a NaN tenant");
            }
        }
    }

    #[test]
    fn paged_truncate_releases_whole_pages_only() {
        let mut kv = PagedAttnKv::new(4, 2);
        give_pages(&mut kv, 12, 2);
        let rows: Vec<f32> = (0..20).map(|x| x as f32).collect();
        kv.extend_rows(&rows, &rows); // 10 positions across 3 pages
        assert_eq!((KvStorage::len(&kv), kv.pages_held()), (10, 3));
        kv.truncate(5); // tail page empty, middle page half-filled
        let freed = kv.release_unused();
        assert_eq!(freed.len(), 1, "only the wholly-unused page is released");
        assert_eq!((KvStorage::len(&kv), kv.pages_held(), kv.capacity()), (5, 2, 8));
        assert_eq!(to_rows(&kv).0[4 * 2..], [8.0, 9.0], "kept rows survive the release");
        kv.truncate(0);
        assert_eq!(kv.release_unused().len(), 2);
        assert_eq!(kv.bytes(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_truncate_poisons_every_lane_past_len() {
        let mut kv = PagedAttnKv::new(4, 2);
        give_pages(&mut kv, 12, 2);
        let rows: Vec<f32> = (0..20).map(|x| x as f32).collect();
        kv.extend_rows(&rows, &rows); // 10 positions across 3 pages
        kv.truncate(5);
        for pos in 0..12 {
            let (b, lane) = (pos / 4, pos % 4);
            let keys: Vec<f32> = kv.k_block(b).iter().skip(lane).step_by(4).copied().collect();
            let vals = &kv.v_block(b)[lane * 2..(lane + 1) * 2];
            if pos < 5 {
                assert_eq!((&keys[..], vals), (&rows[pos * 2..][..2], &rows[pos * 2..][..2]));
            } else {
                assert!(keys.iter().chain(vals).all(|x| x.is_nan()), "position {pos} not poisoned");
            }
        }
        let released = kv.release_unused();
        assert_eq!(released.len(), 1);
        assert!(released.iter().all(|p| p.k.iter().chain(&p.v).all(|x| x.is_nan())));
    }

    #[test]
    #[should_panic(expected = "paged KV overflow")]
    fn paged_append_without_reserved_pages_panics() {
        let mut kv = PagedAttnKv::new(4, 2);
        kv.extend_rows(&[1.0, 2.0], &[3.0, 4.0]);
    }

    #[test]
    fn kv_truncate_rolls_back_positions() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(9);
        let mha = MultiHeadAttention::new(&mut s, "a", 8, 2, &mut rng);
        let x = Tensor::randn([4, 8], 1.0, &mut rng);
        let mut kv = AttnKv::empty(8);
        let _ = mha.eval_cached(&s, &x.narrow(0, 0, 2), &mut kv);
        let y_first = mha.eval_cached(&s, &x.narrow(0, 2, 2), &mut kv);
        kv.truncate(2);
        let y_again = mha.eval_cached(&s, &x.narrow(0, 2, 2), &mut kv);
        assert_eq!(y_first.data(), y_again.data(), "truncate must restore the prefix state");
    }

    #[test]
    fn transformer_block_is_differentiable() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(4);
        let blk = TransformerBlock::new(&mut s, "b0", 16, 2, 2, 0.0, &mut rng);
        let mut f = Fwd::eval();
        let x = f.input(Tensor::randn([5, 16], 1.0, &mut rng));
        let y = blk.forward(&mut f, &s, x, true);
        let l = f.g.mean_all(y);
        let grads = f.backward(l);
        assert!(grads.len() >= 10, "all block params should get grads, got {}", grads.len());
        for (_, g) in &grads {
            assert!(!g.has_non_finite(), "non-finite gradient");
        }
    }
}
