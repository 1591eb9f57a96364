//! The decoder-only Transformer backbone ("TinyLM").
//!
//! This is the stand-in for Llama2/OPT/Mistral in the reproduction: a causal
//! Transformer with learned positional embeddings, an LM head for the token
//! pathway, and two extra entry points NetLLM needs:
//!
//! - [`TinyLm::forward_embeddings`] — run the backbone over *pre-embedded*
//!   inputs (the multimodal encoder's token-like embeddings), returning
//!   hidden states for the networking head;
//! - [`TinyLm::attach_lora`] — freeze the backbone and attach low-rank
//!   adapters to every projection, the DD-LRNA parameter budget.
//!
//! Generation decodes incrementally against a [`KvCache`]: each emitted
//! token appends one position per layer instead of re-running the whole
//! sequence, and [`DecodeSession`] reuses the longest shared prefix across
//! calls. Every cache is one page table per layer; a [`PagePool`] only
//! decides who lends the pages (without one, the cache mints its own), so
//! one batched forward takes any mix of caches. The per-answer *inference
//! count* of the Figure 2 latency account is unchanged — token decoding
//! still costs one backbone inference per token, each inference is just no
//! longer quadratic in the prompt. The uncached
//! [`TinyLm::next_token_logits`] is kept as the reference path;
//! `nt-bench`'s `latency` bench and the logits-equivalence tests compare
//! the two.

use crate::paged::PagePool;
use crate::tokenizer::EOS;
use nt_nn::{
    Embedding, Fwd, Init, KvPage, KvStorage, LayerNorm, Linear, PagedAttnKv, ParamStore,
    TransformerBlock, Workspace,
};
use nt_tensor::{NodeId, Rng, Tensor};
use serde::{Deserialize, Serialize};

/// Architecture hyper-parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LmConfig {
    pub vocab: usize,
    pub d_model: usize,
    pub n_layers: usize,
    pub n_heads: usize,
    pub mlp_mult: usize,
    pub max_seq: usize,
    pub dropout: f32,
}

impl LmConfig {
    /// The default backbone used when none is specified (the "Llama2-7B" of
    /// the reproduction). `max_seq` leaves room for the prompt-learning
    /// templates of the Figure 2 comparison (position table only; attention
    /// cost scales with actual sequence length).
    pub fn base(vocab: usize) -> Self {
        LmConfig {
            vocab,
            d_model: 48,
            n_layers: 2,
            n_heads: 4,
            mlp_mult: 4,
            max_seq: 160,
            dropout: 0.0,
        }
    }
}

/// Decoder-only causal Transformer with LM head.
pub struct TinyLm {
    pub cfg: LmConfig,
    pub tok_emb: Embedding,
    pub pos_emb: Embedding,
    pub blocks: Vec<TransformerBlock>,
    pub ln_f: LayerNorm,
    pub lm_head: Linear,
}

/// Positions per page of a pool-less cache: the widest attention tile,
/// which is also the block width of `nt-nn`'s reference storage.
const OWN_PAGE_TOKENS: usize = 16;

/// Per-layer key/value cache for incremental decoding. Filling position `t`
/// costs `O(t)` attention instead of the `O(t^2)` of a full re-forward, and
/// the cache is the *only* state the incremental path carries — weights stay
/// in the [`ParamStore`] untouched.
///
/// Every cache is a page table per layer ([`PagedAttnKv`]); a pool only
/// decides who lends the pages. [`KvCache::new_paged`] borrows them from a
/// [`PagePool`] — appends reserve pages, truncate/clear/drop return them,
/// so total KV across a pool's sessions is hard-bounded by its budget.
/// [`KvCache::new`] mints its own 16-position pages and keeps them as
/// capacity across truncate/clear, so a re-anchor allocates nothing.
pub struct KvCache {
    layers: Vec<PagedAttnKv>,
    /// Lender of every page; `None` when the cache mints its own.
    pool: Option<PagePool>,
    dim: usize,
}

impl KvCache {
    /// Empty pool-less cache shaped for `lm`.
    pub fn new(lm: &TinyLm) -> Self {
        KvCache::build(lm, None)
    }

    /// Empty cache shaped for `lm`, backed by pages from `pool`. Appends
    /// allocate pages ([`KvCache::reserve`] runs inside the forward
    /// paths); truncate, clear and drop return them.
    pub fn new_paged(lm: &TinyLm, pool: &PagePool) -> Self {
        assert_eq!(
            pool.dim(),
            lm.cfg.d_model,
            "page pool sized for dim {} cannot back a dim-{} model",
            pool.dim(),
            lm.cfg.d_model
        );
        KvCache::build(lm, Some(pool.clone()))
    }

    fn build(lm: &TinyLm, pool: Option<PagePool>) -> Self {
        let page_tokens = pool.as_ref().map_or(OWN_PAGE_TOKENS, PagePool::page_tokens);
        KvCache {
            layers: (0..lm.cfg.n_layers)
                .map(|_| PagedAttnKv::new(page_tokens, lm.cfg.d_model))
                .collect(),
            pool,
            dim: lm.cfg.d_model,
        }
    }

    /// Whether `pool` lends this cache its pages (`None`: whether the
    /// cache is pool-less). Pages never change lenders.
    pub fn draws_from(&self, pool: Option<&PagePool>) -> bool {
        match (&self.pool, pool) {
            (None, None) => true,
            (Some(own), Some(p)) => own.same_pool(p),
            _ => false,
        }
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.layers.first().map_or(0, KvStorage::len)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forget everything (a pool-backed cache returns every page).
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Roll back to the first `len` positions (prefix reuse after a
    /// divergence or a speculative suffix). Pages the shorter prefix no
    /// longer touches go straight back to the pool, if there is one.
    pub fn truncate(&mut self, len: usize) {
        for kv in &mut self.layers {
            kv.truncate(len);
            if let Some(pool) = &self.pool {
                pool.release_pages(kv.release_unused());
            }
        }
    }

    /// Bytes held by cached keys/values across all layers. Pool-backed
    /// caches charge whole pages (including a partially-filled tail page)
    /// — the honest number a memory budget accounts for; pool-less ones
    /// charge the filled rows.
    pub fn bytes(&self) -> usize {
        match self.pool {
            Some(_) => self.layers.iter().map(PagedAttnKv::bytes).sum(),
            None => self.layers.len() * 2 * self.len() * self.dim * 4,
        }
    }

    /// Pool pages held across all layers (0 for a pool-less cache).
    pub fn pages_held(&self) -> usize {
        match self.pool {
            Some(_) => self.layers.iter().map(PagedAttnKv::pages_held).sum(),
            None => 0,
        }
    }

    /// Pool pages this cache would have to allocate to append `rows` more
    /// positions (0 for a pool-less cache).
    pub fn pages_needed(&self, rows: usize) -> usize {
        let Some(pool) = &self.pool else { return 0 };
        let want = pool.pages_for(self.len() + rows);
        self.layers.iter().map(|l| want.saturating_sub(l.pages_held())).sum()
    }

    /// Ensure capacity for `rows` more positions in every layer: pages
    /// from the pool (all layers, all-or-nothing), or minted by a
    /// pool-less cache. The forward paths call this; it panics when the
    /// pool is exhausted, which serving layers prevent by evicting or
    /// deferring ahead of the step.
    pub fn reserve(&mut self, rows: usize) {
        let need = self.pages_needed(rows);
        let mut lent = match &self.pool {
            Some(pool) if need > 0 => pool.alloc_pages(need).unwrap_or_else(|| {
                panic!(
                    "KV page pool exhausted: need {need} pages for {rows} more rows, {} free \
                     of {} (raise the budget, evict sessions, or defer admission)",
                    pool.free_pages(),
                    pool.capacity_pages()
                )
            }),
            _ => Vec::new(),
        };
        let upto = self.len() + rows;
        for layer in &mut self.layers {
            while layer.capacity() < upto {
                let page = match &self.pool {
                    Some(_) => lent.pop().expect("allocation covered every layer"),
                    None => KvPage::new(OWN_PAGE_TOKENS, self.dim),
                };
                layer.push_page(page);
            }
        }
    }
}

impl Drop for KvCache {
    /// A dropped pool-backed cache returns every page — leave/recycle can
    /// never leak pool capacity.
    fn drop(&mut self) {
        if self.pool.is_some() {
            self.clear();
        }
    }
}

/// A token-pathway decode session: the cache plus the ids it was built
/// from, so repeated [`TinyLm::next_token_logits_cached`] calls reuse the
/// longest shared prefix automatically.
pub struct DecodeSession {
    cache: KvCache,
    ids: Vec<usize>,
}

impl DecodeSession {
    /// Ids currently materialised in the cache.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Roll back to the longest prefix shared with `ids` and record `ids`
    /// as the contents; returns the shared length, so `ids[shared..]` is
    /// what the caller pushes through the backbone. The hidden state of
    /// the last shared position is not cached as an output, so at least
    /// the final token is always left to recompute.
    fn rewind_to(&mut self, ids: &[usize]) -> usize {
        let shared = self.ids.iter().zip(ids).take_while(|(a, b)| a == b).count();
        let shared = shared.min(ids.len() - 1);
        self.cache.truncate(shared);
        self.ids.truncate(shared);
        self.ids.extend_from_slice(&ids[shared..]);
        shared
    }
}

/// A slot registry with stable ids: the bookkeeping a batched server
/// needs — smallest-free-id admission, removal that never disturbs other
/// slots, and distinct `&mut` extraction for a batch of ids. Backs
/// `nt-netllm`'s `ServingEngine`.
pub struct SlotMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for SlotMap<T> {
    fn default() -> Self {
        SlotMap { slots: Vec::new() }
    }
}

impl<T> SlotMap<T> {
    /// Empty registry.
    pub fn new() -> Self {
        SlotMap { slots: Vec::new() }
    }

    /// Insert, returning the stable id (smallest free, recycled after
    /// [`SlotMap::remove`]).
    pub fn insert(&mut self, value: T) -> usize {
        match self.slots.iter().position(Option::is_none) {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// Remove a slot, freeing its id. Panics when the id is not live.
    pub fn remove(&mut self, id: usize) -> T {
        self.slots[id].take().unwrap_or_else(|| panic!("slot {id} is not live"))
    }

    /// Live slot count.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Shared access to a live slot (panics otherwise).
    pub fn get(&self, id: usize) -> &T {
        self.slots.get(id).and_then(Option::as_ref).expect("slot not live")
    }

    /// Exclusive access to a live slot (panics otherwise).
    pub fn get_mut(&mut self, id: usize) -> &mut T {
        self.slots.get_mut(id).and_then(Option::as_mut).expect("slot not live")
    }

    /// Iterate over live slots.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Iterate over live slots with their stable ids — the enumeration an
    /// eviction policy walks to pick a victim (coldest, heaviest, …).
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }

    /// Distinct `&mut` per requested id, in request order. Panics when an
    /// id is not live or appears twice — the invariant a batched step
    /// relies on.
    pub fn get_distinct_mut(&mut self, ids: impl Iterator<Item = usize>) -> Vec<&mut T> {
        let mut by_id: Vec<Option<&mut T>> = self.slots.iter_mut().map(|o| o.as_mut()).collect();
        ids.map(|id| {
            by_id
                .get_mut(id)
                .and_then(Option::take)
                .unwrap_or_else(|| panic!("slot {id} not live (or duplicated in batch)"))
        })
        .collect()
    }
}

impl TinyLm {
    /// Build with fresh random weights. All parameters are prefixed `llm.`
    /// so they can be frozen as a group.
    pub fn new(store: &mut ParamStore, cfg: LmConfig, rng: &mut Rng) -> Self {
        let tok_emb = Embedding::new(store, "llm.tok", cfg.vocab, cfg.d_model, rng);
        let pos_emb = Embedding::new(store, "llm.pos", cfg.max_seq, cfg.d_model, rng);
        let blocks = (0..cfg.n_layers)
            .map(|l| {
                TransformerBlock::new(
                    store,
                    &format!("llm.block{l}"),
                    cfg.d_model,
                    cfg.n_heads,
                    cfg.mlp_mult,
                    cfg.dropout,
                    rng,
                )
            })
            .collect();
        let ln_f = LayerNorm::new(store, "llm.ln_f", cfg.d_model);
        let lm_head =
            Linear::new(store, "llm.lm_head", cfg.d_model, cfg.vocab, false, Init::Xavier, rng);
        TinyLm { cfg, tok_emb, pos_emb, blocks, ln_f, lm_head }
    }

    /// Freeze the whole backbone (pre-trained knowledge is preserved) and
    /// attach rank-`r` LoRA adapters to every attention and MLP projection.
    /// Returns the number of trainable adapter parameters added.
    pub fn attach_lora(
        &mut self,
        store: &mut ParamStore,
        r: usize,
        alpha: f32,
        rng: &mut Rng,
    ) -> usize {
        store.freeze_prefix("llm.");
        let before = store.num_trainable();
        for blk in &mut self.blocks {
            for lin in blk.attn.projections_mut() {
                lin.attach_lora(store, r, alpha, rng);
            }
            blk.mlp.up.attach_lora(store, r, alpha, rng);
            blk.mlp.down.attach_lora(store, r, alpha, rng);
        }
        store.num_trainable() - before
    }

    /// Remove all adapters (the "no domain knowledge" ablation of Fig 13).
    pub fn detach_lora(&mut self) {
        for blk in &mut self.blocks {
            for lin in blk.attn.projections_mut() {
                lin.detach_lora();
            }
            blk.mlp.up.detach_lora();
            blk.mlp.down.detach_lora();
        }
    }

    /// Backbone over token ids -> hidden states `[t, d_model]`.
    pub fn forward_hidden(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        assert!(!ids.is_empty(), "empty input sequence");
        assert!(
            ids.len() <= self.cfg.max_seq,
            "sequence {} exceeds max_seq {}",
            ids.len(),
            self.cfg.max_seq
        );
        let emb = self.tok_emb.forward(f, store, ids);
        self.backbone(f, store, emb, ids.len())
    }

    /// Backbone over already-embedded inputs `[t, d_model]` (the NetLLM
    /// multimodal pathway).
    pub fn forward_embeddings(&self, f: &mut Fwd, store: &ParamStore, emb: NodeId) -> NodeId {
        let t = f.g.value(emb).shape()[0];
        assert!(t <= self.cfg.max_seq, "sequence {t} exceeds max_seq {}", self.cfg.max_seq);
        self.backbone(f, store, emb, t)
    }

    fn backbone(&self, f: &mut Fwd, store: &ParamStore, emb: NodeId, t: usize) -> NodeId {
        let pos: Vec<usize> = (0..t).collect();
        let p = self.pos_emb.forward(f, store, &pos);
        let mut x = f.g.add(emb, p);
        for blk in &self.blocks {
            x = blk.forward(f, store, x, true);
        }
        self.ln_f.forward(f, store, x)
    }

    /// Token logits `[t, vocab]`.
    pub fn forward_logits(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        let h = self.forward_hidden(f, store, ids);
        self.lm_head.forward(f, store, h)
    }

    /// Next-token logits for the last position only, by full re-forward on
    /// the inference tape ([`Fwd::eval`]). This is the uncached reference
    /// path; production decoding goes through
    /// [`TinyLm::next_token_logits_cached`]. The tape's bookkeeping is small
    /// next to the re-forward itself, so the cached-vs-uncached benches
    /// compare incremental decode against re-forward, not bookkeeping.
    pub fn next_token_logits(&self, store: &ParamStore, ids: &[usize]) -> Tensor {
        let mut f = Fwd::eval();
        let h = self.forward_hidden(&mut f, store, ids);
        let t = f.g.value(h).shape()[0];
        let last = f.g.narrow(h, 0, t - 1, 1);
        let logits = self.lm_head.forward(&mut f, store, last);
        f.g.value(logits).clone()
    }

    /// The incremental backbone forward — the only cached one; a single
    /// sequence is a batch of one — over *pre-embedded* new rows of
    /// independent sequences. `emb_new` stacks every slot's new rows
    /// (`[N, d_model]`, grouped per `rows_per_slot`); `caches[s]` holds
    /// slot `s`'s KV state and may sit at any prefix length (ragged), its
    /// first new row taking absolute position `caches[s].len()`. Every
    /// new row extends its cache in every layer.
    ///
    /// Returns hidden states `[R, d_model]` for the read rows only — the
    /// last `read_per_slot[s]` of slot `s`'s new rows, `R` their sum — in
    /// slot order: a head reads a suffix of what its slot appends, and a
    /// later step needs only an unread row's keys and values. So the last
    /// block runs LN1 and the key/value projections over all `N` rows, and
    /// the queries, attention, output projection, MLP and `ln_f` over the
    /// read rows alone (a slot reading none costs only its keys and
    /// values there); the blocks before it run every row. A read row
    /// comes back with the same bits as when every row is read
    /// (`read_per_slot == rows_per_slot`).
    ///
    /// The projections, MLPs and layer-norms run as single stacked passes
    /// over the rows — one GEMM instead of one per sequence — which is
    /// where batched serving earns its throughput. `emb_new` becomes the
    /// residual stream: the position rows are added into it, every block
    /// and `ln_f` update it in place, and it comes back as the hidden
    /// states. Every intermediate lives in `ws`, which the caller reuses
    /// across forwards (it holds no state between them).
    pub fn forward_embeddings_cached_batched(
        &self,
        store: &ParamStore,
        emb_new: Tensor,
        rows_per_slot: &[usize],
        read_per_slot: &[usize],
        caches: &mut [&mut KvCache],
        ws: &mut Workspace,
    ) -> Tensor {
        let (total, d) = (emb_new.shape()[0], self.cfg.d_model);
        assert_eq!(emb_new.shape(), &[total, d], "emb_new must be [N, d_model]");
        assert_eq!(rows_per_slot.len(), caches.len(), "one row count per cache");
        assert_eq!(rows_per_slot.iter().sum::<usize>(), total, "row counts must cover emb_new");
        assert!(total > 0, "empty batched input");
        let mut x = emb_new;
        // Ragged positions: each slot's rows continue from its own prefix.
        let table = store.data(self.pos_emb.table).data();
        let mut rows = x.data_mut().chunks_exact_mut(d);
        for (cache, &n) in caches.iter().zip(rows_per_slot) {
            let start = cache.len();
            assert!(
                start + n <= self.cfg.max_seq,
                "slot cache {} + new {} exceeds max_seq {}",
                start,
                n,
                self.cfg.max_seq
            );
            for (row, pos) in rows.by_ref().take(n).zip(table[start * d..].chunks_exact(d)) {
                for (v, p) in row.iter_mut().zip(pos) {
                    *v += p;
                }
            }
        }
        for (cache, &n) in caches.iter_mut().zip(rows_per_slot) {
            cache.reserve(n);
        }
        let mut reads = total;
        for (l, blk) in self.blocks.iter().enumerate() {
            let mut kvs: Vec<_> = caches.iter_mut().map(|c| &mut c.layers[l]).collect();
            let read = if l + 1 == self.blocks.len() { read_per_slot } else { rows_per_slot };
            reads = blk.eval_cached_batched(store, x.data_mut(), rows_per_slot, read, &mut kvs, ws);
        }
        let mut hidden = x.into_data();
        hidden.truncate(reads * d);
        self.ln_f.eval_in_place(store, &mut hidden);
        Tensor::from_vec([reads, d], hidden)
    }

    /// Incremental forward over new token ids of one sequence: embeds,
    /// then runs [`TinyLm::forward_embeddings_cached_batched`] over the
    /// one cache, with a workspace of its own.
    pub fn forward_hidden_cached(
        &self,
        store: &ParamStore,
        new_ids: &[usize],
        cache: &mut KvCache,
    ) -> Tensor {
        let emb = self.tok_emb.eval(store, new_ids);
        let ws = &mut Workspace::default();
        let rows = [new_ids.len()];
        self.forward_embeddings_cached_batched(store, emb, &rows, &rows, &mut [cache], ws)
    }

    /// Start an empty decode session.
    pub fn start_session(&self) -> DecodeSession {
        DecodeSession { cache: KvCache::new(self), ids: Vec::new() }
    }

    /// Next-token logits for `ids`, reusing the session's cached prefix:
    /// only the tokens past the longest prefix shared with the previous call
    /// are pushed through the backbone. Equivalent to
    /// [`TinyLm::next_token_logits`] within float tolerance (tested), but
    /// `O(new x total)` instead of `O(total^2)` per call. The head reads
    /// the last position only, so only that row leaves the last block.
    pub fn next_token_logits_cached(
        &self,
        store: &ParamStore,
        ids: &[usize],
        session: &mut DecodeSession,
    ) -> Tensor {
        assert!(!ids.is_empty(), "empty input sequence");
        let new = &ids[session.rewind_to(ids)..];
        let emb = self.tok_emb.eval(store, new);
        let ws = &mut Workspace::default();
        let cache = &mut session.cache;
        let last = self.forward_embeddings_cached_batched(
            store,
            emb,
            &[new.len()],
            &[1],
            &mut [cache],
            ws,
        );
        self.lm_head.eval(store, &last)
    }

    /// Autoregressive sampling with KV-cached incremental decoding. Stops at
    /// EOS or `max_new` tokens. Returns the generated ids (prompt excluded)
    /// and the number of backbone inferences performed (= tokens generated;
    /// the Fig 2 latency account counts inferences, not their cost).
    pub fn generate(
        &self,
        store: &ParamStore,
        prompt: &[usize],
        max_new: usize,
        temperature: f32,
        rng: &mut Rng,
    ) -> (Vec<usize>, usize) {
        let mut session = self.start_session();
        let mut ids = prompt.to_vec();
        let mut out = Vec::new();
        let mut inferences = 0;
        for _ in 0..max_new {
            if ids.len() >= self.cfg.max_seq {
                break;
            }
            let logits = self.next_token_logits_cached(store, &ids, &mut session);
            inferences += 1;
            let next = sample_logits(logits.row(0), temperature, rng);
            if next == EOS {
                break;
            }
            ids.push(next);
            out.push(next);
        }
        (out, inferences)
    }

    /// Mean next-token cross-entropy of the model on a sequence (teacher
    /// forcing): predicts `ids[1..]` from `ids[..len-1]`.
    pub fn sequence_loss(&self, f: &mut Fwd, store: &ParamStore, ids: &[usize]) -> NodeId {
        assert!(ids.len() >= 2, "need at least 2 tokens");
        let inputs = &ids[..ids.len() - 1];
        let targets = &ids[1..];
        let logits = self.forward_logits(f, store, inputs);
        f.g.cross_entropy(logits, targets)
    }

    /// Total parameter count of the backbone + LM head.
    pub fn num_params(&self, store: &ParamStore) -> usize {
        store
            .ids()
            .filter(|&id| store.name(id).starts_with("llm."))
            .map(|id| store.data(id).numel())
            .sum()
    }
}

/// Temperature sampling over a logits row; temperature 0 is argmax.
pub fn sample_logits(logits: &[f32], temperature: f32, rng: &mut Rng) -> usize {
    if temperature <= 0.0 {
        return nt_tensor::tensor::argmax(logits);
    }
    let mut scaled: Vec<f32> = logits.iter().map(|&x| x / temperature).collect();
    nt_tensor::tensor::softmax_in_place(&mut scaled);
    rng.categorical(&scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::Tokenizer;

    fn tiny(store: &mut ParamStore) -> TinyLm {
        let mut rng = Rng::seeded(1);
        let cfg = LmConfig {
            vocab: 16,
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 16,
            dropout: 0.0,
        };
        TinyLm::new(store, cfg, &mut rng)
    }

    /// Next-token logits `[B, vocab]` for `ids[b]` on `seqs[b]` through one
    /// batched forward, each sequence reusing its own cached prefix.
    fn decode_batched(
        lm: &TinyLm,
        s: &ParamStore,
        seqs: &mut [DecodeSession],
        ids: &[&[usize]],
    ) -> Tensor {
        let (mut rows, mut new_ids, mut last) = (Vec::new(), Vec::new(), Vec::new());
        for (seq, ids) in seqs.iter_mut().zip(ids) {
            let shared = seq.rewind_to(ids);
            rows.push(ids.len() - shared);
            new_ids.extend_from_slice(&ids[shared..]);
            last.push(new_ids.len() - 1);
        }
        let emb = lm.tok_emb.eval(s, &new_ids);
        let mut caches: Vec<&mut KvCache> = seqs.iter_mut().map(|seq| &mut seq.cache).collect();
        let ws = &mut Workspace::default();
        let hidden = lm.forward_embeddings_cached_batched(s, emb, &rows, &rows, &mut caches, ws);
        lm.lm_head.eval(s, &hidden.gather_rows(&last))
    }

    fn paged_session(lm: &TinyLm, pool: &PagePool) -> DecodeSession {
        DecodeSession { cache: KvCache::new_paged(lm, pool), ids: Vec::new() }
    }

    fn argmax(row: &[f32]) -> usize {
        row.iter().enumerate().max_by(|a, c| a.1.partial_cmp(c.1).unwrap()).unwrap().0
    }

    #[test]
    fn hidden_and_logit_shapes() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut f = Fwd::eval();
        let h = lm.forward_hidden(&mut f, &s, &[1, 2, 3]);
        assert_eq!(f.g.value(h).shape(), &[3, 16]);
        let mut f2 = Fwd::eval();
        let l = lm.forward_logits(&mut f2, &s, &[1, 2, 3]);
        assert_eq!(f2.g.value(l).shape(), &[3, 16]);
    }

    #[test]
    fn embeddings_pathway_matches_token_pathway() {
        // forward_embeddings(tok_emb(ids)) == forward_hidden(ids)
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let ids = [4usize, 5, 6, 7];
        let mut f1 = Fwd::eval();
        let h1 = lm.forward_hidden(&mut f1, &s, &ids);
        let v1 = f1.g.value(h1).clone();
        let mut f2 = Fwd::eval();
        let emb = lm.tok_emb.forward(&mut f2, &s, &ids);
        let h2 = lm.forward_embeddings(&mut f2, &s, emb);
        let v2 = f2.g.value(h2).clone();
        for (a, b) in v1.data().iter().zip(v2.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn paged_batched_decode_is_bit_identical_to_contiguous() {
        // The same ragged batched decode through pool-backed caches must be
        // byte-for-byte the pool-less result, across appends, divergence
        // rollbacks and page-boundary crossings — and every page must be
        // back in the pool once the caches drop. A batch that stacks
        // pool-backed and pool-less caches in one call must match too.
        use crate::paged::PageConfig;
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let cfg = PageConfig { page_tokens: 4, budget_bytes: 1 << 16 };
        let (pool, mixed_pool) = (PagePool::for_model(&lm, cfg), PagePool::for_model(&lm, cfg));
        let mut rng = Rng::seeded(41);
        let prompts: Vec<Vec<usize>> = [3usize, 7, 1, 5]
            .iter()
            .map(|&len| (0..len).map(|_| rng.below(16)).collect())
            .collect();

        let mut flat: Vec<DecodeSession> = prompts.iter().map(|_| lm.start_session()).collect();
        let mut paged: Vec<DecodeSession> =
            prompts.iter().map(|_| paged_session(&lm, &pool)).collect();
        let mut mixed: Vec<DecodeSession> = (0..prompts.len())
            .map(|b| if b % 2 == 0 { paged_session(&lm, &mixed_pool) } else { lm.start_session() })
            .collect();
        let pages_held =
            |seqs: &[DecodeSession]| seqs.iter().map(|q| q.cache.pages_held()).sum::<usize>();
        let mut seqs = prompts.clone();
        for step in 0..5 {
            let ids: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
            let want = decode_batched(&lm, &s, &mut flat, &ids);
            let got = decode_batched(&lm, &s, &mut paged, &ids);
            assert_eq!(want.data(), got.data(), "step {step}: paged decode diverged");
            let got = decode_batched(&lm, &s, &mut mixed, &ids);
            assert_eq!(want.data(), got.data(), "step {step}: mixed-lender batch diverged");
            for (b, seq) in seqs.iter_mut().enumerate() {
                let next = argmax(want.row(b));
                seq.push((next + b) % 16);
                if step == 2 && b == 1 {
                    // Divergence: rewrite the suffix so prefix-reuse
                    // truncates mid-page next step.
                    let keep = seq.len() / 2;
                    seq.truncate(keep.max(1));
                    seq.push((next + 7) % 16);
                }
            }
            // Pool accounting matches the caches' page tables at each step.
            assert_eq!(pool.used_pages(), pages_held(&paged));
            assert!(pool.used_pages() + pool.free_pages() == pool.capacity_pages());
            for q in &paged {
                assert_eq!(q.cache.pages_held(), lm.cfg.n_layers * pool.pages_for(q.ids.len()));
            }
        }
        // Truncate releases whole pages; drop releases everything.
        paged[0].cache.truncate(1);
        assert_eq!(pool.used_pages(), pages_held(&paged));
        drop(paged);
        assert_eq!(pool.used_pages(), 0, "drop must return every page");
        drop(mixed);
        assert_eq!(mixed_pool.used_pages(), 0, "drop must return every page");
    }

    #[test]
    fn pool_less_cache_charges_rows_and_keeps_its_pages() {
        // Without a pool, `bytes()` counts filled rows (what a pool-less
        // fleet's `cache_bytes()` budgets from), the page gauges read 0,
        // and the pages minted stay as capacity across truncate/clear.
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(14);
        let cfg = LmConfig {
            vocab: 16,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 40,
            dropout: 0.0,
        };
        let lm = TinyLm::new(&mut s, cfg, &mut rng);
        let ids: Vec<usize> = (0..40).map(|_| rng.below(16)).collect();
        let feed = |cache: &mut KvCache, n: usize| {
            let at = cache.len();
            let _ = lm.forward_hidden_cached(&s, &ids[at..at + n], cache);
        };
        let check = |cache: &KvCache| {
            assert_eq!(cache.bytes(), 2 * 2 * cache.len() * 16 * 4);
            assert_eq!(cache.pages_held(), 0);
            for rows in [0, 1, 17, 40 - cache.len()] {
                assert_eq!(cache.pages_needed(rows), 0);
            }
        };
        let pages =
            |cache: &KvCache| cache.layers.iter().map(PagedAttnKv::pages_held).sum::<usize>();

        let mut cache = KvCache::new(&lm);
        check(&cache);
        for (keep, n) in [(0, 20), (20, 1), (21, 1), (22, 1), (9, 4), (13, 1), (5, 30)] {
            cache.truncate(keep);
            check(&cache);
            feed(&mut cache, n);
            check(&cache);
        }
        let held = pages(&cache);
        assert_eq!(held, 2 * 35usize.div_ceil(16));
        cache.clear();
        check(&cache);
        assert_eq!(pages(&cache), held, "clear keeps the pages as capacity");
        feed(&mut cache, 35);
        check(&cache);
        assert_eq!(pages(&cache), held, "a re-append no longer than before mints no page");
    }

    #[test]
    fn cached_logits_match_full_forward_for_random_prompts() {
        // The KV-cached incremental path must reproduce the full re-forward
        // logits within 1e-5 at every prefix of random prompts.
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(11);
        for trial in 0..5 {
            let len = 3 + rng.below(12);
            let ids: Vec<usize> = (0..len).map(|_| rng.below(16)).collect();
            let mut session = lm.start_session();
            for t in 1..=len {
                let cached = lm.next_token_logits_cached(&s, &ids[..t], &mut session);
                let full = lm.next_token_logits(&s, &ids[..t]);
                assert_eq!(cached.shape(), full.shape());
                for (a, b) in cached.data().iter().zip(full.data()) {
                    assert!(
                        (a - b).abs() < 1e-5,
                        "trial {trial}, prefix {t}: cached {a} vs full {b}"
                    );
                }
            }

            // The N-slot shape against the taped forward directly: three
            // caches take the same prompt in different ragged chunkings
            // (one per token, everything at once, two halves) inside
            // shared batched calls, and by causality the hidden row at
            // position `p` must give taped logits row `p`.
            let mut f = Fwd::eval();
            let taped = lm.forward_logits(&mut f, &s, &ids);
            let taped = f.g.value(taped).clone();
            let emb = lm.tok_emb.eval(&s, &ids);
            let mut caches: Vec<KvCache> = (0..3).map(|_| KvCache::new(&lm)).collect();
            for call in 0..len {
                // (first position, row count) each slot feeds this call.
                let chunks = [
                    (call, 1),
                    if call == 0 { (0, len) } else { (len, 0) },
                    match call {
                        0 => (0, len / 2),
                        1 => (len / 2, len - len / 2),
                        _ => (len, 0),
                    },
                ];
                let parts: Vec<Tensor> = chunks.iter().map(|&(p, n)| emb.narrow(0, p, n)).collect();
                let stacked = nt_tensor::concat(&parts.iter().collect::<Vec<_>>(), 0);
                let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
                let rows = chunks.map(|(_, n)| n);
                let ws = &mut Workspace::default();
                let hidden =
                    lm.forward_embeddings_cached_batched(&s, stacked, &rows, &rows, &mut refs, ws);
                let logits = lm.lm_head.eval(&s, &hidden);
                let positions = chunks.iter().flat_map(|&(p, n)| p..p + n);
                for (got, p) in logits.data().chunks(16).zip(positions) {
                    for (a, b) in got.iter().zip(taped.row(p)) {
                        assert!(
                            (a - b).abs() < 1e-5,
                            "trial {trial}, position {p}: batched {a} vs taped {b}"
                        );
                    }
                }
            }
            assert!(caches.iter().all(|c| c.len() == len));
        }
    }

    /// Attach rank-2 LoRA adapters and give their zero-initialised B
    /// matrices real values, so the LoRA branch contributes.
    fn attach_live_lora(lm: &mut TinyLm, s: &mut ParamStore, rng: &mut Rng) {
        lm.attach_lora(s, 2, 4.0, rng);
        let ids_all: Vec<usize> = s.ids().collect();
        for id in ids_all {
            if s.name(id).contains("lora_b") {
                let shape = s.data(id).shape().to_vec();
                *s.data_mut(id) = Tensor::randn(shape, 0.3, rng);
            }
        }
    }

    #[test]
    fn cached_logits_match_full_forward_with_lora() {
        let mut s = ParamStore::new();
        let mut lm = tiny(&mut s);
        attach_live_lora(&mut lm, &mut s, &mut Rng::seeded(12));
        let ids = [1usize, 4, 9, 2, 7, 5];
        let mut session = lm.start_session();
        for t in 1..=ids.len() {
            let cached = lm.next_token_logits_cached(&s, &ids[..t], &mut session);
            let full = lm.next_token_logits(&s, &ids[..t]);
            for (a, b) in cached.data().iter().zip(full.data()) {
                assert!((a - b).abs() < 1e-5, "LoRA cached {a} vs full {b}");
            }
        }
    }

    /// A workspace carries nothing from one forward to the next: one
    /// workspace taken through forwards of 97, 1, 23 and 6 rows (ragged
    /// over four slots, one slot idle in each), on pool-less caches, on
    /// pool-backed caches and on a LoRA-attached model in turn, gives the
    /// bits of a fresh workspace per forward.
    #[test]
    fn a_reused_workspace_gives_the_bits_of_fresh_ones() {
        use crate::paged::PageConfig;
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(15);
        let cfg = LmConfig {
            vocab: 16,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 64,
            dropout: 0.0,
        };
        let mut lm = TinyLm::new(&mut s, cfg, &mut rng);
        // The hidden bits of the four forwards, through `shared` or
        // through a fresh workspace each.
        fn run(
            lm: &TinyLm,
            s: &ParamStore,
            pool: Option<&PagePool>,
            mut shared: Option<&mut Workspace>,
        ) -> Vec<u32> {
            let calls = [[30, 25, 0, 42], [0, 0, 1, 0], [5, 7, 11, 0], [1, 2, 0, 3]];
            let mut caches: Vec<KvCache> = (0..4)
                .map(|_| pool.map_or_else(|| KvCache::new(lm), |p| KvCache::new_paged(lm, p)))
                .collect();
            let (mut rng, mut bits) = (Rng::seeded(16), Vec::new());
            for rows in &calls {
                let emb = Tensor::randn([rows.iter().sum::<usize>(), 16], 0.5, &mut rng);
                let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
                let mut fresh = Workspace::default();
                let ws = shared.as_deref_mut().unwrap_or(&mut fresh);
                let hidden =
                    lm.forward_embeddings_cached_batched(s, emb, rows, rows, &mut refs, ws);
                bits.extend(hidden.data().iter().map(|v| v.to_bits()));
            }
            bits
        }
        let pool = PagePool::for_model(&lm, PageConfig { page_tokens: 4, budget_bytes: 1 << 20 });
        let mut ws = Workspace::default();
        for pool in [None, Some(&pool)] {
            let want = run(&lm, &s, pool, None);
            assert_eq!(run(&lm, &s, pool, Some(&mut ws)), want, "pool-backed: {}", pool.is_some());
        }
        attach_live_lora(&mut lm, &mut s, &mut rng);
        assert_eq!(run(&lm, &s, None, Some(&mut ws)), run(&lm, &s, None, None), "LoRA attached");
    }

    /// Every layer's cached keys and values, filled positions only, as
    /// bit patterns.
    fn kv_bits(cache: &KvCache) -> Vec<u32> {
        let mut bits = Vec::new();
        for kv in &cache.layers {
            let (len, bt) = (kv.len(), kv.block_tokens());
            for b in 0..len.div_ceil(bt) {
                let filled = (len - b * bt).min(bt);
                let (keys, d) = (kv.k_block(b), cache.dim);
                for lane in 0..filled {
                    bits.extend(keys.iter().skip(lane).step_by(bt).map(|v| v.to_bits()));
                }
                bits.extend(kv.v_block(b)[..filled * d].iter().map(|v| v.to_bits()));
            }
        }
        bits
    }

    /// A forward that returns only each slot's last `read` rows gives
    /// those rows the bits of the forward that returns every row, and
    /// leaves every cache's keys and values identical, so the next forward
    /// on those caches matches too. Four ragged slots on different
    /// prefixes; over the two calls a slot reads none of its rows, one
    /// reads all of them, one sits a call out and the rest read a suffix.
    #[test]
    fn read_suffix_forward_keeps_the_bits_of_the_rows_it_reads() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(17);
        let cfg = LmConfig {
            vocab: 16,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            mlp_mult: 2,
            max_seq: 64,
            dropout: 0.0,
        };
        let lm = TinyLm::new(&mut s, cfg, &mut rng);
        let prefixes = [0usize, 5, 3, 19];
        let prefix_emb = Tensor::randn([prefixes.iter().sum::<usize>(), 16], 0.5, &mut rng);
        let primed = || -> Vec<KvCache> {
            let mut caches: Vec<KvCache> = prefixes.iter().map(|_| KvCache::new(&lm)).collect();
            let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
            let ws = &mut Workspace::default();
            let emb = prefix_emb.clone();
            let _ =
                lm.forward_embeddings_cached_batched(&s, emb, &prefixes, &prefixes, &mut refs, ws);
            caches
        };
        let (mut all, mut suffix) = (primed(), primed());
        let calls = [([4usize, 3, 6, 2], [0usize, 3, 1, 2]), ([2, 5, 0, 3], [2, 0, 0, 1])];
        for (call, (rows, read)) in calls.iter().enumerate() {
            let emb = Tensor::randn([rows.iter().sum::<usize>(), 16], 0.5, &mut rng);
            let ws = &mut Workspace::default();
            let mut refs: Vec<&mut KvCache> = all.iter_mut().collect();
            let every =
                lm.forward_embeddings_cached_batched(&s, emb.clone(), rows, rows, &mut refs, ws);
            let mut refs: Vec<&mut KvCache> = suffix.iter_mut().collect();
            let got = lm.forward_embeddings_cached_batched(&s, emb, rows, read, &mut refs, ws);

            let mut want = Vec::new();
            let mut end = 0;
            for (&n, &r) in rows.iter().zip(read) {
                end += n;
                want.extend(every.data()[(end - r) * 16..end * 16].iter().map(|v| v.to_bits()));
            }
            assert_eq!(got.shape(), &[read.iter().sum::<usize>(), 16], "call {call}");
            let got: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "call {call}: read rows");
            for (slot, (a, b)) in all.iter().zip(&suffix).enumerate() {
                assert_eq!(a.len(), b.len(), "call {call} slot {slot}: cache length");
                assert_eq!(kv_bits(a), kv_bits(b), "call {call} slot {slot}: keys and values");
            }
        }
    }

    #[test]
    fn session_reuses_prefix_and_recovers_from_divergence() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let a = [1usize, 4, 5, 6, 7, 8];
        let b = [1usize, 4, 5, 9, 3, 2]; // shares 3-token prefix with `a`
        let mut session = lm.start_session();
        let _ = lm.next_token_logits_cached(&s, &a, &mut session);
        assert_eq!(session.ids(), &a);
        let cached = lm.next_token_logits_cached(&s, &b, &mut session);
        assert_eq!(session.ids(), &b);
        let full = lm.next_token_logits(&s, &b);
        for (x, y) in cached.data().iter().zip(full.data()) {
            assert!((x - y).abs() < 1e-5, "post-divergence cached {x} vs full {y}");
        }
    }

    #[test]
    fn cached_embeddings_pathway_matches_one_shot() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(13);
        let emb = Tensor::randn([6, 16], 0.5, &mut rng);
        let mut f = Fwd::eval();
        let e = f.input(emb.clone());
        let full_node = lm.forward_embeddings(&mut f, &s, e);
        let full = f.g.value(full_node).clone();

        let (mut cache, ws) = (KvCache::new(&lm), &mut Workspace::default());
        let first = lm.forward_embeddings_cached_batched(
            &s,
            emb.narrow(0, 0, 4),
            &[4],
            &[4],
            &mut [&mut cache],
            ws,
        );
        let second = lm.forward_embeddings_cached_batched(
            &s,
            emb.narrow(0, 4, 2),
            &[2],
            &[2],
            &mut [&mut cache],
            ws,
        );
        assert_eq!(cache.len(), 6);
        let cached = nt_tensor::concat(&[&first, &second], 0);
        for (a, b) in full.data().iter().zip(cached.data()) {
            assert!((a - b).abs() < 1e-5, "cached embeddings pathway diverged: {a} vs {b}");
        }
    }

    #[test]
    fn batched_decode_matches_independent_sessions_with_ragged_prefixes() {
        // Four sequences of different lengths decode together; every
        // batched step must match four single-session cached calls.
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(31);
        let prompts: Vec<Vec<usize>> = [3usize, 7, 1, 5]
            .iter()
            .map(|&len| (0..len).map(|_| rng.below(16)).collect())
            .collect();

        let mut batched: Vec<DecodeSession> = prompts.iter().map(|_| lm.start_session()).collect();
        let mut singles: Vec<DecodeSession> = prompts.iter().map(|_| lm.start_session()).collect();
        let mut seqs = prompts.clone();

        for step in 0..6 {
            let ids: Vec<&[usize]> = seqs.iter().map(Vec::as_slice).collect();
            let logits = decode_batched(&lm, &s, &mut batched, &ids);
            assert_eq!(logits.shape(), &[4, 16]);
            for (b, (seq, single)) in seqs.iter_mut().zip(singles.iter_mut()).enumerate() {
                let want = lm.next_token_logits_cached(&s, seq, single);
                for (x, y) in logits.row(b).iter().zip(want.data()) {
                    assert!(
                        (x - y).abs() < 1e-5,
                        "step {step} slot {b}: batched {x} vs single {y}"
                    );
                }
                // Greedy-extend each sequence so prefixes stay ragged.
                seq.push((argmax(logits.row(b)) + b) % 16); // per-slot divergence
            }
        }
    }

    #[test]
    fn batched_truncate_rolls_back_candidate_suffix() {
        // Speculative/candidate rollback inside a batch: decode a suffix,
        // truncate it away, and the sequence must continue exactly like a
        // session that never saw the suffix — while a co-resident
        // sequence is unaffected.
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut seqs: Vec<DecodeSession> = (0..2).map(|_| lm.start_session()).collect();

        let base = [1usize, 4, 5];
        let spec = [1usize, 4, 5, 9, 3]; // candidate suffix [9, 3]
        let other = [2usize, 7];
        let _ = decode_batched(&lm, &s, &mut seqs, &[&spec, &other]);
        assert_eq!(seqs[0].cache.len(), 5);
        seqs[0].cache.truncate(base.len());
        seqs[0].ids.truncate(base.len());
        assert_eq!(seqs[0].cache.len(), 3);
        assert_eq!(seqs[1].ids(), &other, "co-resident slot untouched by rollback");
        assert_eq!(seqs[1].cache.len(), other.len());

        // Continue with a different suffix; must match a fresh session.
        let cont = [1usize, 4, 5, 2];
        let got = decode_batched(&lm, &s, &mut seqs[..1], &[&cont]);
        let mut fresh = lm.start_session();
        let want = lm.next_token_logits_cached(&s, &cont, &mut fresh);
        for (x, y) in got.row(0).iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5, "post-rollback decode diverged: {x} vs {y}");
        }
    }

    #[test]
    fn generate_counts_one_inference_per_token() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(2);
        let (out, inf) = lm.generate(&s, &[1, 4, 5], 6, 0.0, &mut rng);
        assert!(inf >= out.len());
        assert!(inf <= 6);
    }

    #[test]
    fn generate_respects_max_seq() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut rng = Rng::seeded(3);
        let prompt: Vec<usize> = (0..14).map(|i| 4 + (i % 8)).collect();
        let (out, _) = lm.generate(&s, &prompt, 100, 1.0, &mut rng);
        assert!(prompt.len() + out.len() <= 16);
    }

    #[test]
    fn lora_freezes_backbone_and_adds_small_fraction() {
        let mut s = ParamStore::new();
        let mut lm = tiny(&mut s);
        let total = s.num_params();
        let mut rng = Rng::seeded(4);
        let added = lm.attach_lora(&mut s, 2, 4.0, &mut rng);
        assert!(added > 0);
        assert_eq!(s.num_trainable(), added, "only adapters trainable");
        assert!((added as f32) / (total as f32) < 0.5, "adapters must be a small fraction");
    }

    #[test]
    fn sequence_loss_is_finite_and_differentiable() {
        let mut s = ParamStore::new();
        let lm = tiny(&mut s);
        let mut f = Fwd::eval();
        let l = lm.sequence_loss(&mut f, &s, &[1, 4, 5, 6, 2]);
        let v = f.g.value(l).item();
        assert!(v.is_finite() && v > 0.0);
        let grads = f.backward(l);
        assert!(grads.len() > 5);
    }

    #[test]
    fn sample_logits_temperature_zero_is_argmax() {
        let mut rng = Rng::seeded(5);
        assert_eq!(sample_logits(&[0.0, 5.0, 1.0], 0.0, &mut rng), 1);
    }

    #[test]
    fn vocab_matches_tokenizer() {
        let t = Tokenizer::new();
        let mut s = ParamStore::new();
        let mut rng = Rng::seeded(6);
        let lm = TinyLm::new(&mut s, LmConfig::base(t.vocab_size()), &mut rng);
        assert_eq!(lm.cfg.vocab, t.vocab_size());
    }
}
