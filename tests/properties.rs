//! Property-based tests (proptest) on cross-crate invariants: simulator
//! conservation laws, metric identities and head validity under arbitrary
//! inputs.

use proptest::prelude::*;

// ---------------------------------------------------------------------------
// ABR simulator invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever bandwidth trace and rung sequence, the session accounts for
    /// every chunk exactly once and buffers never exceed the cap — in the
    /// chunk simulator and in the link emulator alike.
    #[test]
    fn abr_session_conservation(
        seed in 0u64..1000,
        rung in 0usize..6,
        mbps in proptest::collection::vec(0.1f64..8.0, 30..120),
    ) {
        let video = nt_abr::envivio_like(&mut nt_tensor::Rng::seeded(seed));
        let trace = nt_abr::BandwidthTrace::new("p", mbps);
        let policy = &mut nt_abr::FixedRung(rung);
        let sessions = [
            nt_abr::run_session(policy, &video, &trace),
            nt_abr::run_emulated_session(policy, &video, &trace),
        ];
        for (stats, recs) in &sessions {
            prop_assert_eq!(recs.len(), video.num_chunks());
            prop_assert_eq!(stats.chunks, video.num_chunks());
            for r in recs {
                prop_assert!(r.buffer_after <= nt_abr::BUFFER_CAP_SECS + 1e-9);
                prop_assert!(r.download_secs > 0.0);
                prop_assert!(r.rebuffer_secs >= 0.0);
                prop_assert!(r.rung < video.num_rungs());
            }
        }
    }

    /// Transfer time over a step-function trace equals megabits/bandwidth
    /// within the trace's min/max bounds.
    #[test]
    fn transfer_time_bounded_by_min_max_bandwidth(
        megabits in 0.1f64..50.0,
        mbps in proptest::collection::vec(0.2f64..10.0, 5..60),
        start in 0.0f64..30.0,
    ) {
        let lo = mbps.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = mbps.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let trace = nt_abr::BandwidthTrace::new("p", mbps);
        let t = trace.transfer_time(start, megabits);
        prop_assert!(t >= megabits / hi - 1e-9, "faster than max bandwidth");
        prop_assert!(t <= megabits / lo + 1e-9, "slower than min bandwidth");
    }

    /// The emulated (transport-aware) transfer is never faster than the
    /// ideal fluid transfer.
    #[test]
    fn emulated_transfer_slower_than_ideal(
        megabits in 0.5f64..30.0,
        mbps in proptest::collection::vec(0.5f64..8.0, 10..40),
    ) {
        let trace = nt_abr::BandwidthTrace::new("p", mbps);
        let ideal = trace.transfer_time(0.0, megabits);
        let emulated = nt_abr::transfer_time(nt_abr::RTT_SECS, &trace, 0.0, megabits);
        prop_assert!(emulated >= ideal - 1e-9);
    }
}

// ---------------------------------------------------------------------------
// CJS simulator invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any workload completes under any built-in scheduler; JCT >= the
    /// job's critical-path lower bound can't be checked cheaply, but JCT
    /// must be at least the longest single task of the job.
    #[test]
    fn cjs_jct_lower_bound(seed in 0u64..500, executors in 2usize..30) {
        let jobs = nt_cjs::generate_workload(&nt_cjs::WorkloadConfig {
            num_jobs: 8, mean_interarrival: 1.0, seed,
        });
        let stats = nt_cjs::run_workload(&mut nt_cjs::Fifo, &jobs, executors, None);
        prop_assert_eq!(stats.jcts.len(), jobs.len());
        for (job, &jct) in jobs.iter().zip(&stats.jcts) {
            let longest_task = job
                .stages
                .iter()
                .flat_map(|s| s.durations.iter())
                .cloned()
                .fold(0.0f64, f64::max);
            prop_assert!(jct + 1e-9 >= longest_task, "JCT {} < longest task {}", jct, longest_task);
            // And at least the critical path through stage-level serial work:
            let serial: f64 = 0.0;
            prop_assert!(jct >= serial);
        }
    }

    /// The active-jobs integral equals the sum of JCTs when all jobs arrive
    /// at time zero (conservation of "work in system").
    #[test]
    fn cjs_active_integral_identity(seed in 0u64..200) {
        let mut jobs = nt_cjs::generate_workload(&nt_cjs::WorkloadConfig {
            num_jobs: 6, mean_interarrival: 1.0, seed,
        });
        for j in &mut jobs { j.arrival = 0.0; }
        let stats = nt_cjs::run_workload(&mut nt_cjs::Srpt, &jobs, 8, None);
        let sum: f64 = stats.jcts.iter().sum();
        prop_assert!((stats.active_job_seconds - sum).abs() < 1e-6 * sum.max(1.0));
    }
}

// ---------------------------------------------------------------------------
// VP metric identities
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wrapping is idempotent and stays in range.
    #[test]
    fn wrap_deg_idempotent(d in -1000.0f32..1000.0) {
        let w = nt_vp::wrap_deg(d);
        prop_assert!((-180.0..180.0).contains(&w));
        prop_assert_eq!(nt_vp::wrap_deg(w), w);
    }

    /// delta-encode then apply reconstructs the trace (modulo clamping).
    #[test]
    fn deltas_roundtrip(
        start_pitch in -60.0f32..60.0,
        start_yaw in -179.0f32..179.0,
        moves in proptest::collection::vec((-3.0f32..3.0, -5.0f32..5.0), 1..30),
    ) {
        let mut vps = vec![[0.0, start_pitch, start_yaw]];
        for (dp, dy) in &moves {
            let last = *vps.last().unwrap();
            vps.push([0.0, (last[1] + dp).clamp(-80.0, 80.0), nt_vp::wrap_deg(last[2] + dy)]);
        }
        let deltas = nt_vp::to_deltas(&vps);
        let rebuilt = nt_vp::apply_deltas(&vps[0], &deltas);
        for (r, v) in rebuilt.iter().zip(&vps[1..]) {
            prop_assert!(nt_vp::viewport_error(r, v) < 1e-3);
        }
    }

    /// MAE is symmetric and zero iff sequences coincide.
    #[test]
    fn mae_symmetry(
        a in proptest::collection::vec((-40.0f32..40.0, -80.0f32..80.0, -179.0f32..179.0), 1..10),
    ) {
        let seq: Vec<[f32; 3]> = a.iter().map(|&(r, p, y)| [r, p, y]).collect();
        prop_assert_eq!(nt_vp::mae(&seq, &seq), 0.0);
        let shifted: Vec<[f32; 3]> = seq.iter().map(|v| [v[0] + 1.0, v[1], v[2]]).collect();
        let d1 = nt_vp::mae(&seq, &shifted);
        let d2 = nt_vp::mae(&shifted, &seq);
        prop_assert!((d1 - d2).abs() < 1e-5);
    }
}

// ---------------------------------------------------------------------------
// Autodiff invariants for the shape ops the KV-cache path leans on
// ---------------------------------------------------------------------------

/// Finite-difference check of d(loss)/d(leaf) for a scalar-valued builder.
fn grad_matches_numeric(
    input: nt_tensor::Tensor,
    build: impl Fn(&mut nt_tensor::Graph, nt_tensor::NodeId) -> nt_tensor::NodeId,
) -> Result<(), String> {
    let mut g = nt_tensor::Graph::new(false, 0);
    let x = g.leaf(input.clone(), true);
    let loss = build(&mut g, x);
    g.backward(loss);
    let analytic = g.grad(x).ok_or("no gradient")?.clone();
    let eps = 1e-2f32;
    for i in 0..input.numel() {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;
        let eval = |t: nt_tensor::Tensor| {
            let mut g = nt_tensor::Graph::new(false, 0);
            let x = g.leaf(t, true);
            let l = build(&mut g, x);
            g.value(l).item()
        };
        let numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
        let a = analytic.data()[i];
        let denom = numeric.abs().max(a.abs()).max(1.0);
        if (numeric - a).abs() / denom > 3e-2 {
            return Err(format!("grad mismatch at {i}: numeric {numeric} vs analytic {a}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Narrow must route gradients only into the sliced region, for any
    /// slice of any axis of a random 2-D tensor.
    #[test]
    fn narrow_gradient_matches_finite_differences(
        rows in 1usize..5,
        cols in 1usize..5,
        axis in 0usize..2,
        pick in 0u64..10_000,
        data in proptest::collection::vec(-2.0f32..2.0, 25..26),
    ) {
        let t = nt_tensor::Tensor::from_vec([rows, cols], data[..rows * cols].to_vec());
        let dim = [rows, cols][axis];
        let start = (pick as usize) % dim;
        let len = 1 + (pick as usize / dim) % (dim - start);
        let r = grad_matches_numeric(t, |g, x| {
            let n = g.narrow(x, axis, start, len);
            let sq = g.mul(n, n);
            g.sum_all(sq)
        });
        prop_assert!(r.is_ok(), "{:?}", r.err());
    }

    /// Concat must split the incoming gradient back to its parents
    /// (checked against finite differences for both axes).
    #[test]
    fn concat_gradient_matches_finite_differences(
        rows in 1usize..4,
        cols in 1usize..4,
        axis in 0usize..2,
        data in proptest::collection::vec(-2.0f32..2.0, 16..17),
    ) {
        let t = nt_tensor::Tensor::from_vec([rows, cols], data[..rows * cols].to_vec());
        let r = grad_matches_numeric(t, |g, x| {
            // Concat the leaf with a constant AND with itself: gradients
            // must accumulate across both appearances.
            let c = g.constant(nt_tensor::Tensor::ones([rows, cols]));
            let cat = g.concat(&[x, c, x], axis);
            let sq = g.mul(cat, cat);
            g.sum_all(sq)
        });
        prop_assert!(r.is_ok(), "{:?}", r.err());
    }

    /// Narrow(Concat) round-trip: slicing a concat back apart must
    /// reproduce the inputs exactly, for any axis (the exact invariant the
    /// KV cache relies on when rolling back candidate tokens).
    #[test]
    fn concat_narrow_roundtrip(
        rows in 1usize..5,
        cols in 1usize..5,
        axis in 0usize..2,
        data in proptest::collection::vec(-3.0f32..3.0, 50..51),
    ) {
        let a = nt_tensor::Tensor::from_vec([rows, cols], data[..rows * cols].to_vec());
        let b = nt_tensor::Tensor::from_vec([rows, cols], data[25..25 + rows * cols].to_vec());
        let cat = nt_tensor::concat(&[&a, &b], axis);
        let first = cat.narrow(axis, 0, [rows, cols][axis]);
        let second = cat.narrow(axis, [rows, cols][axis], [rows, cols][axis]);
        prop_assert_eq!(first.data(), a.data());
        prop_assert_eq!(second.data(), b.data());
    }
}

// ---------------------------------------------------------------------------
// Batched-serving invariants (the PR 2 decode path)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched attention over ragged slots (arbitrary per-slot cache
    /// prefix lengths and new-row counts) must match per-slot unbatched
    /// attention — the invariant the serving engine stands on.
    #[test]
    fn batched_attention_matches_per_slot_unbatched(
        seed in 0u64..1_000,
        slots in proptest::collection::vec((0usize..9, 1usize..4), 1..5),
    ) {
        let mut store = nt_nn::ParamStore::new();
        let mut rng = nt_tensor::Rng::seeded(seed);
        let mha = nt_nn::MultiHeadAttention::new(&mut store, "a", 8, 2, &mut rng);

        // Prefill each slot's cache to its own ragged length.
        let mut kvs_seq: Vec<nt_nn::AttnKv> =
            slots.iter().map(|_| nt_nn::AttnKv::empty(8)).collect();
        for (kv, &(prefix, _)) in kvs_seq.iter_mut().zip(&slots) {
            if prefix > 0 {
                let x = nt_tensor::Tensor::randn([prefix, 8], 0.8, &mut rng);
                let _ = mha.eval_cached(&store, &x, kv);
            }
        }
        let mut kvs_bat = kvs_seq.clone();

        let news: Vec<nt_tensor::Tensor> = slots
            .iter()
            .map(|&(_, n)| nt_tensor::Tensor::randn([n, 8], 0.8, &mut rng))
            .collect();
        let unbatched: Vec<nt_tensor::Tensor> = news
            .iter()
            .zip(kvs_seq.iter_mut())
            .map(|(x, kv)| mha.eval_cached(&store, x, kv))
            .collect();

        let refs: Vec<&nt_tensor::Tensor> = news.iter().collect();
        let stacked = nt_tensor::concat(&refs, 0);
        let rows: Vec<usize> = slots.iter().map(|&(_, n)| n).collect();
        let mut kv_refs: Vec<&mut nt_nn::AttnKv> = kvs_bat.iter_mut().collect();
        let batched = mha.eval_cached_batched(&store, &stacked, &rows, &mut kv_refs);

        let mut row = 0usize;
        for (s, want) in unbatched.iter().enumerate() {
            for (i, wrow) in want.data().chunks(8).enumerate() {
                for (j, w) in wrow.iter().enumerate() {
                    let got = batched.at(&[row + i, j]);
                    prop_assert!(
                        (got - w).abs() < 1e-5,
                        "slot {} row {} col {}: batched {} vs unbatched {}", s, i, j, got, w
                    );
                }
            }
            row += want.shape()[0];
        }
        for (a, b) in kvs_seq.iter().zip(&kvs_bat) {
            prop_assert_eq!(a.len(), b.len());
        }
    }

    /// `concat` along the batch dimension then `gather_rows` must recover
    /// every slot's rows exactly (the stack/unstack pair the batched
    /// decode path is built from), and `narrow` must agree with gather.
    #[test]
    fn gather_rows_concat_roundtrip_under_batch_dim(
        cols in 1usize..6,
        counts in proptest::collection::vec(1usize..5, 1..6),
        seed in 0u64..10_000,
    ) {
        let mut rng = nt_tensor::Rng::seeded(seed);
        let parts: Vec<nt_tensor::Tensor> = counts
            .iter()
            .map(|&n| nt_tensor::Tensor::randn([n, cols], 1.0, &mut rng))
            .collect();
        let refs: Vec<&nt_tensor::Tensor> = parts.iter().collect();
        let stacked = nt_tensor::concat(&refs, 0);

        let mut start = 0usize;
        for (p, &n) in parts.iter().zip(&counts) {
            let idx: Vec<usize> = (start..start + n).collect();
            let gathered = stacked.gather_rows(&idx);
            prop_assert_eq!(gathered.data(), p.data());
            let narrowed = stacked.narrow(0, start, n);
            prop_assert_eq!(narrowed.data(), p.data());
            start += n;
        }
        // Gathering the closing row of every slot (the logits path) must
        // pick exactly each part's last row.
        let mut closing = Vec::new();
        let mut row = 0usize;
        for &n in &counts {
            row += n;
            closing.push(row - 1);
        }
        let last = stacked.gather_rows(&closing);
        for (b, p) in parts.iter().enumerate() {
            let want = p.narrow(0, p.shape()[0] - 1, 1);
            prop_assert_eq!(last.row(b), want.data());
        }
    }
}

// ---------------------------------------------------------------------------
// Framework invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ABR networking head's answer is a valid rung for ANY hidden
    /// state (the reliability guarantee of §4.2).
    #[test]
    fn abr_head_validity(seed in 0u64..10_000, scale in 0.1f32..100.0) {
        let mut store = nt_nn::ParamStore::new();
        let mut rng = nt_tensor::Rng::seeded(seed);
        let head = netllm::AbrHead::new(&mut store, 16, 6, &mut rng);
        let mut f = nt_nn::Fwd::eval();
        let h = f.input(nt_tensor::Tensor::randn([1, 16], scale, &mut rng));
        let logits = head.run(&mut f, &store, &h);
        let answer = f.g.value(logits).argmax();
        prop_assert!(answer < 6);
    }

    /// Prompt answers that render from real viewports always parse back
    /// (the inverse direction — arbitrary text — is allowed to fail).
    #[test]
    fn prompt_render_parse_roundtrip(
        vps in proptest::collection::vec((-40.0f32..40.0, -80.0f32..80.0, -170.0f32..170.0), 5..8),
    ) {
        let future: Vec<[f32; 3]> = vps.iter().map(|&(r, p, y)| [r, p, y]).collect();
        let text = netllm::render_answer(&future);
        let parsed = netllm::parse_answer(&text);
        prop_assert!(parsed.is_some(), "rendered answer failed to parse: {}", text);
        let parsed = parsed.unwrap();
        for (a, b) in parsed.iter().zip(&future) {
            // integer rounding in the template
            prop_assert!((a[0] - b[0]).abs() <= 0.5 + 1e-3);
            prop_assert!((a[1] - b[1]).abs() <= 0.5 + 1e-3);
        }
    }

    /// Tokenizer roundtrip over its printable charset.
    #[test]
    fn tokenizer_roundtrip(s in "[a-z0-9 .,:;()\\[\\]{}+*/=_#!?%-]{0,40}") {
        let tok = nt_llm::Tokenizer::new();
        prop_assert_eq!(tok.decode(&tok.encode(&s)), s);
    }
}
