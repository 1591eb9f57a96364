//! Long-budget GENET probe (run explicitly with --ignored).
use nt_abr::*;
use nt_tensor::Rng;

#[test]
#[ignore]
fn genet_default_budget() {
    let video = envivio_like(&mut Rng::seeded(0x56AD));
    let traces = generate_set(TraceKind::FccLike, 40, 350, &mut Rng::seeded(7 ^ 0xAAAA));
    let cfg = GenetTrainConfig::default();
    let mut genet = train_genet(&video, &traces, &cfg);
    let test = generate_set(TraceKind::FccLike, 30, 350, &mut Rng::seeded(0xE7 ^ 0xBBBB));
    let avg = |p: &mut dyn AbrPolicy| -> f64 {
        test.iter().map(|t| run_session(p, &video, t).0.qoe_per_chunk).sum::<f64>()
            / test.len() as f64
    };
    println!(
        "default: BBA {:.3} MPC {:.3} GENET {:.3}",
        avg(&mut Bba),
        avg(&mut Mpc::default()),
        avg(&mut genet)
    );
    // unseen settings
    let synth = generate_set(TraceKind::SynthWide, 30, 350, &mut Rng::seeded(0xE7 ^ 0xBBBB));
    let avg_s = |p: &mut dyn AbrPolicy| -> f64 {
        synth.iter().map(|t| run_session(p, &video, t).0.qoe_per_chunk).sum::<f64>()
            / synth.len() as f64
    };
    println!(
        "unseen1(synth traces): BBA {:.3} MPC {:.3} GENET {:.3}",
        avg_s(&mut Bba),
        avg_s(&mut Mpc::default()),
        avg_s(&mut genet)
    );
}

#[test]
#[ignore]
fn genet_bc_only() {
    let video = envivio_like(&mut Rng::seeded(0x56AD));
    let traces = generate_set(TraceKind::FccLike, 40, 350, &mut Rng::seeded(7 ^ 0xAAAA));
    for (bc, rl) in [(3000, 2000), (3000, 4000)] {
        let cfg = GenetTrainConfig { bc_iters: bc, rl_iters: rl, ..Default::default() };
        let mut genet = train_genet(&video, &traces, &cfg);
        let test = generate_set(TraceKind::FccLike, 20, 350, &mut Rng::seeded(0xE7 ^ 0xBBBB));
        let avg =
            test.iter().map(|t| run_session(&mut genet, &video, t).0.qoe_per_chunk).sum::<f64>()
                / test.len() as f64;
        println!("bc {bc} rl {rl}: GENET {avg:.3}");
    }
}

#[test]
#[ignore]
fn bc_accuracy_probe() {
    use nt_abr::genet::{featurize, GenetNet};
    use nt_nn::{clip_grad_norm, Adam, Fwd, ParamStore};
    use nt_tensor::Tensor;
    let video = envivio_like(&mut Rng::seeded(0x56AD));
    let traces = generate_set(TraceKind::FccLike, 40, 350, &mut Rng::seeded(7 ^ 0xAAAA));
    // Gather MPC demonstration set
    let mut all_feats: Vec<Vec<f32>> = vec![];
    let mut all_actions: Vec<usize> = vec![];
    struct Rec<'a> {
        inner: Mpc,
        feats: &'a mut Vec<Vec<f32>>,
        acts: &'a mut Vec<usize>,
    }
    impl AbrPolicy for Rec<'_> {
        fn name(&self) -> &str {
            "r"
        }
        fn reset(&mut self) {
            self.inner.reset()
        }
        fn select(&mut self, o: &AbrObservation) -> usize {
            let a = self.inner.select(o);
            self.feats.push(featurize(o));
            self.acts.push(a);
            a
        }
    }
    for t in &traces {
        let mut r = Rec { inner: Mpc::default(), feats: &mut all_feats, acts: &mut all_actions };
        run_session(&mut r, &video, t);
    }
    let n = all_actions.len();
    println!("dataset {} samples; action histogram:", n);
    let mut hist = [0; 6];
    for &a in &all_actions {
        hist[a] += 1;
    }
    println!("{hist:?}");
    let split = n * 4 / 5;
    for lr in [2e-4f32, 1e-3] {
        let mut store = ParamStore::new();
        let net = GenetNet::new(&mut store, &mut Rng::seeded(11));
        let mut opt = Adam::new(lr);
        let mut rng = Rng::seeded(5);
        for it in 0..2000 {
            // minibatch 48
            let mut bf = vec![];
            let mut ba = vec![];
            for _ in 0..48 {
                let i = rng.below(split);
                bf.extend(&all_feats[i]);
                ba.push(all_actions[i]);
            }
            let mut f = Fwd::train(it as u64);
            let x = f.input(Tensor::from_vec([48, nt_abr::FEAT_DIM], bf));
            let (logits, _) = net.forward(&mut f, &store, x);
            let loss = f.g.cross_entropy(logits, &ba);
            let mut g = f.backward(loss);
            clip_grad_norm(&mut g, 1.0);
            opt.step(&mut store, &g);
        }
        // accuracy on held-out
        let mut correct = 0;
        for i in split..n {
            let p = net.probs(&store, &all_feats[i]);
            let mut b = 0;
            for (j, &x) in p.iter().enumerate() {
                if x > p[b] {
                    b = j;
                }
            }
            if b == all_actions[i] {
                correct += 1;
            }
        }
        println!("lr {lr}: held-out accuracy {:.1}%", 100.0 * correct as f64 / (n - split) as f64);
    }
}
