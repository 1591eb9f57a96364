use netllm::*;
use nt_llm::{profile_spec, Profile, Zoo};
use nt_tensor::Rng;

#[test]
#[ignore]
fn prompt_generation_dump() {
    let zoo = Zoo::new(std::env::temp_dir().join("prompt-probe-zoo"));
    let backbone = zoo.load_or_pretrain(&profile_spec(Profile::LlamaSim), 300);
    let data = build_vp_data(&VP_DEFAULT, Fidelity::Smoke);
    let mut model = PromptVp::new(backbone);
    for round in 0..4 {
        let loss = model.adapt(&data.train, 600, 1e-3, 2 + round);
        let mut rng = Rng::seeded(9);
        let mut valid = 0;
        for s in &data.test[..10] {
            let (p, _, _) = model.generate(s, &mut rng);
            if p.is_some() {
                valid += 1;
            }
        }
        println!("round {round}: answer-loss {loss:.3} valid {valid}/10");
    }
    for temp in [0.0f32, 0.2, 0.4] {
        let m2 = &mut model;
        m2.temperature = temp;
        let mut rng = Rng::seeded(9);
        let mut valid = 0;
        for s in &data.test[..14] {
            let (p, _, _) = m2.generate(s, &mut rng);
            if p.is_some() {
                valid += 1;
            }
        }
        println!("temp {temp}: valid {valid}/14");
    }
    let mut rng = Rng::seeded(9);
    for s in &data.test[..3] {
        let prompt_ids = model.tok.encode(&render_prompt(&s.history));
        let (out, _) =
            model.lm.generate(&model.store, &prompt_ids, 80, model.temperature, &mut rng);
        println!("PROMPT: {}", render_prompt(&s.history));
        println!("WANT  : {}", render_answer(&s.future));
        println!("GOT   : {:?}", model.tok.decode(&out));
    }
}

#[test]
#[ignore]
fn teacher_forced_accuracy() {
    use nt_nn::Fwd;
    let zoo = Zoo::new(std::env::temp_dir().join("prompt-probe-zoo"));
    let backbone = zoo.load_or_pretrain(&profile_spec(Profile::LlamaSim), 300);
    let data = build_vp_data(&VP_DEFAULT, Fidelity::Smoke);
    let mut model = PromptVp::new(backbone);
    model.adapt(&data.train, 2400, 1e-3, 2);
    // teacher-forced argmax accuracy per answer position on TEST samples
    let mut per_pos: Vec<(usize, usize)> = vec![(0, 0); 60];
    for s in &data.test {
        let prompt = render_prompt(&s.history);
        let answer = render_answer(&s.future);
        let mut ids = model.tok.encode(&prompt);
        let p = ids.len();
        ids.extend(model.tok.encode(&answer));
        ids.push(nt_llm::EOS);
        let mut f = Fwd::eval();
        let logits = model.lm.forward_logits(&mut f, &model.store, &ids[..ids.len() - 1]);
        let lv = f.g.value(logits);
        for (k, &target) in ids[p..].iter().enumerate() {
            let row = lv.row(p - 1 + k);
            let mut best = 0;
            for (j, &x) in row.iter().enumerate() {
                if x > row[best] {
                    best = j;
                }
            }
            if k < 60 {
                per_pos[k].1 += 1;
                if best == target {
                    per_pos[k].0 += 1;
                }
            }
        }
    }
    for (k, (c, t)) in per_pos.iter().enumerate().take(20) {
        if *t > 0 {
            println!("pos {k}: {:.0}%", 100.0 * *c as f64 / *t as f64);
        }
    }
    let tot: (usize, usize) = per_pos.iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    println!("overall teacher-forced argmax accuracy: {:.1}%", 100.0 * tot.0 as f64 / tot.1 as f64);
}
