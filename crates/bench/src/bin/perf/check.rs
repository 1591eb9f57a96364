//! Output check: what the fleet answered must equal what a one-session
//! server answers for the same observations. Sessions 0/1/2 (one per
//! task) are replayed through `ShardedServer::new(1)`; actions must be
//! equal and logits within 1e-5.

use netllm::{FleetModels, FleetObs, NetLlmFleet, ShardedServer, TicketStatus};

/// Logit tolerance of the serving contract.
pub const LOGIT_TOL: f32 = 1e-5;

/// One session's answers in serve order: `(observation index, action
/// rendered with Debug, logits)`.
pub type Observed = Vec<(usize, String, Vec<f32>)>;

/// Replay `indices` of one session alone through a one-shard server.
pub fn oracle(
    models: &FleetModels,
    group: usize,
    indices: &[usize],
    obs: &dyn Fn(usize) -> FleetObs,
) -> Vec<(String, Vec<f32>)> {
    let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
    let mut server: ShardedServer<NetLlmFleet> = ShardedServer::new(1);
    let id = server.join_group(&fleet, group);
    indices
        .iter()
        .map(|&i| {
            let ticket = server.submit(id, obs(i)).expect("oracle submit");
            server.tick(&fleet);
            match server.poll_status(ticket) {
                TicketStatus::Served(action) => {
                    (format!("{action:?}"), server.last_logits(id).to_vec())
                }
                other => panic!("oracle ticket did not serve in its tick: {other:?}"),
            }
        })
        .collect()
}

/// Compare one session's observed answers with the oracle's.
pub fn compare(
    session: usize,
    observed: &Observed,
    want: &[(String, Vec<f32>)],
) -> Result<(), String> {
    if observed.len() != want.len() {
        return Err(format!(
            "session {session}: {} answers vs {} replayed",
            observed.len(),
            want.len()
        ));
    }
    for (k, ((_, action, logits), (want_action, want_logits))) in
        observed.iter().zip(want).enumerate()
    {
        if action != want_action {
            return Err(format!(
                "session {session} decision {k}: served {action} vs replay {want_action}"
            ));
        }
        if logits.len() != want_logits.len() {
            return Err(format!(
                "session {session} decision {k}: {} logits vs {}",
                logits.len(),
                want_logits.len()
            ));
        }
        for (x, y) in logits.iter().zip(want_logits) {
            let diff = (x - y).abs();
            if diff.is_nan() || diff > LOGIT_TOL {
                return Err(format!(
                    "session {session} decision {k}: served logit {x} vs replay {y}"
                ));
            }
        }
    }
    Ok(())
}

/// Check every captured session (0, 1, 2: one per task in the mixed
/// fleet) against its one-session replay.
pub fn against_oracle(
    models: &FleetModels,
    captured: &[Observed],
    obs: &dyn Fn(usize, usize) -> FleetObs,
    group_of: impl Fn(usize) -> usize,
) -> Result<String, String> {
    let mut total = 0usize;
    for (s, observed) in captured.iter().enumerate() {
        if observed.is_empty() {
            return Err(format!("session {s}: nothing captured to check"));
        }
        let indices: Vec<usize> = observed.iter().map(|(i, _, _)| *i).collect();
        let want = oracle(models, group_of(s), &indices, &|i| obs(s, i));
        compare(s, observed, &want)?;
        total += observed.len();
    }
    Ok(format!(
        "{total} decisions of sessions 0..{} equal a one-session replay (actions equal, logits within {LOGIT_TOL})",
        captured.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_bench::{kind_of, ObsStreams};

    #[test]
    fn one_flipped_logit_in_the_oracle_fails_the_check() {
        let models = FleetModels::tiny(std::path::Path::new("perf-zoo-unused"), 4);
        let streams = ObsStreams::generate(3, 8, 5);
        let indices: Vec<usize> = (0..6).collect();
        for s in 0..3 {
            let mut want = oracle(&models, kind_of(s), &indices, &|i| streams.obs(s, i));
            let observed: Observed =
                indices.iter().zip(&want).map(|(&i, (a, l))| (i, a.clone(), l.clone())).collect();
            compare(s, &observed, &want).expect("a replay equals itself");
            // Corrupt the reference: one logit of one decision, by more
            // than the tolerance.
            want[3].1[0] += 1e-3;
            let err = compare(s, &observed, &want).expect_err("a flipped logit must fail");
            assert!(err.contains("decision 3"), "{err}");
        }
    }
}
