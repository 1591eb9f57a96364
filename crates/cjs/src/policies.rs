//! Rule-based schedulers: FIFO, Fair (paper §A.3) and an SRPT heuristic
//! (used as the behaviour-cloning teacher for Decima's warm start).

use crate::sim::{Decision, SchedView, Scheduler};

/// First-in-first-out: serve the earliest-arrived job, give it as many
/// executors as it can use (Spark's default FIFO mode).
pub struct Fifo;

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn decide(&mut self, view: &SchedView) -> Option<Decision> {
        let idx = view
            .candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (ja, jb) = (&view.jobs[a.job], &view.jobs[b.job]);
                ja.arrival
                    .partial_cmp(&jb.arrival)
                    .unwrap()
                    .then(a.job.cmp(&b.job))
                    .then(a.stage.cmp(&b.stage))
            })
            .map(|(i, _)| i)?;
        Some(Decision { candidate: idx, cap: usize::MAX })
    }
}

/// Fair scheduling: each active job is entitled to an equal share of the
/// cluster; serve the job furthest below its share (Spark's fair mode).
pub struct Fair;

impl Scheduler for Fair {
    fn name(&self) -> &str {
        "Fair"
    }

    fn decide(&mut self, view: &SchedView) -> Option<Decision> {
        let active = view.jobs.iter().filter(|j| j.arrived && !j.completed).count().max(1);
        let share = view.total_executors.div_ceil(active);
        // Pick the candidate whose job is furthest below its share.
        let mut best: Option<(usize, i64)> = None;
        for (i, c) in view.candidates.iter().enumerate() {
            let deficit = share as i64 - view.jobs[c.job].running_executors as i64;
            let better = match best {
                None => true,
                Some((_, d)) => deficit > d,
            };
            if better {
                best = Some((i, deficit));
            }
        }
        let (idx, deficit) = best?;
        if deficit <= 0 {
            // Every job is at/over its share; still make progress by giving
            // the least-served job one more slot (work conservation).
            return Some(Decision {
                candidate: idx,
                cap: view.jobs[view.candidates[idx].job].running_executors + 1,
            });
        }
        let job = view.candidates[idx].job;
        Some(Decision {
            candidate: idx,
            cap: view.jobs[job].stages[view.candidates[idx].stage].running + deficit as usize,
        })
    }
}

/// Shortest-remaining-processing-time: serve the job with the least
/// remaining work. Not one of the paper's baselines; used as Decima's
/// behaviour-cloning teacher and in ablation benches.
pub struct Srpt;

impl Scheduler for Srpt {
    fn name(&self) -> &str {
        "SRPT"
    }

    fn decide(&mut self, view: &SchedView) -> Option<Decision> {
        let idx = view
            .candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (wa, wb) =
                    (view.jobs[a.job].remaining_work(), view.jobs[b.job].remaining_work());
                wa.partial_cmp(&wb).unwrap().then(a.job.cmp(&b.job)).then(a.stage.cmp(&b.stage))
            })
            .map(|(i, _)| i)?;
        Some(Decision { candidate: idx, cap: usize::MAX })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{generate_workload, WorkloadConfig};
    use crate::sim::run_workload;

    fn workload(n: usize, seed: u64) -> Vec<crate::job::Job> {
        generate_workload(&WorkloadConfig { num_jobs: n, mean_interarrival: 1.5, seed })
    }

    #[test]
    fn all_policies_complete_workloads() {
        let jobs = workload(15, 1);
        for (name, stats) in [
            ("fifo", run_workload(&mut Fifo, &jobs, 12, None)),
            ("fair", run_workload(&mut Fair, &jobs, 12, None)),
            ("srpt", run_workload(&mut Srpt, &jobs, 12, None)),
        ] {
            assert_eq!(stats.jcts.len(), 15, "{name}");
            assert!(stats.mean_jct() > 0.0, "{name}");
        }
    }

    #[test]
    fn srpt_beats_fifo_on_mean_jct() {
        // The classic queueing result; holds on average over workloads.
        let mut srpt_wins = 0;
        for seed in 0..6 {
            let jobs = workload(25, 100 + seed);
            let fifo = run_workload(&mut Fifo, &jobs, 10, None).mean_jct();
            let srpt = run_workload(&mut Srpt, &jobs, 10, None).mean_jct();
            if srpt < fifo {
                srpt_wins += 1;
            }
        }
        assert!(srpt_wins >= 4, "SRPT should usually beat FIFO ({srpt_wins}/6)");
    }

    #[test]
    fn fair_beats_fifo_on_mean_jct_under_contention() {
        let mut fair_wins = 0;
        for seed in 0..12 {
            let jobs = workload(50, 200 + seed);
            let fifo = run_workload(&mut Fifo, &jobs, 8, None).mean_jct();
            let fair = run_workload(&mut Fair, &jobs, 8, None).mean_jct();
            if fair < fifo {
                fair_wins += 1;
            }
        }
        assert!(fair_wins >= 8, "Fair should usually beat FIFO ({fair_wins}/12)");
    }
}
