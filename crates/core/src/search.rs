//! The evaluation loop every placement search shares (§3.4: sample a
//! round, measure it, keep the best, update). `Rounds` keeps its books;
//! the caller's loop body proposes each round and learns from it, as
//! [`Agent::train`](crate::Agent::train) does for PPO.

use crate::agent::{TrainingLog, TrainingRecord};
use mars_sim::{Environment, EvalOutcome, Placement};
use std::time::Instant;

/// The current round's outcome counts, with the run's totals after
/// them: what `ppo.update` reads of a round.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundSummary {
    pub samples_so_far: usize,
    pub best_so_far_s: Option<f64>,
    pub valid: usize,
    pub oom: usize,
    pub bad: usize,
    valid_sum_s: f64,
    pub eval_wall_s: f64,
}

impl RoundSummary {
    pub fn mean_valid_reading_s(&self) -> Option<f64> {
        (self.valid > 0).then(|| self.valid_sum_s / self.valid as f64)
    }

    pub fn valid_fraction(&self) -> f64 {
        self.valid as f64 / (self.valid + self.oom + self.bad).max(1) as f64
    }
}

/// One training call's books: it evaluates through `env` and extends
/// `log` until the log holds `budget` samples. A round is the
/// evaluations between two `close` calls.
pub(crate) struct Rounds<'a> {
    env: &'a mut dyn Environment,
    log: &'a mut TrainingLog,
    budget: usize,
    round: RoundSummary,
    t0: Instant,
    start_wall_s: f64,
    machine_t0: f64,
}

impl<'a> Rounds<'a> {
    pub fn new(env: &'a mut dyn Environment, log: &'a mut TrainingLog, budget: usize) -> Self {
        let (start_wall_s, machine_t0) = (log.train_wall_s, env.machine_seconds());
        let round = RoundSummary::default();
        Rounds { env, log, budget, round, t0: Instant::now(), start_wall_s, machine_t0 }
    }

    /// The next round's size, at most `per_round`; `None` once the
    /// budget is spent.
    pub fn next(&self, per_round: usize) -> Option<usize> {
        let left = self.budget.saturating_sub(self.log.total_samples);
        (left > 0).then(|| per_round.min(left))
    }

    /// Evaluate `placements` as one batch and return their outcomes in
    /// sample order, keeping the best valid placement and counting
    /// each outcome.
    pub fn evaluate(&mut self, placements: &[Placement]) -> Vec<EvalOutcome> {
        let eval_t0 = Instant::now();
        let outcomes = self.env.evaluate_batch(placements);
        self.round.eval_wall_s += eval_t0.elapsed().as_secs_f64();
        for (placement, outcome) in placements.iter().zip(&outcomes) {
            let (count, counter) = match *outcome {
                EvalOutcome::Valid { per_step_s } => {
                    self.round.valid_sum_s += per_step_s;
                    if self.log.best_reading_s.is_none_or(|b| per_step_s < b) {
                        self.log.best_reading_s = Some(per_step_s);
                        self.log.best_placement = Some(placement.clone());
                    }
                    self.round.valid += 1;
                    continue;
                }
                EvalOutcome::Invalid { .. } => (&mut self.round.oom, "train.oom_penalty"),
                EvalOutcome::Bad { .. } => (&mut self.round.bad, "train.eval_cutoff"),
            };
            *count += 1;
            mars_telemetry::counter(counter).inc();
        }
        self.log.total_samples += outcomes.len();
        outcomes
    }

    pub fn summary(&self) -> RoundSummary {
        let (samples_so_far, best_so_far_s) = (self.log.total_samples, self.log.best_reading_s);
        RoundSummary { samples_so_far, best_so_far_s, ..self.round }
    }

    /// End the round: push its record.
    pub fn close(&mut self, policy_entropy: f64) {
        let s = self.summary();
        self.log.records.push(TrainingRecord {
            samples_so_far: s.samples_so_far,
            mean_valid_reading_s: s.mean_valid_reading_s(),
            best_so_far_s: s.best_so_far_s,
            valid_fraction: s.valid_fraction(),
            agent_wall_s: self.start_wall_s + self.t0.elapsed().as_secs_f64(),
            machine_s: self.env.machine_seconds(),
            policy_entropy,
        });
        self.round = RoundSummary::default();
    }

    /// End the call: add its wall time and machine time to the log.
    pub fn finish(self) {
        self.log.train_wall_s = self.start_wall_s + self.t0.elapsed().as_secs_f64();
        self.log.machine_s += self.env.machine_seconds() - self.machine_t0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mars_graph::generators::{Profile, Workload};
    use mars_sim::{Cluster, SimEnv};

    fn env(w: Workload) -> SimEnv {
        SimEnv::new(w.build(Profile::Reduced), Cluster::p100_quad(), 7)
    }

    /// A searcher with no learner: rounds of 3 taken in turn from a
    /// fixed list. Returns every outcome and each round's summary.
    fn drive(
        env: &mut SimEnv,
        list: &[Placement],
        budget: usize,
        log: &mut TrainingLog,
    ) -> (Vec<EvalOutcome>, Vec<RoundSummary>) {
        let mut rounds = Rounds::new(env, log, budget);
        let mut next = list.iter().cycle();
        let (mut outcomes, mut summaries) = (Vec::new(), Vec::new());
        while let Some(n) = rounds.next(3) {
            let placements: Vec<Placement> = next.by_ref().take(n).cloned().collect();
            outcomes.extend(rounds.evaluate(&placements));
            summaries.push(rounds.summary());
            rounds.close(0.5);
        }
        rounds.finish();
        (outcomes, summaries)
    }

    #[test]
    fn rounds_keep_budget_best_and_records() {
        let mut env = env(Workload::InceptionV3);
        let cpu = env.cluster().cpu_id();
        // The slow CPU placement opens every round, so the best is never
        // a round's first placement.
        let list: Vec<Placement> = [cpu, 1, 2, cpu, 3, 4, cpu]
            .iter()
            .map(|&d| Placement::all_on(env.graph(), d))
            .collect();
        let mut log = TrainingLog::default();
        let (outcomes, summaries) = drive(&mut env, &list, 7, &mut log);

        let samples: Vec<usize> = log.records.iter().map(|r| r.samples_so_far).collect();
        assert_eq!(samples, [3, 6, 7]);
        assert_eq!(log.total_samples, 7);
        assert_eq!(log.machine_s, env.machine_seconds());
        assert_eq!(log.records.last().map(|r| r.machine_s), Some(env.machine_seconds()));
        assert!(log.records.iter().all(|r| r.policy_entropy == 0.5));

        // Inception fits every device, the CPU included.
        assert!(outcomes.iter().all(EvalOutcome::is_valid), "{outcomes:?}");
        let first = summaries[0];
        assert_eq!((first.valid, first.oom, first.bad), (3, 0, 0));
        let [a, b, c] = [0, 1, 2].map(|i| outcomes[i].reading_s());
        assert_eq!(first.mean_valid_reading_s(), Some((a + b + c) / 3.0));
        let last = log.records.last().and_then(|r| r.mean_valid_reading_s);
        assert_eq!(last, Some(outcomes[6].reading_s()), "each record counts its own round");
        assert!(log.records.iter().all(|r| r.valid_fraction == 1.0));

        let (best_i, best) = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                EvalOutcome::Valid { per_step_s } => Some((i, *per_step_s)),
                _ => None,
            })
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("valid outcomes");
        assert_eq!(log.best_reading_s, Some(best));
        assert_eq!(log.best_placement.as_ref(), Some(&list[best_i]));
        assert_eq!(log.records.last().and_then(|r| r.best_so_far_s), Some(best));

        // A spent budget runs no round and leaves the log's trace as it
        // was (the wall clock still counts the call).
        let evaluations = env.evaluations();
        let machine_s = log.machine_s;
        let (outcomes, _) = drive(&mut env, &list, 5, &mut log);
        assert!(outcomes.is_empty());
        assert_eq!(env.evaluations(), evaluations);
        assert_eq!((log.total_samples, log.records.len()), (7, 3));
        assert_eq!(log.machine_s.to_bits(), machine_s.to_bits());
        assert_eq!(log.best_reading_s, Some(best));
    }

    #[test]
    fn rounds_count_oom_and_bad_outcomes() {
        // GNMT on one GPU runs out of memory; BERT on the CPU blows the
        // cutoff (both as in `mars_sim::measure`'s tests).
        let mut gnmt = env(Workload::Gnmt4);
        let oom = Placement::all_on(gnmt.graph(), 1);
        let mut log = TrainingLog::default();
        let (_, summaries) = drive(&mut gnmt, &[oom], 2, &mut log);
        assert_eq!((summaries[0].oom, summaries[0].valid), (2, 0));
        assert_eq!(summaries[0].mean_valid_reading_s(), None);
        assert_eq!(log.records[0].valid_fraction, 0.0);
        assert!(log.best_reading_s.is_none() && log.best_placement.is_none());

        let mut bert = env(Workload::BertBase);
        let bad = Placement::all_on(bert.graph(), bert.cluster().cpu_id());
        let mut log = TrainingLog::default();
        let (_, summaries) = drive(&mut bert, &[bad], 1, &mut log);
        assert_eq!((summaries[0].bad, summaries[0].valid), (1, 0));
        assert!(log.best_reading_s.is_none());
    }
}
