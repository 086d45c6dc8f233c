//! CAPTCHA challenges with explicit two-sided economics.
//!
//! §V: "Even if attackers can leverage CAPTCHA-solving services, these
//! measures add cost and complexity to automated attacks." The model makes
//! that quantitative: humans abandon with a small probability (the
//! usability cost), and bots pay a solver fee per attempt and pass with the
//! solver's success probability.
//!
//! Each solved outcome also carries a solving latency drawn from the
//! policy, which advances the CAPTCHA RNG, but nothing applies it: no
//! client waits for it.

use fg_core::money::Money;
use fg_core::time::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The outcome of presenting one CAPTCHA.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CaptchaOutcome {
    /// Solved; carries the solving latency.
    Solved {
        /// Time spent solving.
        latency: SimDuration,
    },
    /// The client gave up — for humans this is the usability loss §V warns
    /// about; for bots, a solver failure.
    Abandoned,
}

impl CaptchaOutcome {
    /// `true` if the challenge was passed.
    pub fn solved(&self) -> bool {
        matches!(self, CaptchaOutcome::Solved { .. })
    }
}

/// CAPTCHA behaviour parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CaptchaPolicy {
    /// Probability a human abandons rather than solving (friction).
    pub human_abandon_prob: f64,
    /// Mean human solving time.
    pub human_latency: SimDuration,
    /// Per-solve price of a commercial solving service (≈ $1–3 / 1000 in the
    /// wild; default 0.2¢).
    pub solver_price: Money,
    /// Solver success probability.
    pub solver_success_prob: f64,
    /// Mean solver latency.
    pub solver_latency: SimDuration,
}

impl CaptchaPolicy {
    /// The behaviour the defended app challenges with.
    pub const DEFAULT: CaptchaPolicy = CaptchaPolicy {
        human_abandon_prob: 0.03,
        human_latency: SimDuration::from_secs(12),
        solver_price: Money::from_micros(2_000), // $0.002
        solver_success_prob: 0.92,
        solver_latency: SimDuration::from_secs(25),
    };

    /// Presents the challenge to a human.
    pub fn challenge_human<R: Rng + ?Sized>(&self, rng: &mut R) -> CaptchaOutcome {
        if rng.gen_bool(self.human_abandon_prob.clamp(0.0, 1.0)) {
            CaptchaOutcome::Abandoned
        } else {
            CaptchaOutcome::Solved {
                latency: jitter(self.human_latency, rng),
            }
        }
    }

    /// Presents the challenge to a bot using a solving service. The caller
    /// charges [`CaptchaPolicy::solver_price`] per *attempt*, succeed or
    /// fail — as real services charge.
    pub fn challenge_bot<R: Rng + ?Sized>(&self, rng: &mut R) -> CaptchaOutcome {
        if rng.gen_bool(self.solver_success_prob.clamp(0.0, 1.0)) {
            CaptchaOutcome::Solved {
                latency: jitter(self.solver_latency, rng),
            }
        } else {
            CaptchaOutcome::Abandoned
        }
    }
}

fn jitter<R: Rng + ?Sized>(mean: SimDuration, rng: &mut R) -> SimDuration {
    mean.mul_f64(rng.gen_range(0.6..1.4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn humans_usually_pass_free() {
        let policy = CaptchaPolicy::DEFAULT;
        let mut rng = StdRng::seed_from_u64(1);
        let outcomes: Vec<CaptchaOutcome> = (0..1000)
            .map(|_| policy.challenge_human(&mut rng))
            .collect();
        let solved = outcomes.iter().filter(|o| o.solved()).count();
        assert!(solved > 940, "solved {solved}/1000");
    }

    /// What a bot pays per attempt is charged by the app's gate and checked
    /// there (`challenged_bot_pays_solver_fees`).
    #[test]
    fn bots_solve_at_the_solver_success_rate() {
        let policy = CaptchaPolicy::DEFAULT;
        let mut rng = StdRng::seed_from_u64(2);
        let solved: u32 = (0..1000)
            .map(|_| u32::from(policy.challenge_bot(&mut rng).solved()))
            .sum();
        assert!(solved > 880 && solved < 960, "solver success {solved}/1000");
    }

    #[test]
    fn bot_solving_is_slower_than_human() {
        let policy = CaptchaPolicy::DEFAULT;
        let mut rng = StdRng::seed_from_u64(3);
        let human_mean: f64 = (0..200)
            .filter_map(|_| match policy.challenge_human(&mut rng) {
                CaptchaOutcome::Solved { latency, .. } => Some(latency.as_secs_f64()),
                CaptchaOutcome::Abandoned => None,
            })
            .sum::<f64>()
            / 200.0;
        let bot_mean: f64 = (0..200)
            .filter_map(|_| match policy.challenge_bot(&mut rng) {
                CaptchaOutcome::Solved { latency, .. } => Some(latency.as_secs_f64()),
                CaptchaOutcome::Abandoned => None,
            })
            .sum::<f64>()
            / 200.0;
        assert!(bot_mean > human_mean);
    }

    #[test]
    fn outcome_accessors() {
        let o = CaptchaOutcome::Solved {
            latency: SimDuration::from_secs(10),
        };
        assert!(o.solved());
        assert!(!CaptchaOutcome::Abandoned.solved());
    }

    #[test]
    fn deterministic_per_seed() {
        let policy = CaptchaPolicy::DEFAULT;
        let a = policy.challenge_bot(&mut StdRng::seed_from_u64(7));
        let b = policy.challenge_bot(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }
}
