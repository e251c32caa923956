//! Simulation parameters (paper §V-C) with validation.

use ipd::game::GameConfig;
use ipd::payoff::PayoffMatrix;
use ipd::state::StateSpace;
use ipd::MAX_MEMORY_STEPS;
use serde::{Deserialize, Serialize};

/// Which family of strategies the population is drawn from and mutated
/// within (paper §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Deterministic per-state moves — the scaling studies use these.
    Pure,
    /// Probabilistic per-state moves — the WSLS validation study (Fig 2)
    /// "allowed the strategies to be probabilistic in nature".
    Mixed,
}

/// Which evolutionary update rule drives strategy spread. The paper uses
/// pairwise comparison; the alternatives are classic baselines for
/// ablations of that design choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum UpdateRule {
    /// The paper's rule (§IV-B): random teacher/learner pair; Fermi-
    /// probability adoption.
    #[default]
    PairwiseComparison,
    /// Moran birth-death: a parent is chosen proportional to fitness and
    /// its strategy replaces a uniformly chosen victim's.
    Moran,
    /// A uniformly chosen learner copies the fittest SSet outright
    /// (best-takes-over imitation).
    ImitateBest,
}

/// How mutation generates a new strategy for its target SSet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum MutationKind {
    /// The paper's `gen_new_strat()`: a uniformly random strategy,
    /// exploring the whole 2^(4^n) space in one jump.
    #[default]
    Fresh,
    /// Local search: flip `states` randomly chosen state entries of the
    /// target's current strategy (pure: invert the move; mixed: redraw the
    /// probability). Explores the neighbourhood instead of teleporting.
    PointFlip {
        /// Number of state entries changed per mutation (≥ 1).
        states: usize,
    },
}

/// Full parameter set for a population run. Defaults follow §V-C:
/// payoff `[3,0,4,1]`, 200 rounds, PC rate 10%, μ = 0.05.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Memory steps n ∈ [0, 6]; the state space has 4^n states.
    pub mem_steps: usize,
    /// Number of Strategy Sets in the population.
    pub num_ssets: usize,
    /// Agents per SSet. `0` means "auto": equal to `num_ssets`, the paper's
    /// choice "so that each agent would handle one game per generation".
    pub agents_per_sset: usize,
    /// Per-game settings (rounds, noise, payoff matrix).
    pub game: GameConfig,
    /// Probability per generation that a pairwise-comparison event occurs.
    pub pc_rate: f64,
    /// Probability per generation that a random mutation occurs (μ).
    pub mutation_rate: f64,
    /// Fermi selection intensity β; `f64::INFINITY` for deterministic
    /// imitation.
    pub beta: f64,
    /// Pure or mixed strategy population.
    pub kind: StrategyKind,
    /// Gate learning on the teacher being strictly fitter, per the paper's
    /// Nature-Agent pseudocode (`if fitness_teacher > fitness_learner`).
    /// Setting this `false` gives the standard ungated Fermi process of
    /// Traulsen et al. \[15\] — an ablation the tests exercise.
    pub teacher_must_be_fitter: bool,
    /// The evolutionary update rule; the PC-rate parameter sets the event
    /// frequency for every rule.
    #[serde(default)]
    pub rule: UpdateRule,
    /// Mutation operator (paper default: fresh uniform draws).
    #[serde(default)]
    pub mutation_kind: MutationKind,
    /// Generations to simulate in [`crate::population::Population::run_to_end`].
    pub generations: u64,
    /// Master seed; every stochastic stream derives from it.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            mem_steps: 1,
            num_ssets: 64,
            agents_per_sset: 0,
            game: GameConfig {
                rounds: 200,
                noise: 0.0,
                payoff: PayoffMatrix::default(),
            },
            pc_rate: 0.10,
            mutation_rate: 0.05,
            beta: 1.0,
            kind: StrategyKind::Pure,
            teacher_must_be_fitter: true,
            rule: UpdateRule::PairwiseComparison,
            mutation_kind: MutationKind::Fresh,
            generations: 1_000,
            seed: 0,
        }
    }
}

/// Validation errors for [`Params`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// Memory steps exceed the supported maximum.
    MemorySteps(usize),
    /// The population needs at least two SSets for pairwise comparison.
    TooFewSSets(usize),
    /// A rate/probability parameter was outside `[0, 1]`.
    BadRate { name: &'static str, value: f64 },
    /// β must be non-negative.
    BadBeta(f64),
    /// A payoff-matrix entry is NaN or infinite.
    BadPayoff { name: &'static str, value: f64 },
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::MemorySteps(n) => {
                write!(f, "memory-{n} unsupported (max memory-{MAX_MEMORY_STEPS})")
            }
            ParamsError::TooFewSSets(n) => {
                write!(f, "population needs at least 2 SSets, got {n}")
            }
            ParamsError::BadRate { name, value } => {
                write!(f, "{name} = {value} is not a probability in [0, 1]")
            }
            ParamsError::BadBeta(b) => write!(f, "selection intensity β = {b} must be ≥ 0"),
            ParamsError::BadPayoff { name, value } => {
                write!(f, "payoff {name} = {value} must be finite")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// Check a game configuration: the noise is a probability in `[0, 1]` and
/// every payoff entry is finite. Every boundary that accepts a
/// [`GameConfig`] runs it: [`Params::validate`] and
/// [`SpatialParams::validate`](crate::spatial::SpatialParams::validate).
pub fn validate_game(game: &GameConfig) -> Result<(), ParamsError> {
    if !(0.0..=1.0).contains(&game.noise) {
        return Err(ParamsError::BadRate {
            name: "noise",
            value: game.noise,
        });
    }
    let names = ["reward", "sucker", "temptation", "punishment"];
    for (name, value) in names.into_iter().zip(game.payoff.as_rstp()) {
        if !value.is_finite() {
            return Err(ParamsError::BadPayoff { name, value });
        }
    }
    Ok(())
}

impl Params {
    /// Validate all fields and derive the state space.
    pub fn validate(&self) -> Result<StateSpace, ParamsError> {
        let space =
            StateSpace::new(self.mem_steps).map_err(|_| ParamsError::MemorySteps(self.mem_steps))?;
        if self.num_ssets < 2 {
            return Err(ParamsError::TooFewSSets(self.num_ssets));
        }
        for (name, value) in [
            ("pc_rate", self.pc_rate),
            ("mutation_rate", self.mutation_rate),
        ] {
            if !(0.0..=1.0).contains(&value) || value.is_nan() {
                return Err(ParamsError::BadRate { name, value });
            }
        }
        validate_game(&self.game)?;
        if self.beta < 0.0 || self.beta.is_nan() {
            return Err(ParamsError::BadBeta(self.beta));
        }
        Ok(space)
    }

    /// Effective agents per SSet: the explicit value, or `num_ssets` when
    /// auto (`0`) — the paper's §V-C default.
    pub fn effective_agents_per_sset(&self) -> usize {
        if self.agents_per_sset == 0 {
            self.num_ssets
        } else {
            self.agents_per_sset
        }
    }

    /// Total agents in the population (`num_ssets × agents_per_sset`); with
    /// the auto default this is `num_ssets²`, the quantity behind the
    /// paper's Table VIII and its 10^18-agent headline.
    pub fn total_agents(&self) -> u128 {
        self.num_ssets as u128 * self.effective_agents_per_sset() as u128
    }

    /// Games played per generation: every SSet evaluates against every SSet
    /// (including itself), i.e. `num_ssets²` — "the number of games … grows
    /// with the square of the number of SSets" (§VI-B2).
    pub fn games_per_generation(&self) -> u128 {
        self.num_ssets as u128 * self.num_ssets as u128
    }

    /// The paper's WSLS validation configuration (§VI-A): memory-one,
    /// probabilistic strategies, PC rate 10%, μ = 0.05, payoff \[3,0,4,1\].
    /// `num_ssets` and `generations` are left to the caller's scale.
    pub fn wsls_validation(num_ssets: usize, generations: u64) -> Params {
        Params {
            mem_steps: 1,
            num_ssets,
            kind: StrategyKind::Mixed,
            pc_rate: 0.10,
            mutation_rate: 0.05,
            generations,
            ..Params::default()
        }
    }

    /// The paper's scaling-study configuration (§VI-B): pure strategies,
    /// 1,000 generations, PC rate 0.01.
    pub fn scaling_study(mem_steps: usize, num_ssets: usize) -> Params {
        Params {
            mem_steps,
            num_ssets,
            kind: StrategyKind::Pure,
            pc_rate: 0.01,
            generations: 1_000,
            ..Params::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_v_c() {
        let p = Params::default();
        assert_eq!(p.game.rounds, 200);
        assert_eq!(p.pc_rate, 0.10);
        assert_eq!(p.mutation_rate, 0.05);
        assert_eq!(p.game.payoff.as_rstp(), [3.0, 0.0, 4.0, 1.0]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn auto_agents_equal_num_ssets() {
        let p = Params {
            num_ssets: 128,
            ..Params::default()
        };
        assert_eq!(p.effective_agents_per_sset(), 128);
        assert_eq!(p.total_agents(), 128 * 128);
        let q = Params {
            num_ssets: 128,
            agents_per_sset: 4,
            ..Params::default()
        };
        assert_eq!(q.effective_agents_per_sset(), 4);
        assert_eq!(q.total_agents(), 512);
    }

    #[test]
    fn games_grow_with_square_of_ssets() {
        let p = Params {
            num_ssets: 1_024,
            ..Params::default()
        };
        assert_eq!(p.games_per_generation(), 1_024 * 1_024);
    }

    #[test]
    fn paper_scale_population_is_order_ten_to_eighteen() {
        // §VI-C: 1,073,741,824 SSets with agents-per-SSet = num-SSets gives
        // O(10^18) agents.
        let p = Params {
            num_ssets: 1_073_741_824,
            ..Params::default()
        };
        assert_eq!(p.total_agents(), 1_152_921_504_606_846_976u128); // 2^60
        assert!(p.total_agents() >= 1_000_000_000_000_000_000u128);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let ok = Params::default();
        assert!(ok.validate().is_ok());
        assert!(matches!(
            Params { mem_steps: 9, ..ok.clone() }.validate(),
            Err(ParamsError::MemorySteps(9))
        ));
        assert!(matches!(
            Params { num_ssets: 1, ..ok.clone() }.validate(),
            Err(ParamsError::TooFewSSets(1))
        ));
        assert!(matches!(
            Params { pc_rate: 1.5, ..ok.clone() }.validate(),
            Err(ParamsError::BadRate { name: "pc_rate", .. })
        ));
        assert!(matches!(
            Params { mutation_rate: -0.1, ..ok.clone() }.validate(),
            Err(ParamsError::BadRate { name: "mutation_rate", .. })
        ));
        assert!(matches!(
            Params { beta: -1.0, ..ok.clone() }.validate(),
            Err(ParamsError::BadBeta(_))
        ));
        let mut bad_noise = ok.clone();
        bad_noise.game.noise = 2.0;
        assert!(bad_noise.validate().is_err());
        bad_noise.game.noise = f64::NAN;
        assert!(matches!(
            bad_noise.validate(),
            Err(ParamsError::BadRate { name: "noise", .. })
        ));
    }

    #[test]
    fn non_finite_payoffs_are_typed_errors() {
        let ok = Params::default();
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut bad = ok.clone();
            bad.game.payoff.temptation = value;
            assert!(matches!(
                bad.validate(),
                Err(ParamsError::BadPayoff {
                    name: "temptation",
                    ..
                })
            ));
        }
        // JSON number overflow parses to +inf; validation must catch it.
        let json = serde_json::to_string(&ok)
            .unwrap()
            .replace("\"reward\":3.0", "\"reward\":1e999");
        let parsed: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.game.payoff.reward, f64::INFINITY);
        assert!(matches!(
            parsed.validate(),
            Err(ParamsError::BadPayoff { name: "reward", .. })
        ));
    }

    #[test]
    fn presets_configure_paper_settings() {
        let w = Params::wsls_validation(5_000, 10_000);
        assert_eq!(w.kind, StrategyKind::Mixed);
        assert_eq!(w.num_ssets, 5_000);
        assert_eq!(w.pc_rate, 0.10);
        let s = Params::scaling_study(6, 1_024);
        assert_eq!(s.kind, StrategyKind::Pure);
        assert_eq!(s.pc_rate, 0.01);
        assert_eq!(s.generations, 1_000);
        assert_eq!(s.mem_steps, 6);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Params::default();
        let json = serde_json::to_string(&p).unwrap();
        let q: Params = serde_json::from_str(&json).unwrap();
        assert_eq!(p.num_ssets, q.num_ssets);
        assert_eq!(p.pc_rate, q.pc_rate);
        assert_eq!(p.kind, q.kind);
    }
}
