//! Iterated Prisoner's Dilemma substrate for evolutionary game dynamics.
//!
//! This crate implements the game-theoretic foundation of the SC 2012 paper
//! *"Massively Parallel Model of Evolutionary Game Dynamics"*: the two-player
//! Prisoner's Dilemma payoff structure, memory-*n* game state machinery for
//! n ∈ [0, 6] (up to 4^6 = 4096 states), pure and mixed behavioural
//! strategies (up to 2^4096 pure strategies at memory-six), and a noisy
//! iterated game engine.
//!
//! # Layout
//!
//! - [`payoff`] — moves ([`Move`]) and the PD payoff matrix ([`PayoffMatrix`]).
//! - [`state`] — the memory-*n* state space: encoding of the last *n* rounds
//!   into a state id, perspective swaps, and the materialised state table the
//!   paper searches linearly.
//! - [`history`] — each agent's explicit `current_view` of the game: a
//!   rolling window over the last *n* rounds for the paper's linear
//!   `find_state` lookup, used only by the `LinearScan` ablation.
//! - [`strategy`] — bit-packed pure strategies and probabilistic mixed
//!   strategies over the state space.
//! - [`classic`] — named strategies (ALLC, ALLD, TFT, WSLS, GTFT, GRIM, …)
//!   generalised to memory-*n*.
//! - [`game`] — the iterated game engine: plays two strategies against each
//!   other for a fixed number of rounds with optional execution noise.
//! - [`batch`] — word-parallel (bit-sliced) batch evaluation of
//!   deterministic games: 64 memory-≤1 games per `u64` operation,
//!   bit-identical to the scalar kernel.
//! - [`tournament`] — Axelrod-style round-robin tournaments.
//!
//! # Conventions
//!
//! Cooperation is encoded as `0` and defection as `1`, following the paper's
//! Table V. A memory-*n* state packs the last *n* rounds into `2n` bits with
//! the **most recent round in the two least-significant bits**; within a
//! round the agent's own move is the high bit and the opponent's move the low
//! bit. See [`state::StateSpace`] for the exact layout.
//!
//! # Quick example
//!
//! ```
//! use ipd::prelude::*;
//!
//! let space = StateSpace::new(1).unwrap();          // memory-one: 4 states
//! let wsls = classic::wsls(&space);
//! let tft = classic::tft(&space);
//! let game = GameConfig { rounds: 200, ..GameConfig::default() };
//! let outcome = play_deterministic(&space, &wsls, &tft, &game);
//! assert!(outcome.fitness_a > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod classic;
pub mod codec;
pub mod game;
pub mod history;
pub mod markov;
pub mod payoff;
pub mod state;
pub mod strategy;
pub mod tournament;
pub mod zd;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::classic;
    pub use crate::game::{play, play_deterministic, GameConfig, GameOutcome};
    pub use crate::history::HistoryView;
    pub use crate::payoff::{Move, PayoffMatrix};
    pub use crate::state::{StateId, StateSpace, StateTable};
    pub use crate::strategy::{MixedStrategy, PureStrategy, Strategy};
    pub use crate::tournament::{RoundRobin, TournamentResult};
}

pub use game::{play, play_deterministic, GameConfig, GameOutcome};
pub use history::HistoryView;
pub use payoff::{Move, PayoffMatrix};
pub use state::{StateId, StateSpace, StateTable};
pub use strategy::{MixedStrategy, PureStrategy, Strategy};

/// The maximum number of memory steps supported by this crate (the paper's
/// limit): memory-six yields 4^6 = 4096 states and 2^4096 pure strategies.
pub const MAX_MEMORY_STEPS: usize = 6;
