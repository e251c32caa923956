//! The iterated two-player game engine (paper §IV-C, the `IPD()` function).
//!
//! A game is `rounds` consecutive plays of the Prisoner's Dilemma between
//! two strategies. Both players start from the all-cooperation view (the
//! paper arbitrarily sets the first plays to 0) and each round:
//!
//! 1. each player determines its current state from its view of history,
//! 2. each picks a move via its strategy (sampling for mixed strategies),
//! 3. execution noise flips each move independently with probability ε
//!    (§III-E),
//! 4. payoffs accrue per the matrix, and both views roll forward.
//!
//! The paper's agent searches an explicit `current_view` window for its
//! state and evaluates it from each perspective. Here each player's view is
//! just its packed [`StateId`], rolled forward by [`StateSpace::advance`]
//! with no allocation; [`HistoryView`] keeps the explicit window only for
//! the paper-faithful [`StateLookup::LinearScan`] ablation.

use crate::history::HistoryView;
use crate::payoff::{Move, PayoffMatrix};
use crate::state::{StateId, StateSpace, StateTable};
use crate::strategy::{PureStrategy, Strategy};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of one iterated game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameConfig {
    /// Rounds per game. The paper fixes 200 (§V-C), "similar to Smith and
    /// Price's mathematical model".
    pub rounds: u32,
    /// Per-move execution error probability ε (§III-E). 0 disables noise.
    pub noise: f64,
    /// The payoff matrix; defaults to the paper's `[3,0,4,1]`.
    pub payoff: PayoffMatrix,
}

impl Default for GameConfig {
    fn default() -> Self {
        GameConfig {
            rounds: 200,
            noise: 0.0,
            payoff: PayoffMatrix::default(),
        }
    }
}

/// The result of one iterated game.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GameOutcome {
    /// Total fitness accumulated by player A (the paper's `fitness` return).
    pub fitness_a: f64,
    /// Total fitness accumulated by player B.
    pub fitness_b: f64,
    /// Rounds in which A cooperated.
    pub coop_a: u32,
    /// Rounds in which B cooperated.
    pub coop_b: u32,
    /// Rounds played.
    pub rounds: u32,
}

impl GameOutcome {
    /// Mean per-round fitness of player A.
    pub fn mean_fitness_a(&self) -> f64 {
        self.fitness_a / self.rounds as f64
    }

    /// Mean per-round fitness of player B.
    pub fn mean_fitness_b(&self) -> f64 {
        self.fitness_b / self.rounds as f64
    }

    /// Fraction of all moves (both players) that were cooperation.
    pub fn cooperation_rate(&self) -> f64 {
        (self.coop_a + self.coop_b) as f64 / (2 * self.rounds) as f64
    }

    /// The same outcome from player B's perspective.
    pub fn swapped(&self) -> GameOutcome {
        GameOutcome {
            fitness_a: self.fitness_b,
            fitness_b: self.fitness_a,
            coop_a: self.coop_b,
            coop_b: self.coop_a,
            rounds: self.rounds,
        }
    }
}

/// How agents locate their current state each round — the ablation behind
/// the paper's Fig 4 runtime analysis ("the increase in runtime actually
/// comes from identifying this state").
#[derive(Debug, Clone, Copy)]
pub enum StateLookup<'a> {
    /// O(1) rolling bit-packed index (our optimisation).
    Rolling,
    /// The paper's linear scan of the materialised state table,
    /// O(n · 4^n) per round.
    LinearScan(&'a StateTable),
}

/// Play one iterated game between two strategies, sampling mixed moves and
/// noise from `rng`.
pub fn play<R: Rng + ?Sized>(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    rng: &mut R,
) -> GameOutcome {
    sampled_game(space, a, b, config, &mut (), rng)
}

/// Play one iterated game with an explicit state-lookup mode (used by the
/// `state_lookup` ablation bench; results are identical across modes).
pub fn play_with_lookup<R: Rng + ?Sized>(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    lookup: StateLookup<'_>,
    rng: &mut R,
) -> GameOutcome {
    match lookup {
        StateLookup::Rolling => sampled_game(space, a, b, config, &mut (), rng),
        StateLookup::LinearScan(table) => {
            let mut scan = ScanViews(table, HistoryView::new(*space), HistoryView::new(*space));
            sampled_game(space, a, b, config, &mut scan, rng)
        }
    }
}

/// Per-round hooks of [`sampled_game`]. The defaults do nothing, so plain
/// [`play`] (`()`) compiles to the bare round loop.
trait RoundHooks {
    /// The states the players decide from, given their rolling states.
    #[inline]
    fn locate(&mut self, state_a: StateId, state_b: StateId) -> (StateId, StateId) {
        (state_a, state_b)
    }

    /// Observe one round's moves, after noise.
    #[inline]
    fn record(&mut self, _move_a: Move, _move_b: Move) {}
}

impl RoundHooks for () {}

/// [`play_transcript`] keeps every round's move pair.
impl RoundHooks for Vec<(Move, Move)> {
    fn record(&mut self, move_a: Move, move_b: Move) {
        self.push((move_a, move_b));
    }
}

/// [`StateLookup::LinearScan`]: each player keeps the paper's explicit
/// `current_view` and searches the state table for it every round.
struct ScanViews<'a>(&'a StateTable, HistoryView, HistoryView);

impl RoundHooks for ScanViews<'_> {
    fn locate(&mut self, _: StateId, _: StateId) -> (StateId, StateId) {
        (
            self.1.find_state_linear(self.0),
            self.2.find_state_linear(self.0),
        )
    }

    fn record(&mut self, move_a: Move, move_b: Move) {
        self.1.record(move_a, move_b);
        self.2.record(move_b, move_a);
    }
}

/// The one sampled-game round loop. Each player's state is a packed
/// [`StateId`] rolled forward with [`StateSpace::advance`]; per round the
/// RNG is drawn in a fixed order (A's move, B's move, A's noise, B's
/// noise) and payoffs are summed in round order.
fn sampled_game<R: Rng + ?Sized, H: RoundHooks>(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    hooks: &mut H,
    rng: &mut R,
) -> GameOutcome {
    debug_assert_eq!(a.space(), space, "strategy A space mismatch");
    debug_assert_eq!(b.space(), space, "strategy B space mismatch");
    let mut state_a = space.initial_state();
    let mut state_b = space.initial_state();
    let mut out = GameOutcome {
        fitness_a: 0.0,
        fitness_b: 0.0,
        coop_a: 0,
        coop_b: 0,
        rounds: config.rounds,
    };
    for _ in 0..config.rounds {
        let (at_a, at_b) = hooks.locate(state_a, state_b);
        let mut move_a = a.decide(at_a, rng);
        let mut move_b = b.decide(at_b, rng);
        if config.noise > 0.0 {
            if rng.random::<f64>() < config.noise {
                move_a = move_a.flipped();
            }
            if rng.random::<f64>() < config.noise {
                move_b = move_b.flipped();
            }
        }
        let (pa, pb) = config.payoff.payoffs(move_a, move_b);
        out.fitness_a += pa;
        out.fitness_b += pb;
        out.coop_a += move_a.is_cooperate() as u32;
        out.coop_b += move_b.is_cooperate() as u32;
        hooks.record(move_a, move_b);
        state_a = space.advance(state_a, move_a, move_b);
        state_b = space.advance(state_b, move_b, move_a);
    }
    obs::counters().add_game(config.rounds);
    out
}

/// Play a fully deterministic game between two *pure* strategies with no
/// noise — no RNG required. This is the hot kernel of the scaling studies
/// (the paper's strong/weak scaling runs use pure strategies).
pub fn play_deterministic(
    space: &StateSpace,
    a: &PureStrategy,
    b: &PureStrategy,
    config: &GameConfig,
) -> GameOutcome {
    debug_assert_eq!(a.space(), space);
    debug_assert_eq!(b.space(), space);
    let mut state_a = space.initial_state();
    let mut state_b = space.initial_state();
    let mut out = GameOutcome {
        fitness_a: 0.0,
        fitness_b: 0.0,
        coop_a: 0,
        coop_b: 0,
        rounds: config.rounds,
    };
    for _ in 0..config.rounds {
        let move_a = a.move_for(state_a);
        let move_b = b.move_for(state_b);
        let (pa, pb) = config.payoff.payoffs(move_a, move_b);
        out.fitness_a += pa;
        out.fitness_b += pb;
        out.coop_a += move_a.is_cooperate() as u32;
        out.coop_b += move_b.is_cooperate() as u32;
        state_a = space.advance(state_a, move_a, move_b);
        state_b = space.advance(state_b, move_b, move_a);
    }
    obs::counters().add_game(config.rounds);
    out
}

/// A full game record: the move pair of every round plus the outcome.
/// Used for move-pattern analysis (echo effects, forgiveness, alternation)
/// that aggregate fitness alone can't show.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transcript {
    /// `(player A's move, player B's move)` per round, in order.
    pub moves: Vec<(Move, Move)>,
    /// The aggregate outcome (identical to what [`play`] returns).
    pub outcome: GameOutcome,
}

impl Transcript {
    /// Rounds of mutual cooperation.
    pub fn mutual_cooperation(&self) -> usize {
        self.moves
            .iter()
            .filter(|(a, b)| a.is_cooperate() && b.is_cooperate())
            .count()
    }

    /// Rounds of mutual defection.
    pub fn mutual_defection(&self) -> usize {
        self.moves
            .iter()
            .filter(|(a, b)| !a.is_cooperate() && !b.is_cooperate())
            .count()
    }

    /// Longest run of consecutive mutual-defection rounds — the "echo"
    /// length that makes errors fatal for TFT (§III-E).
    pub fn longest_defection_echo(&self) -> usize {
        let mut best = 0;
        let mut cur = 0;
        for (a, b) in &self.moves {
            if !a.is_cooperate() && !b.is_cooperate() {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }
}

/// [`play`] variant that records every round. Same RNG consumption and
/// outcome as [`play`] given the same stream.
pub fn play_transcript<R: Rng + ?Sized>(
    space: &StateSpace,
    a: &Strategy,
    b: &Strategy,
    config: &GameConfig,
    rng: &mut R,
) -> Transcript {
    let mut moves = Vec::with_capacity(config.rounds as usize);
    let outcome = sampled_game(space, a, b, config, &mut moves, rng);
    Transcript { moves, outcome }
}

/// Play a deterministic game with **cycle detection**: a noiseless game
/// between pure strategies is a walk on the finite set of
/// `(state_a, state_b)` pairs, so it enters a cycle after at most
/// `4^n · 4^n` rounds — in practice within a handful (memory-one games
/// cycle within 17 rounds). Once the cycle is found, the remaining rounds
/// are paid out arithmetically instead of simulated.
///
/// Produces *exactly* the same [`GameOutcome`] as [`play_deterministic`]
/// (property-tested); the `game_kernel` bench quantifies the speedup. This
/// is the shape of fine-grained optimisation the paper's future-work
/// section anticipates for accelerator ports.
pub fn play_deterministic_cycle(
    space: &StateSpace,
    a: &PureStrategy,
    b: &PureStrategy,
    config: &GameConfig,
) -> GameOutcome {
    debug_assert_eq!(a.space(), space);
    debug_assert_eq!(b.space(), space);
    let rounds = config.rounds as usize;
    // Per-round cumulative records: cum[r] = totals after r rounds.
    // first_seen maps a state pair to the round index at which it was the
    // *pre-round* state.
    // detlint: allow(hash-iter, reason = "cycle-detection table is point-lookup only (get/insert by state pair); never iterated")
    let mut first_seen = std::collections::HashMap::<u32, usize>::with_capacity(64);
    let mut cum: Vec<(f64, f64, u32, u32)> = Vec::with_capacity(64.min(rounds) + 1);
    cum.push((0.0, 0.0, 0, 0));
    let mut state_a = space.initial_state();
    let mut state_b = space.initial_state();
    let mut out = GameOutcome {
        fitness_a: 0.0,
        fitness_b: 0.0,
        coop_a: 0,
        coop_b: 0,
        rounds: config.rounds,
    };
    for r in 0..rounds {
        let key = ((state_a as u32) << 16) | state_b as u32;
        if let Some(&r0) = first_seen.get(&key) {
            // Cycle of length L = r − r0 discovered. Totals so far are
            // cum[r]; each full cycle adds cum[r] − cum[r0]; the remainder
            // replays the recorded prefix of the cycle.
            let len = r - r0;
            let remaining = rounds - r;
            let (full, part) = (remaining / len, remaining % len);
            let delta = (
                cum[r].0 - cum[r0].0,
                cum[r].1 - cum[r0].1,
                cum[r].2 - cum[r0].2,
                cum[r].3 - cum[r0].3,
            );
            let partial = (
                cum[r0 + part].0 - cum[r0].0,
                cum[r0 + part].1 - cum[r0].1,
                cum[r0 + part].2 - cum[r0].2,
                cum[r0 + part].3 - cum[r0].3,
            );
            out.fitness_a = cum[r].0 + full as f64 * delta.0 + partial.0;
            out.fitness_b = cum[r].1 + full as f64 * delta.1 + partial.1;
            out.coop_a = cum[r].2 + full as u32 * delta.2 + partial.2;
            out.coop_b = cum[r].3 + full as u32 * delta.3 + partial.3;
            // Counts the *logical* rounds paid out, so the telemetry of a
            // cycle-accelerated run matches the naive kernel's.
            obs::counters().add_game(config.rounds);
            return out;
        }
        first_seen.insert(key, r);
        let move_a = a.move_for(state_a);
        let move_b = b.move_for(state_b);
        let (pa, pb) = config.payoff.payoffs(move_a, move_b);
        let last = *cum.last().expect("cum starts non-empty");
        cum.push((
            last.0 + pa,
            last.1 + pb,
            last.2 + move_a.is_cooperate() as u32,
            last.3 + move_b.is_cooperate() as u32,
        ));
        state_a = space.advance(state_a, move_a, move_b);
        state_b = space.advance(state_b, move_b, move_a);
    }
    let last = *cum.last().expect("nonempty");
    out.fitness_a = last.0;
    out.fitness_b = last.1;
    out.coop_a = last.2;
    out.coop_b = last.3;
    obs::counters().add_game(config.rounds);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sp(n: usize) -> StateSpace {
        StateSpace::new(n).unwrap()
    }

    fn cfg(rounds: u32) -> GameConfig {
        GameConfig {
            rounds,
            ..GameConfig::default()
        }
    }

    #[test]
    fn allc_vs_allc_scores_reward_every_round() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_c(&s), &classic::all_c(&s), &cfg(200));
        assert_eq!(o.fitness_a, 600.0);
        assert_eq!(o.fitness_b, 600.0);
        assert_eq!(o.coop_a, 200);
        assert_eq!(o.cooperation_rate(), 1.0);
    }

    #[test]
    fn alld_exploits_allc() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_d(&s), &classic::all_c(&s), &cfg(200));
        assert_eq!(o.fitness_a, 800.0); // T every round
        assert_eq!(o.fitness_b, 0.0); // S every round
        assert_eq!(o.coop_a, 0);
        assert_eq!(o.coop_b, 200);
    }

    #[test]
    fn tft_vs_alld_loses_only_first_round() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::tft(&s), &classic::all_d(&s), &cfg(200));
        // Round 1: TFT cooperates (initial view all-C), gets S=0; opponent T=4.
        // Thereafter mutual defection: P=1 each.
        assert_eq!(o.fitness_a, 199.0);
        assert_eq!(o.fitness_b, 4.0 + 199.0);
        assert_eq!(o.coop_a, 1);
    }

    #[test]
    fn tft_vs_tft_sustains_cooperation() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::tft(&s), &classic::tft(&s), &cfg(100));
        assert_eq!(o.cooperation_rate(), 1.0);
        assert_eq!(o.fitness_a, 300.0);
    }

    #[test]
    fn wsls_vs_alld_alternates() {
        // WSLS vs ALLD: WSLS plays C (S, shift to D), D (P, shift to C),
        // C, D, ... — alternating C/D.
        let s = sp(1);
        let o = play_deterministic(&s, &classic::wsls(&s), &classic::all_d(&s), &cfg(200));
        assert_eq!(o.coop_a, 100);
        assert_eq!(o.fitness_a, 100.0 * 0.0 + 100.0 * 1.0);
        assert_eq!(o.fitness_b, 100.0 * 4.0 + 100.0 * 1.0);
    }

    #[test]
    fn outcome_is_symmetric_under_player_swap() {
        let s = sp(2);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let a = crate::strategy::PureStrategy::random(s, &mut rng);
            let b = crate::strategy::PureStrategy::random(s, &mut rng);
            let ab = play_deterministic(&s, &a, &b, &cfg(50));
            let ba = play_deterministic(&s, &b, &a, &cfg(50));
            assert_eq!(ab.swapped(), ba);
        }
    }

    #[test]
    fn stochastic_play_matches_deterministic_for_pure_strategies() {
        let s = sp(3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10 {
            let a = crate::strategy::PureStrategy::random(s, &mut rng);
            let b = crate::strategy::PureStrategy::random(s, &mut rng);
            let det = play_deterministic(&s, &a, &b, &cfg(64));
            let gen = play(
                &s,
                &Strategy::Pure(a.clone()),
                &Strategy::Pure(b.clone()),
                &cfg(64),
                &mut rng,
            );
            assert_eq!(det, gen);
        }
    }

    #[test]
    fn linear_scan_lookup_gives_identical_results() {
        let s = sp(2);
        let table = StateTable::new(s);
        let mut rng1 = ChaCha8Rng::seed_from_u64(99);
        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let a = Strategy::Pure(classic::wsls(&s));
        let b = Strategy::Mixed(classic::gtft(&s, &PayoffMatrix::default()));
        let fast = play_with_lookup(&s, &a, &b, &cfg(100), StateLookup::Rolling, &mut rng1);
        let slow =
            play_with_lookup(&s, &a, &b, &cfg(100), StateLookup::LinearScan(&table), &mut rng2);
        assert_eq!(fast, slow);
    }

    #[test]
    fn noise_breaks_tft_cooperation() {
        // The paper: an accidental defection is "fatal" for TFT pairs. With
        // noise, TFT vs TFT must score below mutual-cooperation level.
        let s = sp(1);
        let t = Strategy::Pure(classic::tft(&s));
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let noisy = GameConfig {
            rounds: 200,
            noise: 0.05,
            ..GameConfig::default()
        };
        let o = play(&s, &t, &t, &noisy, &mut rng);
        assert!(o.cooperation_rate() < 0.95, "rate {}", o.cooperation_rate());
    }

    #[test]
    fn wsls_recovers_from_noise_better_than_tft() {
        // Nowak & Sigmund [11]: WSLS outperforms TFT under errors. Compare
        // self-play mean fitness under 2% noise across many games.
        let s = sp(1);
        let noisy = GameConfig {
            rounds: 200,
            noise: 0.02,
            ..GameConfig::default()
        };
        let wsls = Strategy::Pure(classic::wsls(&s));
        let tft = Strategy::Pure(classic::tft(&s));
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let games = 200;
        let mut wsls_total = 0.0;
        let mut tft_total = 0.0;
        for _ in 0..games {
            wsls_total += play(&s, &wsls, &wsls, &noisy, &mut rng).fitness_a;
            tft_total += play(&s, &tft, &tft, &noisy, &mut rng).fitness_a;
        }
        assert!(
            wsls_total > tft_total,
            "WSLS self-play {wsls_total} should beat TFT self-play {tft_total} under noise"
        );
    }

    #[test]
    fn zero_rounds_yields_zero_fitness() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_c(&s), &classic::all_d(&s), &cfg(0));
        assert_eq!(o.fitness_a, 0.0);
        assert_eq!(o.fitness_b, 0.0);
        assert_eq!(o.rounds, 0);
    }

    #[test]
    fn memory_zero_strategies_play_constant_moves() {
        let s = sp(0);
        let o = play_deterministic(&s, &classic::all_d(&s), &classic::all_c(&s), &cfg(10));
        assert_eq!(o.fitness_a, 40.0);
        assert_eq!(o.fitness_b, 0.0);
    }

    #[test]
    fn mean_fitness_helpers() {
        let s = sp(1);
        let o = play_deterministic(&s, &classic::all_c(&s), &classic::all_c(&s), &cfg(200));
        assert_eq!(o.mean_fitness_a(), 3.0);
        assert_eq!(o.mean_fitness_b(), 3.0);
    }

    #[test]
    fn transcript_outcome_matches_play() {
        let s = sp(2);
        let mut r1 = ChaCha8Rng::seed_from_u64(31);
        let mut r2 = ChaCha8Rng::seed_from_u64(31);
        let a = Strategy::Mixed(crate::strategy::MixedStrategy::random(s, &mut r1));
        let b = Strategy::Mixed(crate::strategy::MixedStrategy::random(s, &mut r1));
        let noisy = GameConfig {
            rounds: 80,
            noise: 0.05,
            ..GameConfig::default()
        };
        let mut g1 = ChaCha8Rng::seed_from_u64(7);
        let transcript = play_transcript(&s, &a, &b, &noisy, &mut g1);
        let mut g2 = ChaCha8Rng::seed_from_u64(7);
        let plain = play(&s, &a, &b, &noisy, &mut g2);
        let _ = &mut r2;
        assert_eq!(transcript.outcome, plain);
        assert_eq!(transcript.moves.len(), 80);
    }

    #[test]
    fn transcript_shows_wsls_alternation_vs_alld() {
        let s = sp(1);
        let wsls = Strategy::Pure(classic::wsls(&s));
        let alld = Strategy::Pure(classic::all_d(&s));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let t = play_transcript(&s, &wsls, &alld, &cfg(10), &mut rng);
        // WSLS alternates C, D, C, D, ... against a constant defector.
        let expect: Vec<Move> = (0..10)
            .map(|i| if i % 2 == 0 { Move::Cooperate } else { Move::Defect })
            .collect();
        let got: Vec<Move> = t.moves.iter().map(|(a, _)| *a).collect();
        assert_eq!(got, expect);
        assert_eq!(t.mutual_defection(), 5);
        assert_eq!(t.longest_defection_echo(), 1);
    }

    #[test]
    fn transcript_echo_metrics() {
        // ALLD vs TFT: the sucker round, then locked mutual defection —
        // the unbroken echo that §III-E warns about.
        let s = sp(1);
        let alld = Strategy::Pure(classic::all_d(&s));
        let tft = Strategy::Pure(classic::tft(&s));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let t = play_transcript(&s, &alld, &tft, &cfg(20), &mut rng);
        assert_eq!(t.mutual_cooperation(), 0);
        assert_eq!(t.mutual_defection(), 19);
        assert_eq!(t.longest_defection_echo(), 19);
    }

    #[test]
    fn cycle_kernel_matches_naive_for_classics() {
        let s = sp(1);
        let cfg200 = cfg(200);
        for (na, a) in classic::roster(&s) {
            for (nb, b) in classic::roster(&s) {
                assert_eq!(
                    play_deterministic(&s, &a, &b, &cfg200),
                    play_deterministic_cycle(&s, &a, &b, &cfg200),
                    "{na} vs {nb}"
                );
            }
        }
    }

    #[test]
    fn cycle_kernel_matches_naive_random_all_memories() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for mem in 0..=6 {
            let s = sp(mem);
            for _ in 0..20 {
                let a = crate::strategy::PureStrategy::random(s, &mut rng);
                let b = crate::strategy::PureStrategy::random(s, &mut rng);
                for rounds in [0u32, 1, 7, 50, 200, 1_000] {
                    assert_eq!(
                        play_deterministic(&s, &a, &b, &cfg(rounds)),
                        play_deterministic_cycle(&s, &a, &b, &cfg(rounds)),
                        "memory-{mem}, {rounds} rounds"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_kernel_handles_million_round_games() {
        // The arithmetic payout makes absurdly long games cheap.
        let s = sp(1);
        let long = cfg(1_000_000);
        let o = play_deterministic_cycle(&s, &classic::wsls(&s), &classic::all_d(&s), &long);
        // WSLS vs ALLD alternates C/D: half sucker, half punishment.
        assert_eq!(o.fitness_a, 500_000.0);
        assert_eq!(o.fitness_b, 2_500_000.0);
        assert_eq!(o.coop_a, 500_000);
    }

    #[test]
    fn memory_six_deterministic_game_runs() {
        let s = sp(6);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = crate::strategy::PureStrategy::random(s, &mut rng);
        let b = crate::strategy::PureStrategy::random(s, &mut rng);
        let o = play_deterministic(&s, &a, &b, &cfg(200));
        assert_eq!(o.rounds, 200);
        let max = 200.0 * 4.0;
        assert!(o.fitness_a <= max && o.fitness_b <= max);
    }
}
