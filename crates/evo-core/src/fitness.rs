//! Game dynamics: per-generation fitness evaluation (paper §IV-A, §V-A).
//!
//! Each generation, every SSet's strategy is measured against every strategy
//! assigned to any SSet — `s²` iterated games. These games are independent,
//! so this phase "is easily parallelized … and does not require any
//! communication": [`evaluate`] runs them either sequentially or via rayon,
//! with bit-identical results (each game draws from its own counter-based
//! RNG stream keyed by `(seed, focal, opponent, generation)`).
//!
//! Beyond the paper, [`evaluate_deduped`] exploits strategy interning: after
//! the population begins to fixate, most SSets share a handful of distinct
//! strategies, so only `u²` games between *unique* strategies are needed
//! (`u` ≤ number of distinct strategies). Deduplication is only sound when
//! games are deterministic (pure strategies, no noise); it is rejected
//! otherwise. The `generation` criterion bench quantifies the speedup.
//!
//! Deduplication composes with two further cost-only layers
//! (docs/PERFORMANCE.md):
//!
//! - The `*_cached` evaluator variants memoise distinct-pair payoffs
//!   **across generations** in a [`PayoffCache`] — consecutive generations
//!   differ by at most one adoption and one mutation, so nearly every pair
//!   is a cache hit once the run warms up. Sampled payoffs are cached only
//!   when deterministic; exact expectations ([`evaluate_expected`]) cache
//!   for any strategies.
//! - Cache misses on memory-≤1 populations with integral payoff matrices
//!   replay through the word-parallel kernel
//!   ([`ipd::batch::play_deterministic_batch`]), 64 games per `u64` op.
//!
//! Both layers are bit-identical to the plain evaluators (tested below and
//! in `population`).

use crate::paycache::{PayoffCache, PayoffKind};
use crate::pool::{StratId, StrategyPool};
use crate::rngstream::game_stream;
use ipd::game::{play, play_deterministic, play_deterministic_cycle, GameConfig};
use ipd::state::StateSpace;
use ipd::strategy::{PureStrategy, Strategy};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How the game-dynamics phase is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Single-threaded reference implementation.
    Sequential,
    /// Data-parallel over SSets via rayon (one task per focal SSet).
    Rayon,
}

/// When fitness is computed within the generation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitnessPolicy {
    /// Every generation, as the paper's SSet pseudocode does (§IV-D).
    EveryGeneration,
    /// Only in generations where the Nature Agent actually initiates a
    /// pairwise comparison — an extension that skips unused work (the PC
    /// rate in the scaling studies is 1%, so 99% of evaluations go unread).
    OnDemand,
}

/// Which inner-loop kernel plays deterministic (pure, noiseless) games.
/// Outcomes are identical (property-tested in `ipd`); only cost differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GameKernel {
    /// Simulate every round, as the paper's implementation does.
    #[default]
    Naive,
    /// Detect the state-pair cycle and pay out the remaining rounds
    /// arithmetically ([`play_deterministic_cycle`]).
    Cycle,
}

#[inline]
fn det_fitness(
    kernel: GameKernel,
    space: &StateSpace,
    a: &ipd::strategy::PureStrategy,
    b: &ipd::strategy::PureStrategy,
    game: &GameConfig,
) -> f64 {
    match kernel {
        GameKernel::Naive => play_deterministic(space, a, b, game).fitness_a,
        GameKernel::Cycle => play_deterministic_cycle(space, a, b, game).fitness_a,
    }
}

/// Compute every SSet's relative fitness: `fitness[i]` is the sum over all
/// opponents `j` (self included) of the focal payoff of the game
/// `strategy[i]` vs `strategy[j]`.
///
/// Works for any strategy kind; stochastic games draw from per-game streams
/// derived from `seed` and `generation`, so the result is independent of
/// `mode`.
pub fn evaluate(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    seed: u64,
    generation: u64,
    mode: ExecMode,
) -> Vec<f64> {
    evaluate_with_kernel(
        space,
        assignments,
        pool,
        game,
        seed,
        generation,
        mode,
        GameKernel::Naive,
    )
}

/// [`evaluate`] with an explicit deterministic-game kernel.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_with_kernel(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    seed: u64,
    generation: u64,
    mode: ExecMode,
    kernel: GameKernel,
) -> Vec<f64> {
    let s = assignments.len();
    let focal_fitness = |i: usize| -> f64 {
        let my_strat = pool.get(assignments[i]);
        let mut total = 0.0;
        for (j, &opp_id) in assignments.iter().enumerate() {
            let opp = pool.get(opp_id);
            total += game_fitness(
                space,
                my_strat,
                opp,
                game,
                seed,
                i as u32,
                j as u32,
                s as u32,
                generation,
                kernel,
            );
        }
        total
    };
    match mode {
        ExecMode::Sequential => (0..s).map(focal_fitness).collect(),
        ExecMode::Rayon => (0..s).into_par_iter().map(focal_fitness).collect(),
    }
}

/// Relative fitness of a single focal SSet against the whole population —
/// the per-owner computation of the distributed engine (each node evaluates
/// the SSets it owns; §V-A). `evaluate(...)[i] == evaluate_one(..., i)` for
/// every `i`, which is what keeps the distributed and shared-memory engines
/// bit-identical.
pub fn evaluate_one(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    seed: u64,
    generation: u64,
    focal: usize,
) -> f64 {
    evaluate_one_with_kernel(
        space,
        assignments,
        pool,
        game,
        seed,
        generation,
        focal,
        GameKernel::Naive,
    )
}

/// [`evaluate_one`] with an explicit deterministic-game kernel.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_one_with_kernel(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    seed: u64,
    generation: u64,
    focal: usize,
    kernel: GameKernel,
) -> f64 {
    evaluate_one_with_kernel_cached(
        space,
        assignments,
        pool,
        game,
        seed,
        generation,
        focal,
        kernel,
        None,
    )
}

/// [`evaluate_one_with_kernel`] memoising deterministic pair payoffs in
/// `cache`. Stochastic games (noise, mixed strategies) bypass the cache —
/// their payoffs draw from generation-keyed streams and legitimately vary.
/// Bit-identical to the uncached evaluator either way.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_one_with_kernel_cached(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    seed: u64,
    generation: u64,
    focal: usize,
    kernel: GameKernel,
    cache: Option<&PayoffCache>,
) -> f64 {
    if let Some(c) = cache {
        c.assert_game(game);
    }
    let s = assignments.len();
    let my_id = assignments[focal];
    let my_strat = pool.get(my_id);
    let mut total = 0.0;
    for (j, &opp_id) in assignments.iter().enumerate() {
        let opp = pool.get(opp_id);
        let deterministic = game.noise == 0.0
            && matches!(
                (my_strat.as_ref(), opp.as_ref()),
                (Strategy::Pure(_), Strategy::Pure(_))
            );
        total += match (deterministic, cache) {
            (true, Some(c)) => c.get(my_id, opp_id, PayoffKind::Sampled).unwrap_or_else(|| {
                let v = game_fitness(
                    space,
                    my_strat,
                    opp,
                    game,
                    seed,
                    focal as u32,
                    j as u32,
                    s as u32,
                    generation,
                    kernel,
                );
                c.insert(my_id, opp_id, PayoffKind::Sampled, v);
                v
            }),
            _ => game_fitness(
                space,
                my_strat,
                opp,
                game,
                seed,
                focal as u32,
                j as u32,
                s as u32,
                generation,
                kernel,
            ),
        };
    }
    total
}

/// The focal player's fitness for one game, using the game's own stream.
#[allow(clippy::too_many_arguments)]
fn game_fitness(
    space: &StateSpace,
    mine: &Strategy,
    opp: &Strategy,
    game: &GameConfig,
    seed: u64,
    focal: u32,
    opponent: u32,
    num_ssets: u32,
    generation: u64,
    kernel: GameKernel,
) -> f64 {
    if game.noise == 0.0 {
        if let (Strategy::Pure(a), Strategy::Pure(b)) = (mine, opp) {
            return det_fitness(kernel, space, a, b, game);
        }
    }
    let mut rng = game_stream(seed, focal, opponent, num_ssets, generation);
    play(space, mine, opp, game, &mut rng).fitness_a
}

/// Variance-free fitness: every SSet's **expected** relative fitness,
/// computed exactly by Markov-chain forward iteration
/// ([`ipd::markov::expected_outcome`]) instead of sampling games.
///
/// This changes the *dynamics*, not just the cost: selection acts on true
/// expected payoffs, with no sampling noise in the pairwise comparisons —
/// the "infinite-replicate" ablation of the paper's single-sample fitness.
/// It also deduplicates by distinct strategy pairs (sound here because
/// expectations don't depend on which SSet holds the strategy).
pub fn evaluate_expected(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    mode: ExecMode,
) -> Vec<f64> {
    evaluate_expected_cached(space, assignments, pool, game, mode, None)
}

/// [`evaluate_expected`] memoising pair expectations in `cache`.
/// Expectations are deterministic for *any* strategies and noise level, so
/// every distinct ordered pair is cacheable. Bit-identical to the uncached
/// evaluator.
pub fn evaluate_expected_cached(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    mode: ExecMode,
    cache: Option<&PayoffCache>,
) -> Vec<f64> {
    if let Some(c) = cache {
        c.assert_game(game);
    }
    // Count multiplicity of each distinct strategy id. A BTreeMap keeps
    // every downstream iteration in ascending-id order, so the float
    // accumulations below are order-stable run to run (hash maps would
    // reorder them under std's per-process hasher seed).
    let mut counts: BTreeMap<StratId, f64> = BTreeMap::new();
    for &id in assignments {
        *counts.entry(id).or_insert(0.0) += 1.0;
    }
    // Already sorted: BTreeMap iterates keys in ascending order.
    let unique: Vec<StratId> = counts.keys().copied().collect();
    let u = unique.len();
    let pos: BTreeMap<StratId, usize> = unique.iter().enumerate().map(|(k, &v)| (v, k)).collect();
    // Probe the cache for every ordered pair; replay only the misses.
    let mut payoff = vec![0.0f64; u * u];
    let mut misses: Vec<(usize, usize)> = Vec::new();
    for p in 0..u {
        for q in 0..u {
            match cache.and_then(|c| c.get(unique[p], unique[q], PayoffKind::Expected)) {
                Some(v) => payoff[p * u + q] = v,
                None => misses.push((p, q)),
            }
        }
    }
    let one = |&(p, q): &(usize, usize)| -> f64 {
        ipd::markov::expected_outcome(space, pool.get(unique[p]), pool.get(unique[q]), game)
            .fitness_a
    };
    let computed: Vec<f64> = match mode {
        ExecMode::Sequential => misses.iter().map(one).collect(),
        ExecMode::Rayon => (0..misses.len())
            .into_par_iter()
            .map(|i| one(&misses[i]))
            .collect(),
    };
    for (&(p, q), &v) in misses.iter().zip(&computed) {
        payoff[p * u + q] = v;
        if let Some(c) = cache {
            c.insert(unique[p], unique[q], PayoffKind::Expected, v);
        }
    }
    let weighted: Vec<f64> = (0..u)
        .map(|p| {
            unique
                .iter()
                .enumerate()
                .map(|(q, qid)| counts[qid] * payoff[p * u + q])
                .sum()
        })
        .collect();
    assignments.iter().map(|id| weighted[pos[id]]).collect()
}

/// Expected relative fitness of a single focal SSet (the `OnDemand`
/// companion of [`evaluate_expected`]), deduplicated over distinct
/// opponents.
pub fn evaluate_expected_one(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    focal: usize,
) -> f64 {
    evaluate_expected_one_cached(space, assignments, pool, game, focal, None)
}

/// [`evaluate_expected_one`] memoising pair expectations in `cache`.
pub fn evaluate_expected_one_cached(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    focal: usize,
    cache: Option<&PayoffCache>,
) -> f64 {
    if let Some(c) = cache {
        c.assert_game(game);
    }
    // Ascending-id iteration keeps the f64 summation order — and thus the
    // exact bit pattern of the result — independent of hasher state.
    let mut counts: BTreeMap<StratId, f64> = BTreeMap::new();
    for &id in assignments {
        *counts.entry(id).or_insert(0.0) += 1.0;
    }
    let me_id = assignments[focal];
    let me = pool.get(me_id);
    counts
        .iter()
        .map(|(&qid, &mult)| {
            let v = match cache.and_then(|c| c.get(me_id, qid, PayoffKind::Expected)) {
                Some(v) => v,
                None => {
                    let v =
                        ipd::markov::expected_outcome(space, me, pool.get(qid), game).fitness_a;
                    if let Some(c) = cache {
                        c.insert(me_id, qid, PayoffKind::Expected, v);
                    }
                    v
                }
            };
            mult * v
        })
        .sum()
}

/// Pre-warm `cache` from a strategy table: compute and memoise the focal
/// payoff of every ordered pair of *distinct assigned* strategies that the
/// cached evaluators would legally memoise — [`PayoffKind::Expected`]
/// entries for every pair when `expected` is set, [`PayoffKind::Sampled`]
/// entries for deterministic pairs (both pure, zero noise) otherwise.
/// Returns the number of entries inserted.
///
/// This is the resume/retry cold-start fix (docs/PERFORMANCE.md): the
/// payoff cache is deliberately excluded from checkpoints, so a restored
/// run used to replay its whole pair matrix on the first post-resume
/// evaluation. Pre-warming replays it once, up front, from the
/// checkpoint's own strategy table. Cost-only: every value comes from the
/// same pure functions the evaluators call on a miss
/// ([`play_deterministic`] / [`ipd::markov::expected_outcome`]), so a
/// pre-warmed run's trajectory, fitness bits, and statistics are
/// bit-identical to a cold one (tested in `population`).
pub fn prewarm_cache(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    kernel: GameKernel,
    expected: bool,
    cache: &PayoffCache,
) -> usize {
    cache.assert_game(game);
    // BTreeSet: ascending-id iteration, so insertion order is stable (the
    // cache itself is order-insensitive, but determinism costs nothing).
    let unique: Vec<StratId> = assignments.iter().copied().collect::<std::collections::BTreeSet<_>>().into_iter().collect();
    let mut inserted = 0;
    for &a in &unique {
        for &b in &unique {
            if expected {
                let v = ipd::markov::expected_outcome(space, pool.get(a), pool.get(b), game)
                    .fitness_a;
                cache.insert(a, b, PayoffKind::Expected, v);
                inserted += 1;
            } else if game.noise == 0.0 {
                if let (Strategy::Pure(pa), Strategy::Pure(pb)) =
                    (pool.get(a).as_ref(), pool.get(b).as_ref())
                {
                    let v = det_fitness(kernel, space, pa, pb, game);
                    cache.insert(a, b, PayoffKind::Sampled, v);
                    inserted += 1;
                }
            }
        }
    }
    inserted
}

/// `true` when fitness evaluation is fully deterministic — pure strategies
/// only and no execution noise — which is the soundness condition for
/// [`evaluate_deduped`].
pub fn is_deterministic(assignments: &[StratId], pool: &StrategyPool, game: &GameConfig) -> bool {
    game.noise == 0.0
        && assignments
            .iter()
            .all(|&id| matches!(pool.get(id).as_ref(), Strategy::Pure(_)))
}

/// Deduplicated fitness evaluation: play each *distinct* ordered strategy
/// pair once, then combine by multiplicity. Produces exactly the same
/// fitness vector as [`evaluate`] when games are deterministic; panics
/// otherwise (dedup would change stochastic results).
pub fn evaluate_deduped(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    mode: ExecMode,
) -> Vec<f64> {
    evaluate_deduped_cached(space, assignments, pool, game, mode, None)
}

/// [`evaluate_deduped`] memoising distinct-pair payoffs in `cache` across
/// generations. Cache misses replay through the word-parallel kernel
/// ([`ipd::batch::play_deterministic_batch`]) when the configuration
/// qualifies (memory ≤ 1, integral payoff matrix), and through scalar
/// [`play_deterministic`] otherwise — both bit-identical to the plain
/// evaluator, so trajectories do not depend on cache state or batch width.
pub fn evaluate_deduped_cached(
    space: &StateSpace,
    assignments: &[StratId],
    pool: &StrategyPool,
    game: &GameConfig,
    mode: ExecMode,
    cache: Option<&PayoffCache>,
) -> Vec<f64> {
    assert!(
        is_deterministic(assignments, pool, game),
        "deduplicated evaluation requires pure strategies and zero noise"
    );
    if let Some(c) = cache {
        c.assert_game(game);
    }
    // The distinct strategy ids in ascending order (BTreeSet: see
    // evaluate_expected for why iteration order matters here).
    let unique: Vec<StratId> = assignments
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let u = unique.len();
    let pos: BTreeMap<StratId, usize> = unique.iter().enumerate().map(|(k, &v)| (v, k)).collect();
    let pures: Vec<&PureStrategy> = unique
        .iter()
        .map(|&id| match pool.get(id).as_ref() {
            Strategy::Pure(p) => p,
            // detlint: allow(panic-path, reason = "invariant: the all_pure_deterministic gate a few lines up already verified every unique strategy is Strategy::Pure before this branch runs")
            _ => unreachable!("checked deterministic"),
        })
        .collect();
    // payoff[p*u + q] = focal fitness of unique strategy p against unique
    // q. Probe the cache for every ordered pair; play only the misses.
    let mut payoff = vec![0.0f64; u * u];
    let mut misses: Vec<(usize, usize)> = Vec::new();
    for p in 0..u {
        for q in 0..u {
            match cache.and_then(|c| c.get(unique[p], unique[q], PayoffKind::Sampled)) {
                Some(v) => payoff[p * u + q] = v,
                None => misses.push((p, q)),
            }
        }
    }
    let played: Vec<f64> = if ipd::batch::batch_is_word_parallel(space, game) {
        let pairs: Vec<(&PureStrategy, &PureStrategy)> =
            misses.iter().map(|&(p, q)| (pures[p], pures[q])).collect();
        match mode {
            ExecMode::Sequential => ipd::batch::play_deterministic_batch(space, &pairs, game)
                .into_iter()
                .map(|o| o.fitness_a)
                .collect(),
            ExecMode::Rayon => {
                // One 64-lane batch per task; index order keeps the output
                // identical to the sequential chunking.
                let chunks = pairs.len().div_ceil(64);
                (0..chunks)
                    .into_par_iter()
                    .map(|c| {
                        let lo = c * 64;
                        let hi = (lo + 64).min(pairs.len());
                        ipd::batch::play_deterministic_batch(space, &pairs[lo..hi], game)
                            .into_iter()
                            .map(|o| o.fitness_a)
                            .collect::<Vec<f64>>()
                    })
                    .collect::<Vec<Vec<f64>>>()
                    .into_iter()
                    .flatten()
                    .collect()
            }
        }
    } else {
        let one =
            |&(p, q): &(usize, usize)| play_deterministic(space, pures[p], pures[q], game).fitness_a;
        match mode {
            ExecMode::Sequential => misses.iter().map(one).collect(),
            ExecMode::Rayon => (0..misses.len())
                .into_par_iter()
                .map(|i| one(&misses[i]))
                .collect(),
        }
    };
    for (&(p, q), &v) in misses.iter().zip(&played) {
        payoff[p * u + q] = v;
        if let Some(c) = cache {
            c.insert(unique[p], unique[q], PayoffKind::Sampled, v);
        }
    }
    // fitness[i] = sum over opponents j, in assignment order, of
    // payoff[strat_i][strat_j]: `evaluate`'s order of additions, so the
    // bits match for any payoff matrix (a `count × payoff` sum over unique
    // opponents rounds differently once payoffs are non-integral).
    let columns: Vec<usize> = assignments.iter().map(|id| pos[id]).collect();
    let row_totals: Vec<f64> = (0..u)
        .map(|p| {
            let mut total = 0.0;
            for &q in &columns {
                total += payoff[p * u + q];
            }
            total
        })
        .collect();
    columns.iter().map(|&p| row_totals[p]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngstream::{stream, Domain};
    use ipd::classic;
    use ipd::payoff::PayoffMatrix;
    use ipd::strategy::{MixedStrategy, PureStrategy};
    use rand::Rng;

    fn setup_pure(
        n_ssets: usize,
        mem: usize,
        seed: u64,
    ) -> (StateSpace, Vec<StratId>, StrategyPool) {
        let space = StateSpace::new(mem).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(seed, Domain::Init, 0, 0);
        let assignments = (0..n_ssets)
            .map(|_| pool.intern(Strategy::Pure(PureStrategy::random(space, &mut rng))))
            .collect();
        (space, assignments, pool)
    }

    fn cfg() -> GameConfig {
        GameConfig {
            rounds: 50,
            noise: 0.0,
            payoff: PayoffMatrix::default(),
        }
    }

    #[test]
    fn sequential_and_rayon_agree_pure() {
        let (space, asg, pool) = setup_pure(24, 2, 1);
        let seq = evaluate(&space, &asg, &pool, &cfg(), 1, 0, ExecMode::Sequential);
        let par = evaluate(&space, &asg, &pool, &cfg(), 1, 0, ExecMode::Rayon);
        assert_eq!(seq, par);
    }

    #[test]
    fn sequential_and_rayon_agree_stochastic() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(3, Domain::Init, 0, 0);
        let asg: Vec<StratId> = (0..16)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let noisy = GameConfig {
            rounds: 50,
            noise: 0.05,
            payoff: PayoffMatrix::default(),
        };
        let seq = evaluate(&space, &asg, &pool, &noisy, 3, 5, ExecMode::Sequential);
        let par = evaluate(&space, &asg, &pool, &noisy, 3, 5, ExecMode::Rayon);
        assert_eq!(seq, par, "stochastic games must be schedule-invariant");
    }

    #[test]
    fn deduped_matches_naive() {
        // Population with heavy duplication: 4 distinct strategies over 32
        // SSets.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let ids = [
            pool.intern(Strategy::Pure(classic::all_c(&space))),
            pool.intern(Strategy::Pure(classic::all_d(&space))),
            pool.intern(Strategy::Pure(classic::tft(&space))),
            pool.intern(Strategy::Pure(classic::wsls(&space))),
        ];
        let asg: Vec<StratId> = (0..32).map(|i| ids[i % 4]).collect();
        let naive = evaluate(&space, &asg, &pool, &cfg(), 0, 0, ExecMode::Sequential);
        let dedup = evaluate_deduped(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        let dedup_par = evaluate_deduped(&space, &asg, &pool, &cfg(), ExecMode::Rayon);
        for i in 0..32 {
            assert!((naive[i] - dedup[i]).abs() < 1e-9, "sset {i}");
            assert!((naive[i] - dedup_par[i]).abs() < 1e-9, "sset {i} (rayon)");
        }
    }

    #[test]
    fn deduped_matches_naive_random_population() {
        let (space, asg, pool) = setup_pure(40, 3, 9);
        let naive = evaluate(&space, &asg, &pool, &cfg(), 9, 2, ExecMode::Sequential);
        let dedup = evaluate_deduped(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        for i in 0..asg.len() {
            assert!((naive[i] - dedup[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn deduped_is_bit_identical_to_evaluate_with_non_integral_payoffs() {
        // Summing `count × payoff` over unique opponents would reorder the
        // additions, which moves the low bits once payoffs are non-integral.
        let game = GameConfig {
            rounds: 200,
            noise: 0.0,
            payoff: PayoffMatrix::from_rstp(3.3, 0.1, 4.7, 1.1),
        };
        for mem in [1, 2] {
            let space = StateSpace::new(mem).unwrap();
            for seed in 0..40 {
                let mut pool = StrategyPool::new();
                let mut rng = stream(seed, Domain::Init, 0, 0);
                let distinct: Vec<StratId> = (0..4)
                    .map(|_| pool.intern(Strategy::Pure(PureStrategy::random(space, &mut rng))))
                    .collect();
                let asg: Vec<StratId> = (0..24)
                    .map(|_| distinct[rng.random_range(0..4usize)])
                    .collect();
                let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<u64>>();
                let naive = bits(evaluate(
                    &space,
                    &asg,
                    &pool,
                    &game,
                    seed,
                    0,
                    ExecMode::Sequential,
                ));
                let cache = PayoffCache::new(game);
                for mode in [ExecMode::Sequential, ExecMode::Rayon] {
                    let dedup = evaluate_deduped(&space, &asg, &pool, &game, mode);
                    assert_eq!(bits(dedup), naive, "memory-{mem} seed {seed} {mode:?}");
                    let cached =
                        evaluate_deduped_cached(&space, &asg, &pool, &game, mode, Some(&cache));
                    assert_eq!(
                        bits(cached),
                        naive,
                        "memory-{mem} seed {seed} {mode:?} cached"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "deduplicated evaluation requires")]
    fn deduped_rejects_noise() {
        let (space, asg, pool) = setup_pure(8, 1, 0);
        let noisy = GameConfig {
            rounds: 10,
            noise: 0.1,
            payoff: PayoffMatrix::default(),
        };
        evaluate_deduped(&space, &asg, &pool, &noisy, ExecMode::Sequential);
    }

    #[test]
    #[should_panic(expected = "deduplicated evaluation requires")]
    fn deduped_rejects_mixed_strategies() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let id = pool.intern(Strategy::Mixed(classic::random_mixed(&space)));
        evaluate_deduped(&space, &[id, id], &pool, &cfg(), ExecMode::Sequential);
    }

    #[test]
    fn alld_dominates_allc_population_fitness() {
        // In a population of ALLC with one ALLD, the defector's relative
        // fitness must exceed every cooperator's.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let c = pool.intern(Strategy::Pure(classic::all_c(&space)));
        let d = pool.intern(Strategy::Pure(classic::all_d(&space)));
        let mut asg = vec![c; 16];
        asg[7] = d;
        let fit = evaluate(&space, &asg, &pool, &cfg(), 0, 0, ExecMode::Sequential);
        for (i, f) in fit.iter().enumerate() {
            if i != 7 {
                assert!(fit[7] > *f, "defector must out-earn cooperator {i}");
            }
        }
    }

    #[test]
    fn fitness_depends_on_generation_for_stochastic_games() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(5, Domain::Init, 0, 0);
        let asg: Vec<StratId> = (0..6)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let noisy = GameConfig {
            rounds: 30,
            noise: 0.0,
            payoff: PayoffMatrix::default(),
        };
        let g0 = evaluate(&space, &asg, &pool, &noisy, 5, 0, ExecMode::Sequential);
        let g1 = evaluate(&space, &asg, &pool, &noisy, 5, 1, ExecMode::Sequential);
        assert_ne!(g0, g1, "mixed-strategy games re-sample each generation");
    }

    #[test]
    fn is_deterministic_detects_kinds() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let p = pool.intern(Strategy::Pure(classic::tft(&space)));
        let m = pool.intern(Strategy::Mixed(classic::random_mixed(&space)));
        assert!(is_deterministic(&[p, p], &pool, &cfg()));
        assert!(!is_deterministic(&[p, m], &pool, &cfg()));
        let noisy = GameConfig {
            noise: 0.01,
            ..cfg()
        };
        assert!(!is_deterministic(&[p, p], &pool, &noisy));
    }

    #[test]
    fn self_play_counts_toward_fitness() {
        // A lone pair of ALLC SSets: each plays itself (R*rounds) and the
        // other (R*rounds) = 2 * 3 * 50 = 300.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let c = pool.intern(Strategy::Pure(classic::all_c(&space)));
        let fit = evaluate(&space, &[c, c], &pool, &cfg(), 0, 0, ExecMode::Sequential);
        assert_eq!(fit, vec![300.0, 300.0]);
    }

    #[test]
    fn evaluate_one_matches_vector_evaluate() {
        let (space, asg, pool) = setup_pure(20, 2, 13);
        let vec = evaluate(&space, &asg, &pool, &cfg(), 13, 4, ExecMode::Sequential);
        for (i, expected) in vec.iter().enumerate() {
            let one = evaluate_one(&space, &asg, &pool, &cfg(), 13, 4, i);
            assert_eq!(*expected, one, "sset {i}");
        }
    }

    #[test]
    fn evaluate_one_matches_for_stochastic_games() {
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(21, Domain::Init, 0, 0);
        let asg: Vec<StratId> = (0..10)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let noisy = GameConfig {
            rounds: 30,
            noise: 0.03,
            payoff: PayoffMatrix::default(),
        };
        let vec = evaluate(&space, &asg, &pool, &noisy, 21, 9, ExecMode::Sequential);
        for (i, expected) in vec.iter().enumerate() {
            assert_eq!(
                *expected,
                evaluate_one(&space, &asg, &pool, &noisy, 21, 9, i),
                "sset {i}"
            );
        }
    }

    #[test]
    fn expected_one_matches_vector_expected_bitwise() {
        // The OnDemand path must reproduce the EveryGeneration path to the
        // bit: both sum counts-weighted expectations in ascending-StratId
        // order, so even f64 rounding agrees exactly.
        let (space, asg, pool) = setup_pure(24, 2, 7);
        let vec_seq = evaluate_expected(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        let vec_par = evaluate_expected(&space, &asg, &pool, &cfg(), ExecMode::Rayon);
        for (i, expected) in vec_seq.iter().enumerate() {
            assert_eq!(expected.to_bits(), vec_par[i].to_bits(), "sset {i} (rayon)");
            let one = evaluate_expected_one(&space, &asg, &pool, &cfg(), i);
            assert_eq!(expected.to_bits(), one.to_bits(), "sset {i}");
        }

        // Mixed strategies under noise: expectations stay deterministic.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(33, Domain::Init, 0, 0);
        let ids: Vec<StratId> = (0..4)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let asg: Vec<StratId> = (0..12).map(|i| ids[i % 4]).collect();
        let noisy = GameConfig {
            rounds: 40,
            noise: 0.03,
            payoff: PayoffMatrix::default(),
        };
        let vec = evaluate_expected(&space, &asg, &pool, &noisy, ExecMode::Sequential);
        for (i, expected) in vec.iter().enumerate() {
            let one = evaluate_expected_one(&space, &asg, &pool, &noisy, i);
            assert_eq!(expected.to_bits(), one.to_bits(), "sset {i} (mixed)");
        }
    }

    #[test]
    fn expected_equals_naive_for_deterministic_populations() {
        // With pure strategies and no noise, expectation = realisation.
        let (space, asg, pool) = setup_pure(24, 2, 17);
        let naive = evaluate(&space, &asg, &pool, &cfg(), 17, 0, ExecMode::Sequential);
        let expected = evaluate_expected(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        let expected_par = evaluate_expected(&space, &asg, &pool, &cfg(), ExecMode::Rayon);
        for i in 0..asg.len() {
            assert!((naive[i] - expected[i]).abs() < 1e-6, "sset {i}");
            assert!((expected[i] - expected_par[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn expected_fitness_is_generation_invariant() {
        // Unlike sampled stochastic fitness, expectations don't depend on
        // the generation's RNG streams.
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(23, Domain::Init, 0, 0);
        let asg: Vec<StratId> = (0..8)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let noisy = GameConfig {
            rounds: 50,
            noise: 0.02,
            payoff: PayoffMatrix::default(),
        };
        let e1 = evaluate_expected(&space, &asg, &pool, &noisy, ExecMode::Sequential);
        let e2 = evaluate_expected(&space, &asg, &pool, &noisy, ExecMode::Sequential);
        assert_eq!(e1, e2);
        // And it approximates the mean of many sampled evaluations.
        let mut mean = vec![0.0; asg.len()];
        let reps = 400;
        for g in 0..reps {
            let f = evaluate(&space, &asg, &pool, &noisy, 23, g, ExecMode::Sequential);
            for (m, v) in mean.iter_mut().zip(&f) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= reps as f64;
        }
        for i in 0..asg.len() {
            let rel = (mean[i] - e1[i]).abs() / e1[i].abs().max(1.0);
            assert!(rel < 0.05, "sset {i}: sampled mean {} vs exact {}", mean[i], e1[i]);
        }
    }

    #[test]
    fn cached_deduped_bit_identical_cold_and_warm() {
        use crate::paycache::PayoffCache;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let ids = [
            pool.intern(Strategy::Pure(classic::all_c(&space))),
            pool.intern(Strategy::Pure(classic::all_d(&space))),
            pool.intern(Strategy::Pure(classic::tft(&space))),
            pool.intern(Strategy::Pure(classic::wsls(&space))),
        ];
        let asg: Vec<StratId> = (0..32).map(|i| ids[i % 4]).collect();
        let plain = evaluate_deduped(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        let cache = PayoffCache::new(cfg());
        for mode in [ExecMode::Sequential, ExecMode::Rayon] {
            // Cold then warm: both passes must reproduce the uncached
            // vector to the bit.
            for pass in 0..2 {
                let cached =
                    evaluate_deduped_cached(&space, &asg, &pool, &cfg(), mode, Some(&cache));
                for i in 0..asg.len() {
                    assert_eq!(
                        plain[i].to_bits(),
                        cached[i].to_bits(),
                        "sset {i} ({mode:?}, pass {pass})"
                    );
                }
            }
        }
        assert_eq!(cache.len(), 16, "4 distinct strategies → 16 ordered pairs");
    }

    #[test]
    fn cached_deduped_bit_identical_deep_memory_scalar_path() {
        // Memory-3 populations miss the word-parallel gate; the scalar
        // fallback must be cached identically.
        use crate::paycache::PayoffCache;
        let (space, asg, pool) = setup_pure(40, 3, 9);
        let plain = evaluate_deduped(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        let cache = PayoffCache::new(cfg());
        for _ in 0..2 {
            let cached = evaluate_deduped_cached(
                &space,
                &asg,
                &pool,
                &cfg(),
                ExecMode::Rayon,
                Some(&cache),
            );
            for i in 0..asg.len() {
                assert_eq!(plain[i].to_bits(), cached[i].to_bits());
            }
        }
    }

    #[test]
    fn cached_expected_bit_identical_cold_and_warm() {
        use crate::paycache::PayoffCache;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(41, Domain::Init, 0, 0);
        let ids: Vec<StratId> = (0..4)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let asg: Vec<StratId> = (0..12).map(|i| ids[i % 4]).collect();
        let noisy = GameConfig {
            rounds: 40,
            noise: 0.03,
            payoff: PayoffMatrix::default(),
        };
        let plain = evaluate_expected(&space, &asg, &pool, &noisy, ExecMode::Sequential);
        let cache = PayoffCache::new(noisy);
        for mode in [ExecMode::Sequential, ExecMode::Rayon] {
            for _ in 0..2 {
                let cached =
                    evaluate_expected_cached(&space, &asg, &pool, &noisy, mode, Some(&cache));
                for (i, p) in plain.iter().enumerate() {
                    assert_eq!(p.to_bits(), cached[i].to_bits(), "sset {i}");
                }
                // The OnDemand companion shares the same entries.
                for (i, p) in plain.iter().enumerate() {
                    let one = evaluate_expected_one_cached(
                        &space,
                        &asg,
                        &pool,
                        &noisy,
                        i,
                        Some(&cache),
                    );
                    assert_eq!(p.to_bits(), one.to_bits(), "sset {i} (one)");
                }
            }
        }
    }

    #[test]
    fn cached_evaluate_one_bit_identical_across_kernels() {
        use crate::paycache::PayoffCache;
        let (space, asg, pool) = setup_pure(20, 2, 13);
        let cache = PayoffCache::new(cfg());
        for kernel in [GameKernel::Naive, GameKernel::Cycle] {
            for i in 0..asg.len() {
                let plain = evaluate_one_with_kernel(&space, &asg, &pool, &cfg(), 13, 4, i, kernel);
                let cached = evaluate_one_with_kernel_cached(
                    &space,
                    &asg,
                    &pool,
                    &cfg(),
                    13,
                    4,
                    i,
                    kernel,
                    Some(&cache),
                );
                assert_eq!(plain.to_bits(), cached.to_bits(), "sset {i} ({kernel:?})");
            }
        }
    }

    #[test]
    fn cached_evaluate_one_bypasses_cache_for_stochastic_games() {
        use crate::paycache::PayoffCache;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(51, Domain::Init, 0, 0);
        let asg: Vec<StratId> = (0..8)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let noisy = GameConfig {
            rounds: 30,
            noise: 0.03,
            payoff: PayoffMatrix::default(),
        };
        let cache = PayoffCache::new(noisy);
        // Different generations legitimately re-sample: cached results must
        // track the uncached evaluator, and nothing may be memoised.
        for generation in [0u64, 1, 2] {
            for i in 0..asg.len() {
                let plain =
                    evaluate_one(&space, &asg, &pool, &noisy, 21, generation, i);
                let cached = evaluate_one_with_kernel_cached(
                    &space,
                    &asg,
                    &pool,
                    &noisy,
                    21,
                    generation,
                    i,
                    GameKernel::Naive,
                    Some(&cache),
                );
                assert_eq!(plain.to_bits(), cached.to_bits());
            }
        }
        assert!(cache.is_empty(), "stochastic payoffs must never be cached");
    }

    #[test]
    fn warm_cache_hits_reach_the_counters() {
        use crate::paycache::PayoffCache;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let ids = [
            pool.intern(Strategy::Pure(classic::tft(&space))),
            pool.intern(Strategy::Pure(classic::wsls(&space))),
        ];
        let asg: Vec<StratId> = (0..16).map(|i| ids[i % 2]).collect();
        let cache = PayoffCache::new(cfg());
        let before = obs::counters().snapshot();
        let cold =
            evaluate_deduped_cached(&space, &asg, &pool, &cfg(), ExecMode::Sequential, Some(&cache));
        let mid = obs::counters().snapshot();
        assert!(mid.payoff_cache_misses >= before.payoff_cache_misses + 4);
        let warm =
            evaluate_deduped_cached(&space, &asg, &pool, &cfg(), ExecMode::Sequential, Some(&cache));
        let after = obs::counters().snapshot();
        assert!(after.payoff_cache_hits >= mid.payoff_cache_hits + 4);
        assert_eq!(cold, warm);
    }

    #[test]
    fn prewarmed_cache_serves_identical_values() {
        use crate::paycache::PayoffCache;
        let (space, asg, pool) = setup_pure(24, 2, 61);
        // Cold reference.
        let plain = evaluate_deduped(&space, &asg, &pool, &cfg(), ExecMode::Sequential);
        // Pre-warmed cache: the first evaluation must be all hits and
        // bit-identical to the cold result.
        let cache = PayoffCache::new(cfg());
        let n = prewarm_cache(&space, &asg, &pool, &cfg(), GameKernel::Naive, false, &cache);
        let unique = asg.iter().collect::<std::collections::BTreeSet<_>>().len();
        assert_eq!(n, unique * unique, "every ordered distinct pair memoised");
        assert_eq!(cache.len(), n);
        let before = obs::counters().snapshot();
        let warm = evaluate_deduped_cached(&space, &asg, &pool, &cfg(), ExecMode::Sequential, Some(&cache));
        let after = obs::counters().snapshot();
        assert_eq!(
            after.payoff_cache_misses, before.payoff_cache_misses,
            "a pre-warmed first evaluation must not miss"
        );
        for i in 0..asg.len() {
            assert_eq!(plain[i].to_bits(), warm[i].to_bits(), "sset {i}");
        }
    }

    #[test]
    fn prewarm_expected_kind_serves_expected_evaluators() {
        use crate::paycache::PayoffCache;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(62, Domain::Init, 0, 0);
        let ids: Vec<StratId> = (0..4)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let asg: Vec<StratId> = (0..12).map(|i| ids[i % 4]).collect();
        let noisy = GameConfig {
            rounds: 40,
            noise: 0.03,
            payoff: PayoffMatrix::default(),
        };
        let plain = evaluate_expected(&space, &asg, &pool, &noisy, ExecMode::Sequential);
        let cache = PayoffCache::new(noisy);
        let n = prewarm_cache(&space, &asg, &pool, &noisy, GameKernel::Naive, true, &cache);
        assert_eq!(n, 16, "4 distinct strategies → 16 Expected entries");
        let warm = evaluate_expected_cached(&space, &asg, &pool, &noisy, ExecMode::Sequential, Some(&cache));
        for i in 0..asg.len() {
            assert_eq!(plain[i].to_bits(), warm[i].to_bits(), "sset {i}");
        }
    }

    #[test]
    fn prewarm_inserts_nothing_for_stochastic_sampled_games() {
        use crate::paycache::PayoffCache;
        let space = StateSpace::new(1).unwrap();
        let mut pool = StrategyPool::new();
        let mut rng = stream(63, Domain::Init, 0, 0);
        let asg: Vec<StratId> = (0..6)
            .map(|_| pool.intern(Strategy::Mixed(MixedStrategy::random(space, &mut rng))))
            .collect();
        let noisy = GameConfig {
            rounds: 20,
            noise: 0.05,
            payoff: PayoffMatrix::default(),
        };
        let cache = PayoffCache::new(noisy);
        let n = prewarm_cache(&space, &asg, &pool, &noisy, GameKernel::Naive, false, &cache);
        assert_eq!(n, 0, "stochastic sampled payoffs must never be memoised");
        assert!(cache.is_empty());
    }

    #[test]
    fn rng_stream_sanity() {
        // game_stream draws differ across (focal, opponent) packing.
        let mut a = game_stream(1, 0, 1, 10, 0);
        let mut b = game_stream(1, 1, 0, 10, 0);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }
}
