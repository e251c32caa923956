//! Property-based tests for the IPD substrate's core invariants.

use ipd::game::{
    play, play_deterministic, play_transcript, play_with_lookup, GameConfig, StateLookup,
};
use ipd::history::HistoryView;
use ipd::payoff::Move;
use ipd::state::{StateSpace, StateTable};
use ipd::strategy::{MixedStrategy, PureStrategy, Strategy as IpdStrategy};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn arb_move() -> impl Strategy<Value = Move> {
    prop_oneof![Just(Move::Cooperate), Just(Move::Defect)]
}

fn arb_space() -> impl Strategy<Value = StateSpace> {
    (0usize..=6).prop_map(|n| StateSpace::new(n).unwrap())
}

/// Spaces small enough to materialise state tables cheaply in proptest loops.
fn arb_small_space() -> impl Strategy<Value = StateSpace> {
    (0usize..=4).prop_map(|n| StateSpace::new(n).unwrap())
}

/// Execution noise: exactly zero (the draw-free branch) or positive.
fn arb_noise() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), 0.001f64..0.5]
}

/// Two random players from `seed`; `mixed.0`/`mixed.1` pick each one's kind.
fn random_players(space: StateSpace, mixed: (bool, bool), seed: u64) -> (IpdStrategy, IpdStrategy) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut player = |mixed: bool| {
        if mixed {
            IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng))
        } else {
            IpdStrategy::Pure(PureStrategy::random(space, &mut rng))
        }
    };
    (player(mixed.0), player(mixed.1))
}

proptest! {
    /// encode ∘ decode is the identity on every state id.
    #[test]
    fn state_encode_decode_bijection(space in arb_space(), raw in 0u16..4096) {
        let state = raw & space.mask();
        let rounds = space.decode(state);
        prop_assert_eq!(space.encode(&rounds), state);
    }

    /// Perspective swap is an involution and preserves the state count.
    #[test]
    fn swap_perspective_involution(space in arb_space(), raw in 0u16..4096) {
        let state = raw & space.mask();
        let swapped = space.swap_perspective(state);
        prop_assert!((swapped as usize) < space.num_states());
        prop_assert_eq!(space.swap_perspective(swapped), state);
    }

    /// The rolling advance always equals re-encoding the explicit window.
    #[test]
    fn rolling_state_matches_window(
        space in arb_space(),
        plays in prop::collection::vec((arb_move(), arb_move()), 0..32),
    ) {
        let mut view = HistoryView::new(space);
        for (me, opp) in plays {
            view.record(me, opp);
            prop_assert_eq!(view.state(), space.encode(view.rounds()));
        }
    }

    /// Paper-faithful linear find_state agrees with the O(1) rolling index
    /// after any play sequence.
    #[test]
    fn linear_lookup_equals_rolling(
        space in arb_small_space(),
        plays in prop::collection::vec((arb_move(), arb_move()), 0..24),
    ) {
        let table = StateTable::new(space);
        let mut view = HistoryView::new(space);
        for (me, opp) in plays {
            view.record(me, opp);
            prop_assert_eq!(view.find_state_linear(&table), view.state());
        }
    }

    /// Pure strategy: from_moves ∘ to_moves round-trips, and hamming
    /// distance is a metric w.r.t. zero and symmetry.
    #[test]
    fn pure_strategy_roundtrip_and_hamming(seed in any::<u64>(), n in 0usize..=6) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        prop_assert_eq!(&PureStrategy::from_moves(space, &a.to_moves()), &a);
        prop_assert_eq!(a.hamming(&a), 0);
        prop_assert_eq!(a.hamming(&b), b.hamming(&a));
        prop_assert!(a.hamming(&b) <= space.num_states());
    }

    /// Swapping players swaps the outcome exactly (deterministic games).
    #[test]
    fn game_symmetric_under_player_swap(seed in any::<u64>(), n in 0usize..=4, rounds in 0u32..128) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        let ab = play_deterministic(&space, &a, &b, &cfg);
        let ba = play_deterministic(&space, &b, &a, &cfg);
        prop_assert_eq!(ab.swapped(), ba);
    }

    /// Per-game fitness is bounded by rounds x max payoff and cooperation
    /// counts never exceed the round count.
    #[test]
    fn fitness_and_coop_bounds(seed in any::<u64>(), n in 0usize..=4, rounds in 0u32..256) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        let o = play_deterministic(&space, &a, &b, &cfg);
        let max = rounds as f64 * 4.0;
        prop_assert!(o.fitness_a >= 0.0 && o.fitness_a <= max);
        prop_assert!(o.fitness_b >= 0.0 && o.fitness_b <= max);
        prop_assert!(o.coop_a <= rounds && o.coop_b <= rounds);
        // Paired payoffs: total fitness per round is one of 2R, S+T, 2P.
        let total = o.fitness_a + o.fitness_b;
        prop_assert!(total <= rounds as f64 * 6.0);
    }

    /// A mixed strategy with all probabilities in {0,1} behaves exactly as
    /// its pure counterpart in full games.
    #[test]
    fn degenerate_mixed_equals_pure_in_games(seed in any::<u64>(), n in 0usize..=3) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let am = IpdStrategy::Mixed(MixedStrategy::from_pure(&a));
        let bm = IpdStrategy::Mixed(MixedStrategy::from_pure(&b));
        let cfg = GameConfig { rounds: 64, ..GameConfig::default() };
        let det = play_deterministic(&space, &a, &b, &cfg);
        let mixed = play(&space, &am, &bm, &cfg, &mut rng);
        prop_assert_eq!(det, mixed);
    }

    /// The shared round loop (rolling lookup) and the paper's linear scan
    /// over `HistoryView` windows play identical games and consume the
    /// same draws when fed identical RNG streams — for pure and mixed
    /// players, with and without noise, at every round count.
    #[test]
    fn lookup_modes_identical(
        seed in any::<u64>(),
        n in 0usize..=4,
        mixed in (any::<bool>(), any::<bool>()),
        noise in arb_noise(),
        rounds in 0u32..=64,
    ) {
        let space = StateSpace::new(n).unwrap();
        let table = StateTable::new(space);
        let (a, b) = random_players(space, mixed, seed);
        let cfg = GameConfig { rounds, noise, ..GameConfig::default() };
        let mut r1 = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let fast = play_with_lookup(&space, &a, &b, &cfg, StateLookup::Rolling, &mut r1);
        let slow = play_with_lookup(&space, &a, &b, &cfg, StateLookup::LinearScan(&table), &mut r2);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast.fitness_a.to_bits(), slow.fitness_a.to_bits());
        prop_assert_eq!(fast.fitness_b.to_bits(), slow.fitness_b.to_bits());
        prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "streams diverged");
    }

    /// A transcript's outcome is exactly what `play` returns on an equal
    /// stream, and its moves add up to that outcome's cooperation counts.
    #[test]
    fn transcript_outcome_equals_play(
        seed in any::<u64>(),
        n in 0usize..=4,
        mixed in (any::<bool>(), any::<bool>()),
        noise in arb_noise(),
        rounds in 0u32..=64,
    ) {
        let space = StateSpace::new(n).unwrap();
        let (a, b) = random_players(space, mixed, seed);
        let cfg = GameConfig { rounds, noise, ..GameConfig::default() };
        let mut r1 = ChaCha8Rng::seed_from_u64(seed ^ 0x5a5a);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed ^ 0x5a5a);
        let t = play_transcript(&space, &a, &b, &cfg, &mut r1);
        let o = play(&space, &a, &b, &cfg, &mut r2);
        prop_assert_eq!(t.outcome, o);
        prop_assert_eq!(t.outcome.fitness_a.to_bits(), o.fitness_a.to_bits());
        prop_assert_eq!(t.outcome.fitness_b.to_bits(), o.fitness_b.to_bits());
        prop_assert_eq!(t.moves.len(), rounds as usize);
        let coop_a = t.moves.iter().filter(|(m, _)| m.is_cooperate()).count();
        let coop_b = t.moves.iter().filter(|(_, m)| m.is_cooperate()).count();
        prop_assert_eq!((coop_a as u32, coop_b as u32), (o.coop_a, o.coop_b));
        prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "streams diverged");
    }

    /// Games are reproducible: same seed, same outcome (the determinism
    /// contract the parallel engine relies on).
    #[test]
    fn games_reproducible_from_seed(seed in any::<u64>(), n in 0usize..=3) {
        let space = StateSpace::new(n).unwrap();
        let mut srng = ChaCha8Rng::seed_from_u64(seed);
        let a = IpdStrategy::Mixed(MixedStrategy::random(space, &mut srng));
        let b = IpdStrategy::Mixed(MixedStrategy::random(space, &mut srng));
        let cfg = GameConfig { rounds: 50, noise: 0.02, ..GameConfig::default() };
        let mut r1 = ChaCha8Rng::seed_from_u64(seed);
        let mut r2 = ChaCha8Rng::seed_from_u64(seed);
        prop_assert_eq!(play(&space, &a, &b, &cfg, &mut r1), play(&space, &a, &b, &cfg, &mut r2));
    }

    /// The cycle-detection kernel is outcome-identical to the naive loop
    /// for any strategies, memory depth, and round count.
    #[test]
    fn cycle_kernel_equals_naive(seed in any::<u64>(), n in 0usize..=5, rounds in 0u32..512) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        prop_assert_eq!(
            play_deterministic(&space, &a, &b, &cfg),
            ipd::game::play_deterministic_cycle(&space, &a, &b, &cfg)
        );
    }

    /// Any (χ, φ) pair within the feasible region yields a valid ZD
    /// strategy, and anything beyond φ_max is rejected.
    #[test]
    fn zd_feasible_region_is_exact(chi in 1.0f64..8.0, frac in 0.01f64..0.99) {
        let space = StateSpace::new(1).unwrap();
        let payoff = ipd::payoff::PayoffMatrix::default();
        for l in [payoff.punishment, payoff.reward] {
            let max = ipd::zd::phi_max(&payoff, l, chi);
            prop_assert!(max > 0.0);
            let phi = max * frac;
            let build = |phi| if l == payoff.punishment {
                ipd::zd::extortionate(&space, &payoff, chi, phi)
            } else {
                ipd::zd::generous(&space, &payoff, chi, phi)
            };
            let z = build(phi);
            prop_assert!(z.is_ok(), "feasible phi rejected");
            for s in 0..4u16 {
                let p = z.as_ref().unwrap().coop_prob(s);
                prop_assert!((0.0..=1.0).contains(&p));
            }
            prop_assert!(build(max * 1.2).is_err(), "infeasible phi accepted");
        }
    }

    /// The exact Markov expectation equals the deterministic simulation
    /// for pure noiseless pairs at every memory depth and round count.
    #[test]
    fn markov_expectation_exact_for_pure(seed in any::<u64>(), n in 0usize..=5, rounds in 0u32..256) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = PureStrategy::random(space, &mut rng);
        let b = PureStrategy::random(space, &mut rng);
        let cfg = GameConfig { rounds, ..GameConfig::default() };
        let det = play_deterministic(&space, &a, &b, &cfg);
        let exp = ipd::markov::expected_outcome(
            &space,
            &IpdStrategy::Pure(a),
            &IpdStrategy::Pure(b),
            &cfg,
        );
        prop_assert!((exp.fitness_a - det.fitness_a).abs() < 1e-6);
        prop_assert!((exp.fitness_b - det.fitness_b).abs() < 1e-6);
        prop_assert!((exp.coop_a - det.coop_a as f64).abs() < 1e-6);
    }

    /// Expected per-player fitness is bounded by the payoff extremes and
    /// cooperation expectations by the round count, for any mixed pair.
    #[test]
    fn markov_expectation_bounds(seed in any::<u64>(), n in 0usize..=3, noise in 0.0f64..0.5) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng));
        let b = IpdStrategy::Mixed(MixedStrategy::random(space, &mut rng));
        let cfg = GameConfig { rounds: 64, noise, ..GameConfig::default() };
        let e = ipd::markov::expected_outcome(&space, &a, &b, &cfg);
        prop_assert!(e.fitness_a >= 0.0 && e.fitness_a <= 64.0 * 4.0);
        prop_assert!(e.fitness_b >= 0.0 && e.fitness_b <= 64.0 * 4.0);
        prop_assert!(e.coop_a >= 0.0 && e.coop_a <= 64.0);
        // Per-round totals respect 2P ≤ ... ≤ 2R/S+T envelope.
        prop_assert!(e.fitness_a + e.fitness_b <= 64.0 * 6.0 + 1e-9);
    }

    /// Strategy codec round-trips every strategy kind.
    #[test]
    fn codec_roundtrip(seed in any::<u64>(), n in 0usize..=6, mixed in any::<bool>()) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let strat = IpdStrategy::random(space, mixed, &mut rng);
        let text = ipd::codec::encode(&strat);
        prop_assert_eq!(ipd::codec::decode(&text).unwrap(), strat);
    }

    /// nearest_pure of a degenerate mixed strategy recovers the original.
    #[test]
    fn nearest_pure_inverts_embedding(seed in any::<u64>(), n in 0usize..=6) {
        let space = StateSpace::new(n).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = PureStrategy::random(space, &mut rng);
        prop_assert_eq!(MixedStrategy::from_pure(&p).nearest_pure(), p);
    }
}
