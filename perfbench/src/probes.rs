//! Calibration probes, timed from outside through public functions: the
//! game kernel, a point-to-point round trip, and the LogGP model fed with
//! both.

use crate::stats::median;
use cluster::comm::{Comm, VirtualCluster};
use cluster::perf::{Breakdown, MachineProfile, PerfModel, Workload as ModelWorkload};
use evo_core::fitness::FitnessPolicy;
use evo_core::params::Params;
use ipd::game::{play, GameConfig};
use ipd::state::StateSpace;
use ipd::strategy::{PureStrategy, Strategy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per iterated game of `ipd::game::play` between two random
/// pure strategies at the given memory, rounds and noise: the median of
/// `batches` batches of `games` games.
pub fn ns_per_game(mem_steps: usize, rounds: u32, noise: f64, batches: usize, games: usize) -> f64 {
    let space = StateSpace::new(mem_steps).expect("valid memory depth");
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let a = Strategy::Pure(PureStrategy::random(space, &mut rng));
    let b = Strategy::Pure(PureStrategy::random(space, &mut rng));
    let mut cfg = GameConfig::default();
    cfg.rounds = rounds;
    cfg.noise = noise;
    let mut per_game = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..games {
            black_box(play(&space, black_box(&a), &b, &cfg, &mut rng));
        }
        per_game.push(t.elapsed().as_nanos() as f64 / games as f64);
    }
    median(&per_game)
}

/// One-way point-to-point latency α in microseconds: half the median
/// round-trip time of `Comm::send`/`Comm::recv` ping-pongs between the two
/// ranks of a `VirtualCluster`, over `batches` batches of `trips` trips.
pub fn alpha_us(batches: usize, trips: usize) -> f64 {
    let results = VirtualCluster::run(2, move |comm: Comm<u64>| -> Vec<f64> {
        let peer = 1 - comm.rank();
        let mut halves = Vec::new();
        for _ in 0..batches {
            let t = Instant::now();
            for i in 0..trips as u64 {
                if comm.rank() == 0 {
                    comm.send(peer, 7, i).expect("ping");
                    comm.recv(Some(peer), Some(7)).expect("pong");
                } else {
                    let m = comm.recv(Some(peer), Some(7)).expect("ping");
                    comm.send(peer, 7, m.payload).expect("pong");
                }
            }
            halves.push(t.elapsed().as_nanos() as f64 / trips as f64 / 2.0 / 1e3);
        }
        halves
    });
    median(&results[0])
}

/// The LogGP model's prediction for a distributed run of `params` on
/// `ranks` ranks with the on-demand policy, with this machine's measured
/// game cost (`ns_per_game` at the run's memory) and point-to-point
/// latency (`alpha_us`) substituted into the Blue Gene/P profile. The
/// profile's remaining constants (per-hop, mutation bandwidth, Nature-Agent
/// serial time) are kept as they are.
pub fn model(params: &Params, ranks: u64, ns_per_game: f64, alpha_us: f64) -> Breakdown {
    let mut profile = MachineProfile::bluegene_p();
    profile.game_cost[params.mem_steps] = ns_per_game * 1e-9;
    profile.alpha_p2p = alpha_us * 1e-6;
    profile.alpha_coll = alpha_us * 1e-6;
    let mut w = ModelWorkload::large_study(params.num_ssets as u64, params.generations);
    w.mem_steps = params.mem_steps;
    w.pc_rate = params.pc_rate;
    w.mutation_rate = params.mutation_rate;
    w.policy = FitnessPolicy::OnDemand;
    PerfModel::new(profile).breakdown(&w, ranks)
}
