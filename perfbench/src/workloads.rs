//! The four workloads: how each instance is built from its seed, how one
//! unit of work is run and timed from outside the library, and how its
//! outputs are checked against the reference corpus.
//!
//! A *unit* is one complete solution at the workload's stated size: one
//! `Population` run, one `run_distributed` call, or one service batch
//! from server start to the last receipt. Everything a unit does before its
//! first timed piece of work is its set-up.

use crate::reference::Reference;
use crate::stats::fnv_json;
use cluster::dist::{run_distributed, DistConfig};
use evo_core::fitness::FitnessPolicy;
use evo_core::fixation::FixationBatch;
use evo_core::nature::Event;
use evo_core::params::{Params, UpdateRule};
use evo_core::population::Population;
use evo_core::record::{state_digest, GenerationRecord, RunStats};
use evo_core::spatial::{InitPattern, SpatialParams, SpatialPopulation};
use ipd::classic;
use ipd::state::StateSpace;
use ipd::strategy::Strategy;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use svc::job::{JobRequest, JobStatus};
use svc::server::{Server, ServerConfig};
use svc::spool::Spool;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deterministic well-mixed engine (memory-1, noise 0).
    WellmixedDet,
    /// Stochastic well-mixed engine (memory-3, noise 0.01).
    WellmixedNoisy,
    /// Distributed runtime on two ranks.
    DistRanks2,
    /// The job service over an on-disk spool.
    ServeBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WellmixedDet,
        Workload::WellmixedNoisy,
        Workload::DistRanks2,
        Workload::ServeBatch,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WellmixedDet => "wellmixed-det",
            Workload::WellmixedNoisy => "wellmixed-noisy",
            Workload::DistRanks2 => "dist-ranks2",
            Workload::ServeBatch => "serve-batch",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads (`RAYON_NUM_THREADS`) for the workload's process:
    /// `nproc` everywhere except the service, whose two workers each run a
    /// one-thread engine so the process stays within `nproc` threads.
    pub fn engine_threads(self, nproc: usize) -> usize {
        match self {
            Workload::ServeBatch => 1,
            _ => nproc,
        }
    }

    /// Whether the engine's parallel fan-out is on this workload's path
    /// (and so whether a one-thread pass is worth timing).
    pub fn uses_parallel_engine(self) -> bool {
        matches!(self, Workload::WellmixedDet | Workload::WellmixedNoisy)
    }

    /// How `gen_tail_us` is read from the timed pass's latency samples.
    pub fn tail_kind(self) -> TailKind {
        match self {
            Workload::DistRanks2 => TailKind::SlowestInstance,
            _ => TailKind::Percentile(99.0),
        }
    }

    /// Units the counted (plain and traced) passes run. Fixed, so every
    /// count they report repeats exactly for a given seed.
    pub fn counted_units(self, size: Size) -> u64 {
        match (self, size) {
            (_, Size::Smoke) => 1,
            (Workload::WellmixedDet | Workload::WellmixedNoisy, Size::Full) => 3,
            (Workload::DistRanks2, Size::Full) => 5,
            (Workload::ServeBatch, Size::Full) => 2,
        }
    }
}

/// How a workload's `gen_tail_us` is read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TailKind {
    /// A fixed nearest-rank percentile of the samples: the highest of
    /// p99.9, p99, p95, p90 with at least ten samples beyond it in
    /// 30-second runs on the 2-core machine the benchmark was defined on.
    /// It stays fixed so the metric keeps one meaning when a change alters
    /// the sample count.
    Percentile(f64),
    /// The largest per-instance median. `dist-ranks2` has one sample per
    /// run, a mean over 2,000 generations; the upper percentiles of those
    /// means measured the host's slow spells, not the program, and
    /// spread by up to a third between ten-run sets of the same code.
    SlowestInstance,
}

/// Full benchmark sizes, or the small smoke sizes the benchmark's own
/// tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few milliseconds per unit.
    Smoke,
}

impl Size {
    /// Name used in the reference corpus.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    /// Instances in the corpus at this size.
    pub fn instances(self) -> u64 {
        match self {
            Size::Full => 8,
            Size::Smoke => 4,
        }
    }
}

/// The corpus instance unit `unit` of a run with `seed` uses: runs walk the
/// corpus from an offset the seed picks, so the same seed always gives the
/// same inputs.
pub fn instance_for(seed: u64, unit: u64, size: Size) -> u64 {
    seed.wrapping_add(unit) % size.instances()
}

/// Engine seed of corpus instance `k`.
pub fn engine_seed(k: u64) -> u64 {
    k + 1
}

/// Engine parameters of a well-mixed instance: 64 SSets, Fermi pairwise
/// comparison, every-generation fitness (the `Population` defaults).
pub fn wellmixed_params(w: Workload, size: Size, k: u64) -> Params {
    let mut p = base_params(engine_seed(k));
    p.num_ssets = 64;
    match w {
        Workload::WellmixedNoisy => {
            p.mem_steps = 3;
            p.game.noise = 0.01;
            p.generations = if size == Size::Full { 20 } else { 1 };
        }
        _ => {
            p.mem_steps = 1;
            p.game.noise = 0.0;
            p.generations = if size == Size::Full { 100 } else { 4 };
        }
    }
    p
}

/// Engine parameters of a distributed instance: 256 SSets at memory-3.
pub fn dist_params(size: Size, k: u64) -> Params {
    let mut p = base_params(engine_seed(k));
    p.num_ssets = 256;
    p.mem_steps = 3;
    p.generations = if size == Size::Full { 2_000 } else { 200 };
    p
}

/// The CLI `run` defaults, set explicitly so the workload does not drift
/// with `Params::default`.
fn base_params(seed: u64) -> Params {
    let mut p = Params::default();
    p.seed = seed;
    p.game.rounds = 200;
    p.game.noise = 0.0;
    p.pc_rate = 0.10;
    p.mutation_rate = 0.05;
    p.beta = 1.0;
    p.rule = UpdateRule::PairwiseComparison;
    p
}

/// Ranks of the distributed workload (the Nature Agent plus one compute
/// rank).
pub const DIST_RANKS: usize = 2;

/// Service workers of the batch workload.
pub const SERVE_WORKERS: usize = 2;

fn json<T: Serialize>(x: &T) -> String {
    serde_json::to_string(x).expect("spec serialises")
}

/// The service batch of instance `k`, as the JSON job lines a client of
/// `evogame-cli serve` would submit: three well-mixed jobs (two with
/// periodic checkpoints), three lattice jobs and three Moran fixation
/// batches. Each family carries about a third of the batch's execution
/// time, so a regression in one family moves the makespan. The job count
/// is odd so that the median turnaround is that of one job; with an even
/// count it fell in the gap between two jobs and jumped between runs.
pub fn batch_lines(size: Size, k: u64) -> Vec<String> {
    let full = size == Size::Full;
    let seed = |j: u64| engine_seed(k) * 100 + j;
    let mut lines = Vec::new();
    // (SSets, memory, generations, checkpoint interval)
    let wellmixed: [(usize, usize, u64, Option<u64>); 3] = if full {
        [(24, 1, 26, Some(13)), (24, 2, 26, None), (16, 3, 40, Some(10))]
    } else {
        [(8, 1, 4, Some(2)), (8, 2, 4, None), (8, 3, 4, None)]
    };
    for (j, (ssets, mem, gens, every)) in wellmixed.into_iter().enumerate() {
        let mut p = base_params(seed(j as u64));
        p.num_ssets = ssets;
        p.mem_steps = mem;
        p.generations = gens;
        let every = every.map_or(String::new(), |n| format!(",\"checkpoint_every\":{n}"));
        lines.push(format!(
            "{{\"id\":\"wm-{j}\",\"params\":{}{every}}}",
            json(&p)
        ));
    }
    // (side, memory, generations)
    let lattices: [(usize, usize, u64); 3] = if full {
        [(32, 0, 40), (24, 1, 36), (24, 0, 36)]
    } else {
        [(8, 0, 3), (8, 1, 3), (8, 0, 3)]
    };
    for (j, (side, mem, gens)) in lattices.into_iter().enumerate() {
        let mut p = SpatialParams::default();
        p.width = side;
        p.height = side;
        p.mem_steps = mem;
        p.generations = gens;
        p.seed = seed(10 + j as u64);
        let init = InitPattern::RandomDefectors(0.2);
        lines.push(format!(
            "{{\"id\":\"lattice-{j}\",\"spatial\":{{\"params\":{},\"init\":{}}},\"checkpoint_every\":10}}",
            json(&p),
            json(&init)
        ));
    }
    // (resident, mutant, replicates)
    let pairs: [(&str, &str, u32); 3] = if full {
        [("ALLC", "ALLD", 320), ("TFT", "ALLD", 480), ("WSLS", "ALLD", 480)]
    } else {
        [("ALLC", "ALLD", 3), ("TFT", "ALLD", 3), ("WSLS", "ALLD", 3)]
    };
    for (j, (res, mutant, reps)) in pairs.into_iter().enumerate() {
        let mut p = base_params(seed(20 + j as u64));
        p.num_ssets = 12;
        p.mem_steps = 1;
        p.generations = 5_000;
        p.pc_rate = 1.0;
        p.mutation_rate = 0.0;
        p.rule = UpdateRule::Moran;
        let space = StateSpace::new(1).expect("memory-1 space");
        lines.push(format!(
            "{{\"id\":\"fix-{j}\",\"fixation\":{{\"params\":{},\"resident\":{},\"mutant\":{},\"replicates\":{reps}}}}}",
            json(&p),
            json(&roster(&space, res)),
            json(&roster(&space, mutant))
        ));
    }
    lines
}

fn roster(space: &StateSpace, name: &str) -> Strategy {
    let (_, s) = classic::roster(space)
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("classic roster strategy");
    Strategy::Pure(s)
}

/// Parse the batch's job lines into requests.
pub fn batch_requests(size: Size, k: u64) -> Result<Vec<JobRequest>, String> {
    batch_lines(size, k)
        .iter()
        .map(|l| serde_json::from_str(l).map_err(|e| format!("job line: {e}")))
        .collect()
}

/// Run statistics summed over units.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Stats {
    /// Generations executed.
    pub generations: u64,
    /// Pairwise-comparison events.
    pub pc_events: u64,
    /// Adoptions among them.
    pub adoptions: u64,
    /// Mutations.
    pub mutations: u64,
    /// Fitness evaluations performed.
    pub fitness_evaluations: u64,
    /// Games the engine accounts for (`RunStats::games_played`).
    pub games_implied: u64,
}

impl From<&RunStats> for Stats {
    fn from(s: &RunStats) -> Stats {
        Stats {
            generations: s.generations,
            pc_events: s.pc_events,
            adoptions: s.adoptions,
            mutations: s.mutations,
            fitness_evaluations: s.fitness_evaluations,
            games_implied: s.games_played,
        }
    }
}

impl Stats {
    /// Accumulate another summary.
    pub fn merge(&mut self, o: &Stats) {
        self.generations += o.generations;
        self.pc_events += o.pc_events;
        self.adoptions += o.adoptions;
        self.mutations += o.mutations;
        self.fitness_evaluations += o.fitness_evaluations;
        self.games_implied += o.games_implied;
    }
}

/// Per-batch service observations (traced passes only).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpoolUse {
    /// Bytes the batch left in its spool.
    pub bytes: u64,
    /// Files the batch left in its spool.
    pub files: u64,
}

/// What one unit measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Unit {
    /// Set-up time in ns; a mean over repetitions for set-ups cheaper
    /// than `MIN_SETUP` (see `timed_setup`).
    pub setup_ns: f64,
    /// Timed work (steps, the distributed run, or the batch makespan).
    pub work_ns: u64,
    /// Generations completed (receipt generations for the service).
    pub gens: u64,
    /// Jobs that reached a good receipt (1 for a successful run).
    pub jobs: u64,
    /// Latency samples: per step, per generation of a distributed run, or
    /// per job turnaround.
    pub lat_ns: Vec<u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Failure descriptions (each counts toward `failed`).
    pub failures: Vec<String>,
    /// Engine statistics.
    pub stats: Stats,
    /// Payoff-cache entries at the end of the run (well-mixed only).
    pub cache_entries: u64,
    /// Per-generation times recorded by the distributed runtime while
    /// tracing is on.
    pub dist_gen_ns: Vec<u64>,
    /// Spool footprint of a service batch.
    pub spool: SpoolUse,
    /// Requests of a service batch, for the direct cross-check.
    pub requests: Vec<JobRequest>,
    /// Outputs to check: `(item, state digest, records hash)`.
    pub outputs: Vec<(String, u64, u64)>,
    /// Jobs submitted to the service (rejected ones included).
    pub submitted: u64,
}

impl Unit {
    /// Count one checked operation and its failure, if any.
    pub fn check(&mut self, what: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = what {
            self.failures.push(e);
        }
    }

    /// Check every output against the reference; `jobs` becomes the number
    /// that matched.
    pub fn verify(&mut self, reference: &Reference, size: Size, w: Workload, k: u64) {
        for (item, state, records) in std::mem::take(&mut self.outputs) {
            let got = reference.check(size, w.name(), k, &item, state, records);
            self.jobs += u64::from(got.is_ok());
            self.check(got);
        }
    }
}

/// Where a workload runs.
#[derive(Debug)]
pub struct Ctx {
    /// Sizes in effect.
    pub size: Size,
    /// Directory under which service batches create their spools.
    pub spool_base: PathBuf,
    /// Measure spool footprints (traced passes).
    pub traced: bool,
}

/// Run one unit of `w` on corpus instance `k`.
pub fn run_unit(ctx: &Ctx, w: Workload, k: u64) -> Unit {
    match w {
        Workload::WellmixedDet | Workload::WellmixedNoisy => wellmixed_unit(ctx, w, k),
        Workload::DistRanks2 => dist_unit(ctx, k),
        Workload::ServeBatch => serve_unit(ctx, k),
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Set-ups cheaper than this are repeated until this much time has passed.
/// A single `DistConfig` takes a fraction of a microsecond, which a lone
/// clock read measures mostly as the clock itself and a cold cache.
const MIN_SETUP: Duration = Duration::from_micros(200);

/// Run `build` at least once and until `MIN_SETUP` has passed; return the
/// last result and the mean time per set-up in nanoseconds.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let mut built = build();
    let mut reps = 1u32;
    while t0.elapsed() < MIN_SETUP {
        built = std::hint::black_box(build());
        reps += 1;
    }
    (built, t0.elapsed().as_nanos() as f64 / f64::from(reps))
}

fn wellmixed_unit(ctx: &Ctx, w: Workload, k: u64) -> Unit {
    let mut unit = Unit::default();
    let (built, setup_ns) = timed_setup(|| Population::new(wellmixed_params(w, ctx.size, k)));
    unit.setup_ns = setup_ns;
    let mut pop = match built {
        Ok(p) => p,
        Err(e) => {
            unit.check(Err(format!("{} instance {k}: {e}", w.name())));
            return unit;
        }
    };
    let gens = pop.params().generations;
    let mut records: Vec<GenerationRecord> = Vec::with_capacity(gens as usize);
    unit.lat_ns.reserve(gens as usize);
    let t1 = Instant::now();
    for _ in 0..gens {
        let s = Instant::now();
        records.push(pop.step());
        unit.lat_ns.push(elapsed_ns(s));
    }
    unit.work_ns = elapsed_ns(t1);
    unit.gens = gens;
    unit.stats = pop.stats().into();
    unit.cache_entries = pop.payoff_cache_len() as u64;
    let state = state_digest(&pop.assignments(), &pop.snapshot().features);
    unit.outputs.push(("-".into(), state, fnv_json(&records)));
    unit
}

fn dist_unit(ctx: &Ctx, k: u64) -> Unit {
    let mut unit = Unit::default();
    let (cfg, setup_ns) = timed_setup(|| {
        DistConfig::new(dist_params(ctx.size, k), DIST_RANKS, FitnessPolicy::OnDemand)
    });
    unit.setup_ns = setup_ns;
    let t1 = Instant::now();
    let ran = run_distributed(&cfg);
    unit.work_ns = elapsed_ns(t1);
    let name = Workload::DistRanks2.name();
    match ran {
        Ok(out) => {
            let gens = out.stats.generations.max(1);
            unit.gens = out.stats.generations;
            unit.lat_ns.push(unit.work_ns / gens);
            unit.stats = (&out.stats).into();
            unit.dist_gen_ns = out.generation_ns;
            let state = state_digest(&out.assignments, &out.features);
            unit.outputs
                .push(("-".into(), state, fnv_json(&out.events)));
        }
        Err(e) => unit.check(Err(format!("{name} instance {k}: {e}"))),
    }
    unit
}

fn serve_unit(ctx: &Ctx, k: u64) -> Unit {
    static BATCHES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let mut unit = Unit::default();
    let name = Workload::ServeBatch.name();
    let n = BATCHES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = ctx
        .spool_base
        .join(format!("spool-{}-{n}", std::process::id()));
    let t0 = Instant::now();
    let built = batch_requests(ctx.size, k)
        .and_then(|r| Ok((r, Spool::new(&dir).map_err(|e| format!("spool: {e}"))?)));
    let (requests, spool) = match built {
        Ok(b) => b,
        Err(why) => {
            unit.check(Err(format!("{name} instance {k}: {why}")));
            return unit;
        }
    };
    let mut config = ServerConfig::default();
    config.workers = SERVE_WORKERS;
    let server = Server::with_spool(config, Some(spool));
    // Starting the server spawns its workers and takes well over
    // `MIN_SETUP`, so it is timed once.
    unit.setup_ns = elapsed_ns(t0) as f64;

    let t1 = Instant::now();
    let mut admitted = Vec::new();
    for req in &requests {
        match server.submit(req.clone()) {
            Ok(()) => admitted.push(req.id.clone()),
            Err(e) => unit.check(Err(format!(
                "{name} instance {k}: {} rejected: {e}",
                req.id
            ))),
        }
    }
    // The client collects results in submission order: a job's turnaround
    // is when its final status has been seen, from the batch's submission.
    let finished: Vec<(String, Option<JobStatus>, u64)> = admitted
        .into_iter()
        .map(|id| {
            let status = server.wait(&id);
            (id, status, elapsed_ns(t1))
        })
        .collect();
    unit.work_ns = elapsed_ns(t1);

    unit.submitted = requests.len() as u64;
    for (id, status, turnaround) in &finished {
        unit.lat_ns.push(*turnaround);
        let receipt = match status {
            Some(JobStatus::Completed { retries: 0, .. }) => server.receipt(id),
            _ => None,
        };
        match receipt {
            Some(r) => {
                let records = server.records(id).unwrap_or_default();
                let state = u64::from_str_radix(&r.state_digest, 16).unwrap_or(0);
                unit.gens += r.generations;
                unit.outputs.push((id.clone(), state, fnv_json(&records)));
            }
            None => unit.check(Err(format!(
                "{name} instance {k}: {id} ended as {status:?}"
            ))),
        }
    }
    server.shutdown();
    if ctx.traced {
        unit.spool = spool_use(&dir);
    }
    // Best effort: a leftover spool only costs disk inside the build dir.
    let _ = std::fs::remove_dir_all(&dir);
    unit.requests = requests;
    unit
}

fn spool_use(dir: &Path) -> SpoolUse {
    let mut total = SpoolUse::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let sub = spool_use(&path);
            total.bytes += sub.bytes;
            total.files += sub.files;
        } else if let Ok(meta) = entry.metadata() {
            total.bytes += meta.len();
            total.files += 1;
        }
    }
    total
}

/// The job families of the service batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Family {
    /// Well-mixed `Population` jobs.
    #[default]
    Wellmixed,
    /// `SpatialPopulation` lattice jobs.
    Lattice,
    /// Moran `FixationBatch` jobs.
    Fixation,
}

impl Family {
    /// Every family, in index order.
    pub const ALL: [Family; 3] = [Family::Wellmixed, Family::Lattice, Family::Fixation];

    /// Name of the family's share of the batch's execution time.
    pub fn share_metric(self) -> &'static str {
        match self {
            Family::Wellmixed => "share.wellmixed",
            Family::Lattice => "share.lattice",
            Family::Fixation => "share.fixation",
        }
    }
}

/// Outputs of one job run directly through the library, bypassing the
/// service.
#[derive(Debug, Default)]
pub struct Direct {
    /// The job's family.
    pub family: Family,
    /// Final-state digest, as the receipt renders it.
    pub state: u64,
    /// Hash of the record stream the service would have streamed.
    pub records: u64,
    /// Wall time of the direct run.
    pub ns: u64,
    /// Lattice cell updates performed (cells × generations).
    pub cell_updates: u64,
    /// Fixation replicates run.
    pub replicates: u64,
    /// Engine statistics of well-mixed and lattice runs.
    pub stats: Stats,
}

/// Run `req` directly through the library entry point its family uses.
pub fn run_direct(req: &JobRequest) -> Result<Direct, String> {
    let mut d = Direct::default();
    let t0 = Instant::now();
    if let Some(spec) = &req.fixation {
        let outcome = FixationBatch::new(spec.clone())
            .map_err(|e| e.to_string())?
            .run();
        d.ns = elapsed_ns(t0);
        d.state = outcome.digest();
        d.records = fnv_json(&outcome.records());
        d.replicates = outcome.results.len() as u64;
        d.family = Family::Fixation;
    } else if let Some(spec) = &req.spatial {
        let mut pop = SpatialPopulation::new(spec.params.clone(), spec.init.clone());
        let gens = pop.params().generations;
        let records: Vec<GenerationRecord> = (0..gens).map(|_| pop.step()).collect();
        d.ns = elapsed_ns(t0);
        let snap = pop.snapshot();
        d.state = state_digest(&snap.assignments, &snap.features);
        d.records = fnv_json(&records);
        let (w, h) = pop.dims();
        d.cell_updates = (w * h) as u64 * gens;
        d.stats = pop.stats().into();
        d.family = Family::Lattice;
    } else {
        let mut pop = Population::new(req.params.clone()).map_err(|e| e.to_string())?;
        let gens = pop.params().generations;
        let records: Vec<GenerationRecord> = (0..gens).map(|_| pop.step()).collect();
        d.ns = elapsed_ns(t0);
        d.state = state_digest(&pop.assignments(), &pop.snapshot().features);
        d.records = fnv_json(&records);
        d.stats = pop.stats().into();
    }
    Ok(d)
}

/// The shared-memory engine's on-demand run of `params`, submitted as a
/// service job: final digest, hash of its per-generation events, and the
/// games it played.
pub fn shared_on_demand(params: &Params) -> Result<(u64, u64, u64), String> {
    let line = format!(
        "{{\"id\":\"shared\",\"params\":{},\"on_demand\":true}}",
        json(params)
    );
    let req: JobRequest = serde_json::from_str(&line).map_err(|e| e.to_string())?;
    let mut config = ServerConfig::default();
    config.workers = 1;
    let server = Server::new(config);
    let before = obs::counters().snapshot();
    server.submit(req).map_err(|e| e.to_string())?;
    let status = server.wait("shared");
    let games = obs::counters().snapshot().delta_since(&before).games_played;
    let receipt = match status {
        Some(JobStatus::Completed { .. }) => server.receipt("shared"),
        _ => None,
    }
    .ok_or_else(|| format!("shared on-demand job ended as {status:?}"))?;
    let events: Vec<Vec<Event>> = server
        .records("shared")
        .unwrap_or_default()
        .into_iter()
        .map(|r| r.events)
        .collect();
    server.shutdown();
    let state = u64::from_str_radix(&receipt.state_digest, 16).map_err(|e| e.to_string())?;
    Ok((state, fnv_json(&events), games))
}
