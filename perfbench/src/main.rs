//! End-to-end and per-layer benchmark of the evolutionary-game engine, its
//! distributed runtime and its job service. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--reference <file>]
//! perfbench record
//! ```
//!
//! The top-level command orchestrates: it runs each measurement pass in a
//! child process of its own (`perfbench child ...`), so process-global
//! counters read as exact deltas and peak memory belongs to one workload.

#![forbid(unsafe_code)]
// Inputs are built by assigning fields of `Default` values rather than with
// struct literals, so the benchmark names only the fields it sets.
#![allow(clippy::field_reassign_with_default)]

mod probes;
mod reference;
mod stats;
mod workloads;

use reference::Reference;
use serde::{Deserialize, Serialize, Value};
use stats::{median, ns, peak_rss_kb, percentile, tail_rule};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{instance_for, Ctx, Family, Size, Stats, TailKind, Unit, Workload};

/// How long the passes of one command may run beyond `--seconds`: set-up,
/// the cross-checks and the traced run's fixed counted passes. A pass still
/// running then is killed and the command fails.
const DEADLINE_MARGIN: Duration = Duration::from_secs(140);

/// What one child pass measured, sent to the orchestrator as one JSON line.
#[derive(Debug, Default, Serialize, Deserialize)]
struct Report {
    pass: String,
    threads: u64,
    instances: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
    setup_ns: Vec<f64>,
    wall_ns: Vec<u64>,
    work_ns: Vec<u64>,
    gens: Vec<u64>,
    jobs: Vec<u64>,
    lat_ns: Vec<u64>,
    peak_rss_kb: u64,
    /// Exact counts over the measured units.
    counts: Vec<(String, u64)>,
    /// Timings and probe values of traced passes.
    layer: Vec<(String, f64)>,
}

impl Report {
    fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn layer(&self, name: &str) -> f64 {
        self.layer
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Median over units of `num[i] / work_ns[i]`, per second.
    fn rate(&self, num: &[u64]) -> f64 {
        let rates: Vec<f64> = num
            .iter()
            .zip(&self.work_ns)
            .map(|(&n, &w)| n as f64 / (w.max(1) as f64 * 1e-9))
            .collect();
        median(&rates)
    }
}

/// Parsed `--flag value` arguments.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let value = match name {
                "smoke" => "1".to_string(),
                _ => it.next().ok_or(format!("{flag} needs a value"))?.clone(),
            };
            map.insert(name.to_string(), value);
        }
        Ok(Args(map))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or(format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("invalid --{name}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.get("workload")?;
        Workload::parse(name).ok_or(format!("unknown workload {name:?}"))
    }

    fn size(&self) -> Size {
        if self.0.contains_key("smoke") {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn reference(&self) -> String {
        self.0
            .get("reference")
            .cloned()
            .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt").into())
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("child") => Args::parse(&raw[1..]).and_then(|a| child(&a)),
        Some("record") if raw.len() == 1 => record(),
        _ => Args::parse(&raw).and_then(|a| orchestrate(&a)),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

// ------------------------------------------------------------------ child

/// Counts that must repeat exactly across passes over the same units.
fn counts(d: &obs::CounterSnapshot, s: &Stats) -> Vec<(String, u64)> {
    [
        ("ipd.games", d.games_played),
        ("ipd.rounds", d.rounds_simulated),
        ("ipd.markov_evals", d.markov_fastpath_evals),
        ("paycache.hits", d.payoff_cache_hits),
        ("paycache.misses", d.payoff_cache_misses),
        ("comm.messages", d.comm_messages),
        ("comm.bytes", d.comm_bytes),
        ("comm.collectives", d.collective_ops),
        ("svc.jobs_completed", d.jobs_completed),
        ("svc.jobs_retried", d.jobs_retried),
        ("svc.jobs_rejected", d.jobs_rejected),
        ("engine.generations", s.generations),
        ("nature.pc_events", s.pc_events),
        ("nature.adoptions", s.adoptions),
        ("nature.mutations", s.mutations),
        ("engine.fitness_evals", s.fitness_evaluations),
        ("engine.games_implied", s.games_implied),
    ]
    .into_iter()
    .map(|(n, v)| (n.to_string(), v))
    .collect()
}

/// One measurement pass: `timed` runs units for `--seconds`; `plain` and
/// `traced` run the workload's fixed counted units with tracing off or on.
fn child(a: &Args) -> Result<ExitCode, String> {
    let w = a.workload()?;
    let size = a.size();
    let seed: u64 = a.num("seed")?;
    let seconds: f64 = a.num("seconds")?;
    let pass = a.get("pass")?.to_string();
    let reference = Reference::load(&a.reference())?;
    let traced = pass == "traced";
    let ctx = Ctx {
        size,
        spool_base: a.get("spool")?.into(),
        traced,
    };
    let mut rep = Report {
        pass: pass.clone(),
        threads: rayon::current_num_threads() as u64,
        ..Report::default()
    };
    let mut stats = Stats::default();
    let mut cache_entries = Vec::new();
    let mut dist_gen_ns = Vec::new();
    let mut units: Vec<(u64, Unit)> = Vec::new();

    let before = obs::counters().snapshot();
    obs::set_enabled(traced);
    let start = Instant::now();
    for i in 0.. {
        let done = match pass.as_str() {
            "timed" => i > 0 && start.elapsed().as_secs_f64() >= seconds,
            _ => i >= w.counted_units(size),
        };
        if done {
            break;
        }
        let k = instance_for(seed, i, size);
        let mut u = workloads::run_unit(&ctx, w, k);
        u.verify(&reference, size, w, k);
        rep.instances.push(k);
        rep.setup_ns.push(u.setup_ns);
        rep.work_ns.push(u.work_ns);
        rep.wall_ns.push(u.setup_ns.round() as u64 + u.work_ns);
        rep.gens.push(u.gens);
        rep.jobs.push(u.jobs);
        rep.lat_ns.extend_from_slice(&u.lat_ns);
        rep.attempted += u.attempted;
        rep.failures.append(&mut u.failures);
        stats.merge(&u.stats);
        cache_entries.push(u.cache_entries as f64);
        dist_gen_ns.append(&mut u.dist_gen_ns);
        units.push((k, u));
    }
    // Peak memory of the measured units alone, before the cross-checks and
    // probes below run in the same process.
    rep.peak_rss_kb = peak_rss_kb().unwrap_or(0);
    obs::set_enabled(false);
    let delta = obs::counters().snapshot().delta_since(&before);
    let spans = obs::span_snapshots();

    // Live cross-backend checks, outside every timed region: a timed pass
    // checks its first instance, counted passes check all of theirs.
    let live = if pass == "timed" { 1 } else { units.len() };
    let mut layer: Vec<(&str, f64)> = Vec::new();
    let check = |rep: &mut Report, r: Result<(), String>| {
        rep.attempted += 1;
        if let Err(e) = r {
            rep.failures.push(e);
        }
    };
    match w {
        Workload::DistRanks2 => {
            let mut shared_games = 0;
            for (k, _) in units.iter().take(live) {
                let params = workloads::dist_params(size, *k);
                let r = workloads::shared_on_demand(&params).and_then(|(s, e, games)| {
                    shared_games += games;
                    reference.check(size, w.name(), *k, "-", s, e)
                });
                check(
                    &mut rep,
                    r.map_err(|e| format!("shared on-demand cross-check: {e}")),
                );
            }
            if traced {
                let ratio = delta.games_played as f64 / shared_games.max(1) as f64;
                layer.push(("dist.games_ratio_vs_shared", ratio));
                let (p50, tail) = (
                    percentile(&ns(&dist_gen_ns), 50.0),
                    tail_rule(&ns(&dist_gen_ns)),
                );
                layer.push(("dist.gen_p50_us", p50.value / 1e3));
                layer.push(("dist.gen_tail_us", tail.value / 1e3));
                layer.push(("dist.gen_tail_pct", tail.pct));
                layer.push(("dist.gen_samples", dist_gen_ns.len() as f64));
                // Counts-only probe: four ranks oversubscribe two cores, so
                // only what they do is reported, not how long it takes.
                let r4 = obs::counters().snapshot();
                for (k, _) in &units {
                    let cfg = cluster::dist::DistConfig::new(
                        workloads::dist_params(size, *k),
                        4,
                        evo_core::fitness::FitnessPolicy::OnDemand,
                    );
                    let r = match cluster::dist::run_distributed(&cfg) {
                        Ok(out) => reference.check(
                            size,
                            w.name(),
                            *k,
                            "-",
                            evo_core::record::state_digest(&out.assignments, &out.features),
                            stats::fnv_json(&out.events),
                        ),
                        Err(e) => Err(e.to_string()),
                    };
                    check(&mut rep, r.map_err(|e| format!("ranks-4 probe: {e}")));
                }
                let r4 = obs::counters().snapshot().delta_since(&r4);
                layer.push(("dist.r4.games", r4.games_played as f64));
                layer.push(("dist.r4.messages", r4.comm_messages as f64));
                layer.push(("dist.r4.bytes", r4.comm_bytes as f64));
            }
        }
        Workload::ServeBatch => {
            let (mut exec_ns, mut makespan_ns) = (0u64, 0u64);
            let (mut cells, mut cell_ns, mut reps, mut rep_ns) = (0u64, 0u64, 0u64, 0u64);
            let mut direct_stats = Stats::default();
            let mut family_ns = [0u64; Family::ALL.len()];
            for (k, u) in units.iter().take(live) {
                makespan_ns += u.work_ns;
                for req in &u.requests {
                    let r = workloads::run_direct(req).and_then(|d| {
                        exec_ns += d.ns;
                        family_ns[d.family as usize] += d.ns;
                        direct_stats.merge(&d.stats);
                        if d.cell_updates > 0 {
                            (cells, cell_ns) = (cells + d.cell_updates, cell_ns + d.ns);
                        }
                        if d.replicates > 0 {
                            (reps, rep_ns) = (reps + d.replicates, rep_ns + d.ns);
                        }
                        reference.check(size, w.name(), *k, &req.id, d.state, d.records)
                    });
                    check(&mut rep, r.map_err(|e| format!("direct cross-check: {e}")));
                }
            }
            // Each family's share of the batch's execution time, so a
            // regression confined to one family can be sized against the
            // bounds.
            for f in Family::ALL {
                let share = family_ns[f as usize] as f64 / exec_ns.max(1) as f64;
                layer.push((f.share_metric(), share));
            }
            // The service hides RunStats; the direct runs of the same specs
            // supply the Nature-Agent counts.
            stats = direct_stats;
            if traced {
                let per_sec = |n: u64, t: u64| n as f64 / (t.max(1) as f64 * 1e-9);
                let share =
                    exec_ns as f64 / (workloads::SERVE_WORKERS as f64 * makespan_ns.max(1) as f64);
                layer.push(("svc.exec_share", share));
                layer.push(("spatial.cell_updates_per_s", per_sec(cells, cell_ns)));
                layer.push(("fixation.replicates_per_s", per_sec(reps, rep_ns)));
                let n = units.len().max(1) as f64;
                let spool_bytes: u64 = units.iter().map(|(_, u)| u.spool.bytes).sum();
                let spool_files: u64 = units.iter().map(|(_, u)| u.spool.files).sum();
                layer.push(("svc.spool_bytes", spool_bytes as f64 / n));
                layer.push(("svc.spool_files", spool_files as f64 / n));
            }
            let submitted: u64 = units.iter().map(|(_, u)| u.submitted).sum();
            let good: u64 = units.iter().map(|(_, u)| u.jobs).sum();
            layer.push(("svc.jobs_failed", submitted.saturating_sub(good) as f64));
        }
        Workload::WellmixedDet | Workload::WellmixedNoisy => {
            if traced {
                let span = |name: &str| {
                    spans
                        .iter()
                        .find(|s| s.name == name)
                        .map_or(0.0, |s| s.total_ns as f64)
                };
                let generation = span("population.generation");
                if generation > 0.0 {
                    layer.push((
                        "engine.provide_share",
                        span("population.fitness") / generation,
                    ));
                }
                layer.push(("engine.step_us", stats::mean(&ns(&rep.lat_ns)) / 1e3));
                layer.push(("paycache.entries", stats::mean(&cache_entries)));
            }
        }
    }
    if traced {
        let (mem, noise) = match w {
            Workload::WellmixedNoisy => (3, 0.01),
            Workload::DistRanks2 => (3, 0.0),
            _ => (1, 0.0),
        };
        let (batches, games) = if size == Size::Full {
            (9, 2_000)
        } else {
            (3, 50)
        };
        layer.push((
            "ipd.ns_per_game",
            probes::ns_per_game(mem, 200, noise, batches, games),
        ));
        let (batches, trips) = if size == Size::Full {
            (9, 2_000)
        } else {
            (3, 100)
        };
        layer.push(("comm.alpha_us", probes::alpha_us(batches, trips)));
    }
    rep.counts = counts(&delta, &stats);
    rep.layer = layer.into_iter().map(|(n, v)| (n.to_string(), v)).collect();
    println!(
        "{}",
        serde_json::to_string(&rep).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------ orchestrate

/// Run one child pass and parse its report. A child that fails, runs past
/// `deadline` or prints no report is an error.
fn run_child(
    a: &Args,
    w: Workload,
    pass: &str,
    threads: usize,
    deadline: Instant,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spool = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let spool = std::path::Path::new(&spool).join("perfbench-spool");
    std::fs::create_dir_all(&spool).map_err(|e| format!("{}: {e}", spool.display()))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--pass", pass, "--workload", w.name()])
        .args(["--seed", a.get("seed")?, "--seconds", a.get("seconds")?])
        .args(["--reference", &a.reference()])
        .arg("--spool")
        .arg(&spool)
        .args((a.size() == Size::Smoke).then_some("--smoke"))
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {pass} pass: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let out = reader
        .join()
        .map_err(|_| "reading child output".to_string())?;
    match status {
        Some(s) if s.success() => {}
        Some(s) => return Err(format!("{pass} pass exited with {s}")),
        None => return Err(format!("{pass} pass killed: run exceeded its deadline")),
    }
    let line = out.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("{pass} pass report: {e}"))
}

fn num(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

fn metric_map(values: &[(&str, &str, f64)]) -> Value {
    Value::Map(
        values
            .iter()
            .map(|&(name, unit, v)| {
                let m = vec![
                    ("value".to_string(), num(v)),
                    ("unit".to_string(), Value::Str(unit.into())),
                ];
                (name.to_string(), Value::Map(m))
            })
            .collect(),
    )
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The commit, when the checkout is a git repository; otherwise "unknown".
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Each serve-batch job family's share of the direct-run execution time.
fn family_shares(r: &Report) -> (String, Value) {
    let shares = Family::ALL
        .iter()
        .map(|f| (f.share_metric().to_string(), num(r.layer(f.share_metric()))))
        .collect();
    ("family_exec_share".into(), Value::Map(shares))
}

fn orchestrate(a: &Args) -> Result<ExitCode, String> {
    let w = a.workload()?;
    let seed: u64 = a.num("seed")?;
    let seconds: f64 = a.num("seconds")?;
    let trace: u8 = a.num("trace")?;
    if !seconds.is_finite() || seconds <= 0.0 || trace > 1 {
        return Err("--seconds must be positive and --trace 0 or 1".into());
    }
    Reference::load(&a.reference())?;
    let deadline = Instant::now()
        + Duration::try_from_secs_f64(seconds).map_err(|e| format!("--seconds: {e}"))?
        + DEADLINE_MARGIN;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = w.engine_threads(nproc);
    let mut prov: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), num(seconds)),
        ("size".into(), Value::Str(a.size().name().into())),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("engine_threads".into(), Value::UInt(threads as u64)),
        ("rustc".into(), Value::Str(rustc_version())),
        ("commit".into(), Value::Str(commit())),
    ];
    if w == Workload::ServeBatch {
        prov.push((
            "service_workers".into(),
            Value::UInt(workloads::SERVE_WORKERS as u64),
        ));
    }
    let (metrics, attempted, failures) = if trace == 0 {
        let r = run_child(a, w, "timed", threads, deadline)?;
        let lat = ns(&r.lat_ns);
        let units = r.work_ns.len() as u64;
        let (tail, tail_prov) = gen_tail(w, &lat, &r.instances);
        let values = vec![
            ("setup_s", "s", median(&r.setup_ns) / 1e9),
            ("wall_s", "s", median(&ns(&r.wall_ns)) / 1e9),
            ("gens_per_s", "1/s", r.rate(&r.gens)),
            ("jobs_per_s", "1/s", r.rate(&r.jobs)),
            ("gen_p50_us", "us", percentile(&lat, 50.0).value / 1e3),
            ("gen_tail_us", "us", tail / 1e3),
            ("peak_rss_mb", "MB", r.peak_rss_kb as f64 / 1024.0),
        ];
        prov.push(("units".into(), Value::UInt(units)));
        prov.push((
            "instances".into(),
            Value::Seq(r.instances.iter().map(|&k| Value::UInt(k)).collect()),
        ));
        prov.push(("latency_samples".into(), Value::UInt(lat.len() as u64)));
        prov.extend(tail_prov);
        prov.push((
            "error_rate".into(),
            num(r.failures.len() as f64 / r.attempted.max(1) as f64),
        ));
        if w == Workload::ServeBatch {
            prov.push(family_shares(&r));
        }
        (values, r.attempted, r.failures)
    } else {
        traced_metrics(a, w, threads, deadline, &mut prov)?
    };

    for &(name, unit, v) in &metrics {
        println!("metric {name} = {v} {unit}");
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    println!(
        "provenance {}",
        serde_json::to_string(&Value::Map(prov)).map_err(|e| e.to_string())?
    );
    let correct = failures.is_empty();
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted.max(1))),
        ("failed".into(), Value::UInt(failures.len() as u64)),
        ("metrics".into(), metric_map(&metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `gen_tail_us` in ns and the provenance that says how it was read.
fn gen_tail(w: Workload, lat: &[f64], instances: &[u64]) -> (f64, Vec<(String, Value)>) {
    match w.tail_kind() {
        TailKind::Percentile(pct) => {
            let t = percentile(lat, pct);
            let prov = vec![
                ("tail_percentile".into(), num(t.pct)),
                ("tail_samples_beyond".into(), Value::UInt(t.beyond as u64)),
            ];
            (t.value, prov)
        }
        TailKind::SlowestInstance => {
            let (value, k, n) = stats::slowest_group(lat, instances);
            let prov = vec![
                ("tail".into(), Value::Str("slowest instance median".into())),
                ("tail_instance".into(), Value::UInt(k)),
                ("tail_instance_samples".into(), Value::UInt(n as u64)),
            ];
            (value, prov)
        }
    }
}

type Metrics = (Vec<(&'static str, &'static str, f64)>, u64, Vec<String>);

/// The traced run: a plain pass and a traced pass over the same counted
/// units (plus a one-thread pass where the engine fans out), combined into
/// the per-layer metrics.
fn traced_metrics(
    a: &Args,
    w: Workload,
    threads: usize,
    deadline: Instant,
    prov: &mut Vec<(String, Value)>,
) -> Result<Metrics, String> {
    let plain = run_child(a, w, "plain", threads, deadline)?;
    let traced = run_child(a, w, "traced", threads, deadline)?;
    let one = if w.uses_parallel_engine() {
        Some(run_child(a, w, "plain", 1, deadline)?)
    } else {
        None
    };
    let passes: Vec<&Report> = [Some(&plain), Some(&traced), one.as_ref()]
        .into_iter()
        .flatten()
        .collect();

    // Every count must repeat exactly across passes over the same units.
    let mut unstable = Vec::new();
    for (name, _) in &traced.counts {
        let seen: Vec<u64> = passes.iter().map(|p| p.count(name)).collect();
        let (lo, hi) = (seen.iter().min(), seen.iter().max());
        if lo != hi {
            let spread = hi.unwrap_or(&0) - lo.unwrap_or(&0);
            let note = format!("values {seen:?}, spread {spread}");
            unstable.push((name.clone(), Value::Str(note)));
        }
    }

    let c = |n: &str| traced.count(n) as f64;
    let l = |n: &str| traced.layer(n);
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let hits = c("paycache.hits");
    let work_s: f64 = ns(&plain.work_ns).iter().sum::<f64>() / 1e9;
    let wall = |r: &Report| ns(&r.wall_ns).iter().sum::<f64>();
    let gens_rate = |r: &Report| {
        ratio(
            r.gens.iter().sum::<u64>() as f64,
            ns(&r.work_ns).iter().sum::<f64>() / 1e9,
        )
    };
    let speedup = one
        .as_ref()
        .map_or(0.0, |o| ratio(gens_rate(&plain), gens_rate(o)));

    let (mut compute_s, mut comm_s, mut serial_s, mut model_s, mut model_err) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if w == Workload::DistRanks2 {
        let k = plain.instances.first().copied().unwrap_or(0);
        let params = workloads::dist_params(a.size(), k);
        let b = probes::model(
            &params,
            workloads::DIST_RANKS as u64,
            l("ipd.ns_per_game"),
            l("comm.alpha_us"),
        );
        let scale = b.penalty * params.generations as f64;
        (compute_s, comm_s, serial_s, model_s) =
            (b.compute * scale, b.comm * scale, b.serial * scale, b.total);
        let measured = median(&ns(&plain.work_ns)) / 1e9;
        model_err = ratio((model_s - measured).abs(), measured);
        prov.push(("perf_measured_s".into(), num(measured)));
        prov.push((
            "perf_procs".into(),
            Value::UInt(workloads::DIST_RANKS as u64),
        ));
    }

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failures: Vec<String> = passes
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .collect();
    let values = vec![
        ("ipd.games", "count", c("ipd.games")),
        ("ipd.rounds", "count", c("ipd.rounds")),
        ("ipd.markov_evals", "count", c("ipd.markov_evals")),
        ("ipd.ns_per_game", "ns", l("ipd.ns_per_game")),
        ("engine.step_us", "us", l("engine.step_us")),
        ("engine.provide_share", "ratio", l("engine.provide_share")),
        ("engine.fitness_evals", "count", c("engine.fitness_evals")),
        ("engine.games_implied", "count", c("engine.games_implied")),
        (
            "engine.replay_ratio",
            "ratio",
            ratio(c("ipd.games"), c("engine.games_implied")),
        ),
        ("paycache.hits", "count", hits),
        ("paycache.misses", "count", c("paycache.misses")),
        (
            "paycache.hit_ratio",
            "ratio",
            ratio(hits, hits + c("paycache.misses")),
        ),
        ("paycache.entries", "count", l("paycache.entries")),
        ("par.threads", "count", traced.threads as f64),
        ("par.speedup_1t", "ratio", speedup),
        ("nature.pc_events", "count", c("nature.pc_events")),
        ("nature.adoptions", "count", c("nature.adoptions")),
        ("nature.mutations", "count", c("nature.mutations")),
        ("comm.messages", "count", c("comm.messages")),
        ("comm.bytes", "B_sizeof", c("comm.bytes")),
        ("comm.collectives", "count", c("comm.collectives")),
        (
            "comm.msgs_per_gen",
            "ratio",
            ratio(c("comm.messages"), c("engine.generations")),
        ),
        ("comm.alpha_us", "us", l("comm.alpha_us")),
        (
            "comm.share_est",
            "ratio_calc",
            ratio(c("comm.messages") * l("comm.alpha_us") * 1e-6, work_s),
        ),
        ("dist.gen_p50_us", "us", l("dist.gen_p50_us")),
        ("dist.gen_tail_us", "us", l("dist.gen_tail_us")),
        (
            "dist.games_ratio_vs_shared",
            "ratio",
            l("dist.games_ratio_vs_shared"),
        ),
        ("dist.r4.games", "count", l("dist.r4.games")),
        ("dist.r4.messages", "count", l("dist.r4.messages")),
        ("dist.r4.bytes", "B_sizeof", l("dist.r4.bytes")),
        ("perf.compute_s", "s", compute_s),
        ("perf.comm_s", "s", comm_s),
        ("perf.serial_s", "s", serial_s),
        ("perf.model_s", "s", model_s),
        ("perf.model_rel_err", "ratio", model_err),
        ("svc.jobs_completed", "count", c("svc.jobs_completed")),
        ("svc.jobs_failed", "count", l("svc.jobs_failed")),
        ("svc.jobs_retried", "count", c("svc.jobs_retried")),
        ("svc.spool_bytes", "B", l("svc.spool_bytes")),
        ("svc.spool_files", "count", l("svc.spool_files")),
        ("svc.exec_share", "ratio", l("svc.exec_share")),
        (
            "spatial.cell_updates_per_s",
            "1/s",
            l("spatial.cell_updates_per_s"),
        ),
        (
            "fixation.replicates_per_s",
            "1/s",
            l("fixation.replicates_per_s"),
        ),
        (
            "obs.trace_overhead",
            "ratio",
            ratio(wall(&traced), wall(&plain)) - 1.0,
        ),
        (
            "bench.error_rate",
            "ratio",
            failures.len() as f64 / attempted.max(1) as f64,
        ),
    ];
    prov.push(("units".into(), Value::UInt(traced.work_ns.len() as u64)));
    prov.push((
        "instances".into(),
        Value::Seq(traced.instances.iter().map(|&k| Value::UInt(k)).collect()),
    ));
    prov.push((
        "pass_threads".into(),
        Value::Seq(
            passes
                .iter()
                .map(|p| Value::Str(format!("{}@{}", p.pass, p.threads)))
                .collect(),
        ),
    ));
    prov.push((
        "step_samples".into(),
        Value::UInt(traced.lat_ns.len() as u64),
    ));
    if w == Workload::DistRanks2 {
        prov.push(("dist_gen_samples".into(), num(l("dist.gen_samples"))));
        prov.push((
            "dist_gen_tail_percentile".into(),
            num(l("dist.gen_tail_pct")),
        ));
    }
    if w == Workload::ServeBatch {
        prov.push(family_shares(&traced));
    }
    prov.push(("counts_not_repeating".into(), Value::Map(unstable)));
    Ok((values, attempted, failures))
}

// ----------------------------------------------------------------- record

/// Regenerate the reference corpus. Each instance is run through its
/// workload's path and, where a second backend exists, cross-checked
/// against it before its outputs are written.
fn record() -> Result<ExitCode, String> {
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");
    let spool = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench-spool");
    std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
    let mut reference = Reference::default();
    for size in [Size::Full, Size::Smoke] {
        let ctx = Ctx {
            size,
            spool_base: spool.clone(),
            traced: false,
        };
        for w in Workload::ALL {
            for k in 0..size.instances() {
                let u = workloads::run_unit(&ctx, w, k);
                if !u.failures.is_empty() {
                    return Err(format!("{} instance {k}: {:?}", w.name(), u.failures));
                }
                for (item, state, records) in &u.outputs {
                    reference.insert(size, w.name(), k, item, *state, *records);
                }
                let cross = match w {
                    Workload::DistRanks2 => {
                        let (s, e, _) =
                            workloads::shared_on_demand(&workloads::dist_params(size, k))?;
                        reference.check(size, w.name(), k, "-", s, e)
                    }
                    Workload::ServeBatch => u.requests.iter().try_for_each(|req| {
                        let d = workloads::run_direct(req)?;
                        reference.check(size, w.name(), k, &req.id, d.state, d.records)
                    }),
                    _ => Ok(()),
                };
                cross.map_err(|e| format!("cross-backend check while recording: {e}"))?;
                eprintln!("recorded {} {} instance {k}", size.name(), w.name());
            }
        }
    }
    std::fs::write(out, reference.render()).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(ExitCode::SUCCESS)
}
