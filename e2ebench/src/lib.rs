//! End-to-end host-time benchmark of the hmem-repro simulator.
//!
//! One client drives a closed loop: it runs the next scenario of the
//! workload's set through `Simulation::run` as soon as the previous one
//! returns, in whole passes over the set, until a fixed number of seconds
//! has gone by. Scenarios are generated from the seed, serialised to `.scn`
//! text and parsed back during set-up, exactly as a user would hand them to
//! the front door. Every outcome is checked; a traced run (`--trace 1`)
//! re-drives each scenario layer by layer to split its host time.
//!
//! The model is unvalidated against hardware: the repository's only
//! reference is the paper's qualitative orderings (`tests/paper_headlines.rs`),
//! so the benchmark reports no error figure.

pub mod alloc;
pub mod checks;
pub mod traced;
pub mod workloads;

use checks::{check_outcome, outcome_digest, Digest};
use hmem_core::{Outcome, Scenario, Simulation};
use hmsim_common::DetRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use traced::{traced_run, Layers};
pub use workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups before the timed loop. One more follows every pass but the last,
/// so that set-up is sampled across the run's host slowdowns; `setup_s` is
/// the median of them all.
const SETUP_REPS: usize = 9;
/// The traced run fails its check when the named layers cover less of its
/// wall time than this.
const MIN_LAYER_COVERAGE: f64 = 0.9;

/// Command-line usage.
pub const USAGE: &str =
    "usage: hmem-e2ebench --workload <phased-online|phased-ddr|multirank-node|paper-grid> \
[--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the scenario set is drawn from.
    pub seed: u64,
    /// Measured seconds, rounded up to whole passes over the set.
    pub seconds: f64,
    /// Run the traced, layer-by-layer variant.
    pub trace: bool,
    /// Tiny scenarios, one pass, one set-up: the benchmark's own tests.
    pub quick: bool,
}

impl Args {
    /// Parse `--flag value` pairs (program name already stripped).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut quick = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            quick,
        })
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// No output check failed.
    pub correct: bool,
    /// Scenarios attempted in the measured loop.
    pub attempted: u64,
    /// Scenarios that returned `Err` or failed a check.
    pub failed: u64,
    /// The machine-read metrics (end-to-end, or per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Every failed check.
    pub errors: Vec<String>,
}

impl Report {
    /// The value of a metric, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A set-up scenario list: parsed back from its `.scn` text.
struct Prepared {
    scenarios: Vec<Scenario>,
    texts: Vec<String>,
}

/// Generate the set from the seed, round-trip it through `.scn` text,
/// validate it and run the warm-up.
fn prepare(args: &Args) -> Result<Prepared, String> {
    let generated = args.workload.scenarios(args.seed, args.quick);
    let texts: Vec<String> = generated.iter().map(Scenario::serialize).collect();
    let mut scenarios = Vec::with_capacity(generated.len());
    for (text, original) in texts.iter().zip(&generated) {
        let s = Scenario::parse(text).map_err(|e| format!("{}: {e}", original.name))?;
        if &s != original || s.serialize() != *text {
            return Err(format!(
                "{}: .scn round trip changed the scenario",
                original.name
            ));
        }
        s.validate().map_err(|e| e.to_string())?;
        scenarios.push(s);
    }
    let warmup = args.workload.warmup_len(args.quick).min(scenarios.len());
    for s in &scenarios[..warmup] {
        black_box(
            Simulation::new()
                .run(black_box(s))
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(Prepared { scenarios, texts })
}

/// [`prepare`] and its host time.
fn timed_prepare(args: &Args) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let p = prepare(args).map_err(|e| format!("set-up: {e}"))?;
    Ok((p, t.elapsed().as_secs_f64()))
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the measured loop accumulated.
#[derive(Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    times_ms: Vec<f64>,
    busy_s: f64,
    accesses: u64,
    /// First outcome digest and simulated node time per scenario.
    first: Vec<Option<(u64, f64)>>,
    layers: Layers,
    untraced_s: f64,
    traced_mirrored_s: f64,
    traced_total_s: f64,
}

impl Loop {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(e);
        }
    }

    /// The workload digest: every scenario's first outcome, in set order.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for f in &self.first {
            d.u64(f.map_or(0, |(digest, _)| digest));
        }
        d.value()
    }

    /// Geometric mean of the simulated node times, ms.
    fn sim_time_geomean_ms(&self) -> f64 {
        let logs: Vec<f64> = self
            .first
            .iter()
            .flatten()
            .map(|(_, ns)| (ns / 1e6).max(f64::MIN_POSITIVE).ln())
            .collect();
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Run one scenario untraced (and traced, when asked) and book the result.
fn step(args: &Args, p: &Prepared, idx: usize, acc: &mut Loop) {
    let s = &p.scenarios[idx];
    let t = Instant::now();
    let result = Simulation::new().run(black_box(s));
    let dt = t.elapsed().as_secs_f64();
    acc.attempted += 1;
    let outcome: Outcome = match result
        .map_err(|e| format!("{}: {e}", s.name))
        .and_then(|o| check_outcome(args.workload, s, &o).map(|_| o))
    {
        Ok(o) => o,
        Err(e) => return acc.fail(e),
    };
    acc.times_ms.push(dt * 1e3);
    acc.busy_s += dt;
    acc.accesses += outcome
        .per_rank
        .iter()
        .map(|r| r.counters.l1_references)
        .sum::<u64>();
    let digest = outcome_digest(&outcome);
    match acc.first[idx] {
        None => acc.first[idx] = Some((digest, outcome.node.time.0)),
        Some((first, _)) if first != digest => {
            return acc.fail(format!("{}: outcome changed between repeats", s.name))
        }
        Some(_) => {}
    }
    if args.trace {
        match traced_run(args.workload, &p.texts[idx], &outcome, &mut acc.layers) {
            Ok(wall) => {
                acc.untraced_s += dt;
                acc.traced_mirrored_s += wall.mirrored_s;
                acc.traced_total_s += wall.total_s;
            }
            Err(e) => acc.fail(e),
        }
    }
}

fn host_lines(args: &Args, p: &Prepared) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_ranks = p.scenarios.iter().map(|s| match &s.workload {
        hmem_core::WorkloadSelector::MultiRank(_) => {
            checks::multirank_of(s).map_or(1, |w| w.ranks() as usize)
        }
        _ => 0,
    });
    let workers = max_ranks.max().unwrap_or(0).min(nproc);
    vec![
        format!(
            "# workload {} (seed {}, {} s, trace {}{}): {}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if args.quick { ", quick" } else { "" },
            args.workload.why()
        ),
        format!("# seeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}"),
        format!(
            "# host: nproc {nproc}, parallel_map workers used {workers}, {}",
            env!("E2E_RUSTC_VERSION")
        ),
        "# model: unvalidated against hardware; the only reference is the paper's qualitative \
         orderings in tests/paper_headlines.rs, so no error figure is given"
            .to_string(),
        format!(
            "# load: closed loop, 1 client, {} scenarios per pass",
            p.scenarios.len()
        ),
    ]
}

/// Run the benchmark described by `args`.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..reps {
        match timed_prepare(args) {
            Ok((p, secs)) => {
                prepared = Some(p);
                setups.push(secs);
            }
            Err(e) => {
                report.attempted = 1;
                report.failed = 1;
                report.errors.push(e);
                return report;
            }
        }
    }
    let p = prepared.expect("at least one set-up ran");
    report.notes = host_lines(args, &p);

    let n = p.scenarios.len();
    let mut acc = Loop {
        first: vec![None; n],
        ..Loop::default()
    };
    let mut peak_bytes = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Whole passes only, so every run times the same mix of scenarios. Each
    // pass runs the set in a fresh seeded order: host slowdowns last seconds,
    // and a fixed order would hand one whole family of scenarios to one
    // slow phase.
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = DetRng::new(args.seed).derive("pass-order");
    loop {
        for i in (1..n).rev() {
            let j = rng.uniform_range(0, i as u64 + 1) as usize;
            order.swap(i, j);
        }
        alloc::reset_peak();
        for &idx in &order {
            step(args, &p, idx, &mut acc);
        }
        peak_bytes = peak_bytes.max(alloc::peak_bytes());
        if args.quick || Instant::now() >= deadline {
            break;
        }
        match timed_prepare(args) {
            Ok((_, secs)) => setups.push(secs),
            Err(e) => acc.fail(e),
        }
    }
    let setup_s = median(&mut setups);
    let peak_mib = peak_bytes as f64 / (1024.0 * 1024.0);

    report.attempted = acc.attempted;
    report.failed = acc.failed;
    let digest = acc.digest();
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };
    if args.trace {
        let l = &acc.layers;
        let coverage = ratio(l.span_total(), acc.traced_total_s);
        put("apps.generate_s", l.generate_s, "s");
        put("apps.accesses", l.accesses as f64, "count");
        put(
            "apps.ns_per_access",
            ratio(l.generate_s * 1e9, l.accesses as f64),
            "ns",
        );
        put("runtime.observe_s", l.observe_s, "s");
        put("machine.llc_misses", l.llc_misses as f64, "count");
        put(
            "machine.l1_hit_ratio",
            ratio(l.l1_hits as f64, l.l1_references as f64),
            "ratio",
        );
        put("pebs.samples", l.pebs_samples as f64, "count");
        put("machine.run_stream_s", l.run_stream_s, "s");
        put("runtime.commit_s", l.commit_s, "s");
        put("runtime.epochs", l.epochs as f64, "count");
        put("runtime.migrations", l.migrations as f64, "count");
        put("runtime.bytes_moved", l.bytes_moved as f64, "B");
        put(
            "runtime.move_success_ratio",
            ratio(
                l.migrations as f64,
                (l.migrations + l.rejected_moves) as f64,
            ),
            "ratio",
        );
        put(
            "pebs.attributed_ratio",
            ratio(l.pebs_attributed as f64, l.pebs_seen as f64),
            "ratio",
        );
        put("runtime.multirank_s", l.multirank_s, "s");
        put("runtime.multirank_serial_s", l.multirank_serial_s, "s");
        put(
            "common.fanout_speedup",
            ratio(l.multirank_serial_s, l.multirank_s),
            "x",
        );
        put("runtime.node_epochs", l.node_epochs as f64, "count");
        put("runtime.provision_s", l.provision_s, "s");
        put("core.scenario_s", l.scenario_s, "s");
        put("core.profile_run_s", l.profile_run_s, "s");
        put("trace.events", l.trace_events as f64, "count");
        put("trace.samples", l.trace_samples as f64, "count");
        put(
            "core.monitoring_overhead",
            ratio(l.monitoring_overhead_sum, l.profile_runs as f64),
            "fraction",
        );
        put("trace.summary_s", l.summary_s, "s");
        put("analysis.analyze_s", l.analyze_s, "s");
        put("advisor.advise_s", l.advise_s, "s");
        put(
            "advisor.objects_selected",
            l.objects_selected as f64,
            "count",
        );
        put("core.apprun_s", l.apprun_s, "s");
        put(
            "trace_overhead_frac",
            ratio(acc.traced_mirrored_s - acc.untraced_s, acc.untraced_s),
            "fraction",
        );
        put("trace.layer_coverage", coverage, "fraction");
        put("sim.time_geomean_ms", acc.sim_time_geomean_ms(), "ms");
        put("sim.digest", (digest >> 11) as f64, "hash");
        if coverage < MIN_LAYER_COVERAGE {
            acc.errors.push(format!(
                "named layers cover {:.1}% of the traced wall time, below {:.0}%",
                coverage * 100.0,
                MIN_LAYER_COVERAGE * 100.0
            ));
        }
    } else {
        let completed = acc.times_ms.len();
        acc.times_ms.sort_by(f64::total_cmp);
        put("setup_s", setup_s, "s");
        put(
            "scenarios_per_s",
            ratio(completed as f64, acc.busy_s),
            "1/s",
        );
        put("scenario_ms_p50", percentile(&acc.times_ms, 0.5), "ms");
        put("scenario_ms_p90", percentile(&acc.times_ms, 0.9), "ms");
        put(
            "sim_maccess_per_s",
            ratio(acc.accesses as f64 / 1e6, acc.busy_s),
            "Macc/s",
        );
        put("peak_mem_mib", peak_mib, "MiB");
    }
    for m in &metrics {
        let mut line = format!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        if m.name.starts_with("scenario_ms_") {
            line.push_str(&format!(" ({} samples)", acc.times_ms.len()));
        }
        report.notes.push(line);
    }
    if !args.trace {
        report.notes.push(format!(
            "{:<28} {:>16.6} fraction ({} of {} attempted)",
            "ops_failed_frac",
            ratio(acc.failed as f64, acc.attempted as f64),
            acc.failed,
            acc.attempted
        ));
    }
    report.notes.push(format!(
        "{:<28} {:>16} (simulated statistics, first pass)",
        "sim.digest",
        format!("{digest:016x}")
    ));
    report.metrics = metrics;
    report.errors.extend(acc.errors);
    report.correct = report.failed == 0 && report.errors.is_empty();
    report
}
