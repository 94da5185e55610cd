//! The traced run: each scenario's path re-driven through the public calls
//! `Simulation::run` makes, with a host-time span around every call.
//!
//! Spans are taken here, in the benchmark, around calls into each module's
//! public functions — never per access. Every traced path must reproduce
//! the untraced `Outcome` (bit for bit, except the DDR path's `time`, which
//! chunked `run_stream` may move by ulps), which is what makes the split a
//! split of the real run.

use crate::checks::{ensure, multirank_of, phased_of, result_digest};
use crate::workloads::Workload;
use auto_hbwmalloc::{AllocationRouter, AutoHbwMalloc, PlacementApproach};
use hmem_advisor::{Advisor, MemorySpec};
use hmem_core::{AppRun, Outcome, RunConfig, RunResult, Scenario, WorkloadSelector};
use hmsim_analysis::analyze_trace;
use hmsim_common::{Address, AddressRange, ByteSize, HmError, PAGE_SIZE};
use hmsim_machine::{MachineConfig, MemoryAccess, MemoryMode, TraceEngine};
use hmsim_runtime::harness::provision;
use hmsim_runtime::{MultiRankConfig, MultiRankRuntime, OnlineRuntime};
use hmsim_trace::TraceSummary;
use std::hint::black_box;
use std::time::Instant;

/// Accesses per `run_stream` call on the DDR path.
const DDR_CHUNK: usize = 8_192;

/// Host seconds per layer span and the counts taken at the same boundaries,
/// summed over every traced scenario.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub generate_s: f64,
    pub observe_s: f64,
    pub run_stream_s: f64,
    pub commit_s: f64,
    pub multirank_s: f64,
    pub multirank_serial_s: f64,
    pub provision_s: f64,
    pub scenario_s: f64,
    pub profile_run_s: f64,
    pub summary_s: f64,
    pub analyze_s: f64,
    pub advise_s: f64,
    pub apprun_s: f64,

    pub accesses: u64,
    pub llc_misses: u64,
    pub l1_references: u64,
    pub l1_hits: u64,
    pub pebs_samples: u64,
    /// Samples seen by the single-process observe loop, and how many of
    /// them resolved to a live object.
    pub pebs_seen: u64,
    pub pebs_attributed: u64,
    pub epochs: u64,
    pub migrations: u64,
    pub rejected_moves: u64,
    pub bytes_moved: u64,
    pub node_epochs: u64,
    pub trace_events: u64,
    pub trace_samples: u64,
    pub objects_selected: u64,
    pub profile_runs: u64,
    pub monitoring_overhead_sum: f64,
}

impl Layers {
    /// Sum of every layer span.
    pub fn span_total(&self) -> f64 {
        self.generate_s
            + self.observe_s
            + self.run_stream_s
            + self.commit_s
            + self.multirank_s
            + self.multirank_serial_s
            + self.provision_s
            + self.scenario_s
            + self.profile_run_s
            + self.summary_s
            + self.analyze_s
            + self.advise_s
            + self.apprun_s
    }
}

/// Host time of one traced scenario.
#[derive(Clone, Copy, Debug)]
pub struct TracedWall {
    /// The part that mirrors `Simulation::run` (compared with the untraced
    /// run for the tracing overhead).
    pub mirrored_s: f64,
    /// Everything, including the reference runs only the traced run makes
    /// (the serial multi-rank run, the generation probe).
    pub total_s: f64,
}

fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

fn err(e: HmError) -> String {
    e.to_string()
}

/// The machine a trace scenario runs on, as the facade builds it.
fn machine_of(s: &Scenario) -> MachineConfig {
    s.machine.config().with_memory_mode(s.memory_mode)
}

/// Re-drive `text` (the scenario's `.scn` form) through the layers of
/// `workload`, adding spans and counts to `layers`, and check the result
/// against `untraced`, the outcome `Simulation::run` produced.
pub fn traced_run(
    workload: Workload,
    text: &str,
    untraced: &Outcome,
    layers: &mut Layers,
) -> Result<TracedWall, String> {
    let start = Instant::now();
    let scenario = span(&mut layers.scenario_s, || {
        let s = Scenario::parse(text)?;
        s.validate()?;
        Ok(s)
    })
    .map_err(err)?;
    let extra_s = match workload {
        Workload::PhasedOnline => phased_online(&scenario, untraced, layers).map(|_| 0.0),
        Workload::PhasedDdr => phased_ddr(&scenario, untraced, layers).map(|_| 0.0),
        Workload::MultirankNode => multirank(&scenario, untraced, layers),
        Workload::PaperGrid => paper_grid(&scenario, untraced, layers).map(|_| 0.0),
    }?;
    let total_s = start.elapsed().as_secs_f64();
    Ok(TracedWall {
        mirrored_s: total_s - extra_s,
        total_s,
    })
}

/// Pull up to `n` accesses from `stream` into `buf` (cleared first).
fn fill(buf: &mut Vec<MemoryAccess>, stream: &mut dyn Iterator<Item = MemoryAccess>, n: usize) {
    buf.clear();
    buf.extend(stream.take(n));
}

fn phased_online(s: &Scenario, untraced: &Outcome, l: &mut Layers) -> Result<(), String> {
    let workload = phased_of(s).map_err(err)?;
    let machine = machine_of(s);
    let budget = s.mcdram_budget;
    let cfg = s.online.clone().unwrap_or_default();
    let epoch_len = cfg.epoch_accesses;
    let (mut p, mut rt) = span(&mut l.provision_s, || {
        let p = provision(&workload, &machine, budget)?;
        Ok((p, OnlineRuntime::new(&machine, budget, cfg)))
    })
    .map_err(err)?;
    let mut stream = workload.stream(&p.ranges);
    let mut buf = Vec::with_capacity(epoch_len as usize);
    let mut sampled = Vec::new();
    // The loop of `OnlineRuntime::run`, with each epoch's accesses
    // generated into a buffer first.
    loop {
        span(&mut l.generate_s, || {
            fill(&mut buf, &mut *stream, epoch_len as usize)
        });
        let consumed = span(&mut l.observe_s, || {
            rt.observe_epoch(&mut buf.iter().copied(), &p.heap, &mut sampled)
        });
        if consumed == 0 {
            break;
        }
        l.accesses += consumed;
        l.pebs_seen += sampled.len() as u64;
        l.pebs_attributed += sampled
            .iter()
            .filter(|x| p.heap.registry().find_containing(x.address).is_some())
            .count() as u64;
        span(&mut l.commit_s, || {
            rt.commit_epoch(&mut p.heap, consumed, &sampled)
        });
        if consumed < epoch_len {
            break;
        }
    }

    let stats = rt.stats();
    let engine = rt.engine_stats();
    let time = rt.total_time();
    let total = workload.total_accesses();
    let r = untraced.result();
    let name = &s.name;
    let logged: u64 = stats.epoch_log.iter().map(|e| e.accesses).sum();
    ensure(logged == total, || {
        format!("{name}: epoch log holds {logged} accesses, workload has {total}")
    })?;
    ensure(
        r.total_time.0.to_bits() == time.0.to_bits()
            && r.counters == engine.counters
            && r.migrations == stats.migrations
            && r.migration_time.0.to_bits() == stats.migration_time.0.to_bits()
            && r.migrations_rejected == stats.rejected_moves
            && r.mcdram_hwm == stats.fast_residency_peak
            && r.fom.to_bits() == (total as f64 / time.secs().max(1e-12)).to_bits(),
        || format!("{name}: traced online run differs from Simulation::run"),
    )?;
    l.llc_misses += engine.counters.llc_misses;
    l.l1_references += engine.counters.l1_references;
    l.l1_hits += engine.counters.l1_hits();
    l.pebs_samples += stats.samples;
    l.epochs += stats.epochs;
    l.migrations += stats.migrations;
    l.rejected_moves += stats.rejected_moves;
    l.bytes_moved += stats.bytes_migrated.bytes();
    Ok(())
}

fn phased_ddr(s: &Scenario, untraced: &Outcome, l: &mut Layers) -> Result<(), String> {
    let workload = phased_of(s).map_err(err)?;
    let machine = machine_of(s);
    let (p, mut engine) = span(&mut l.provision_s, || {
        let p = provision(&workload, &machine, s.mcdram_budget)?;
        Ok((p, TraceEngine::new(&machine)))
    })
    .map_err(err)?;
    let mut stream = workload.stream(&p.ranges);
    let mut buf = Vec::with_capacity(DDR_CHUNK);
    loop {
        span(&mut l.generate_s, || {
            fill(&mut buf, &mut *stream, DDR_CHUNK)
        });
        if buf.is_empty() {
            break;
        }
        l.accesses += buf.len() as u64;
        span(&mut l.run_stream_s, || {
            engine.run_stream(buf.iter().copied(), p.heap.page_table())
        });
    }
    let stats = engine.stats();
    let r = untraced.result();
    // Chunking may move `time` by ulps (see `run_stream`); the integer
    // counters must match exactly.
    let rel = ((stats.time.0 - r.total_time.0) / r.total_time.0).abs();
    ensure(r.counters == stats.counters && rel < 1e-9, || {
        format!(
            "{}: traced DDR run differs from Simulation::run (time off by {rel:e})",
            s.name
        )
    })?;
    l.llc_misses += stats.counters.llc_misses;
    l.l1_references += stats.counters.l1_references;
    l.l1_hits += stats.counters.l1_hits();
    Ok(())
}

/// Lay a workload's objects out back to back (page-separated) for the
/// generation probe; generation cost does not depend on where objects sit.
fn probe_ranges(objects: &[(String, ByteSize)]) -> Vec<AddressRange> {
    let mut next = Address(0x4000_0000);
    objects
        .iter()
        .map(|(_, size)| {
            let r = AddressRange::new(next, *size);
            next = r.end().offset(PAGE_SIZE);
            r
        })
        .collect()
}

/// Returns the host seconds spent outside the mirrored path (the serial
/// reference run and the generation probe).
fn multirank(s: &Scenario, untraced: &Outcome, l: &mut Layers) -> Result<f64, String> {
    let workload = multirank_of(s).map_err(err)?;
    let machine = machine_of(s);
    let mut cfg = MultiRankConfig::new(s.rank_policy, s.mcdram_budget);
    if let Some(online) = &s.online {
        cfg = cfg.with_online(online.clone());
    }
    let rt = span(&mut l.provision_s, || {
        MultiRankRuntime::new(&workload, &machine, cfg.clone())
    })
    .map_err(err)?;
    let out = span(&mut l.multirank_s, || rt.run());

    let extra = Instant::now();
    let serial = span(&mut l.multirank_serial_s, || {
        MultiRankRuntime::new(&workload, &machine, cfg.clone().serial()).map(|rt| rt.run())
    })
    .map_err(err)?;
    // Generation probe: the ranks' streams pulled epoch by epoch, alone.
    let epoch_len = cfg.online.epoch_accesses as usize;
    let mut buf = Vec::with_capacity(epoch_len);
    l.accesses += span(&mut l.generate_s, || {
        let mut generated = 0;
        for w in workload.per_rank() {
            let mut stream = w.stream(&probe_ranges(&w.objects()));
            loop {
                fill(&mut buf, &mut *stream, epoch_len);
                if buf.is_empty() {
                    break;
                }
                generated += buf.len() as u64;
                black_box(&buf);
            }
        }
        generated
    });
    let extra_s = extra.elapsed().as_secs_f64();

    let name = &s.name;
    ensure(
        out.node_epochs == untraced.node.node_epochs
            && out.per_rank.len() == untraced.per_rank.len(),
        || {
            format!(
                "{name}: traced run took {} node epochs over {} ranks, Simulation::run {} over {}",
                out.node_epochs,
                out.per_rank.len(),
                untraced.node.node_epochs,
                untraced.per_rank.len()
            )
        },
    )?;
    ensure(
        out.node_time().0.to_bits() == untraced.node.time.0.to_bits(),
        || format!("{name}: traced node time differs from Simulation::run"),
    )?;
    for (r, u) in out.per_rank.iter().zip(&untraced.per_rank) {
        ensure(
            r.time.0.to_bits() == u.total_time.0.to_bits()
                && r.engine.counters == u.counters
                && r.stats.migrations == u.migrations
                && r.stats.migration_time.0.to_bits() == u.migration_time.0.to_bits()
                && r.stats.rejected_moves == u.migrations_rejected
                && r.stats.fast_residency_peak == u.mcdram_hwm,
            || {
                format!(
                    "{name}: rank {} of the traced run differs from Simulation::run",
                    r.rank
                )
            },
        )?;
    }
    ensure(
        serial.node_epochs == out.node_epochs && serial.per_rank.len() == out.per_rank.len(),
        || format!("{name}: serial fan-out ran a different schedule"),
    )?;
    for (a, b) in serial.per_rank.iter().zip(&out.per_rank) {
        ensure(
            a.time.0.to_bits() == b.time.0.to_bits()
                && a.engine.counters == b.engine.counters
                && a.stats.migrations == b.stats.migrations
                && a.stats.rejected_moves == b.stats.rejected_moves
                && a.fast_residency == b.fast_residency,
            || {
                format!(
                    "{name}: rank {} differs between serial and parallel fan-out",
                    a.rank
                )
            },
        )?;
    }

    l.node_epochs += out.node_epochs;
    for r in &out.per_rank {
        l.llc_misses += r.engine.counters.llc_misses;
        l.l1_references += r.engine.counters.l1_references;
        l.l1_hits += r.engine.counters.l1_hits();
        l.pebs_samples += r.stats.samples;
        l.epochs += r.stats.epochs;
        l.migrations += r.stats.migrations + r.stats.background_migrations;
        l.rejected_moves += r.stats.rejected_moves;
        l.bytes_moved += r.stats.bytes_migrated.bytes();
    }
    Ok(extra_s)
}

fn same_result(name: &str, traced: &RunResult, untraced: &RunResult) -> Result<(), String> {
    ensure(result_digest(traced) == result_digest(untraced), || {
        format!("{name}: traced run differs from Simulation::run")
    })
}

fn paper_grid(s: &Scenario, untraced: &Outcome, l: &mut Layers) -> Result<(), String> {
    let WorkloadSelector::App { name: app } = &s.workload else {
        return Err(format!("{} is not an application scenario", s.name));
    };
    let spec = span(&mut l.scenario_s, || hmsim_apps::app_by_name(app)).map_err(err)?;
    let budget = s.mcdram_budget;
    let PlacementApproach::Framework { strategy } = &s.approach else {
        // Every self-contained approach is one `AppRun`, configured as the
        // facade configures it.
        let config = RunConfig {
            machine: machine_of(s),
            mcdram_capacity: if s.memory_mode == MemoryMode::Flat {
                budget
            } else {
                ByteSize::ZERO
            },
            iterations_override: s.iterations,
            profile: s.profiling.clone(),
            online: s.online.clone(),
            rank_policy: s.rank_policy,
            seed: s.seed,
        };
        let result = span(&mut l.apprun_s, || {
            AppRun::new(&spec, config).execute(s.approach.router()?)
        })
        .map_err(err)?;
        return same_result(&s.name, &result, untraced.result());
    };

    // The four stages of `FrameworkPipeline::run`.
    let run_config = || {
        let mut c = RunConfig::flat(budget);
        c.seed = s.seed;
        if let Some(it) = s.iterations {
            c = c.with_iterations(it);
        }
        c
    };
    let profiler = s.profiling.clone().unwrap_or_default();
    let mut profile_run = span(&mut l.profile_run_s, || {
        AppRun::new(&spec, run_config().with_profiling(profiler))
            .execute(PlacementApproach::DdrOnly.router()?)
    })
    .map_err(err)?;
    let trace = profile_run
        .trace
        .take()
        .ok_or_else(|| format!("{}: profiling run produced no trace", s.name))?;
    let summary = span(&mut l.summary_s, || TraceSummary::of(&trace));
    let report = span(&mut l.analyze_s, || analyze_trace(&trace));
    let placement = span(&mut l.advise_s, || {
        Advisor::new().advise(&report, &MemorySpec::knl_budget(budget), *strategy)
    })
    .map_err(err)?;
    let result = span(&mut l.apprun_s, || {
        let (unwinder, translator) = AppRun::callstack_machinery(&spec, s.seed ^ 0x5a5a_5a5a);
        let library =
            AutoHbwMalloc::new(placement.clone(), unwinder, translator).with_budget(budget);
        AppRun::new(&spec, run_config()).execute(AllocationRouter::framework(library))
    })
    .map_err(err)?;

    let fw = untraced
        .framework
        .as_ref()
        .ok_or_else(|| format!("{}: Simulation::run returned no pipeline artefacts", s.name))?;
    ensure(
        fw.object_report == report
            && fw.placement == placement
            && fw.trace_summary.events == summary.events
            && fw.trace_summary.samples == summary.samples
            && fw.trace_summary.sampled_misses == summary.sampled_misses
            && fw.profiling_overhead.to_bits() == profile_run.monitoring_overhead.to_bits(),
        || {
            format!(
                "{}: traced pipeline artefacts differ from Simulation::run",
                s.name
            )
        },
    )?;
    same_result(&s.name, &result, untraced.result())?;
    l.trace_events += trace.len() as u64;
    l.trace_samples += summary.samples as u64;
    l.objects_selected += placement.automatic_entries().count() as u64;
    l.profile_runs += 1;
    l.monitoring_overhead_sum += profile_run.monitoring_overhead;
    Ok(())
}
