//! Output checks on every `Outcome` and a digest of its simulated statistics.

use crate::workloads::Workload;
use auto_hbwmalloc::PlacementApproach;
use hmem_core::{MultiRankSelector, Outcome, RunResult, Scenario, WorkloadSelector};
use hmsim_apps::{phased_workload_by_name, MultiRankWorkload, PhasedWorkload};
use hmsim_common::{ByteSize, HmError, HmResult, Nanos};
use hmsim_machine::PerfCounters;

/// The phased workload a single-process trace scenario runs.
pub fn phased_of(scenario: &Scenario) -> HmResult<PhasedWorkload> {
    match &scenario.workload {
        WorkloadSelector::Phased { name, array_size } => phased_workload_by_name(name, *array_size)
            .ok_or_else(|| HmError::Config(format!("unknown phased workload {name}"))),
        _ => Err(HmError::Config(format!(
            "{} is not a phased scenario",
            scenario.name
        ))),
    }
}

/// The rank bundle a multi-rank scenario runs (as the `Simulation` facade
/// builds it).
pub fn multirank_of(scenario: &Scenario) -> HmResult<MultiRankWorkload> {
    match &scenario.workload {
        WorkloadSelector::MultiRank(MultiRankSelector::Replicated {
            workload,
            array_size,
            ranks,
        }) => Ok(MultiRankWorkload::replicated(
            phased_workload_by_name(workload, *array_size)
                .ok_or_else(|| HmError::Config(format!("unknown phased workload {workload}")))?,
            *ranks,
        )),
        WorkloadSelector::MultiRank(MultiRankSelector::RankSkewTriad {
            array_size,
            ranks,
            skew,
            passes,
        }) => Ok(MultiRankWorkload::rank_skew_triad(
            *array_size,
            *ranks,
            *skew,
            *passes,
        )),
        _ => Err(HmError::Config(format!(
            "{} is not a multi-rank scenario",
            scenario.name
        ))),
    }
}

/// `Ok` when `ok` holds, else the message `what` builds.
pub(crate) fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Check one outcome of `workload`. Returns the first violated condition.
pub fn check_outcome(workload: Workload, scenario: &Scenario, o: &Outcome) -> Result<(), String> {
    let name = &scenario.name;
    match workload {
        Workload::PhasedOnline | Workload::PhasedDdr => {
            let total = phased_of(scenario)
                .map_err(|e| e.to_string())?
                .total_accesses();
            let r = o.result();
            ensure(r.counters.l1_references == total, || {
                format!(
                    "{name}: {} accesses simulated, workload has {total}",
                    r.counters.l1_references
                )
            })?;
            if workload == Workload::PhasedOnline {
                ensure(r.mcdram_hwm <= scenario.mcdram_budget, || {
                    format!(
                        "{name}: fast-tier peak {} over budget {}",
                        r.mcdram_hwm, scenario.mcdram_budget
                    )
                })?;
                ensure(r.migrations_rejected == 0, || {
                    format!("{name}: {} rejected moves", r.migrations_rejected)
                })
            } else {
                ensure(r.migrations == 0 && o.node.migrations == 0, || {
                    format!(
                        "{name}: DDR reference migrated {} objects",
                        o.node.migrations
                    )
                })
            }
        }
        Workload::MultirankNode => {
            let w = multirank_of(scenario).map_err(|e| e.to_string())?;
            ensure(o.per_rank.len() == w.ranks() as usize, || {
                format!(
                    "{name}: {} rank results for {} ranks",
                    o.per_rank.len(),
                    w.ranks()
                )
            })?;
            let mut sum = 0;
            for (rank, r) in o.per_rank.iter().enumerate() {
                let want = w.rank(rank as u32).total_accesses();
                ensure(r.counters.l1_references == want, || {
                    format!(
                        "{name}: rank {rank} simulated {} of {want} accesses",
                        r.counters.l1_references
                    )
                })?;
                sum += r.counters.l1_references;
            }
            ensure(sum == w.total_accesses(), || {
                format!(
                    "{name}: ranks sum to {sum}, workload has {}",
                    w.total_accesses()
                )
            })?;
            let slowest = o
                .per_rank
                .iter()
                .map(|r| r.total_time)
                .fold(Nanos::ZERO, Nanos::max);
            ensure(o.node.time.0.to_bits() == slowest.0.to_bits(), || {
                format!(
                    "{name}: node time {} is not the slowest rank's {slowest}",
                    o.node.time
                )
            })
        }
        Workload::PaperGrid => {
            let r = o.result();
            ensure(
                o.node.fom.is_finite() && o.node.fom > 0.0 && r.fom.is_finite() && r.fom > 0.0,
                || format!("{name}: FOM {} is not finite and positive", o.node.fom),
            )?;
            if matches!(
                scenario.approach,
                PlacementApproach::Framework { .. } | PlacementApproach::Online
            ) {
                ensure(r.mcdram_hwm <= scenario.mcdram_budget, || {
                    format!(
                        "{name}: MCDRAM high-water mark {} over budget {}",
                        r.mcdram_hwm, scenario.mcdram_budget
                    )
                })?;
            }
            ensure(r.migrations_rejected == 0, || {
                format!("{name}: {} rejected migrations", r.migrations_rejected)
            })
        }
    }
}

/// FNV-1a over little-endian words: stable across platforms and runs.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold an `f64` in by its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Fold a string in (length-prefixed).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }

    fn nanos(&mut self, v: Nanos) {
        self.f64(v.0);
    }

    fn bytes(&mut self, v: ByteSize) {
        self.u64(v.bytes());
    }

    fn counters(&mut self, c: &PerfCounters) {
        for v in [
            c.instructions,
            c.l1_references,
            c.l1_misses,
            c.llc_references,
            c.llc_misses,
            c.stall_cycles,
            c.cycles,
        ] {
            self.u64(v);
        }
    }

    /// Fold in every simulated statistic of one rank's result.
    pub fn result(&mut self, r: &RunResult) {
        self.str(r.approach.key());
        self.f64(r.fom);
        self.nanos(r.total_time);
        self.nanos(r.loop_time);
        self.bytes(r.mcdram_hwm);
        self.counters(&r.counters);
        self.u64(r.kernel_times.len() as u64);
        for (kernel, t) in &r.kernel_times {
            self.str(kernel);
            self.nanos(*t);
        }
        self.f64(r.monitoring_overhead);
        self.nanos(r.allocator_time);
        self.nanos(r.migration_time);
        self.u64(r.migrations);
        self.u64(r.migrations_rejected);
        self.u64(r.trace.as_ref().map_or(0, |t| t.len() as u64));
    }

    /// Fold in every simulated statistic of one outcome: per-rank results,
    /// node aggregates and the pipeline's artefacts.
    pub fn outcome(&mut self, o: &Outcome) {
        self.str(&o.scenario);
        self.u64(o.per_rank.len() as u64);
        for r in &o.per_rank {
            self.result(r);
        }
        let n = &o.node;
        self.nanos(n.time);
        self.f64(n.fom);
        self.u64(n.llc_misses);
        self.u64(n.migrations);
        self.nanos(n.migration_time);
        self.bytes(n.mcdram_hwm);
        self.u64(n.node_epochs);
        if let Some(fw) = &o.framework {
            let t = &fw.trace_summary;
            for v in [t.events, t.allocations, t.frees, t.samples] {
                self.u64(v as u64);
            }
            self.nanos(t.duration);
            self.bytes(t.allocated_bytes);
            self.u64(t.sampled_misses);
            self.u64(fw.object_report.total_misses);
            self.u64(fw.object_report.unattributed_misses);
            for e in &fw.placement.entries {
                self.str(&e.name);
            }
            self.f64(fw.profiling_overhead);
        }
    }
}

/// Digest of one outcome.
pub fn outcome_digest(o: &Outcome) -> u64 {
    let mut d = Digest::default();
    d.outcome(o);
    d.value()
}

/// Digest of one rank result.
pub fn result_digest(r: &RunResult) -> u64 {
    let mut d = Digest::default();
    d.result(r);
    d.value()
}
