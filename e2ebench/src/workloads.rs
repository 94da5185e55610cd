//! The four benchmark workloads and the scenario sets they draw from a seed.
//!
//! Every set is stratified: the seed draws parameters *within* fixed
//! classes (array size, ranks, budget fraction, epoch length, PEBS period),
//! so two seeds give different scenarios with the same cost profile, and the
//! medians and tails a run reports compare across seeds. Each set starts
//! with the committed `.scn` scenarios of its family, verbatim; they double
//! as the untimed warm-up.

use auto_hbwmalloc::PlacementApproach;
use hmem_core::WorkloadSelector;
use hmem_core::{committed_scenarios, ExperimentConfig, MultiRankSelector, Scenario};
use hmsim_apps::{all_apps, phased_workload_by_name, MultiRankWorkload, PhasedWorkload};
use hmsim_common::{ByteSize, DetRng};
use hmsim_runtime::{ArbiterPolicy, OnlineConfig};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 12_648_430;
/// A seed kept out of every tuning run, for checking a claim on fresh inputs.
pub const HELD_OUT_SEED: u64 = 20_171_113;

/// The four registered phased trace families.
pub const PHASED_FAMILIES: [&str; 4] = [
    "rotating-triad",
    "sweeping-stencil",
    "steady-triad",
    "uniform-scan",
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Phased trace families under the online migration runtime.
    PhasedOnline,
    /// The same families under the DDR reference (bulk engine driver).
    PhasedDdr,
    /// Multi-rank scenarios under every arbitration policy.
    MultirankNode,
    /// The Figure-4 grid through the analytic runner and the pipeline.
    PaperGrid,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PhasedOnline,
        Workload::PhasedDdr,
        Workload::MultirankNode,
        Workload::PaperGrid,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PhasedOnline => "phased-online",
            Workload::PhasedDdr => "phased-ddr",
            Workload::MultirankNode => "multirank-node",
            Workload::PaperGrid => "paper-grid",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark runs this workload (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PhasedOnline => {
                "the single-process online path (generation, engine walk with a miss hook, \
                 PEBS, controller); the path a batched-access rewrite changes"
            }
            Workload::PhasedDdr => {
                "the same scenarios under the DDR reference: the only workload on the bulk \
                 run_stream engine driver; no sampler, no controller"
            }
            Workload::MultirankNode => {
                "the only workload through MultiRankRuntime, the per-epoch parallel_map \
                 fan-out, NodeArbiter and the global knapsack, R = 4 to 64"
            }
            Workload::PaperGrid => {
                "the Figure-4 grid: the only workload through profiler, trace, analysis, \
                 advisor, autohbw and the analytic engine; never touches TraceEngine"
            }
        }
    }

    /// The scenario set of this workload for `seed`. `quick` shrinks every
    /// scenario to a tiny size for the benchmark's own tests.
    pub fn scenarios(self, seed: u64, quick: bool) -> Vec<Scenario> {
        match self {
            Workload::PhasedOnline => phased_online(seed, quick),
            Workload::PhasedDdr => phased_online(seed, quick)
                .into_iter()
                .map(|mut s| {
                    s.name = s.name.replace("-online", "-ddr");
                    s.approach = PlacementApproach::DdrOnly;
                    s.online = None;
                    s
                })
                .collect(),
            Workload::MultirankNode => multirank_node(seed, quick),
            Workload::PaperGrid => paper_grid(seed, quick),
        }
    }

    /// How many scenarios at the head of the set are the family's committed
    /// ones (the warm-up).
    pub fn warmup_len(self, quick: bool) -> usize {
        if quick {
            return 1;
        }
        committed(self).len()
    }
}

/// The committed scenarios belonging to a workload's family.
fn committed(w: Workload) -> Vec<Scenario> {
    committed_scenarios()
        .into_iter()
        .filter(|s| {
            matches!(
                (&s.workload, w),
                (
                    WorkloadSelector::Phased { .. },
                    Workload::PhasedOnline | Workload::PhasedDdr
                ) | (WorkloadSelector::MultiRank(_), Workload::MultirankNode)
                    | (WorkloadSelector::App { .. }, Workload::PaperGrid)
            )
        })
        .collect()
}

/// Pick one element of a non-empty slice.
fn pick<T: Copy>(rng: &mut DetRng, items: &[T]) -> T {
    items[rng.uniform_range(0, items.len() as u64) as usize]
}

/// `bytes` rounded down to whole 4 KiB pages, at least one page.
fn page_round(bytes: u64) -> ByteSize {
    ByteSize::from_bytes((bytes / 4096).max(1) * 4096)
}

/// Online knobs drawn from the seed: epoch length and PEBS period.
fn online_knobs(rng: &mut DetRng, epochs: &[u64]) -> OnlineConfig {
    let mut cfg = OnlineConfig::default().with_epoch_accesses(pick(rng, epochs));
    cfg.pebs_period = pick(rng, &[127, 257, 509]);
    cfg
}

/// Per-array size classes of the phased sets, KiB.
const PHASED_CLASSES_KIB: [u64; 4] = [16, 24, 32, 48];
/// Scenarios per (family, size class).
const PHASED_REPLICAS: u32 = 7;

fn phased_online(seed: u64, quick: bool) -> Vec<Scenario> {
    let root = DetRng::new(seed);
    let mut out = if quick {
        Vec::new()
    } else {
        committed(Workload::PhasedOnline)
    };
    let classes: &[u64] = if quick { &[4] } else { &PHASED_CLASSES_KIB };
    let replicas = if quick { 1 } else { PHASED_REPLICAS };
    for family in PHASED_FAMILIES {
        for &class in classes {
            for k in 0..replicas {
                let mut rng = root.derive(&format!("phased/{family}/{class}/{k}"));
                // Size within ±1/16 of the class, whole KiB.
                let kib = class * pick(&mut rng, &[15, 16, 17]) / 16;
                let size = ByteSize::from_kib(kib);
                let workload =
                    phased_workload_by_name(family, size).expect("registered phased family");
                let eighths = pick(&mut rng, &[4, 5, 6, 7, 8]);
                let budget = page_round(workload.hot_set_size().bytes() * eighths / 8);
                let online = online_knobs(&mut rng, &[4_096, 8_192, 16_384]);
                out.push(
                    Scenario::phased(family, size, budget)
                        .with_online(online)
                        .with_name(format!("{family}-{kib}k-b{eighths}-online-{k}")),
                );
            }
        }
    }
    out
}

/// Node-access targets of the multi-rank sets grow with √R, so the widest
/// node costs a few times the narrowest instead of sixteen times.
const MULTIRANK_BASE_ACCESSES: u64 = 600_000;
/// Rank-count classes: the seed draws R inside each band. The bands are
/// narrow so that the node footprint, which grows with R, compares across
/// seeds.
const RANK_BANDS: [(u32, u32); 5] = [(4, 5), (8, 10), (15, 18), (28, 34), (60, 64)];
/// Scenarios per (band, policy, family).
const MULTIRANK_REPLICAS: u32 = 4;

fn multirank_node(seed: u64, quick: bool) -> Vec<Scenario> {
    let root = DetRng::new(seed);
    let mut out = if quick {
        Vec::new()
    } else {
        committed(Workload::MultirankNode)
    };
    let bands: &[(u32, u32)] = if quick { &[(4, 4)] } else { &RANK_BANDS };
    let replicas = if quick { 1 } else { MULTIRANK_REPLICAS };
    for &(lo, hi) in bands {
        for policy in ArbiterPolicy::ALL {
            for family in ["rank-skew-triad", "replicated"] {
                for k in 0..replicas {
                    let mut rng = root.derive(&format!("multirank/{lo}/{policy}/{family}/{k}"));
                    let ranks = rng.uniform_range(u64::from(lo), u64::from(hi) + 1) as u32;
                    let target = if quick {
                        20_000
                    } else {
                        (MULTIRANK_BASE_ACCESSES as f64 * (f64::from(ranks) / 4.0).sqrt()) as u64
                    };
                    let (selector, workload) = if family == "rank-skew-triad" {
                        skew_scenario(&mut rng, ranks, target, quick)
                    } else {
                        replicated_scenario(&mut rng, ranks, target)
                    };
                    let tenths = rng.uniform_range(4, 10);
                    let budget = page_round(workload.node_hot_set().bytes() * tenths / 10);
                    let online = online_knobs(&mut rng, &[2_048, 4_096, 8_192]);
                    out.push(
                        Scenario::multirank(selector, policy, budget)
                            .with_online(online)
                            .with_name(format!("{family}-r{ranks}-{policy}-{k}")),
                    );
                }
            }
        }
    }
    out
}

/// A rank-skew triad of about `target` node accesses.
fn skew_scenario(
    rng: &mut DetRng,
    ranks: u32,
    target: u64,
    quick: bool,
) -> (MultiRankSelector, MultiRankWorkload) {
    let skew = pick(rng, &[2, 3, 4]);
    let kib = if quick { 2 } else { pick(rng, &[6, 8, 10]) };
    let per_pass = u64::from(skew + ranks - 1) * 3 * kib * 1024 / 8;
    let passes = (target / per_pass).clamp(2, 40) as u32;
    let size = ByteSize::from_kib(kib);
    (
        MultiRankSelector::RankSkewTriad {
            array_size: size,
            ranks,
            skew,
            passes,
        },
        MultiRankWorkload::rank_skew_triad(size, ranks, skew, passes),
    )
}

/// `ranks` copies of a drawn phased family, sized to about `target` node
/// accesses (per-rank arrays in 256-byte steps).
fn replicated_scenario(
    rng: &mut DetRng,
    ranks: u32,
    target: u64,
) -> (MultiRankSelector, MultiRankWorkload) {
    let phased = pick(rng, &PHASED_FAMILIES);
    // Accesses per 8-byte element of one rank's copy.
    let per_element = phased_workload_by_name(phased, ByteSize::from_kib(1))
        .expect("registered phased family")
        .total_accesses()
        / 128;
    let bytes = target * 8 / (u64::from(ranks) * per_element);
    let size = ByteSize::from_bytes((bytes / 256).max(1) * 256);
    let rank: PhasedWorkload =
        phased_workload_by_name(phased, size).expect("registered phased family");
    (
        MultiRankSelector::Replicated {
            workload: phased.to_string(),
            array_size: size,
            ranks,
        },
        MultiRankWorkload::replicated(rank, ranks),
    )
}

fn paper_grid(seed: u64, quick: bool) -> Vec<Scenario> {
    let config = ExperimentConfig::default();
    let mut out = if quick {
        Vec::new()
    } else {
        committed(Workload::PaperGrid)
    };
    let apps = all_apps();
    let apps = if quick { &apps[..1] } else { &apps[..] };
    for spec in apps {
        let budgets: &[ByteSize] = if quick {
            &config.budgets_for(spec)[..1]
        } else {
            config.budgets_for(spec)
        };
        let share = config.fcfs_share(spec);
        let scenario = |approach: PlacementApproach, budget: ByteSize| {
            let s = Scenario::app(spec.name, approach, budget).with_seed(seed);
            if quick {
                s.with_iterations(2)
            } else {
                s
            }
        };
        // The order of `run_app_experiment`: DDR reference, strategies ×
        // budgets, online × budgets, then the profiling-free baselines.
        out.push(scenario(PlacementApproach::DdrOnly, share));
        for strategy in &config.strategies {
            for budget in budgets {
                out.push(scenario(PlacementApproach::framework(*strategy), *budget));
            }
        }
        for budget in budgets {
            out.push(scenario(PlacementApproach::Online, *budget));
        }
        out.push(scenario(PlacementApproach::NumactlPreferred, share));
        out.push(scenario(PlacementApproach::autohbw_1m(), share));
        out.push(scenario(PlacementApproach::CacheMode, ByteSize::ZERO));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_are_seeded_and_hold_the_committed_scenarios() {
        for w in Workload::ALL {
            let a = w.scenarios(DEFAULT_SEED, false);
            assert_eq!(a, w.scenarios(DEFAULT_SEED, false), "{}", w.name());
            assert_ne!(a, w.scenarios(HELD_OUT_SEED, false), "{}", w.name());
            for s in &a {
                s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            }
            if w != Workload::PhasedDdr {
                let head = &a[..w.warmup_len(false)];
                assert_eq!(head, committed(w).as_slice(), "{}", w.name());
            }
        }
    }
}
