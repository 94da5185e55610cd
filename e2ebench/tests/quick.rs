//! Quick mode of every workload: tiny scenarios, one pass, every output
//! check on, untraced and traced.

use hmem_e2ebench::{run, Args, Workload};

fn quick(workload: Workload, trace: bool) -> hmem_e2ebench::Report {
    run(&Args {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        quick: true,
    })
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        let r = quick(w, false);
        assert!(r.correct, "{}: {:?}", w.name(), r.errors);
        assert_eq!(r.failed, 0, "{}", w.name());
        assert!(r.attempted > 0, "{}", w.name());
        for name in [
            "setup_s",
            "scenarios_per_s",
            "scenario_ms_p50",
            "scenario_ms_p90",
            "sim_maccess_per_s",
            "peak_mem_mib",
        ] {
            let v = r
                .metric(name)
                .unwrap_or_else(|| panic!("{}: no {name}", w.name()));
            assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", w.name());
        }
        assert!(r.json().starts_with("{\"correct\": true, "), "{}", r.json());
    }
}

#[test]
fn every_traced_workload_mirrors_the_untraced_run() {
    for w in Workload::ALL {
        let r = quick(w, true);
        assert!(r.correct, "{}: {:?}", w.name(), r.errors);
        let coverage = r.metric("trace.layer_coverage").expect("coverage reported");
        assert!(coverage >= 0.9, "{}: layers cover {coverage}", w.name());
        assert!(
            r.metric("setup_s").is_none(),
            "traced runs report layers only"
        );
    }
}

#[test]
fn the_simulated_statistics_digest_repeats_across_runs() {
    for w in Workload::ALL {
        let untraced = quick(w, false);
        let traced = quick(w, true);
        let line = |r: &hmem_e2ebench::Report| {
            r.notes
                .iter()
                .find(|l| l.starts_with("sim.digest") && l.ends_with("first pass)"))
                .cloned()
                .expect("digest line")
        };
        assert_eq!(line(&untraced), line(&traced), "{}", w.name());
    }
}

#[test]
fn the_command_line_is_checked() {
    let parse = |args: &[&str]| Args::parse(args.iter().map(|a| a.to_string()));
    let a = parse(&[
        "--workload",
        "paper-grid",
        "--seed",
        "3",
        "--seconds",
        "20",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(a.workload, Workload::PaperGrid);
    assert_eq!(
        (a.seed, a.seconds, a.trace, a.quick),
        (3, 20.0, true, false)
    );
    assert!(parse(&["--workload", "nope"]).is_err());
    assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
    assert!(parse(&["--workload", "phased-ddr", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "phased-ddr", "--seconds", "-1"]).is_err());
    assert!(parse(&["--workload"]).is_err());
}

/// `BENCHMARK.json` at the repository root names the same workloads, reasons
/// and metrics the program reports.
#[test]
fn benchmark_json_matches_the_program() {
    use hmsim_common::json::{parse_json, Json};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<Json> {
        match doc.get(key) {
            Some(Json::Array(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        }
    };
    let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads = list("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (item, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(field(item, "name"), w.name());
        assert_eq!(field(item, "why"), w.why());
    }
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let declared: Vec<(String, String)> = list(key)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        for w in Workload::ALL {
            let reported: Vec<(String, String)> = quick(w, trace)
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(reported, declared, "{key} of {}", w.name());
        }
    }
}
