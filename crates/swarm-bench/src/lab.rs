//! swarm-lab job registry for the reproduction suite: every experiment
//! id wrapped as a typed [`JobSpec`] with a cost hint, an
//! inner-parallelism hint and its declared artifacts, so the `repro`
//! binary can hand the whole suite to the orchestrator.

use crate::output::Report;
use crate::run_experiment;
use swarm_lab::{JobOutput, JobSpec};

/// Quick-mode cost hints per experiment, in wall seconds. Only relative
/// magnitude matters: the scheduler dispatches longest-first, so the
/// expensive figure-6 sweeps and the measurement-study experiments
/// start immediately instead of stretching the tail of the run. The
/// hints fix the suite's dispatch order; they are not current timings.
fn quick_cost(id: &str) -> f64 {
    match id {
        "fig6a" => 1.6,
        "fig6b" => 1.4,
        "ablation-bias" => 1.2,
        "fig1" => 1.1,
        "ablation-selection" | "fig5" | "fig6c" => 0.7,
        "ablation-threshold" => 0.35,
        "fig4" => 0.2,
        "table-books" | "fig3" | "ablation-trace" | "ablation-service" => 0.1,
        _ => 0.05,
    }
}

/// Experiments whose implementation replicates runs across worker
/// threads (via `swarm_stats::parallel`); everything else is a
/// single-threaded closed-form evaluation.
fn is_replicated(id: &str) -> bool {
    matches!(
        id,
        "fig1"
            | "table-books"
            | "table-friends"
            | "fig4"
            | "fig5"
            | "fig6a"
            | "fig6b"
            | "fig6c"
            | "ablation-baseline"
            | "ablation-service"
            | "ablation-trace"
            | "ablation-selection"
            | "ablation-bias"
    )
}

/// Build the job for one experiment id; `None` for unknown ids.
pub fn job_spec(id: &str, quick: bool) -> Option<JobSpec> {
    if !crate::EXPERIMENTS.contains(&id) {
        return None;
    }
    let cores = swarm_stats::parallel::cores();
    let id_owned = id.to_string();
    // Full-fidelity runs replicate more and simulate longer; a uniform
    // scale factor preserves the quick-mode ordering.
    let cost = quick_cost(id) * if quick { 1.0 } else { 5.0 };
    Some(
        JobSpec::new(id, format!("reproduction experiment {id}"), move || {
            let report = run_experiment(&id_owned, quick).expect("registered experiment id");
            report_output(&report)
        })
        .cost_hint(cost)
        .threads_hint(if is_replicated(id) { cores } else { 1 })
        .artifacts(Report::artifact_names(id)),
    )
}

/// Build jobs for a list of ids; `Err` carries the first unknown id.
pub fn job_specs<'a>(
    ids: impl IntoIterator<Item = &'a str>,
    quick: bool,
) -> Result<Vec<JobSpec>, String> {
    ids.into_iter()
        .map(|id| job_spec(id, quick).ok_or_else(|| id.to_string()))
        .collect()
}

/// Convert a finished [`Report`] into the orchestrator's self-contained
/// output form.
pub fn report_output(report: &Report) -> JobOutput {
    let mut out = JobOutput::text_only(report.text.clone());
    for (name, contents) in report.artifacts() {
        out = out.with_artifact(name, contents);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENTS;

    #[test]
    fn every_experiment_has_a_job_spec() {
        for id in EXPERIMENTS {
            let spec = job_spec(id, true).unwrap_or_else(|| panic!("{id} must have a job"));
            assert_eq!(spec.id, *id);
            assert!(spec.cost_hint > 0.0);
            assert!(spec.threads_hint >= 1);
            assert_eq!(spec.artifacts, Report::artifact_names(id));
        }
        assert!(job_spec("nonexistent", true).is_none());
    }

    #[test]
    fn job_output_matches_direct_run() {
        // The job closure must produce exactly what the experiment
        // renders — declared names included.
        let spec = job_spec("table-bm", true).expect("registered");
        let out = spec.execute();
        let direct = run_experiment("table-bm", true).expect("runs");
        assert_eq!(out.text, direct.text);
        let names: Vec<&str> = out.artifacts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["table-bm.txt", "table-bm.json"]);
    }

    #[test]
    fn unknown_ids_are_rejected_in_bulk() {
        let err = job_specs(["fig2", "bogus"], true).expect_err("bogus must fail");
        assert_eq!(err, "bogus");
    }
}
