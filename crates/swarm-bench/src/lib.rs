//! Reproduction harness: one module per table/figure of the paper, plus
//! ablations. The `repro` binary dispatches on experiment id; each
//! experiment returns a [`output::Report`] with rendered text and JSON.
//!
//! | id | paper artifact |
//! |----|----------------|
//! | `fig1` | Figure 1 — CDF of seed availability |
//! | `table-bundling` | §2.3.1 — extent of bundling |
//! | `table-books` | §2.3.2 — books vs collections |
//! | `table-friends` | §2.3.2 — the "Friends" case study |
//! | `fig2` | Figure 2 — busy/idle timeline |
//! | `fig3` | Figure 3 — E\[T\] vs K over publisher scarcity |
//! | `fig4` | Figure 4 — seedless swarms |
//! | `table-bm` | §4.2 — B(m) values |
//! | `fig5` | Figure 5 — arrival/departure timelines |
//! | `fig6a`..`fig6c` | Figure 6 — download time vs bundling strategy |
//! | `fig7` | Figure 7 — arrival patterns |
//! | `net-live` | E12 — sim-vs-live equivalence on the networked engine |
//! | `ablation-*` | A1–A6 from DESIGN.md |

pub mod ablations;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod lab;
pub mod net_live;
pub mod output;
pub mod tables;

use output::Report;

/// All experiment ids, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "fig1",
    "table-bundling",
    "table-books",
    "table-friends",
    "fig2",
    "fig3",
    "fig4",
    "table-bm",
    "fig5",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig7",
    "net-live",
    "ablation-threshold",
    "ablation-lingering",
    "ablation-zipf",
    "ablation-publisher",
    "ablation-baseline",
    "ablation-service",
    "ablation-trace",
    "ablation-selection",
    "ablation-bias",
    "ablation-mixed",
    "ablation-partition",
];

/// Run one experiment by id. `quick` trades precision for speed.
pub fn run_experiment(id: &str, quick: bool) -> Option<Report> {
    Some(match id {
        "fig1" => fig1::run(quick),
        "table-bundling" => tables::bundling_table(quick),
        "table-books" => tables::books_table(quick),
        "table-friends" => tables::friends_table(quick),
        "fig2" => fig2::run_fig(quick),
        "fig3" => fig3::run(quick),
        "fig4" => fig4::run(quick),
        "table-bm" => fig4::bm_table(quick),
        "fig5" => fig5::run(quick),
        "fig6a" => fig6::fig6a(quick),
        "fig6b" => fig6::fig6b(quick),
        "fig6c" => fig6::fig6c(quick),
        "fig7" => fig7::run(quick),
        "net-live" => net_live::run(),
        "ablation-threshold" => ablations::threshold_sensitivity(quick),
        "ablation-lingering" => ablations::lingering_ablation(quick),
        "ablation-zipf" => ablations::zipf_ablation(quick),
        "ablation-publisher" => ablations::publisher_ablation(quick),
        "ablation-baseline" => ablations::baseline_ablation(quick),
        "ablation-service" => ablations::service_ablation(quick),
        "ablation-trace" => ablations::trace_ablation(quick),
        "ablation-selection" => ablations::selection_ablation(quick),
        "ablation-bias" => ablations::bias_ablation(quick),
        "ablation-mixed" => ablations::mixed_ablation(quick),
        "ablation-partition" => ablations::partition_ablation(quick),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_dispatches() {
        // Only check dispatch resolution (not execution) for the heavy
        // ones; unknown ids must return None.
        assert!(run_experiment("nonexistent", true).is_none());
        for id in EXPERIMENTS {
            // run_experiment must resolve every id; actually running all
            // of them here would repeat the per-module tests, so just
            // check the cheap ones end-to-end.
            if ["fig2", "fig7", "table-bm", "ablation-zipf"].contains(id) {
                let r = run_experiment(id, true).expect("dispatch");
                assert_eq!(&r.id, id);
                assert!(!r.text.is_empty());
            }
        }
    }
}
