//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! * **Greedy objective** — Algorithm 2's composite two-candidate objective
//!   against its parts and relatives: Algorithm 1's uncovered-only objective,
//!   the naive total-marginal greedy of Section III-C, the CELF-lazy
//!   variant, and the inverted delta-propagation engine (the latter two
//!   produce output identical to the marginal greedy, only cheaper).
//! * **Two-stage structure** — Algorithms 3/4's fixed corner stage against a
//!   fully adaptive grid greedy under both utilities, quantifying what the
//!   `1 − 4/k` structural guarantee costs in practice.

use crate::figures::Settings;
use crate::general::{run_general, GeneralRun};
use crate::manhattan_run::{run_manhattan, ManhattanRun};
use crate::series::Figure;
use rap_core::{
    CompositeGreedy, GreedyCoverage, InvertedGainEngine, LazyGreedy, MarginalGreedy, UtilityKind,
};
use rap_graph::Distance;
use rap_manhattan::gen::BoundaryFlowParams;
use rap_manhattan::{GridGreedy, ModifiedTwoStage, TwoStage};
use rap_traffic::Zone;

/// Runs both ablations and returns the combined figure.
pub fn ablation(settings: &Settings) -> Figure {
    let city = crate::figures::dublin_city(settings);
    let mut panels = Vec::new();

    // Panel 1: greedy objective ablation on Dublin, linear utility.
    let cfg = GeneralRun {
        utility: UtilityKind::Linear,
        threshold: Distance::from_feet(20_000),
        shop_zone: Zone::City,
        ks: GeneralRun::default_ks(),
        trials: settings.trials,
        seed: settings.seed,
    };
    panels.push(run_general(
        &city,
        &cfg,
        "greedy objectives: composite vs uncovered-only vs marginal vs lazy \
         vs inverted (Dublin, linear, D = 20,000 ft)"
            .into(),
        &[
            &CompositeGreedy,
            &GreedyCoverage,
            &MarginalGreedy,
            &LazyGreedy,
            &InvertedGainEngine,
        ],
    ));

    // Panel 2: the same under the fast-decaying sqrt utility, where overlaps
    // matter most.
    let cfg_sqrt = GeneralRun {
        utility: UtilityKind::Sqrt,
        ..cfg.clone()
    };
    panels.push(run_general(
        &city,
        &cfg_sqrt,
        "greedy objectives under the sqrt utility (Dublin, D = 20,000 ft)".into(),
        &[
            &CompositeGreedy,
            &GreedyCoverage,
            &MarginalGreedy,
            &LazyGreedy,
            &InvertedGainEngine,
        ],
    ));

    // Panels 3-4: two-stage structure vs adaptive grid greedy.
    for utility in [UtilityKind::Threshold, UtilityKind::Linear] {
        let cfg = ManhattanRun {
            utility,
            threshold: Distance::from_feet(2_500),
            grid_nodes_per_side: 41,
            grid_spacing: Distance::from_feet(250),
            flow_params: BoundaryFlowParams {
                flows: 80,
                min_volume: 200.0,
                max_volume: 1_000.0,
                attractiveness: rap_traffic::flow::DEFAULT_ATTRACTIVENESS,
                straight_fraction: 0.3,
            },
            ks: GeneralRun::default_ks(),
            trials: settings.trials,
            seed: settings.seed,
        };
        panels.push(run_manhattan(
            &cfg,
            format!("two-stage vs adaptive greedy ({utility} utility, D = 2,500 ft)"),
            &[&TwoStage, &ModifiedTwoStage, &GridGreedy],
        ));
    }

    Figure {
        name: "ablation".into(),
        caption: "design-choice ablations: greedy objectives and two-stage structure".into(),
        panels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_lazy_matches_marginal() {
        let settings = Settings {
            trials: 3,
            seed: 2015,
        };
        let f = ablation(&settings);
        assert_eq!(f.panels.len(), 4);
        // CELF and the inverted delta-propagation engine must agree with the
        // plain marginal greedy on every point.
        for panel in &f.panels[..2] {
            let marginal = panel.series_named("marginal greedy").unwrap();
            let lazy = panel.series_named("lazy greedy (CELF)").unwrap();
            let inverted = panel
                .series_named("inverted delta-propagation greedy")
                .unwrap();
            for (a, b) in marginal.points.iter().zip(lazy.points.iter()) {
                assert!((a.customers - b.customers).abs() < 1e-9);
            }
            for (a, b) in marginal.points.iter().zip(inverted.points.iter()) {
                assert!(
                    (a.customers - b.customers).abs() < 1e-9,
                    "inverted diverged from marginal at k = {}",
                    a.k
                );
            }
        }
    }
}
