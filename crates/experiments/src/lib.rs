//! # rap-experiments
//!
//! The experiment harness: regenerates every figure in the paper's
//! evaluation (Section V) on the synthetic Dublin/Seattle substrates, plus
//! the ablations documented in DESIGN.md.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig10` | Fig. 10 — Dublin, impact of the utility function |
//! | `fig11` | Fig. 11 — Dublin, impact of shop location and `D` |
//! | `fig12` | Fig. 12 — Seattle, general scenario |
//! | `fig13` | Fig. 13 — Seattle, Manhattan-grid scenario |
//! | `ablation` | E7 — greedy-objective and two-stage structure ablations |
//! | `sensitivity` | robustness sweeps: alpha, demand, gps noise, flexibility |
//! | `robustness` | failure-model validation, correlated outages |
//! | `drift` | online maintenance vs oracle re-greedy under streamed traffic drift |
//! | `all` | everything above, writing JSON into `results/` |
//!
//! Trials default to 200 per data point (the paper uses 1,000); set
//! `RAP_TRIALS` to change, e.g. `RAP_TRIALS=1000 cargo run --release -p
//! rap-experiments --bin fig10`.

pub mod ablation;
pub mod complexity;
pub mod drift_run;
pub mod figures;
pub mod general;
pub mod manhattan_run;
pub mod robustness_run;
pub mod sensitivity;
pub mod series;

pub use ablation::ablation;
pub use complexity::complexity;
pub use drift_run::drift;
pub use figures::{fig10, fig11, fig12, fig13, save_results, Settings};
pub use general::{run_general, GeneralRun};
pub use manhattan_run::{run_manhattan, ManhattanRun};
pub use robustness_run::robustness;
pub use sensitivity::sensitivity;
pub use series::{Figure, Panel, Series, SeriesPoint};
