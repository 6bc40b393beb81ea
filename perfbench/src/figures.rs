//! `paper-figures`: regenerate Figs. 10–13 at one fixed trial count.
//!
//! This covers the Dublin and Seattle trace models (`rap-trace`),
//! Algorithms 1 and 2 with the baselines on the general scenario, and
//! Algorithms 3 and 4 on the Manhattan grid (`rap-manhattan`). Routing and
//! detour building run on small graphs here, where fixed costs dominate.
//!
//! The untraced pass calls `rap_experiments::fig10` … `fig13`. Those run
//! their trials on worker threads with no hook for spans, so the traced
//! pass runs the same per-trial public calls on the same threads, in the
//! same order, with spans around them; its series must hash to the same
//! digest as the untraced figures, which a check enforces.

use crate::report::Metric;
use crate::trace::Tracer;
use crate::{deadline, Opts, Pass, Size};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_core::{
    CompositeGreedy, GreedyCoverage, MaxCardinality, MaxCustomers, MaxVehicles, Placement,
    PlacementAlgorithm, Random, Scenario, UtilityKind,
};
use rap_experiments::figures::{dublin_city, seattle_city};
use rap_experiments::{fig10, fig11, fig12, fig13, Figure, GeneralRun, ManhattanRun, Settings};
use rap_graph::Distance;
use rap_manhattan::gen::BoundaryFlowParams;
use rap_manhattan::{
    GridMaxCardinality, GridMaxCustomers, GridMaxVehicles, GridRandom, ManhattanAlgorithm,
    ModifiedTwoStage, TwoStage,
};
use rap_trace::CityModel;
use rap_traffic::Zone;
use std::time::Instant;

/// Set-up samples per pass (each takes tens of milliseconds).
const SETUP_SAMPLES: usize = 15;

/// Trials averaged per data point.
pub fn trials(size: Size) -> usize {
    match size {
        Size::Full => 16,
        Size::Toy => 2,
    }
}

/// Digests recorded for the benchmark's trial count, one `size seed digest`
/// line each.
const RECORDED: &str = include_str!("../digests.txt");

/// The digest recorded for `seed` at `size`, if any.
pub fn recorded_digest(size: Size, seed: u64) -> Option<u64> {
    let tag = match size {
        Size::Full => "full",
        Size::Toy => "toy",
    };
    RECORDED.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (s, sd, d) = (parts.next()?, parts.next()?, parts.next()?);
        (s == tag && sd.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// FNV-1a over every series label, `k` and customers bit pattern.
fn digest<'a>(points: impl Iterator<Item = (&'a str, usize, f64)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (label, k, customers) in points {
        eat(label.as_bytes());
        eat(&(k as u64).to_le_bytes());
        eat(&customers.to_bits().to_le_bytes());
    }
    h
}

fn figures_digest(figures: &[Figure]) -> u64 {
    digest(figures.iter().flat_map(|f| {
        f.panels.iter().flat_map(|p| {
            p.series.iter().flat_map(|s| {
                s.points
                    .iter()
                    .map(move |pt| (s.label.as_str(), pt.k, pt.customers))
            })
        })
    }))
}

/// Runs set-up (trace-model generation) and regenerates the figures until
/// `seconds` have passed (at least once).
///
/// # Errors
///
/// None today; the signature matches the other workloads.
pub fn run(opts: &Opts, seconds: f64, tr: &mut Tracer) -> Result<Pass, String> {
    let settings = Settings {
        trials: trials(opts.size),
        seed: opts.seed,
    };
    let mut pass = Pass::default();
    for sample in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        tr.time("trace.city", sample as u64, || {
            (dublin_city(&settings), seattle_city(&settings))
        });
        pass.setup_s.push(t0.elapsed().as_secs_f64());
    }

    // The first regeneration warms caches and is checked but not timed.
    let end = deadline(seconds);
    let mut runs_s = Vec::new();
    let mut first = None;
    let expected = recorded_digest(opts.size, opts.seed);
    let mut warm = Tracer::new(false);
    while runs_s.is_empty() || Instant::now() < end {
        let id = runs_s.len() as u64;
        let tr = if first.is_none() { &mut warm } else { &mut *tr };
        let t0 = Instant::now();
        let got = if tr.is_on() {
            traced_figures(&settings, id, tr)
        } else {
            let figures = [
                fig10(&settings),
                fig11(&settings),
                fig12(&settings),
                fig13(&settings),
            ];
            figures_digest(&figures)
        };
        if first.is_some() {
            runs_s.push(t0.elapsed().as_secs_f64());
        }
        let reference = *first.get_or_insert(got);
        pass.checks
            .check("figures.digest_repeats", got == reference);
        if let Some(expected) = expected {
            pass.checks
                .check("figures.digest_recorded", got == expected);
        }
    }
    println!(
        "figures digest: {} {} {:016x}",
        match opts.size {
            Size::Full => "full",
            Size::Toy => "toy",
        },
        opts.seed,
        first.expect("one run")
    );
    pass.ops = runs_s.len() as u64;
    pass.wall_ms = (runs_s.iter().sum::<f64>() + pass.setup_s.iter().sum::<f64>()) * 1e3;
    pass.cost_ms = runs_s.iter().sum::<f64>() * 1e3 / runs_s.len() as f64;
    // At the median regeneration time, as for `metro-plan`.
    pass.ops_per_s = 1.0 / crate::report::median(&runs_s);
    pass.op_ms = runs_s.iter().map(|s| s * 1e3).collect();
    pass.named = vec![Metric::new(
        "figures_s",
        "s",
        crate::report::median(&runs_s),
    )];
    Ok(pass)
}

// ---------------------------------------------------------------------------
// The traced pass: Figs. 10–13 rebuilt from their per-trial public calls.

/// The Algorithm 1/2 + baselines set `rap_experiments` compares.
fn general_algorithms(utility: UtilityKind) -> Vec<&'static (dyn PlacementAlgorithm + Sync)> {
    static GREEDY: GreedyCoverage = GreedyCoverage;
    static COMPOSITE: CompositeGreedy = CompositeGreedy;
    let main: &'static (dyn PlacementAlgorithm + Sync) = match utility {
        UtilityKind::Threshold => &GREEDY,
        UtilityKind::Linear | UtilityKind::Sqrt => &COMPOSITE,
    };
    vec![main, &MaxCardinality, &MaxVehicles, &MaxCustomers, &Random]
}

/// The Algorithm 3/4 + grid baselines set.
fn manhattan_algorithms(utility: UtilityKind) -> Vec<&'static (dyn ManhattanAlgorithm + Sync)> {
    let main: &'static (dyn ManhattanAlgorithm + Sync) = match utility {
        UtilityKind::Threshold => &TwoStage,
        UtilityKind::Linear | UtilityKind::Sqrt => &ModifiedTwoStage,
    };
    vec![
        main,
        &GridMaxCardinality,
        &GridMaxVehicles,
        &GridMaxCustomers,
        &GridRandom,
    ]
}

/// `(label, k, mean customers)` for every point of one panel.
type PanelPoints = Vec<(String, usize, f64)>;

/// Splits `trials` over the same worker threads `rap_experiments` uses,
/// runs `trial` on each, and sums the per-worker partials in worker order.
fn fan_out<F>(trials: usize, algs: usize, ks: usize, tr: &mut Tracer, trial: F) -> Vec<Vec<f64>>
where
    F: Fn(usize, &mut Vec<Vec<f64>>, &mut Tracer) + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials);
    let chunk = trials.div_ceil(threads);
    let partials: Vec<(Vec<Vec<f64>>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let mut local = tr.fork();
                let trial = &trial;
                s.spawn(move || {
                    let mut sums = vec![vec![0.0f64; ks]; algs];
                    let (lo, hi) = (worker * chunk, ((worker + 1) * chunk).min(trials));
                    for t in lo..hi {
                        trial(t, &mut sums, &mut local);
                    }
                    (sums, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial worker panicked"))
            .collect()
    });
    let mut total = vec![vec![0.0f64; ks]; algs];
    for (a, row) in total.iter_mut().enumerate() {
        for (i, cell) in row.iter_mut().enumerate() {
            *cell = partials.iter().map(|(p, _)| p[a][i]).sum();
        }
    }
    for (_, local) in partials {
        tr.absorb(local);
    }
    total
}

fn general_panel(city: &CityModel, cfg: &GeneralRun, tr: &mut Tracer) -> PanelPoints {
    let algorithms = general_algorithms(cfg.utility);
    let shops = city.shop_candidates(cfg.shop_zone);
    let k_max = *cfg.ks.iter().max().expect("ks non-empty");
    let sums = fan_out(
        cfg.trials,
        algorithms.len(),
        cfg.ks.len(),
        tr,
        |trial, sums, tr| {
            let id = trial as u64;
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(trial as u64));
            let shop = shops[rng.random_range(0..shops.len())];
            let scenario = tr.time("core.detour", id, || {
                Scenario::single_shop(
                    city.graph().clone(),
                    city.flows().clone(),
                    shop,
                    cfg.utility.instantiate(cfg.threshold),
                )
                .expect("city model scenarios are valid")
            });
            for (a, alg) in algorithms.iter().enumerate() {
                let placement = tr.time("core.solve", id, || alg.place(&scenario, k_max, &mut rng));
                for (i, &k) in cfg.ks.iter().enumerate() {
                    let take = k.min(placement.len());
                    let prefix = Placement::new(placement.raps()[..take].to_vec());
                    sums[a][i] += tr.time("core.evaluate", id, || scenario.evaluate(&prefix));
                }
            }
        },
    );
    points(
        &sums,
        cfg.trials,
        &cfg.ks,
        algorithms.iter().map(|a| a.name()),
    )
}

fn manhattan_panel(cfg: &ManhattanRun, tr: &mut Tracer) -> PanelPoints {
    let algorithms = manhattan_algorithms(cfg.utility);
    let k_max = *cfg.ks.iter().max().expect("ks non-empty");
    let sums = fan_out(
        cfg.trials,
        algorithms.len(),
        cfg.ks.len(),
        tr,
        |trial, sums, tr| {
            let id = trial as u64;
            let scenario = tr.time("manhattan.scenario", id, || cfg.scenario(trial));
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1_000_003 * trial as u64));
            for (a, alg) in algorithms.iter().enumerate() {
                if alg.incremental() {
                    let placement = tr.time("manhattan.solve", id, || {
                        alg.place(&scenario, k_max, &mut rng)
                    });
                    for (i, &k) in cfg.ks.iter().enumerate() {
                        let take = k.min(placement.len());
                        let prefix = Placement::new(placement.raps()[..take].to_vec());
                        sums[a][i] +=
                            tr.time("manhattan.evaluate", id, || scenario.evaluate(&prefix));
                    }
                } else {
                    for (i, &k) in cfg.ks.iter().enumerate() {
                        let placement =
                            tr.time("manhattan.solve", id, || alg.place(&scenario, k, &mut rng));
                        sums[a][i] +=
                            tr.time("manhattan.evaluate", id, || scenario.evaluate(&placement));
                    }
                }
            }
        },
    );
    points(
        &sums,
        cfg.trials,
        &cfg.ks,
        algorithms.iter().map(|a| a.name()),
    )
}

fn points<'a>(
    sums: &[Vec<f64>],
    trials: usize,
    ks: &[usize],
    labels: impl Iterator<Item = &'a str>,
) -> PanelPoints {
    labels
        .zip(sums)
        .flat_map(|(label, row)| {
            ks.iter()
                .zip(row)
                .map(move |(&k, &sum)| (label.to_string(), k, sum / trials as f64))
        })
        .collect()
}

/// Figs. 10–13 with the panel settings of `rap_experiments::figures`, traced;
/// returns the series digest.
fn traced_figures(settings: &Settings, id: u64, tr: &mut Tracer) -> u64 {
    let general = |utility, feet: u64, zone| GeneralRun {
        utility,
        threshold: Distance::from_feet(feet),
        shop_zone: zone,
        ks: GeneralRun::default_ks(),
        trials: settings.trials,
        seed: settings.seed,
    };
    let mut panels: Vec<PanelPoints> = Vec::new();
    let fig = tr.enter("figures.fig10", id);
    let city = tr.time("trace.city", id, || dublin_city(settings));
    for utility in UtilityKind::ALL {
        panels.push(general_panel(
            &city,
            &general(utility, 20_000, Zone::City),
            tr,
        ));
    }
    tr.exit(fig);
    let fig = tr.enter("figures.fig11", id);
    let city = tr.time("trace.city", id, || dublin_city(settings));
    for zone in [Zone::CityCenter, Zone::City, Zone::Suburb] {
        for feet in [20_000u64, 10_000] {
            panels.push(general_panel(
                &city,
                &general(UtilityKind::Linear, feet, zone),
                tr,
            ));
        }
    }
    tr.exit(fig);
    let fig = tr.enter("figures.fig12", id);
    let city = tr.time("trace.city", id, || seattle_city(settings));
    for utility in [UtilityKind::Threshold, UtilityKind::Linear] {
        for feet in [2_500u64, 1_000] {
            panels.push(general_panel(
                &city,
                &general(utility, feet, Zone::City),
                tr,
            ));
        }
    }
    tr.exit(fig);
    let fig = tr.enter("figures.fig13", id);
    for utility in [UtilityKind::Threshold, UtilityKind::Linear] {
        for feet in [2_500u64, 1_000] {
            let cfg = ManhattanRun {
                utility,
                threshold: Distance::from_feet(feet),
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
            panels.push(manhattan_panel(&cfg, tr));
        }
    }
    tr.exit(fig);
    digest(
        panels
            .iter()
            .flat_map(|p| p.iter().map(|(l, k, c)| (l.as_str(), *k, *c))),
    )
}
