//! `grid-stream`: the write path, `rap stream --resume` over the
//! `bench_stream` grid (20×20 intersections, 400 flows, `D` = 5,000 ft).
//!
//! Set-up is `prepare_resume` → `Maintainer::resume` from a base snapshot
//! plus a seeded WAL tail, both prepared untimed; the tail's replay follows
//! as its own layer. Then `SyntheticDrift` deltas go through the serving
//! loop's calls in its order: `Durability::record` →
//! `MutableScenario::apply` → `Maintainer::note_delta` (k = 10, two
//! threads) → `Durability::committed`, with WAL fsync every 64 items and
//! snapshot rotation every 2000. A closed loop, in cycles that each resume
//! afresh, gives throughput and per-delta service times; an open loop at a
//! fixed rate below capacity gives per-delta latency from each delta's due
//! time, the staleness a stalled maintainer imposes. A seeded `LazyGreedy`
//! oracle runs at checkpoints with the clocks paused, and every repair and
//! re-solve of the first cycle and of the open loop is held to the
//! maintainer's contract, also with the clocks paused. At the end the
//! stream "crashes" (the journal is dropped without a clean finish) and a
//! fresh resume must reach the same placement and epoch.

use crate::report::{percentile, Metric};
use crate::trace::Tracer;
use crate::{grid_scenario, sleep_until, Checks, Opts, Pass, Size, THREADS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rap_core::{
    encode_snapshot, singleton_upper_bound, write_snapshot_atomic, FaultPlan, FsyncPolicy,
    LazyGreedy, MutableScenario, PlacementAlgorithm, Scenario,
};
use rap_stream::{
    encode_resume_extra, prepare_resume, Durability, DurabilityConfig, Journal, MaintainAction,
    Maintainer, MaintainerConfig, ResumePoint, StreamDelta, StreamProgress, SyntheticDrift,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// RAPs the maintainer serves.
const K: usize = 10;
/// Maintainer staleness threshold (`rap stream --threshold`; the default is
/// 0.05). At 0.05 a cycle holds few, large repairs and the closed-loop rate
/// varied by 34% (IQR / median) across drift seeds; at 0.02 they are more
/// frequent and smaller and it varied by about 13%.
const STALENESS_THRESHOLD: f64 = 0.02;
/// WAL fsync cadence.
const FSYNC_N: u64 = 64;
/// Snapshot rotation cadence, in journaled items.
const SNAPSHOT_EVERY: u64 = 2_000;
/// Deltas in the WAL after the base snapshot; set-up replays them.
const WAL_TAIL: usize = 200;
/// Set-up samples taken before the closed loop (each cycle adds one).
const SETUP_SAMPLES: usize = 15;
/// Oracle checkpoint cadence, in deltas.
const ORACLE_EVERY: u64 = 1_000;
/// Open-loop rate, deltas per second: about a quarter of the closed-loop
/// capacity on a 2-core host.
const RATE: f64 = 1_000.0;
/// Deltas per window of the closed loop's windowed p99.
const P99_WINDOW: usize = 2_000;
/// Length of the synthetic source (consumed lazily; never exhausted).
const SOURCE_LEN: usize = 100_000_000;

/// `(side, flows, D)`: `bench_stream`'s grid at both sizes (it is small).
fn grid(size: Size) -> (u32, usize, u64) {
    match size {
        Size::Full | Size::Toy => (20, 400, 5_000),
    }
}

/// The live stream: scenario, maintainer, journal and progress counters.
struct Live {
    scenario: MutableScenario,
    maintainer: Maintainer,
    journal: Durability,
    progress: StreamProgress,
}

impl Live {
    /// One item through the serving loop, in `run_stream_with`'s order.
    /// Returns what the maintainer did (`None` for a forced compaction).
    fn step(
        &mut self,
        delta: StreamDelta,
        id: u64,
        tr: &mut Tracer,
    ) -> Result<MaintainAction, String> {
        let t0 = Instant::now();
        self.journal
            .record(&self.scenario, &delta)
            .map_err(|e| format!("WAL append failed: {e}"))?;
        let t1 = Instant::now();
        let mut action = MaintainAction::None;
        match delta {
            StreamDelta::Compact => {
                tr.time("core.apply", id, || self.scenario.compact());
                self.progress.forced_compactions += 1;
            }
            StreamDelta::Flow(d) => {
                tr.time("core.apply", id, || self.scenario.apply(&d))
                    .map_err(|e| format!("drift delta rejected: {e}"))?;
                self.progress.applied += 1;
                let m0 = Instant::now();
                action = self.maintainer.note_delta(&mut self.scenario);
                let name = match action {
                    MaintainAction::None => None,
                    MaintainAction::Checked { .. } => Some("stream.check"),
                    MaintainAction::Repaired { .. } => Some("stream.repair"),
                    MaintainAction::Resolved { .. } => Some("stream.resolve"),
                };
                if let Some(name) = name {
                    tr.record(name, id, m0, Instant::now());
                }
            }
        }
        let t2 = Instant::now();
        self.journal
            .committed(&self.scenario, &self.maintainer, &self.progress)
            .map_err(|e| format!("journal commit failed: {e}"))?;
        if tr.is_on() {
            // One span for the journal's two calls, which bracket the
            // apply: as long as both together took.
            tr.record("stream.journal", id, t2 - (t1 - t0), Instant::now());
        }
        Ok(action)
    }
}

/// Resumes from what is on disk and replays the WAL tail; returns the live
/// stream and how many source items it has consumed.
fn resume(
    dcfg: &DurabilityConfig,
    mcfg: &MaintainerConfig,
    tr: &mut Tracer,
) -> Result<(Live, u64), String> {
    let (mut live, tail, consumed) = resume_only(dcfg, mcfg, tr)?;
    replay(&mut live, tail, tr)?;
    Ok((live, consumed))
}

/// Replays the WAL tail through the serving loop (the journal skips
/// re-appending it).
fn replay(live: &mut Live, tail: Vec<StreamDelta>, tr: &mut Tracer) -> Result<(), String> {
    let span = tr.enter("core.wal_replay", 0);
    for delta in tail {
        live.step(delta, 0, tr)?;
    }
    tr.exit(span);
    Ok(())
}

/// `prepare_resume` + `Maintainer::resume`: the stream can take items from
/// here on. Returns the WAL tail still to replay and the source position.
fn resume_only(
    dcfg: &DurabilityConfig,
    mcfg: &MaintainerConfig,
    tr: &mut Tracer,
) -> Result<(Live, Vec<StreamDelta>, u64), String> {
    let point = tr
        .time("core.snapshot_decode", 0, || {
            prepare_resume(dcfg.clone(), THREADS)
        })
        .map_err(|e| format!("prepare_resume failed: {e}"))?;
    let ResumePoint::Snapshot(setup) = point else {
        return Err("prepare_resume found no snapshot to resume from".into());
    };
    let setup = *setup;
    let r = setup.resume;
    let live = Live {
        scenario: setup.scenario,
        maintainer: Maintainer::resume(mcfg.clone(), r.placement, r.maintainer),
        journal: setup.durability,
        progress: StreamProgress {
            applied: r.applied,
            rejected: r.rejected,
            forced_compactions: r.forced_compactions,
        },
    };
    Ok((live, setup.replay, setup.consumed))
}

/// Writes the base snapshot (source position 0, as a rotation writes it)
/// and journals the WAL tail after it.
fn prepare(
    scenario: MutableScenario,
    source: impl Iterator<Item = StreamDelta>,
    dcfg: &DurabilityConfig,
    mcfg: &MaintainerConfig,
) -> Result<(), String> {
    let mut scenario = scenario;
    let maintainer = Maintainer::new(mcfg.clone(), &mut scenario)
        .map_err(|e| format!("initial solve failed: {e}"))?;
    let journal =
        Durability::start(dcfg.clone()).map_err(|e| format!("journal start failed: {e}"))?;
    let progress = StreamProgress::default();
    let extra = encode_resume_extra(&maintainer.state(), &progress);
    let bytes = encode_snapshot(&scenario, Some(maintainer.placement()), 0, &extra)
        .map_err(|e| format!("snapshot encode failed: {e}"))?;
    let path = dcfg.snapshot.as_deref().expect("rotation configured");
    write_snapshot_atomic(path, &bytes, &FaultPlan::none())
        .map_err(|e| format!("snapshot write failed: {e}"))?;
    let mut live = Live {
        scenario,
        maintainer,
        journal,
        progress,
    };
    let mut off = Tracer::new(false);
    for delta in source.take(WAL_TAIL) {
        live.step(delta, 0, &mut off)?;
    }
    Ok(())
}

/// Runs set-up, the closed loop and the open loop in `seconds`.
///
/// # Errors
///
/// Scenario construction, journal I/O, or a resume that finds nothing.
pub fn run(opts: &Opts, seconds: f64, dir: &Path, tr: &mut Tracer) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mcfg = MaintainerConfig {
        k: K,
        threads: THREADS,
        seed: opts.seed,
        staleness_threshold: STALENESS_THRESHOLD,
        ..MaintainerConfig::default()
    };
    let mut dcfg = DurabilityConfig::wal_only(dir.join("stream.wal"))
        .with_snapshot(dir.join("stream.snap"), SNAPSHOT_EVERY);
    dcfg.fsync = FsyncPolicy::EveryN(FSYNC_N);

    // Inputs, untimed: the grid, a base snapshot and a seeded WAL tail.
    let scenario = grid_scenario(grid(opts.size))?;
    let (nodes, live0, next0) = (
        scenario.graph().node_count() as u32,
        scenario.live_stable_ids(),
        scenario.next_stable_id(),
    );
    let source =
        || SyntheticDrift::new(nodes, live0.clone(), next0, SOURCE_LEN, opts.seed ^ 0x57e4);
    prepare(scenario, source(), &dcfg, &mcfg)?;
    let wal_bytes = std::fs::metadata(&dcfg.wal).map_or(0, |m| m.len());

    let base = (
        std::fs::read(dcfg.snapshot.as_deref().expect("rotation configured")),
        std::fs::read(&dcfg.wal),
    );
    let (Ok(base_snap), Ok(base_wal)) = base else {
        return Err("cannot read back the prepared snapshot and WAL".into());
    };
    let restore = || -> Result<(), String> {
        std::fs::write(
            dcfg.snapshot.as_deref().expect("rotation configured"),
            &base_snap,
        )
        .and_then(|()| std::fs::write(&dcfg.wal, &base_wal))
        .map_err(|e| format!("cannot restore the prepared files: {e}"))
    };

    // Set-up samples beyond the cycles' own: restore, resume, drop.
    for _ in 0..SETUP_SAMPLES {
        restore()?;
        let t0 = Instant::now();
        let span = tr.enter("stream.setup", 0);
        resume_only(&dcfg, &mcfg, tr)?;
        tr.exit(span);
        pass.setup_s.push(t0.elapsed().as_secs_f64());
    }

    // Closed loop, in cycles: restore the prepared files, resume (a set-up
    // sample), then stream a cycle of deltas back to back. Every cycle
    // starts from the same files, so the stream never grows past one
    // cycle's length.
    // The open loop streams a fixed number of deltas, so where its oracle
    // checkpoints fall (and `gap_max_pct`) depends only on the seed; the
    // closed loop gets the rest of the budget.
    let open_deltas = match opts.size {
        Size::Full => 6_000,
        Size::Toy => 150,
    };
    let closed_s = (seconds - open_deltas as f64 / RATE).max(0.0);
    let mut busy = Duration::ZERO;
    let mut step_ms: Vec<f64> = Vec::with_capacity(1 << 20);
    let mut cycles = 0u64;
    let mut gaps: Vec<f64> = Vec::new();
    let mut counted = None;
    let started = Instant::now();
    while cycles == 0 || started.elapsed().as_secs_f64() < closed_s {
        restore()?;
        let t0 = Instant::now();
        let span = tr.enter("stream.setup", 0);
        let (mut live, tail, consumed) = resume_only(&dcfg, &mcfg, tr)?;
        tr.exit(span);
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        replay(&mut live, tail, tr)?;
        let first_cycle = cycles == 0;
        let (stats0, compactions0) = (live.maintainer.stats(), live.scenario.compactions());
        // Each cycle draws its own drift from the resumed state, so a run's
        // rate covers several drift sequences, not one.
        let drift = SyntheticDrift::new(
            nodes,
            live.scenario.live_stable_ids(),
            live.scenario.next_stable_id(),
            cycle(opts.size),
            opts.seed ^ 0x57e4 ^ ((cycles + 1) << 32),
        );
        for (i, delta) in drift.enumerate() {
            let t0 = Instant::now();
            let action = live.step(delta, consumed + i as u64, tr)?;
            let dt = t0.elapsed();
            busy += dt;
            step_ms.push(dt.as_secs_f64() * 1e3);
            if first_cycle {
                verify_intervention(&mut live, action, opts.seed, &mut pass.checks);
                if (i as u64 + 1).is_multiple_of(ORACLE_EVERY) {
                    gaps.push(oracle_gap(&mut live, opts.seed));
                }
            }
        }
        if first_cycle {
            let stats = live.maintainer.stats();
            counted = Some((
                stats.checks - stats0.checks,
                stats.repairs - stats0.repairs,
                stats.resolves - stats0.resolves,
                live.scenario.compactions() - compactions0,
            ));
        }
        cycles += 1;
    }

    // Open loop, from a fresh resume: delta i is due at t0 + i / RATE;
    // verification and oracle pauses shift the schedule.
    let closed_wall = started.elapsed();
    restore()?;
    let (mut live, consumed) = resume(&dcfg, &mcfg, &mut Tracer::new(false))?;
    let total: u64 = open_deltas;
    let mut items = source().skip(consumed as usize);
    let mut t0 = Instant::now() + Duration::from_millis(5);
    let mut open_ms = Vec::with_capacity(total as usize);
    let open_start = Instant::now();
    for i in 0..total {
        let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
        sleep_until(due);
        let delta = items.next().ok_or("synthetic source ran dry")?;
        let action = live.step(delta, consumed + i, tr)?;
        open_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let p0 = Instant::now();
        let mut paused = verify_intervention(&mut live, action, opts.seed, &mut pass.checks);
        if (i + 1) % ORACLE_EVERY == 0 {
            gaps.push(oracle_gap(&mut live, opts.seed));
            paused = true;
        }
        if paused {
            t0 += p0.elapsed();
        }
    }
    let open_wall = open_start.elapsed();
    gaps.push(oracle_gap(&mut live, opts.seed));

    // Crash and resume: the journal is dropped without a clean finish.
    let (placement, epoch) = (live.maintainer.placement().clone(), live.scenario.epoch());
    let journaled = total;
    drop(live);
    let ok = match resume(&dcfg, &mcfg, &mut Tracer::new(false)) {
        Ok((resumed, _)) => {
            resumed.maintainer.placement() == &placement && resumed.scenario.epoch() == epoch
        }
        Err(_) => false,
    };
    pass.checks.check("stream.resume_matches", ok);

    let busy_s = busy.as_secs_f64();
    let gap_max = gaps.iter().copied().fold(f64::MIN, f64::max);
    pass.ops = step_ms.len() as u64 + total;
    // Pooled over every cycle's deltas: the maintainer's cost is a few
    // large repairs and re-solves, so one cycle's rate depends on its drift
    // sequence, and pooling averages over more drift than a median of a
    // run's three or four cycle rates.
    pass.ops_per_s = step_ms.len() as f64 / busy_s;
    pass.cost_ms = busy_s * 1e3 / step_ms.len() as f64;
    // Both loops end to end, oracle pauses and file restores included: the
    // spans do not cover those, so they show in `unattributed_ms`.
    pass.wall_ms = (closed_wall + open_wall).as_secs_f64() * 1e3;
    pass.named = vec![
        Metric::new("deltas_per_s", "1/s", pass.ops_per_s),
        Metric::new("delta_p99_ms", "ms", percentile(&open_ms, 0.99)),
        Metric::new("gap_max_pct", "%", gap_max),
    ];
    pass.op_ms = step_ms;
    pass.p99_window = P99_WINDOW;
    let (checks, repairs, resolves, compactions) = counted.expect("at least one cycle");
    pass.count("stream.check_count", checks as f64);
    pass.count("stream.repair_count", repairs as f64);
    pass.count("stream.resolve_count", resolves as f64);
    pass.count("core.compactions", compactions as f64);
    pass.count("core.wal_bytes", wal_bytes as f64);
    pass.layer = vec![
        Metric::new(
            "stream.intervention_rate",
            "ratio",
            if checks > 0 {
                (repairs + resolves) as f64 / checks as f64
            } else {
                0.0
            },
        ),
        Metric::new("stream.gap_max_pct", "%", gap_max),
        Metric::new(
            "stream.rotations",
            "count",
            (journaled / SNAPSHOT_EVERY) as f64,
        ),
    ];
    Ok(pass)
}

/// Deltas per closed-loop cycle.
fn cycle(size: Size) -> usize {
    match size {
        Size::Full => 5_000,
        Size::Toy => 500,
    }
}

/// Objective of a seeded `LazyGreedy` re-solve of `snap`: the oracle.
fn oracle(snap: &Scenario, seed: u64) -> f64 {
    snap.evaluate(&LazyGreedy.place(snap, K, &mut StdRng::seed_from_u64(seed)))
}

/// Shortfall of the maintained objective against the oracle, in percent
/// (negative when the maintained placement beats the greedy).
fn oracle_gap(live: &mut Live, seed: u64) -> f64 {
    let snap = live.scenario.snapshot();
    let maintained = snap.evaluate(live.maintainer.placement());
    let best = oracle(&snap, seed);
    if best > 0.0 {
        (1.0 - maintained / best) * 100.0
    } else {
        0.0
    }
}

/// Holds a repair or re-solve to the maintainer's contract, on the
/// snapshot it ran on: the objective it reports is its placement's value
/// bit for bit; the adopted placement's certified fraction (value over
/// `singleton_upper_bound`) is within the staleness threshold of the
/// baseline; and a re-solve adopts at least the oracle's value, because it
/// keeps the better of its greedy and the repair. Returns whether a check
/// ran (the caller pauses its clocks for it).
fn verify_intervention(
    live: &mut Live,
    action: MaintainAction,
    seed: u64,
    checks: &mut Checks,
) -> bool {
    let (objective, resolved) = match action {
        MaintainAction::Repaired { objective, .. } => (objective, false),
        MaintainAction::Resolved { objective, .. } => (objective, true),
        MaintainAction::None | MaintainAction::Checked { .. } => return false,
    };
    let snap = live.scenario.snapshot();
    let value = snap.evaluate(live.maintainer.placement());
    checks.check(
        "stream.objective_bits",
        value.to_bits() == objective.to_bits(),
    );
    let ub = singleton_upper_bound(&snap, K);
    let baseline = live.maintainer.baseline_certified();
    let staleness = if ub > 0.0 && baseline > 0.0 {
        1.0 - value / ub / baseline
    } else {
        0.0
    };
    checks.check(
        "stream.staleness_within_threshold",
        staleness <= STALENESS_THRESHOLD,
    );
    if resolved {
        checks.check("stream.resolve_vs_oracle", value >= oracle(&snap, seed));
    }
    true
}
