//! `grid-serve`: the read path, `rap serve` over a 60×60 / 3k snapshot.
//!
//! The snapshot (with a k = 10 Algorithm 2 placement) is loaded by
//! `ServeState::from_snapshot_file` and served by `rap_serve::serve` with
//! two workers. Load comes from this process on at most two keep-alive
//! connections: first a closed loop (capacity), then an open loop at a
//! fixed rate, timed from each request's due time. The mix is 80%
//! `/evaluate` (a seeded random placement, k in 5..=20) and 20% `/topk`
//! (k in {5, 10, 20}). Once a second the generator atomically rewrites the
//! snapshot file, alternating between the base scenario and a drifted one,
//! and sends `/reload`. Routing and detour building do not run here.

use crate::report::{median, percentile, Metric};
use crate::trace::Tracer;
use crate::{grid_scenario, sleep_until, Opts, Pass, Size, THREADS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rap_core::{
    decode_snapshot_with_threads, encode_snapshot, read_snapshot_file, verify_snapshot,
    write_snapshot_atomic, CompositeGreedy, FaultPlan, InvertedGainEngine, InvertedIndex,
    Placement, PlacementAlgorithm, PlacementReport, Scenario,
};
use rap_graph::NodeId;
use rap_serve::{serve, Client, ServeState, ServerConfig, ServerHandle};
use rap_stream::{StreamDelta, SyntheticDrift};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// RAPs in the snapshot's recorded placement.
const K: usize = 10;
/// `/topk` budgets.
const TOPK_KS: [usize; 3] = [5, 10, 20];
/// Drift deltas between the base and the drifted snapshot.
const DRIFT_DELTAS: usize = 300;
/// Pre-generated request bodies, cycled.
const POOL: usize = 4_096;
/// Set-up samples per pass.
const SETUP_SAMPLES: usize = 9;
/// Share of the budget spent on the closed loop; the open loop gets the
/// rest.
const CLOSED_SHARE: f64 = 0.5;
/// Requests per window of the closed loop's windowed p99.
const P99_WINDOW: usize = 2_000;
/// Closed-loop replies reserved per connection (above what a 2-core host
/// answers in a 60 s budget).
const REPLY_CAPACITY: usize = 1 << 19;

/// Open-loop rate in requests per second (well below the closed-loop
/// capacity of two connections, so the backlog stays empty unless a
/// stall or a reload holds it up).
/// Also returns the open-loop slots between reloads (one a second at full
/// size; the toy run reloads faster so its short open loop sees reloads).
fn nominal_rate(size: Size) -> (f64, usize) {
    match size {
        Size::Full => (1_000.0, 1_000),
        Size::Toy => (200.0, 20),
    }
}

#[derive(Clone, Debug)]
enum Op {
    Evaluate(Vec<u32>),
    Topk(usize),
}

impl Op {
    fn body(&self) -> String {
        match self {
            Op::Evaluate(raps) => {
                let list: Vec<String> = raps.iter().map(u32::to_string).collect();
                format!("{{\"raps\": [{}]}}", list.join(", "))
            }
            Op::Topk(k) => format!("{{\"k\": {k}}}"),
        }
    }
}

/// One answered (or failed) request.
#[derive(Debug)]
struct Reply {
    op: usize,
    open_loop: bool,
    /// `None` when the request failed at the transport level.
    status: Option<u16>,
    epoch: u64,
    /// [`ids_hash`] of the returned placement (kept small so the replies
    /// held for checking barely move the peak RSS).
    raps: u64,
    objective: f64,
    gain_evals: f64,
    delta_pushes: f64,
    start: Instant,
    end: Instant,
    /// Latency in ms: from the due time (open loop) or the send (closed).
    latency_ms: f64,
    late_ms: f64,
}

/// A reload the generator performed.
#[derive(Debug)]
struct Reload {
    /// 1-based reload number; reload `j` loads content `j % 2`.
    number: usize,
    status: Option<u16>,
    epoch: u64,
    write: (Instant, Instant),
    request: (Instant, Instant),
}

/// The offline answer for one snapshot content.
struct Reference {
    bytes: Vec<u8>,
    scenario: Arc<Scenario>,
    index: InvertedIndex,
    /// Per `/topk` budget: placement, objective bits, gain evaluations
    /// and delta pushes.
    topk: Vec<(usize, Vec<u32>, u64, u64, u64)>,
}

fn reference(bytes: Vec<u8>) -> Result<Reference, String> {
    let mut decoded = decode_snapshot_with_threads(&bytes, THREADS)
        .map_err(|e| format!("snapshot decode failed: {e}"))?
        .scenario;
    let scenario = decoded.snapshot();
    let index = InvertedIndex::build_with_threads(&scenario, THREADS);
    let topk = TOPK_KS
        .iter()
        .map(|&k| {
            let (p, report) = InvertedGainEngine.place_with_index(&scenario, &index, k);
            let raps = p.raps().iter().map(|r| r.raw()).collect();
            let bits = scenario.evaluate(&p).to_bits();
            (k, raps, bits, report.gain_evals, report.delta_pushes)
        })
        .collect();
    Ok(Reference {
        bytes,
        scenario,
        index,
        topk,
    })
}

fn parse_reply(resp: &rap_serve::ClientResponse) -> (u64, Vec<u32>, f64, f64, f64) {
    let body = &resp.body;
    let num = |key: &str| body[key].as_f64().unwrap_or(f64::NAN);
    let mut raps = Vec::new();
    let mut i = 0;
    while let Some(v) = body["raps"].get_index(i) {
        raps.push(v.as_f64().unwrap_or(-1.0) as u32);
        i += 1;
    }
    (
        num("epoch") as u64,
        raps,
        num("objective"),
        num("gain_evals"),
        num("delta_pushes"),
    )
}

fn send(client: &mut Client, op: &Op) -> (Option<u16>, u64, u64, f64, f64, f64) {
    let path = match op {
        Op::Evaluate(_) => "/evaluate",
        Op::Topk(_) => "/topk",
    };
    match client.post(path, &op.body()) {
        Ok(resp) => {
            let (epoch, raps, objective, evals, pushes) = parse_reply(&resp);
            (
                Some(resp.status),
                epoch,
                ids_hash(&raps),
                objective,
                evals,
                pushes,
            )
        }
        Err(_) => (None, 0, 0, f64::NAN, 0.0, 0.0),
    }
}

/// FNV-1a over a list of intersection ids.
fn ids_hash(ids: &[u32]) -> u64 {
    ids.iter().fold(0xcbf2_9ce4_8422_2325, |h, &id| {
        id.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn start_server(path: &Path) -> Result<ServerHandle, String> {
    let state = ServeState::from_snapshot_file(path, THREADS)
        .map_err(|e| format!("snapshot load failed: {e}"))?;
    let config = ServerConfig {
        workers: THREADS,
        ..ServerConfig::default()
    };
    let handle =
        serve(Arc::new(state), "127.0.0.1:0", config).map_err(|e| format!("bind failed: {e}"))?;
    let mut client = Client::new(handle.addr()).with_timeout(Duration::from_secs(5));
    let start = Instant::now();
    loop {
        if matches!(client.get("/healthz"), Ok(r) if r.status == 200) {
            return Ok(handle);
        }
        if start.elapsed() > Duration::from_secs(10) {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs set-up, the closed loop and the open loop in `seconds`.
///
/// # Errors
///
/// Scenario construction, snapshot I/O, or a server that never comes up.
pub fn run(opts: &Opts, seconds: f64, dir: &Path, tr: &mut Tracer) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let path = dir.join("serve.snap");

    // Inputs, untimed: the base snapshot and a drifted one, both with an
    // Algorithm 2 placement, and their offline answers.
    let shape = match opts.size {
        Size::Full => (60, 3_000, 2_500),
        Size::Toy => (20, 400, 2_500),
    };
    let mut scenario = grid_scenario(shape)?;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let base_placement = CompositeGreedy.place(&scenario.snapshot(), K, &mut rng);
    let base = encode_snapshot(&scenario, Some(&base_placement), 0, &[])
        .map_err(|e| format!("snapshot encode failed: {e}"))?;
    let drift = SyntheticDrift::new(
        scenario.graph().node_count() as u32,
        scenario.live_stable_ids(),
        scenario.next_stable_id(),
        DRIFT_DELTAS,
        opts.seed ^ 0xd41f7,
    );
    for delta in drift {
        if let StreamDelta::Flow(d) = delta {
            scenario
                .apply(&d)
                .map_err(|e| format!("drift delta rejected: {e}"))?;
        }
    }
    let drift_placement = CompositeGreedy.place(&scenario.snapshot(), K, &mut rng);
    let drifted = encode_snapshot(&scenario, Some(&drift_placement), 0, &[])
        .map_err(|e| format!("snapshot encode failed: {e}"))?;
    let refs = [reference(base)?, reference(drifted)?];
    write_snapshot_atomic(&path, &refs[0].bytes, &FaultPlan::none())
        .map_err(|e| format!("snapshot write failed: {e}"))?;
    let candidates: Vec<u32> = refs[0]
        .scenario
        .candidates()
        .iter()
        .map(|n| n.raw())
        .collect();
    let pool: Vec<Op> = (0..POOL)
        .map(|_| {
            if rng.random_range(0.0..1.0) < 0.8 {
                let k = rng.random_range(5..=20usize).min(candidates.len());
                let mut raps = Vec::with_capacity(k);
                while raps.len() < k {
                    let v = candidates[rng.random_range(0..candidates.len())];
                    if !raps.contains(&v) {
                        raps.push(v);
                    }
                }
                Op::Evaluate(raps)
            } else {
                Op::Topk(TOPK_KS[rng.random_range(0..TOPK_KS.len())])
            }
        })
        .collect();

    // Set-up: snapshot file to the first /healthz 200, several times.
    let mut handle = None;
    for sample in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let span = tr.enter("serve.setup", sample as u64);
        let h = start_server(&path)?;
        tr.exit(span);
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = handle.replace(h) {
            ServerHandle::shutdown(old);
        }
    }
    let handle = handle.expect("at least one set-up sample");
    let addr = handle.addr();
    let measure_start = Instant::now();

    // Closed loop: each connection sends its next request when the last
    // one is answered.
    let closed_s = seconds * CLOSED_SHARE;
    let closed_end = Instant::now() + Duration::from_secs_f64(closed_s);
    let closed_start = Instant::now();
    let conns = THREADS;
    let mut replies: Vec<Reply> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|t| {
                let pool = &pool;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    // Reserved up front: a growing Vec's copies would put
                    // steps into the peak RSS.
                    let mut out = Vec::with_capacity(REPLY_CAPACITY);
                    let mut i = t;
                    while Instant::now() < closed_end || out.is_empty() {
                        let op = i % POOL;
                        let start = Instant::now();
                        let (status, epoch, raps, objective, evals, pushes) =
                            send(&mut client, &pool[op]);
                        let end = Instant::now();
                        out.push(Reply {
                            op,
                            open_loop: false,
                            status,
                            epoch,
                            raps,
                            objective,
                            gain_evals: evals,
                            delta_pushes: pushes,
                            start,
                            end,
                            latency_ms: (end - start).as_secs_f64() * 1e3,
                            late_ms: 0.0,
                        });
                        i += conns;
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    let closed_elapsed = closed_start.elapsed().as_secs_f64();
    let closed_count = replies.len();

    // Open loop: request i is due at t0 + i / rate whatever happened
    // before; one slot a second is a snapshot rewrite + /reload.
    let (rate, reload_every) = nominal_rate(opts.size);
    let open_s = (seconds - closed_s).max(1.0 / rate);
    let total_ops = ((open_s * rate) as usize).max(1);
    let next = AtomicUsize::new(0);
    let reloads = Mutex::new(Vec::<Reload>::new());
    let t0 = Instant::now() + Duration::from_millis(5);
    let open: Vec<Reply> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (pool, next, reloads, refs, path) = (&pool, &next, &reloads, &refs, &path);
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut out = Vec::with_capacity(total_ops);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= total_ops {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        sleep_until(due);
                        let start = Instant::now();
                        if i % reload_every == reload_every / 2 {
                            // The lock keeps reload numbers in the order the
                            // server applies them, so epoch e serves
                            // content (e - 1) % 2.
                            let mut log = reloads.lock().expect("reload log poisoned");
                            let number = log.len() + 1;
                            let w0 = Instant::now();
                            let wrote = write_snapshot_atomic(
                                path,
                                &refs[number % 2].bytes,
                                &FaultPlan::none(),
                            );
                            let w1 = Instant::now();
                            let resp = client.post("/reload", "{}");
                            let r1 = Instant::now();
                            let (status, epoch) = match (wrote, resp) {
                                (Ok(()), Ok(r)) => (Some(r.status), parse_reply(&r).0),
                                _ => (None, 0),
                            };
                            log.push(Reload {
                                number,
                                status,
                                epoch,
                                write: (w0, w1),
                                request: (w1, r1),
                            });
                            continue;
                        }
                        let op = i % POOL;
                        let (status, epoch, raps, objective, evals, pushes) =
                            send(&mut client, &pool[op]);
                        let end = Instant::now();
                        out.push(Reply {
                            op,
                            open_loop: true,
                            status,
                            epoch,
                            raps,
                            objective,
                            gain_evals: evals,
                            delta_pushes: pushes,
                            start,
                            end,
                            latency_ms: (end - due).as_secs_f64() * 1e3,
                            late_ms: (start - due).as_secs_f64() * 1e3,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop client panicked"))
            .collect()
    });
    let measured_ms = measure_start.elapsed().as_secs_f64() * 1e3;
    replies.extend(open);
    let reloads = reloads.into_inner().expect("reload log poisoned");

    // Server-side counters, then shutdown.
    let metrics = Client::new(addr)
        .get("/metrics")
        .map_err(|e| format!("/metrics failed: {e}"))?
        .body;
    handle.shutdown();

    // Checks: every answer equals the offline result for its epoch.
    for reply in &replies {
        pass.ops += 1;
        if reply.status != Some(200) {
            pass.op_failures += 1;
            continue;
        }
        let Some(content) = reply.epoch.checked_sub(1).map(|e| (e % 2) as usize) else {
            pass.checks.check("serve.epoch_known", false);
            continue;
        };
        if !reply.open_loop {
            pass.checks.check("serve.epoch_known", reply.epoch == 1);
        }
        let r = &refs[content];
        match &pool[reply.op] {
            Op::Evaluate(raps) => {
                let placement = Placement::new(raps.iter().copied().map(NodeId::new).collect());
                let expected = tr.time("core.evaluate", reply.op as u64, || {
                    PlacementReport::compute(&r.scenario, &placement).attracted
                });
                pass.checks.check(
                    "serve.evaluate_bits",
                    reply.raps == ids_hash(raps) && reply.objective.to_bits() == expected.to_bits(),
                );
            }
            Op::Topk(k) => {
                if tr.is_on() {
                    tr.time("core.topk", reply.op as u64, || {
                        InvertedGainEngine.place_with_index(&r.scenario, &r.index, *k)
                    });
                }
                let (_, raps, bits, evals, pushes) =
                    r.topk.iter().find(|t| t.0 == *k).expect("k listed");
                pass.checks.check(
                    "serve.topk_bits",
                    reply.raps == ids_hash(raps)
                        && reply.objective.to_bits() == *bits
                        && reply.gain_evals == *evals as f64
                        && reply.delta_pushes == *pushes as f64,
                );
            }
        }
    }
    for reload in &reloads {
        pass.ops += 1;
        if reload.status != Some(200) {
            pass.op_failures += 1;
        }
        pass.checks.check(
            "serve.reload_epoch",
            reload.epoch == reload.number as u64 + 1,
        );
        if tr.is_on() {
            // The reload's layers, re-run on the same file content: read,
            // verify, decode, index build.
            let id = reload.number as u64;
            tr.record("core.snapshot_write", id, reload.write.0, reload.write.1);
            let bytes = &refs[reload.number % 2].bytes;
            let _ = tr.time("core.snapshot_read", id, || {
                read_snapshot_file(&path, &FaultPlan::none())
            });
            let _ = tr.time("core.snapshot_verify", id, || verify_snapshot(bytes));
            if let Ok(mut contents) = tr.time("core.snapshot_decode", id, || {
                decode_snapshot_with_threads(bytes, THREADS)
            }) {
                let snap = contents.scenario.snapshot();
                tr.time("core.index_build", id, || {
                    InvertedIndex::build_with_threads(&snap, THREADS)
                });
            }
        }
    }

    // Metrics.
    let of_kind = |topk: bool| -> Vec<f64> {
        replies
            .iter()
            .filter(|r| r.open_loop && r.status == Some(200))
            .filter(|r| matches!(pool[r.op], Op::Topk(_)) == topk)
            .map(|r| r.latency_ms)
            .collect()
    };
    let (eval_lat, topk_lat) = (of_kind(false), of_kind(true));
    let reload_ms: Vec<f64> = reloads
        .iter()
        .map(|r| (r.request.1 - r.request.0).as_secs_f64() * 1e3)
        .collect();
    let or_zero = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };
    // The gated latencies are the closed loop's: the open loop's tail
    // swings with every reload and host stall (see README.md).
    pass.op_ms = replies[..closed_count]
        .iter()
        .map(|r| r.latency_ms)
        .collect();
    pass.p99_window = P99_WINDOW;
    pass.ops_per_s = closed_count as f64 / closed_elapsed;
    pass.wall_ms = measured_ms + pass.setup_s.iter().sum::<f64>() * 1e3;
    let closed_mean = replies[..closed_count]
        .iter()
        .map(|r| r.latency_ms)
        .sum::<f64>()
        / closed_count as f64;
    pass.cost_ms = closed_mean;
    pass.named = vec![
        Metric::new("evaluate_p50_ms", "ms", or_zero(&eval_lat, 0.5)),
        Metric::new("evaluate_p99_ms", "ms", or_zero(&eval_lat, 0.99)),
        Metric::new("topk_p50_ms", "ms", or_zero(&topk_lat, 0.5)),
        Metric::new("topk_p99_ms", "ms", or_zero(&topk_lat, 0.99)),
        Metric::new("serve_closed_rps", "1/s", pass.ops_per_s),
        Metric::new(
            "reload_p50_ms",
            "ms",
            if reload_ms.is_empty() {
                0.0
            } else {
                median(&reload_ms)
            },
        ),
    ];

    // Per-layer values from the server's own counters.
    let stat = |endpoint: &str, key: &str| metrics[endpoint][key].as_f64().unwrap_or(0.0);
    let handler_mean = {
        let (ce, ct) = (stat("evaluate", "count"), stat("topk", "count"));
        if ce + ct > 0.0 {
            (stat("evaluate", "mean_us") * ce + stat("topk", "mean_us") * ct) / (ce + ct)
        } else {
            0.0
        }
    };
    let late: Vec<f64> = replies
        .iter()
        .filter(|r| r.open_loop)
        .map(|r| r.late_ms)
        .collect();
    pass.layer = vec![
        Metric::new(
            "serve.handler_us.evaluate",
            "us",
            stat("evaluate", "mean_us"),
        ),
        Metric::new("serve.handler_us.topk", "us", stat("topk", "mean_us")),
        Metric::new("serve.handler_us.reload", "us", stat("reload", "mean_us")),
        Metric::new(
            "serve.overhead_us",
            "us",
            (closed_mean * 1e3 - handler_mean).max(0.0),
        ),
        Metric::new("serve.gen_late_ms", "ms", or_zero(&late, 0.99)),
        Metric::new(
            "serve.respawns",
            "count",
            metrics["worker_respawns"].as_f64().unwrap_or(0.0),
        ),
        Metric::new(
            "serve.errors_4xx",
            "count",
            metrics["errors_4xx"].as_f64().unwrap_or(0.0),
        ),
        Metric::new(
            "serve.errors_5xx",
            "count",
            metrics["errors_5xx"].as_f64().unwrap_or(0.0),
        ),
    ];
    for reply in &replies {
        tr.record("serve.request", reply.op as u64, reply.start, reply.end);
    }
    // Deterministic: one /topk per budget on the base snapshot.
    let base_topk = &refs[0].topk;
    pass.count(
        "core.topk_gain_evals",
        base_topk.iter().map(|t| t.3 as f64).sum(),
    );
    pass.count(
        "core.topk_delta_pushes",
        base_topk.iter().map(|t| t.4 as f64).sum(),
    );
    pass.count("core.snapshot_bytes", refs[0].bytes.len() as f64);
    pass.count("serve.reloads", reloads.len() as f64);
    Ok(pass)
}
