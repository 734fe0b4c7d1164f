//! `asymptotic`: honest sessions of all six families at paper-scale `n`,
//! one at a time on the calling thread (closed loop, `Sequential` backend,
//! untraced), built through the `mpca-core` constructors from inputs the
//! benchmark generates, and checked against outputs it computes itself.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mpca_core::{
    all_to_all, broadcast, local_mpc, mpc, tradeoff, unchecked, ExecutionPath, ProtocolKind,
    ProtocolParams,
};
use mpca_crypto::lwe::LweParams;
use mpca_encfunc::Functionality;
use mpca_engine::{ExecutionBackend, Sequential};
use mpca_net::{
    CommonRandomString, NoAdversary, PartyId, PartyLogic, PartyOutcome, SimConfig, Simulator,
};

use crate::layers::{self, Plane, A2A_LAMBDA};
use crate::out::{derive_seed, mean, median, quantile, splitmix, RunResult};
use crate::spans::{SpanRec, Tracer};
use crate::sys;

/// One grid point: family, `n`, `h`.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub kind: ProtocolKind,
    pub n: usize,
    pub h: usize,
}

const fn pt(kind: ProtocolKind, n: usize, h: usize) -> Point {
    Point { kind, n, h }
}

/// The all-to-all's `n`. It stops at 256: one honest session at
/// `n = 1024` takes about 34 s here, longer than a run.
pub const LONG_VIEW_N: usize = 256;

/// The grid of one round. `h = n/2` everywhere, plus one small-`h` point
/// for each `h`-sensitive family.
pub const POINTS: [Point; 9] = [
    pt(ProtocolKind::Theorem1Mpc, 1024, 512),
    pt(ProtocolKind::Theorem1Mpc, 256, 32),
    pt(ProtocolKind::Theorem2LocalMpc, 96, 48),
    pt(ProtocolKind::Theorem2LocalMpc, 64, 16),
    pt(ProtocolKind::Theorem4Tradeoff, 96, 48),
    pt(ProtocolKind::Theorem4Tradeoff, 64, 16),
    pt(ProtocolKind::Broadcast, 1024, 512),
    pt(ProtocolKind::SuccinctAllToAll, LONG_VIEW_N, LONG_VIEW_N / 2),
    pt(ProtocolKind::UncheckedSum, 1024, 512),
];

/// The warm-up point of each family: a quarter or less of the timed `n`,
/// through the same constructors and checks as the timed sessions.
const WARMUP: [Point; 6] = [
    pt(ProtocolKind::Theorem1Mpc, 128, 64),
    pt(ProtocolKind::Theorem2LocalMpc, 48, 24),
    pt(ProtocolKind::Theorem4Tradeoff, 48, 24),
    pt(ProtocolKind::Broadcast, 256, 128),
    pt(ProtocolKind::SuccinctAllToAll, 64, 32),
    pt(ProtocolKind::UncheckedSum, 256, 128),
];

/// Message and input length ℓ of the broadcast and all-to-all sessions.
pub const MESSAGE_BYTES: usize = 32;

/// What one session measured.
#[derive(Debug, Clone)]
pub struct Sample {
    pub point: usize,
    pub ok: bool,
    pub wall_s: f64,
    pub build_s: f64,
    pub run_s: f64,
    /// CPU time of the calling thread over the session.
    pub cpu_s: f64,
    pub bits: u64,
    pub messages: u64,
    pub rounds: usize,
    pub peak_inbox_bytes: u64,
    pub plane: Plane,
    /// Fingerprints counted on a recorded trace (counting runs).
    pub fingerprints: u64,
}

/// Tracing context of one session in the traced run.
pub struct Trace<'a> {
    pub tracer: &'a Tracer,
    pub parent: u64,
    pub session: u64,
}

/// The inputs of one session and the output every party must produce.
enum Job {
    Sum {
        inputs: Vec<Vec<u8>>,
        expected: Vec<u8>,
    },
    Broadcast {
        message: Vec<u8>,
    },
    AllToAll {
        inputs: Vec<Vec<u8>>,
        expected: all_to_all::View,
    },
    Unchecked {
        values: Vec<u64>,
        expected: Vec<u8>,
    },
}

fn make_job(p: Point, seed: u64) -> Job {
    let mut rng = seed;
    match p.kind {
        ProtocolKind::Theorem1Mpc
        | ProtocolKind::Theorem2LocalMpc
        | ProtocolKind::Theorem4Tradeoff => {
            let values: Vec<u16> = (0..p.n).map(|_| splitmix(&mut rng) as u16).collect();
            let sum = values.iter().fold(0u16, |a, v| a.wrapping_add(*v));
            Job::Sum {
                inputs: values.iter().map(|v| v.to_le_bytes().to_vec()).collect(),
                expected: sum.to_le_bytes().to_vec(),
            }
        }
        ProtocolKind::Broadcast => Job::Broadcast {
            message: (0..MESSAGE_BYTES)
                .map(|_| splitmix(&mut rng) as u8)
                .collect(),
        },
        ProtocolKind::SuccinctAllToAll => {
            let inputs: Vec<Vec<u8>> = (0..p.n)
                .map(|_| {
                    (0..MESSAGE_BYTES)
                        .map(|_| splitmix(&mut rng) as u8)
                        .collect()
                })
                .collect();
            let expected = inputs
                .iter()
                .enumerate()
                .map(|(i, v)| (PartyId(i), v.clone()))
                .collect();
            Job::AllToAll { inputs, expected }
        }
        ProtocolKind::UncheckedSum => {
            let values: Vec<u64> = (0..p.n).map(|_| splitmix(&mut rng)).collect();
            let sum = values.iter().fold(0u64, |a, v| a.wrapping_add(*v));
            Job::Unchecked {
                values,
                expected: sum.to_le_bytes().to_vec(),
            }
        }
    }
}

/// Builds, runs and checks one honest session. `tamper` flips the expected
/// output (the self-test); `record` records the trace to count frames.
fn session(
    index: usize,
    p: Point,
    seed: u64,
    label: &str,
    trace: Option<&Trace<'_>>,
    record: bool,
    tamper: bool,
) -> Sample {
    let mut job = make_job(p, seed);
    if tamper {
        match &mut job {
            Job::Sum { expected, .. } | Job::Unchecked { expected, .. } => expected[0] ^= 1,
            Job::Broadcast { .. } => {}
            Job::AllToAll { expected, .. } => {
                expected.insert(PartyId(0), vec![0xEE]);
            }
        }
    }
    let params = ProtocolParams::new(p.n, p.h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    });
    let crs = CommonRandomString::from_label(label.as_bytes());
    let sum = Functionality::Sum { input_bytes: 2 };
    let none: BTreeSet<PartyId> = BTreeSet::new();
    let mut s = match (&job, p.kind) {
        (Job::Sum { inputs, expected }, ProtocolKind::Theorem1Mpc) => drive(
            p,
            || {
                mpc::mpc_parties(
                    &params,
                    &sum,
                    ExecutionPath::Concrete,
                    inputs,
                    crs,
                    None,
                    &none,
                )
            },
            |o: &Vec<u8>| o == expected,
            trace,
            record,
        ),
        (Job::Sum { inputs, expected }, ProtocolKind::Theorem2LocalMpc) => drive(
            p,
            || local_mpc::local_mpc_parties(&params, &sum, inputs, crs, &none),
            |o: &Vec<u8>| o == expected,
            trace,
            record,
        ),
        (Job::Sum { inputs, expected }, _) => drive(
            p,
            || {
                tradeoff::tradeoff_parties(
                    &params,
                    &sum,
                    ExecutionPath::Concrete,
                    inputs,
                    crs,
                    None,
                    &none,
                )
            },
            |o: &Vec<u8>| o == expected,
            trace,
            record,
        ),
        (Job::Broadcast { message }, _) => {
            let expected = if tamper {
                vec![!message[0]]
            } else {
                message.clone()
            };
            drive(
                p,
                || broadcast::broadcast_parties(p.n, PartyId(0), message.clone(), &none),
                |o: &Vec<u8>| *o == expected,
                trace,
                record,
            )
        }
        (Job::AllToAll { inputs, expected }, _) => drive(
            p,
            || all_to_all::succinct_parties(inputs, A2A_LAMBDA, label.as_bytes(), &none),
            |o: &all_to_all::View| o == expected,
            trace,
            record,
        ),
        (Job::Unchecked { values, expected }, _) => drive(
            p,
            || unchecked::unchecked_sum_parties(values, &none),
            |o: &Vec<u8>| o == expected,
            trace,
            record,
        ),
    };
    s.point = index;
    s
}

fn drive<L>(
    p: Point,
    build: impl FnOnce() -> Vec<L>,
    check: impl Fn(&L::Output) -> bool,
    trace: Option<&Trace<'_>>,
    record: bool,
) -> Sample
where
    L: PartyLogic + Send,
    L::Output: Send,
{
    let plane_before = trace.map(|_| Plane::read());
    let c0 = sys::thread_cpu_s();
    let t0 = Instant::now();
    let parties = build();
    let t1 = Instant::now();
    let plane_built = trace.map(|_| Plane::read());
    let result = Simulator::new(
        p.n,
        parties,
        Box::new(NoAdversary::new()),
        SimConfig::default(),
    )
    .and_then(|mut sim| {
        if record {
            sim.record_trace();
        }
        Sequential.execute(sim)
    });
    let t2 = Instant::now();
    let cpu_s = sys::thread_cpu_s() - c0;
    let mut sample = Sample {
        point: 0,
        ok: false,
        wall_s: (t2 - t0).as_secs_f64(),
        build_s: (t1 - t0).as_secs_f64(),
        run_s: (t2 - t1).as_secs_f64(),
        cpu_s,
        bits: 0,
        messages: 0,
        rounds: 0,
        peak_inbox_bytes: 0,
        plane: Plane::default(),
        fingerprints: 0,
    };
    if let Some(t) = trace {
        let plane_after = Plane::read();
        let before = plane_before.expect("read when traced");
        let built = plane_built.expect("read when traced");
        sample.plane = plane_after.since(&before);
        let run_nested = plane_after.since(&built).nested_core_ns();
        let build_nested = built.since(&before).nested_core_ns();
        let session_id = t.tracer.id();
        t.tracer.push(SpanRec {
            id: session_id,
            parent: t.parent,
            name: &format!("bench.session.{}", p.kind.name()),
            start: t0,
            end: t2,
            session: t.session,
            share: 1.0,
            lane: 0,
            nested: Vec::new(),
        });
        for (name, start, end, nested) in [
            ("core.build", t0, t1, build_nested),
            ("net.run", t1, t2, run_nested),
        ] {
            t.tracer.push(SpanRec {
                id: t.tracer.id(),
                parent: session_id,
                name: &format!("{name}.{}", p.kind.name()),
                start,
                end,
                session: t.session,
                share: 1.0,
                lane: 0,
                nested,
            });
        }
    }
    if let Ok(r) = result {
        sample.bits = r.stats.total_bits();
        sample.messages = r.stats.total_messages();
        sample.rounds = r.rounds;
        sample.peak_inbox_bytes = r.peak_inbox_bytes;
        sample.ok = r.outcomes.len() == p.n
            && r.outcomes.values().all(|o| match o {
                PartyOutcome::Output(v) => check(v),
                PartyOutcome::Aborted(_) => false,
            });
        if let Some(log) = &r.trace {
            let tagged = mpca_trace::TaggedTrace::new(log, p.kind);
            sample.fingerprints = layers::fingerprints_in(&tagged);
        }
    }
    sample
}

/// The session's CRS label. It names the round, not the run's seed: the
/// committee draws (and with them the cost of a session) follow the CRS,
/// so every run draws the same sequence of committees, while the inputs
/// still follow the seed.
fn label(what: &str, round: usize, p: Point) -> String {
    format!(
        "perfbench-asym-{what}{round}-{}-n{}-h{}",
        p.kind.name(),
        p.n,
        p.h
    )
}

/// Set-up: the program state every run forces, then one checked warm-up
/// session per family.
pub fn setup(seed: u64, rep: usize) -> bool {
    layers::force_program_state();
    WARMUP.iter().enumerate().all(|(i, &p)| {
        let s = session(
            i,
            p,
            derive_seed(seed, &[0xA5, rep as u64, i as u64]),
            &label("warm", rep, p),
            None,
            false,
            false,
        );
        s.ok
    })
}

/// One round of the grid: every point once, with a fresh seed.
fn round(seed: u64, r: usize, trace: Option<(&Tracer, u64)>) -> Vec<Sample> {
    POINTS
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let t = trace.map(|(tracer, parent)| Trace {
                tracer,
                parent,
                session: (r * POINTS.len() + i) as u64 + 1,
            });
            session(
                i,
                p,
                derive_seed(seed, &[r as u64, i as u64]),
                &label("r", r, p),
                t.as_ref(),
                false,
                false,
            )
        })
        .collect()
}

/// Per family: the sum over its grid points of the median of `f`.
fn per_family(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> BTreeMap<ProtocolKind, f64> {
    let mut by_point: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_point.entry(s.point).or_default().push(f(s));
    }
    let mut out = BTreeMap::new();
    for (point, values) in by_point {
        *out.entry(POINTS[point].kind).or_insert(0.0) += median(&values);
    }
    out
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_s: &mut Vec<f64>,
    start: Instant,
) -> RunResult {
    let setup_ok = crate::first_setup(start, setup_s, || setup(seed, 0));
    let mut res = RunResult {
        correct: setup_ok,
        ..RunResult::default()
    };
    if traced {
        return run_traced(seed, seconds, res);
    }

    let cpu0 = sys::process_cpu_s();
    let loop_start = Instant::now();
    let mut samples = Vec::new();
    let mut r = 0;
    while r == 0 || loop_start.elapsed().as_secs_f64() < seconds {
        samples.extend(round(seed, r, None));
        r += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;

    res.attempted = samples.len() as u64;
    res.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let completed = samples.len() as f64;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s * 1e3).collect();
    res.metric("sessions_per_s", completed / loop_s, "1/s");
    res.metric("cpu_ms_per_session", cpu_s * 1e3 / completed, "ms");
    res.metric("latency_p50_ms", quantile(&walls, 0.5), "ms");
    res.metric("latency_p90_ms", quantile(&walls, 0.9), "ms");
    for (kind, ms) in per_family(&samples, |s| s.wall_s * 1e3) {
        res.metric(format!("wall_ms.{}", kind.name()), ms, "ms");
    }
    let bits: Vec<f64> = samples.iter().map(|s| s.bits as f64).collect();
    res.metric("bits_per_session", mean(&bits), "bits");
    res.detail("rounds", r.to_string());
    let per_point = |f: fn(&Sample) -> f64| {
        let cells: Vec<String> = (0..POINTS.len())
            .map(|i| {
                let v: Vec<f64> = samples.iter().filter(|s| s.point == i).map(f).collect();
                format!("{:.3}", median(&v))
            })
            .collect();
        format!("[{}]", cells.join(", "))
    };
    res.detail("point_wall_ms", per_point(|s| s.wall_s * 1e3));
    res.detail("point_cpu_ms", per_point(|s| s.cpu_s * 1e3));
    res.detail("points", points_json());
    res
}

fn points_json() -> String {
    let items: Vec<String> = POINTS
        .iter()
        .map(|p| format!("[\"{}\", {}, {}]", p.kind.name(), p.n, p.h))
        .collect();
    format!("[{}]", items.join(", "))
}

/// The traced run: untraced and traced rounds alternate (the metrics plane
/// and spans on for the traced ones only), then one trace-recording round
/// counts frames, then the crypto kernels are probed on the view lengths
/// the all-to-all sessions fingerprint.
fn run_traced(seed: u64, seconds: f64, mut res: RunResult) -> RunResult {
    let tracer = Tracer::new();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut samples = Vec::new();
    let loop_start = Instant::now();
    let mut r = 0;
    while r < 2 || loop_start.elapsed().as_secs_f64() < seconds {
        let traced = r % 2 == 1;
        mpca_metrics::set_enabled(traced);
        let t0 = Instant::now();
        let root = tracer.id();
        let round_samples = round(seed, r, traced.then_some((&tracer, root)));
        let t1 = Instant::now();
        if traced {
            tracer.push(SpanRec {
                id: root,
                parent: 0,
                name: "bench.round",
                start: t0,
                end: t1,
                session: 0,
                share: 1.0,
                lane: 0,
                nested: Vec::new(),
            });
            traced_walls.push((t1 - t0).as_secs_f64());
            samples.extend(round_samples);
        } else {
            plain_walls.push((t1 - t0).as_secs_f64());
            res.failed += round_samples.iter().filter(|s| !s.ok).count() as u64;
            res.attempted += round_samples.len() as u64;
        }
        r += 1;
    }
    mpca_metrics::set_enabled(false);
    res.attempted += samples.len() as u64;
    res.failed += samples.iter().filter(|s| !s.ok).count() as u64;

    // Frame counts need a recorded trace; the families without challenge
    // frames (broadcast, unchecked sum) fingerprint nothing.
    let mut counted = Vec::new();
    for (i, &p) in POINTS.iter().enumerate() {
        if matches!(p.kind, ProtocolKind::Broadcast | ProtocolKind::UncheckedSum) {
            continue;
        }
        let s = session(
            i,
            p,
            derive_seed(seed, &[0xC0, i as u64]),
            &label("count", 0, p),
            None,
            true,
            false,
        );
        res.correct &= s.ok;
        counted.push(s);
    }
    let fingerprints: u64 = counted.iter().map(|s| s.fingerprints).sum();
    layers::report_crypto(fingerprints as f64 / POINTS.len() as f64, &mut res);

    let n = samples.len() as u64;
    let table = tracer.table("bench.round");
    let build = per_family(&samples, |s| s.build_s * 1e3);
    let run = per_family(&samples, |s| s.run_s * 1e3);
    for kind in ProtocolKind::ALL {
        res.metric(format!("core.build_ms.{}", kind.name()), build[&kind], "ms");
        res.metric(format!("net.run_ms.{}", kind.name()), run[&kind], "ms");
    }
    let mut plane = Plane::default();
    for s in &samples {
        plane.add(&s.plane);
    }
    plane.report(n, &mut res);
    let per = |f: &dyn Fn(&Sample) -> f64| mean(&samples.iter().map(f).collect::<Vec<_>>());
    res.metric(
        "net.envelopes_per_session",
        per(&|s| s.messages as f64),
        "count",
    );
    res.metric("net.rounds_per_session", per(&|s| s.rounds as f64), "count");
    res.metric(
        "net.peak_inbox_mb",
        samples
            .iter()
            .map(|s| s.peak_inbox_bytes)
            .max()
            .unwrap_or(0) as f64
            / (1 << 20) as f64,
        "MiB",
    );
    // The trace, predicate, oracle, pool and admission-queue layers are
    // bypassed on this workload.
    for (name, unit) in [
        ("trace.events_per_session", "count"),
        ("trace.tag_ms", "ms"),
        ("trace.digest_ms", "ms"),
        ("predicate.eval_ms", "ms"),
        ("scenario.oracle_ms", "ms"),
        ("scenario.expand_ms", "ms"),
        ("engine.pool_ms", "ms"),
        ("engine.worker_busy_share", "share"),
        ("obs.queue_p50_ms", "ms"),
        ("obs.queue_p99_ms", "ms"),
        ("obs.wall_p99_ms", "ms"),
    ] {
        res.metric(name, 0.0, unit);
    }
    let overhead = 100.0 * (median(&traced_walls) / median(&plain_walls) - 1.0);
    res.metric("traced_run.overhead_pct", overhead, "%");
    crate::table_metrics(&table, &mut res);
    eprint!("{}", table.render("round"));
    res.detail("layer_table", table.to_json());
    res.spans = Some(tracer.chrome_json());
    res
}

/// Encoded length of the all-to-all view at `n` parties.
pub fn view_len(n: usize) -> usize {
    let view: all_to_all::View = (0..n)
        .map(|i| (PartyId(i), vec![0u8; MESSAGE_BYTES]))
        .collect();
    all_to_all::encode_view(&view).len()
}

/// Self-test: a tampered expected output must fail the check, for every
/// family (broadcast included).
pub fn self_test(seed: u64) -> Vec<(String, bool)> {
    WARMUP
        .iter()
        .enumerate()
        .flat_map(|(i, &p)| {
            let good = session(i, p, seed, &label("selftest", 0, p), None, false, false);
            let bad = session(i, p, seed, &label("selftest", 1, p), None, false, true);
            [
                (
                    format!("asymptotic {} honest passes", p.kind.name()),
                    good.ok,
                ),
                (
                    format!("asymptotic {} tampered fails", p.kind.name()),
                    !bad.ok,
                ),
            ]
        })
        .collect()
}
