//! `campaign`: the sweep campaign (every family under every adversary
//! class, both rigged controls) run through `Campaign::run_traced`: traced,
//! streams retained, six-property oracle, two pool workers, a fresh seed on
//! every pass but for the scenarios in `PINNED`.
//!
//! Some of the sweep's scenarios fail the checks on some seeds because of
//! faults in the program (see `PINNED`). With fresh seeds their failures would come
//! and go from run to run, so they keep a fixed seed instead, and every
//! pass counts the same failures. Their CRS labels repeat from pass to
//! pass, so the CRS matrix cache (64 entries, cleared when full; a pass
//! inserts about 60 fresh ones) sometimes still holds theirs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use mpca_core::ProtocolKind;
use mpca_engine::{OutcomeDigest, Sequential, SessionPool, SessionProgress};
use mpca_scenario::{
    oracle, registry, sweep_campaign, AdversarySpec, Campaign, Expectation, ScenarioOutcome,
    ScenarioPlan,
};

use crate::layers::{self, Plane, Timed};
use crate::out::{derive_seed, mean, median, quantile, RunResult};
use crate::spans::{SpanRec, Tracer};
use crate::sys;

/// Pool workers of every pass.
pub const WORKERS: usize = 2;

/// The all-to-all size whose view length stands for the short views the
/// sweep fingerprints (its all-to-all grid runs from 8 to 32).
pub const SHORT_VIEW_N: usize = 16;

fn pass_seed(seed: u64, pass: usize) -> u64 {
    derive_seed(seed, &[0xCA, pass as u64])
}

/// A pinned sweep scenario: plan name, grid point (`None`: every point of
/// the plan) and scenario seed.
pub type Pin = (&'static str, Option<(usize, usize)>, u64);

/// Sweep scenarios that fail the checks on some seeds because of faults in
/// the program, each kept at a fixed scenario seed.
///
/// - Theorem 4 under the withholding adversary: honest parties sometimes
///   output different values instead of aborting; at this seed its
///   `(8, 4)` point does.
/// - `swptr-eqframe-t1`: the tampered input frame sometimes goes
///   undetected although the plan expects an identified abort; at this
///   seed it does.
/// - Theorem 1 with an honest adversary (and its honest proxy) at
///   `(16, 12)`: the claimed committee sometimes reaches the size bound
///   `2pn` and every party aborts although none misbehaved, at about
///   8.5e-5 a session (the binomial tail of the election at this small
///   `n`); at this seed the honest plan's session does.
pub const PINNED: [Pin; 4] = [
    ("swp4-thm4-tradeoff", None, 11218439835113586258),
    ("swptr-eqframe-t1", None, 9342868544363263959),
    ("swp0-thm1-mpc", Some((16, 12)), 7290432410705058758),
    ("swp1-thm1-mpc", Some((16, 12)), 7290432410705058758),
];

/// The sessions that fail on the pinned seeds, once a pass: of all 162,
/// only these.
pub const KNOWN_FAILURES: [&str; 3] = [
    "swp4-thm4-tradeoff-withhold-n8-h4",
    "swptr-eqframe-t1-equivocate-frame-mpc:input-ct-c2.0-n12-h6",
    "swp0-thm1-mpc-honest-n16-h12",
];

/// The sweep at `seed`, with the scenarios in `PINNED` at their seeds.
pub fn sweep(seed: u64) -> Campaign {
    let mut campaign = sweep_campaign(seed);
    let mut split = Vec::new();
    for plan in &mut campaign.plans {
        for &(name, point, pinned) in &PINNED {
            match point {
                _ if plan.name != name => {}
                None => plan.seed = pinned,
                Some(point) => {
                    plan.grid.retain(|&p| p != point);
                    split.push(plan.clone().with_grid([point]).with_seed(pinned));
                }
            }
        }
    }
    campaign.plans.extend(split);
    campaign
}

/// The benchmark's own verdict on one executed scenario: honest parties
/// that output agree (the equivocated unchecked-sum control must instead
/// show disagreement), scenarios whose adversary behaves honestly do not
/// abort, and the oracle's verdicts match the plan's expectation.
pub fn check(o: &ScenarioOutcome) -> bool {
    let outputs: Vec<&String> = o
        .report
        .outcomes
        .values()
        .filter_map(|d| match d {
            OutcomeDigest::Output(v) => Some(v),
            OutcomeDigest::Aborted(_) => None,
        })
        .collect();
    let agree = outputs.windows(2).all(|w| w[0] == w[1]);
    if o.scenario.expectation == Expectation::ViolatesAgreement {
        return !agree && o.as_expected();
    }
    let honest_adversary = matches!(
        o.scenario.adversary,
        AdversarySpec::Honest | AdversarySpec::HonestProxy { .. }
    );
    let aborted = o.report.outcomes.values().any(OutcomeDigest::is_abort);
    agree && !(honest_adversary && aborted) && o.as_expected()
}

/// One honest scenario per family at its largest sweep point.
fn warmup_campaign(seed: u64, rep: usize) -> Campaign {
    ProtocolKind::ALL
        .into_iter()
        .fold(Campaign::new("perfbench-warmup"), |c, kind| {
            let largest = *kind.sweep_grid().last().expect("grids are not empty");
            c.plan(
                ScenarioPlan::new(
                    format!("warm{rep}-{}", kind.name()),
                    kind,
                    AdversarySpec::Honest,
                )
                .with_grid([largest])
                .with_seed(derive_seed(seed, &[0x3A, rep as u64])),
            )
        })
}

pub fn setup(seed: u64, rep: usize) -> bool {
    layers::force_program_state();
    let controls = sweep(derive_seed(seed, &[0x5E, rep as u64]))
        .scenarios()
        .iter()
        .filter(|s| {
            matches!(
                s.expectation,
                Expectation::ViolatesAgreement | Expectation::ViolatesFloodingRule
            )
        })
        .count();
    let warm = warmup_campaign(seed, rep).run_traced(Sequential, 1);
    controls == 2 && warm.is_ok_and(|r| r.outcomes.iter().all(check))
}

/// Per-session record of an untraced pass.
struct Session {
    label: String,
    kind: ProtocolKind,
    wall_ms: f64,
    bits: u64,
    ok: bool,
}

fn sessions_of(outcomes: &[ScenarioOutcome]) -> Vec<Session> {
    outcomes
        .iter()
        .map(|o| Session {
            label: format!(
                "{} seed {} [{}] {}",
                o.scenario.label,
                o.scenario.seed,
                o.verdict_letters(),
                o.checks[0].details
            ),
            kind: o.scenario.kind,
            wall_ms: o.report.wall.as_secs_f64() * 1e3,
            bits: o.report.stats.total_bits(),
            ok: check(o),
        })
        .collect()
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
    let per_pass = sweep(seed).scenarios().len() as u64;
    let cpu0 = sys::process_cpu_s();
    let loop_start = Instant::now();
    let mut sessions = Vec::new();
    let mut pass = 0;
    while pass == 0 || loop_start.elapsed().as_secs_f64() < seconds {
        match sweep(pass_seed(seed, pass)).run_traced(Sequential, WORKERS) {
            Ok(report) => sessions.extend(sessions_of(&report.outcomes)),
            Err(_) => res.failed += per_pass,
        }
        res.attempted += per_pass;
        pass += 1;
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    res.failed += sessions.iter().filter(|s| !s.ok).count() as u64;
    let completed = sessions.len() as f64;
    let walls: Vec<f64> = sessions.iter().map(|s| s.wall_ms).collect();
    res.metric("sessions_per_s", completed / loop_s, "1/s");
    res.metric("cpu_ms_per_session", cpu_s * 1e3 / completed, "ms");
    res.metric("latency_p50_ms", quantile(&walls, 0.5), "ms");
    res.metric("latency_p90_ms", quantile(&walls, 0.9), "ms");
    for kind in ProtocolKind::ALL {
        let w: Vec<f64> = sessions
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.wall_ms)
            .collect();
        res.metric(format!("wall_ms.{}", kind.name()), median(&w), "ms");
    }
    let bits: Vec<f64> = sessions.iter().map(|s| s.bits as f64).collect();
    res.metric("bits_per_session", mean(&bits), "bits");
    res.detail("passes", pass.to_string());
    let failed: Vec<String> = sessions
        .iter()
        .filter(|s| !s.ok)
        .map(|s| crate::out::json_str(&s.label))
        .collect();
    res.detail("failed_sessions", format!("[{}]", failed.join(", ")));
    res
}

/// A session as the traced pass saw it from the pool worker that ran it.
struct Done {
    label: String,
    thread: ThreadId,
    job_start: Instant,
    exec: (Instant, Instant),
    done: Instant,
}

/// Per-pass figures of a traced pass.
#[derive(Default)]
struct PassStats {
    pass_ms: Vec<f64>,
    pool_ms: Vec<f64>,
    expand_ms: Vec<f64>,
    busy_share: Vec<f64>,
    oracle_ms: Vec<f64>,
    tag_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    digest_ms: Vec<f64>,
    build_ms: BTreeMap<ProtocolKind, Vec<f64>>,
    run_ms: BTreeMap<ProtocolKind, Vec<f64>>,
    events: Vec<f64>,
    fingerprints: Vec<f64>,
    messages: Vec<f64>,
    rounds: Vec<f64>,
    peak_inbox: u64,
    sessions: u64,
    failed: u64,
}

/// One traced pass: `Campaign::run_traced` taken apart into its public
/// calls (expansion, pool, oracle) with spans around each, the pool's
/// sessions split into construction and execution by the timing backend,
/// then the trace, predicate and digest calls timed on every stream.
fn traced_pass(seed: u64, pass: usize, tracer: &Tracer, st: &mut PassStats) {
    let campaign = sweep(pass_seed(seed, pass));
    let pass_id = tracer.id();
    let t_pass = Instant::now();
    let t = Instant::now();
    let scenarios = campaign.scenarios();
    st.expand_ms.push(t.elapsed().as_secs_f64() * 1e3);
    tracer.simple(pass_id, "scenario.expand", t, Instant::now());
    let kinds: BTreeMap<String, ProtocolKind> = scenarios
        .iter()
        .map(|s| (s.label.clone(), s.kind))
        .collect();

    let done: Arc<Mutex<Vec<Done>>> = Arc::default();
    let sink = Arc::clone(&done);
    let mut pool = SessionPool::new(Timed::default())
        .with_workers(WORKERS)
        .with_tracing(true)
        .with_trace_logs(true)
        .with_progress(move |p: SessionProgress| {
            let now = Instant::now();
            if let (Some(wall), Some(exec)) = (p.wall, layers::last_exec_on_thread()) {
                sink.lock().expect("progress log poisoned").push(Done {
                    label: p.label,
                    thread: std::thread::current().id(),
                    job_start: exec.1.checked_sub(wall).unwrap_or(exec.0).min(exec.0),
                    exec,
                    done: now,
                });
            }
        });
    pool.reserve(scenarios.len());
    for scenario in &scenarios {
        registry::submit_scenario(&mut pool, scenario);
    }
    let t_pool = Instant::now();
    let batch = pool.run();
    let t_pool_end = Instant::now();
    let pool_ms = (t_pool_end - t_pool).as_secs_f64() * 1e3;
    st.pool_ms.push(pool_ms);
    let pool_id = tracer.simple(pass_id, "engine.pool", t_pool, t_pool_end);

    let done = std::mem::take(&mut *done.lock().expect("progress log poisoned"));
    let lanes = WORKERS.min(scenarios.len()).max(1);
    let share = 1.0 / lanes as f64;
    // Per worker thread: its lane span's id and the end of its last session.
    let mut lane_ids: Vec<(ThreadId, u64, Instant)> = Vec::new();
    let mut busy_ms = 0.0;
    for d in &done {
        let lane = match lane_ids.iter().position(|l| l.0 == d.thread) {
            Some(i) => i,
            None => {
                lane_ids.push((d.thread, tracer.id(), t_pool));
                lane_ids.len() - 1
            }
        }
        .min(lanes - 1);
        // A session starts no earlier than the previous one on its worker
        // ended (the wall it reports is read a moment after its run).
        let job_start = d.job_start.max(lane_ids[lane].2);
        lane_ids[lane].2 = d.done;
        let kind = kinds[&d.label];
        let session = tracer.id();
        busy_ms += (d.done - job_start).as_secs_f64() * 1e3;
        st.build_ms
            .entry(kind)
            .or_default()
            .push((d.exec.0 - job_start).as_secs_f64() * 1e3);
        st.run_ms
            .entry(kind)
            .or_default()
            .push((d.exec.1 - d.exec.0).as_secs_f64() * 1e3);
        for (id, parent, name, start, end) in [
            (
                session,
                lane_ids[lane].1,
                "engine.session".to_string(),
                job_start,
                d.done,
            ),
            (
                tracer.id(),
                session,
                format!("core.build.{}", kind.name()),
                job_start,
                d.exec.0,
            ),
            (
                tracer.id(),
                session,
                format!("net.run.{}", kind.name()),
                d.exec.0,
                d.exec.1,
            ),
        ] {
            tracer.push(SpanRec {
                id,
                parent,
                name: &name,
                start,
                end,
                session,
                share,
                lane: lane as u64 + 1,
                nested: Vec::new(),
            });
        }
    }
    // One lane per pool worker, each covering the pool's wall: the part of
    // a lane no session covers is the engine's own time (queue, idle).
    for lane in 0..lanes {
        let id = lane_ids.get(lane).map_or_else(|| tracer.id(), |l| l.1);
        tracer.push(SpanRec {
            id,
            parent: pool_id,
            name: "engine.worker",
            start: t_pool,
            end: t_pool_end,
            session: 0,
            share,
            lane: lane as u64 + 1,
            nested: Vec::new(),
        });
    }
    st.busy_share.push(busy_ms / (lanes as f64 * pool_ms));

    let Ok(batch) = batch else {
        st.failed += scenarios.len() as u64;
        st.sessions += scenarios.len() as u64;
        return;
    };
    let t_oracle = Instant::now();
    let outcomes: Vec<ScenarioOutcome> = scenarios
        .into_iter()
        .zip(batch.sessions)
        .map(|(scenario, report)| {
            tracer.time(pass_id, "scenario.oracle", || {
                oracle::evaluate(scenario, report)
            })
        })
        .collect();
    st.oracle_ms
        .push(t_oracle.elapsed().as_secs_f64() * 1e3 / outcomes.len() as f64);
    tracer.push(SpanRec {
        id: pass_id,
        parent: 0,
        name: "bench.pass",
        start: t_pass,
        end: Instant::now(),
        session: 0,
        share: 1.0,
        lane: 0,
        nested: Vec::new(),
    });
    st.pass_ms.push(t_pass.elapsed().as_secs_f64() * 1e3);

    // The trace-layer calls, timed on each retained stream after the pass.
    let probe = tracer.id();
    let t_probe = Instant::now();
    let (mut tag, mut eval, mut digest) = (0.0, 0.0, 0.0);
    for o in &outcomes {
        st.sessions += 1;
        st.failed += u64::from(!check(o));
        st.messages.push(o.report.stats.total_messages() as f64);
        st.rounds.push(o.report.rounds as f64);
        st.peak_inbox = st.peak_inbox.max(o.report.peak_inbox_bytes);
        let Some(log) = &o.report.trace_log else {
            continue;
        };
        let kind = o.scenario.kind;
        let (tagged, a) = timed(|| {
            tracer.time(probe, "trace.tag", || {
                mpca_trace::TaggedTrace::new(log, kind)
            })
        });
        let set = mpca_predicate::standard_set(kind, None);
        let (_, b) = timed(|| {
            tracer.time(probe, "predicate.eval", || {
                mpca_predicate::eval_set(&set, &tagged)
            })
        });
        let (_, c) =
            timed(|| tracer.time(probe, "trace.digest", || mpca_trace::TraceSummary::of(log)));
        tag += a;
        eval += b;
        digest += c;
        st.events.push(log.len() as f64);
        st.fingerprints
            .push(layers::fingerprints_in(&tagged) as f64);
    }
    let n = outcomes.len().max(1) as f64;
    st.tag_ms.push(tag / n);
    st.eval_ms.push(eval / n);
    st.digest_ms.push(digest / n);
    tracer.simple(0, "bench.probe", t_probe, Instant::now());
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn run_traced(seed: u64, seconds: f64, mut res: RunResult) -> RunResult {
    let tracer = Tracer::new();
    let mut st = PassStats::default();
    let mut plain_ms = Vec::new();
    let mut plane = Plane::default();
    let per_pass = sweep(seed).scenarios().len() as u64;
    let loop_start = Instant::now();
    let mut pass = 0;
    while pass < 2 || loop_start.elapsed().as_secs_f64() < seconds {
        if pass % 2 == 1 {
            mpca_metrics::set_enabled(true);
            let before = Plane::read();
            traced_pass(seed, pass, &tracer, &mut st);
            plane.add(&Plane::read().since(&before));
            mpca_metrics::set_enabled(false);
        } else {
            let t = Instant::now();
            match sweep(pass_seed(seed, pass)).run_traced(Sequential, WORKERS) {
                Ok(report) => {
                    res.failed += report.outcomes.iter().filter(|o| !check(o)).count() as u64
                }
                Err(_) => res.failed += per_pass,
            }
            res.attempted += per_pass;
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        pass += 1;
    }
    res.attempted += st.sessions;
    res.failed += st.failed;

    layers::report_crypto(mean(&st.fingerprints), &mut res);
    for kind in ProtocolKind::ALL {
        let b = st.build_ms.get(&kind).map_or(0.0, |v| median(v));
        let r = st.run_ms.get(&kind).map_or(0.0, |v| median(v));
        res.metric(format!("core.build_ms.{}", kind.name()), b, "ms");
        res.metric(format!("net.run_ms.{}", kind.name()), r, "ms");
    }
    plane.report(st.sessions, &mut res);
    res.metric("net.envelopes_per_session", mean(&st.messages), "count");
    res.metric("net.rounds_per_session", mean(&st.rounds), "count");
    res.metric(
        "net.peak_inbox_mb",
        st.peak_inbox as f64 / (1 << 20) as f64,
        "MiB",
    );
    res.metric("trace.events_per_session", mean(&st.events), "count");
    res.metric("trace.tag_ms", median(&st.tag_ms), "ms");
    res.metric("trace.digest_ms", median(&st.digest_ms), "ms");
    res.metric("predicate.eval_ms", median(&st.eval_ms), "ms");
    res.metric("scenario.oracle_ms", median(&st.oracle_ms), "ms");
    res.metric("scenario.expand_ms", median(&st.expand_ms), "ms");
    res.metric("engine.pool_ms", median(&st.pool_ms), "ms");
    res.metric("engine.worker_busy_share", median(&st.busy_share), "share");
    // No admission queue on this workload.
    for name in ["obs.queue_p50_ms", "obs.queue_p99_ms", "obs.wall_p99_ms"] {
        res.metric(name, 0.0, "ms");
    }
    res.metric(
        "traced_run.overhead_pct",
        100.0 * (median(&st.pass_ms) / median(&plain_ms) - 1.0),
        "%",
    );
    let table = tracer.table("bench.pass");
    crate::table_metrics(&table, &mut res);
    eprint!("{}", table.render("pass"));
    res.detail("layer_table", table.to_json());
    res.spans = Some(tracer.chrome_json());
    res
}

/// Self-test: each check must count a tampered outcome as failed.
pub fn self_test(seed: u64) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    let report = sweep(seed)
        .run_traced(Sequential, WORKERS)
        .expect("the sweep runs");
    out.push((
        "campaign fails exactly the known failures of 162".into(),
        report.outcomes.len() == 162
            && report
                .outcomes
                .iter()
                .all(|o| check(o) != KNOWN_FAILURES.contains(&o.scenario.label.as_str())),
    ));
    let honest = report
        .outcomes
        .iter()
        .find(|o| matches!(o.scenario.adversary, AdversarySpec::Honest))
        .expect("the sweep has honest scenarios");
    let control = report
        .outcomes
        .iter()
        .find(|o| o.scenario.expectation == Expectation::ViolatesAgreement)
        .expect("the sweep has the agreement control");

    let mut disagree = honest.clone();
    if let Some(OutcomeDigest::Output(v)) = disagree.report.outcomes.values_mut().next() {
        v.push('!');
    }
    out.push((
        "campaign tampered output fails agreement".into(),
        !check(&disagree),
    ));

    let mut aborted = honest.clone();
    if let Some(d) = aborted.report.outcomes.values_mut().last() {
        *d = OutcomeDigest::Aborted("tampered".into());
    }
    out.push((
        "campaign abort under honest adversary fails".into(),
        !check(&aborted),
    ));

    let mut expectation = honest.clone();
    expectation.scenario.expectation = Expectation::ViolatesFloodingRule;
    out.push((
        "campaign tampered expectation fails".into(),
        !check(&expectation),
    ));

    let mut agreeing = control.clone();
    let first = agreeing
        .report
        .outcomes
        .values()
        .find_map(|d| match d {
            OutcomeDigest::Output(v) => Some(v.clone()),
            OutcomeDigest::Aborted(_) => None,
        })
        .expect("the control outputs");
    for d in agreeing.report.outcomes.values_mut() {
        *d = OutcomeDigest::Output(first.clone());
    }
    out.push((
        "campaign control without disagreement fails".into(),
        !check(&agreeing),
    ));
    out
}
