//! `soak`: `mpca_obs::run_soak` over `SoakWorkload` (the tiny sweep's
//! templates, re-seeded every cycle), open loop at a fixed rate with one
//! worker and otherwise the program's defaults.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mpca_core::ProtocolKind;
use mpca_engine::Sequential;
use mpca_obs::{run_soak, SoakConfig, SoakReport};
use mpca_scenario::{AdversarySpec, SoakWorkload};

use crate::layers::{self, Exec, Plane, Timed};
use crate::out::{derive_seed, mean, median, RunResult};
use crate::spans::{SpanRec, Tracer};
use crate::sys;

/// Offered load, arrivals per second: about a third of one worker's
/// capacity, so that no arrival is shed.
pub const RATE: f64 = 300.0;

fn config(seed: u64, seconds: f64) -> SoakConfig {
    SoakConfig::new(Duration::from_secs_f64(seconds), RATE)
        .with_workers(1)
        .with_seed(seed)
}

/// Arrivals whose adversary can make an honest party abort.
fn adversarial(workload: &SoakWorkload, arrivals: u64) -> u64 {
    (0..arrivals)
        .filter(|&i| {
            !matches!(
                workload.scenario(i).adversary,
                AdversarySpec::Honest | AdversarySpec::HonestProxy { .. }
            )
        })
        .count() as u64
}

/// The run-level checks: every arrival admitted and completed without an
/// error, no more aborted sessions than adversarial arrivals, and one
/// execution per completed session (`mapped`).
pub struct Verdict {
    pub failed: u64,
    pub correct: bool,
}

pub fn verdict(report: &SoakReport, adversarial: u64, mapped: bool) -> Verdict {
    let lost = report
        .arrivals
        .saturating_sub(report.completed + report.shed + report.errors);
    Verdict {
        failed: report.shed + report.errors + lost,
        correct: report.aborted <= adversarial && mapped,
    }
}

/// Per family, the sum over its templates of the median execution wall
/// (ms) — one cycle's worth, so that a family whose templates differ in
/// cost has no median sitting between them. With one worker and no arrival
/// shed or failed, the soak runs arrivals in admission order, so execution
/// `k` is arrival `k`; `None` if the executions are not one per completed
/// session.
fn family_walls(
    workload: &SoakWorkload,
    execs: &[Exec],
    completed: u64,
) -> Option<BTreeMap<ProtocolKind, f64>> {
    if execs.len() as u64 != completed {
        return None;
    }
    let cycle = workload.templates() as u64;
    let mut by_template: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (k, e) in (0u64..).zip(execs) {
        by_template
            .entry(k % cycle)
            .or_default()
            .push((e.end - e.start).as_secs_f64() * 1e3);
    }
    let mut walls: BTreeMap<ProtocolKind, f64> =
        ProtocolKind::ALL.into_iter().map(|k| (k, 0.0)).collect();
    for (template, w) in by_template {
        *walls.entry(workload.scenario(template).kind).or_default() += median(&w);
    }
    Some(walls)
}

pub fn setup(seed: u64, rep: usize) -> (SoakWorkload, bool) {
    layers::force_program_state();
    let workload = SoakWorkload::new(seed);
    // One warm-up cycle of the templates (every family, every adversary
    // class), from a differently seeded stream so that no timed session
    // repeats a warm-up's CRS label.
    let warm = SoakWorkload::new(derive_seed(seed, &[0x50, rep as u64]));
    let ok =
        (0..warm.templates() as u64).all(|i| warm.task::<Sequential>(i).run(&Sequential).is_ok());
    (workload, ok)
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_s: &mut Vec<f64>,
    start: Instant,
) -> RunResult {
    let (workload, setup_ok) = crate::first_setup(start, setup_s, || setup(seed, 0));
    let mut res = RunResult {
        correct: setup_ok,
        ..RunResult::default()
    };
    if traced {
        return run_traced(seed, seconds, &workload, res);
    }

    let backend = Timed::default();
    let cpu0 = sys::process_cpu_s();
    let report = run_soak(&config(seed, seconds), &backend, |i| workload.task(i));
    let cpu_s = sys::process_cpu_s() - cpu0;
    let execs = backend.take();
    let walls = family_walls(&workload, &execs, report.completed);
    let v = verdict(
        &report,
        adversarial(&workload, report.arrivals),
        walls.is_some(),
    );
    res.attempted = report.arrivals;
    res.failed = v.failed;
    res.correct &= v.correct;
    let completed = report.completed.max(1) as f64;
    res.metric("sessions_per_s", report.scenarios_per_sec(), "1/s");
    res.metric("cpu_ms_per_session", cpu_s * 1e3 / completed, "ms");
    res.metric("latency_p50_ms", report.wall_p50_us as f64 / 1e3, "ms");
    res.metric("latency_p90_ms", report.wall_p90_us as f64 / 1e3, "ms");
    for kind in ProtocolKind::ALL {
        let ms = walls.as_ref().map_or(0.0, |w| w[&kind]);
        res.metric(format!("wall_ms.{}", kind.name()), ms, "ms");
    }
    let bits: Vec<f64> = execs.iter().map(|e| e.bits as f64).collect();
    res.metric("bits_per_session", mean(&bits), "bits");
    res.detail("templates", workload.templates().to_string());
    res.detail(
        "soak",
        format!(
            "{{\"arrivals\": {}, \"completed\": {}, \"shed\": {}, \"errors\": {}, \"aborted\": {}, \"elapsed_s\": {}}}",
            report.arrivals,
            report.completed,
            report.shed,
            report.errors,
            report.aborted,
            report.elapsed.as_secs_f64()
        ),
    );
    res
}

/// The traced run: a plain soak and a traced soak of half the time each;
/// spans come from the timing backend on the worker thread.
fn run_traced(seed: u64, seconds: f64, workload: &SoakWorkload, mut res: RunResult) -> RunResult {
    let half = (seconds / 2.0).max(1.0);
    let plain_backend = Timed::default();
    let plain = run_soak(&config(seed, half), &plain_backend, |i| workload.task(i));
    let plain_execs = plain_backend.take();

    let tracer = Tracer::new();
    let t = Instant::now();
    let second = SoakWorkload::new(derive_seed(seed, &[0x7A]));
    let expand_ms = t.elapsed().as_secs_f64() * 1e3;
    mpca_metrics::set_enabled(true);
    let before = Plane::read();
    let backend = Timed::default();
    let t0 = Instant::now();
    let report = run_soak(&config(derive_seed(seed, &[0x7B]), half), &backend, |i| {
        second.task(i)
    });
    let t1 = Instant::now();
    let plane = Plane::read().since(&before);
    mpca_metrics::set_enabled(false);
    let execs = backend.take();

    for (w, r, e) in [(workload, &plain, &plain_execs), (&second, &report, &execs)] {
        let mapped = family_walls(w, e, r.completed).is_some();
        let v = verdict(r, adversarial(w, r.arrivals), mapped);
        res.attempted += r.arrivals;
        res.failed += v.failed;
        res.correct &= v.correct;
    }

    let root = tracer.id();
    for (k, e) in (0u64..).zip(&execs) {
        let kind = second.scenario(k).kind.name();
        tracer.push(SpanRec {
            id: tracer.id(),
            parent: root,
            name: &format!("net.run.{kind}"),
            start: e.start,
            end: e.end,
            session: 0,
            share: 1.0,
            lane: 1,
            nested: Vec::new(),
        });
    }
    tracer.push(SpanRec {
        id: root,
        parent: 0,
        name: "bench.soak",
        start: t0,
        end: t1,
        session: 0,
        share: 1.0,
        lane: 0,
        nested: Vec::new(),
    });

    // The sampled sessions' retained streams feed the trace-layer calls.
    let (mut tag, mut eval, mut digest, mut events, mut fps) =
        (vec![], vec![], vec![], vec![], vec![]);
    for sample in &report.sampled {
        let Some(log) = &sample.report.trace_log else {
            continue;
        };
        // Sampled labels read `soak-<arrival index>-<template label>`.
        let Some(index) = sample
            .report
            .label
            .split('-')
            .nth(1)
            .and_then(|i| i.parse().ok())
        else {
            continue;
        };
        let kind = second.scenario(index).kind;
        let t = Instant::now();
        let tagged = mpca_trace::TaggedTrace::new(log, kind);
        tag.push(t.elapsed().as_secs_f64() * 1e3);
        let set = mpca_predicate::standard_set(kind, None);
        let t = Instant::now();
        std::hint::black_box(mpca_predicate::eval_set(&set, &tagged));
        eval.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        std::hint::black_box(mpca_trace::TraceSummary::of(log));
        digest.push(t.elapsed().as_secs_f64() * 1e3);
        events.push(log.len() as f64);
        fps.push(layers::fingerprints_in(&tagged) as f64);
    }

    layers::report_crypto(mean(&fps), &mut res);
    let run = family_walls(&second, &execs, report.completed);
    for kind in ProtocolKind::ALL {
        // Party construction happens inside the soak's worker, out of the
        // benchmark's sight.
        res.metric(format!("core.build_ms.{}", kind.name()), 0.0, "ms");
        let ms = run.as_ref().map_or(0.0, |w| w[&kind]);
        res.metric(format!("net.run_ms.{}", kind.name()), ms, "ms");
    }
    plane.report(report.completed, &mut res);
    let per = |f: &dyn Fn(&Exec) -> f64| mean(&execs.iter().map(f).collect::<Vec<_>>());
    res.metric(
        "net.envelopes_per_session",
        per(&|e| e.messages as f64),
        "count",
    );
    res.metric("net.rounds_per_session", per(&|e| e.rounds as f64), "count");
    res.metric(
        "net.peak_inbox_mb",
        execs.iter().map(|e| e.peak_inbox_bytes).max().unwrap_or(0) as f64 / (1 << 20) as f64,
        "MiB",
    );
    res.metric("trace.events_per_session", mean(&events), "count");
    res.metric("trace.tag_ms", median(&tag), "ms");
    res.metric("trace.digest_ms", median(&digest), "ms");
    res.metric("predicate.eval_ms", median(&eval), "ms");
    res.metric("scenario.oracle_ms", 0.0, "ms");
    res.metric("scenario.expand_ms", expand_ms, "ms");
    res.metric("engine.pool_ms", 0.0, "ms");
    res.metric("engine.worker_busy_share", 0.0, "share");
    res.metric("obs.queue_p50_ms", report.queue_p50_us as f64 / 1e3, "ms");
    res.metric("obs.queue_p99_ms", report.queue_p99_us as f64 / 1e3, "ms");
    res.metric("obs.wall_p99_ms", report.wall_p99_us as f64 / 1e3, "ms");
    res.metric(
        "traced_run.overhead_pct",
        100.0 * (report.wall_p50_us as f64 / plain.wall_p50_us.max(1) as f64 - 1.0),
        "%",
    );
    let table = tracer.table("bench.soak");
    crate::table_metrics(&table, &mut res);
    eprint!("{}", table.render("soak"));
    res.detail("layer_table", table.to_json());
    res.spans = Some(tracer.chrome_json());
    res
}

/// Self-test: the run-level checks must fail on a tampered report.
pub fn self_test(seed: u64) -> Vec<(String, bool)> {
    let workload = SoakWorkload::new(seed);
    let backend = Timed::default();
    let report = run_soak(&config(seed, 1.0), &backend, |i| workload.task(i));
    let execs = backend.take();
    let adv = adversarial(&workload, report.arrivals);
    let mapped = family_walls(&workload, &execs, report.completed).is_some();
    let ok = verdict(&report, adv, mapped);
    let mut out = vec![(
        "soak one-second soak passes".to_string(),
        ok.failed == 0 && ok.correct,
    )];
    let mut shed = report.clone();
    shed.shed += 1;
    out.push((
        "soak shed arrival fails".into(),
        verdict(&shed, adv, mapped).failed > 0,
    ));
    let mut errors = report.clone();
    errors.errors += 1;
    out.push((
        "soak session error fails".into(),
        verdict(&errors, adv, mapped).failed > 0,
    ));
    let mut lost = report.clone();
    lost.completed -= 1;
    out.push((
        "soak lost completion fails".into(),
        verdict(&lost, adv, mapped).failed > 0,
    ));
    let mut aborted = report.clone();
    aborted.aborted = adv + 1;
    out.push((
        "soak excess aborts fail".into(),
        !verdict(&aborted, adv, mapped).correct,
    ));
    let mut missing = execs.clone();
    missing.pop();
    out.push((
        "soak executions not one per completion fail".into(),
        family_walls(&workload, &missing, report.completed).is_none(),
    ));
    out
}
