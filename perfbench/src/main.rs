//! The benchmark's measuring program: runs one workload for a given time
//! and prints one JSON line of results last on standard output.
//!
//! ```text
//! perfbench --workload asymptotic|campaign|soak --seed N --seconds S --trace 0|1
//!           [--out DIR] [--rev REV]
//! perfbench --self-test [--seed N]
//! perfbench --setup-only --workload W --seed N --rep K
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones. `setup_s` is the median over `SETUP_REPS` set-ups, each
//! in a fresh process and timed from that process's start: the run's own,
//! then the others in child processes started with `--setup-only` after
//! the timed part, so that every repetition pays for process start and the
//! program's one-time initialisation.
//!
//! A detail file with the run's stamp (revision, build profile, CPU count
//! and model, seed), set-up repetitions and the self-time table goes to
//! `DIR/<workload>-seed<N>-trace<T>.json`; the traced run also writes its
//! spans there as Chrome trace-event JSON.

mod asymptotic;
mod campaign;
mod layers;
mod out;
mod soak;
mod spans;
mod sys;

use std::time::Instant;

use out::{json_num, json_obj, json_str, median, RunResult};
use spans::LayerTable;

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Layers of the self-time table, in the order they are reported.
const TABLE_LAYERS: [&str; 8] = [
    "core",
    "net",
    "engine",
    "scenario",
    "trace",
    "predicate",
    "obs",
    "unattributed",
];

/// Runs a workload's set-up in this process and records its wall from
/// process start in `setup_s`.
pub fn first_setup<T>(start: Instant, setup_s: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let out = setup();
    setup_s.push(start.elapsed().as_secs_f64());
    out
}

/// The set-up of `workload` for repetition `rep`, in this process; `true`
/// if its checks held.
fn setup_of(workload: &str, seed: u64, rep: usize) -> bool {
    match workload {
        "asymptotic" => asymptotic::setup(seed, rep),
        "campaign" => campaign::setup(seed, rep),
        "soak" => soak::setup(seed, rep).1,
        _ => usage(),
    }
}

/// Repetitions 1.. of the set-up, each in a child process of this program.
/// Pushes each child's set-up wall to `setup_s`; `false` if a child's
/// checks failed or it could not run.
fn child_setups(args: &Args, setup_s: &mut Vec<f64>) -> bool {
    let Some(exe) = std::env::args_os().next() else {
        return false;
    };
    let mut ok = true;
    for rep in 1..SETUP_REPS {
        let out = std::process::Command::new(&exe)
            .args(["--setup-only", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string(), "--rep", &rep.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let secs = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()?
                .trim()
                .parse::<f64>()
                .ok()
        });
        match secs {
            Some(s) => setup_s.push(s),
            None => ok = false,
        }
    }
    ok
}

/// The `self_ms.<layer>` rows of a self-time table, per root span, plus the
/// wall they add up to.
pub fn table_metrics(table: &LayerTable, res: &mut RunResult) {
    let roots = table.roots.max(1) as f64;
    for layer in TABLE_LAYERS {
        let ms = table.rows.get(layer).copied().unwrap_or(0.0);
        res.metric(format!("self_ms.{layer}"), ms / roots, "ms");
    }
    res.metric("self_ms.wall", table.wall_ms / roots, "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
    rev: String,
    self_test: bool,
    setup_only: bool,
    rep: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload asymptotic|campaign|soak --seed N --seconds S --trace 0|1 \
         [--out DIR] [--rev REV]\n       perfbench --self-test [--seed N]\n       \
         perfbench --setup-only --workload W --seed N --rep K"
    );
    std::process::exit(2);
}

fn set_flag(args: &mut Args, flag: &str, value: String) {
    match flag {
        "--workload" => args.workload = value,
        "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
        "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
        "--trace" => {
            args.trace = match value.as_str() {
                "0" => false,
                "1" => true,
                _ => usage(),
            }
        }
        "--out" => args.out = value,
        "--rev" => args.rev = value,
        "--rep" => args.rep = value.parse().unwrap_or_else(|_| usage()),
        _ => usage(),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: ".bench_out".into(),
        rev: "unknown".into(),
        self_test: false,
        setup_only: false,
        rep: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--self-test" => args.self_test = true,
            "--setup-only" => args.setup_only = true,
            _ => {
                let value = it.next().unwrap_or_else(|| usage());
                set_flag(&mut args, &flag, value);
            }
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        usage();
    }
    args
}

fn self_test(seed: u64) -> ! {
    let mut results = asymptotic::self_test(seed);
    results.extend(campaign::self_test(seed));
    results.extend(soak::self_test(seed));
    let mut ok = true;
    for (name, passed) in &results {
        println!("{} {name}", if *passed { "ok  " } else { "FAIL" });
        ok &= passed;
    }
    println!("self-test: {}", if ok { "passed" } else { "FAILED" });
    std::process::exit(if ok { 0 } else { 1 });
}

fn main() {
    let start = Instant::now();
    let args = parse_args();
    if args.self_test {
        self_test(args.seed);
    }
    if args.setup_only {
        let ok = setup_of(&args.workload, args.seed, args.rep);
        println!("{}", start.elapsed().as_secs_f64());
        std::process::exit(if ok { 0 } else { 1 });
    }
    let mut setup_s = Vec::new();
    let run = match args.workload.as_str() {
        "asymptotic" => asymptotic::run,
        "campaign" => campaign::run,
        "soak" => soak::run,
        _ => usage(),
    };
    let mut res = run(args.seed, args.seconds, args.trace, &mut setup_s, start);
    if !args.trace {
        let peak_rss_mb = sys::peak_rss_mb();
        res.correct &= child_setups(&args, &mut setup_s);
        res.metric("setup_s", median(&setup_s), "s");
        res.metric("peak_rss_mb", peak_rss_mb, "MiB");
    }
    res.metrics.sort_by(|a, b| a.name.cmp(&b.name));

    let stamp = json_obj([
        ("revision", json_str(&args.rev)),
        (
            "build_profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", json_str(&sys::cpu_model())),
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
    ]);
    let setup_reps: Vec<String> = setup_s.iter().map(|v| json_num(*v)).collect();
    let mut fields = vec![
        ("stamp", stamp),
        ("setup_s_reps", format!("[{}]", setup_reps.join(", "))),
        ("result", res.summary_json()),
    ];
    fields.extend(res.detail.iter().map(|(k, v)| (k.as_str(), v.clone())));
    let detail = json_obj(fields);
    let base = format!(
        "{}/{}-seed{}-trace{}",
        args.out,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(format!("{base}.json"), format!("{detail}\n")))
        .and_then(|()| match &res.spans {
            Some(spans) => std::fs::write(format!("{base}.spans.json"), spans),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("cannot write {base}.json: {e}");
        std::process::exit(1);
    }
    println!("{}", res.summary_json());
}
