//! Shared instruments over the program's public API: a timing execution
//! backend, readers of the metrics plane, and the crypto-kernel probe.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpca_core::ProtocolKind;
use mpca_crypto::fingerprint::{fingerprint, prime_bits_for};
use mpca_crypto::primes::random_prime_with_bits;
use mpca_crypto::Prg;
use mpca_engine::{ExecutionBackend, Sequential};
use mpca_metrics::{Phase, Registry};
use mpca_net::{NetError, PartyLogic, PayloadAllocStats, RunResult, Simulator};

use crate::out::splitmix;

/// The equality-test security parameter the all-to-all sessions use.
pub const A2A_LAMBDA: u32 = 20;

/// One simulator execution as the timing backend saw it.
#[derive(Debug, Clone)]
pub struct Exec {
    pub start: Instant,
    pub end: Instant,
    pub bits: u64,
    pub messages: u64,
    pub rounds: usize,
    pub peak_inbox_bytes: u64,
}

thread_local! {
    static LAST_EXEC: Cell<Option<(Instant, Instant)>> = const { Cell::new(None) };
}

/// The interval of the last execution the timing backend ran on this
/// thread.
pub fn last_exec_on_thread() -> Option<(Instant, Instant)> {
    LAST_EXEC.with(Cell::get)
}

/// `Sequential`, plus a log of every execution in the order it ended:
/// interval, charged bits and shape. It sees the simulator run, not party construction.
#[derive(Clone, Default)]
pub struct Timed {
    pub log: Arc<Mutex<Vec<Exec>>>,
}

impl Timed {
    pub fn take(&self) -> Vec<Exec> {
        std::mem::take(&mut *self.log.lock().expect("exec log poisoned"))
    }
}

impl ExecutionBackend for Timed {
    fn name(&self) -> &'static str {
        Sequential.name()
    }

    fn execute<L>(&self, sim: Simulator<L>) -> Result<RunResult<L::Output>, NetError>
    where
        L: PartyLogic + Send,
        L::Output: Send,
    {
        let start = Instant::now();
        let result = Sequential.execute(sim);
        let end = Instant::now();
        LAST_EXEC.with(|c| c.set(Some((start, end))));
        if let Ok(r) = &result {
            let exec = Exec {
                start,
                end,
                bits: r.stats.total_bits(),
                messages: r.stats.total_messages(),
                rounds: r.rounds,
                peak_inbox_bytes: r.peak_inbox_bytes,
            };
            self.log.lock().expect("exec log poisoned").push(exec);
        }
        result
    }
}

/// The program's own span histograms inside protocol logic, with the
/// per-layer metric each one feeds.
pub const CORE_SPANS: [(&str, &str); 4] = [
    ("core.committee.draw", "committee_draw"),
    ("core.local_committee.draw", "local_committee_draw"),
    ("core.tradeoff.cover_draw", "cover_draw"),
    ("core.all_to_all.encode_view", "encode_view"),
];

/// A reading of the metrics plane's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plane {
    pub core_span_us: [u64; 4],
    pub phase_wall_us: [u64; Phase::COUNT],
    pub alloc_bytes: u64,
}

impl Plane {
    pub fn read() -> Self {
        let registry = Registry::global();
        let mut core_span_us = [0; 4];
        for (slot, (name, _)) in core_span_us.iter_mut().zip(CORE_SPANS) {
            *slot = registry.histogram(name).sum();
        }
        let mut phase_wall_us = [0; Phase::COUNT];
        for (slot, phase) in phase_wall_us.iter_mut().zip(Phase::ALL) {
            *slot = registry
                .counter(&format!("net.phase.wall_us.{phase}"))
                .get();
        }
        Self {
            core_span_us,
            phase_wall_us,
            alloc_bytes: PayloadAllocStats::snapshot().bytes,
        }
    }

    pub fn since(&self, before: &Plane) -> Plane {
        let mut d = *self;
        for (a, b) in d.core_span_us.iter_mut().zip(before.core_span_us) {
            *a = a.saturating_sub(b);
        }
        for (a, b) in d.phase_wall_us.iter_mut().zip(before.phase_wall_us) {
            *a = a.saturating_sub(b);
        }
        d.alloc_bytes = d.alloc_bytes.saturating_sub(before.alloc_bytes);
        d
    }

    pub fn add(&mut self, other: &Plane) {
        for (a, b) in self.core_span_us.iter_mut().zip(other.core_span_us) {
            *a += b;
        }
        for (a, b) in self.phase_wall_us.iter_mut().zip(other.phase_wall_us) {
            *a += b;
        }
        self.alloc_bytes += other.alloc_bytes;
    }

    /// Core-layer time the program's own spans measured, as nested
    /// `(layer, ns)` time for a span around a simulator run.
    pub fn nested_core_ns(&self) -> Vec<(&'static str, u64)> {
        vec![("core", self.core_span_us.iter().sum::<u64>() * 1000)]
    }

    /// Pushes the `core.span_ms.*`, `net.phase_ms.*` and
    /// `net.payload_alloc_mb` metrics, per session.
    pub fn report(&self, sessions: u64, res: &mut crate::out::RunResult) {
        let per = |us: u64| us as f64 / 1000.0 / sessions.max(1) as f64;
        for ((_, metric), us) in CORE_SPANS.iter().zip(self.core_span_us) {
            res.metric(format!("core.span_ms.{metric}"), per(us), "ms");
        }
        for (phase, us) in Phase::ALL.iter().zip(self.phase_wall_us) {
            res.metric(format!("net.phase_ms.{phase}"), per(us), "ms");
        }
        res.metric(
            "net.payload_alloc_mb",
            self.alloc_bytes as f64 / (1 << 20) as f64 / sessions.max(1) as f64,
            "MiB",
        );
    }
}

/// Probes the crypto kernels on the view lengths the workloads fingerprint
/// — the `asymptotic` all-to-all view and a short `campaign` one — and
/// pushes the `crypto.*` metrics.
pub fn report_crypto(fingerprints_per_session: f64, res: &mut crate::out::RunResult) {
    let budget = Duration::from_millis(400);
    let long = crate::asymptotic::view_len(crate::asymptotic::LONG_VIEW_N);
    let short = crate::asymptotic::view_len(crate::campaign::SHORT_VIEW_N);
    let (long_mb, prime_us) = crypto_probe(long, budget);
    let (short_mb, _) = crypto_probe(short, budget);
    res.metric("crypto.fingerprint_mb_per_s.long", long_mb, "MB/s");
    res.metric("crypto.fingerprint_mb_per_s.short", short_mb, "MB/s");
    res.metric("crypto.prime_us", prime_us, "us");
    res.metric(
        "crypto.fingerprints_per_session",
        fingerprints_per_session,
        "count",
    );
    res.detail(
        "view_bytes",
        format!("{{\"long\": {long}, \"short\": {short}}}"),
    );
}

/// Fingerprint throughput (MB/s) on `len`-byte messages under primes drawn
/// the way the equality test draws them, and the mean prime-draw time (µs).
fn crypto_probe(len: usize, budget: Duration) -> (f64, f64) {
    let mut state = len as u64;
    let message: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
    let mut prg = Prg::from_seed_bytes(b"perfbench-crypto-probe");
    let bits = prime_bits_for(A2A_LAMBDA, len);
    let start = Instant::now();
    let primes: Vec<u64> = (0..64)
        .map(|_| random_prime_with_bits(&mut prg, black_box(bits)))
        .collect();
    let prime_us = start.elapsed().as_secs_f64() * 1e6 / primes.len() as f64;
    let start = Instant::now();
    let mut bytes = 0u64;
    let mut acc = 0u64;
    while start.elapsed() < budget {
        for &p in &primes {
            acc ^= fingerprint(black_box(&message), black_box(p));
            bytes += len as u64;
        }
    }
    black_box(acc);
    let mb_per_s = bytes as f64 / 1e6 / start.elapsed().as_secs_f64();
    (mb_per_s, prime_us)
}

/// Fingerprints a tagged stream shows: each `*challenge` frame is one
/// fingerprint by its sender and one by its receiver.
pub fn fingerprints_in(trace: &mpca_trace::TaggedTrace) -> u64 {
    trace
        .tag_histogram()
        .iter()
        .filter(|(tag, _)| tag.ends_with("challenge"))
        .map(|(_, count)| 2 * *count as u64)
        .sum()
}

/// Forces the lazily built program state every workload needs before its
/// first session: each family's budget curve (parsing the calibration
/// fixture) and its standard predicate set.
pub fn force_program_state() {
    for kind in ProtocolKind::ALL {
        black_box(mpca_core::BudgetCurve::for_kind(kind));
        black_box(mpca_predicate::standard_set(kind, None));
    }
}
