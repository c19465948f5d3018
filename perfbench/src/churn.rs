//! `churn`: online kernel serving over a durable store.
//!
//! The W-MAT `mat3vec` kernel, specialized on `{a, b, c}` with
//! `{x0, x1, x2}` varying, runs behind a two-worker daemon with cost-model
//! admission (`Admission::Auto`) and a file-backed write-ahead log with
//! group commit and periodic checkpoints. Invariant contexts follow a
//! seeded Zipf draw over a universe several times the store's capacity.
//! Set-up restarts from the log and checkpoint an untimed prior phase left
//! behind; then an open loop at one fixed offered rate runs, timed from
//! each request's due time, and then a closed loop with a fixed window of
//! outstanding requests. This is the write-heavy use of the store: loads,
//! inserts, LRU evictions, log appends and recovery, with admission
//! splitting traffic between the reader and the unspecialized fragment.

use crate::gen::{self, stream, Zipf};
use crate::load::{self, Service};
use crate::report::{peak_rss_mb, RunResult};
use crate::serve::{answer, check_answer, poll, runner_options, Answer, Seen, ServeLayers};
use crate::spans::{SpanId, Tracer};
use crate::staging::StagingLayers;
use crate::stats::{median, quantile, quantile_ns, ratio, sliced_quantile};
use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::{EvalOptions, Value};
use ds_runtime::{
    recover_or_degrade, Admission, CacheStore, Daemon, DaemonConfig, DaemonResponse,
    FileWalStorage, Session, StagedArtifact, Wal,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of one `churn` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Distinct invariant contexts requests are drawn from.
    pub universe: usize,
    /// Store capacity (sealed caches kept).
    pub capacity: usize,
    /// Offered rate of the open loop, requests per second.
    pub rate: f64,
    /// Outstanding requests in the closed loop.
    pub window: usize,
    /// Length of the untimed prior phase that leaves the log behind.
    pub prior: Duration,
    /// Set-ups timed; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Config {
    /// The measured configuration.
    pub const FULL: Config = Config {
        universe: 512,
        capacity: 64,
        rate: 40_000.0,
        window: 32,
        prior: Duration::from_millis(300),
        setup_reps: 11,
    };

    /// A seconds-long smoke configuration for tests.
    pub const SHORT: Config = Config {
        universe: 64,
        capacity: 8,
        rate: 2000.0,
        window: 8,
        prior: Duration::from_millis(50),
        setup_reps: 2,
    };
}

/// Zipf exponent of the context draw: YCSB's default request
/// distribution constant (Cooper et al., "Benchmarking Cloud Serving
/// Systems with YCSB", SoCC 2010).
const ZIPF_S: f64 = 0.99;
/// Log records per group-commit flush, and flushes between periodic
/// checkpoints: the settings of the repository's own grouped-WAL
/// experiment (`exp_wal_overhead`, reported in `BENCH_serve.json`).
const GROUP_COMMIT: u64 = 16;
const CHECKPOINT_EVERY: u64 = 8;
/// Open-loop requests are numbered from 0, closed-loop ones from here, so
/// the two phases draw different inputs.
const CLOSED_BASE: u64 = 1 << 32;
/// The prior phase's requests are numbered from here.
const PRIOR_BASE: u64 = 1 << 40;
/// Request spans are recorded for one request in this many.
const REQUEST_SPAN_EVERY: u64 = 16;

/// The kernel's source text, from the workload family's own definition.
fn kernel() -> &'static str {
    ds_bench::KERNELS
        .iter()
        .find(|k| k.name == "mat3vec")
        .expect("the W-MAT family defines mat3vec")
        .src
}

/// Argument vector of request `seq`: a Zipf-drawn invariant context
/// `(a, b, c)` and a fresh varying vector `(x0, x1, x2)`. Regenerable from
/// the sequence number, so checking needs no stored inputs.
fn request_args(seed: u64, zipf: &Zipf, seq: u64) -> Vec<Value> {
    let mut r = gen::at(seed, stream::REQUESTS, seq);
    let ctx = zipf.sample(&mut r) as u64;
    let mut c = gen::at(seed, stream::CONTEXTS, ctx);
    let coord = |rng: &mut gen::Rng| Value::Float(rng.unit() * 8.0 - 4.0);
    let mut args: Vec<Value> = (0..3).map(|_| coord(&mut c)).collect();
    args.extend((0..3).map(|_| coord(&mut r)));
    args
}

/// The daemon plus the bookkeeping of the answers it gives.
struct Served<'a> {
    daemon: &'a Daemon,
    rx: &'a Receiver<DaemonResponse>,
    seed: u64,
    zipf: &'a Zipf,
    base: u64,
    tracer: &'a Tracer,
    answers: Vec<(u64, Answer)>,
    seen: Vec<(u64, Seen)>,
    submit_ns: Vec<u64>,
    /// Wait for answers with [`poll`] (the open loop) instead of blocking.
    poll: bool,
}

impl Service for Served<'_> {
    fn submit(&mut self, seq: u64) -> bool {
        let seq = self.base + seq;
        let args = request_args(self.seed, self.zipf, seq);
        let t = Instant::now();
        let ok = self.daemon.submit(seq, args, None).is_ok();
        if self.tracer.is_on() {
            self.submit_ns.push(t.elapsed().as_nanos() as u64);
            self.seen.push((
                seq,
                Seen {
                    submit_ns: self.tracer.ns(t),
                    ..Seen::default()
                },
            ));
        }
        if !ok {
            self.answers.push((seq, Err("refused".into())));
        }
        ok
    }

    fn wait(&mut self, timeout: Duration) -> Option<u64> {
        let resp = if self.poll {
            poll(self.rx, timeout)?
        } else {
            self.rx.recv_timeout(timeout).ok()?
        };
        if self.tracer.is_on() {
            // Submissions are recorded in order, and every answer follows
            // its submission, so the entry is found by binary search.
            if let Ok(i) = self.seen.binary_search_by_key(&resp.seq, |(q, _)| *q) {
                let s = &mut self.seen[i].1;
                s.recv_ns = self.tracer.ns(Instant::now());
                s.queue_ns = resp.queue_nanos;
                s.cost = resp.result.as_ref().map_or(0, |o| o.cost);
            }
        }
        self.answers.push((resp.seq, answer(&resp.result)));
        Some(resp.seq - self.base)
    }
}

/// Where the log and checkpoint live for one run.
struct Dir(PathBuf);

impl Dir {
    fn new() -> Dir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("churn-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the log directory");
        Dir(dir)
    }
    fn log(&self) -> PathBuf {
        self.0.join("wal.log")
    }
    fn checkpoint(&self) -> PathBuf {
        self.0.join("wal.checkpoint")
    }
    fn bytes(&self) -> u64 {
        [self.log(), self.checkpoint()]
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One started service: the daemon, its log, and what set-up cost.
struct Started {
    artifact: Arc<StagedArtifact>,
    daemon: Daemon,
    rx: Receiver<DaemonResponse>,
    wal: Arc<Wal>,
}

fn daemon_config(tracing: bool) -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        max_queue: 1 << 16,
        deadline_ms: None,
        admission: Admission::Auto,
        runner: runner_options(),
        tracing,
    }
}

/// Samples of one set-up, for the per-layer metrics.
#[derive(Default)]
struct SetupLayers {
    staging: StagingLayers,
    recover_ns: Vec<u64>,
    recovered: u64,
    start_ns: Vec<u64>,
}

/// Specializes the kernel, recovers the store from the log and checkpoint
/// in `dir`, reopens the log and starts the daemon.
fn start(
    cfg: &Config,
    dir: &Dir,
    layers: &mut SetupLayers,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Started {
    let timed = |name: &'static str, t: Instant, tracer: &mut Tracer| -> u64 {
        tracer.record(name, parent, None, t, Instant::now());
        t.elapsed().as_nanos() as u64
    };
    let t = Instant::now();
    let program = ds_lang::parse_program(kernel()).expect("kernel parses");
    ds_lang::typecheck(&program).expect("kernel type-checks");
    layers.staging.parse.push(timed("parse", t, tracer));
    let partition = InputPartition::varying(["x0", "x1", "x2"]);
    let t = Instant::now();
    let spec = specialize(&program, "mat3vec", &partition, &SpecializeOptions::new())
        .expect("kernel specializes");
    let ns = timed("specialize", t, tracer);
    layers.staging.add_spec(&spec, ns);
    let t = Instant::now();
    let artifact = Arc::new(StagedArtifact::new(&spec, &partition));
    layers
        .staging
        .compile
        .push(timed("artifact.new", t, tracer));
    let t = Instant::now();
    let log = std::fs::read_to_string(dir.log()).unwrap_or_default();
    let ckpt = std::fs::read_to_string(dir.checkpoint()).ok();
    let (rec, _damaged_checkpoint) = recover_or_degrade(ckpt.as_deref(), &log, artifact.layout());
    layers.recover_ns.push(timed("recover", t, tracer));
    layers.recovered = rec.entries.len() as u64;
    let store = Arc::new(CacheStore::new(cfg.capacity));
    Session::new(Arc::clone(&artifact), Arc::clone(&store), runner_options()).adopt_recovery(&rec);
    let wal = Arc::new(Wal::open(
        Box::new(FileWalStorage::new(dir.log(), dir.checkpoint())),
        artifact.layout_fingerprint(),
        rec.next_lsn,
        Some(CHECKPOINT_EVERY),
    ));
    wal.set_group_commit(GROUP_COMMIT);
    if rec.damaged_tail {
        wal.reset_log(&log[..rec.valid_log_bytes])
            .expect("rewrite the log's valid prefix");
    }
    let t = Instant::now();
    let (daemon, rx) = Daemon::start(
        Arc::clone(&artifact),
        store,
        Some(Arc::clone(&wal)),
        daemon_config(tracer.is_on()),
    );
    layers.start_ns.push(timed("daemon.start", t, tracer));
    Started {
        artifact,
        daemon,
        rx,
        wal,
    }
}

/// One closed-loop round, reduced to what is reported.
struct Round {
    rps: f64,
    rtt_p50_ns: f64,
    rtt_p90_ns: f64,
    completed: u64,
}

/// What one pass (prior phase, set-up, open loop, closed loop) measured.
struct Pass {
    setup_ns: Vec<u64>,
    due: Vec<u64>,
    open: load::OpenLoop,
    closed: Vec<Round>,
    setup: SetupLayers,
    serve: ServeLayers,
    submit_ns: Vec<u64>,
    join_ns: u64,
    wal_bytes: u64,
}

/// Runs `churn` for about `seconds`. With `tracer` on, the time is split
/// between an untraced and a traced pass, and the result carries the
/// per-layer metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64, tracer: &mut Tracer) -> RunResult {
    let mut res = RunResult::default();
    let zipf = Zipf::new(cfg.universe, ZIPF_S);
    if tracer.is_on() {
        let half = seconds / 2.0;
        let base = pass(cfg, seed, &zipf, half, &mut res, &mut Tracer::new(false));
        let p = pass(cfg, seed, &zipf, half, &mut res, tracer);
        report_pass(&mut res, cfg, &base);
        let v = &mut res.layers;
        p.setup.staging.write(v);
        p.serve.write(v);
        v.set(
            "interp.compile_ms",
            quantile_ns(&p.setup.staging.compile, 0.5) / 1e6,
        );
        v.set("runtime.submit_ns_p50", quantile_ns(&p.submit_ns, 0.5));
        v.set(
            "runtime.daemon_start_ms",
            quantile_ns(&p.setup.start_ns, 0.5) / 1e6,
        );
        v.set("runtime.join_ms", p.join_ns as f64 / 1e6);
        v.set("runtime.wal_bytes", p.wal_bytes as f64);
        v.set(
            "runtime.recover_ms",
            quantile_ns(&p.setup.recover_ns, 0.5) / 1e6,
        );
        v.set("runtime.recovered_caches", p.setup.recovered as f64);
        v.set(
            "bench.gen_late_us_p99",
            quantile_ns(&base.open.late_ns, 0.99) / 1e3,
        );
        let (with, without) = (
            quantile_ns(&p.open.latency_ns, 0.5),
            quantile_ns(&base.open.latency_ns, 0.5),
        );
        v.set("bench.trace_overhead", ratio(with - without, without));
    } else {
        let p = pass(cfg, seed, &zipf, seconds, &mut res, tracer);
        report_pass(&mut res, cfg, &p);
        res.end_to_end.set("peak_rss_mb", peak_rss_mb());
    }
    res
}

/// Time slices the open loop is cut into for its sliced quantiles (see
/// [`sliced_quantile`]), and rounds the closed loop runs in.
const SLICES: usize = 20;

/// Reported latencies come from the best quarter of the slices or rounds,
/// throughput from the best quarter of the rounds: on a small shared
/// machine the host deschedules the process often enough that medians
/// drift with its load (see the README).
const BEST_QUARTER: f64 = 0.25;

fn report_pass(res: &mut RunResult, cfg: &Config, p: &Pass) {
    let setup_s = median(&p.setup_ns.iter().map(|&x| x as f64).collect::<Vec<_>>()) / 1e9;
    let open: Vec<(u64, f64)> = p
        .open
        .done_at
        .iter()
        .zip(&p.due)
        .filter_map(|(done, &due)| done.map(|d| (due, d.saturating_sub(due) as f64)))
        .collect();
    let end = p.due.last().map_or(1, |&d| d + 1);
    let p50 = sliced_quantile(&open, end, SLICES, 0.5, BEST_QUARTER);
    let p90 = sliced_quantile(&open, end, SLICES, 0.9, BEST_QUARTER);
    let p99 = sliced_quantile(&open, end, SLICES, 0.99, BEST_QUARTER);
    let rounds = |f: fn(&Round) -> f64| p.closed.iter().map(f).collect::<Vec<_>>();
    let rtt = quantile(&rounds(|r| r.rtt_p50_ns), BEST_QUARTER);
    let rtt_p90 = quantile(&rounds(|r| r.rtt_p90_ns), BEST_QUARTER);
    let rps = quantile(&rounds(|r| r.rps), 1.0 - BEST_QUARTER);
    let closed_requests: u64 = p.closed.iter().map(|c| c.completed).sum();
    res.named.extend([
        ("setup_s", setup_s, "s"),
        ("latency_us_p50", p50 / 1e3, "us"),
        ("latency_us_p90", p90 / 1e3, "us"),
        ("latency_us_p99", p99 / 1e3, "us"),
        (
            "latency_us_p99_whole_run",
            quantile_ns(&p.open.latency_ns, 0.99) / 1e3,
            "us",
        ),
        ("closed_rtt_us_p50", rtt / 1e3, "us"),
        ("closed_rtt_us_p90", rtt_p90 / 1e3, "us"),
        ("throughput_rps", rps, "1/s"),
        ("offered_rps", cfg.rate, "1/s"),
        (
            "gen_late_us_p99",
            quantile_ns(&p.open.late_ns, 0.99) / 1e3,
            "us",
        ),
        ("open_requests", p.open.latency_ns.len() as f64, "count"),
        ("closed_requests", closed_requests as f64, "count"),
    ]);
    let e = &mut res.end_to_end;
    e.set("setup_s", setup_s);
    e.set("latency_ms_p50", p50 / 1e6);
    // The closed loop's tail, not the open loop's: on a small shared
    // machine the open-loop tail is set by how the host schedules the
    // process (see the README).
    e.set("latency_ms_tail", rtt_p90 / 1e6);
    e.set("cycle_ms_p50", rtt / 1e6);
    e.set("answers_per_s", rps);
}

fn pass(
    cfg: &Config,
    seed: u64,
    zipf: &Zipf,
    seconds: f64,
    res: &mut RunResult,
    tracer: &mut Tracer,
) -> Pass {
    let traced = tracer.is_on();
    let dir = Dir::new();
    // Untimed prior phase: serve a while from a cold store, leaving a log
    // and periodic checkpoints behind.
    let mut off = Tracer::new(false);
    let prior = start(cfg, &dir, &mut SetupLayers::default(), &mut off, 0);
    let mut svc = served(&prior, seed, zipf, PRIOR_BASE, &off);
    let warm = load::closed_loop(&mut svc, cfg.window, cfg.prior);
    let prior_answers = std::mem::take(&mut svc.answers);
    drop(svc);
    prior.daemon.join();
    prior.wal.flush().expect("flush the prior phase's log");
    tally(res, warm.submitted, prior_answers.len());
    check(&prior.artifact, seed, zipf, &prior_answers, res, None);
    drop(prior);

    // Timed set-ups; the last one serves.
    let mut setup = SetupLayers::default();
    let mut setup_ns = Vec::new();
    let reps = cfg.setup_reps.max(1);
    let mut live = None;
    for rep in 0..reps {
        let t = Instant::now();
        let root = tracer.open("setup", 0);
        let s = start(cfg, &dir, &mut setup, tracer, root);
        tracer.close(root);
        setup_ns.push(t.elapsed().as_nanos() as u64);
        if rep + 1 < reps {
            s.daemon.join();
        } else {
            live = Some(s);
        }
    }
    let live = live.expect("at least one set-up");
    let phase = Duration::from_secs_f64(seconds / 2.0);
    let due = gen::arrival_schedule(
        &mut gen::Rng::new(seed, stream::ARRIVALS),
        cfg.rate,
        phase.as_nanos() as u64,
    );
    let t_open = Instant::now();
    let mut svc = served(&live, seed, zipf, 0, tracer);
    svc.poll = true;
    let open = load::open_loop(&mut svc, &due);
    svc.poll = false;
    let t_closed = Instant::now();
    tally(res, due.len() as u64, svc.answers.len());
    let mut staging = traced.then_some(&mut setup.staging);
    check(
        &live.artifact,
        seed,
        zipf,
        &svc.answers,
        res,
        staging.as_deref_mut(),
    );
    svc.answers.clear();
    // The closed loop runs in rounds, each checked (untimed) and reduced
    // to its medians before the next starts, so the memory the benchmark's
    // own bookkeeping holds (part of `peak_rss_mb`) stays small and does
    // not grow with throughput.
    let mut closed = Vec::with_capacity(SLICES);
    for round in 0..SLICES as u64 {
        svc.base = CLOSED_BASE + (round << 24);
        let c = load::closed_loop(&mut svc, cfg.window, phase / SLICES as u32);
        tally(res, c.submitted, svc.answers.len());
        check(
            &live.artifact,
            seed,
            zipf,
            &svc.answers,
            res,
            staging.as_deref_mut(),
        );
        svc.answers.clear();
        closed.push(Round {
            rps: ratio(c.completed as f64, c.elapsed.as_secs_f64()),
            rtt_p50_ns: quantile_ns(&c.latency_ns, 0.5),
            rtt_p90_ns: quantile_ns(&c.latency_ns, 0.9),
            completed: c.completed,
        });
    }
    let Served {
        seen, submit_ns, ..
    } = svc;
    let t = Instant::now();
    let report = live.daemon.join();
    let join_ns = t.elapsed().as_nanos() as u64;
    live.wal.flush().expect("flush the log");
    let mut serve = ServeLayers::default();
    if traced {
        let open_id = tracer.record("phase.open", 0, None, t_open, t_closed);
        let closed_id = tracer.record("phase.closed", 0, None, t_closed, t);
        tracer.record("daemon.join", 0, None, t, t + Duration::from_nanos(join_ns));
        for ((seq, s), submit) in seen.iter().zip(&submit_ns) {
            if !seq.is_multiple_of(REQUEST_SPAN_EVERY) {
                continue;
            }
            let parent = if *seq >= CLOSED_BASE {
                closed_id
            } else {
                open_id
            };
            let req = tracer.record_ns("request", parent, Some(*seq), s.submit_ns, s.recv_ns);
            tracer.record_ns(
                "daemon.submit",
                req,
                Some(*seq),
                s.submit_ns,
                s.submit_ns + submit,
            );
        }
        serve.absorb(&report, |seq| {
            seen.binary_search_by_key(&seq, |(q, _)| *q)
                .ok()
                .map(|i| seen[i].1)
        });
    }
    Pass {
        setup_ns,
        due,
        open,
        closed,
        setup,
        serve,
        submit_ns,
        join_ns,
        wal_bytes: dir.bytes(),
    }
}

/// Counts `attempted` requests, of which those with no answer at all
/// (never sent back) fail; the answered ones are scored by [`check`].
fn tally(res: &mut RunResult, attempted: u64, answered: usize) {
    res.attempted += attempted;
    for _ in answered as u64..attempted {
        check_answer(None, None, res);
    }
}

fn served<'a>(
    s: &'a Started,
    seed: u64,
    zipf: &'a Zipf,
    base: u64,
    tracer: &'a Tracer,
) -> Served<'a> {
    Served {
        daemon: &s.daemon,
        rx: &s.rx,
        seed,
        zipf,
        base,
        tracer,
        answers: Vec::new(),
        seen: Vec::new(),
        submit_ns: Vec::new(),
        poll: false,
    }
}

/// Compares every answer bit-exactly against the reference (the
/// unspecialized fragment, tree-walked); a refused request's answer is
/// its error, and fails.
fn check(
    artifact: &StagedArtifact,
    seed: u64,
    zipf: &Zipf,
    answers: &[(u64, Answer)],
    res: &mut RunResult,
    mut timing: Option<&mut StagingLayers>,
) {
    for (seq, got) in answers {
        let args = request_args(seed, zipf, *seq);
        let t = Instant::now();
        let want = artifact.reference(&args, EvalOptions::default());
        let nanos = t.elapsed().as_nanos() as u64;
        if let (Some(layers), Ok(out)) = (timing.as_deref_mut(), &want) {
            layers.add_unspec(nanos, out.cost);
        }
        check_answer(Some(got), Some(&answer(&want)), res);
    }
}
