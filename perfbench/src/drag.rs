//! `drag`: the paper's §5 interactive shading session.
//!
//! A seeded sequence of (shader, control) partitions is drawn from the
//! catalog's 131. Each *switch* specializes the shader on every input but
//! the control, builds the staged artifact, starts a fresh two-worker
//! daemon over a store with room for every pixel's cache, and renders a
//! loader frame; then the user drags the control along a seeded slider
//! walk, one frame per position. Every frame submits every pixel from this
//! thread and waits for all the answers. This is the read-heavy use: each
//! request probes a different pixel's sealed cache, so store probe, seal
//! validation, daemon hand-off and the scalar reader set the frame time,
//! while each switch puts the specializer, the compiler and one loader
//! frame on the user's critical path.

use crate::gen::{self, stream, Rng};
use crate::report::{peak_rss_mb, RunResult};
use crate::serve::{answer, check_answer, runner_options, shader_args, Answer, Seen, ServeLayers};
use crate::spans::{SpanId, Tracer};
use crate::staging::StagingLayers;
use crate::stats::{median, quantile, quantile_ns, ratio};
use ds_core::{specialize, InputPartition, SpecializeOptions};
use ds_interp::{EvalOptions, Value};
use ds_runtime::{Admission, CacheStore, Daemon, DaemonConfig, DaemonResponse, StagedArtifact};
use ds_shaders::{all_shaders, pixel_inputs, Shader};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of one `drag` run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Drag frames rendered after each switch's loader frame.
    pub drag_frames: usize,
    /// Only the first this-many partitions of the order (all when `None`).
    pub partitions: Option<usize>,
    /// One pixel in this many, at a seeded offset per frame, is checked
    /// against the reference.
    pub check_every: usize,
    /// Set-ups timed; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Config {
    /// The measured configuration: 64x48 = 3072-pixel frames.
    pub const FULL: Config = Config {
        width: 64,
        height: 48,
        drag_frames: 3,
        partitions: None,
        check_every: 32,
        setup_reps: 11,
    };

    /// A seconds-long smoke configuration for tests.
    pub const SHORT: Config = Config {
        width: 6,
        height: 4,
        drag_frames: 2,
        partitions: Some(3),
        check_every: 3,
        setup_reps: 1,
    };

    fn pixels(&self) -> usize {
        (self.width * self.height) as usize
    }
}

const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// Request spans are recorded for one request in this many.
const REQUEST_SPAN_EVERY: u64 = 16;

/// One daemon serving one specialization.
struct Live {
    artifact: Arc<StagedArtifact>,
    daemon: Daemon,
    rx: Receiver<DaemonResponse>,
    first_seq: u64,
    seen: Vec<Seen>,
}

/// What one session measured.
#[derive(Default)]
struct Session {
    frame_ns: Vec<u64>,
    switch_ns: Vec<u64>,
    drag_pixels: u64,
    start_ns: Vec<u64>,
    join_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    serve: ServeLayers,
    staging: StagingLayers,
}

/// Runs `drag` for about `seconds`. With `tracer` on, the time is split
/// between an untraced and a traced half, and the result carries the
/// per-layer metrics.
pub fn run(cfg: &Config, seed: u64, seconds: f64, tracer: &mut Tracer) -> RunResult {
    let traced = tracer.is_on();
    let mut res = RunResult::default();
    let controls: Vec<usize> = all_shaders().iter().map(|s| s.controls.len()).collect();
    let mut order = gen::partition_order(seed, &controls);
    order.truncate(cfg.partitions.unwrap_or(order.len()));
    let (shaders, setup_ns, parse_ns) = setup(cfg, &order[0]);
    let pixels: Vec<Vec<Value>> = (0..cfg.height)
        .flat_map(|y| (0..cfg.width).map(move |x| (x, y)))
        .map(|(x, y)| pixel_inputs(x, y, cfg.width, cfg.height).to_args())
        .collect();
    let setup_s = median(&ns_f64(&setup_ns)) / 1e9;
    res.named.push(("setup_s", setup_s, "s"));
    if traced {
        let half = seconds / 2.0;
        let mut off = Tracer::new(false);
        let base = session(
            cfg, seed, &shaders, &pixels, &order, half, &mut res, &mut off,
        );
        let mut s = session(cfg, seed, &shaders, &pixels, &order, half, &mut res, tracer);
        s.staging.parse = parse_ns;
        let v = &mut res.layers;
        s.staging.write(v);
        s.serve.write(v);
        v.set(
            "interp.compile_ms",
            quantile_ns(&tracer.durations("artifact.new"), 0.5) / 1e6,
        );
        v.set("runtime.submit_ns_p50", quantile_ns(&s.submit_ns, 0.5));
        v.set(
            "runtime.daemon_start_ms",
            quantile_ns(&s.start_ns, 0.5) / 1e6,
        );
        v.set("runtime.join_ms", quantile_ns(&s.join_ns, 0.5) / 1e6);
        let (with, without) = (
            quantile_ns(&s.frame_ns, 0.5),
            quantile_ns(&base.frame_ns, 0.5),
        );
        v.set("bench.trace_overhead", ratio(with - without, without));
        report_session(&mut res, &s, setup_s);
    } else {
        let s = session(
            cfg, seed, &shaders, &pixels, &order, seconds, &mut res, tracer,
        );
        report_session(&mut res, &s, setup_s);
        res.end_to_end.set("peak_rss_mb", peak_rss_mb());
    }
    res
}

fn ns_f64(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&x| x as f64).collect()
}

fn report_session(res: &mut RunResult, s: &Session, setup_s: f64) {
    let frames = ns_f64(&s.frame_ns);
    let ms = |q: f64, v: &[f64]| quantile(v, q) / 1e6;
    let frame_p50 = ms(0.5, &frames);
    let frame_p90 = ms(0.9, &frames);
    let switch_p50 = ms(0.5, &ns_f64(&s.switch_ns));
    let busy_s = frames.iter().sum::<f64>() / 1e9;
    let pixels_per_s = ratio(s.drag_pixels as f64, busy_s);
    res.named.extend([
        ("frame_ms_p50", frame_p50, "ms"),
        ("frame_ms_p90", frame_p90, "ms"),
        ("switch_ms_p50", switch_p50, "ms"),
        ("frames", frames.len() as f64, "count"),
        ("switches", s.switch_ns.len() as f64, "count"),
    ]);
    let e = &mut res.end_to_end;
    e.set("setup_s", setup_s);
    e.set("latency_ms_p50", frame_p50);
    e.set("latency_ms_tail", frame_p90);
    e.set("cycle_ms_p50", switch_p50);
    e.set("answers_per_s", pixels_per_s);
}

/// Times `reps` set-ups: catalog load, then the first partition's
/// specialization, artifact and daemon. Returns the catalog and the
/// set-up and catalog-load times (ns).
fn setup(cfg: &Config, first: &(usize, usize)) -> (Vec<Shader>, Vec<u64>, Vec<u64>) {
    let mut setup_ns = Vec::new();
    let mut parse_ns = Vec::new();
    let mut catalog = Vec::new();
    for _ in 0..cfg.setup_reps.max(1) {
        let t0 = Instant::now();
        catalog = all_shaders();
        let loaded = Instant::now();
        let shader = &catalog[first.0];
        let partition = InputPartition::varying([shader.controls[first.1].name]);
        let spec = specialize(
            &shader.program,
            "shade",
            &partition,
            &SpecializeOptions::new(),
        )
        .expect("catalog partitions specialize");
        let artifact = Arc::new(StagedArtifact::new(&spec, &partition));
        let (daemon, _rx) = start_daemon(cfg, artifact, false);
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        parse_ns.push((loaded - t0).as_nanos() as u64);
        daemon.join();
    }
    (catalog, setup_ns, parse_ns)
}

fn start_daemon(
    cfg: &Config,
    artifact: Arc<StagedArtifact>,
    tracing: bool,
) -> (Daemon, Receiver<DaemonResponse>) {
    let store = Arc::new(CacheStore::new(cfg.pixels()));
    Daemon::start(
        artifact,
        store,
        None,
        DaemonConfig {
            workers: 2,
            max_queue: cfg.pixels() + 64,
            deadline_ms: None,
            admission: Admission::Always,
            runner: runner_options(),
            tracing,
        },
    )
}

/// The argument vectors of one frame: every pixel, controls at their
/// defaults except `control`, set to `value`.
fn frame_args(
    pixels: &[Vec<Value>],
    shader: &Shader,
    control: usize,
    value: f64,
) -> Vec<Vec<Value>> {
    pixels
        .iter()
        .map(|p| shader_args(p, shader, control, value))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn session(
    cfg: &Config,
    seed: u64,
    shaders: &[Shader],
    pixels: &[Vec<Value>],
    order: &[(usize, usize)],
    seconds: f64,
    res: &mut RunResult,
    tracer: &mut Tracer,
) -> Session {
    let traced = tracer.is_on();
    let mut s = Session::default();
    let mut slider = Rng::new(seed, stream::SLIDER);
    let mut sample = Rng::new(seed, stream::SAMPLE);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut live: Option<Live> = None;
    let mut next_seq = 0u64;
    // At least one complete pass over the order runs, so every seed
    // measures the same partitions.
    for (i, &(si, ci)) in order.iter().cycle().enumerate() {
        if i >= order.len() && start.elapsed() >= budget {
            break;
        }
        let shader = &shaders[si];
        let control = shader.controls[ci];
        let walk = gen::slider_walk(
            &mut slider,
            &control.sweep(),
            control.default,
            cfg.drag_frames,
        );
        let loader_frame = frame_args(pixels, shader, ci, control.default);
        if let Some(old) = live.take() {
            finish(old, &mut s, tracer);
        }
        // The switch: specialize, stage, start serving, render the loader
        // frame.
        let t0 = Instant::now();
        let root = tracer.open("switch", 0);
        let partition = InputPartition::varying([control.name]);
        let t_spec = Instant::now();
        let spec = specialize(
            &shader.program,
            "shade",
            &partition,
            &SpecializeOptions::new(),
        )
        .expect("catalog partitions specialize");
        let spec_ns = t_spec.elapsed().as_nanos() as u64;
        tracer.record("specialize", root, None, t_spec, Instant::now());
        let artifact = Arc::new(tracer.time("artifact.new", root, || {
            StagedArtifact::new(&spec, &partition)
        }));
        let t_start = Instant::now();
        let (daemon, rx) = start_daemon(cfg, Arc::clone(&artifact), traced);
        s.start_ns.push(t_start.elapsed().as_nanos() as u64);
        tracer.record("daemon.start", root, None, t_start, Instant::now());
        let mut l = Live {
            artifact,
            daemon,
            rx,
            first_seq: next_seq,
            seen: Vec::new(),
        };
        let answers = render(
            &mut l,
            &mut next_seq,
            loader_frame,
            tracer,
            root,
            &mut s,
            "frame.loader",
        );
        tracer.close(root);
        s.switch_ns.push(t0.elapsed().as_nanos() as u64);
        if traced {
            s.staging.add_spec(&spec, spec_ns);
        }
        check(
            cfg,
            &l,
            pixels,
            shader,
            ci,
            control.default,
            &answers,
            &mut sample,
            res,
            &mut s,
            tracer,
        );
        for &value in &walk {
            let frame = frame_args(pixels, shader, ci, value);
            let t = Instant::now();
            let answers = render(
                &mut l,
                &mut next_seq,
                frame,
                tracer,
                0,
                &mut s,
                "frame.drag",
            );
            s.frame_ns.push(t.elapsed().as_nanos() as u64);
            s.drag_pixels += pixels.len() as u64;
            check(
                cfg,
                &l,
                pixels,
                shader,
                ci,
                value,
                &answers,
                &mut sample,
                res,
                &mut s,
                tracer,
            );
        }
        live = Some(l);
    }
    if let Some(old) = live.take() {
        finish(old, &mut s, tracer);
    }
    s
}

/// Drains and joins a switch's daemon, folding its report into the
/// per-layer samples when tracing.
fn finish(l: Live, s: &mut Session, tracer: &mut Tracer) {
    let t = Instant::now();
    let report = l.daemon.join();
    s.join_ns.push(t.elapsed().as_nanos() as u64);
    tracer.record("daemon.join", 0, None, t, Instant::now());
    if tracer.is_on() {
        let first = l.first_seq;
        let seen = &l.seen;
        s.serve.absorb(&report, |seq| {
            seq.checked_sub(first)
                .and_then(|i| seen.get(i as usize))
                .copied()
        });
    }
}

/// Submits one frame from this thread and waits for every answer; a
/// pixel whose request was refused or never answered has none.
fn render(
    l: &mut Live,
    next_seq: &mut u64,
    frame: Vec<Vec<Value>>,
    tracer: &mut Tracer,
    parent: SpanId,
    s: &mut Session,
    name: &'static str,
) -> Vec<Option<Answer>> {
    let t_frame = Instant::now();
    let n = frame.len();
    let first = *next_seq;
    *next_seq += n as u64;
    let traced = tracer.is_on();
    if traced {
        l.seen
            .resize((*next_seq - l.first_seq) as usize, Seen::default());
    }
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut pending = 0usize;
    for (i, args) in frame.into_iter().enumerate() {
        let seq = first + i as u64;
        let t = Instant::now();
        let submitted = l.daemon.submit(seq, args, None);
        if traced {
            let end = Instant::now();
            s.submit_ns.push((end - t).as_nanos() as u64);
            l.seen[(seq - l.first_seq) as usize].submit_ns = tracer.ns(t);
            if seq.is_multiple_of(REQUEST_SPAN_EVERY) {
                tracer.record("daemon.submit", parent, Some(seq), t, end);
            }
        }
        if submitted.is_ok() {
            pending += 1;
        }
        while let Ok(resp) = l.rx.try_recv() {
            answers[(resp.seq - first) as usize] = Some(receive(l, &resp, tracer));
            pending -= 1;
        }
    }
    while pending > 0 {
        match l.rx.recv_timeout(ANSWER_TIMEOUT) {
            Ok(resp) => {
                answers[(resp.seq - first) as usize] = Some(receive(l, &resp, tracer));
                pending -= 1;
            }
            Err(_) => break,
        }
    }
    if traced {
        let frame_id = tracer.record(name, parent, None, t_frame, Instant::now());
        for seq in (first..*next_seq).filter(|q| q.is_multiple_of(REQUEST_SPAN_EVERY)) {
            let seen = l.seen[(seq - l.first_seq) as usize];
            tracer.record_ns("request", frame_id, Some(seq), seen.submit_ns, seen.recv_ns);
        }
    }
    answers
}

/// Takes one answer off the channel, noting when it arrived.
fn receive(l: &mut Live, resp: &DaemonResponse, tracer: &Tracer) -> Answer {
    if tracer.is_on() {
        let seen = &mut l.seen[(resp.seq - l.first_seq) as usize];
        seen.recv_ns = tracer.ns(Instant::now());
        seen.queue_ns = resp.queue_nanos;
        seen.cost = resp.result.as_ref().map_or(0, |o| o.cost);
    }
    answer(&resp.result)
}

/// Scores every answer of a frame: each must arrive and succeed, and a
/// seeded share is compared bit-exactly against the reference (the
/// unspecialized fragment, tree-walked).
#[allow(clippy::too_many_arguments)]
fn check(
    cfg: &Config,
    l: &Live,
    pixels: &[Vec<Value>],
    shader: &Shader,
    control: usize,
    value: f64,
    answers: &[Option<Answer>],
    sample: &mut Rng,
    res: &mut RunResult,
    s: &mut Session,
    tracer: &mut Tracer,
) {
    let every = cfg.check_every.max(1);
    let offset = sample.below(every);
    let root = tracer.open("check", 0);
    res.attempted += answers.len() as u64;
    for (p, got) in answers.iter().enumerate() {
        if p % every != offset {
            check_answer(got.as_ref(), None, res);
            continue;
        }
        let args = shader_args(&pixels[p], shader, control, value);
        let t = Instant::now();
        let want = l.artifact.reference(&args, EvalOptions::default());
        if tracer.is_on() {
            tracer.record("reference", root, None, t, Instant::now());
            if let Ok(out) = &want {
                s.staging
                    .add_unspec(t.elapsed().as_nanos() as u64, out.cost);
            }
        }
        check_answer(got.as_ref(), Some(&answer(&want)), res);
    }
    tracer.close(root);
}
