//! `browse`: one in-process node (`serve`) over loopback HTTP.
//!
//! Two keep-alive connections each serve eight private viewer sessions
//! round-robin (closed loop). Sessions use disc spots on analytic fields,
//! each with its own seed. Each viewer's seeded script mostly scrubs back
//! to recently seen frames (cache hits), sometimes steps to the next new
//! frame (a miss, one synthesis), and now and then leaves its field: it
//! steers back to the field it browsed before (a write; those frames are
//! still cached, so the revisit hits), scrubs there, then steers on to a
//! fresh field. About three fetches in four hit, so `frame_p50_us` sits
//! among hits (transport plus cache) and `frame_p99_us` among misses
//! (session plus synthesis).
//!
//! The traced run replays the same script against `NodeCore` with no
//! sockets, takes queue waits, cache counters and stage means from
//! `/stats`, and replays one miss frame's quads through `PipeCore` on one
//! thread.

use crate::common::{
    direct_frame_bytes, ensure, ledger_row, peak_rss_mb, repeated_setup, Report, Reservoir, Rng,
    Samples, Scale, SpanLog, OVERHEAD_SLICES,
};
use softpipe::pipe::{PipeCore, RenderCommand};
use spotnoise::json::Json;
use spotnoise::synth::{job_commands, preamble_commands};
use spotnoise::{PositionMode, SpotAnimator, SynthesisContext};
use spotnoise_service::session::parse_session_id;
use spotnoise_service::spec::service_domain;
use spotnoise_service::{
    serve, FieldSpec, NodeCore, ServiceClient, ServiceHandle, ServiceOptions, SessionSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    texture_size: usize,
    spot_count: usize,
    connections: usize,
    viewers_per_connection: usize,
    /// Frames a viewer steps through on one field before it moves on.
    epoch_frames: i64,
    /// How far back a scrub may reach behind the viewer's newest frame.
    scrub_window: u64,
    /// Chance an op steps to a new frame (otherwise it scrubs).
    p_step: f64,
    /// Chance an op leaves the field early.
    p_leave: f64,
    cache_bytes: usize,
    setups: usize,
    warmup_ops: usize,
    oracle_frames: usize,
    /// Ops per viewer of the traced `NodeCore` replay.
    node_ops: usize,
    /// The band the fetch hit ratio must stay in.
    hit_band: (f64, f64),
}

impl Params {
    pub fn new(scale: Scale) -> Params {
        let full = Params {
            texture_size: 128,
            spot_count: 600,
            connections: 2,
            viewers_per_connection: 8,
            epoch_frames: 12,
            scrub_window: 6,
            p_step: 0.26,
            p_leave: 0.02,
            cache_bytes: 128 << 20,
            setups: 9,
            warmup_ops: 12,
            oracle_frames: 8,
            node_ops: 48,
            hit_band: (0.65, 0.85),
        };
        match scale {
            Scale::Full => full,
            Scale::Test => Params {
                texture_size: 48,
                spot_count: 80,
                setups: 2,
                node_ops: 24,
                ..full
            },
        }
    }

    fn session_body(&self, field: &str, seed: u64) -> String {
        format!(
            concat!(
                "{{\"field\": {}, \"config\": {{\"texture_size\": {}, \"spot_count\": {}, ",
                "\"spot_texture_size\": 16, \"seed\": {}}}, ",
                "\"machine\": {{\"processors\": 1, \"pipes\": 1}}, \"dt\": 0.05}}"
            ),
            field, self.texture_size, self.spot_count, seed
        )
    }
}

/// A seeded analytic field, as the JSON body the service parses.
fn random_field(rng: &mut Rng) -> String {
    let mut n = |lo: f64, hi: f64| (rng.range(lo, hi) * 1e4).round() / 1e4;
    match n(0.0, 5.0) as u32 {
        0 => format!(
            "{{\"kind\": \"vortex\", \"omega\": {}, \"cx\": {}, \"cy\": {}}}",
            n(0.5, 2.5),
            n(0.3, 0.7),
            n(0.3, 0.7)
        ),
        1 => format!("{{\"kind\": \"shear\", \"rate\": {}}}", n(0.5, 2.0)),
        2 => format!(
            "{{\"kind\": \"saddle\", \"rate\": {}, \"cx\": {}, \"cy\": {}}}",
            n(0.5, 2.0),
            n(0.3, 0.7),
            n(0.3, 0.7)
        ),
        3 => format!(
            "{{\"kind\": \"taylor_green\", \"amplitude\": {}, \"cells\": {}}}",
            n(0.5, 1.5),
            n(1.0, 3.99).floor()
        ),
        _ => format!(
            "{{\"kind\": \"double_gyre\", \"amplitude\": {}, \"epsilon\": {}, \"omega\": {}, \"time\": {}}}",
            n(0.05, 0.2),
            n(0.0, 0.25),
            n(0.0, 1.0),
            n(0.0, 5.0)
        ),
    }
}

/// One request of a viewer's script.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Fetch `frame`; `hit` is what the script expects of the cache.
    Fetch { frame: u64, hit: bool },
    /// Steer the session to a field (JSON body).
    Steer(String),
}

/// A field a viewer browsed and the newest frame it reached there.
#[derive(Debug, Clone)]
struct Epoch {
    field: String,
    newest: i64,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    Browse,
    /// Steered back to the previous field; this many scrubs remain.
    Revisit(u64),
    /// Revisit done: steer on to a fresh field next.
    MoveOn,
}

/// One viewer's seeded script: a pure function of `(seed, viewer)`.
#[derive(Debug, Clone)]
pub struct Viewer {
    rng: Rng,
    seed: u64,
    cur: Epoch,
    prev: Option<Epoch>,
    phase: Phase,
    /// The field the session is bound to right now.
    bound: String,
    /// Every field this viewer has browsed, so a fresh field is never a
    /// repeat whose frames are still cached.
    used: std::collections::HashSet<String>,
}

impl Viewer {
    pub fn new(seed: u64, viewer: u64) -> Viewer {
        let mut rng = Rng::new(seed, 0xB0_0000 + viewer);
        let session_seed = rng.next_u64() % 1_000_000_007;
        let field = random_field(&mut rng);
        Viewer {
            rng,
            seed: session_seed,
            cur: Epoch {
                field: field.clone(),
                newest: -1,
            },
            prev: None,
            phase: Phase::Browse,
            used: [field.clone()].into(),
            bound: field,
        }
    }

    fn step(&mut self) -> Op {
        self.cur.newest += 1;
        Op::Fetch {
            frame: self.cur.newest as u64,
            hit: false,
        }
    }

    fn move_on(&mut self) -> Op {
        let field = loop {
            let field = random_field(&mut self.rng);
            if self.used.insert(field.clone()) {
                break field;
            }
        };
        let fresh = Epoch { field, newest: -1 };
        self.prev = Some(std::mem::replace(&mut self.cur, fresh));
        self.phase = Phase::Browse;
        self.bound = self.cur.field.clone();
        Op::Steer(self.bound.clone())
    }

    /// The next request of the script.
    pub fn next_op(&mut self, p: &Params) -> Op {
        match self.phase {
            Phase::Revisit(left) => {
                let newest = self.prev.as_ref().map_or(0, |e| e.newest.max(0)) as u64;
                self.phase = if left <= 1 {
                    Phase::MoveOn
                } else {
                    Phase::Revisit(left - 1)
                };
                // Revisits stay within the frames the viewer watched last on
                // that field, so the cache budget holds every revisit
                // window whatever the two connections' relative pace.
                let back = self.rng.below(p.scrub_window.min(newest + 1));
                Op::Fetch {
                    frame: newest - back,
                    hit: true,
                }
            }
            Phase::MoveOn => self.move_on(),
            Phase::Browse => {
                if self.cur.newest < 0 {
                    return self.step();
                }
                let leave = self.cur.newest + 1 >= p.epoch_frames || self.rng.unit() < p.p_leave;
                if leave {
                    return match &self.prev {
                        Some(prev) => {
                            self.phase = Phase::Revisit(2 + self.rng.below(3));
                            self.bound = prev.field.clone();
                            Op::Steer(self.bound.clone())
                        }
                        None => self.move_on(),
                    };
                }
                if self.rng.unit() < p.p_step {
                    return self.step();
                }
                let newest = self.cur.newest as u64;
                let back = self.rng.below(p.scrub_window.min(newest + 1));
                Op::Fetch {
                    frame: newest - back,
                    hit: true,
                }
            }
        }
    }
}

/// A fetched frame, from either transport.
struct Fetched {
    bytes: Arc<Vec<u8>>,
    frame: u64,
    hit: bool,
    stale: bool,
    degraded: bool,
}

/// The two ways the benchmark reaches a node: loopback HTTP, or the
/// transport-free core directly.
trait Transport {
    fn create(&mut self, body: &str) -> Result<String, String>;
    fn fetch(&mut self, id: &str, frame: u64) -> Result<Fetched, String>;
    fn steer(&mut self, id: &str, field: &str) -> Result<(), String>;
}

impl Transport for ServiceClient {
    fn create(&mut self, body: &str) -> Result<String, String> {
        self.create_session(body).map_err(|e| e.to_string())
    }

    fn fetch(&mut self, id: &str, frame: u64) -> Result<Fetched, String> {
        let f = self.fetch_frame(id, frame).map_err(|e| e.to_string())?;
        Ok(Fetched {
            bytes: Arc::new(f.bytes),
            frame: f.frame,
            hit: f.cache_hit,
            stale: f.stale,
            degraded: f.degraded,
        })
    }

    fn steer(&mut self, id: &str, field: &str) -> Result<(), String> {
        ServiceClient::steer(self, id, field).map_err(|e| e.to_string())
    }
}

/// `NodeCore` with no sockets.
struct Core(Arc<NodeCore>);

impl Core {
    fn id(id: &str) -> Result<u64, String> {
        parse_session_id(id).ok_or_else(|| format!("bad session id {id:?}"))
    }
}

impl Transport for Core {
    fn create(&mut self, body: &str) -> Result<String, String> {
        let spec = SessionSpec::from_body(body.as_bytes())?;
        let id = self.0.create_session(spec).map_err(|e| format!("{e:?}"))?;
        Ok(spotnoise_service::session::format_session_id(id))
    }

    fn fetch(&mut self, id: &str, frame: u64) -> Result<Fetched, String> {
        let f = self
            .0
            .fetch_frame(Core::id(id)?, frame)
            .map_err(|e| format!("{e:?}"))?;
        Ok(Fetched {
            bytes: f.bytes,
            frame: f.frame,
            hit: f.cached,
            stale: f.stale,
            degraded: f.degraded,
        })
    }

    fn steer(&mut self, id: &str, field: &str) -> Result<(), String> {
        let spec = FieldSpec::from_json(&Json::parse(field)?)?;
        self.0
            .steer(Core::id(id)?, spec)
            .map_err(|e| format!("{e:?}"))
    }
}

/// A viewer bound to its session.
struct Session {
    id: String,
    script: Viewer,
}

/// A delivered frame kept for the output oracle.
struct Kept {
    field: String,
    seed: u64,
    frame: u64,
    bytes: Arc<Vec<u8>>,
}

/// What one connection observed.
#[derive(Default)]
struct OpLog {
    fetches: Samples,
    hits: Samples,
    misses: Samples,
    steers: Samples,
    /// Fetches whose cache outcome, index or quality differed from the
    /// script's expectation (a revisit that missed is a rewind replay).
    unexpected: u64,
    failed: u64,
    first_error: Option<String>,
}

impl OpLog {
    fn merge(&mut self, other: OpLog) {
        self.fetches.extend(&other.fetches);
        self.hits.extend(&other.hits);
        self.misses.extend(&other.misses);
        self.steers.extend(&other.steers);
        self.unexpected += other.unexpected;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    fn attempted(&self) -> u64 {
        (self.fetches.len() + self.steers.len()) as u64 + self.failed
    }

    fn hit_ratio(&self) -> f64 {
        self.hits.len() as f64 / self.fetches.len().max(1) as f64
    }
}

/// How long a connection loop runs: until a deadline, or for a fixed
/// number of ops per viewer (with a deadline as a guard).
#[derive(Clone, Copy)]
struct Budget {
    deadline: Instant,
    ops_per_viewer: Option<usize>,
}

/// One connection's closed loop over its viewers, round-robin.
fn drive<T: Transport>(
    p: &Params,
    transport: &mut T,
    sessions: &mut [Session],
    budget: Budget,
    keep: &mut Reservoir<Kept>,
    spans: Option<&mut SpanLog>,
) -> OpLog {
    let mut log = OpLog::default();
    let mut spans = spans;
    let total = budget.ops_per_viewer.map(|n| n * sessions.len());
    let mut i = 0usize;
    while total.is_none_or(|t| i < t) && Instant::now() < budget.deadline {
        let s = &mut sessions[i % sessions.len()];
        i += 1;
        let op = s.script.next_op(p);
        let t = Instant::now();
        let mut layer = "steer";
        let outcome = match &op {
            Op::Fetch { frame, hit } => transport.fetch(&s.id, *frame).map(|f| {
                let dur = t.elapsed();
                layer = if f.hit { "fetch.hit" } else { "fetch.miss" };
                log.fetches.push(dur);
                if f.hit {
                    log.hits.push(dur);
                } else {
                    log.misses.push(dur);
                }
                if f.hit != *hit || f.frame != *frame || f.stale || f.degraded {
                    log.unexpected += 1;
                    log.first_error.get_or_insert(format!(
                        "session {} frame {frame} of {}: hit {} (expected {hit}), served {}",
                        s.id, s.script.bound, f.hit, f.frame
                    ));
                }
                keep.offer(|| Kept {
                    field: s.script.bound.clone(),
                    seed: s.script.seed,
                    frame: f.frame,
                    bytes: f.bytes,
                });
            }),
            Op::Steer(field) => transport.steer(&s.id, field).map(|()| {
                log.steers.push(t.elapsed());
            }),
        };
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(layer, t.elapsed());
        }
        if let Err(e) = outcome {
            log.failed += 1;
            log.first_error.get_or_insert(e);
        }
    }
    log
}

/// Runs every connection's loop on its own thread (at most
/// `connections` threads, one transport each) and merges their logs.
fn run_connections<T: Transport + Send>(
    p: &Params,
    transports: &mut [T],
    sessions: &mut [Session],
    budget: Budget,
    keep: &mut Reservoir<Kept>,
    trace: bool,
) -> (OpLog, SpanLog, Duration) {
    let start = Instant::now();
    let per = p.viewers_per_connection;
    let results: Vec<(OpLog, SpanLog, Vec<Kept>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .iter_mut()
            .zip(sessions.chunks_mut(per))
            .enumerate()
            .map(|(c, (transport, chunk))| {
                let seed = keep.seed_for(c as u64);
                scope.spawn(move || {
                    let mut local = Reservoir::new(seed, c as u64, p.oracle_frames);
                    let mut spans = SpanLog::default();
                    let log = drive(
                        p,
                        transport,
                        chunk,
                        budget,
                        &mut local,
                        trace.then_some(&mut spans),
                    );
                    (log, spans, local.items)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let mut log = OpLog::default();
    let mut spans = SpanLog::default();
    for (l, s, kept) in results {
        log.merge(l);
        spans.append(s);
        for k in kept {
            keep.offer(|| k);
        }
    }
    (log, spans, wall)
}

/// A booted node with its viewers' sessions created and warmed up.
struct Node<T: Transport> {
    // Connections close before the node shuts down (field order).
    transports: Vec<T>,
    sessions: Vec<Session>,
    _handle: Option<ServiceHandle>,
}

fn service_options(p: &Params) -> ServiceOptions {
    ServiceOptions {
        cache_bytes: p.cache_bytes,
        workers: 2,
        max_sessions: 64,
        ..ServiceOptions::default()
    }
}

/// Creates every viewer's session and runs each script's first
/// `warmup_ops` ops (the first of which is a miss at frame 0).
fn open_sessions<T: Transport + Send>(
    p: &Params,
    seed: u64,
    mut transports: Vec<T>,
    handle: Option<ServiceHandle>,
) -> Result<Node<T>, String> {
    let viewers = p.connections * p.viewers_per_connection;
    let mut sessions = Vec::with_capacity(viewers);
    for v in 0..viewers {
        let script = Viewer::new(seed, v as u64);
        let body = p.session_body(&script.bound, script.seed);
        let transport = &mut transports[v / p.viewers_per_connection];
        sessions.push(Session {
            id: transport.create(&body)?,
            script,
        });
    }
    let mut scratch = Reservoir::new(seed, 0, 0);
    let budget = Budget {
        deadline: Instant::now() + Duration::from_secs(60),
        ops_per_viewer: Some(p.warmup_ops),
    };
    let (log, _, _) = run_connections(
        p,
        &mut transports,
        &mut sessions,
        budget,
        &mut scratch,
        false,
    );
    ensure(log.failed == 0 && log.unexpected == 0, || {
        format!("warm-up failed: {:?}", log.first_error)
    })?;
    Ok(Node {
        transports,
        sessions,
        _handle: handle,
    })
}

fn setup(p: &Params, seed: u64) -> Result<Node<ServiceClient>, String> {
    let handle = serve("127.0.0.1:0", service_options(p)).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    let clients = (0..p.connections)
        .map(|_| ServiceClient::connect(addr).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    open_sessions(p, seed, clients, Some(handle))
}

fn window(
    node: &mut Node<ServiceClient>,
    p: &Params,
    secs: f64,
    keep: &mut Reservoir<Kept>,
    trace: bool,
) -> (OpLog, SpanLog, Duration) {
    let budget = Budget {
        deadline: Instant::now() + Duration::from_secs_f64(secs),
        ops_per_viewer: None,
    };
    run_connections(
        p,
        &mut node.transports,
        &mut node.sessions,
        budget,
        keep,
        trace,
    )
}

fn check_oracle(p: &Params, kept: &[Kept]) -> Result<(), String> {
    ensure(!kept.is_empty(), || "no frame was delivered".to_string())?;
    for k in kept {
        ensure(
            direct_frame_bytes(&p.session_body(&k.field, k.seed), k.frame)?.as_slice()
                == k.bytes.as_slice(),
            || {
                format!(
                    "frame {} of field {} differs from a direct render",
                    k.frame, k.field
                )
            },
        )?;
    }
    Ok(())
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(stats, |v, key| v.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The regime the workload claims: the pressure ladder never left `ok`,
/// nothing was served stale or degraded, no session replayed from its seed,
/// every fetch hit or missed as scripted, and the hit ratio is in band.
fn check_regime(p: &Params, stats: &Json, log: &OpLog) -> Result<(), String> {
    let state = stats
        .get("pressure")
        .and_then(|s| s.get("state"))
        .and_then(Json::as_str);
    let rewinds: f64 = stats
        .get("per_session")
        .and_then(Json::as_array)
        .map_or(0.0, |all| all.iter().map(|s| stat(s, &["rewinds"])).sum());
    let ladder = [
        "entered_elevated",
        "entered_saturated",
        "stale_serves",
        "degraded_serves",
    ]
    .map(|k| stat(stats, &["pressure", k]));
    ensure(
        state == Some("ok") && ladder.iter().all(|&v| v == 0.0),
        || format!("pressure ladder left ok: state {state:?}, {ladder:?}"),
    )?;
    ensure(rewinds == 0.0, || format!("{rewinds} rewind replays"))?;
    ensure(log.unexpected == 0, || {
        format!(
            "{} fetches hit or missed against the script, first: {:?}",
            log.unexpected, log.first_error
        )
    })?;
    let ratio = log.hit_ratio();
    ensure(ratio >= p.hit_band.0 && ratio <= p.hit_band.1, || {
        format!("hit ratio {ratio:.3} outside {:?}", p.hit_band)
    })
}

fn stats_of(node: &mut Node<ServiceClient>) -> Result<Json, String> {
    node.transports[0].stats().map_err(|e| e.to_string())
}

/// The untraced run: end-to-end metrics.
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = Params::new(scale);
    let (mut node, setup_s) = repeated_setup(p.setups, || setup(&p, seed))?;
    let mut keep = Reservoir::new(seed, 0x0AC1, p.oracle_frames);
    let (log, _, wall) = window(&mut node, &p, seconds, &mut keep, false);
    let stats = stats_of(&mut node)?;
    check_regime(&p, &stats, &log)?;
    check_oracle(&p, &keep.items)?;
    let mut r = Report {
        attempted: log.attempted(),
        failed: log.failed,
        ..Report::default()
    };
    r.set(
        "frames_per_s",
        log.fetches.len() as f64 / wall.as_secs_f64(),
    );
    r.set("frame_p50_us", log.fetches.pct(50.0));
    r.set("frame_p99_us", log.fetches.pct(99.0));
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", peak_rss_mb());
    r.lines.push(format!(
        "browse: {} fetches ({:.1}% hits), {} steers in {:.2} s; failed {}",
        log.fetches.len(),
        100.0 * log.hit_ratio(),
        log.steers.len(),
        wall.as_secs_f64(),
        log.failed
    ));
    Ok(r)
}

/// Exact counts and one-thread raster time of the first viewer's first
/// frames (disc quads, each a miss in the workload).
struct RasterReplay {
    times: Samples,
    fragments: u64,
    state_changes: u64,
}

fn replay_raster(p: &Params, seed: u64, frames: u64) -> Result<RasterReplay, String> {
    let viewer = Viewer::new(seed, 0);
    let spec = SessionSpec::from_body(p.session_body(&viewer.bound, viewer.seed).as_bytes())?;
    let field = spec.field.build();
    let cfg = spec.config;
    let mut animator = SpotAnimator::new(
        service_domain(),
        cfg.spot_count,
        PositionMode::Advected,
        cfg.seed,
    );
    let mut out = RasterReplay {
        times: Samples::default(),
        fragments: 0,
        state_changes: 0,
    };
    for frame in 0..frames {
        animator.advance(field.as_ref(), spec.dt);
        let ctx = SynthesisContext::new(field.as_ref(), &cfg);
        let jobs: Vec<_> = animator
            .spots()
            .iter()
            .map(|s| ctx.build_job(field.as_ref(), s, &cfg))
            .collect();
        let t = Instant::now();
        let mut core = PipeCore::new(cfg.texture_size, cfg.texture_size);
        core.execute(RenderCommand::Clear);
        for cmd in preamble_commands(&ctx) {
            core.execute(cmd);
        }
        for job in jobs {
            for cmd in job_commands(job) {
                core.execute(cmd);
            }
        }
        let piped = core.finish();
        out.times.push(t.elapsed());
        if frame == 0 {
            out.fragments = piped.raster.fragments;
            out.state_changes = piped.state.total_changes();
        }
    }
    Ok(out)
}

/// The same script on `NodeCore` with no sockets, for a fixed number of
/// ops per viewer.
fn replay_core(p: &Params, seed: u64, guard: Duration) -> Result<OpLog, String> {
    let core = NodeCore::new(service_options(p));
    let workers = core.start_workers(2);
    let transports = (0..p.connections)
        .map(|_| Core(Arc::clone(&core)))
        .collect();
    let outcome = open_sessions(p, seed, transports, None).map(|mut node| {
        let budget = Budget {
            deadline: Instant::now() + guard,
            ops_per_viewer: Some(p.node_ops),
        };
        let mut scratch = Reservoir::new(seed, 0, 0);
        run_connections(
            p,
            &mut node.transports,
            &mut node.sessions,
            budget,
            &mut scratch,
            false,
        )
        .0
    });
    core.begin_shutdown();
    for w in workers {
        w.join().map_err(|_| "node worker panicked".to_string())?;
    }
    let log = outcome?;
    ensure(log.failed == 0 && log.unexpected == 0, || {
        format!("NodeCore replay failed: {:?}", log.first_error)
    })?;
    Ok(log)
}

/// The traced run: per-layer metrics and the reconciliation report.
pub fn run_traced(scale: Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = Params::new(scale);
    let (mut node, _) = repeated_setup(p.setups, || setup(&p, seed))?;
    let mut keep = Reservoir::new(seed, 0x0AC1, p.oracle_frames);
    // Untraced and traced slices alternate, so drift over the run cancels
    // out of the overhead ratio.
    let slice = seconds * 0.7 / (2 * OVERHEAD_SLICES) as f64;
    let (mut untraced, mut traced) = (OpLog::default(), OpLog::default());
    let (mut wall_u, mut wall_t) = (Duration::ZERO, Duration::ZERO);
    let mut spans = SpanLog::default();
    for _ in 0..OVERHEAD_SLICES {
        let (log, _, wall) = window(&mut node, &p, slice, &mut keep, false);
        untraced.merge(log);
        wall_u += wall;
        let (log, traced_spans, wall) = window(&mut node, &p, slice, &mut keep, true);
        traced.merge(log);
        spans.append(traced_spans);
        wall_t += wall;
    }
    let stats = stats_of(&mut node)?;
    let mut both = OpLog::default();
    both.merge(untraced);
    let untraced_fetches = both.fetches.clone();
    let untraced_misses = both.misses.len();
    let fps_u = untraced_fetches.len() as f64 / wall_u.as_secs_f64();
    let fps_t = traced.fetches.len() as f64 / wall_t.as_secs_f64();
    let http_hits = spans.samples("fetch.hit");
    let (http_hit_p50, http_hit_mean) = (http_hits.pct(50.0), http_hits.mean());
    both.merge(traced);
    check_regime(&p, &stats, &both)?;
    check_oracle(&p, &keep.items)?;
    drop(node);

    let core = replay_core(&p, seed, Duration::from_secs_f64(seconds * 0.3 + 30.0))?;
    let raster = replay_raster(&p, seed, 3)?;

    let mut r = Report {
        attempted: both.attempted(),
        failed: both.failed,
        ..Report::default()
    };
    r.set("node.hit_p50_us", core.hits.pct(50.0));
    r.set("node.miss_p50_us", core.misses.pct(50.0));
    r.set("node.miss_p99_us", core.misses.pct(99.0));
    r.set("steer.p50_us", core.steers.pct(50.0));
    r.set(
        "queue.wait_p99_us",
        stat(&stats, &["latency", "queue_wait", "p99_us"]),
    );
    r.set("cache.hit_ratio", both.hit_ratio());
    r.set("cache.hits", both.hits.len() as f64);
    r.set("cache.fetches", both.fetches.len() as f64);
    r.set("cache.evictions", stat(&stats, &["cache", "evictions"]));
    r.set("http.overhead_p50_us", http_hit_p50 - core.hits.pct(50.0));
    r.set("raster.p50_us", raster.times.pct(50.0));
    r.set("raster.fragments", raster.fragments as f64);
    r.set("raster.state_changes", raster.state_changes as f64);
    r.set(
        "raster.bytes_computed",
        (raster.fragments * 2 * std::mem::size_of::<f32>() as u64) as f64,
    );

    // Reconciliation per fetch: transport (HTTP hit minus core hit), the
    // core's lookup path (every fetch), and for the misses' share the queue
    // wait plus the synthesis stages the node timed.
    let whole = untraced_fetches.mean();
    let miss_share = untraced_misses as f64 / untraced_fetches.len().max(1) as f64;
    let mean = |stage: &str| stat(&stats, &["latency", stage, "mean_us"]);
    let parts = [
        (
            "http (HTTP hit - NodeCore hit)",
            http_hit_mean - core.hits.mean(),
        ),
        ("node lookup (NodeCore hit)", core.hits.mean()),
        ("queue wait (misses)", miss_share * mean("queue_wait")),
        ("advect (misses)", miss_share * mean("advect")),
        ("synthesize (misses)", miss_share * mean("synthesize")),
        ("render (misses)", miss_share * mean("render")),
    ];
    let remainder = whole - parts.iter().map(|(_, us)| us).sum::<f64>();
    let overhead = fps_t / fps_u;
    r.set("remainder_us", remainder);
    r.set("trace.overhead_ratio", overhead);
    r.lines.push(format!(
        "ledger browse: fetch mean {whole:.1} us untraced (n={}, {:.1}% misses)",
        untraced_fetches.len(),
        100.0 * miss_share
    ));
    for (name, us) in parts {
        r.lines.push(ledger_row(name, us, whole));
    }
    r.lines.push(ledger_row("remainder", remainder, whole));
    r.lines.push(format!(
        "  trace.overhead_ratio {overhead:.4} (traced {fps_t:.1} vs untraced {fps_u:.1} frames/s)"
    ));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64, viewer: u64, n: usize) -> Vec<Op> {
        let p = Params::new(Scale::Test);
        let mut v = Viewer::new(seed, viewer);
        (0..n).map(|_| v.next_op(&p)).collect()
    }

    #[test]
    fn scripts_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(script(1, 3, 400), script(1, 3, 400));
        assert_ne!(script(1, 3, 400), script(2, 3, 400));
        assert_ne!(script(1, 3, 400), script(1, 4, 400));
    }

    #[test]
    fn scripts_hit_about_three_in_four_and_steer_back() {
        let ops: Vec<Op> = (0..16).flat_map(|v| script(9, v, 2000)).collect();
        let fetches = ops.iter().filter(|o| matches!(o, Op::Fetch { .. })).count();
        let hits = ops
            .iter()
            .filter(|o| matches!(o, Op::Fetch { hit: true, .. }))
            .count();
        let ratio = hits as f64 / fetches as f64;
        assert!((0.70..0.82).contains(&ratio), "hit ratio {ratio}");
        let steers = ops.len() - fetches;
        assert!(steers > 16 * 2, "too few steers: {steers}");
    }

    #[test]
    fn raster_counts_repeat_for_a_seed() {
        let p = Params::new(Scale::Test);
        let a = replay_raster(&p, 4, 1).expect("replay");
        let b = replay_raster(&p, 4, 1).expect("replay");
        assert!(a.fragments > 0);
        assert_eq!(a.fragments, b.fragments);
    }

    #[test]
    fn both_runs_are_clean_on_a_held_out_seed() {
        for seed in [5, 6] {
            let r = run(Scale::Test, seed, 0.5).expect("untraced run");
            assert!(r.metrics["frames_per_s"] > 0.0);
            let t = run_traced(Scale::Test, seed, 0.5).expect("traced run");
            assert!(t.metrics["cache.fetches"] > 0.0);
        }
    }

    #[test]
    fn fresh_fields_do_not_repeat_within_a_viewer() {
        let p = Params::new(Scale::Full);
        for seed in 100..112 {
            for viewer in 0..16 {
                let mut v = Viewer::new(seed, viewer);
                let mut seen = vec![v.bound.clone()];
                for _ in 0..6000 {
                    let before = v.prev.as_ref().map(|e| e.field.clone());
                    if let Op::Steer(f) = v.next_op(&p) {
                        if before.as_deref() != Some(f.as_str()) && v.cur.field == f {
                            assert!(
                                !seen.contains(&f),
                                "seed {seed} viewer {viewer}: {f} repeats"
                            );
                            seen.push(f);
                        }
                    }
                }
            }
        }
    }
}
