//! Loopback load generator for the synthesis service.
//!
//! Boots a real [`spotnoise_service`] server on an ephemeral loopback port
//! and drives it over HTTP with keep-alive clients, sweeping concurrency
//! {1, 4, 16} × {cache-cold, cache-hot}:
//!
//! * **cold** — every client owns a session with a unique seed and walks its
//!   frames sequentially, so every request misses the cache and pays one
//!   full synthesis through the admission queue;
//! * **hot** — all clients replay the frames of one pre-warmed shared
//!   session, so every request is served straight from the LRU frame cache.
//!
//! A **fan-out** phase then measures the shared-field broadcast layer:
//! many subscribers of a handful of shared fields stream frames over
//! chunked HTTP while the server synthesizes each field exactly once —
//! delivered/synthesized is the broadcast leverage and must stay O(fields).
//!
//! A final overload phase floods a deliberately tiny server (one worker,
//! watermark 3) far past its watermark and records how many requests were
//! shed with `Busy` versus queued — the queue must shed, not grow. Before
//! the burst, a sustained sub-phase holds the queue at its watermark until
//! the pressure ladder engages, and banks the stale/degraded/deadline-shed
//! counters it produced: graceful degradation must precede outright
//! refusal. Results feed `BENCH_service.json` (schema `bench_service/v1`).

use crate::json::Json;
use spotnoise::telemetry::Histogram;
use spotnoise_service::{serve, AdmissionConfig, ServiceClient, ServiceOptions};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Workload knobs of one bench run.
#[derive(Debug, Clone, Copy)]
pub struct ServiceBenchOptions {
    /// Texture side length of the bench sessions.
    pub texture_size: usize,
    /// Spots per frame of the bench sessions.
    pub spot_count: usize,
    /// Frame requests each client issues per case.
    pub requests_per_client: usize,
    /// Concurrency levels to sweep.
    pub concurrency: [usize; 3],
    /// Distinct shared fields of the fan-out phase.
    pub fanout_fields: usize,
    /// Total streaming subscribers of the fan-out phase, spread evenly
    /// over the fields.
    pub fanout_subscribers: usize,
    /// Frames each fan-out subscriber streams.
    pub fanout_frames: u64,
    /// Synthesis worker threads per server (0 = one per available core);
    /// set per run by the `--threads` sweep.
    pub workers: usize,
}

impl ServiceBenchOptions {
    /// The default measurement run.
    pub fn standard() -> Self {
        ServiceBenchOptions {
            texture_size: 128,
            spot_count: 800,
            requests_per_client: 24,
            concurrency: [1, 4, 16],
            fanout_fields: 4,
            fanout_subscribers: 64,
            fanout_frames: 24,
            workers: 0,
        }
    }

    /// A reduced run for CI smoke (`--quick`).
    pub fn quick() -> Self {
        ServiceBenchOptions {
            texture_size: 64,
            spot_count: 200,
            requests_per_client: 8,
            concurrency: [1, 4, 16],
            fanout_fields: 2,
            fanout_subscribers: 16,
            fanout_frames: 8,
            workers: 0,
        }
    }

    fn session_body(&self, seed: u64) -> String {
        format!(
            concat!(
                "{{\"field\": {{\"kind\": \"vortex\", \"omega\": 1.0}}, ",
                "\"config\": {{\"texture_size\": {}, \"spot_count\": {}, ",
                "\"spot_texture_size\": 16, \"seed\": {}}}}}"
            ),
            self.texture_size, self.spot_count, seed
        )
    }

    /// A shared-session spec: same workload, subscribed to the broadcast
    /// channel of its `(field, config, seed)` instead of owning a pipeline.
    fn shared_session_body(&self, seed: u64) -> String {
        let body = self.session_body(seed);
        format!("{}, \"shared\": true}}", &body[..body.len() - 1])
    }
}

/// One measured (concurrency, cache mode) case.
#[derive(Debug, Clone)]
pub struct ServiceCase {
    /// Case identifier, e.g. `cold_c16`.
    pub name: String,
    /// `"cold"` or `"hot"`.
    pub mode: &'static str,
    /// Concurrent clients.
    pub concurrency: usize,
    /// Total requests completed.
    pub requests: usize,
    /// Median request latency in microseconds.
    pub p50_us: f64,
    /// 90th-percentile request latency in microseconds.
    pub p90_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
    /// Mean request latency in microseconds.
    pub mean_us: f64,
    /// Aggregate served frames per second over the case's wall time.
    pub frames_per_second: f64,
    /// Fraction of requests served from the frame cache.
    pub cache_hit_rate: f64,
    /// Requests shed with `503 Busy` (retried until served).
    pub busy_retries: u64,
}

/// Outcome of the shared-field fan-out phase.
#[derive(Debug, Clone, Copy)]
pub struct FanoutResult {
    /// Distinct shared fields (= broadcast channels).
    pub fields: usize,
    /// Streaming subscribers across all fields.
    pub subscribers: usize,
    /// Frames each subscriber streamed.
    pub frames_per_subscriber: u64,
    /// Frames received client-side across all subscribers.
    pub delivered: u64,
    /// Frontier skips observed client-side (fallen-behind subscribers).
    pub skipped: u64,
    /// Frames the server actually synthesized (`/stats` channels counter).
    pub synthesized: u64,
    /// delivered / synthesized as the server accounts it — the broadcast
    /// leverage, skip-forwards included; O(fields) synthesis makes this
    /// scale with subscribers.
    pub delivery_ratio: f64,
    /// Median steady-state inter-frame gap of a subscriber's stream, in
    /// microseconds (the first frame of each stream — which pays the
    /// initial synthesis — is excluded).
    pub p50_us: f64,
    /// 90th-percentile steady-state inter-frame gap in microseconds.
    pub p90_us: f64,
    /// 99th-percentile steady-state inter-frame gap in microseconds.
    pub p99_us: f64,
    /// Aggregate delivered frames per second over the phase's wall time.
    pub frames_per_second: f64,
}

/// Outcome of the overload phase.
#[derive(Debug, Clone, Copy)]
pub struct OverloadResult {
    /// The tiny server's queue watermark.
    pub watermark: usize,
    /// Concurrent one-shot requests fired at it.
    pub submitted: usize,
    /// Requests shed with `503 Busy`.
    pub busy: usize,
    /// Requests that rendered successfully.
    pub completed: usize,
    /// Highest queue depth the server ever recorded.
    pub peak_depth: usize,
    /// Times the pressure gauge entered its saturated rung during the
    /// sustained sub-phase — proof the ladder engaged before the burst.
    pub entered_saturated: u64,
    /// Cached-frontier serves handed to shared subscribers (`X-Frame-Stale`)
    /// before the shed burst was fired.
    pub stale_serves: u64,
    /// Frames served from sampling-degraded sessions (`X-Frame-Degraded`)
    /// before the shed burst was fired.
    pub degraded_serves: u64,
    /// Requests shed because their deadline budget was already spent.
    pub deadline_shed: u64,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct ServiceBenchReport {
    /// Host threads available to the server.
    pub threads: usize,
    /// SIMD dispatch level the synthesis kernels executed at
    /// ([`softpipe::simd::active`]).
    pub simd: String,
    /// Raw `SPOTNOISE_SIMD` override the process was started with, if any.
    pub simd_override: Option<String>,
    /// The workload knobs used.
    pub options: ServiceBenchOptions,
    /// Bytes of one frame on the wire.
    pub frame_bytes: usize,
    /// The sweep cases.
    pub cases: Vec<ServiceCase>,
    /// The shared-field fan-out phase outcome.
    pub fanout: FanoutResult,
    /// The overload phase outcome.
    pub overload: OverloadResult,
}

struct ClientOutcome {
    hits: u64,
    busy_retries: u64,
}

/// One client's request loop: fetch `frames` in order on `session`,
/// retrying shed requests until served. Latencies go straight into the
/// case's shared lock-free [`Histogram`] — the same structure the server's
/// `/metrics` percentiles come from, recorded concurrently from every
/// client thread with no aggregation pass afterwards.
fn run_client(
    addr: SocketAddr,
    session: String,
    frames: Vec<u64>,
    barrier: Arc<Barrier>,
    latencies: Arc<Histogram>,
) -> ClientOutcome {
    let mut client = ServiceClient::connect(addr).expect("connect bench client");
    let mut outcome = ClientOutcome {
        hits: 0,
        busy_retries: 0,
    };
    barrier.wait();
    for frame in frames {
        let start = Instant::now();
        loop {
            match client.fetch_frame(&session, frame) {
                Ok(fetched) => {
                    latencies.record_duration(start.elapsed());
                    if fetched.cache_hit {
                        outcome.hits += 1;
                    }
                    break;
                }
                Err(spotnoise_service::ClientError::Busy { .. }) => {
                    outcome.busy_retries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => panic!("bench client failed on frame {frame}: {e}"),
            }
        }
    }
    outcome
}

/// Runs one (concurrency, mode) case against the shared server.
fn run_case(
    addr: SocketAddr,
    opts: &ServiceBenchOptions,
    concurrency: usize,
    mode: &'static str,
    seed_base: u64,
) -> ServiceCase {
    let requests = opts.requests_per_client;
    // Session setup happens before the clock starts.
    let sessions: Vec<String> = if mode == "hot" {
        // One shared session, pre-warmed so every measured request hits.
        let mut warmup = ServiceClient::connect(addr).expect("connect warmup client");
        let session = warmup
            .create_session(&opts.session_body(seed_base))
            .expect("create hot session");
        for frame in 0..requests as u64 {
            warmup
                .fetch_frame(&session, frame)
                .expect("warm up hot session");
        }
        vec![session; concurrency]
    } else {
        (0..concurrency)
            .map(|i| {
                let mut c = ServiceClient::connect(addr).expect("connect setup client");
                c.create_session(&opts.session_body(seed_base + 1 + i as u64))
                    .expect("create cold session")
            })
            .collect()
    };

    let barrier = Arc::new(Barrier::new(concurrency + 1));
    let latencies = Arc::new(Histogram::new());
    let workers: Vec<_> = sessions
        .iter()
        .map(|session| {
            let barrier = Arc::clone(&barrier);
            let session = session.clone();
            let latencies = Arc::clone(&latencies);
            let frames: Vec<u64> = (0..requests as u64).collect();
            std::thread::spawn(move || run_client(addr, session, frames, barrier, latencies))
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("bench client panicked"))
        .collect();
    let wall = started.elapsed().as_secs_f64();

    let snap = latencies.snapshot();
    let total = snap.count as usize;
    let hits: u64 = outcomes.iter().map(|o| o.hits).sum();
    let busy_retries: u64 = outcomes.iter().map(|o| o.busy_retries).sum();
    ServiceCase {
        name: format!("{mode}_c{concurrency}"),
        mode,
        concurrency,
        requests: total,
        p50_us: snap.percentile(50.0) as f64,
        p90_us: snap.percentile(90.0) as f64,
        p99_us: snap.percentile(99.0) as f64,
        mean_us: snap.mean(),
        frames_per_second: if wall > 0.0 { total as f64 / wall } else { 0.0 },
        cache_hit_rate: if total > 0 {
            hits as f64 / total as f64
        } else {
            0.0
        },
        busy_retries,
    }
}

/// One fan-out subscriber: create a shared session for `seed` and stream
/// `frames` frames, recording steady-state inter-frame gaps into the
/// phase's shared histogram.
struct SubscriberOutcome {
    delivered: u64,
    skipped: u64,
}

fn run_subscriber(
    addr: SocketAddr,
    body: String,
    frames: u64,
    barrier: Arc<Barrier>,
    gaps: Arc<Histogram>,
) -> SubscriberOutcome {
    let mut client = ServiceClient::connect(addr).expect("connect fanout subscriber");
    let session = client.create_session(&body).expect("create shared session");
    let mut outcome = SubscriberOutcome {
        delivered: 0,
        skipped: 0,
    };
    barrier.wait();
    let mut stream = client
        .stream_frames(&session, 0, frames)
        .expect("open fanout stream");
    let mut last = Instant::now();
    while let Some(frame) = stream.next_frame().expect("fanout stream read") {
        let now = Instant::now();
        // The first frame pays the stream's initial synthesis (or cache
        // warm-up); everything after it is the steady-state fan-out path.
        if outcome.delivered > 0 {
            gaps.record_duration(now - last);
        }
        last = now;
        outcome.delivered += 1;
        if frame.skipped {
            outcome.skipped += 1;
        }
    }
    outcome
}

/// Runs the shared-field fan-out phase on a fresh server: `fields` distinct
/// shared specs, `subscribers` streaming clients spread evenly over them.
/// Synthesis must stay O(fields) while delivery scales with subscribers.
fn run_fanout(opts: &ServiceBenchOptions) -> FanoutResult {
    let fields = opts.fanout_fields.max(1);
    let subscribers = opts.fanout_subscribers.max(fields);
    let frames = opts.fanout_frames.max(1);
    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            cache_bytes: 256 << 20,
            workers: opts.workers,
            max_sessions: subscribers + 8,
            max_stream_frames: frames,
            ..ServiceOptions::default()
        },
    )
    .expect("bind fanout server");
    let addr = handle.addr();
    let barrier = Arc::new(Barrier::new(subscribers + 1));
    let gaps = Arc::new(Histogram::new());
    let workers: Vec<_> = (0..subscribers)
        .map(|i| {
            // Subscriber i watches field (i % fields): distinct seeds make
            // distinct broadcast channels, same-seed subscribers share one.
            let body = opts.shared_session_body(7_000 + (i % fields) as u64);
            let barrier = Arc::clone(&barrier);
            let gaps = Arc::clone(&gaps);
            std::thread::spawn(move || run_subscriber(addr, body, frames, barrier, gaps))
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let outcomes: Vec<SubscriberOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("fanout subscriber panicked"))
        .collect();
    let wall = started.elapsed().as_secs_f64();

    let mut stats_client = ServiceClient::connect(addr).expect("connect fanout stats");
    let stats = stats_client.stats().expect("fanout stats");
    let channel_stat = |key: &str| {
        stats
            .get("channels")
            .and_then(|c| c.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let synthesized = channel_stat("synthesized") as u64;
    let stats_delivered = channel_stat("delivered");
    handle.shutdown();

    let delivered: u64 = outcomes.iter().map(|o| o.delivered).sum();
    let skipped: u64 = outcomes.iter().map(|o| o.skipped).sum();
    let gap_snap = gaps.snapshot();
    FanoutResult {
        fields,
        subscribers,
        frames_per_subscriber: frames,
        delivered,
        skipped,
        synthesized,
        delivery_ratio: if synthesized > 0 {
            stats_delivered / synthesized as f64
        } else {
            0.0
        },
        p50_us: gap_snap.percentile(50.0) as f64,
        p90_us: gap_snap.percentile(90.0) as f64,
        p99_us: gap_snap.percentile(99.0) as f64,
        frames_per_second: if wall > 0.0 {
            delivered as f64 / wall
        } else {
            0.0
        },
    }
}

/// Floods a one-worker, watermark-3 server with simultaneous cold requests
/// and records shed-vs-served counts. The queue must shed with `Busy`, never
/// grow past its watermark.
/// Reads one numeric pressure counter out of a `/stats` document.
fn pressure_counter(stats: &Json, key: &str) -> u64 {
    stats
        .get("pressure")
        .and_then(|p| p.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

fn run_overload(opts: &ServiceBenchOptions) -> OverloadResult {
    let watermark = 3;
    let submitted = 12;
    let server_options = ServiceOptions {
        workers: 1,
        cache_bytes: 0, // force every request through synthesis
        admission: AdmissionConfig {
            watermark,
            per_session: 2,
        },
        ..ServiceOptions::default()
    };
    let handle = serve("127.0.0.1:0", server_options).expect("bind overload server");
    let addr = handle.addr();
    // Heavier frames than the sweep, so the flood overlaps the worker.
    let body = format!(
        "{{\"config\": {{\"texture_size\": 192, \"spot_count\": {}, \"seed\": 9}}}}",
        opts.spot_count.max(1500)
    );

    // Sub-phase 1 — sustained saturation. Before the shed burst, hold the
    // one-worker queue at its watermark long enough for the pressure gauge
    // to reach `saturated`, and show the ladder answers with degraded
    // content before the server ever refuses outright: exact sessions flip
    // to footprint sampling (degraded serves) and a shared subscriber gets
    // the cached frontier (stale serves).
    let shared_body = format!("{}, \"shared\": true}}", &body[..body.len() - 1]);
    let mut shared_client = ServiceClient::connect(addr).expect("connect shared client");
    let shared = shared_client
        .create_session(&shared_body)
        .expect("create shared overload session");
    // Warm the channel frontier so a stale serve has something to hand out.
    loop {
        match shared_client.fetch_frame(&shared, 0) {
            Ok(_) => break,
            Err(spotnoise_service::ClientError::Busy { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(e) => panic!("overload frontier warm-up failed: {e}"),
        }
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pressers: Vec<_> = (0..3)
        .map(|i| {
            let stop = Arc::clone(&stop);
            let body = body.replace("\"seed\": 9", &format!("\"seed\": {}", 500 + i));
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect presser");
                let session = client
                    .create_session(&body)
                    .expect("create presser session");
                let mut frame = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    match client.fetch_frame(&session, frame) {
                        Ok(_) => frame += 1,
                        Err(spotnoise_service::ClientError::Busy { .. }) => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                        }
                        Err(e) => panic!("presser failed: {e}"),
                    }
                }
            })
        })
        .collect();
    // Probe the shared session past the frontier until the ladder serves a
    // stale frontier frame and at least one degraded presser frame landed;
    // bail out after a bounded wait so a broken ladder fails the --check
    // gate instead of hanging the bench.
    let mut stats_client = ServiceClient::connect(addr).expect("connect stats client");
    let ladder_deadline = Instant::now() + std::time::Duration::from_secs(15);
    let mut probe_frame = 1u64;
    loop {
        match shared_client.fetch_frame(&shared, probe_frame) {
            Ok(fetched) if !fetched.stale => probe_frame = fetched.frame + 1,
            Ok(_) => {}
            Err(spotnoise_service::ClientError::Busy { .. }) => {}
            Err(e) => panic!("shared probe failed: {e}"),
        }
        let stats = stats_client.stats().expect("mid-overload stats");
        if (pressure_counter(&stats, "stale_serves") >= 1
            && pressure_counter(&stats, "degraded_serves") >= 1)
            || Instant::now() >= ladder_deadline
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for p in pressers {
        p.join().expect("presser panicked");
    }
    // Ladder counters are snapshotted *before* the burst: whatever they
    // read here happened strictly before any burst shed below.
    let ladder = stats_client.stats().expect("pre-burst stats");
    let entered_saturated = pressure_counter(&ladder, "entered_saturated");
    let stale_serves = pressure_counter(&ladder, "stale_serves");
    let degraded_serves = pressure_counter(&ladder, "degraded_serves");
    let deadline_shed = pressure_counter(&ladder, "deadline_shed");

    // Sub-phase 2 — the shed burst: 12 simultaneous one-shot requests on
    // fresh sessions against the watermark-3 queue.
    let sessions: Vec<String> = (0..submitted)
        .map(|i| {
            let mut c = ServiceClient::connect(addr).expect("connect overload setup");
            c.create_session(&body.replace("\"seed\": 9", &format!("\"seed\": {}", 100 + i)))
                .expect("create overload session")
        })
        .collect();
    let barrier = Arc::new(Barrier::new(submitted + 1));
    let workers: Vec<_> = sessions
        .into_iter()
        .map(|session| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("connect overload client");
                barrier.wait();
                match client.fetch_frame(&session, 0) {
                    Ok(_) => Ok(()),
                    Err(spotnoise_service::ClientError::Busy { .. }) => Err(()),
                    Err(e) => panic!("overload client failed: {e}"),
                }
            })
        })
        .collect();
    barrier.wait();
    let mut busy = 0;
    let mut completed = 0;
    for w in workers {
        match w.join().expect("overload client panicked") {
            Ok(()) => completed += 1,
            Err(()) => busy += 1,
        }
    }
    let stats = stats_client.stats().expect("overload stats");
    let peak_depth = stats
        .get("queue")
        .and_then(|q| q.get("peak_depth"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN) as usize;
    handle.shutdown();
    OverloadResult {
        watermark,
        submitted,
        busy,
        completed,
        peak_depth,
        entered_saturated,
        stale_serves,
        degraded_serves,
        deadline_shed,
    }
}

/// Runs the full sweep, the fan-out phase and the overload phase.
pub fn run_service_bench(opts: ServiceBenchOptions) -> ServiceBenchReport {
    let server_options = ServiceOptions {
        cache_bytes: 64 << 20,
        workers: opts.workers,
        ..ServiceOptions::default()
    };
    let handle = serve("127.0.0.1:0", server_options).expect("bind bench server");
    let addr = handle.addr();
    let mut cases = Vec::new();
    let mut seed_base = 1_000;
    for &concurrency in &opts.concurrency {
        for mode in ["cold", "hot"] {
            cases.push(run_case(addr, &opts, concurrency, mode, seed_base));
            // Seeds never repeat across cases, so "cold" stays cold.
            seed_base += 1_000;
        }
    }
    handle.shutdown();
    let fanout = run_fanout(&opts);
    let overload = run_overload(&opts);
    ServiceBenchReport {
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        simd: softpipe::simd::active().name().to_string(),
        simd_override: softpipe::simd::env_override().map(str::to_string),
        options: opts,
        frame_bytes: opts.texture_size * opts.texture_size * 4,
        cases,
        fanout,
        overload,
    }
}

/// Human-readable table for stdout.
pub fn format_report(report: &ServiceBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "service loopback bench ({} threads, {}x{} texture, {} spots, {} req/client)\n",
        report.threads,
        report.options.texture_size,
        report.options.texture_size,
        report.options.spot_count,
        report.options.requests_per_client,
    ));
    out.push_str(&format!(
        "{:<10} {:>5} {:>9} {:>12} {:>12} {:>12} {:>12} {:>10} {:>6}\n",
        "case", "conc", "requests", "p50", "p90", "p99", "frames/s", "hit rate", "busy"
    ));
    for case in &report.cases {
        out.push_str(&format!(
            "{:<10} {:>5} {:>9} {:>9.1} us {:>9.1} us {:>9.1} us {:>12.1} {:>9.0}% {:>6}\n",
            case.name,
            case.concurrency,
            case.requests,
            case.p50_us,
            case.p90_us,
            case.p99_us,
            case.frames_per_second,
            case.cache_hit_rate * 100.0,
            case.busy_retries,
        ));
    }
    let f = &report.fanout;
    out.push_str(&format!(
        "fanout: {} subscribers x {} frames on {} shared fields: {} delivered \
         ({} skips), {} synthesized ({:.1}x leverage), gap p50 {:.1} us, {:.1} frames/s\n",
        f.subscribers,
        f.frames_per_subscriber,
        f.fields,
        f.delivered,
        f.skipped,
        f.synthesized,
        f.delivery_ratio,
        f.p50_us,
        f.frames_per_second,
    ));
    let o = &report.overload;
    out.push_str(&format!(
        "overload: {} simultaneous requests vs watermark {}: {} busy, {} served, peak depth {}\n",
        o.submitted, o.watermark, o.busy, o.completed, o.peak_depth,
    ));
    out.push_str(&format!(
        "ladder (pre-burst): saturated x{}, {} stale serves, {} degraded serves, {} deadline shed\n",
        o.entered_saturated, o.stale_serves, o.degraded_serves, o.deadline_shed,
    ));
    out
}

/// Serializes the report in the `BENCH_service.json` schema.
pub fn report_to_json(report: &ServiceBenchReport) -> String {
    report_json_value(report).to_string_pretty()
}

/// Serializes a `--threads` sweep: one `bench_service/v1` report per swept
/// worker count, wrapped in a `bench_service_sweep/v1` envelope so the
/// sweep artifact can never be mistaken for a single-run bank.
pub fn sweep_to_json(reports: &[ServiceBenchReport]) -> String {
    Json::object([
        ("schema", Json::str("bench_service_sweep/v1")),
        ("runs", Json::array(reports.iter().map(report_json_value))),
    ])
    .to_string_pretty()
}

/// Builds the JSON value for one report: the body of the single-run
/// artifact and each entry of a `--threads` sweep's `runs` array.
fn report_json_value(report: &ServiceBenchReport) -> Json {
    let f = &report.fanout;
    let o = &report.overload;
    let mut pairs: Vec<(&'static str, Json)> = vec![
        ("schema", Json::str("bench_service/v1")),
        ("threads", Json::num(report.threads as f64)),
        ("simd", Json::str(report.simd.clone())),
    ];
    if let Some(forced) = &report.simd_override {
        pairs.push(("simd_override", Json::str(forced.clone())));
    }
    pairs.extend([
        (
            "workload",
            Json::object([
                (
                    "texture_size",
                    Json::num(report.options.texture_size as f64),
                ),
                ("spot_count", Json::num(report.options.spot_count as f64)),
                (
                    "requests_per_client",
                    Json::num(report.options.requests_per_client as f64),
                ),
                ("frame_bytes", Json::num(report.frame_bytes as f64)),
                ("workers", Json::num(report.options.workers as f64)),
            ]),
        ),
        (
            "cases",
            Json::array(report.cases.iter().map(|c| {
                Json::object([
                    ("name", Json::str(c.name.clone())),
                    ("mode", Json::str(c.mode)),
                    ("concurrency", Json::num(c.concurrency as f64)),
                    ("requests", Json::num(c.requests as f64)),
                    ("p50_us", Json::num(c.p50_us)),
                    ("p90_us", Json::num(c.p90_us)),
                    ("p99_us", Json::num(c.p99_us)),
                    ("mean_us", Json::num(c.mean_us)),
                    ("frames_per_second", Json::num(c.frames_per_second)),
                    ("cache_hit_rate", Json::num(c.cache_hit_rate)),
                    ("busy_retries", Json::num(c.busy_retries as f64)),
                ])
            })),
        ),
        (
            "fanout",
            Json::object([
                ("fields", Json::num(f.fields as f64)),
                ("subscribers", Json::num(f.subscribers as f64)),
                (
                    "frames_per_subscriber",
                    Json::num(f.frames_per_subscriber as f64),
                ),
                ("delivered", Json::num(f.delivered as f64)),
                ("skipped", Json::num(f.skipped as f64)),
                ("synthesized", Json::num(f.synthesized as f64)),
                ("delivery_ratio", Json::num(f.delivery_ratio)),
                ("p50_us", Json::num(f.p50_us)),
                ("p90_us", Json::num(f.p90_us)),
                ("p99_us", Json::num(f.p99_us)),
                ("frames_per_second", Json::num(f.frames_per_second)),
            ]),
        ),
        (
            "overload",
            Json::object([
                ("watermark", Json::num(o.watermark as f64)),
                ("submitted", Json::num(o.submitted as f64)),
                ("busy", Json::num(o.busy as f64)),
                ("completed", Json::num(o.completed as f64)),
                ("peak_depth", Json::num(o.peak_depth as f64)),
                ("entered_saturated", Json::num(o.entered_saturated as f64)),
                ("stale_serves", Json::num(o.stale_serves as f64)),
                ("degraded_serves", Json::num(o.degraded_serves as f64)),
                ("deadline_shed", Json::num(o.deadline_shed as f64)),
            ]),
        ),
    ]);
    Json::object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile of an unsorted sample — the sorted-Vec
    /// oracle the histogram percentiles replaced.
    fn percentile_us(latencies: &mut [f64], q: f64) -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let rank = ((q / 100.0) * latencies.len() as f64).ceil() as usize;
        latencies[rank.clamp(1, latencies.len()) - 1]
    }

    #[test]
    fn percentile_oracle_nearest_rank() {
        let mut l = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile_us(&mut l, 50.0), 3.0);
        assert_eq!(percentile_us(&mut l, 99.0), 5.0);
        assert_eq!(percentile_us(&mut l, 100.0), 5.0);
        assert_eq!(percentile_us(&mut [][..].to_vec(), 50.0), 0.0);
        let mut one = vec![7.0];
        assert_eq!(percentile_us(&mut one, 50.0), 7.0);
    }

    #[test]
    fn histogram_percentiles_track_the_sorted_vec_oracle() {
        // A spread resembling a latency distribution: dense low values,
        // sparse tail. The log-bucketed histogram must land within one
        // bucket (~2 * 2^-5 relative width) of the exact nearest-rank
        // answer at every headline quantile.
        let samples: Vec<u64> = (0..500)
            .map(|i: u64| 40 + i * 7 + (i % 13) * 1000)
            .collect();
        let h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut oracle_input: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
        for q in [50.0, 90.0, 99.0] {
            let exact = percentile_us(&mut oracle_input, q);
            let approx = snap.percentile(q) as f64;
            assert!(
                (approx - exact).abs() <= exact * 0.08 + 1.0,
                "p{q}: histogram {approx} vs oracle {exact}"
            );
        }
    }

    #[test]
    fn report_json_has_schema_cases_and_overload() {
        let report = ServiceBenchReport {
            threads: 1,
            simd: "sse2".to_string(),
            simd_override: None,
            options: ServiceBenchOptions::quick(),
            frame_bytes: 64 * 64 * 4,
            cases: vec![ServiceCase {
                name: "cold_c1".to_string(),
                mode: "cold",
                concurrency: 1,
                requests: 8,
                p50_us: 1000.0,
                p90_us: 1500.0,
                p99_us: 2000.0,
                mean_us: 1100.0,
                frames_per_second: 900.0,
                cache_hit_rate: 0.0,
                busy_retries: 0,
            }],
            fanout: FanoutResult {
                fields: 2,
                subscribers: 16,
                frames_per_subscriber: 8,
                delivered: 128,
                skipped: 0,
                synthesized: 20,
                delivery_ratio: 6.4,
                p50_us: 150.0,
                p90_us: 500.0,
                p99_us: 900.0,
                frames_per_second: 5000.0,
            },
            overload: OverloadResult {
                watermark: 3,
                submitted: 12,
                busy: 8,
                completed: 4,
                peak_depth: 3,
                entered_saturated: 1,
                stale_serves: 2,
                degraded_serves: 5,
                deadline_shed: 0,
            },
        };
        let text = report_to_json(&report);
        let doc = Json::parse(&text).expect("report parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("bench_service/v1")
        );
        assert_eq!(doc.get("cases").and_then(Json::as_array).unwrap().len(), 1);
        assert_eq!(doc.get("simd").and_then(Json::as_str), Some("sse2"));
        // No SPOTNOISE_SIMD override ran, so the key is absent.
        assert!(doc.get("simd_override").is_none());
        assert_eq!(
            doc.get("fanout")
                .and_then(|f| f.get("delivery_ratio"))
                .and_then(Json::as_f64),
            Some(6.4)
        );
        assert_eq!(
            doc.get("overload")
                .and_then(|o| o.get("busy"))
                .and_then(Json::as_f64),
            Some(8.0)
        );
        // A sweep wraps one report per run in its own envelope.
        let sweep = sweep_to_json(&[report.clone(), report]);
        let sweep_doc = Json::parse(&sweep).expect("sweep parses");
        assert_eq!(
            sweep_doc.get("schema").and_then(Json::as_str),
            Some("bench_service_sweep/v1")
        );
        assert_eq!(
            sweep_doc
                .get("runs")
                .and_then(Json::as_array)
                .unwrap()
                .len(),
            2
        );
    }
}
