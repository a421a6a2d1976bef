//! `broadcast_routed`: `serve_router` in front of two peer-linked `serve`
//! workers, all in process, over loopback HTTP.
//!
//! Four shared fields have eight subscribers each; consistent hashing puts
//! every subscriber of a field on the node that owns the field's channel.
//! Each field also has one private session with the same spec, placed on
//! the other node, so that node answers it through the peer frame-cache
//! lookup. The generator's two connections go to the router; each drives
//! two fields, closed loop, in rounds: every subscriber in turn streams the
//! round's short run of frames over `/stream` (so all subscribers of a
//! field read each frame close together), then the private session fetches
//! the run's last frame. One synthesis feeds many viewers: the workload
//! exercises channel fan-out, the chunk codec, the router hop, the client
//! pool and the peer cache, and synthesis is a small share of it.

use crate::common::{
    direct_frame_bytes, ensure, ledger_row, peak_rss_mb, repeated_setup, Report, Reservoir, Rng,
    Samples, Scale, SpanLog, OVERHEAD_SLICES,
};
use spotnoise::json::Json;
use spotnoise_service::{
    serve, serve_router, ClusterSessionId, RouterHandle, RouterOptions, ServiceClient,
    ServiceHandle, ServiceOptions,
};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Fixed workload shape.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    texture_size: usize,
    spot_count: usize,
    fields: usize,
    subscribers: usize,
    connections: usize,
    /// Frames each subscriber streams per round.
    run: u64,
    setups: usize,
    /// Rounds per field run in set-up, before the timed window.
    warmup_rounds: u64,
    oracle_frames: usize,
    /// Rounds per field of the traced run's counting window.
    counted_rounds: u64,
    /// Routed and direct fetches of the router-hop measurement (each).
    hop_samples: usize,
}

impl Params {
    pub fn new(scale: Scale) -> Params {
        let full = Params {
            texture_size: 64,
            spot_count: 150,
            fields: 4,
            subscribers: 8,
            connections: 2,
            run: 1,
            setups: 3,
            warmup_rounds: 8,
            oracle_frames: 8,
            counted_rounds: 24,
            hop_samples: 200,
        };
        match scale {
            Scale::Full => full,
            Scale::Test => Params {
                texture_size: 32,
                spot_count: 40,
                setups: 2,
                counted_rounds: 3,
                warmup_rounds: 2,
                hop_samples: 20,
                ..full
            },
        }
    }
}

/// One shared field: its spec body and the sessions watching it.
struct Field {
    index: usize,
    subscribers: Vec<String>,
    private: String,
    /// The next round this field streams.
    round: u64,
}

/// The seeded session body of field `f` (private, or a shared subscriber).
fn field_body(p: &Params, seed: u64, f: usize, shared: bool) -> String {
    let mut rng = Rng::new(seed, 0xBC00 + f as u64);
    let omega = (rng.range(0.8, 1.6) * 1e4).round() / 1e4;
    let cx = (rng.range(0.35, 0.65) * 1e4).round() / 1e4;
    let spot_seed = rng.next_u64() % 1_000_000_007;
    format!(
        concat!(
            "{{\"field\": {{\"kind\": \"vortex\", \"omega\": {}, \"cx\": {}, \"cy\": 0.5}}, ",
            "\"config\": {{\"texture_size\": {}, \"spot_count\": {}, \"spot_texture_size\": 16, ",
            "\"seed\": {}}}, \"machine\": {{\"processors\": 1, \"pipes\": 1}}, \"dt\": 0.05{}}}"
        ),
        omega,
        cx,
        p.texture_size,
        p.spot_count,
        spot_seed,
        if shared { ", \"shared\": true" } else { "" }
    )
}

/// A delivered frame kept for the output oracle.
struct Kept {
    field: usize,
    frame: u64,
    bytes: Vec<u8>,
}

/// The cluster: router, two workers, the generator's connections and the
/// sessions. Connections close first, then the router, then the workers.
struct Cluster {
    clients: Vec<ServiceClient>,
    fields: Vec<Field>,
    _router: RouterHandle,
    workers: Vec<ServiceHandle>,
}

fn node_of(id: &str) -> Result<ClusterSessionId, String> {
    ClusterSessionId::parse(id).ok_or_else(|| format!("{id:?} is not a cluster session id"))
}

fn setup(p: &Params, seed: u64) -> Result<Cluster, String> {
    // Peer lists are plain addresses, so reserve both ports first.
    let ports: Vec<u16> = (0..2)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map(|a| a.port())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let addr = |port: u16| -> SocketAddr { SocketAddr::from(([127, 0, 0, 1], port)) };
    let workers = (0..2)
        .map(|i| {
            serve(
                addr(ports[i]),
                ServiceOptions {
                    node_id: Some(format!("w{i}")),
                    peers: vec![addr(ports[1 - i])],
                    workers: 1,
                    ..ServiceOptions::default()
                },
            )
            .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let router = serve_router(
        "127.0.0.1:0",
        RouterOptions {
            workers: workers.iter().map(|w| w.addr()).collect(),
            node_id: Some("router".to_string()),
            ..RouterOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut clients = (0..p.connections)
        .map(|_| ServiceClient::connect(router.addr()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fields = Vec::with_capacity(p.fields);
    let c = &mut clients[0];
    for f in 0..p.fields {
        let shared = field_body(p, seed, f, true);
        let subscribers = (0..p.subscribers)
            .map(|_| c.create_session(&shared).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let nodes = subscribers
            .iter()
            .map(|s| node_of(s).map(|id| id.node))
            .collect::<Result<Vec<_>, _>>()?;
        ensure(nodes.iter().all(|&n| n == nodes[0]), || {
            format!("field {f}'s subscribers sit on nodes {nodes:?}, not one")
        })?;
        // Private placement follows a creation salt: create until the
        // session lands off the owner (deterministic for a fresh router).
        let body = field_body(p, seed, f, false);
        let mut private = c.create_session(&body).map_err(|e| e.to_string())?;
        for _ in 0..32 {
            if node_of(&private)?.node != nodes[0] {
                break;
            }
            c.close_session(&private).map_err(|e| e.to_string())?;
            private = c.create_session(&body).map_err(|e| e.to_string())?;
        }
        fields.push(Field {
            index: f,
            subscribers,
            private,
            round: 0,
        });
    }
    let mut cluster = Cluster {
        clients,
        fields,
        _router: router,
        workers,
    };
    // Warm-up: the first rounds of every field.
    let mut scratch = Reservoir::new(seed, 0, 0);
    let deadline = Instant::now() + Duration::from_secs(60);
    let (client, fields) = (&mut cluster.clients[0], &mut cluster.fields);
    let warm = drive(
        p,
        client,
        fields.iter_mut(),
        deadline,
        Some(p.warmup_rounds),
        &mut scratch,
        None,
    );
    ensure(warm.failed == 0 && warm.unexpected == 0, || {
        format!("warm-up failed: {:?}", warm.first_error)
    })?;
    Ok(cluster)
}

/// What one connection observed.
#[derive(Default)]
struct Log {
    /// Per delivered frame: record or fetch time.
    frames: Samples,
    streams: u64,
    fetches: u64,
    /// Frames whose index or flags differed from the script (a skip, a
    /// stale or degraded serve).
    unexpected: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Log {
    fn merge(&mut self, o: Log) {
        self.frames.extend(&o.frames);
        self.streams += o.streams;
        self.fetches += o.fetches;
        self.unexpected += o.unexpected;
        self.failed += o.failed;
        self.first_error = self.first_error.take().or(o.first_error);
    }

    fn attempted(&self) -> u64 {
        self.streams + self.fetches + self.failed
    }
}

/// One round of one field: each subscriber streams frames
/// `[round * run, (round + 1) * run)`, then the private session fetches
/// the run's last frame.
fn round(
    p: &Params,
    client: &mut ServiceClient,
    field: &mut Field,
    log: &mut Log,
    keep: &mut Reservoir<Kept>,
    spans: &mut Option<&mut SpanLog>,
) {
    let f = field.index;
    let first = field.round * p.run;
    field.round += 1;
    for id in &field.subscribers {
        let mut t = Instant::now();
        let opened = t;
        let mut expect = first;
        let outcome = client
            .stream_frames(id, first, p.run)
            .and_then(|mut stream| {
                while let Some(rec) = stream.next_frame()? {
                    let now = Instant::now();
                    log.frames.push(now - t);
                    t = now;
                    if rec.frame != expect || rec.skipped || rec.stale || rec.degraded {
                        log.unexpected += 1;
                    }
                    expect += 1;
                    keep.offer(|| Kept {
                        field: f,
                        frame: rec.frame,
                        bytes: rec.bytes,
                    });
                }
                Ok(())
            });
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("stream", opened.elapsed());
        }
        match outcome {
            Ok(()) if expect == first + p.run => log.streams += 1,
            Ok(()) => {
                log.failed += 1;
                log.first_error
                    .get_or_insert(format!("stream of {id} ended at frame {expect}"));
            }
            Err(e) => {
                log.failed += 1;
                log.first_error.get_or_insert(e.to_string());
                let _ = client.reconnect();
            }
        }
    }
    let frame = first + p.run - 1;
    let t = Instant::now();
    match client.fetch_frame(&field.private, frame) {
        Ok(fetched) => {
            log.frames.push(t.elapsed());
            log.fetches += 1;
            if fetched.frame != frame || fetched.stale || fetched.degraded {
                log.unexpected += 1;
            }
            keep.offer(|| Kept {
                field: f,
                frame,
                bytes: fetched.bytes,
            });
        }
        Err(e) => {
            log.failed += 1;
            log.first_error.get_or_insert(e.to_string());
        }
    }
    if let Some(spans) = spans.as_deref_mut() {
        spans.record("fetch", t.elapsed());
    }
}

/// One connection's closed loop over its fields, a round at a time, until
/// the deadline or `rounds` rounds per field.
fn drive<'a>(
    p: &Params,
    client: &mut ServiceClient,
    fields: impl Iterator<Item = &'a mut Field>,
    deadline: Instant,
    rounds: Option<u64>,
    keep: &mut Reservoir<Kept>,
    mut spans: Option<&mut SpanLog>,
) -> Log {
    let mut fields: Vec<&mut Field> = fields.collect();
    let mut log = Log::default();
    let stop = rounds.map(|n| fields.iter().map(|f| f.round).min().unwrap_or(0) + n);
    'outer: loop {
        for field in fields.iter_mut() {
            if Instant::now() >= deadline || stop.is_some_and(|s| field.round >= s) {
                break 'outer;
            }
            round(p, client, field, &mut log, keep, &mut spans);
        }
    }
    log
}

/// Runs each connection's loop on its own thread; connection `c` drives
/// the fields with `index % connections == c`, so one field's requests
/// never race each other.
fn run_connections(
    p: &Params,
    cluster: &mut Cluster,
    deadline: Instant,
    rounds: Option<u64>,
    keep: &mut Reservoir<Kept>,
    trace: bool,
) -> (Log, SpanLog, Duration) {
    let start = Instant::now();
    let mut parts: Vec<Vec<&mut Field>> = (0..p.connections).map(|_| Vec::new()).collect();
    for field in cluster.fields.iter_mut() {
        parts[field.index % p.connections].push(field);
    }
    let results: Vec<(Log, SpanLog, Vec<Kept>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cluster
            .clients
            .iter_mut()
            .zip(parts)
            .enumerate()
            .map(|(c, (client, fields))| {
                let seed = keep.seed_for(c as u64);
                scope.spawn(move || {
                    let mut local = Reservoir::new(seed, c as u64, p.oracle_frames);
                    let mut spans = SpanLog::default();
                    let log = drive(
                        p,
                        client,
                        fields.into_iter(),
                        deadline,
                        rounds,
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
    let mut log = Log::default();
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

/// Each worker's `/stats`, read directly from the worker.
fn worker_stats(cluster: &Cluster) -> Result<Vec<Json>, String> {
    cluster
        .workers
        .iter()
        .map(|w| {
            ServiceClient::connect(w.addr())
                .map_err(|e| e.to_string())?
                .stats()
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// A counter summed over the workers.
fn sum(stats: &[Json], section: &str, key: &str) -> f64 {
    stats
        .iter()
        .filter_map(|s| {
            s.get(section)
                .and_then(|v| v.get(key))
                .and_then(Json::as_f64)
        })
        .sum()
}

/// Synthesis stage time (advect + synthesize + render) summed over the
/// workers, in microseconds.
fn synthesis_us(stats: &[Json]) -> f64 {
    ["advect_us_total", "synthesize_us_total", "render_us_total"]
        .iter()
        .map(|k| sum(stats, "frames", k))
        .sum()
}

/// The regime the workload claims: no skips and no stale serves, every
/// frame delivered as requested, and at least one synthesis per field per
/// frame streamed.
fn check_regime(p: &Params, stats: &[Json], log: &Log, fields: &[Field]) -> Result<(), String> {
    let skips = sum(stats, "channels", "skips");
    let stale = sum(stats, "pressure", "stale_serves");
    ensure(skips == 0.0 && stale == 0.0 && log.unexpected == 0, || {
        format!(
            "{skips} skips, {stale} stale serves, {} unexpected frames",
            log.unexpected
        )
    })?;
    let synthesized = sum(stats, "channels", "synthesized");
    let frames: u64 = fields.iter().map(|f| f.round * p.run).sum();
    ensure(synthesized >= frames as f64, || {
        format!("{synthesized} syntheses for {frames} streamed frames")
    })
}

fn check_oracle(p: &Params, seed: u64, kept: &[Kept]) -> Result<(), String> {
    ensure(!kept.is_empty(), || "no frame was delivered".to_string())?;
    for k in kept {
        let body = field_body(p, seed, k.field, false);
        ensure(direct_frame_bytes(&body, k.frame)? == k.bytes, || {
            format!(
                "frame {} of field {} differs from a direct render",
                k.frame, k.field
            )
        })?;
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(scale: Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = Params::new(scale);
    let (mut cluster, setup_s) = repeated_setup(p.setups, || setup(&p, seed))?;
    let mut keep = Reservoir::new(seed, 0x0AC1, p.oracle_frames);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (log, _, wall) = run_connections(&p, &mut cluster, deadline, None, &mut keep, false);
    let stats = worker_stats(&cluster)?;
    check_regime(&p, &stats, &log, &cluster.fields)?;
    check_oracle(&p, seed, &keep.items)?;
    let mut r = Report {
        attempted: log.attempted(),
        failed: log.failed,
        ..Report::default()
    };
    r.set("frames_per_s", log.frames.len() as f64 / wall.as_secs_f64());
    r.set("frame_p50_us", log.frames.pct(50.0));
    r.set("frame_p99_us", log.frames.pct(99.0));
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", peak_rss_mb());
    r.lines.push(format!(
        "broadcast_routed: {} frames ({} streams, {} fetches) in {:.2} s; {} synthesized; failed {}",
        log.frames.len(),
        log.streams,
        log.fetches,
        wall.as_secs_f64(),
        sum(&stats, "channels", "synthesized"),
        log.failed
    ));
    Ok(r)
}

/// Routed fetches against direct-to-owner fetches of the same cached
/// frame, alternating.
fn measure_hop(p: &Params, cluster: &mut Cluster) -> Result<(Samples, Samples), String> {
    let field = &cluster.fields[0];
    let id = field.subscribers[0].clone();
    let local = node_of(&id)?;
    let frame = field.round * p.run - 1;
    let mut direct =
        ServiceClient::connect(cluster.workers[local.node].addr()).map_err(|e| e.to_string())?;
    let routed = &mut cluster.clients[0];
    let (mut via_router, mut to_owner) = (Samples::default(), Samples::default());
    for _ in 0..p.hop_samples {
        let t = Instant::now();
        let a = routed.fetch_frame(&id, frame).map_err(|e| e.to_string())?;
        via_router.push(t.elapsed());
        let t = Instant::now();
        let b = direct
            .fetch_frame(&local.local, frame)
            .map_err(|e| e.to_string())?;
        to_owner.push(t.elapsed());
        ensure(a.cache_hit && b.cache_hit && a.bytes == b.bytes, || {
            "routed and direct fetches of a cached frame disagree".to_string()
        })?;
    }
    Ok((via_router, to_owner))
}

/// The traced run: per-layer metrics and the reconciliation report. The
/// traced window runs a fixed number of rounds first, so its channel
/// counts repeat exactly for a seed.
pub fn run_traced(scale: Scale, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = Params::new(scale);
    let (mut cluster, _) = repeated_setup(p.setups, || setup(&p, seed))?;
    let mut keep = Reservoir::new(seed, 0x0AC1, p.oracle_frames);

    let before = worker_stats(&cluster)?;
    let guard = Instant::now() + Duration::from_secs_f64(seconds * 0.6 + 30.0);
    let (traced, spans, _) = run_connections(
        &p,
        &mut cluster,
        guard,
        Some(p.counted_rounds),
        &mut keep,
        true,
    );
    let counted = worker_stats(&cluster)?;
    let delivered = sum(&counted, "channels", "delivered") - sum(&before, "channels", "delivered");
    let synthesized =
        sum(&counted, "channels", "synthesized") - sum(&before, "channels", "synthesized");

    // Untraced and traced slices alternate, so drift over the run cancels
    // out of the overhead ratio; synthesis time is apportioned over the
    // untraced slices' frames.
    let slice = seconds * 0.4 / (2 * OVERHEAD_SLICES) as f64;
    let (mut untraced, mut sliced) = (Log::default(), Log::default());
    let (mut wall_u, mut wall_s) = (Duration::ZERO, Duration::ZERO);
    let mut synth_us = 0.0;
    for _ in 0..OVERHEAD_SLICES {
        let pre = synthesis_us(&worker_stats(&cluster)?);
        let deadline = Instant::now() + Duration::from_secs_f64(slice);
        let (log, _, wall) = run_connections(&p, &mut cluster, deadline, None, &mut keep, false);
        synth_us += synthesis_us(&worker_stats(&cluster)?) - pre;
        untraced.merge(log);
        wall_u += wall;
        let deadline = Instant::now() + Duration::from_secs_f64(slice);
        let (log, _, wall) = run_connections(&p, &mut cluster, deadline, None, &mut keep, true);
        sliced.merge(log);
        wall_s += wall;
    }
    let after = worker_stats(&cluster)?;
    let (routed, direct) = measure_hop(&p, &mut cluster)?;
    let mut all = Log::default();
    let synth_per_frame = synth_us / untraced.frames.len().max(1) as f64;
    let requests_per_frame =
        (untraced.streams + untraced.fetches) as f64 / untraced.frames.len().max(1) as f64;
    let whole = untraced.frames.mean();
    let fps_u = untraced.frames.len() as f64 / wall_u.as_secs_f64();
    let fps_t = sliced.frames.len() as f64 / wall_s.as_secs_f64();
    all.merge(traced);
    all.merge(sliced);
    all.merge(untraced);
    check_regime(&p, &after, &all, &cluster.fields)?;
    check_oracle(&p, seed, &keep.items)?;

    let mut r = Report {
        attempted: all.attempted(),
        failed: all.failed,
        ..Report::default()
    };
    r.set("channel.delivered", delivered);
    r.set("channel.synthesized", synthesized);
    r.set("channel.delivery_ratio", delivered / synthesized.max(1.0));
    r.set("channel.skips", sum(&after, "channels", "skips"));
    r.set(
        "channel.stale_serves",
        sum(&after, "pressure", "stale_serves"),
    );
    r.set("router.hop_p50_us", routed.pct(50.0) - direct.pct(50.0));
    r.set("peer.hits", sum(&after, "cluster", "peer_hits"));
    r.set("peer.misses", sum(&after, "cluster", "peer_misses"));

    let hop = routed.mean() - direct.mean();
    let parts = [
        ("worker serve (direct hit fetch)", direct.mean()),
        ("router hop (per request)", hop * requests_per_frame),
        ("synthesis (advect+synthesize+render)", synth_per_frame),
    ];
    let remainder = whole - parts.iter().map(|(_, us)| us).sum::<f64>();
    let overhead = fps_t / fps_u;
    r.set("remainder_us", remainder);
    r.set("trace.overhead_ratio", overhead);
    r.lines.push(format!(
        "ledger broadcast_routed: frame mean {whole:.1} us untraced; {:.3} requests per frame; \
         counted window {delivered} channel deliveries / {synthesized} syntheses, {} stream spans",
        requests_per_frame,
        spans.samples("stream").len()
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

    #[test]
    fn counted_window_repeats_its_channel_counts() {
        let count = || {
            let p = Params::new(Scale::Test);
            let mut cluster = setup(&p, 8).expect("cluster");
            let before = worker_stats(&cluster).expect("stats");
            let mut keep = Reservoir::new(8, 0, 0);
            let guard = Instant::now() + Duration::from_secs(60);
            let (log, _, _) = run_connections(&p, &mut cluster, guard, Some(3), &mut keep, false);
            assert_eq!(log.failed + log.unexpected, 0, "{:?}", log.first_error);
            let after = worker_stats(&cluster).expect("stats");
            sum(&after, "channels", "synthesized") - sum(&before, "channels", "synthesized")
        };
        let a = count();
        assert!(a >= 4.0 * 3.0, "{a} syntheses for 4 fields x 3 frames");
        assert_eq!(a, count());
    }

    #[test]
    fn both_runs_are_clean_on_a_held_out_seed() {
        for seed in [5, 6] {
            let r = run(Scale::Test, seed, 0.5).expect("untraced run");
            assert!(r.metrics["frames_per_s"] > 0.0);
            let t = run_traced(Scale::Test, seed, 0.5).expect("traced run");
            assert!(t.metrics["channel.synthesized"] > 0.0);
        }
    }
}
