//! Cluster-tier bench: a real multi-process topology — two worker
//! processes (peer-linked frame caches) behind an in-process router — with
//! a single-node baseline alongside.
//!
//! Measures what the cluster tier *costs* and proves what it *buys*:
//!
//! * **routed hot p50 vs single-node hot p50** — the price of the proxy
//!   hop on the pure-cache-hit path (one extra loopback round trip);
//! * **cross-node peer cache hits** — a frame rendered on one node served
//!   from its cache to a same-spec session placed on the *other* node,
//!   counted end-to-end through the new `cluster` stats block;
//! * **shared co-location** — same-spec shared sessions all landing on the
//!   channel-owning node;
//! * **bit identity** — a frame fetched through the router is byte-equal
//!   to the same frame fetched from the owning worker directly.
//!
//! Results feed `BENCH_cluster.json` (schema `bench_cluster/v1`). The
//! worker processes are the real `spotnoise-service` binary when it sits
//! next to the running bench executable (the normal `cargo build
//! --release` layout); otherwise the bench falls back to in-process
//! servers so `cargo run` from any cwd still measures something honest —
//! the artifact records which topology ran.

use crate::json::Json;
use spotnoise_service::{
    serve, serve_router, ClusterSessionId, RouterHandle, RouterOptions, ServiceClient,
    ServiceHandle, ServiceOptions,
};
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Workload knobs of one cluster bench run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterBenchOptions {
    /// Texture side length of the bench sessions.
    pub texture_size: usize,
    /// Spots per frame of the bench sessions.
    pub spot_count: usize,
    /// Cache-hot frame requests per latency sample set.
    pub hot_requests: usize,
    /// Shared sessions created to verify channel co-location.
    pub shared_sessions: usize,
}

impl ClusterBenchOptions {
    /// The default measurement run.
    pub fn standard() -> Self {
        ClusterBenchOptions {
            texture_size: 128,
            spot_count: 800,
            hot_requests: 48,
            shared_sessions: 6,
        }
    }

    /// A reduced run for CI smoke (`--quick`).
    pub fn quick() -> Self {
        ClusterBenchOptions {
            texture_size: 64,
            spot_count: 200,
            hot_requests: 16,
            shared_sessions: 4,
        }
    }

    fn session_body(&self, seed: u64, shared: bool) -> String {
        format!(
            concat!(
                "{{\"field\": {{\"kind\": \"vortex\", \"omega\": 1.0}}, ",
                "\"config\": {{\"texture_size\": {}, \"spot_count\": {}, ",
                "\"spot_texture_size\": 16, \"seed\": {}}}{}}}"
            ),
            self.texture_size,
            self.spot_count,
            seed,
            if shared { ", \"shared\": true" } else { "" }
        )
    }
}

/// The measured cluster run.
#[derive(Debug, Clone)]
pub struct ClusterBenchReport {
    /// `"process"` (real worker binaries) or `"in_process"` (fallback).
    pub topology: String,
    /// Worker node count behind the router.
    pub workers: usize,
    /// Cache-hot p50 against one worker directly, microseconds.
    pub single_hot_p50_us: f64,
    /// Cache-hot p50 through the router, microseconds.
    pub routed_hot_p50_us: f64,
    /// Cross-node peer cache hits observed (from the cluster stats view).
    pub peer_hits: f64,
    /// Peer probes this cluster answered from cache.
    pub peer_serves: f64,
    /// Whether the demo frame was actually served with the peer flag.
    pub peer_frame_flagged: bool,
    /// Whether every same-spec shared session landed on one node.
    pub colocated: bool,
    /// Distinct nodes that received the shared sessions (1 when colocated).
    pub shared_nodes: usize,
    /// Whether a routed frame was byte-identical to the owning worker's.
    pub bit_identical: bool,
    /// Sessions the router created during the run.
    pub sessions_created: f64,
}

/// One worker node: a spawned `spotnoise-service` process, or an
/// in-process server when the binary is not available next to the bench.
enum Worker {
    Process(std::process::Child, SocketAddr),
    InProcess(ServiceHandle),
}

impl Worker {
    fn addr(&self) -> SocketAddr {
        match self {
            Worker::Process(_, addr) => *addr,
            Worker::InProcess(handle) => handle.addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Worker::Process(mut child, addr) => {
                // Ask nicely first so the process exits through its drain
                // path; kill as the backstop.
                if let Ok(mut client) =
                    ServiceClient::connect_with_read_timeout(addr, Some(Duration::from_secs(2)))
                {
                    let _ = client.shutdown();
                }
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => return,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        _ => break,
                    }
                }
                let _ = child.kill();
                let _ = child.wait();
            }
            Worker::InProcess(handle) => handle.shutdown(),
        }
    }
}

/// Reserves a loopback port by binding an ephemeral listener and dropping
/// it. A tiny race with other processes exists; the bench topology needs
/// the port *before* the worker starts (peers are wired by address), and
/// re-binding a just-released loopback port is reliable in practice.
fn reserve_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// The `spotnoise-service` binary next to the running bench executable,
/// when present.
fn worker_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    let name = if cfg!(windows) {
        "spotnoise-service.exe"
    } else {
        "spotnoise-service"
    };
    let path = dir.join(name);
    path.is_file().then_some(path)
}

/// Spawns one worker process and waits for its `listening on http://`
/// banner (the port is pre-reserved, the banner confirms the bind).
fn spawn_worker_process(
    binary: &std::path::Path,
    port: u16,
    node_id: &str,
    peers: &[u16],
) -> Result<Worker, String> {
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("loopback addr");
    let peer_list = peers
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    let mut cmd = std::process::Command::new(binary);
    cmd.arg("--port")
        .arg(port.to_string())
        .arg("--node-id")
        .arg(node_id)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null());
    if !peer_list.is_empty() {
        cmd.arg("--peers").arg(peer_list);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
    let stdout = child.stdout.take().ok_or("worker stdout not captured")?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let _ = child.kill();
                return Err(format!("worker {node_id} exited before its banner"));
            }
            Ok(_) if line.contains("listening on http://") => break,
            Ok(_) => continue,
            Err(e) => {
                let _ = child.kill();
                return Err(format!("read worker {node_id} banner: {e}"));
            }
        }
    }
    // Keep draining stdout in the background so the worker never blocks on
    // a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    Ok(Worker::Process(child, addr))
}

/// Starts one in-process worker with the given peer links.
fn start_worker_in_process(port: u16, node_id: &str, peers: &[u16]) -> Result<Worker, String> {
    let options = ServiceOptions {
        node_id: Some(node_id.to_string()),
        peers: peers
            .iter()
            .map(|p| format!("127.0.0.1:{p}").parse().expect("loopback addr"))
            .collect(),
        ..ServiceOptions::default()
    };
    serve(("127.0.0.1", port), options)
        .map(Worker::InProcess)
        .map_err(|e| format!("bind in-process worker {node_id}: {e}"))
}

fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((q / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Warms one frame, then samples `n` cache-hot fetches of it.
fn hot_p50(client: &mut ServiceClient, session: &str, n: usize) -> Result<(f64, Vec<u8>), String> {
    let warm = client
        .fetch_frame(session, 0)
        .map_err(|e| format!("warm fetch: {e}"))?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let frame = client
            .fetch_frame(session, 0)
            .map_err(|e| format!("hot fetch: {e}"))?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        if !frame.cache_hit {
            return Err("hot fetch was not a cache hit".to_string());
        }
    }
    Ok((percentile(&mut samples, 50.0), warm.bytes))
}

/// Runs the cluster bench: 2 peer-linked workers + router, plus the
/// single-node baseline.
pub fn run_cluster_bench(opts: ClusterBenchOptions) -> Result<ClusterBenchReport, String> {
    let ports = [reserve_port(), reserve_port()];
    let (pa, pb) = match ports {
        [Ok(a), Ok(b)] => (a, b),
        _ => return Err("cannot reserve loopback ports".to_string()),
    };
    let binary = worker_binary();
    let topology = if binary.is_some() {
        "process"
    } else {
        "in_process"
    };
    let spawn = |port: u16, node_id: &str, peers: &[u16]| -> Result<Worker, String> {
        match &binary {
            Some(path) => spawn_worker_process(path, port, node_id, peers),
            None => start_worker_in_process(port, node_id, peers),
        }
    };
    let worker_a = spawn(pa, "w0", &[pb])?;
    let worker_b = match spawn(pb, "w1", &[pa]) {
        Ok(worker) => worker,
        Err(e) => {
            worker_a.shutdown();
            return Err(e);
        }
    };
    let workers = [worker_a, worker_b];
    let result = run_against(&workers, opts, topology);
    for worker in workers {
        worker.shutdown();
    }
    result
}

fn run_against(
    workers: &[Worker],
    opts: ClusterBenchOptions,
    topology: &str,
) -> Result<ClusterBenchReport, String> {
    let router: RouterHandle = serve_router(
        "127.0.0.1:0",
        RouterOptions {
            workers: workers.iter().map(Worker::addr).collect(),
            node_id: Some("bench-router".to_string()),
            ..RouterOptions::default()
        },
    )
    .map_err(|e| format!("bind router: {e}"))?;

    // Phase 1: single-node baseline — straight at worker 0.
    let mut direct =
        ServiceClient::connect(workers[0].addr()).map_err(|e| format!("connect worker 0: {e}"))?;
    let single_session = direct
        .create_session(&opts.session_body(101, false))
        .map_err(|e| format!("create baseline session: {e}"))?;
    let (single_hot_p50_us, _) = hot_p50(&mut direct, &single_session, opts.hot_requests)?;

    // Phase 2: the same workload through the router, plus bit identity:
    // the routed bytes must equal the owning worker's own bytes.
    let mut routed =
        ServiceClient::connect(router.addr()).map_err(|e| format!("connect router: {e}"))?;
    let routed_session = routed
        .create_session(&opts.session_body(202, false))
        .map_err(|e| format!("create routed session: {e}"))?;
    let (routed_hot_p50_us, routed_bytes) =
        hot_p50(&mut routed, &routed_session, opts.hot_requests)?;
    let cluster_id = ClusterSessionId::parse(&routed_session)
        .ok_or_else(|| format!("router returned a non-cluster id {routed_session:?}"))?;
    let owner = workers
        .get(cluster_id.node)
        .ok_or("cluster id names a node outside the topology")?;
    let mut owner_client =
        ServiceClient::connect(owner.addr()).map_err(|e| format!("connect owner: {e}"))?;
    let owner_frame = owner_client
        .fetch_frame(&cluster_id.local, 0)
        .map_err(|e| format!("owner fetch: {e}"))?;
    let bit_identical = owner_frame.bytes == routed_bytes;

    // Phase 3: cross-node peer cache lookup. Same-spec private sessions
    // spread over the ring; find two on different nodes, render the frame
    // on one, and the other node must serve it from its sibling's cache.
    let mut first: Option<ClusterSessionId> = None;
    let mut second: Option<ClusterSessionId> = None;
    for _ in 0..32 {
        let sid = routed
            .create_session(&opts.session_body(303, false))
            .map_err(|e| format!("create peer-demo session: {e}"))?;
        let id = ClusterSessionId::parse(&sid).ok_or("non-cluster id from router")?;
        match &first {
            None => first = Some(id),
            Some(a) if a.node != id.node => {
                second = Some(id);
                break;
            }
            Some(_) => {}
        }
    }
    let (first, second) = match (first, second) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("32 private sessions all landed on one node".to_string()),
    };
    routed
        .fetch_frame(&first.to_string(), 0)
        .map_err(|e| format!("render on node {}: {e}", first.node))?;
    let peer_frame = routed
        .fetch_frame(&second.to_string(), 0)
        .map_err(|e| format!("peer fetch on node {}: {e}", second.node))?;
    let peer_frame_flagged = peer_frame.peer;

    // Phase 4: shared co-location — every same-spec shared session must
    // land on its channel's owning node.
    let mut shared_nodes = std::collections::BTreeSet::new();
    for _ in 0..opts.shared_sessions.max(2) {
        let sid = routed
            .create_session(&opts.session_body(404, true))
            .map_err(|e| format!("create shared session: {e}"))?;
        let id = ClusterSessionId::parse(&sid).ok_or("non-cluster id from router")?;
        shared_nodes.insert(id.node);
    }

    // Read the cluster counters off the router's aggregated /stats.
    let stats = routed.stats().map_err(|e| format!("router stats: {e}"))?;
    let cluster_counter = |name: &str| -> f64 {
        stats
            .get("cluster")
            .and_then(|c| c.get("cluster"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let sessions_created = stats
        .get("router")
        .and_then(|r| r.get("sessions_created"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);

    let report = ClusterBenchReport {
        topology: topology.to_string(),
        workers: workers.len(),
        single_hot_p50_us,
        routed_hot_p50_us,
        peer_hits: cluster_counter("peer_hits"),
        peer_serves: cluster_counter("peer_serves"),
        peer_frame_flagged,
        colocated: shared_nodes.len() == 1,
        shared_nodes: shared_nodes.len(),
        bit_identical,
        sessions_created,
    };
    router.shutdown();
    Ok(report)
}

/// Human-readable summary.
pub fn format_report(report: &ClusterBenchReport) -> String {
    format!(
        "cluster bench ({} topology, {} workers)\n\
         \x20 hot p50: single {:.1}us, routed {:.1}us ({:.2}x)\n\
         \x20 peer cache: {} hits / {} serves, demo frame flagged: {}\n\
         \x20 shared co-location: {} node(s), bit-identical through router: {}\n\
         \x20 sessions created through router: {}",
        report.topology,
        report.workers,
        report.single_hot_p50_us,
        report.routed_hot_p50_us,
        report.routed_hot_p50_us / report.single_hot_p50_us.max(f64::MIN_POSITIVE),
        report.peer_hits,
        report.peer_serves,
        report.peer_frame_flagged,
        report.shared_nodes,
        report.bit_identical,
        report.sessions_created,
    )
}

/// Serializes the report in the `BENCH_cluster.json` schema.
pub fn report_to_json(report: &ClusterBenchReport) -> String {
    Json::object([
        ("schema", Json::str("bench_cluster/v1")),
        ("topology", Json::str(report.topology.clone())),
        ("workers", Json::num(report.workers as f64)),
        ("single_hot_p50_us", Json::num(report.single_hot_p50_us)),
        ("routed_hot_p50_us", Json::num(report.routed_hot_p50_us)),
        ("peer_hits", Json::num(report.peer_hits)),
        ("peer_serves", Json::num(report.peer_serves)),
        ("peer_frame_flagged", Json::Bool(report.peer_frame_flagged)),
        ("colocated", Json::Bool(report.colocated)),
        ("shared_nodes", Json::num(report.shared_nodes as f64)),
        ("bit_identical", Json::Bool(report.bit_identical)),
        ("sessions_created", Json::num(report.sessions_created)),
    ])
    .to_string_pretty()
}
