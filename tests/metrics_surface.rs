//! Golden test of the observable metric surfaces: every leaf path of a
//! node's `/stats` and the router's cluster `/stats`, and every
//! `# TYPE <name> <kind>` line of both `/metrics` expositions.
//!
//! A fixed workload (private fetches, a shared-session stream and one
//! peer-cache hit) runs against one standalone node and a router over two
//! peer-linked workers; the collected surfaces must equal the lists below.
//! A metric that is renamed, dropped, re-typed or newly summed into the
//! cluster view shows up here as a diff, not as a silently different
//! dashboard.

use spotnoise::json::Json;
use spotnoise_service::{serve, serve_router, RouterOptions, ServiceClient, ServiceOptions};
use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};

const NODE_STATS: &[&str] = &[
    "cache.bytes",
    "cache.capacity_bytes",
    "cache.entries",
    "cache.evictions",
    "cache.hit_rate",
    "cache.hits",
    "cache.inserted_lookahead",
    "cache.insertions",
    "cache.misses",
    "channels.created",
    "channels.delivered",
    "channels.delivery_ratio",
    "channels.live",
    "channels.peak_subscribers",
    "channels.skips",
    "channels.subscribers",
    "channels.synthesized",
    "cluster.peer_errors",
    "cluster.peer_hits",
    "cluster.peer_misses",
    "cluster.peer_serves",
    "faults.injected_delays",
    "faults.injected_panics",
    "faults.lock_recoveries",
    "faults.panics_caught",
    "frames.advect_us_total",
    "frames.mean_synthesize_us",
    "frames.render_us_total",
    "frames.rendered",
    "frames.synthesize_us_total",
    "http.requests",
    "http.streamed_frames",
    "http.streams",
    "http.streams_aborted",
    "latency.advect.count",
    "latency.advect.max_us",
    "latency.advect.mean_us",
    "latency.advect.p50_us",
    "latency.advect.p90_us",
    "latency.advect.p99_us",
    "latency.pipe_checkout.count",
    "latency.pipe_checkout.max_us",
    "latency.pipe_checkout.mean_us",
    "latency.pipe_checkout.p50_us",
    "latency.pipe_checkout.p90_us",
    "latency.pipe_checkout.p99_us",
    "latency.queue_wait.count",
    "latency.queue_wait.max_us",
    "latency.queue_wait.mean_us",
    "latency.queue_wait.p50_us",
    "latency.queue_wait.p90_us",
    "latency.queue_wait.p99_us",
    "latency.render.count",
    "latency.render.max_us",
    "latency.render.mean_us",
    "latency.render.p50_us",
    "latency.render.p90_us",
    "latency.render.p99_us",
    "latency.request.count",
    "latency.request.max_us",
    "latency.request.mean_us",
    "latency.request.p50_us",
    "latency.request.p90_us",
    "latency.request.p99_us",
    "latency.synthesize.count",
    "latency.synthesize.max_us",
    "latency.synthesize.mean_us",
    "latency.synthesize.p50_us",
    "latency.synthesize.p90_us",
    "latency.synthesize.p99_us",
    "node.id",
    "node.peers",
    "per_session[].frames_rendered",
    "per_session[].head_frame",
    "per_session[].in_flight",
    "per_session[].rewinds",
    "per_session[].session",
    "per_session[].shared",
    "per_session[].steers",
    "pipes.discarded",
    "pipes.idle",
    "pipes.retired",
    "pipes.reused",
    "pipes.spawned",
    "pressure.deadline_shed",
    "pressure.degraded_serves",
    "pressure.entered_elevated",
    "pressure.entered_saturated",
    "pressure.recovered",
    "pressure.stale_serves",
    "pressure.state",
    "queue.accepted",
    "queue.completed",
    "queue.depth",
    "queue.peak_depth",
    "queue.per_session_cap",
    "queue.shed_busy",
    "queue.shed_session",
    "queue.watermark",
    "schema",
    "sessions.capacity",
    "sessions.closed",
    "sessions.created",
    "sessions.evicted",
    "sessions.ids[]",
    "sessions.live",
    "sessions.quarantined",
    "uptime_seconds",
];

const NODE_METRICS: &[&str] = &[
    "# TYPE spotnoise_cache_bytes gauge",
    "# TYPE spotnoise_cache_entries gauge",
    "# TYPE spotnoise_cache_evictions_total counter",
    "# TYPE spotnoise_cache_hits_total counter",
    "# TYPE spotnoise_cache_inserted_lookahead_total counter",
    "# TYPE spotnoise_cache_insertions_total counter",
    "# TYPE spotnoise_cache_misses_total counter",
    "# TYPE spotnoise_channels_delivered_total counter",
    "# TYPE spotnoise_channels_live gauge",
    "# TYPE spotnoise_channels_skips_total counter",
    "# TYPE spotnoise_channels_subscribers gauge",
    "# TYPE spotnoise_channels_synthesized_total counter",
    "# TYPE spotnoise_deadline_shed_total counter",
    "# TYPE spotnoise_degraded_serves_total counter",
    "# TYPE spotnoise_fault_injected_delays_total counter",
    "# TYPE spotnoise_fault_injected_panics_total counter",
    "# TYPE spotnoise_frames_rendered_total counter",
    "# TYPE spotnoise_frames_streamed_total counter",
    "# TYPE spotnoise_http_requests_total counter",
    "# TYPE spotnoise_lock_recoveries_total counter",
    "# TYPE spotnoise_panics_caught_total counter",
    "# TYPE spotnoise_peer_cache_errors_total counter",
    "# TYPE spotnoise_peer_cache_hits_total counter",
    "# TYPE spotnoise_peer_cache_misses_total counter",
    "# TYPE spotnoise_peer_cache_serves_total counter",
    "# TYPE spotnoise_pipe_checkout_wait_us histogram",
    "# TYPE spotnoise_pipe_checkout_wait_us_p50 gauge",
    "# TYPE spotnoise_pipe_checkout_wait_us_p90 gauge",
    "# TYPE spotnoise_pipe_checkout_wait_us_p99 gauge",
    "# TYPE spotnoise_pipes_discarded_total counter",
    "# TYPE spotnoise_pipes_idle gauge",
    "# TYPE spotnoise_pipes_retired_total counter",
    "# TYPE spotnoise_pipes_reused_total counter",
    "# TYPE spotnoise_pipes_spawned_total counter",
    "# TYPE spotnoise_pressure_entered_elevated_total counter",
    "# TYPE spotnoise_pressure_entered_saturated_total counter",
    "# TYPE spotnoise_pressure_recovered_total counter",
    "# TYPE spotnoise_pressure_state gauge",
    "# TYPE spotnoise_queue_accepted_total counter",
    "# TYPE spotnoise_queue_completed_total counter",
    "# TYPE spotnoise_queue_depth gauge",
    "# TYPE spotnoise_queue_peak_depth gauge",
    "# TYPE spotnoise_queue_shed_busy_total counter",
    "# TYPE spotnoise_queue_shed_session_total counter",
    "# TYPE spotnoise_queue_wait_us histogram",
    "# TYPE spotnoise_queue_wait_us_p50 gauge",
    "# TYPE spotnoise_queue_wait_us_p90 gauge",
    "# TYPE spotnoise_queue_wait_us_p99 gauge",
    "# TYPE spotnoise_request_duration_us histogram",
    "# TYPE spotnoise_request_duration_us_p50 gauge",
    "# TYPE spotnoise_request_duration_us_p90 gauge",
    "# TYPE spotnoise_request_duration_us_p99 gauge",
    "# TYPE spotnoise_sessions_closed_total counter",
    "# TYPE spotnoise_sessions_created_total counter",
    "# TYPE spotnoise_sessions_evicted_total counter",
    "# TYPE spotnoise_sessions_live gauge",
    "# TYPE spotnoise_sessions_quarantined_total counter",
    "# TYPE spotnoise_stage_advect_us histogram",
    "# TYPE spotnoise_stage_advect_us_p50 gauge",
    "# TYPE spotnoise_stage_advect_us_p90 gauge",
    "# TYPE spotnoise_stage_advect_us_p99 gauge",
    "# TYPE spotnoise_stage_render_us histogram",
    "# TYPE spotnoise_stage_render_us_p50 gauge",
    "# TYPE spotnoise_stage_render_us_p90 gauge",
    "# TYPE spotnoise_stage_render_us_p99 gauge",
    "# TYPE spotnoise_stage_synthesize_us histogram",
    "# TYPE spotnoise_stage_synthesize_us_p50 gauge",
    "# TYPE spotnoise_stage_synthesize_us_p90 gauge",
    "# TYPE spotnoise_stage_synthesize_us_p99 gauge",
    "# TYPE spotnoise_stale_serves_total counter",
    "# TYPE spotnoise_streams_aborted_total counter",
    "# TYPE spotnoise_streams_started_total counter",
    "# TYPE spotnoise_trace_recorded_total counter",
    "# TYPE spotnoise_uptime_seconds gauge",
];

const ROUTER_STATS: &[&str] = &[
    "cluster.cache.bytes",
    "cluster.cache.entries",
    "cluster.cache.evictions",
    "cluster.cache.hits",
    "cluster.cache.inserted_lookahead",
    "cluster.cache.insertions",
    "cluster.cache.misses",
    "cluster.channels.created",
    "cluster.channels.delivered",
    "cluster.channels.live",
    "cluster.channels.peak_subscribers",
    "cluster.channels.skips",
    "cluster.channels.subscribers",
    "cluster.channels.synthesized",
    "cluster.cluster.peer_errors",
    "cluster.cluster.peer_hits",
    "cluster.cluster.peer_misses",
    "cluster.cluster.peer_serves",
    "cluster.faults.injected_delays",
    "cluster.faults.injected_panics",
    "cluster.faults.lock_recoveries",
    "cluster.faults.panics_caught",
    "cluster.frames.advect_us_total",
    "cluster.frames.render_us_total",
    "cluster.frames.rendered",
    "cluster.frames.synthesize_us_total",
    "cluster.http.requests",
    "cluster.http.streamed_frames",
    "cluster.http.streams",
    "cluster.http.streams_aborted",
    "cluster.pipes.discarded",
    "cluster.pipes.idle",
    "cluster.pipes.retired",
    "cluster.pipes.reused",
    "cluster.pipes.spawned",
    "cluster.pressure.deadline_shed",
    "cluster.pressure.degraded_serves",
    "cluster.pressure.entered_elevated",
    "cluster.pressure.entered_saturated",
    "cluster.pressure.recovered",
    "cluster.pressure.stale_serves",
    "cluster.queue.accepted",
    "cluster.queue.completed",
    "cluster.queue.depth",
    "cluster.queue.peak_depth",
    "cluster.queue.shed_busy",
    "cluster.queue.shed_session",
    "cluster.sessions.closed",
    "cluster.sessions.created",
    "cluster.sessions.evicted",
    "cluster.sessions.live",
    "cluster.sessions.quarantined",
    "cluster.uptime_seconds",
    "per_node[].addr",
    "per_node[].id",
    "per_node[].node",
    "per_node[].up",
    "router.frames_relayed",
    "router.id",
    "router.node_errors",
    "router.panics_caught",
    "router.proxied",
    "router.requests",
    "router.rerouted",
    "router.sessions_created",
    "router.shed",
    "router.streams_relayed",
    "router.workers",
    "router.workers_up",
    "schema",
    "uptime_seconds",
];

const ROUTER_METRICS: &[&str] = &[
    "# TYPE spotnoise_router_frames_relayed_total counter",
    "# TYPE spotnoise_router_node_errors_total counter",
    "# TYPE spotnoise_router_panics_caught_total counter",
    "# TYPE spotnoise_router_proxied_total counter",
    "# TYPE spotnoise_router_requests_total counter",
    "# TYPE spotnoise_router_rerouted_total counter",
    "# TYPE spotnoise_router_sessions_created_total counter",
    "# TYPE spotnoise_router_shed_total counter",
    "# TYPE spotnoise_router_streams_relayed_total counter",
];

fn session_body(seed: u64, shared: bool) -> String {
    format!(
        concat!(
            "{{\"field\": {{\"kind\": \"vortex\", \"omega\": 1.0, \"cx\": 0.5, \"cy\": 0.5}}, ",
            "\"config\": {{\"texture_size\": 32, \"spot_count\": 40, ",
            "\"spot_texture_size\": 8, \"seed\": {}}}, ",
            "\"machine\": {{\"processors\": 2, \"pipes\": 2}}, \"dt\": 0.05{}}}"
        ),
        seed,
        if shared { ", \"shared\": true" } else { "" }
    )
}

/// Every leaf path of a JSON document: object keys joined with `.`, array
/// elements collapsed to `[]`.
fn leaf_paths(doc: &Json) -> BTreeSet<String> {
    fn walk(value: &Json, path: String, out: &mut BTreeSet<String>) {
        match value {
            Json::Object(entries) => {
                for (key, child) in entries {
                    let child_path = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    walk(child, child_path, out);
                }
            }
            Json::Array(items) => {
                for item in items {
                    walk(item, format!("{path}[]"), out);
                }
            }
            _ => {
                out.insert(path);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, String::new(), &mut out);
    out
}

/// Every `# TYPE <name> <kind>` line of a Prometheus exposition.
fn type_lines(text: &str) -> BTreeSet<String> {
    text.lines()
        .filter(|line| line.starts_with("# TYPE "))
        .map(str::to_string)
        .collect()
}

fn assert_surface(what: &str, actual: &BTreeSet<String>, list: &[&str]) {
    let want: BTreeSet<String> = list.iter().map(|line| line.to_string()).collect();
    let missing: Vec<_> = want.difference(actual).collect();
    let extra: Vec<_> = actual.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{what} drifted from its golden list\n  missing: {missing:#?}\n  unexpected: {extra:#?}"
    );
}

/// Private fetches and a three-frame shared-session stream.
fn drive(client: &mut ServiceClient, seed: u64) {
    let private = client
        .create_session(&session_body(seed, false))
        .expect("create private session");
    for frame in 0..3 {
        client.fetch_frame(&private, frame).expect("private fetch");
    }
    client.fetch_frame(&private, 1).expect("cached refetch");
    let shared = client
        .create_session(&session_body(seed + 1, true))
        .expect("create shared session");
    let mut stream = client.stream_frames(&shared, 0, 3).expect("shared stream");
    let mut streamed = 0;
    while stream.next_frame().expect("stream frame").is_some() {
        streamed += 1;
    }
    assert_eq!(streamed, 3);
}

#[test]
fn node_and_router_surfaces_match_their_golden_lists() {
    // One standalone node.
    let node = serve("127.0.0.1:0", ServiceOptions::default()).expect("bind node");
    let mut client = ServiceClient::connect(node.addr()).expect("connect node");
    drive(&mut client, 301);
    let node_stats = leaf_paths(&client.stats().expect("node stats"));
    let node_metrics = type_lines(&client.metrics().expect("node metrics"));
    node.shutdown();

    // Two peer-linked workers behind a router.
    let reserve = || {
        TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("reserve port")
            .port()
    };
    let (pa, pb) = (reserve(), reserve());
    let addr = |p: u16| -> SocketAddr { format!("127.0.0.1:{p}").parse().expect("addr") };
    let worker = |port: u16, id: &str, peer: u16| {
        serve(
            ("127.0.0.1", port),
            ServiceOptions {
                node_id: Some(id.to_string()),
                peers: vec![addr(peer)],
                ..ServiceOptions::default()
            },
        )
        .expect("bind worker")
    };
    let workers = [worker(pa, "w0", pb), worker(pb, "w1", pa)];
    let router = serve_router(
        "127.0.0.1:0",
        RouterOptions {
            workers: workers.iter().map(|w| w.addr()).collect(),
            node_id: Some("router".to_string()),
            ..RouterOptions::default()
        },
    )
    .expect("bind router");
    let mut client = ServiceClient::connect(router.addr()).expect("connect router");
    drive(&mut client, 401);
    // One peer-cache hit: the same private spec rendered on w0, then
    // fetched on w1, which must be answered out of w0's cache.
    let mut direct = [0, 1].map(|i| ServiceClient::connect(workers[i].addr()).expect("worker"));
    let on_a = direct[0]
        .create_session(&session_body(501, false))
        .expect("create on w0");
    direct[0].fetch_frame(&on_a, 0).expect("render on w0");
    let on_b = direct[1]
        .create_session(&session_body(501, false))
        .expect("create on w1");
    assert!(direct[1].fetch_frame(&on_b, 0).expect("fetch on w1").peer);

    let router_doc = client.stats().expect("router stats");
    let router_text = client.metrics().expect("router metrics");
    router.shutdown();
    for w in workers {
        w.shutdown();
    }

    // The per-node documents the router embeds have the node's own shape.
    let mut router_stats = BTreeSet::new();
    let mut embedded = BTreeSet::new();
    for path in leaf_paths(&router_doc) {
        match path.strip_prefix("per_node[].stats.") {
            Some(rest) => embedded.insert(rest.to_string()),
            None => router_stats.insert(path),
        };
    }
    assert_eq!(
        embedded, node_stats,
        "per_node[].stats differs from a node's /stats"
    );
    // The router re-exports the workers' series next to its own.
    let (router_metrics, relayed): (BTreeSet<String>, BTreeSet<String>) = type_lines(&router_text)
        .into_iter()
        .partition(|line| line.starts_with("# TYPE spotnoise_router_"));
    assert_eq!(
        relayed, node_metrics,
        "relayed worker series differ from a node's"
    );

    assert_surface("node /stats", &node_stats, NODE_STATS);
    assert_surface("node /metrics", &node_metrics, NODE_METRICS);
    assert_surface("router /stats", &router_stats, ROUTER_STATS);
    assert_surface("router /metrics", &router_metrics, ROUTER_METRICS);
}
