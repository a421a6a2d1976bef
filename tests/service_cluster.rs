//! Integration tests of the cluster tier: a router sharding sessions over
//! real worker servers on loopback, peer frame-cache lookup between
//! workers, and the cluster-wide health/stats views.
//!
//! The headline property carries over from the single-node suite: a frame
//! fetched *through the router* is bit-identical to calling the advect +
//! `synthesize_dnc` path directly — the cluster tier moves bytes between
//! sockets without perturbing a single texel.

use flowfield::analytic::Vortex;
use flowfield::{Rect, Vec2};
use softpipe::machine::MachineConfig;
use spotnoise::advect::{PositionMode, SpotAnimator};
use spotnoise::config::SynthesisConfig;
use spotnoise::dnc::synthesize_dnc;
use spotnoise::json::Json;
use spotnoise_service::{
    serve, serve_router, ClusterSessionId, RouterHandle, RouterOptions, ServiceClient,
    ServiceHandle, ServiceOptions,
};
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

fn domain() -> Rect {
    Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
}

/// The test sessions' synthesis configuration, mirrored on both sides.
fn test_config(seed: u64) -> SynthesisConfig {
    SynthesisConfig {
        texture_size: 64,
        spot_count: 120,
        spot_texture_size: 16,
        seed,
        ..SynthesisConfig::small_test()
    }
}

// Masters-only machine (no slaves → no submission reordering) so the
// divide-and-conquer output is bit-identical run to run; same idiom as the
// loopback suite.
fn session_body(seed: u64, omega: f64, shared: bool) -> String {
    format!(
        concat!(
            "{{\"field\": {{\"kind\": \"vortex\", \"omega\": {}, \"cx\": 0.5, \"cy\": 0.5}}, ",
            "\"config\": {{\"texture_size\": 64, \"spot_count\": 120, ",
            "\"spot_texture_size\": 16, \"seed\": {}}}, ",
            "\"machine\": {{\"processors\": 2, \"pipes\": 2}}, \"dt\": 0.05{}}}"
        ),
        omega,
        seed,
        if shared { ", \"shared\": true" } else { "" }
    )
}

/// Computes frame `index` with direct engine calls: advect `index + 1`
/// steps from the seed, then one divide-and-conquer synthesis, serialized
/// as little-endian f32.
fn direct_frame_bytes(seed: u64, omega: f64, index: u64) -> Vec<u8> {
    let cfg = test_config(seed);
    let field = Vortex {
        omega,
        center: Vec2::new(0.5, 0.5),
        domain: domain(),
    };
    let mut animator =
        SpotAnimator::new(domain(), cfg.spot_count, PositionMode::Advected, cfg.seed);
    for _ in 0..=index {
        animator.advance(&field, 0.05);
    }
    let spots = animator.spots();
    let out = synthesize_dnc(&field, &spots, &cfg, &MachineConfig::new(2, 2));
    let mut bytes = Vec::with_capacity(out.texture.data().len() * 4);
    for v in out.texture.data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// Starts `n` loopback workers (no peer links) and a router over them with
/// a short health TTL so degradation tests converge quickly.
fn start_cluster(n: usize) -> (Vec<ServiceHandle>, RouterHandle) {
    let workers: Vec<ServiceHandle> = (0..n)
        .map(|i| {
            serve(
                "127.0.0.1:0",
                ServiceOptions {
                    node_id: Some(format!("w{i}")),
                    ..ServiceOptions::default()
                },
            )
            .expect("bind worker")
        })
        .collect();
    let router = serve_router(
        "127.0.0.1:0",
        RouterOptions {
            workers: workers.iter().map(|w| w.addr()).collect(),
            node_id: Some("test-router".to_string()),
            health_ttl: Duration::from_millis(50),
            health_timeout: Duration::from_millis(250),
            ..RouterOptions::default()
        },
    )
    .expect("bind router");
    (workers, router)
}

#[test]
fn frames_through_the_router_match_direct_synthesis_bit_for_bit() {
    let (workers, router) = start_cluster(2);
    let mut client = ServiceClient::connect(router.addr()).expect("connect router");
    let (seed, omega) = (11u64, 1.0f64);
    let session = client
        .create_session(&session_body(seed, omega, false))
        .expect("create through router");
    let id = ClusterSessionId::parse(&session).expect("router must return a cluster id");
    assert!(id.node < workers.len(), "cluster id names a real node");
    for frame in 0..3u64 {
        let fetched = client.fetch_frame(&session, frame).expect("routed fetch");
        assert_eq!(fetched.frame, frame);
        assert_eq!(
            fetched.bytes,
            direct_frame_bytes(seed, omega, frame),
            "frame {frame}: texture through the router diverged from direct synthesize_dnc"
        );
        assert_eq!(
            fetched.node.as_deref(),
            Some(format!("w{}", id.node).as_str()),
            "the owning worker's X-Node-Id must survive the proxy"
        );
    }
    // Re-fetching is a cache hit on the owning node, still byte-identical.
    let again = client.fetch_frame(&session, 1).expect("routed refetch");
    assert!(again.cache_hit);
    assert_eq!(again.bytes, direct_frame_bytes(seed, omega, 1));
    client
        .close_session(&session)
        .expect("close through router");
    assert!(
        client.fetch_frame(&session, 0).is_err(),
        "closed session must be gone"
    );
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn same_spec_shared_sessions_colocate_on_one_node() {
    let (workers, router) = start_cluster(3);
    let mut client = ServiceClient::connect(router.addr()).expect("connect router");
    let mut nodes = std::collections::BTreeSet::new();
    let mut sessions = Vec::new();
    for _ in 0..6 {
        let session = client
            .create_session(&session_body(77, 1.0, true))
            .expect("create shared session");
        let id = ClusterSessionId::parse(&session).expect("cluster id");
        nodes.insert(id.node);
        sessions.push(session);
    }
    assert_eq!(
        nodes.len(),
        1,
        "same-spec shared sessions spread over nodes {nodes:?}; subscribers must \
         co-locate on the channel-owning node to share one synthesis"
    );
    // All subscribers see the one broadcast frame, byte-identical.
    let expected = direct_frame_bytes(77, 1.0, 0);
    for session in &sessions {
        let fetched = client.fetch_frame(session, 0).expect("subscriber fetch");
        assert_eq!(fetched.bytes, expected);
    }
    // Private sessions with distinct salts do spread (statistically: 12
    // creates over 3 nodes all landing on one node is ~3e-6).
    let mut private_nodes = std::collections::BTreeSet::new();
    for _ in 0..12 {
        let session = client
            .create_session(&session_body(77, 1.0, false))
            .expect("create private session");
        private_nodes.insert(ClusterSessionId::parse(&session).expect("cluster id").node);
    }
    assert!(
        private_nodes.len() > 1,
        "12 private sessions all landed on one of 3 nodes"
    );
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}

#[test]
fn a_node_serves_its_siblings_cached_frames_instead_of_rendering() {
    // Two workers, each listing the other as a peer. The ports must be
    // known before either starts (the peer list is plain addresses), so
    // reserve ephemeral ports first.
    let reserve = || -> u16 {
        TcpListener::bind("127.0.0.1:0")
            .expect("reserve port")
            .local_addr()
            .expect("local addr")
            .port()
    };
    let (pa, pb) = (reserve(), reserve());
    let addr = |p: u16| -> SocketAddr { format!("127.0.0.1:{p}").parse().expect("addr") };
    let worker_a = serve(
        ("127.0.0.1", pa),
        ServiceOptions {
            node_id: Some("a".to_string()),
            peers: vec![addr(pb)],
            ..ServiceOptions::default()
        },
    )
    .expect("bind worker a");
    let worker_b = serve(
        ("127.0.0.1", pb),
        ServiceOptions {
            node_id: Some("b".to_string()),
            peers: vec![addr(pa)],
            ..ServiceOptions::default()
        },
    )
    .expect("bind worker b");

    let (seed, omega) = (42u64, 1.0f64);
    // Render frame 0 on node A.
    let mut client_a = ServiceClient::connect(worker_a.addr()).expect("connect a");
    let session_a = client_a
        .create_session(&session_body(seed, omega, false))
        .expect("create on a");
    let rendered = client_a.fetch_frame(&session_a, 0).expect("render on a");
    assert!(!rendered.cache_hit, "first fetch must synthesize");

    // The same spec on node B: the frame key is content-addressed, so B's
    // local miss must be answered by A's cache, not a second render.
    let mut client_b = ServiceClient::connect(worker_b.addr()).expect("connect b");
    let session_b = client_b
        .create_session(&session_body(seed, omega, false))
        .expect("create on b");
    let fetched = client_b.fetch_frame(&session_b, 0).expect("fetch on b");
    assert!(
        fetched.peer,
        "node b should have served the frame from its sibling's cache"
    );
    assert!(fetched.cache_hit, "a peer serve counts as a cache hit");
    assert_eq!(
        fetched.bytes, rendered.bytes,
        "peer-served bytes must equal the original render"
    );
    assert_eq!(fetched.bytes, direct_frame_bytes(seed, omega, 0));

    // Both sides counted the exchange.
    let stats_b = client_b.stats().expect("stats b");
    let counter = |doc: &Json, name: &str| -> f64 {
        doc.get("cluster")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    assert!(
        counter(&stats_b, "peer_hits") >= 1.0,
        "node b must count its peer cache hit"
    );
    let stats_a = client_a.stats().expect("stats a");
    assert!(
        counter(&stats_a, "peer_serves") >= 1.0,
        "node a must count the probe it answered"
    );
    // A frame B already holds locally is NOT re-probed from peers.
    let local = client_b.fetch_frame(&session_b, 0).expect("refetch on b");
    assert!(local.cache_hit && !local.peer, "refetch is a local hit");
    worker_a.shutdown();
    worker_b.shutdown();
}

#[test]
fn the_router_degrades_and_routes_around_a_dead_worker() {
    let (mut workers, router) = start_cluster(2);
    let mut client = ServiceClient::connect(router.addr()).expect("connect router");
    let healthz = |client: &mut ServiceClient| -> (u16, String) {
        let reply = client.request("GET", "/healthz", b"").expect("healthz");
        let status = Json::parse(&String::from_utf8_lossy(&reply.body))
            .ok()
            .and_then(|doc| doc.get("status").and_then(Json::as_str).map(String::from))
            .unwrap_or_default();
        (reply.status, status)
    };
    assert_eq!(healthz(&mut client), (200, "ok".to_string()));

    // Kill worker 0; after the health cache TTL the router must report a
    // degraded (but serving, hence 200) cluster.
    workers.remove(0).shutdown();
    std::thread::sleep(Duration::from_millis(120));
    let (code, status) = healthz(&mut client);
    assert_eq!(
        (code, status.as_str()),
        (200, "degraded"),
        "one dead worker of two must degrade, not kill, the cluster"
    );

    // Creates keep landing on the survivor — enough of them that some must
    // have preferred the dead node and been rerouted.
    for i in 0..16 {
        let session = client
            .create_session(&session_body(1000 + i, 1.0, false))
            .expect("create with one worker down");
        let id = ClusterSessionId::parse(&session).expect("cluster id");
        assert_eq!(id.node, 1, "placements must avoid the dead node");
        let fetched = client
            .fetch_frame(&session, 0)
            .expect("fetch from survivor");
        assert_eq!(fetched.bytes, direct_frame_bytes(1000 + i, 1.0, 0));
    }
    let stats = client.stats().expect("router stats");
    let rerouted = stats
        .get("router")
        .and_then(|r| r.get("rerouted"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(
        rerouted >= 1.0,
        "16 placements with half the ring dead must reroute at least once \
         (got {rerouted})"
    );

    // Kill the survivor too: the cluster is unavailable and creates shed.
    workers.remove(0).shutdown();
    std::thread::sleep(Duration::from_millis(120));
    let (code, status) = healthz(&mut client);
    assert_eq!(
        (code, status.as_str()),
        (503, "unavailable"),
        "an all-dead cluster must fail health checks"
    );
    assert!(
        client.create_session(&session_body(9, 1.0, false)).is_err(),
        "creates must shed when every node is down"
    );
    router.shutdown();
}

#[test]
fn cluster_stats_aggregate_and_streams_relay_bit_identically() {
    let (workers, router) = start_cluster(2);
    let mut client = ServiceClient::connect(router.addr()).expect("connect router");
    let (seed, omega) = (5u64, -2.0f64);
    let session = client
        .create_session(&session_body(seed, omega, false))
        .expect("create through router");

    // A relayed stream is byte-identical to direct synthesis and keeps the
    // worker's identity headers.
    let node = ClusterSessionId::parse(&session).expect("cluster id").node;
    {
        let mut stream = client.stream_frames(&session, 0, 3).expect("routed stream");
        assert_eq!(stream.header("x-stream-from"), Some("0"));
        assert_eq!(stream.header("x-stream-count"), Some("3"));
        assert_eq!(
            stream.header("x-node-id"),
            Some(format!("w{node}").as_str())
        );
        let mut frames = Vec::new();
        while let Some(frame) = stream.next_frame().expect("stream frame") {
            frames.push(frame);
        }
        assert_eq!(frames.len(), 3);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.frame, i as u64);
            assert_eq!(
                frame.bytes,
                direct_frame_bytes(seed, omega, i as u64),
                "streamed frame {i} through the router diverged"
            );
        }
    }
    // The connection survives the relay (terminal chunk left it in sync).
    client.fetch_frame(&session, 0).expect("reuse after stream");

    // The aggregated stats view: cluster schema, per-node detail, and the
    // summed render counter covering the streamed frames.
    let stats = client.stats().expect("router stats");
    assert_eq!(
        stats.get("schema").and_then(Json::as_str),
        Some("spotnoise_cluster_stats/v1")
    );
    let per_node = stats
        .get("per_node")
        .and_then(Json::as_array)
        .expect("per_node array");
    assert_eq!(per_node.len(), 2);
    for entry in per_node {
        assert_eq!(entry.get("up").and_then(Json::as_bool), Some(true));
    }
    let rendered = stats
        .get("cluster")
        .and_then(|c| c.get("frames"))
        .and_then(|f| f.get("rendered"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    assert!(
        rendered >= 3.0,
        "cluster view must sum worker render counters (got {rendered})"
    );
    // The router's own metrics expose every router counter, next to the
    // per-node relabeled series.
    let metrics = client.metrics().expect("router metrics");
    assert!(metrics.contains("spotnoise_router_requests_total"));
    for (name, at_least) in [
        ("spotnoise_router_sessions_created_total", 1),
        ("spotnoise_router_streams_relayed_total", 1),
        ("spotnoise_router_panics_caught_total", 0),
    ] {
        let value = metrics
            .lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("router /metrics lacks {name}"));
        assert!(
            value >= at_least,
            "{name} = {value}, expected >= {at_least}"
        );
    }
    assert!(metrics.contains("node=\""));
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}
