//! Cluster-tier primitives shared by the router and its tests: consistent
//! hashing, the cluster session-id codec, and the `/stats` aggregation
//! table.
//!
//! The paper scales spot noise by dividing the work over processors and
//! compositing the results; the service scales the same way over
//! *processes*. A [`HashRing`] places sessions (and shared-field channels)
//! on worker nodes so that the same key always lands on the same node — a
//! prerequisite for the frame cache and the shared-field broadcast
//! channels to keep working across a cluster. [`ClusterSessionId`] is the
//! client-side view of a cluster-form [`SessionId`], which embeds the
//! owning node into the client-visible session id, so every later request
//! routes without a lookup table. [`aggregate_stats`] folds the
//! per-node `/stats` documents into the router's cluster view by each
//! field's declared kind, so the view never adds numbers that are
//! meaningless to add.

use crate::api::SessionId;
use crate::metrics::{self, Kind};
use crate::session::format_session_id;
use spotnoise::hash::StableHasher;
use spotnoise::json::Json;

/// How many virtual points each node contributes to the ring. More points
/// smooth the key distribution across nodes (the classic consistent-hashing
/// trade-off: memory and lookup cost vs placement variance).
pub const VIRTUAL_POINTS: usize = 64;

/// A consistent-hash ring over `n` nodes.
///
/// Each node owns [`VIRTUAL_POINTS`] pseudo-random points on a `u64`
/// circle (positions come from [`StableHasher`], so placement is identical
/// across processes and runs). A key maps to the first point at or after
/// its own hash, wrapping at the top. Adding or removing one node moves
/// only the keys in that node's arcs — sessions on surviving nodes keep
/// their placement, which keeps their frame caches warm.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, node)` sorted by position.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds a ring over nodes `0..nodes`. A zero-node ring is legal but
    /// places nothing ([`HashRing::nodes_for`] yields no node).
    pub fn new(nodes: usize) -> Self {
        let mut points = Vec::with_capacity(nodes * VIRTUAL_POINTS);
        for node in 0..nodes {
            for replica in 0..VIRTUAL_POINTS {
                let mut h = StableHasher::new();
                h.write_str("spotnoise-ring-point");
                h.write_usize(node);
                h.write_usize(replica);
                points.push((h.finish(), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// How many nodes the ring was built over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Mixes an arbitrary `u64` key onto the ring circle. Keys here are
    /// already hashes (content hashes, salted session counters), but one
    /// more mix keeps structured key spaces from clustering on the circle.
    fn position(key: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("spotnoise-ring-key");
        h.write_u64(key);
        h.finish()
    }

    /// Every node in ring order starting at `key`'s successor point, each
    /// node once. The router walks this to route around saturated or dead
    /// nodes: the first healthy node in the walk owns the key *for now*,
    /// and when the preferred node recovers the key falls back to it.
    pub fn nodes_for(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = match self.points.is_empty() {
            true => 0,
            false => {
                let pos = Self::position(key);
                self.points.partition_point(|&(p, _)| p < pos) % self.points.len()
            }
        };
        let mut seen = vec![false; self.nodes];
        let mut yielded = 0usize;
        let points = &self.points;
        let nodes = self.nodes;
        (0..points.len()).filter_map(move |offset| {
            if yielded == nodes {
                return None;
            }
            let (_, node) = points[(start + offset) % points.len()];
            if seen[node] {
                return None;
            }
            seen[node] = true;
            yielded += 1;
            Some(node)
        })
    }
}

/// A cluster session id: the owning node's index plus that node's local
/// session id, rendered as `n<node>.<local>` (e.g. `n2.s-17`) — the
/// cluster form of a [`SessionId`], with the local id in its wire form.
///
/// The id the router hands out *is* the routing table — every follow-up
/// request self-describes which worker owns it, so the router tier stays
/// stateless about sessions and any router replica can proxy any id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSessionId {
    /// The worker node index that owns the session.
    pub node: usize,
    /// The session id on that node (its `s-<n>` form).
    pub local: String,
}

impl ClusterSessionId {
    /// Parses a wire-form id; `None` when it is not a canonical cluster id
    /// (see [`SessionId::parse`]).
    pub fn parse(text: &str) -> Option<ClusterSessionId> {
        match SessionId::parse(text)? {
            SessionId::Cluster { node, local } => Some(ClusterSessionId {
                node,
                local: format_session_id(local),
            }),
            SessionId::Local(_) => None,
        }
    }
}

impl std::fmt::Display for ClusterSessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}.{}", self.node, self.local)
    }
}

/// Folds per-node `/stats` documents into one cluster-view object: every
/// declared node metric with a `/stats` path, combined by its kind alone —
/// counters and gauges are summed, peaks take the max, and per-node-only
/// fields (identity, configuration, ratios, latency histograms) are
/// omitted, and so is a field no node reports. The router's `/stats`
/// carries the per-node documents alongside this view.
pub fn aggregate_stats(per_node: &[Json]) -> Json {
    let mut doc = Vec::new();
    for metric in metrics::NODE {
        let Some(path) = metric.stat else { continue };
        let combine: fn(f64, f64) -> f64 = match metric.kind {
            Kind::Counter | Kind::Gauge => |a, b| a + b,
            Kind::Peak => f64::max,
            Kind::Info | Kind::Histogram => continue,
        };
        let values = per_node
            .iter()
            .filter_map(|node| metrics::lookup(node, path)?.as_f64());
        if let Some(value) = values.reduce(combine) {
            metrics::insert(&mut doc, path, Json::num(value));
        }
    }
    Json::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HashRing {
        /// The node that owns `key`, or `None` for an empty ring.
        fn node_for(&self, key: u64) -> Option<usize> {
            self.nodes_for(key).next()
        }
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_nodes() {
        let a = HashRing::new(3);
        let b = HashRing::new(3);
        let mut owners = [0usize; 3];
        for key in 0..600u64 {
            let node = a.node_for(key).unwrap();
            assert_eq!(Some(node), b.node_for(key), "placement must be stable");
            owners[node] += 1;
        }
        for (node, count) in owners.iter().enumerate() {
            assert!(*count > 0, "node {node} owns no keys out of 600");
        }
    }

    #[test]
    fn ring_walk_yields_each_node_once_starting_at_owner() {
        let ring = HashRing::new(4);
        for key in [0u64, 17, 0xDEAD_BEEF, u64::MAX] {
            let walk: Vec<usize> = ring.nodes_for(key).collect();
            assert_eq!(walk.len(), 4);
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert_eq!(walk[0], ring.node_for(key).unwrap());
        }
    }

    #[test]
    fn ring_removal_moves_only_the_lost_nodes_keys() {
        // Consistency property: keys owned by a surviving node keep their
        // owner when the highest node index is dropped from the ring.
        let big = HashRing::new(4);
        let small = HashRing::new(3);
        let mut moved = 0usize;
        for key in 0..1000u64 {
            let before = big.node_for(key).unwrap();
            let after = small.node_for(key).unwrap();
            if before < 3 {
                assert_eq!(before, after, "surviving key {key} moved");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "node 3 owned nothing out of 1000 keys");
    }

    #[test]
    fn empty_ring_places_nothing() {
        let ring = HashRing::new(0);
        assert_eq!(ring.node_for(42), None);
        assert_eq!(ring.nodes_for(42).count(), 0);
    }

    #[test]
    fn cluster_session_id_round_trips() {
        let id = ClusterSessionId {
            node: 2,
            local: "s-17".to_string(),
        };
        assert_eq!(id.to_string(), "n2.s-17");
        assert_eq!(ClusterSessionId::parse("n2.s-17"), Some(id));
        assert_eq!(ClusterSessionId::parse("s-17"), None);
        assert_eq!(ClusterSessionId::parse("n2"), None);
        assert_eq!(ClusterSessionId::parse("n2."), None);
        assert_eq!(ClusterSessionId::parse("nx.s-1"), None);
        for alias in ["n+0.s-1", "n00.s-1", "n0.garbage", "n0.s-01"] {
            assert_eq!(ClusterSessionId::parse(alias), None, "{alias}");
        }
    }

    #[test]
    fn aggregation_table_sums_counters_maxes_peaks_skips_ratios() {
        let kind = |path: &str| {
            metrics::NODE
                .iter()
                .find(|m| m.stat == Some(path))
                .map(|m| m.kind)
        };
        assert_eq!(kind("frames.rendered"), Some(Kind::Counter));
        assert_eq!(kind("cluster.peer_hits"), Some(Kind::Counter));
        assert_eq!(kind("cache.bytes"), Some(Kind::Gauge));
        assert_eq!(kind("queue.peak_depth"), Some(Kind::Peak));
        assert_eq!(kind("uptime_seconds"), Some(Kind::Peak));
        assert_eq!(kind("cache.hit_rate"), Some(Kind::Info));
        assert_eq!(kind("queue.watermark"), Some(Kind::Info));
        assert_eq!(kind("node.id"), Some(Kind::Info));
        assert_eq!(kind("latency.request"), Some(Kind::Histogram));
    }

    #[test]
    fn aggregate_stats_folds_documents() {
        let a = Json::parse(
            r#"{"schema": "spotnoise_service_stats/v1", "uptime_seconds": 5,
                "sessions": {"live": 2, "capacity": 64},
                "frames": {"rendered": 10, "mean_synthesize_us": 3.5},
                "cache": {"bytes": 100, "capacity_bytes": 4096},
                "queue": {"depth": 1, "peak_depth": 4, "watermark": 32}}"#,
        )
        .unwrap();
        let b = Json::parse(
            r#"{"schema": "spotnoise_service_stats/v1", "uptime_seconds": 9,
                "sessions": {"live": 3, "capacity": 64},
                "frames": {"rendered": 7, "mean_synthesize_us": 9.0},
                "cache": {"bytes": 50, "capacity_bytes": 4096},
                "queue": {"depth": 2, "peak_depth": 3, "watermark": 32}}"#,
        )
        .unwrap();
        let merged = aggregate_stats(&[a, b]);
        assert_eq!(merged.get("uptime_seconds").unwrap().as_f64(), Some(9.0));
        let frames = merged.get("frames").unwrap();
        assert_eq!(frames.get("rendered").unwrap().as_f64(), Some(17.0));
        assert!(frames.get("mean_synthesize_us").is_none());
        let queue = merged.get("queue").unwrap();
        assert_eq!(queue.get("depth").unwrap().as_f64(), Some(3.0));
        assert_eq!(queue.get("peak_depth").unwrap().as_f64(), Some(4.0));
        assert!(merged.get("schema").is_none());
        // Per-node configuration is omitted, not summed into a capacity no
        // node has.
        assert!(queue.get("watermark").is_none());
        let sessions = merged.get("sessions").unwrap();
        assert_eq!(sessions.get("live").unwrap().as_f64(), Some(5.0));
        assert!(sessions.get("capacity").is_none());
        let cache = merged.get("cache").unwrap();
        assert_eq!(cache.get("bytes").unwrap().as_f64(), Some(150.0));
        assert!(cache.get("capacity_bytes").is_none());
    }
}
