//! The declared service metrics: one table per process kind ([`NODE`] for
//! a synthesis node, [`ROUTER`] for the cluster router), each entry naming
//! a metric's `/stats` path, its Prometheus series, its help text, its
//! [`Kind`] and a reader over one snapshot of the process.
//!
//! Every surface is a walk over a table: [`stats_object`] builds the
//! `/stats` sections, [`write_prometheus`] the `/metrics` exposition, and
//! [`aggregate_stats`](crate::cluster::aggregate_stats) folds per-node
//! `/stats` documents into the router's cluster view, combining each field
//! by its declared kind alone. A metric is therefore added in one place,
//! and its cluster behaviour is a declaration rather than a guess from its
//! field name.

use crate::channel::ChannelTotals;
use crate::pressure::{PressureCounters, PressureState};
use crate::queue::QueueStats;
use crate::session::{format_session_id, RegistryStats, Session};
use softpipe::pool::PoolStats;
use spotnoise::json::Json;
use spotnoise::metrics::CacheStats;
use spotnoise::telemetry::HistogramSnapshot;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// What a metric measures, which fixes its Prometheus type and how the
/// router's cluster view combines it across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A monotonic count (`counter`); the cluster view sums it.
    Counter,
    /// An additive level such as live sessions or cached bytes (`gauge`);
    /// the cluster view sums it.
    Gauge,
    /// A high-water mark or clock (`gauge`); summing would double-count,
    /// so the cluster view takes the max.
    Peak,
    /// Per-node only: identity, configuration, enum states, ratios and
    /// derived means (`gauge` when exported). The cluster view omits it.
    Info,
    /// A latency histogram: a Prometheus `histogram` family plus
    /// percentile gauges, and a percentile block in `/stats`. Per-node
    /// only, so the cluster view omits it.
    Histogram,
}

impl Kind {
    fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Histogram => "histogram",
            Kind::Gauge | Kind::Peak | Kind::Info => "gauge",
        }
    }
}

/// One reading of a metric from a snapshot.
pub(crate) enum Value {
    /// A number: every counter, gauge and peak.
    Num(f64),
    /// A non-numeric `/stats` leaf (identity, state names, flags, id
    /// lists); never exported to Prometheus.
    Json(Json),
    /// A latency histogram.
    Hist(HistogramSnapshot),
}

/// One declared metric over snapshots of type `S`.
pub(crate) struct Metric<S> {
    /// Dotted `/stats` path (`section.field`, or a top-level field).
    pub(crate) stat: Option<&'static str>,
    /// Prometheus series name.
    pub(crate) prom: Option<&'static str>,
    /// Help text (the Prometheus `# HELP` line).
    pub(crate) help: &'static str,
    /// How the metric behaves across surfaces.
    pub(crate) kind: Kind,
    /// Reads the metric out of one snapshot.
    pub(crate) read: fn(&S) -> Value,
}

impl<S> Metric<S> {
    /// Declares a metric; an empty `stat` or `prom` means the metric has
    /// no `/stats` field or no Prometheus series respectively.
    const fn new(
        kind: Kind,
        stat: &'static str,
        prom: &'static str,
        help: &'static str,
        read: fn(&S) -> Value,
    ) -> Self {
        Metric {
            stat: if stat.is_empty() { None } else { Some(stat) },
            prom: if prom.is_empty() { None } else { Some(prom) },
            help,
            kind,
            read,
        }
    }
}

/// Declares a struct of relaxed atomic counters together with its
/// plain-value snapshot type and a `snapshot` that loads each counter
/// exactly once.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident => $values:ident {
            $($(#[$field_meta:meta])* $field:ident,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $($(#[$field_meta])* pub(crate) $field: std::sync::atomic::AtomicU64,)*
        }

        #[doc = concat!("One relaxed load of every [`", stringify!($name), "`] counter.")]
        #[derive(Debug, Clone, Copy, Default)]
        $vis struct $values {
            $(pub(crate) $field: u64,)*
        }

        impl $name {
            /// Loads every counter once.
            $vis fn snapshot(&self) -> $values {
                $values {
                    $($field: self.$field.load(std::sync::atomic::Ordering::Relaxed),)*
                }
            }
        }
    };
}

counters! {
    /// Monotonic node-wide counters (lock-free; written by workers and
    /// connection threads). Per-frame stage totals live in the stage
    /// histograms instead.
    pub(crate) struct ServiceCounters => ServiceCounterValues {
        http_requests,
        streams_started,
        frames_streamed,
        streams_aborted,
        stale_serves,
        degraded_serves,
        deadline_shed,
        quarantined,
        panics_caught,
        /// Local misses answered out of a sibling node's cache.
        peer_hits,
        /// Peer probes that found the frame cached nowhere.
        peer_misses,
        /// Peer probes that failed at the transport (dead or slow sibling).
        peer_errors,
        /// Cache entries this node served to a probing sibling.
        peer_serves,
    }
}

counters! {
    /// The router's own counters.
    pub(crate) struct RouterCounters => RouterCounterValues {
        http_requests,
        proxied,
        sessions_created,
        /// Placements that landed somewhere other than the ring-preferred
        /// node because it was saturated or down.
        rerouted,
        /// Requests shed with `503` because every worker was down.
        shed,
        /// Proxied requests that failed at the transport (the worker was
        /// marked down).
        node_errors,
        streams_relayed,
        frames_relayed,
        panics_caught,
    }
}

/// The six latency histograms of a node, snapshotted together.
pub(crate) struct LatencySnapshot {
    pub(crate) request: HistogramSnapshot,
    pub(crate) queue_wait: HistogramSnapshot,
    pub(crate) advect: HistogramSnapshot,
    pub(crate) synthesize: HistogramSnapshot,
    pub(crate) render: HistogramSnapshot,
    pub(crate) pipe_checkout: HistogramSnapshot,
}

/// Everything a node reports, read once: each subsystem's lock is taken
/// (or its atomics loaded) exactly once per snapshot, so every `/stats`
/// section is internally consistent.
pub(crate) struct NodeSnapshot {
    pub(crate) uptime_seconds: f64,
    pub(crate) node_id: String,
    pub(crate) peers: usize,
    pub(crate) counters: ServiceCounterValues,
    pub(crate) registry: RegistryStats,
    /// Live sessions in id order, with their handles for the per-session
    /// rows of `/stats`.
    pub(crate) sessions: Vec<(u64, Arc<Mutex<Session>>)>,
    pub(crate) max_sessions: usize,
    pub(crate) channels: ChannelTotals,
    pub(crate) cache_entries: usize,
    pub(crate) cache_bytes: usize,
    pub(crate) cache_capacity: usize,
    pub(crate) cache: CacheStats,
    pub(crate) queue: QueueStats,
    pub(crate) watermark: usize,
    pub(crate) per_session_cap: usize,
    pub(crate) pressure_state: PressureState,
    pub(crate) pressure: PressureCounters,
    pub(crate) lock_recoveries: u64,
    pub(crate) injected_panics: u64,
    pub(crate) injected_delays: u64,
    pub(crate) pipes: PoolStats,
    pub(crate) trace_recorded: u64,
    pub(crate) latency: LatencySnapshot,
}

/// What the router reports, read once.
pub(crate) struct RouterSnapshot {
    pub(crate) uptime_seconds: f64,
    pub(crate) id: String,
    pub(crate) workers: usize,
    /// Workers that answered the request this snapshot serves.
    pub(crate) workers_up: usize,
    pub(crate) counters: RouterCounterValues,
}

use Kind::{Counter, Gauge, Histogram, Info, Peak};
use Value::{Hist, Num};

fn num(v: impl TryInto<u64>) -> Value {
    Num(v.try_into().unwrap_or(u64::MAX) as f64)
}

fn ratio(part: u64, whole: u64) -> Value {
    Num(if whole > 0 {
        part as f64 / whole as f64
    } else {
        0.0
    })
}

/// The synthesis node's metrics, in `/stats` document order.
#[rustfmt::skip]
pub(crate) static NODE: &[Metric<NodeSnapshot>] = &[
    Metric::new(Peak, "uptime_seconds", "spotnoise_uptime_seconds", "Seconds since service start", |s| Num(s.uptime_seconds)),
    Metric::new(Info, "node.id", "", "The node's cluster identity", |s| Value::Json(Json::str(s.node_id.clone()))),
    Metric::new(Info, "node.peers", "", "Sibling nodes probed on a cache miss", |s| num(s.peers)),
    Metric::new(Counter, "cluster.peer_hits", "spotnoise_peer_cache_hits_total", "Local misses served out of a sibling node's cache", |s| num(s.counters.peer_hits)),
    Metric::new(Counter, "cluster.peer_misses", "spotnoise_peer_cache_misses_total", "Peer probes that found the frame cached nowhere", |s| num(s.counters.peer_misses)),
    Metric::new(Counter, "cluster.peer_errors", "spotnoise_peer_cache_errors_total", "Peer probes that failed at the transport", |s| num(s.counters.peer_errors)),
    Metric::new(Counter, "cluster.peer_serves", "spotnoise_peer_cache_serves_total", "Cache entries served to probing sibling nodes", |s| num(s.counters.peer_serves)),
    Metric::new(Gauge, "sessions.live", "spotnoise_sessions_live", "Sessions currently live", |s| num(s.registry.live)),
    Metric::new(Counter, "sessions.created", "spotnoise_sessions_created_total", "Sessions ever created", |s| num(s.registry.created)),
    Metric::new(Counter, "sessions.evicted", "spotnoise_sessions_evicted_total", "Sessions removed by idle eviction", |s| num(s.registry.evicted)),
    Metric::new(Counter, "sessions.closed", "spotnoise_sessions_closed_total", "Sessions closed by clients", |s| num(s.registry.closed)),
    Metric::new(Counter, "sessions.quarantined", "spotnoise_sessions_quarantined_total", "Sessions quarantined after a panicked render", |s| num(s.counters.quarantined)),
    Metric::new(Info, "sessions.capacity", "", "Maximum live sessions", |s| num(s.max_sessions)),
    Metric::new(Info, "sessions.ids", "", "Live session ids", |s| Value::Json(Json::array(s.sessions.iter().map(|&(id, _)| Json::str(format_session_id(id)))))),
    Metric::new(Counter, "frames.rendered", "spotnoise_frames_rendered_total", "Frames synthesized", |s| num(s.latency.synthesize.count)),
    Metric::new(Counter, "frames.advect_us_total", "", "Microseconds spent advecting particles", |s| num(s.latency.advect.sum)),
    Metric::new(Counter, "frames.synthesize_us_total", "", "Microseconds spent synthesizing textures", |s| num(s.latency.synthesize.sum)),
    Metric::new(Counter, "frames.render_us_total", "", "Microseconds spent rendering", |s| num(s.latency.render.sum)),
    Metric::new(Info, "frames.mean_synthesize_us", "", "Mean synthesis time per frame", |s| Num(s.latency.synthesize.mean())),
    Metric::new(Gauge, "channels.live", "spotnoise_channels_live", "Broadcast channels live", |s| num(s.channels.live)),
    Metric::new(Counter, "channels.created", "", "Broadcast channels ever created", |s| num(s.channels.created)),
    Metric::new(Gauge, "channels.subscribers", "spotnoise_channels_subscribers", "Subscribers across live channels", |s| num(s.channels.subscribers)),
    Metric::new(Peak, "channels.peak_subscribers", "", "Most subscribers one channel has had", |s| num(s.channels.peak_subscribers)),
    Metric::new(Counter, "channels.delivered", "spotnoise_channels_delivered_total", "Frames delivered to channel subscribers", |s| num(s.channels.delivered)),
    Metric::new(Counter, "channels.synthesized", "spotnoise_channels_synthesized_total", "Frames synthesized on channel clocks", |s| num(s.channels.synthesized)),
    Metric::new(Counter, "channels.skips", "spotnoise_channels_skips_total", "Fallen-behind serves skipped to the frontier", |s| num(s.channels.skips)),
    Metric::new(Info, "channels.delivery_ratio", "", "Deliveries per channel synthesis", |s| ratio(s.channels.delivered, s.channels.synthesized)),
    Metric::new(Gauge, "cache.entries", "spotnoise_cache_entries", "Cached frames", |s| num(s.cache_entries)),
    Metric::new(Gauge, "cache.bytes", "spotnoise_cache_bytes", "Bytes held by the frame cache", |s| num(s.cache_bytes)),
    Metric::new(Info, "cache.capacity_bytes", "", "Frame-cache budget in bytes", |s| num(s.cache_capacity)),
    Metric::new(Counter, "cache.hits", "spotnoise_cache_hits_total", "Cache hits", |s| num(s.cache.hits)),
    Metric::new(Counter, "cache.misses", "spotnoise_cache_misses_total", "Cache misses", |s| num(s.cache.misses)),
    Metric::new(Counter, "cache.insertions", "spotnoise_cache_insertions_total", "Cache insertions", |s| num(s.cache.insertions)),
    Metric::new(Counter, "cache.inserted_lookahead", "spotnoise_cache_inserted_lookahead_total", "Look-ahead cache insertions", |s| num(s.cache.inserted_lookahead)),
    Metric::new(Counter, "cache.evictions", "spotnoise_cache_evictions_total", "Cache LRU evictions", |s| num(s.cache.evictions)),
    Metric::new(Info, "cache.hit_rate", "", "Cache hits per lookup", |s| Num(s.cache.hit_rate())),
    Metric::new(Gauge, "queue.depth", "spotnoise_queue_depth", "Jobs waiting in the frame queue", |s| num(s.queue.depth)),
    Metric::new(Peak, "queue.peak_depth", "spotnoise_queue_peak_depth", "Highest queue depth observed", |s| num(s.queue.peak_depth)),
    Metric::new(Info, "queue.watermark", "", "Queue depth at which submissions are shed", |s| num(s.watermark)),
    Metric::new(Info, "queue.per_session_cap", "", "Queued jobs one session may hold", |s| num(s.per_session_cap)),
    Metric::new(Counter, "queue.accepted", "spotnoise_queue_accepted_total", "Jobs admitted", |s| num(s.queue.accepted)),
    Metric::new(Counter, "queue.shed_busy", "spotnoise_queue_shed_busy_total", "Submissions shed at the watermark", |s| num(s.queue.shed_busy)),
    Metric::new(Counter, "queue.shed_session", "spotnoise_queue_shed_session_total", "Submissions shed at the per-session cap", |s| num(s.queue.shed_session)),
    Metric::new(Counter, "queue.completed", "spotnoise_queue_completed_total", "Jobs fully executed", |s| num(s.queue.completed)),
    Metric::new(Info, "pressure.state", "", "Pressure ladder state", |s| Value::Json(Json::str(s.pressure_state.name()))),
    Metric::new(Info, "", "spotnoise_pressure_state", "Pressure ladder state (0 healthy, 1 elevated, 2 saturated)", |s| num(s.pressure_state as u8)),
    Metric::new(Counter, "pressure.entered_elevated", "spotnoise_pressure_entered_elevated_total", "Transitions into the elevated pressure state", |s| num(s.pressure.entered_elevated)),
    Metric::new(Counter, "pressure.entered_saturated", "spotnoise_pressure_entered_saturated_total", "Transitions into the saturated pressure state", |s| num(s.pressure.entered_saturated)),
    Metric::new(Counter, "pressure.recovered", "spotnoise_pressure_recovered_total", "Pressure de-escalations back down the ladder", |s| num(s.pressure.recovered)),
    Metric::new(Counter, "pressure.stale_serves", "spotnoise_stale_serves_total", "Saturated serves answered with the cached channel frontier", |s| num(s.counters.stale_serves)),
    Metric::new(Counter, "pressure.degraded_serves", "spotnoise_degraded_serves_total", "Frames served under pressure-degraded footprint sampling", |s| num(s.counters.degraded_serves)),
    Metric::new(Counter, "pressure.deadline_shed", "spotnoise_deadline_shed_total", "Requests shed or dropped for missing their deadline", |s| num(s.counters.deadline_shed)),
    Metric::new(Counter, "faults.panics_caught", "spotnoise_panics_caught_total", "Panics contained by the service's unwind barriers", |s| num(s.counters.panics_caught)),
    Metric::new(Counter, "faults.lock_recoveries", "spotnoise_lock_recoveries_total", "Poisoned locks recovered and revalidated", |s| num(s.lock_recoveries)),
    Metric::new(Counter, "faults.injected_panics", "spotnoise_fault_injected_panics_total", "Panics injected by the fault plan", |s| num(s.injected_panics)),
    Metric::new(Counter, "faults.injected_delays", "spotnoise_fault_injected_delays_total", "Delays injected by the fault plan", |s| num(s.injected_delays)),
    Metric::new(Counter, "pipes.spawned", "spotnoise_pipes_spawned_total", "Pipe workers spawned", |s| num(s.pipes.spawned)),
    Metric::new(Counter, "pipes.reused", "spotnoise_pipes_reused_total", "Checkouts served by a shelved worker", |s| num(s.pipes.reused)),
    Metric::new(Counter, "pipes.retired", "spotnoise_pipes_retired_total", "Returned pipes dropped at capacity", |s| num(s.pipes.retired)),
    Metric::new(Counter, "pipes.discarded", "spotnoise_pipes_discarded_total", "Poisoned pipes discarded instead of reshelved", |s| num(s.pipes.discarded)),
    Metric::new(Gauge, "pipes.idle", "spotnoise_pipes_idle", "Idle pipes currently shelved", |s| num(s.pipes.idle)),
    Metric::new(Counter, "http.requests", "spotnoise_http_requests_total", "HTTP requests handled", |s| num(s.counters.http_requests)),
    Metric::new(Counter, "http.streams", "spotnoise_streams_started_total", "Frame streams started", |s| num(s.counters.streams_started)),
    Metric::new(Counter, "http.streamed_frames", "spotnoise_frames_streamed_total", "Frames pushed over streams", |s| num(s.counters.frames_streamed)),
    Metric::new(Counter, "http.streams_aborted", "spotnoise_streams_aborted_total", "Streams cut short by a client disconnect mid-write", |s| num(s.counters.streams_aborted)),
    Metric::new(Counter, "", "spotnoise_trace_recorded_total", "Trace spans recorded", |s| num(s.trace_recorded)),
    Metric::new(Histogram, "latency.request", "spotnoise_request_duration_us", "End-to-end frame request latency (all outcomes)", |s| Hist(s.latency.request.clone())),
    Metric::new(Histogram, "latency.queue_wait", "spotnoise_queue_wait_us", "Admission-to-pop wait in the frame queue", |s| Hist(s.latency.queue_wait.clone())),
    Metric::new(Histogram, "latency.advect", "spotnoise_stage_advect_us", "Per-frame particle-advection stage time", |s| Hist(s.latency.advect.clone())),
    Metric::new(Histogram, "latency.synthesize", "spotnoise_stage_synthesize_us", "Per-frame texture-synthesis stage time", |s| Hist(s.latency.synthesize.clone())),
    Metric::new(Histogram, "latency.render", "spotnoise_stage_render_us", "Per-frame render stage time", |s| Hist(s.latency.render.clone())),
    Metric::new(Histogram, "latency.pipe_checkout", "spotnoise_pipe_checkout_wait_us", "Pipe-pool checkout wait", |s| Hist(s.latency.pipe_checkout.clone())),
];

/// The router's metrics, in `/stats` document order.
#[rustfmt::skip]
pub(crate) static ROUTER: &[Metric<RouterSnapshot>] = &[
    Metric::new(Peak, "uptime_seconds", "", "Seconds since router start", |s| Num(s.uptime_seconds)),
    Metric::new(Info, "router.id", "", "The router's cluster identity", |s| Value::Json(Json::str(s.id.clone()))),
    Metric::new(Info, "router.workers", "", "Worker nodes configured", |s| num(s.workers)),
    Metric::new(Gauge, "router.workers_up", "", "Worker nodes that answered", |s| num(s.workers_up)),
    Metric::new(Counter, "router.requests", "spotnoise_router_requests_total", "Requests handled by the router front end", |s| num(s.counters.http_requests)),
    Metric::new(Counter, "router.proxied", "spotnoise_router_proxied_total", "Requests proxied to worker nodes", |s| num(s.counters.proxied)),
    Metric::new(Counter, "router.sessions_created", "spotnoise_router_sessions_created_total", "Sessions created through the router", |s| num(s.counters.sessions_created)),
    Metric::new(Counter, "router.rerouted", "spotnoise_router_rerouted_total", "Placements routed around a saturated or down node", |s| num(s.counters.rerouted)),
    Metric::new(Counter, "router.shed", "spotnoise_router_shed_total", "Requests shed because every worker was down", |s| num(s.counters.shed)),
    Metric::new(Counter, "router.node_errors", "spotnoise_router_node_errors_total", "Proxied requests that failed at the transport", |s| num(s.counters.node_errors)),
    Metric::new(Counter, "router.streams_relayed", "spotnoise_router_streams_relayed_total", "Frame streams relayed from worker nodes", |s| num(s.counters.streams_relayed)),
    Metric::new(Counter, "router.frames_relayed", "spotnoise_router_frames_relayed_total", "Frame records relayed through stream proxying", |s| num(s.counters.frames_relayed)),
    Metric::new(Counter, "router.panics_caught", "spotnoise_router_panics_caught_total", "Panics contained by the router's unwind barriers", |s| num(s.counters.panics_caught)),
];

/// Sets `value` at the dotted `path` of an object's entries, creating the
/// section on first use (sections keep first-use order).
pub(crate) fn insert(doc: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((section, field)) = path.split_once('.') else {
        doc.push((path.to_string(), value));
        return;
    };
    let index = match doc.iter().position(|(name, _)| name == section) {
        Some(index) => index,
        None => {
            doc.push((section.to_string(), Json::Object(Vec::new())));
            doc.len() - 1
        }
    };
    if let Json::Object(fields) = &mut doc[index].1 {
        fields.push((field.to_string(), value));
    }
}

/// The value at a dotted `path` of a document.
pub(crate) fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |node, key| node.get(key))
}

/// The `/stats` entries of every metric in `table` that has a `/stats`
/// path, read over `snapshot`, as a JSON object's ordered entries.
pub(crate) fn stats_object<S>(table: &[Metric<S>], snapshot: &S) -> Vec<(String, Json)> {
    let mut doc = Vec::new();
    for metric in table {
        let Some(path) = metric.stat else { continue };
        let value = match (metric.read)(snapshot) {
            Num(n) => Json::num(n),
            Value::Json(json) => json,
            Hist(h) => Json::object([
                ("count", Json::num(h.count as f64)),
                ("mean_us", Json::num(h.mean())),
                ("p50_us", Json::num(h.percentile(50.0) as f64)),
                ("p90_us", Json::num(h.percentile(90.0) as f64)),
                ("p99_us", Json::num(h.percentile(99.0) as f64)),
                ("max_us", Json::num(h.max as f64)),
            ]),
        };
        insert(&mut doc, path, value);
    }
    doc
}

/// Appends the Prometheus text exposition of every metric in `table` that
/// has a series name, read over `snapshot`.
pub(crate) fn write_prometheus<S>(out: &mut String, table: &[Metric<S>], snapshot: &S) {
    for metric in table {
        let Some(name) = metric.prom else { continue };
        let value = (metric.read)(snapshot);
        if matches!(value, Value::Json(_)) {
            continue;
        }
        let _ = writeln!(out, "# HELP {name} {}", metric.help);
        let _ = writeln!(out, "# TYPE {name} {}", metric.kind.prometheus_type());
        match value {
            Num(value) => {
                if value.fract() == 0.0 && value.abs() < 9.0e15 {
                    let _ = writeln!(out, "{name} {}", value as i64);
                } else {
                    let _ = writeln!(out, "{name} {value}");
                }
            }
            // Cumulative `_bucket{le=...}` lines ending at `+Inf`, `_sum`
            // and `_count`, plus pre-computed percentile gauges so scrapers
            // that do not compute `histogram_quantile` still get them.
            Hist(h) => {
                for (le, cumulative) in h.cumulative_buckets() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
                for (suffix, q) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
                    let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                    let _ = writeln!(out, "{name}_{suffix} {}", h.percentile(q));
                }
            }
            Value::Json(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeCore, ServiceOptions};
    use crate::spec::SessionSpec;

    fn spec(seed: u64, shared: bool) -> SessionSpec {
        let body = format!(
            concat!(
                "{{\"field\": {{\"kind\": \"vortex\", \"omega\": 1.0, \"cx\": 0.5, \"cy\": 0.5}}, ",
                "\"config\": {{\"texture_size\": 32, \"spot_count\": 40, ",
                "\"spot_texture_size\": 8, \"seed\": {}}}, \"shared\": {}}}"
            ),
            seed, shared
        );
        SessionSpec::from_body(body.as_bytes()).expect("parse session spec")
    }

    /// Every numeric leaf path outside the per-session rows and the
    /// latency percentile blocks.
    fn numeric_leaves(doc: &Json, prefix: &str, out: &mut Vec<String>) {
        let Json::Object(entries) = doc else { return };
        for (key, value) in entries {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            match value {
                Json::Number(_) => out.push(path),
                Json::Object(_) if path != "latency" => numeric_leaves(value, &path, out),
                _ => {}
            }
        }
    }

    #[test]
    fn every_numeric_stat_is_declared_and_frame_counters_are_the_histograms() {
        let core = NodeCore::new(ServiceOptions::default());
        let workers = core.start_workers(1);
        let private = core.create_session(spec(7, false)).expect("create private");
        for frame in 0..3 {
            core.fetch_frame(private, frame).expect("private fetch");
        }
        // A shared session's frames are synthesized on its channel clock.
        let shared = core.create_session(spec(8, true)).expect("create shared");
        for frame in 0..2 {
            core.fetch_frame(shared, frame).expect("shared fetch");
        }
        let doc = core.stats_json();
        core.begin_shutdown();
        for w in workers {
            w.join().expect("worker thread");
        }

        let mut leaves = Vec::new();
        numeric_leaves(&doc, "", &mut leaves);
        assert!(leaves.len() > 50, "too few numeric stats: {leaves:?}");
        for path in &leaves {
            assert!(
                NODE.iter().any(|m| m.stat == Some(path.as_str())),
                "/stats field {path} has no declaration in metrics::NODE"
            );
        }

        let stat = |path: &str| lookup(&doc, path).and_then(Json::as_f64).expect(path);
        assert!(
            stat("channels.synthesized") >= 1.0,
            "no channel synthesis ran"
        );
        assert!(stat("frames.rendered") >= 5.0);
        assert_eq!(stat("frames.rendered"), stat("latency.synthesize.count"));
        assert_eq!(stat("frames.rendered"), stat("latency.advect.count"));
    }
}
