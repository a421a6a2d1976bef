//! Loopback load bench of the synthesis service: sweeps concurrent clients
//! {1, 4, 16} × cache-hot/cache-cold against a real server on an ephemeral
//! port, runs a shared-field fan-out phase (many subscribers streaming a
//! few broadcast channels), runs an overload phase against a tiny
//! one-worker server, and writes `BENCH_service.json` (schema
//! `bench_service/v1`).
//!
//! ```text
//! cargo run --release -p spotnoise-bench --bin bench_service -- \
//!     [--out BENCH_service.json] [--check] [--quick] [--threads 1,2,4]
//! ```
//!
//! `--quick` shrinks the workload for CI smoke runs. `--check` re-reads the
//! written artifact and asserts the service-level SLOs hold: six sweep
//! cases, each with ordered p50 ≤ p90 ≤ p99 percentiles and — on the
//! cache-hot path — a p99 within 64× of its p50 (a wider tail means
//! something stalls the pure-cache-hit common case),
//! cache-hot p50 at least 5× below cache-cold at every concurrency,
//! broadcast fan-out delivering more fresh frames (deliveries that were not
//! skip-forwards) than it synthesizes (≥ 10× with 64+ subscribers) at a
//! steady-state gap within 2× of the hot single-client p50, and overload
//! shed with `Busy` while the queue never grew past its watermark — with
//! the degradation ladder engaged first: the pre-burst snapshot must show
//! `entered_saturated ≥ 1` and stale + degraded serves > 0 before any
//! request was refused. A failed check exits non-zero.
//!
//! `--threads 1,2,4` switches to sweep mode: the whole phase list runs once
//! per count, with the server's synthesis worker pool (`workers`) pinned to
//! it, and the runs are written as one `bench_service_sweep/v1` artifact.
//!
//! An unknown argument prints the usage line and exits non-zero.
//!
//! `--cluster` switches to the cluster-tier bench instead: two peer-linked
//! worker processes behind a router, measuring the routed-vs-direct hot
//! path, cross-node peer cache hits, shared co-location and bit identity
//! through the proxy. Writes `BENCH_cluster.json` (schema
//! `bench_cluster/v1`); with `--check` the artifact must show a routed hot
//! p50 within 16× of single-node, peer cache hits > 0, every shared
//! session co-located and byte-identical frames through the router.

use spotnoise_bench::json::Json;
use spotnoise_bench::{cluster_bench, service_bench};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: bench_service [--out <path>] [--check] [--quick] [--threads 1,2,4] [--cluster]";

/// Broadcast leverage over fresh frames: deliveries that were not
/// skip-forwards, per synthesized frame. The server's `delivery_ratio`
/// counts a skip-forward as a delivery, so when subscribers fall behind it
/// measures the pressure ladder skipping frames, not channels sharing them.
fn fresh_leverage(fanout: &Json) -> Result<f64, String> {
    let num = |key: &str| {
        fanout
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("fanout missing numeric {key}"))
    };
    let synthesized = num("synthesized")?;
    if synthesized <= 0.0 {
        return Err("fanout synthesized no frame".to_string());
    }
    Ok((num("delivered")? - num("skipped")?) / synthesized)
}

/// Validates the written artifact against the acceptance criteria.
fn check_artifact(path: &PathBuf) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc = Json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bench_service/v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let cases = doc
        .get("cases")
        .and_then(Json::as_array)
        .ok_or("missing cases array")?;
    if cases.len() < 6 {
        return Err(format!("{} cases recorded, need at least 6", cases.len()));
    }
    let field = |case: &Json, key: &str| -> Result<f64, String> {
        case.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("case missing numeric {key}"))
    };
    // Index p50 by (mode, concurrency) and sanity-check each case.
    let mut p50 = std::collections::HashMap::new();
    for case in cases {
        let name = case
            .get("name")
            .and_then(Json::as_str)
            .ok_or("case without a name")?
            .to_string();
        let mode = case
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("case without a mode")?
            .to_string();
        let concurrency = field(case, "concurrency")? as usize;
        let p50_us = field(case, "p50_us")?;
        let p90_us = field(case, "p90_us")?;
        let p99_us = field(case, "p99_us")?;
        let fps = field(case, "frames_per_second")?;
        let hit_rate = field(case, "cache_hit_rate")?;
        if p50_us <= 0.0 || p90_us < p50_us || p99_us < p90_us {
            return Err(format!(
                "case {name}: implausible latencies p50={p50_us} p90={p90_us} p99={p99_us}"
            ));
        }
        // The hot path serves pure cache hits; a p99 orders of magnitude
        // above its p50 means something stalls the common case (a lock
        // convoy, a blocking accept, telemetry overhead). The bound is
        // deliberately loose — scheduling jitter on a loaded CI box is
        // real — but catches the pathological regressions.
        if mode == "hot" && p99_us > 64.0 * p50_us {
            return Err(format!(
                "case {name}: hot p99 {p99_us:.1}us is {:.0}x its p50 {p50_us:.1}us (limit 64x)",
                p99_us / p50_us
            ));
        }
        if fps <= 0.0 {
            return Err(format!("case {name}: frames_per_second {fps} not positive"));
        }
        match mode.as_str() {
            "hot" if hit_rate < 0.999 => {
                return Err(format!("case {name}: hot hit rate {hit_rate} below 1"));
            }
            "cold" if hit_rate > 0.001 => {
                return Err(format!("case {name}: cold hit rate {hit_rate} above 0"));
            }
            _ => {}
        }
        p50.insert((mode, concurrency), p50_us);
    }
    let mut speedups = Vec::new();
    for (&(ref mode, concurrency), &cold_p50) in &p50 {
        if mode != "cold" {
            continue;
        }
        let hot_p50 = *p50
            .get(&("hot".to_string(), concurrency))
            .ok_or_else(|| format!("no hot case at concurrency {concurrency}"))?;
        let ratio = cold_p50 / hot_p50;
        if ratio < 5.0 {
            return Err(format!(
                "at concurrency {concurrency}: cold p50 {cold_p50:.1}us is only {ratio:.2}x hot \
                 p50 {hot_p50:.1}us (need >= 5x)"
            ));
        }
        speedups.push(format!("c{concurrency}: {ratio:.0}x"));
    }
    // The fan-out phase: broadcast leverage must be real, and the
    // steady-state delivery path must stay within 2x of the (single-client)
    // cache-hot request path.
    let fanout = doc.get("fanout").ok_or("missing fanout object")?;
    let f_field = |key: &str| -> Result<f64, String> {
        fanout
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("fanout missing numeric {key}"))
    };
    let fields = f_field("fields")?;
    let subscribers = f_field("subscribers")?;
    let ratio = f_field("delivery_ratio")?;
    let fresh = fresh_leverage(fanout)?;
    let fanout_p50 = f_field("p50_us")?;
    if subscribers < 8.0 {
        return Err(format!(
            "fanout ran with only {subscribers} subscribers, need at least 8"
        ));
    }
    if fresh <= 1.0 {
        return Err(format!(
            "fanout fresh leverage {fresh:.2} (server ratio {ratio:.2}) is not > 1: the \
             broadcast layer is synthesizing per subscriber"
        ));
    }
    if subscribers >= 64.0 {
        if fresh < 10.0 {
            return Err(format!(
                "fanout fresh leverage {fresh:.2} (server ratio {ratio:.2}) below 10x with \
                 {subscribers} subscribers"
            ));
        }
        if fields > 4.0 {
            return Err(format!(
                "fanout spread {subscribers} subscribers over {fields} fields, need <= 4"
            ));
        }
    }
    let hot_c1_p50 = *p50
        .get(&("hot".to_string(), 1))
        .ok_or("no hot case at concurrency 1 to compare fanout against")?;
    if fanout_p50 > 2.0 * hot_c1_p50 {
        return Err(format!(
            "fanout steady-state gap p50 {fanout_p50:.1}us exceeds 2x the hot_c1 \
             p50 {hot_c1_p50:.1}us"
        ));
    }
    let overload = doc.get("overload").ok_or("missing overload object")?;
    let o_field = |key: &str| -> Result<f64, String> {
        overload
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("overload missing numeric {key}"))
    };
    let watermark = o_field("watermark")?;
    let busy = o_field("busy")?;
    let completed = o_field("completed")?;
    let peak_depth = o_field("peak_depth")?;
    if busy <= 0.0 {
        return Err("overload shed no request with Busy".to_string());
    }
    if completed <= 0.0 {
        return Err("overload served no request at all".to_string());
    }
    if peak_depth > watermark {
        return Err(format!(
            "queue grew to depth {peak_depth}, past its watermark {watermark}"
        ));
    }
    // The degradation ladder must engage before the server refuses work:
    // the pre-burst snapshot has to show stale (cached-frontier) or
    // degraded (footprint-sampled) serves — and the saturated rung itself —
    // strictly before any request was shed with Busy.
    let entered_saturated = o_field("entered_saturated")?;
    let stale = o_field("stale_serves")?;
    let degraded = o_field("degraded_serves")?;
    if busy > 0.0 && stale + degraded <= 0.0 {
        return Err(format!(
            "{busy} requests were shed but the ladder never degraded a serve \
             (stale {stale}, degraded {degraded}): shedding must be the last rung, not the first"
        ));
    }
    if busy > 0.0 && entered_saturated <= 0.0 {
        return Err("requests were shed without the gauge ever reaching saturated".to_string());
    }
    Ok(format!(
        "{} cases, hot/cold p50 gaps [{}], fanout {fresh:.1}x fresh ({ratio:.1}x with \
         skip-forwards) over {fields} fields, \
         ladder {stale} stale + {degraded} degraded before overload shed {busy} of {} \
         with queue depth <= {watermark}",
        cases.len(),
        speedups.join(", "),
        busy + completed,
    ))
}

/// Validates a `--threads` sweep artifact: the envelope schema, one run per
/// swept count, and a real fresh-frame broadcast leverage in every run.
fn check_sweep_artifact(path: &PathBuf, expected_runs: usize) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc = Json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bench_service_sweep/v1" {
        return Err(format!("unexpected sweep schema {schema:?}"));
    }
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("missing runs array")?;
    if runs.len() != expected_runs {
        return Err(format!(
            "{} runs recorded, expected {expected_runs}",
            runs.len()
        ));
    }
    let mut cases = 0;
    for (i, run) in runs.iter().enumerate() {
        cases += run
            .get("cases")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("run {i} has no cases array"))?
            .len();
        let fanout = run
            .get("fanout")
            .ok_or_else(|| format!("run {i} has no fanout object"))?;
        let fresh = fresh_leverage(fanout).map_err(|e| format!("run {i}: {e}"))?;
        if fresh <= 1.0 {
            return Err(format!(
                "run {i}: fanout fresh leverage {fresh:.2} is not > 1"
            ));
        }
    }
    Ok(cases)
}

/// Validates a `--cluster` artifact: the price of the router hop is
/// bounded, the peer cache demonstrably crossed nodes, shared sessions
/// co-located, and the proxied bytes were the worker's bytes.
fn check_cluster_artifact(path: &PathBuf) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    let doc = Json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bench_cluster/v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric {key}"))
    };
    let flag = |key: &str| -> Result<bool, String> {
        doc.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("missing boolean {key}"))
    };
    let single = num("single_hot_p50_us")?;
    let routed = num("routed_hot_p50_us")?;
    if single <= 0.0 || routed <= 0.0 {
        return Err(format!(
            "implausible hot p50s: single {single}us, routed {routed}us"
        ));
    }
    // The router adds one loopback hop to a path that is otherwise a pure
    // cache lookup, so the routed p50 is a small multiple of the direct
    // one. The bound is loose — two extra socket traversals under CI
    // scheduling jitter — but catches the proxy accidentally re-entering
    // the synthesis path or serializing behind a lock.
    let ratio = routed / single;
    if ratio > 16.0 {
        return Err(format!(
            "routed hot p50 {routed:.1}us is {ratio:.1}x the single-node {single:.1}us (limit 16x)"
        ));
    }
    let peer_hits = num("peer_hits")?;
    let peer_serves = num("peer_serves")?;
    if peer_hits < 1.0 || peer_serves < 1.0 {
        return Err(format!(
            "no cross-node cache traffic recorded (peer_hits {peer_hits}, peer_serves \
             {peer_serves}): the peer lookup never fired"
        ));
    }
    if !flag("peer_frame_flagged")? {
        return Err("the peer-demo frame was not served with the peer flag".to_string());
    }
    if !flag("colocated")? {
        return Err(format!(
            "same-spec shared sessions spread over {} nodes, expected 1",
            num("shared_nodes")?
        ));
    }
    if !flag("bit_identical")? {
        return Err(
            "a frame through the router differed from the owning worker's bytes".to_string(),
        );
    }
    Ok(format!(
        "{} topology, routed hot p50 {routed:.1}us = {ratio:.2}x single-node, \
         {peer_hits} peer hits / {peer_serves} serves, shared co-located, bit-identical",
        doc.get("topology").and_then(Json::as_str).unwrap_or("?"),
    ))
}

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut check = false;
    let mut quick = false;
    let mut cluster = false;
    let mut threads: Option<Vec<usize>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => check = true,
            "--quick" => quick = true,
            "--cluster" => cluster = true,
            "--threads" => match args.next().map(|list| {
                list.split(',')
                    .map(|n| n.trim().parse::<usize>())
                    .collect::<Result<Vec<usize>, _>>()
            }) {
                Some(Ok(counts)) if !counts.is_empty() && counts.iter().all(|&n| n >= 1) => {
                    threads = Some(counts);
                }
                _ => {
                    eprintln!("--threads needs a comma-separated list of counts >= 1, e.g. 1,2,4");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        PathBuf::from(if cluster {
            "BENCH_cluster.json"
        } else {
            "BENCH_service.json"
        })
    });
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("cannot create output directory");
    }
    if cluster {
        let options = if quick {
            cluster_bench::ClusterBenchOptions::quick()
        } else {
            cluster_bench::ClusterBenchOptions::standard()
        };
        let report = match cluster_bench::run_cluster_bench(options) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("cluster bench failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{}", cluster_bench::format_report(&report));
        std::fs::write(&out, cluster_bench::report_to_json(&report))
            .expect("write BENCH_cluster.json");
        println!("wrote {}", out.display());
        if check {
            match check_cluster_artifact(&out) {
                Ok(summary) => println!("check OK: {summary}"),
                Err(e) => {
                    eprintln!("check FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let options = if quick {
        service_bench::ServiceBenchOptions::quick()
    } else {
        service_bench::ServiceBenchOptions::standard()
    };
    if let Some(counts) = &threads {
        // Sweep mode: every phase once per count of synthesis workers.
        let mut reports = Vec::with_capacity(counts.len());
        for &n in counts {
            println!("--- sweep: {n} synthesis worker(s) ---");
            let report = service_bench::run_service_bench(service_bench::ServiceBenchOptions {
                workers: n,
                ..options
            });
            println!("{}", service_bench::format_report(&report));
            reports.push(report);
        }
        std::fs::write(&out, service_bench::sweep_to_json(&reports)).expect("write sweep artifact");
        println!("wrote {}", out.display());
        if check {
            match check_sweep_artifact(&out, reports.len()) {
                Ok(cases) => println!(
                    "check OK: {} runs, {cases} cases total, schema valid, fresh fanout > 1x in each",
                    reports.len()
                ),
                Err(e) => {
                    eprintln!("check FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    let report = service_bench::run_service_bench(options);
    println!("{}", service_bench::format_report(&report));
    std::fs::write(&out, service_bench::report_to_json(&report)).expect("write BENCH_service.json");
    println!("wrote {}", out.display());
    if check {
        match check_artifact(&out) {
            Ok(summary) => println!("check OK: {summary}"),
            Err(e) => {
                eprintln!("check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
