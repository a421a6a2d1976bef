//! Shared plumbing: command-line arguments, the environment record, the
//! seeded script generator, sample statistics, span recording and the
//! result line every workload prints.

use softpipe::machine::MachineConfig;
use spotnoise::dnc::synthesize_dnc;
use spotnoise::{PositionMode, SpotAnimator};
use spotnoise_service::spec::service_domain;
use spotnoise_service::SessionSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, with their units.
/// `BENCHMARK.json` declares the same list (a test keeps them in step).
pub const END_TO_END: &[(&str, &str)] = &[
    ("frames_per_s", "1/s"),
    ("frame_p50_us", "us"),
    ("frame_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units.
/// A layer the workload does not exercise reports 0 and is listed as not
/// exercised in the reconciliation report.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("advect.p50_us", "us"),
    ("context.refresh_p50_us", "us"),
    ("geometry.p50_us", "us"),
    ("geometry.streamline_steps", "count"),
    ("geometry.mesh_vertices", "count"),
    ("raster.p50_us", "us"),
    ("raster.fragments", "count"),
    ("raster.state_changes", "count"),
    ("raster.bytes_computed", "bytes"),
    ("dnc.p50_us", "us"),
    ("dnc.group_wall_max_us", "us"),
    ("dnc.group_imbalance", "ratio"),
    ("dnc.speedup_1x1", "ratio"),
    ("gather.tail_us", "us"),
    ("gather.compose_texels", "count"),
    ("bus.bytes", "bytes"),
    ("render.p50_us", "us"),
    ("node.hit_p50_us", "us"),
    ("node.miss_p50_us", "us"),
    ("node.miss_p99_us", "us"),
    ("steer.p50_us", "us"),
    ("queue.wait_p99_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hits", "count"),
    ("cache.fetches", "count"),
    ("cache.evictions", "count"),
    ("http.overhead_p50_us", "us"),
    ("channel.delivery_ratio", "ratio"),
    ("channel.delivered", "count"),
    ("channel.synthesized", "count"),
    ("channel.skips", "count"),
    ("channel.stale_serves", "count"),
    ("router.hop_p50_us", "us"),
    ("peer.hits", "count"),
    ("peer.misses", "count"),
    ("remainder_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// Untraced/traced slice pairs a traced run alternates to measure the
/// tracing overhead, so drift over the run cancels out of the ratio.
pub const OVERHEAD_SLICES: usize = 3;

/// Workload sizes: the measured configuration, or a reduced one the
/// benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The configuration `BENCHMARK.json` measures.
    Full,
    /// Same structure, small inputs (tests only).
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

/// Parsed command line:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds {s} must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other:?} must be 0 or 1")),
                    })
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What the result depends on besides the code: recorded with every run.
pub struct EnvRecord {
    nproc: usize,
    simd: &'static str,
    pipe_pool_default: bool,
    overrides: Vec<(String, String)>,
}

impl EnvRecord {
    /// Captures the environment, refusing to run with fault injection on,
    /// or with the program's own tracing on during an untraced run (it
    /// would be measured as part of the end-to-end numbers).
    pub fn capture(trace: bool) -> Result<EnvRecord, String> {
        let mut overrides: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("SPOTNOISE_"))
            .collect();
        overrides.sort();
        if let Some((_, v)) = overrides.iter().find(|(k, _)| k == "SPOTNOISE_FAULT") {
            return Err(format!("SPOTNOISE_FAULT={v:?} is set"));
        }
        if !trace {
            if let Some((_, v)) = overrides
                .iter()
                .find(|(k, v)| k == "SPOTNOISE_TRACE" && v.as_str() != "off")
            {
                return Err(format!("SPOTNOISE_TRACE={v:?} is on for an untraced run"));
            }
        }
        Ok(EnvRecord {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            simd: softpipe::simd::active().name(),
            pipe_pool_default: spotnoise::pipeline::pipe_pool_default_enabled(),
            overrides,
        })
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"nproc\": {}, \"simd\": \"{}\", \"pipe_pool_default\": {}, \"overrides\": {{",
            self.nproc, self.simd, self.pipe_pool_default
        );
        for (i, (k, v)) in self.overrides.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": \"{}\"", escape(k), escape(v));
        }
        out.push_str("}}");
        out
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec!['?'],
            c => vec![c],
        })
        .collect()
}

/// SplitMix64: the benchmark's own seeded generator, so request scripts
/// depend on nothing but the seed argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A sample of durations in microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_us(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile (0 for an empty sample).
    pub fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// Median of a few values (the repeated set-up times).
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push_us(v);
    }
    s.pct(50.0)
}

/// Runs `setup` `times` times, dropping all but the last result, and
/// returns it with the median set-up time in seconds. Each discarded
/// instance is torn down before the next one is built.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let built = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// Peak resident set of this process in MB (`VmHWM`), which ran the
/// whole workload: load generator, nodes and router alike.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A texture as the service ships it: little-endian `f32`, row-major.
pub fn texture_bytes(texture: &softpipe::Texture) -> Vec<u8> {
    texture
        .data()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

/// Direct render of frame `frame` of a session spec: advect a fresh
/// animator `frame + 1` steps, then one divide-and-conquer synthesis.
pub fn direct_frame_bytes(body: &str, frame: u64) -> Result<Vec<u8>, String> {
    let spec = SessionSpec::from_body(body.as_bytes())?;
    let field = spec.field.build();
    let mut animator = SpotAnimator::new(
        service_domain(),
        spec.config.spot_count,
        PositionMode::Advected,
        spec.config.seed,
    );
    for _ in 0..=frame {
        animator.advance(field.as_ref(), spec.dt);
    }
    let machine = MachineConfig::new(spec.processors, spec.pipes);
    let out = synthesize_dnc(field.as_ref(), &animator.spots(), &spec.config, &machine);
    Ok(texture_bytes(&out.texture))
}

/// One span the benchmark records around a public call in a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub dur: Duration,
}

/// The traced run's in-memory span log, summarised when the run ends.
#[derive(Debug, Default)]
pub struct SpanLog(Vec<Span>);

impl SpanLog {
    /// Times `f` as one span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(Span {
            layer,
            dur: start.elapsed(),
        });
        out
    }

    pub fn record(&mut self, layer: &'static str, dur: Duration) {
        self.0.push(Span { layer, dur });
    }

    pub fn append(&mut self, other: SpanLog) {
        self.0.extend(other.0);
    }

    /// Durations of every span of `layer`.
    pub fn samples(&self, layer: &str) -> Samples {
        let mut s = Samples::default();
        for span in self.0.iter().filter(|s| s.layer == layer) {
            s.push(span.dur);
        }
        s
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result (the reconciliation
    /// report of a traced run).
    pub lines: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of the run's kind.
    /// Reaching this point means the oracle and the regime checks passed.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }

    /// Per-layer metric names this run did not set (reported as 0).
    pub fn not_exercised(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.contains_key(name))
            .collect()
    }
}

/// Formats one reconciliation-report row: a layer's mean self time per
/// frame and its share of the end-to-end mean.
pub fn ledger_row(name: &str, us: f64, whole_us: f64) -> String {
    let share = if whole_us > 0.0 {
        100.0 * us / whole_us
    } else {
        0.0
    };
    format!("  {name:<34} {us:>12.1} us {share:>6.1}%")
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Keeps a seeded uniform sample of up to `cap` items from a stream
/// (reservoir sampling), so which delivered frames the output oracle checks
/// depends only on the seed and the number delivered.
pub struct Reservoir<T> {
    seed: u64,
    rng: Rng,
    cap: usize,
    seen: u64,
    pub items: Vec<T>,
}

impl<T> Reservoir<T> {
    pub fn new(seed: u64, stream: u64, cap: usize) -> Self {
        Reservoir {
            seed,
            rng: Rng::new(seed, stream),
            cap,
            seen: 0,
            items: Vec::with_capacity(cap),
        }
    }

    /// A seed for a per-thread reservoir whose items are later offered
    /// to this one.
    pub fn seed_for(&self, stream: u64) -> u64 {
        Rng::new(self.seed, 0x5EED ^ stream).next_u64()
    }

    /// Offers the next item; `make` runs only when the item is kept.
    pub fn offer(&mut self, make: impl FnOnce() -> T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(make());
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < self.cap {
                self.items[j] = make();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv = [
            "--workload",
            "browse",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ];
        let args = Args::parse(argv.iter().map(|s| s.to_string())).expect("parses");
        assert_eq!(args.workload, "browse");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        let bad = ["--workload", "browse", "--seed", "x"];
        assert!(Args::parse(bad.iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn rng_streams_repeat_per_seed() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push_us(v);
        }
        assert_eq!(s.pct(50.0), 3.0);
        assert_eq!(s.pct(99.0), 5.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// `BENCHMARK.json` and the metric lists printed here must agree.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = spotnoise::json::Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
