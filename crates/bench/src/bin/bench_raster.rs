//! Rasterizer before/after benchmark: times the naive per-pixel reference
//! path against the span-walking fast path on representative spot workloads
//! (plus the spot-batch-size sweep of the full divide-and-conquer synthesis)
//! and writes the results to `BENCH_raster.json`.
//!
//! ```text
//! cargo run --release -p spotnoise-bench --bin bench_raster -- \
//!     [--out BENCH_raster.json] [--check] [--filter <substring>] \
//!     [--ratchet <committed BENCH_raster.json> [--allow-new]]
//! ```
//!
//! `--check` re-reads the written artifact, parses it and asserts the
//! schema plus `speedup > 0` for every case — the CI smoke step. A failed
//! check exits non-zero. `--filter` measures only the cases whose name
//! contains one of the comma-separated substrings (excluded cases are
//! skipped entirely, not just omitted from the output), which is how CI
//! keeps the smoke run clear of the slow full-synthesis `dnc_spot_batch_*`
//! cases while still covering quads, meshes and the gather.
//!
//! `--ratchet` points `--check` at a previously committed artifact: every
//! measured case that also appears in the ratchet file must keep at least
//! 90 % of its committed speedup, so a future change cannot silently lose
//! an optimization this repository has already banked. Speedups are
//! within-run ratios (reference vs optimized on the same host), so the
//! comparison is robust to absolute machine speed. With `--ratchet` the
//! case list runs [`RATCHET_RUNS`] times and each case's speedup (and the
//! written artifact) is the lower quartile of those runs, the estimator
//! the committed banks were recorded with; a single run on a shared host
//! misses its floor on noise alone. Committed cases the
//! fresh (possibly filtered) run did not measure are ignored — but a fresh
//! case **missing from the committed artifact fails the ratchet** (listing
//! every unbanked name): a newly added case (or a typo'd rename) would
//! otherwise never be gated. Pass `--allow-new` to accept unbanked cases
//! while iterating locally; CI runs without it, so new cases must be
//! banked into the committed artifact in the same PR.
//!
//! The ratchet also holds every compared case's `fragments_per_op` to
//! its banked count exactly: it is work the case does, not time, so it
//! depends on neither the host nor its noise, and a mismatch means the case
//! now measures different work from the case that was banked (the failure
//! names the case and both counts).
//!
//! The ratchet also refuses to compare across SIMD dispatch levels: the
//! artifact records the level its kernels ran at (`"simd"`), and numbers
//! banked under `avx2` are meaningless floors for a `SPOTNOISE_SIMD=off`
//! run (and vice versa — a scalar bank would let an AVX2 regression hide).
//! A committed artifact predating the `simd` field must be regenerated.
//! No case depends on a worker count the bench sets; older banks carry a
//! `"threads"` key, which the parser ignores.
//!
//! An unknown argument prints the usage line and exits non-zero.

use spotnoise_bench::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Fraction of a committed case's speedup a fresh measurement must retain
/// for the ratchet to pass (headroom for shared-runner noise; the measured
/// quantity is a within-run ratio, so host speed itself cancels out).
const RATCHET_FLOOR: f64 = 0.9;

/// Absolute slack subtracted from the banked speedup as an alternative
/// floor: the effective floor is `min(banked × RATCHET_FLOOR, banked −
/// RATCHET_SLACK)`. For big banked wins the ratio rules (2.4× may not drop
/// below 2.16×); for near-parity cases — whose entire margin is
/// allocator/toolchain behaviour — the ratio alone would leave almost no
/// headroom (banked 1.12× would fail at 1.01×), so the absolute slack keeps
/// the gate on genuine pessimization instead of environment drift.
const RATCHET_SLACK: f64 = 0.15;

/// Runs of the case list a `--ratchet` check measures; each case keeps
/// the lower quartile of them (see
/// [`spotnoise_bench::raster_bench::lower_quartile_report`]).
const RATCHET_RUNS: usize = 9;

const USAGE: &str = "usage: bench_raster [--out <path>] [--check] [--filter <substrings>] \
                     [--ratchet <committed BENCH_raster.json> [--allow-new]]";

/// One parsed `bench_raster/v1` document: the dispatch metadata plus its
/// cases.
struct ParsedRun {
    /// Recorded SIMD dispatch level; `None` for artifacts written before
    /// the field existed.
    simd: Option<String>,
    /// The recorded cases, in order.
    cases: Vec<ParsedCase>,
}

/// What the checks read of one recorded case.
struct ParsedCase {
    name: String,
    speedup: f64,
    fragments: u64,
}

/// Validates one `bench_raster/v1` envelope and extracts its run.
fn parse_run(doc: &Json) -> Result<ParsedRun, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema field")?;
    if schema != "bench_raster/v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let simd = doc.get("simd").and_then(Json::as_str).map(str::to_string);
    let cases = doc
        .get("cases")
        .and_then(Json::as_array)
        .ok_or("missing cases array")?;
    let mut out = Vec::with_capacity(cases.len());
    for case in cases {
        let name = case
            .get("name")
            .and_then(Json::as_str)
            .ok_or("case without a name")?;
        let number = |key: &str| {
            case.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("case {name}: missing {key}"))
        };
        out.push(ParsedCase {
            name: name.to_string(),
            speedup: number("speedup")?,
            fragments: number("fragments_per_op")? as u64,
        });
    }
    Ok(ParsedRun { simd, cases: out })
}

/// Parses an artifact from disk.
fn parse_artifact(path: &PathBuf) -> Result<ParsedRun, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    parse_run(&Json::parse(&text)?)
}

/// Validates the written artifact: it must parse, carry the expected
/// schema, and every case must report a positive speedup.
fn check_artifact(path: &PathBuf) -> Result<usize, String> {
    let run = parse_artifact(path)?;
    if run.cases.is_empty() {
        return Err("no benchmark cases recorded".to_string());
    }
    for case in &run.cases {
        if case.speedup.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!(
                "case {}: speedup {} is not positive",
                case.name, case.speedup
            ));
        }
    }
    Ok(run.cases.len())
}

/// The regression ratchet: every freshly measured case that also exists in
/// the committed artifact must retain at least [`RATCHET_FLOOR`] of its
/// committed speedup and produce exactly its committed `fragments_per_op`,
/// and — unless `allow_new` is set — every fresh case
/// must exist in the committed artifact at all (an unbanked case is one the
/// ratchet would silently never gate, which is exactly how a typo'd rename
/// slips a banked win out of CI). Returns the number of cases compared.
fn check_ratchet(fresh: &PathBuf, committed: &PathBuf, allow_new: bool) -> Result<usize, String> {
    let fresh_run = parse_artifact(fresh)?;
    let committed_run = parse_artifact(committed)?;
    // Speedups measured under different kernels are not comparable: a bank
    // recorded at avx2 is not a floor for a scalar-forced run, and a scalar
    // bank would wave an avx2 regression through. Refuse loudly instead of
    // reporting phantom (or phantom-free) regressions.
    let fresh_simd = fresh_run.simd.as_deref().unwrap_or("unknown");
    match committed_run.simd.as_deref() {
        None => {
            return Err(format!(
                "committed artifact {} records no SIMD dispatch level (it predates the \
                 'simd' field) — regenerate it with the current bench_raster and commit \
                 the result",
                committed.display()
            ));
        }
        Some(banked_simd) if banked_simd != fresh_simd => {
            return Err(format!(
                "dispatch level mismatch: fresh run executed at '{fresh_simd}' but {} was \
                 banked at '{banked_simd}' — speedups are not comparable across dispatch \
                 levels; ratchet against an artifact banked at the same level (CI keeps \
                 one per leg, e.g. BENCH_raster_scalar.json for SPOTNOISE_SIMD=off)",
                committed.display()
            ));
        }
        Some(_) => {}
    }
    let fresh_cases = fresh_run.cases;
    let committed_cases = committed_run.cases;
    let mut compared = 0;
    let mut failures = Vec::new();
    let mut unbanked = Vec::new();
    for fresh in &fresh_cases {
        let name = &fresh.name;
        let Some(committed) = committed_cases.iter().find(|c| c.name == *name) else {
            unbanked.push(name.clone());
            continue;
        };
        compared += 1;
        let (measured, banked) = (fresh.speedup, committed.speedup);
        let floor = (banked * RATCHET_FLOOR).min(banked - RATCHET_SLACK);
        if measured < floor {
            failures.push(format!(
                "case {name}: speedup {measured:.3} fell below {floor:.3} \
                 (= min({RATCHET_FLOOR} x, -{RATCHET_SLACK}) of committed {banked:.3})"
            ));
        }
        if fresh.fragments != committed.fragments {
            failures.push(format!(
                "case {name}: fragments_per_op {} differs from the committed {}",
                fresh.fragments, committed.fragments
            ));
        }
    }
    if !unbanked.is_empty() && !allow_new {
        failures.push(format!(
            "unbanked case(s) not present in {}: {} — regenerate and commit \
             the artifact (or pass --allow-new while iterating)",
            committed.display(),
            unbanked.join(", ")
        ));
    }
    if compared == 0 && unbanked.is_empty() {
        return Err(format!(
            "ratchet {committed:?} shares no case with the fresh run — wrong file?"
        ));
    }
    if failures.is_empty() {
        Ok(compared)
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let mut out = PathBuf::from("BENCH_raster.json");
    let mut check = false;
    let mut filter: Option<String> = None;
    let mut ratchet: Option<PathBuf> = None;
    let mut allow_new = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--check" => check = true,
            "--allow-new" => allow_new = true,
            "--filter" => match args.next() {
                Some(substring) => filter = Some(substring),
                None => {
                    eprintln!("--filter needs a substring");
                    return ExitCode::FAILURE;
                }
            },
            "--ratchet" => match args.next() {
                Some(path) => ratchet = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--ratchet needs a path to a committed BENCH_raster.json");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The ratchet is a --check extension; a bare --ratchet would silently
    // verify nothing, so reject it up front.
    if ratchet.is_some() && !check {
        eprintln!("--ratchet requires --check (the ratchet runs as part of the check phase)");
        return ExitCode::FAILURE;
    }
    // Fail on an unwritable destination before spending minutes measuring.
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("cannot create output directory");
    }
    if let Some(f) = &filter {
        println!("measuring only cases containing {f:?}");
    }
    // Fail on an unreadable bank before spending minutes measuring.
    if let Some(committed) = &ratchet {
        if let Err(e) = parse_artifact(committed) {
            eprintln!("ratchet FAILED: {}: {e}", committed.display());
            return ExitCode::FAILURE;
        }
    }
    let runs = if ratchet.is_some() { RATCHET_RUNS } else { 1 };
    let reports = (0..runs)
        .map(|run| {
            if runs > 1 {
                println!("--- ratchet run {} of {runs} ---", run + 1);
            }
            spotnoise_bench::raster_bench::run_raster_bench_filtered(filter.as_deref())
        })
        .collect();
    let report = spotnoise_bench::raster_bench::lower_quartile_report(reports);
    if report.cases.is_empty() {
        eprintln!("filter matched no benchmark case");
        return ExitCode::FAILURE;
    }
    println!("{}", spotnoise_bench::raster_bench::format_report(&report));
    std::fs::write(&out, spotnoise_bench::raster_bench::report_to_json(&report))
        .expect("write BENCH_raster.json");
    println!("wrote {}", out.display());
    if check {
        match check_artifact(&out) {
            Ok(cases) => {
                println!("check OK: {cases} cases, schema valid, every speedup > 0");
            }
            Err(e) => {
                eprintln!("check FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(committed) = &ratchet {
            match check_ratchet(&out, committed, allow_new) {
                Ok(compared) => {
                    println!(
                        "ratchet OK: {compared} cases at >= {RATCHET_FLOOR}x their committed \
                         speedup and at their committed fragments_per_op in {}",
                        committed.display()
                    );
                }
                Err(e) => {
                    eprintln!("ratchet FAILED against {}:\n{e}", committed.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
