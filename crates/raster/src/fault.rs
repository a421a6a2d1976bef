//! Fault injection for chaos testing.
//!
//! The service's fault-containment layer (panic isolation, poisoned-pipe
//! discard, lock recovery) is only trustworthy if it is exercised, so this
//! module provides a process-global registry of *injected* faults that the
//! hot paths consult at well-known sites:
//!
//! * `"raster"` — inside a pipe worker's command execution (a panic here
//!   poisons the pipe and must be discarded by the pool),
//! * `"advect"` / `"synthesize"` / `"render"` — the pipeline stage
//!   checkpoints (a panic here unwinds through a frame job),
//! * `"queue"` / `"cache"` — the service's admission and cache paths
//!   (delays here inflate queue wait and drive the pressure ladder).
//!
//! A plan is installed either programmatically ([`install`] — what the
//! chaos tests use) or from the `SPOTNOISE_FAULT` environment variable
//! ([`install_from_env`] — what the server binary and the CI chaos leg
//! use). The spec grammar is a comma-separated rule list:
//!
//! ```text
//! SPOTNOISE_FAULT=panic:raster:0.02,delay:queue:5ms,delay:cache:200us:0.5
//! ```
//!
//! `panic:SITE:RATE` panics at `SITE` with probability `RATE` per
//! checkpoint; `delay:SITE:DURATION[:RATE]` sleeps for `DURATION`
//! (`us`/`ms`/`s` suffix) with probability `RATE` (default 1).
//!
//! When no plan is installed — the production configuration — every
//! checkpoint is a single relaxed atomic load, so the fault paths are free
//! for real traffic (the `telemetry_trace_overhead` bench banks the same
//! property for tracing).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// What an injected fault does when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FaultKind {
    /// Panic at the checkpoint (contained by the layer under test).
    Panic,
    /// Sleep for the given duration at the checkpoint.
    Delay(Duration),
}

/// One injection rule: a site, an action and a firing probability.
#[derive(Debug, Clone)]
pub(crate) struct FaultRule {
    /// The checkpoint name this rule applies to (e.g. `"raster"`).
    pub site: String,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Probability in `(0, 1]` that a checkpoint visit fires the rule.
    pub rate: f64,
}

/// A set of injection rules, installed process-wide.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The rules, checked in order at every matching checkpoint.
    pub(crate) rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses the `SPOTNOISE_FAULT` grammar (see the module docs). An empty
    /// or whitespace-only spec yields an empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let parts: Vec<&str> = entry.split(':').collect();
            let rule = match parts.as_slice() {
                ["panic", site] => FaultRule {
                    site: (*site).to_string(),
                    kind: FaultKind::Panic,
                    rate: 1.0,
                },
                ["panic", site, rate] => FaultRule {
                    site: (*site).to_string(),
                    kind: FaultKind::Panic,
                    rate: parse_rate(rate)?,
                },
                ["delay", site, duration] => FaultRule {
                    site: (*site).to_string(),
                    kind: FaultKind::Delay(parse_duration(duration)?),
                    rate: 1.0,
                },
                ["delay", site, duration, rate] => FaultRule {
                    site: (*site).to_string(),
                    kind: FaultKind::Delay(parse_duration(duration)?),
                    rate: parse_rate(rate)?,
                },
                _ => return Err(format!("unparseable fault rule {entry:?}")),
            };
            if rule.site.is_empty() {
                return Err(format!("fault rule {entry:?} has an empty site"));
            }
            rules.push(rule);
        }
        Ok(FaultPlan { rules })
    }
}

fn parse_rate(text: &str) -> Result<f64, String> {
    let rate: f64 = text
        .parse()
        .map_err(|_| format!("fault rate {text:?} is not a number"))?;
    if rate > 0.0 && rate <= 1.0 {
        Ok(rate)
    } else {
        Err(format!("fault rate {rate} out of (0, 1]"))
    }
}

fn parse_duration(text: &str) -> Result<Duration, String> {
    let (digits, unit): (&str, fn(u64) -> Duration) = if let Some(d) = text.strip_suffix("us") {
        (d, Duration::from_micros)
    } else if let Some(d) = text.strip_suffix("ms") {
        (d, Duration::from_millis)
    } else if let Some(d) = text.strip_suffix('s') {
        (d, Duration::from_secs)
    } else {
        return Err(format!("fault duration {text:?} needs a us/ms/s suffix"));
    };
    digits
        .parse()
        .map(unit)
        .map_err(|_| format!("fault duration {text:?} is not a whole number"))
}

/// Fast-path gate: checked with one relaxed load at every checkpoint.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Monotonic count of panics this module has injected.
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Monotonic count of delays this module has injected.
static DELAYS: AtomicU64 = AtomicU64::new(0);

/// Deterministic-enough xorshift state for firing probabilities. Seeded
/// lazily; chaos runs care about the *rate*, not the sequence.
static RNG: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);

fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs a plan process-wide, replacing any previous one. Chaos tests
/// call this directly; servers call [`install_from_env`] at boot.
pub fn install(plan: FaultPlan) {
    let enabled = !plan.rules.is_empty();
    *crate::sync::lock_recover(plan_slot(), |_| {}) = enabled.then(|| Arc::new(plan));
    ACTIVE.store(enabled, Ordering::Release);
}

/// Removes the installed plan; every checkpoint reverts to the free path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *crate::sync::lock_recover(plan_slot(), |_| {}) = None;
}

/// Installs the plan described by `SPOTNOISE_FAULT`, if the variable is set
/// and parses. Returns whether a non-empty plan was installed; a malformed
/// spec is reported on stderr and ignored (a chaos knob must never take the
/// real service down).
pub fn install_from_env() -> bool {
    match std::env::var("SPOTNOISE_FAULT") {
        Ok(spec) => match FaultPlan::parse(&spec) {
            Ok(plan) => {
                let enabled = !plan.rules.is_empty();
                install(plan);
                enabled
            }
            Err(e) => {
                eprintln!("ignoring SPOTNOISE_FAULT: {e}");
                false
            }
        },
        Err(_) => false,
    }
}

/// Whether a fault plan is currently installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Panics injected so far (monotonic over the process lifetime).
pub fn injected_panics() -> u64 {
    PANICS.load(Ordering::Relaxed)
}

/// Delays injected so far (monotonic over the process lifetime).
pub fn injected_delays() -> u64 {
    DELAYS.load(Ordering::Relaxed)
}

fn chance(rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    // One xorshift step per draw; contention-tolerant (a lost update just
    // reuses a draw, which only perturbs the effective rate marginally).
    let mut x = RNG.load(Ordering::Relaxed);
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    RNG.store(x, Ordering::Relaxed);
    ((x >> 11) as f64 / (1u64 << 53) as f64) < rate
}

/// A fault checkpoint. Free (one relaxed load) when no plan is installed;
/// with a plan, fires every matching rule in order — sleeping for delays,
/// panicking for panics (the panic carries the site name so containment
/// layers can report it).
#[inline]
pub fn fire(site: &str) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    fire_slow(site);
}

#[cold]
fn fire_slow(site: &str) {
    let plan = crate::sync::lock_recover(plan_slot(), |_| {}).clone();
    let Some(plan) = plan else { return };
    for rule in plan.rules.iter().filter(|r| r.site == site) {
        if !chance(rule.rate) {
            continue;
        }
        match rule.kind {
            FaultKind::Delay(duration) => {
                DELAYS.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(duration);
            }
            FaultKind::Panic => {
                PANICS.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault at site {site:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_round_trips() {
        let plan = FaultPlan::parse("panic:raster:0.02, delay:queue:5ms, delay:cache:200us:0.5")
            .expect("spec parses");
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].site, "raster");
        assert_eq!(plan.rules[0].kind, FaultKind::Panic);
        assert!((plan.rules[0].rate - 0.02).abs() < 1e-12);
        assert_eq!(
            plan.rules[1].kind,
            FaultKind::Delay(Duration::from_millis(5))
        );
        assert!((plan.rules[1].rate - 1.0).abs() < 1e-12);
        assert_eq!(
            plan.rules[2].kind,
            FaultKind::Delay(Duration::from_micros(200))
        );
        assert_eq!(FaultPlan::parse("").expect("empty spec").rules.len(), 0);
        assert_eq!(FaultPlan::parse("panic:x").unwrap().rules[0].rate, 1.0);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "panik:raster:0.1",
            "panic::0.1",
            "panic:raster:2.0",
            "panic:raster:0",
            "delay:queue:5",
            "delay:queue:xms",
            "panic",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
