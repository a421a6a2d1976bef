//! A pooled pipe worker that a render command panicked on is never reused:
//! the frame it was rendering fails loudly, the pool discards the worker at
//! check-in, and the next checkout for its shelf spawns a fresh worker whose
//! frame has the bits a fresh spawn renders. A poisoned pipe also refuses
//! further batches, so its master stops building the frame.
//!
//! Fault plans are process-global, so this binary holds this one test.

use flowfield::analytic::Vortex;
use flowfield::{Rect, Vec2};
use softpipe::fault::{self, FaultPlan};
use softpipe::machine::MachineConfig;
use softpipe::{GraphicsPipe, PipePool, RenderCommand, Texture};
use spotnoise::config::SynthesisConfig;
use spotnoise::dnc::{synthesize_dnc, synthesize_dnc_with_telemetry};
use spotnoise::spot::generate_spots;
use spotnoise::telemetry::TraceSink;
use spotnoise::{SchedulerOptions, SynthesisContext};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn same_bits(a: &Texture, b: &Texture) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("")
}

#[test]
fn a_poisoned_pooled_worker_is_discarded_and_respawned() {
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let field = Vortex {
        omega: 1.0,
        center: domain.center(),
        domain,
    };
    let cfg = SynthesisConfig {
        spot_count: 60,
        ..SynthesisConfig::small_test()
    };
    let spots = generate_spots(cfg.spot_count, domain, cfg.intensity_amplitude, 13);
    let ctx = SynthesisContext::new(&field, &cfg);
    // One group: its master runs on this thread, so the pipe's panic
    // reaches the caller, and every frame checks out the same shelf key.
    let machine = MachineConfig::new(1, 1);
    let pool = Arc::new(PipePool::new(None));
    let render = || {
        synthesize_dnc_with_telemetry(
            &field,
            &spots,
            &cfg,
            &machine,
            &ctx,
            &SchedulerOptions,
            None,
            Some(&pool),
            &TraceSink::disabled(),
        )
    };
    // `synthesize_dnc` without a pool spawns a worker per group.
    let fresh = synthesize_dnc(&field, &spots, &cfg, &machine).texture;

    // Warm the shelf, so the faulty frame runs on a reused worker.
    assert!(same_bits(&render().texture, &fresh));
    let stats = pool.stats();
    assert_eq!((stats.spawned, stats.reused, stats.idle), (1, 0, 1));

    fault::install(FaultPlan::parse("panic:raster:1").expect("plan parses"));
    let poisoned = catch_unwind(AssertUnwindSafe(render));
    fault::clear();
    let Err(payload) = poisoned else {
        panic!("a frame on a poisoned worker must panic");
    };
    assert!(
        panic_message(payload.as_ref()).contains("poisoned"),
        "unexpected panic: {:?}",
        panic_message(payload.as_ref())
    );
    let stats = pool.stats();
    assert_eq!(
        stats.reused, 1,
        "the shelved worker rendered the faulty frame"
    );
    assert_eq!(stats.discarded, 1, "check-in discards the poisoned worker");
    assert_eq!(stats.idle, 0);

    let after = render();
    let stats = pool.stats();
    assert_eq!(
        (stats.spawned, stats.reused, stats.discarded, stats.idle),
        (2, 1, 1, 1),
        "the next checkout spawns a new worker"
    );
    assert!(same_bits(&after.texture, &fresh));

    // A batch that panics on the worker poisons the pipe; the next submit
    // must refuse instead of queueing work the worker would drop.
    let pipe = GraphicsPipe::spawn(8, 8, None, None);
    fault::install(FaultPlan::parse("panic:raster:1").expect("plan parses"));
    pipe.submit(vec![RenderCommand::Clear]);
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pipe.is_poisoned() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    fault::clear();
    assert!(pipe.is_poisoned(), "the faulty batch poisons the pipe");
    let refused = catch_unwind(AssertUnwindSafe(|| {
        pipe.submit(vec![RenderCommand::Clear]);
    }));
    let Err(payload) = refused else {
        panic!("submit to a poisoned pipe must panic");
    };
    assert!(
        panic_message(payload.as_ref()).contains("poisoned"),
        "unexpected panic: {:?}",
        panic_message(payload.as_ref())
    );
}
