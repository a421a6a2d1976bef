//! Workspace-level guarantees of the persistent pipe pool:
//!
//! * **Pooling is invisible.** Frames produced by a pipeline that reuses
//!   pipe workers from a [`softpipe::PipePool`] are bit-identical to
//!   spawn-per-frame synthesis (a capacity-0 pool), frame after frame, for
//!   additive and tiled partitioning alike.
//! * **Steady state is zero-spawn and zero-alloc.** After warm-up, a
//!   pooled pipeline's frames spawn no worker threads (pool spawn counter
//!   flat) and perform no framebuffer-sized allocations (arena allocation
//!   counter flat).
//! * **Sharing is size-safe.** One arena + one pool serve pipelines (and
//!   service sessions) with *different* frame sizes: no reallocation
//!   thrash, no cross-size buffer or pipe reuse, stats still flat.
//! * **Queued work blocks eviction.** A session with an admitted but not
//!   yet executed frame job cannot be idle-evicted out from under the
//!   worker that will pick it up.

use flowfield::analytic::Vortex;
use flowfield::{Rect, Vec2};
use softpipe::machine::MachineConfig;
use softpipe::{FrameArena, PipePool};
use spotnoise::config::SynthesisConfig;
use spotnoise::pipeline::{ExecutionMode, Pipeline};
use spotnoise_service::{serve, ServiceOptions, SessionSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn domain() -> Rect {
    Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
}

fn vortex() -> Vortex {
    Vortex {
        omega: 1.0,
        center: Vec2::new(0.5, 0.5),
        domain: domain(),
    }
}

fn quick_cfg(texture_size: usize) -> SynthesisConfig {
    SynthesisConfig {
        texture_size,
        spot_count: 60,
        spot_texture_size: 8,
        ..SynthesisConfig::small_test()
    }
}

/// Builds a masters-only divide-and-conquer pipeline (deterministic frame
/// bytes) with display production off, the service configuration.
fn pipeline(cfg: SynthesisConfig, groups: usize) -> Pipeline {
    let machine = MachineConfig::new(groups, groups);
    let mut p = Pipeline::new(cfg, ExecutionMode::DivideAndConquer(machine), domain());
    p.set_display_enabled(false);
    p
}

#[test]
fn pooled_frames_are_bit_identical_to_spawn_per_frame() {
    let field = vortex();
    for tiled in [false, true] {
        let cfg = SynthesisConfig {
            use_tiling: tiled,
            ..quick_cfg(64)
        };
        let mut pooled = pipeline(cfg, 4);
        let mut spawning = pipeline(cfg, 4);
        let arena = spawning.frame_arena().cloned();
        spawning.set_pipe_pool(Arc::new(PipePool::with_capacity(arena, 0)));
        for frame in 0..4 {
            let a = pooled.advance(&field, 0.05, 0);
            let b = spawning.advance(&field, 0.05, 0);
            assert_eq!(
                a.texture.absolute_difference(&b.texture),
                0.0,
                "tiled={tiled} frame {frame}: pooled output diverged from spawn-per-frame"
            );
            if let Some(arena) = pooled.frame_arena() {
                arena.recycle_texture(a.texture);
            }
        }
        // Reuse actually happened on one side and never on the other.
        let stats = pooled.pipe_pool().stats();
        assert!(stats.reused > 0, "tiled={tiled}: no worker was ever reused");
        let stats = spawning.pipe_pool().stats();
        assert_eq!(stats.reused, 0, "tiled={tiled}: the capacity-0 pool reused");
        assert_eq!(stats.spawned, stats.retired);
    }
}

#[test]
fn steady_state_spawns_zero_threads_and_allocates_zero_framebuffers() {
    let field = vortex();
    // Single group — the service's default session shape. Its buffer cycle
    // is fully deterministic (the master runs inline on the calling
    // thread), so the strict "never again" assertions are exact.
    let mut p = pipeline(quick_cfg(64), 1);
    // Warm-up: the first frames fault in pipes and buffers.
    for _ in 0..2 {
        let out = p.advance(&field, 0.05, 0);
        p.frame_arena().unwrap().recycle_texture(out.texture);
    }
    let arena_after_warmup = p.frame_arena().unwrap().stats();
    let pool_after_warmup = p.pipe_pool().stats();
    for _ in 0..6 {
        let out = p.advance(&field, 0.05, 0);
        p.frame_arena().unwrap().recycle_texture(out.texture);
    }
    let arena = p.frame_arena().unwrap().stats();
    let pool = p.pipe_pool().stats();
    assert_eq!(
        pool.spawned, pool_after_warmup.spawned,
        "a steady-state frame spawned a pipe worker thread: {pool:?}"
    );
    assert_eq!(
        arena.texture_allocations, arena_after_warmup.texture_allocations,
        "a steady-state frame allocated a framebuffer: {arena:?}"
    );
    assert!(pool.reused >= 6, "every frame re-leases the group's pipe");
    assert!(arena.texture_reuses > arena_after_warmup.texture_reuses);

    // Multi-group engines run their masters on scoped threads, so the
    // arena's transient high-water demand is timing-dependent — but it is
    // *bounded* (one gather target + per group one partial and one
    // replacement, plus the served frame), and pipe spawns stay exactly
    // one per (size, group) key.
    let mut p = pipeline(quick_cfg(64), 2);
    for _ in 0..12 {
        let out = p.advance(&field, 0.05, 0);
        p.frame_arena().unwrap().recycle_texture(out.texture);
    }
    let pool = p.pipe_pool().stats();
    assert_eq!(pool.spawned, 2, "one persistent worker per group: {pool:?}");
    let arena = p.frame_arena().unwrap().stats();
    assert!(
        arena.texture_allocations <= 2 * 2 + 2,
        "multi-group allocations exceeded the in-flight bound: {arena:?}"
    );
    assert!(arena.texture_reuses > arena.texture_allocations);
}

#[test]
fn shared_pools_serve_mixed_frame_sizes_without_thrash_or_crosstalk() {
    let field = vortex();
    let arena = Arc::new(FrameArena::new());
    let pool = Arc::new(PipePool::with_capacity(Some(Arc::clone(&arena)), 16));

    let attach = |cfg: SynthesisConfig, groups: usize| {
        let mut p = pipeline(cfg, groups);
        p.set_frame_arena(Some(Arc::clone(&arena)));
        p.set_pipe_pool(Arc::clone(&pool));
        p
    };
    // Single-group pipelines: the deterministic buffer cycle makes the
    // strict flat-allocation assertions below exact (multi-group timing
    // variance is covered separately by the steady-state test).
    let mut small = attach(quick_cfg(64), 1);
    let mut large = attach(quick_cfg(128), 1);
    // Private references with the same configs (own pools, own arenas).
    let mut small_ref = pipeline(quick_cfg(64), 1);
    let mut large_ref = pipeline(quick_cfg(128), 1);

    let mut warmed_arena = None;
    let mut warmed_pool = None;
    for frame in 0..6 {
        // Interleave the two sizes so every checkout alternates size
        // classes — the pattern that would thrash a size-blind pool.
        let a = small.advance(&field, 0.05, 0);
        let b = large.advance(&field, 0.05, 0);
        let ra = small_ref.advance(&field, 0.05, 0);
        let rb = large_ref.advance(&field, 0.05, 0);
        assert_eq!(
            a.texture.absolute_difference(&ra.texture),
            0.0,
            "frame {frame}: shared-pool 64x64 output diverged"
        );
        assert_eq!(
            b.texture.absolute_difference(&rb.texture),
            0.0,
            "frame {frame}: shared-pool 128x128 output diverged"
        );
        arena.recycle_texture(a.texture);
        arena.recycle_texture(b.texture);
        if let Some(own) = small_ref.frame_arena() {
            own.recycle_texture(ra.texture);
        }
        if let Some(own) = large_ref.frame_arena() {
            own.recycle_texture(rb.texture);
        }
        if frame == 1 {
            warmed_arena = Some(arena.stats());
            warmed_pool = Some(pool.stats());
        }
    }
    // No realloc thrash: once both size classes are warm, alternating
    // checkouts allocate nothing and spawn nothing.
    let warmed_arena = warmed_arena.unwrap();
    let warmed_pool = warmed_pool.unwrap();
    let final_arena = arena.stats();
    let final_pool = pool.stats();
    assert_eq!(
        final_arena.texture_allocations, warmed_arena.texture_allocations,
        "mixed-size steady state reallocated framebuffers: {final_arena:?}"
    );
    assert_eq!(
        final_pool.spawned, warmed_pool.spawned,
        "mixed-size steady state spawned pipe workers: {final_pool:?}"
    );
    // No cross-size reuse: the arena pools exactly the two frame-size
    // classes (64x64 and 128x128 — spot textures and command buffers are
    // not framebuffer-sized and live elsewhere).
    assert_eq!(arena.texture_size_classes(), 2);
}

#[test]
fn service_sessions_share_one_pool_across_frame_sizes() {
    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            workers: 1,
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    let service = handle.service();

    let spec = |size: usize| SessionSpec {
        config: quick_cfg(size),
        ..SessionSpec::default()
    };
    let small = service.create_session(spec(32)).unwrap();
    let large = service.create_session(spec(64)).unwrap();

    // Render disjoint frame indices on both sessions (every fetch is a cache
    // miss, so every fetch synthesizes through the shared pools).
    for frame in 0..3 {
        let a = service.fetch_frame(small, frame).unwrap();
        let b = service.fetch_frame(large, frame).unwrap();
        assert_eq!(a.bytes.len(), 32 * 32 * 4);
        assert_eq!(b.bytes.len(), 64 * 64 * 4);
    }
    let arena = service.pools().arena.as_ref().expect("shared arena");
    let warm_arena = arena.stats();
    let pool = &service.pools().pipes;
    let warm_pool = pool.stats();
    for frame in 3..6 {
        service.fetch_frame(small, frame).unwrap();
        service.fetch_frame(large, frame).unwrap();
    }
    let final_arena = arena.stats();
    assert_eq!(
        final_arena.texture_allocations, warm_arena.texture_allocations,
        "steady-state service frames allocated framebuffers: {final_arena:?}"
    );
    assert_eq!(
        pool.stats().spawned,
        warm_pool.spawned,
        "steady-state service frames spawned pipe workers"
    );
    assert!(pool.stats().reused > warm_pool.reused);
    handle.shutdown();
}

#[test]
fn queued_jobs_protect_their_session_from_idle_eviction() {
    // One worker, an idle timeout far below the burst duration: session
    // B's job waits in the queue while the worker renders session A's long
    // burst, so B sits unlocked and "idle" well past the timeout while
    // concurrent /stats sweeps run eviction the whole time. Without
    // in-flight tracking B is reaped between admission and execution and
    // its admitted fetch comes back NotFound.
    let handle = serve(
        "127.0.0.1:0",
        ServiceOptions {
            workers: 1,
            idle_timeout: Duration::from_millis(50),
            ..ServiceOptions::default()
        },
    )
    .expect("bind loopback");
    let service = handle.service();
    let spec = SessionSpec {
        // 120 frames of this config take well over the idle timeout.
        config: SynthesisConfig {
            texture_size: 64,
            spot_texture_size: 8,
            ..SynthesisConfig::small_test()
        },
        ..SessionSpec::default()
    };
    let a = service.create_session(spec).unwrap();
    let b = service.create_session(spec).unwrap();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Eviction sweeps run for the whole duration of both requests
        // (GET /stats triggers evict_idle on every call).
        let sweeper = scope.spawn(|| {
            let stats = spotnoise_service::http::Request {
                method: "GET".to_string(),
                path: "/stats".to_string(),
                body: Vec::new(),
                keep_alive: true,
                deadline_ms: None,
            };
            while !done.load(Ordering::SeqCst) {
                let _ = service.route(&stats);
                std::thread::yield_now();
            }
        });
        let slow = scope.spawn(|| service.fetch_frame(a, 120));
        let queued = scope.spawn(|| service.fetch_frame(b, 0));
        let slow = slow.join().unwrap();
        let queued = queued.join().unwrap();
        done.store(true, Ordering::SeqCst);
        sweeper.join().unwrap();
        assert!(slow.is_ok(), "burst request failed: {slow:?}");
        assert!(
            queued.is_ok(),
            "queued request lost its session to idle eviction: {queued:?}"
        );
    });
    handle.shutdown();
}
