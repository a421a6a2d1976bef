//! Persistent graphics-pipe workers, checked out per frame.
//!
//! The paper's machine model is a set of *long-lived* graphics pipes that
//! frames are divided across — yet spawning a [`GraphicsPipe`] per frame
//! (and joining it at `finish`) pays one thread spawn + join per process
//! group per frame, which dominates the fixed cost of small interactive
//! frames once buffers are pooled. A [`PipePool`] keeps the worker threads
//! alive across frames instead: the scheduler engine checks a pipe out per
//! `(width, height, group)` at session open and the checkout guard returns
//! it at session close, so steady-state synthesis spawns zero threads.
//!
//! Reuse is invisible: every checkout queues a session reset
//! (`PipeCore::reset_session`) so a recycled worker has the same state
//! machine, counters, texture memory and redundant-filter history as a
//! fresh spawn — outputs and accounting are bit-identical, which the pool
//! tests assert. What reuse *keeps* is the expensive part: the live thread,
//! its warm target buffer and the buffer's dirty-row knowledge (so `Clear`
//! on a retained target stays a dirty-rect sweep).
//!
//! One pool may be shared by many pipelines — the spotnoise service shares a
//! single pool across all sessions, sized by the session cap — because
//! shelves are keyed by target size: a 128² session and a 512² session
//! never exchange pipes.

use crate::arena::FrameArena;
use crate::bus::BusTracker;
use crate::pipe::GraphicsPipe;
use crate::sync::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Callback invoked after every [`PipePool::checkout`] with `(reused, wait)`:
/// whether the checkout was served from a shelf, and how long it took (lock
/// wait + reset-or-spawn). Lets layers above the raster crate observe pool
/// behaviour without this crate depending on their telemetry types.
pub(crate) type CheckoutObserver = Arc<dyn Fn(bool, Duration) + Send + Sync>;

/// Default cap on idle pipes retained by a pool (total, over all shelves).
/// One pipe per process group of a typical machine shape; pools serving many
/// sessions size themselves explicitly via [`PipePool::with_capacity`].
const DEFAULT_MAX_IDLE: usize = 32;

/// Shelf key: pipes are interchangeable only within the same target size and
/// process group.
type ShelfKey = (usize, usize, usize);

/// Counter snapshot of a pool (the spawn-counter tests and the bench read
/// this to prove steady-state frames spawn zero threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts that had to spawn a fresh worker thread.
    pub spawned: u64,
    /// Checkouts served by a persistent worker from a shelf.
    pub reused: u64,
    /// Returned pipes dropped (joined) because the pool was at capacity.
    pub retired: u64,
    /// Returned pipes dropped because a command panicked on their worker —
    /// a poisoned pipe never goes back on a shelf; the next checkout for
    /// its key spawns a fresh worker in its place.
    pub discarded: u64,
    /// Idle pipes currently shelved.
    pub idle: usize,
}

/// A pool of persistent [`GraphicsPipe`] workers keyed by
/// `(width, height, group)`.
pub struct PipePool {
    shelves: Mutex<HashMap<ShelfKey, Vec<GraphicsPipe>>>,
    /// Arena the pooled workers use for partial readbacks and batch vectors
    /// (baked into each worker at spawn, so it must be pool-wide).
    arena: Option<Arc<FrameArena>>,
    /// Maximum idle pipes retained over all shelves.
    max_idle: usize,
    spawned: AtomicU64,
    reused: AtomicU64,
    retired: AtomicU64,
    discarded: AtomicU64,
    /// Optional checkout observer (see [`CheckoutObserver`]).
    observer: Mutex<Option<CheckoutObserver>>,
}

impl std::fmt::Debug for PipePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipePool")
            .field("stats", &self.stats())
            .field("max_idle", &self.max_idle)
            .finish()
    }
}

impl PipePool {
    /// Creates a pool whose workers recycle buffers through `arena` (pass
    /// the same arena the engine composes with, so partial readbacks stay
    /// zero-alloc), retaining up to a default number of idle pipes.
    pub fn new(arena: Option<Arc<FrameArena>>) -> Self {
        PipePool::with_capacity(arena, DEFAULT_MAX_IDLE)
    }

    /// Like [`PipePool::new`] with an explicit cap on idle pipes (total over
    /// all shelves). The service sizes this by its session cap so every
    /// admitted session can keep its pipes warm.
    pub fn with_capacity(arena: Option<Arc<FrameArena>>, max_idle: usize) -> Self {
        PipePool {
            shelves: Mutex::new(HashMap::new()),
            arena,
            max_idle,
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            observer: Mutex::new(None),
        }
    }

    /// Takes the shelf map, recovering from poison by dropping every idle
    /// pipe: a panic while the map was held can leave a half-performed
    /// pop/push, and starting from empty shelves trades warm workers for
    /// certainty (the next checkouts simply respawn).
    fn shelves(&self) -> std::sync::MutexGuard<'_, HashMap<ShelfKey, Vec<GraphicsPipe>>> {
        lock_recover(&self.shelves, HashMap::clear)
    }

    /// Installs (or clears) the checkout observer. At most one is active; the
    /// service installs one that feeds its checkout-latency histogram and
    /// trace sink.
    pub fn set_observer(&self, observer: Option<CheckoutObserver>) {
        // The observer slot is a single `Option` — always whole, so poison
        // recovery needs no revalidation here.
        *lock_recover(&self.observer, |_| {}) = observer;
    }

    /// The arena pooled workers were configured with.
    pub fn arena(&self) -> Option<&Arc<FrameArena>> {
        self.arena.as_ref()
    }

    /// Checks a pipe out for one frame. A shelved worker for the same
    /// `(width, height, group)` is reset and reused; otherwise a fresh
    /// worker is spawned. `bus` receives this checkout's traffic (recording
    /// happens on the submitting side, so per-frame trackers work with
    /// persistent workers). The returned guard dereferences to the
    /// [`GraphicsPipe`] and shelves the worker when dropped.
    pub fn checkout(
        self: &Arc<Self>,
        group: usize,
        width: usize,
        height: usize,
        bus: Option<BusTracker>,
    ) -> PooledPipe {
        let start = Instant::now();
        let key = (width, height, group);
        let shelved = self.shelves().get_mut(&key).and_then(Vec::pop);
        let was_reused = shelved.is_some();
        let mut pipe = match shelved {
            Some(pipe) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                // Queued ahead of the frame's commands: the reused worker
                // re-enters the fresh-spawn state before any of them run.
                pipe.reset_session();
                pipe
            }
            None => {
                self.spawned.fetch_add(1, Ordering::Relaxed);
                GraphicsPipe::spawn(width, height, None, self.arena.clone())
            }
        };
        pipe.set_bus(bus);
        let observer = lock_recover(&self.observer, |_| {}).clone();
        if let Some(observer) = observer {
            observer(was_reused, start.elapsed());
        }
        PooledPipe {
            pipe: Some(pipe),
            pool: Arc::clone(self),
            key,
        }
    }

    /// Returns a pipe to its shelf (or retires it when the pool is full). A
    /// poisoned pipe — one whose worker panicked mid-frame — is discarded
    /// instead: its target and session state are suspect, so the next
    /// checkout for this key respawns a fresh worker.
    fn check_in(&self, key: ShelfKey, mut pipe: GraphicsPipe) {
        if pipe.is_poisoned() {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            drop(pipe);
            return;
        }
        pipe.set_bus(None);
        let mut shelves = self.shelves();
        let idle: usize = shelves.values().map(Vec::len).sum();
        if idle < self.max_idle {
            shelves.entry(key).or_default().push(pipe);
        } else {
            self.retired.fetch_add(1, Ordering::Relaxed);
            // Dropping joins the worker thread — outside the lock.
            drop(shelves);
            drop(pipe);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            idle: self.shelves().values().map(Vec::len).sum(),
        }
    }
}

/// A checked-out pipe: dereferences to its [`GraphicsPipe`] and returns the
/// worker to its pool shelf on drop (after `finish`, the pipe is idle and
/// immediately reusable — no join).
pub struct PooledPipe {
    pipe: Option<GraphicsPipe>,
    pool: Arc<PipePool>,
    key: ShelfKey,
}

impl std::ops::Deref for PooledPipe {
    type Target = GraphicsPipe;

    fn deref(&self) -> &GraphicsPipe {
        self.pipe.as_ref().expect("pipe present until drop")
    }
}

impl Drop for PooledPipe {
    fn drop(&mut self) {
        if let Some(pipe) = self.pipe.take() {
            self.pool.check_in(self.key, pipe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipe::{PipeOutput, RenderCommand};
    use crate::raster::axis_aligned_spot_quad;
    use crate::texture::disc_spot_texture;
    use flowfield::Vec2;

    fn frame(pipe: &PooledPipe, offset: f64) -> PipeOutput {
        let spot = Arc::new(disc_spot_texture(16, 0.4));
        pipe.submit(vec![
            RenderCommand::Clear,
            RenderCommand::UploadTexture(1, spot),
            RenderCommand::BindTexture(1),
            RenderCommand::Quad {
                vertices: axis_aligned_spot_quad(Vec2::new(16.0 + offset, 16.0), 5.0),
                intensity: 1.0,
            },
        ]);
        pipe.finish()
    }

    #[test]
    fn checkout_reuses_workers_and_matches_fresh_spawns() {
        let pool = Arc::new(PipePool::new(None));
        let first = {
            let pipe = pool.checkout(0, 48, 48, None);
            frame(&pipe, 0.0)
        };
        assert_eq!(pool.stats().spawned, 1);
        assert_eq!(pool.stats().idle, 1);
        // Same key: the shelved worker serves the next frame, and its output
        // (texels, raster and state accounting) matches the fresh spawn's
        // bit for bit.
        let second = {
            let pipe = pool.checkout(0, 48, 48, None);
            frame(&pipe, 0.0)
        };
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.reused), (1, 1));
        assert_eq!(first.texture.absolute_difference(&second.texture), 0.0);
        assert_eq!(first.raster, second.raster);
        assert_eq!(first.state, second.state);
    }

    #[test]
    fn shelves_are_keyed_by_size_and_group() {
        let pool = Arc::new(PipePool::new(None));
        drop(pool.checkout(0, 32, 32, None));
        // Different size: fresh spawn.
        drop(pool.checkout(0, 64, 64, None));
        // Different group: fresh spawn even at the same size.
        drop(pool.checkout(1, 32, 32, None));
        // Matching key: reuse.
        drop(pool.checkout(0, 32, 32, None));
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.reused, stats.idle), (3, 1, 3));
    }

    #[test]
    fn capacity_retires_overflow_pipes() {
        let pool = Arc::new(PipePool::with_capacity(None, 1));
        let a = pool.checkout(0, 16, 16, None);
        let b = pool.checkout(1, 16, 16, None);
        drop(a);
        drop(b);
        let stats = pool.stats();
        assert_eq!(stats.idle, 1);
        assert_eq!(stats.retired, 1);

        // Capacity 0 is spawn-per-frame: every checkout spawns a worker and
        // every check-in retires (joins) it, and its frames match a reused
        // worker's bit for bit.
        let _ = frame(&pool.checkout(0, 16, 16, None), -6.0);
        let reused = frame(&pool.checkout(0, 16, 16, None), -2.0);
        assert_eq!(pool.stats().reused, 2);
        let fresh_pool = Arc::new(PipePool::with_capacity(None, 0));
        for round in 1..=3 {
            let fresh = frame(&fresh_pool.checkout(0, 16, 16, None), -2.0);
            let stats = fresh_pool.stats();
            assert_eq!(
                (stats.spawned, stats.reused, stats.retired, stats.idle),
                (round, 0, round, 0)
            );
            assert_eq!(fresh.texture.absolute_difference(&reused.texture), 0.0);
            assert_eq!(fresh.raster, reused.raster);
            assert_eq!(fresh.state, reused.state);
        }
    }

    #[test]
    fn mid_frame_drop_leaves_the_worker_reusable() {
        // A checkout abandoned between submit and finish (an early exit)
        // returns to the shelf with commands still queued; the next
        // checkout's session reset is FIFO-ordered behind them, so the
        // reused worker still behaves like a fresh spawn.
        let pool = Arc::new(PipePool::new(None));
        {
            let pipe = pool.checkout(0, 48, 48, None);
            pipe.submit(vec![RenderCommand::Quad {
                vertices: axis_aligned_spot_quad(Vec2::new(10.0, 10.0), 40.0),
                intensity: 123.0,
            }]);
            // No finish: dropped mid-frame.
        }
        let reused = frame(&pool.checkout(0, 48, 48, None), 0.0);
        let fresh = frame(&pool.checkout(1, 48, 48, None), 0.0);
        assert_eq!(reused.texture.absolute_difference(&fresh.texture), 0.0);
        assert_eq!(reused.raster, fresh.raster);
        assert_eq!(reused.state, fresh.state);
    }

    #[test]
    fn reused_worker_keeps_dirty_rect_clears() {
        // Without an arena the pooled worker's target survives checkouts
        // (finish clones), so the second frame's Clear is a dirty-rect
        // sweep instead of a full one.
        let pool = Arc::new(PipePool::new(None));
        let first = frame(&pool.checkout(0, 64, 64, None), 0.0);
        assert_eq!(first.cleared_texels, 0, "fresh target has nothing to clear");
        let second = frame(&pool.checkout(0, 64, 64, None), 8.0);
        assert!(
            second.cleared_texels > 0 && second.cleared_texels < 64 * 64,
            "expected a partial clear, got {}",
            second.cleared_texels
        );
        // And the swept target is genuinely clean outside the new spot.
        assert_eq!(second.texture.texel(16, 16), 0.0);
        assert!(second.texture.texel(24, 16) > 0.0);
    }

    #[test]
    fn checkout_observer_sees_reuse_flag_and_wait() {
        let pool = Arc::new(PipePool::new(None));
        let seen: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        pool.set_observer(Some(Arc::new(move |reused, wait| {
            assert!(wait >= Duration::ZERO);
            sink.lock().unwrap().push(reused);
        })));
        drop(pool.checkout(0, 32, 32, None));
        drop(pool.checkout(0, 32, 32, None));
        assert_eq!(*seen.lock().unwrap(), vec![false, true]);
        // Clearing the observer stops the callbacks.
        pool.set_observer(None);
        drop(pool.checkout(0, 32, 32, None));
        assert_eq!(seen.lock().unwrap().len(), 2);
    }

    #[test]
    fn pooled_pipes_record_bus_traffic_per_checkout() {
        let pool = Arc::new(PipePool::new(None));
        let bus_a = BusTracker::new();
        {
            let pipe = pool.checkout(0, 32, 32, Some(bus_a.clone()));
            let _ = frame(&pipe, 0.0);
        }
        let bus_b = BusTracker::new();
        {
            let pipe = pool.checkout(0, 32, 32, Some(bus_b.clone()));
            let _ = frame(&pipe, 0.0);
        }
        // Each checkout's traffic lands on its own tracker.
        assert_eq!(bus_a.snapshot().vertex_bytes, 4 * 16);
        assert_eq!(bus_b.snapshot().vertex_bytes, 4 * 16);
    }
}
