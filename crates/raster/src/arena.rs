//! Pooled per-frame buffers: zero steady-state allocation for synthesis.
//!
//! Every engine frame used to allocate (and fault in) fresh framebuffer-sized
//! buffers: the gather target, one partial texture per finished pipe, and the
//! command-stream `Vec`s the masters batch spot draws into. On a steady-state
//! server rendering frames back to back those allocations — megabytes of
//! `malloc` + page faults per frame at 512²+ — are pure overhead: the
//! buffers' sizes never change. A [`FrameArena`] recycles them instead:
//! textures and command vectors are checked out at the start of a frame and
//! checked back in when the gather has folded them (or the pipe has executed
//! them), so after the first frame the hot loop touches only warm,
//! already-mapped memory.
//!
//! Textures are pooled **per size class** (texel count): a checkout is only
//! served from a buffer of exactly the requested texel count, never by
//! reshaping a differently-sized one. One arena can therefore be shared by
//! sessions rendering different frame sizes — a 128² session and a 512²
//! session each reuse their own buffers — without the alternating
//! reallocation thrash a single mixed pool would cause (a 128² buffer grown
//! to 512² and back reallocates on every alternation).
//!
//! The arena is shared across threads (masters, pipe workers and the gather
//! all check buffers in and out), so every method takes `&self` and the pools
//! live behind mutexes held only for the O(1) push/pop — never during
//! rendering. Reuse is strictly *allocation* reuse: a recycled texture is
//! re-zeroed (or fully overwritten) before it is observable, so outputs are
//! bit-identical with and without an arena — which the arena-reuse tests
//! assert.

use crate::pipe::RenderCommand;
use crate::sync::lock_recover;
use crate::texture::Texture;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Maximum buffers kept per texture size class (and for the command-vector
/// pool); beyond this, returned buffers are dropped. A frame needs one
/// texture per process group plus the gather target, so 32 covers any
/// plausible machine shape without hoarding memory after a burst.
const MAX_POOLED: usize = 32;

/// Counter snapshot of an arena (telemetry for tests and the bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Texture checkouts served by allocating fresh memory.
    pub texture_allocations: u64,
    /// Texture checkouts served from the pool.
    pub texture_reuses: u64,
    /// Command-vector checkouts served by allocating fresh memory.
    pub command_allocations: u64,
    /// Command-vector checkouts served from the pool.
    pub command_reuses: u64,
}

/// One texture size class: all pooled buffers of a given texel count.
/// Size classes are kept in a small association list rather than a hash
/// map — an arena sees a handful of frame sizes at most, a linear scan is
/// free next to the lock, and (measured) instantiating a `HashMap` here
/// perturbs codegen of the rasterizer hot loops elsewhere in this crate.
#[derive(Debug)]
struct SizeClass {
    texels: usize,
    pool: Vec<Texture>,
}

/// A shared pool of framebuffer-sized textures and render-command vectors.
#[derive(Debug, Default)]
pub struct FrameArena {
    /// Texture pools, one per size class (texel count).
    textures: Mutex<Vec<SizeClass>>,
    commands: Mutex<Vec<Vec<RenderCommand>>>,
    texture_allocations: AtomicU64,
    texture_reuses: AtomicU64,
    command_allocations: AtomicU64,
    command_reuses: AtomicU64,
}

impl FrameArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        FrameArena::default()
    }

    /// Takes the texture pools, recovering from poison by dropping every
    /// pooled buffer: pooled textures are pure caches, so an empty pool is
    /// always a valid (merely cold) state.
    fn texture_pools(&self) -> MutexGuard<'_, Vec<SizeClass>> {
        lock_recover(&self.textures, Vec::clear)
    }

    /// Same recovery contract as [`FrameArena::texture_pools`] for the
    /// command-vector pool.
    fn command_pool(&self) -> MutexGuard<'_, Vec<Vec<RenderCommand>>> {
        lock_recover(&self.commands, Vec::clear)
    }

    /// Checks out a zeroed `width` × `height` texture (the [`Texture::new`]
    /// contract), reusing a pooled allocation of the same texel count when
    /// one is available.
    pub fn texture_zeroed(&self, width: usize, height: usize) -> Texture {
        self.texture(width, height, true)
    }

    /// Checks out a `width` × `height` texture whose contents are
    /// **unspecified** — for callers that overwrite every texel (partial
    /// readback copies, the additive gather target whose first fold is a
    /// wholesale copy). Skipping the clear keeps reuse cheaper than a fresh
    /// zeroed allocation even for the first touch.
    pub fn texture_uninit(&self, width: usize, height: usize) -> Texture {
        self.texture(width, height, false)
    }

    fn texture(&self, width: usize, height: usize, zero: bool) -> Texture {
        let texels = width * height;
        let pooled = self
            .texture_pools()
            .iter_mut()
            .find(|class| class.texels == texels)
            .and_then(|class| class.pool.pop());
        match pooled {
            Some(mut t) => {
                self.texture_reuses.fetch_add(1, Ordering::Relaxed);
                // Same texel count by construction: reset only reshapes (and
                // optionally zeroes) — it can never reallocate.
                t.reset(width, height, zero);
                t
            }
            None => {
                self.texture_allocations.fetch_add(1, Ordering::Relaxed);
                Texture::new(width, height)
            }
        }
    }

    /// Returns a texture to its size class's pool for a later checkout.
    pub fn recycle_texture(&self, texture: Texture) {
        let texels = texture.data().len();
        let mut classes = self.texture_pools();
        let class = match classes.iter_mut().find(|class| class.texels == texels) {
            Some(class) => class,
            None => {
                classes.push(SizeClass {
                    texels,
                    pool: Vec::new(),
                });
                classes.last_mut().expect("just pushed")
            }
        };
        if class.pool.len() < MAX_POOLED {
            class.pool.push(texture);
        }
    }

    /// Checks out an empty command vector with at least `capacity` slots.
    pub fn commands(&self, capacity: usize) -> Vec<RenderCommand> {
        let pooled = self.command_pool().pop();
        match pooled {
            Some(mut v) => {
                self.command_reuses.fetch_add(1, Ordering::Relaxed);
                debug_assert!(v.is_empty());
                if v.capacity() < capacity {
                    v.reserve(capacity - v.len());
                }
                v
            }
            None => {
                self.command_allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Returns a command vector to the pool, clearing it first (the commands
    /// themselves are dropped; only the outer allocation is retained).
    pub fn recycle_commands(&self, mut commands: Vec<RenderCommand>) {
        commands.clear();
        let mut pool = self.command_pool();
        if pool.len() < MAX_POOLED {
            pool.push(commands);
        }
    }

    /// Number of distinct texture size classes currently pooled.
    pub fn texture_size_classes(&self) -> usize {
        self.texture_pools().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            texture_allocations: self.texture_allocations.load(Ordering::Relaxed),
            texture_reuses: self.texture_reuses.load(Ordering::Relaxed),
            command_allocations: self.command_allocations.load(Ordering::Relaxed),
            command_reuses: self.command_reuses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn texture_checkout_reuses_the_allocation() {
        let arena = FrameArena::new();
        let mut t = arena.texture_zeroed(16, 16);
        t.fill(2.0);
        arena.recycle_texture(t);
        let t = arena.texture_zeroed(16, 16);
        assert!(t.data().iter().all(|&v| v == 0.0), "recycled texture dirty");
        let s = arena.stats();
        assert_eq!((s.texture_allocations, s.texture_reuses), (1, 1));
    }

    #[test]
    fn dirty_checkout_skips_the_clear_but_keeps_the_shape() {
        let arena = FrameArena::new();
        let mut t = arena.texture_uninit(8, 8);
        t.fill(1.0);
        arena.recycle_texture(t);
        // Same texel count, different shape: served from the pool (reshape
        // in place, no reallocation).
        let t = arena.texture_uninit(4, 16);
        assert_eq!((t.width(), t.height()), (4, 16));
        assert_eq!(t.data().len(), 64);
        let s = arena.stats();
        assert_eq!((s.texture_allocations, s.texture_reuses), (1, 1));
    }

    #[test]
    fn checkouts_never_cross_size_classes() {
        let arena = FrameArena::new();
        arena.recycle_texture(Texture::new(8, 8));
        // A differently-sized checkout must allocate fresh instead of
        // reshaping the 8x8 buffer (which would reallocate its storage).
        let big = arena.texture_zeroed(32, 32);
        assert_eq!(big.data().len(), 32 * 32);
        let s = arena.stats();
        assert_eq!((s.texture_allocations, s.texture_reuses), (1, 0));
        // The 8x8 buffer is still pooled for its own size class.
        let small = arena.texture_zeroed(8, 8);
        assert_eq!(small.data().len(), 64);
        assert_eq!(arena.stats().texture_reuses, 1);
        assert_eq!(arena.texture_size_classes(), 1);
    }

    #[test]
    fn mixed_sizes_reach_steady_state_without_realloc_thrash() {
        // Alternating checkouts of two sizes: after one buffer per size
        // class exists, every further checkout is a reuse.
        let arena = FrameArena::new();
        for _ in 0..8 {
            let small = arena.texture_zeroed(8, 8);
            let big = arena.texture_uninit(32, 32);
            arena.recycle_texture(small);
            arena.recycle_texture(big);
        }
        let s = arena.stats();
        assert_eq!(s.texture_allocations, 2, "one allocation per size class");
        assert_eq!(s.texture_reuses, 14);
        assert_eq!(arena.texture_size_classes(), 2);
    }

    #[test]
    fn command_vectors_round_trip_empty() {
        let arena = FrameArena::new();
        let mut v = arena.commands(8);
        v.push(RenderCommand::Clear);
        arena.recycle_commands(v);
        let v = arena.commands(4);
        assert!(v.is_empty());
        assert!(v.capacity() >= 4);
        let s = arena.stats();
        assert_eq!((s.command_allocations, s.command_reuses), (1, 1));
    }

    #[test]
    fn pool_is_bounded_per_size_class() {
        let arena = FrameArena::new();
        for _ in 0..2 * MAX_POOLED {
            arena.recycle_texture(Texture::new(2, 2));
        }
        assert_eq!(arena.pooled_textures(), MAX_POOLED);
        // A second size class has its own bound.
        for _ in 0..2 * MAX_POOLED {
            arena.recycle_texture(Texture::new(4, 4));
        }
        assert_eq!(arena.pooled_textures(), 2 * MAX_POOLED);
    }

    #[test]
    fn arena_is_shareable_across_threads() {
        let arena = std::sync::Arc::new(FrameArena::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let arena = std::sync::Arc::clone(&arena);
                scope.spawn(move || {
                    for _ in 0..16 {
                        let t = arena.texture_zeroed(8, 8);
                        arena.recycle_texture(t);
                    }
                });
            }
        });
        let s = arena.stats();
        assert_eq!(s.texture_allocations + s.texture_reuses, 64);
    }

    impl FrameArena {
        /// Number of textures currently pooled, over all size classes.
        fn pooled_textures(&self) -> usize {
            self.texture_pools()
                .iter()
                .map(|class| class.pool.len())
                .sum()
        }
    }
}
