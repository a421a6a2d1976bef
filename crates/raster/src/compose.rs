//! Gathering and blending partial textures.
//!
//! After each process group finishes its particle set, the per-pipe partial
//! textures are gathered and blended into the final spot-noise texture. This
//! is the *sequential* step of the divide-and-conquer algorithm — the `c`
//! term of equation 3.2 — and it is what prevents perfectly linear speedups
//! in the paper's tables. Two composition strategies are provided, matching
//! the two partitioning strategies of the implementation section:
//!
//! * additive gathering — partial textures cover the whole target and are
//!   summed texel by texel (pure spot-set partitioning), and
//! * tile composition — each partial texture only owns a pixel region of the
//!   target (texture tiling) and regions are copied into place.
//!
//! Both are implemented on [`StreamingGather`], which accepts partials one at
//! a time: the scheduler engine feeds it through a channel as process groups
//! finish, so blending overlaps with the straggling groups instead of
//! waiting for a barrier. Additive folding is performed *in slot order* (a
//! partial that arrives early is parked until its predecessors have been
//! folded), which keeps the result bit-identical to the classic sequential
//! `p0 + p1 + ... + pn` accumulation no matter the arrival order; tile
//! regions are disjoint, so tiles are copied the moment they arrive.
//!
//! When several consecutive slots are ready at once — an arrival that
//! unlocks a parked run, or the all-at-once [`gather_additive`] wrapper —
//! the whole run is folded in **one destination pass**: each destination
//! chunk is loaded once and every ready partial is accumulated into it while
//! it is cache-hot, instead of streaming the full-size destination through
//! memory once per partial. Per-texel accumulation order is unchanged
//! (sources are applied in slot order within the chunk), so the fused fold
//! stays bit-identical to the one-at-a-time fold; a straggler still folds
//! alone the moment it arrives, preserving the overlap.
//!
//! The `c` term is sequential in the performance model (the simulated Onyx2
//! charges it at full blend cost, exactly as eq. 3.2 prescribes), and the
//! host runs it sequentially too, on the calling thread. Splitting the texel
//! work over threads did not pay on the hosts measured: at 512² the gather
//! is a few hundred microseconds, less than a percent of a paper frame, and
//! two threads were never faster than one.

use crate::arena::FrameArena;
use crate::texture::Texture;
use std::collections::BTreeMap;

/// Rows per destination chunk of the fused additive fold: a chunk stays
/// cache-resident while every source of the run is accumulated into it.
const COMPOSE_ROW_CHUNK: usize = 32;

/// A pixel-space tile: the half-open region `[x0, x1) x [y0, y1)` of the
/// final texture owned by one process group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelTile {
    /// Left edge (inclusive).
    pub x0: usize,
    /// Bottom edge (inclusive).
    pub y0: usize,
    /// Right edge (exclusive).
    pub x1: usize,
    /// Top edge (exclusive).
    pub y1: usize,
}

impl PixelTile {
    /// Number of texels in the tile.
    pub fn area(&self) -> usize {
        self.x1.saturating_sub(self.x0) * self.y1.saturating_sub(self.y0)
    }

    /// True when the pixel `(x, y)` lies inside the tile.
    pub fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// Splits a `width` x `height` texture into an `nx` x `ny` grid of tiles
    /// covering every texel exactly once.
    pub fn grid(width: usize, height: usize, nx: usize, ny: usize) -> Vec<PixelTile> {
        assert!(nx > 0 && ny > 0, "tile grid must be non-empty");
        let mut out = Vec::with_capacity(nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                out.push(PixelTile {
                    x0: width * i / nx,
                    y0: height * j / ny,
                    x1: width * (i + 1) / nx,
                    y1: height * (j + 1) / ny,
                });
            }
        }
        out
    }
}

/// Result of a composition: the final texture plus the number of texels that
/// had to be blended or copied (the work the cost model charges as the
/// sequential `c` term).
#[derive(Debug, Clone)]
pub struct ComposeResult {
    /// The composed final texture.
    pub texture: Texture,
    /// Texels processed during composition.
    pub blend_texels: u64,
}

/// How the partial textures map onto the final texture.
#[derive(Debug, Clone)]
enum GatherMode {
    /// Every partial covers the whole target; partials are folded additively
    /// in slot order.
    Additive,
    /// Partial `i` owns the pixel region `tiles[i]` of the target.
    Tiles(Vec<PixelTile>),
}

/// Incremental gather/compose of partial textures.
///
/// Create one with [`StreamingGather::additive`] or
/// [`StreamingGather::tiles`], [`push`](StreamingGather::push) each partial
/// as it becomes available (in any order), and
/// [`finish`](StreamingGather::finish) once every slot has arrived. The scheduler
/// engine drives this from a channel so composition overlaps with
/// still-running process groups; [`gather_additive`] and [`compose_tiles`]
/// are the all-at-once convenience wrappers.
///
/// With [`with_arena`](StreamingGather::with_arena) the gather recycles
/// every partial it consumed through
/// [`push_owned`](StreamingGather::push_owned) back into the pool the moment it has been
/// folded or blitted — the return half of the engine's zero-alloc frame
/// loop.
#[derive(Debug)]
pub struct StreamingGather<'a> {
    mode: GatherMode,
    texture: Texture,
    blend_texels: u64,
    /// Number of slots that must arrive before `finish`.
    expected: usize,
    /// Per-tile arrival flags (tiles mode only; empty for additive).
    tile_seen: Vec<bool>,
    /// Next slot index the additive fold is waiting for.
    next: usize,
    /// Additive partials that arrived ahead of their fold turn.
    parked: BTreeMap<usize, Texture>,
    /// Total slots pushed so far.
    received: usize,
    /// Pool that receives consumed owned partials.
    arena: Option<&'a FrameArena>,
}

impl<'a> StreamingGather<'a> {
    /// Starts an additive gather over `slots` full-coverage partials of the
    /// given size. Slot indices passed to `push` determine the fold order;
    /// `finish` verifies all `slots` arrived.
    pub fn additive(width: usize, height: usize, slots: usize) -> Self {
        StreamingGather::additive_into(Texture::new(width, height), slots)
    }

    /// Like [`StreamingGather::additive`], composing into a caller-supplied
    /// target (e.g. one checked out of a [`FrameArena`]). With at least one
    /// slot the target's prior contents are irrelevant — the first fold is a
    /// wholesale copy — so a dirty pooled texture is fine; with zero slots
    /// `finish` returns the target unchanged.
    pub fn additive_into(target: Texture, slots: usize) -> Self {
        StreamingGather {
            mode: GatherMode::Additive,
            texture: target,
            blend_texels: 0,
            expected: slots,
            tile_seen: Vec::new(),
            next: 0,
            parked: BTreeMap::new(),
            received: 0,
            arena: None,
        }
    }

    /// Starts a tile composition: slot `i` owns the pixel region `tiles[i]`.
    /// Tiles must not overlap; texels not covered by any tile remain zero.
    /// `finish` verifies one partial arrived per tile.
    pub fn tiles(width: usize, height: usize, tiles: Vec<PixelTile>) -> Self {
        StreamingGather::tiles_into(Texture::new(width, height), tiles)
    }

    /// Like [`StreamingGather::tiles`], composing into a caller-supplied
    /// target. The target must be **zeroed** (the [`Texture::new`]
    /// contract): texels not covered by any tile are returned as-is.
    pub fn tiles_into(target: Texture, tiles: Vec<PixelTile>) -> Self {
        let expected = tiles.len();
        StreamingGather {
            mode: GatherMode::Tiles(tiles),
            texture: target,
            blend_texels: 0,
            expected,
            tile_seen: vec![false; expected],
            next: 0,
            parked: BTreeMap::new(),
            received: 0,
            arena: None,
        }
    }

    /// Recycles consumed owned partials into `arena` instead of dropping
    /// them (borrowed partials pushed via [`push`](StreamingGather::push)
    /// are never recycled).
    pub fn with_arena(mut self, arena: &'a FrameArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Feeds the partial texture for `slot`. Tile partials are copied into
    /// place immediately; additive partials are folded as soon as every
    /// lower slot has been folded (early arrivals are parked, and the whole
    /// unlocked run folds in one destination pass).
    ///
    /// # Panics
    /// Panics when the partial's size disagrees with the target, the slot is
    /// out of range (tiles) or pushed twice (additive).
    pub fn push(&mut self, slot: usize, partial: &Texture) {
        if self.needs_parking(slot) {
            self.park(slot, partial.clone());
        } else {
            self.push_ready(slot, partial);
        }
    }

    /// Like [`push`](StreamingGather::push), but taking ownership of the
    /// partial — an out-of-order additive arrival is parked without cloning
    /// it, and a consumed partial's buffer is recycled when an arena is
    /// attached. This is what the scheduler engine calls with the textures
    /// it receives over the gather channel.
    pub fn push_owned(&mut self, slot: usize, partial: Texture) {
        if self.needs_parking(slot) {
            self.park(slot, partial);
            return;
        }
        if matches!(self.mode, GatherMode::Additive) && self.next == 0 {
            // Slot 0's fold is a wholesale copy; owning the partial lets us
            // move it into place instead — zero framebuffer traffic — and
            // retire the previous target to the pool. Values are identical
            // to the copy, and blend_texels accounting is unchanged (the
            // first fold never counted as blending).
            self.validate_size(&partial);
            self.received += 1;
            let retired = std::mem::replace(&mut self.texture, partial);
            if let Some(arena) = self.arena {
                arena.recycle_texture(retired);
            }
            self.next = 1;
            self.drain_parked();
            return;
        }
        self.push_ready(slot, &partial);
        if let Some(arena) = self.arena {
            arena.recycle_texture(partial);
        }
    }

    /// Additive only: folds a run of consecutive ready partials — slots
    /// `next .. next + partials.len()` — in **one destination pass**, as if
    /// each had been pushed in order. This is the all-partials-available
    /// fast path [`gather_additive`] takes: one traversal of the destination
    /// instead of one per partial.
    ///
    /// # Panics
    /// Panics in tiles mode, or when a partial's size disagrees.
    pub fn push_slice(&mut self, partials: &[&Texture]) {
        assert!(
            matches!(self.mode, GatherMode::Additive),
            "push_slice is additive-only"
        );
        if partials.is_empty() {
            return;
        }
        for partial in partials {
            self.validate_size(partial);
        }
        self.received += partials.len();
        self.fold_additive_run(partials);
        self.drain_parked();
    }

    /// True when this is an additive slot whose predecessors have not all
    /// been folded yet.
    fn needs_parking(&self, slot: usize) -> bool {
        matches!(self.mode, GatherMode::Additive) && slot != self.next
    }

    fn validate_size(&self, partial: &Texture) {
        assert_eq!(
            partial.width(),
            self.texture.width(),
            "texture widths differ"
        );
        assert_eq!(
            partial.height(),
            self.texture.height(),
            "texture heights differ"
        );
    }

    fn park(&mut self, slot: usize, partial: Texture) {
        self.validate_size(&partial);
        assert!(
            slot > self.next && !self.parked.contains_key(&slot),
            "additive slot {slot} already folded or duplicated"
        );
        self.received += 1;
        self.parked.insert(slot, partial);
    }

    fn push_ready(&mut self, slot: usize, partial: &Texture) {
        self.validate_size(partial);
        self.received += 1;
        match &self.mode {
            GatherMode::Additive => {
                // Fold the arrival together with the parked run it unlocks
                // in one fused pass when successors are already waiting.
                let run = self.take_parked_run(self.next + 1);
                {
                    let mut sources: Vec<&Texture> = Vec::with_capacity(1 + run.len());
                    sources.push(partial);
                    sources.extend(run.iter());
                    self.fold_additive_run(&sources);
                }
                self.recycle_all(run);
                self.drain_parked();
            }
            GatherMode::Tiles(tiles) => {
                let tile = *tiles.get(slot).expect("tile slot out of range");
                assert!(!self.tile_seen[slot], "tile slot {slot} pushed twice");
                self.tile_seen[slot] = true;
                self.blend_texels += tile.area() as u64;
                blit_tile(&mut self.texture, partial, tile);
            }
        }
    }

    /// Removes and returns the maximal run of parked partials starting at
    /// slot `from`.
    fn take_parked_run(&mut self, from: usize) -> Vec<Texture> {
        let mut run = Vec::new();
        while let Some(parked) = self.parked.remove(&(from + run.len())) {
            run.push(parked);
        }
        run
    }

    /// Folds any parked partials that became ready (only possible after a
    /// fold advanced `next`; in practice `take_parked_run` already drained
    /// them, so this is a correctness backstop, not a hot path).
    fn drain_parked(&mut self) {
        while self.parked.contains_key(&self.next) {
            let run = self.take_parked_run(self.next);
            {
                let sources: Vec<&Texture> = run.iter().collect();
                self.fold_additive_run(&sources);
            }
            self.recycle_all(run);
        }
    }

    fn recycle_all(&self, run: Vec<Texture>) {
        if let Some(arena) = self.arena {
            for texture in run {
                arena.recycle_texture(texture);
            }
        }
    }

    /// Folds `sources` into slots `next .. next + sources.len()` in a single
    /// destination traversal: every chunk of the destination is loaded once
    /// and all sources accumulate into it (in slot order) while it is
    /// cache-hot. Per-texel arithmetic and order match the classic
    /// `p0.clone(); acc += p1; acc += p2; ...` fold exactly, so the result
    /// is bit-identical to folding one partial at a time — the fusion saves
    /// memory traffic, not operations.
    fn fold_additive_run(&mut self, sources: &[&Texture]) {
        if sources.is_empty() {
            return;
        }
        let first_is_copy = self.next == 0;
        let len = self.texture.data().len() as u64;
        let chunk_len = self.texture.width() * COMPOSE_ROW_CHUNK;
        let level = crate::simd::active();
        for (chunk_index, chunk) in self.texture.data_mut().chunks_mut(chunk_len).enumerate() {
            fold_chunk(
                chunk,
                level,
                sources,
                chunk_index * chunk_len,
                first_is_copy,
            );
        }
        self.blend_texels += (sources.len() as u64 - u64::from(first_is_copy)) * len;
        self.next += sources.len();
    }

    /// Number of partials pushed so far.
    pub fn received(&self) -> usize {
        self.received
    }

    /// Completes the composition.
    ///
    /// # Panics
    /// Panics when fewer partials arrived than the gather was constructed
    /// for (a missing trailing slot, an unpushed tile, or a parked
    /// out-of-order slot whose predecessor never came).
    pub fn finish(self) -> ComposeResult {
        assert!(
            self.parked.is_empty(),
            "gather finished with missing slots before {:?}",
            self.parked.keys().next()
        );
        assert_eq!(
            self.received, self.expected,
            "gather finished with {}/{} partials",
            self.received, self.expected
        );
        ComposeResult {
            texture: self.texture,
            blend_texels: self.blend_texels,
        }
    }
}

/// Folds a run of source textures into one destination chunk, specialized
/// per source count: the common fan-ins (a 2–4-pipe machine's partials all
/// ready at once) run as a single fused SIMD loop that reads every source
/// once and writes the destination once, instead of one read-modify-write
/// sweep per source. Per-texel addition order is the sequential fold's
/// left-association — `((p0 + p1) + p2) + …` — in every kernel, so all
/// dispatch levels are bit-identical.
fn fold_chunk(
    chunk: &mut [f32],
    level: crate::simd::SimdLevel,
    sources: &[&Texture],
    start: usize,
    first_is_copy: bool,
) {
    let len = chunk.len();
    let s = |k: usize| -> &[f32] { &sources[k].data()[start..start + len] };
    match (first_is_copy, sources.len()) {
        (_, 0) => {}
        (true, 1) => crate::simd::copy_slice(level, chunk, s(0)),
        (true, 2) => crate::simd::fold_copy(level, chunk, &[s(0), s(1)]),
        (true, 3) => crate::simd::fold_copy(level, chunk, &[s(0), s(1), s(2)]),
        (true, 4) => crate::simd::fold_copy(level, chunk, &[s(0), s(1), s(2), s(3)]),
        (false, 1) => crate::simd::fold_acc(level, chunk, &[s(0)]),
        (false, 2) => crate::simd::fold_acc(level, chunk, &[s(0), s(1)]),
        (false, 3) => crate::simd::fold_acc(level, chunk, &[s(0), s(1), s(2)]),
        (false, 4) => crate::simd::fold_acc(level, chunk, &[s(0), s(1), s(2), s(3)]),
        // Larger fan-ins: fold the leading quads with the fused kernels,
        // then the remainder — still one destination traversal per group of
        // four instead of per source.
        (first, _) => {
            let (head, tail) = sources.split_at(4);
            fold_chunk(chunk, level, head, start, first);
            fold_chunk(chunk, level, tail, start, false);
        }
    }
}

/// Copies `tile`'s pixel region of `partial` into `dst`, row by row.
fn blit_tile(dst: &mut Texture, partial: &Texture, tile: PixelTile) {
    let width = dst.width();
    let x1 = tile.x1.min(width);
    if tile.x0 >= x1 {
        return;
    }
    let y1 = tile.y1.min(dst.height());
    let level = crate::simd::active();
    for y in tile.y0..y1 {
        let row = y * width;
        crate::simd::copy_slice(
            level,
            &mut dst.data_mut()[row + tile.x0..row + x1],
            &partial.data()[row + tile.x0..row + x1],
        );
    }
}

/// Blends partial textures (all covering the full target) by texel-wise
/// addition. The additive blend is order independent, so the result does not
/// depend on the order of `partials` — the property the divide-and-conquer
/// correctness tests verify. All partials are available up front, so the
/// whole set folds in one fused destination pass
/// ([`StreamingGather::push_slice`]).
///
/// # Panics
/// Panics when `partials` is empty or the sizes disagree.
pub fn gather_additive(partials: &[Texture]) -> ComposeResult {
    assert!(!partials.is_empty(), "nothing to gather");
    let mut gather =
        StreamingGather::additive(partials[0].width(), partials[0].height(), partials.len());
    let sources: Vec<&Texture> = partials.iter().collect();
    gather.push_slice(&sources);
    gather.finish()
}

/// Composes per-tile partial textures by copying each tile's pixel region
/// into the final texture. Tiles must not overlap; texels not covered by any
/// tile remain zero.
///
/// # Panics
/// Panics when `partials` is empty, sizes disagree, or tile counts mismatch.
pub fn compose_tiles(partials: &[Texture], tiles: &[PixelTile]) -> ComposeResult {
    assert!(!partials.is_empty(), "nothing to compose");
    assert_eq!(partials.len(), tiles.len(), "one tile per partial texture");
    let mut gather =
        StreamingGather::tiles(partials[0].width(), partials[0].height(), tiles.to_vec());
    for (slot, partial) in partials.iter().enumerate() {
        gather.push(slot, partial);
    }
    gather.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant(w: usize, h: usize, v: f32) -> Texture {
        let mut t = Texture::new(w, h);
        t.fill(v);
        t
    }

    #[test]
    fn gather_sums_partials() {
        let partials = vec![
            constant(8, 8, 0.25),
            constant(8, 8, 0.5),
            constant(8, 8, 1.0),
        ];
        let r = gather_additive(&partials);
        assert!(r.texture.data().iter().all(|&v| (v - 1.75).abs() < 1e-6));
        assert_eq!(r.blend_texels, 2 * 64);
    }

    #[test]
    fn gather_is_order_independent() {
        let a = constant(4, 4, 0.3);
        let b = constant(4, 4, 1.1);
        let c = constant(4, 4, -0.4);
        let fwd = gather_additive(&[a.clone(), b.clone(), c.clone()]);
        let rev = gather_additive(&[c, b, a]);
        assert!(fwd.texture.absolute_difference(&rev.texture) < 1e-5);
    }

    #[test]
    #[should_panic(expected = "nothing to gather")]
    fn gather_rejects_empty_input() {
        let _ = gather_additive(&[]);
    }

    #[test]
    fn streaming_gather_is_arrival_order_invariant_bitwise() {
        // Feed the same partials in forward and scrambled slot order: the
        // in-order fold must make the results bit-identical.
        let partials: Vec<Texture> = (0..5)
            .map(|i| {
                let mut t = Texture::new(16, 16);
                for (k, v) in t.data_mut().iter_mut().enumerate() {
                    *v = ((i * 131 + k) as f32).sin();
                }
                t
            })
            .collect();
        let forward = gather_additive(&partials);
        let mut scrambled = StreamingGather::additive(16, 16, 5);
        for &slot in &[3usize, 0, 4, 1, 2] {
            if slot % 2 == 0 {
                scrambled.push(slot, &partials[slot]);
            } else {
                scrambled.push_owned(slot, partials[slot].clone());
            }
        }
        assert_eq!(scrambled.received(), 5);
        let scrambled = scrambled.finish();
        assert_eq!(forward.texture.absolute_difference(&scrambled.texture), 0.0);
        assert_eq!(forward.blend_texels, scrambled.blend_texels);
    }

    #[test]
    #[should_panic(expected = "missing slots")]
    fn streaming_gather_rejects_missing_additive_slot() {
        let mut g = StreamingGather::additive(4, 4, 2);
        g.push(1, &constant(4, 4, 1.0));
        let _ = g.finish();
    }

    #[test]
    #[should_panic(expected = "2/3 partials")]
    fn streaming_gather_rejects_missing_trailing_slot() {
        let mut g = StreamingGather::additive(4, 4, 3);
        g.push(0, &constant(4, 4, 1.0));
        g.push_owned(1, constant(4, 4, 2.0));
        let _ = g.finish();
    }

    #[test]
    #[should_panic(expected = "pushed twice")]
    fn streaming_gather_rejects_duplicate_tile() {
        let tiles = PixelTile::grid(8, 8, 2, 1);
        let mut g = StreamingGather::tiles(8, 8, tiles);
        g.push(0, &constant(8, 8, 1.0));
        g.push(0, &constant(8, 8, 2.0));
    }

    #[test]
    #[should_panic(expected = "3/4 partials")]
    fn streaming_gather_rejects_missing_tile() {
        let tiles = PixelTile::grid(8, 8, 2, 2);
        let mut g = StreamingGather::tiles(8, 8, tiles);
        for slot in 0..3 {
            g.push(slot, &constant(8, 8, 1.0));
        }
        let _ = g.finish();
    }

    #[test]
    fn streaming_tiles_accept_any_arrival_order() {
        let tiles = PixelTile::grid(8, 8, 2, 2);
        let mut g = StreamingGather::tiles(8, 8, tiles.clone());
        for &slot in &[2usize, 0, 3, 1] {
            let mut p = Texture::new(8, 8);
            p.fill(slot as f32 + 1.0);
            g.push(slot, &p);
        }
        let r = g.finish();
        assert_eq!(r.blend_texels, 64);
        // Each quadrant carries its own tile's value.
        assert_eq!(r.texture.texel(0, 0), 1.0);
        assert_eq!(r.texture.texel(7, 0), 2.0);
        assert_eq!(r.texture.texel(0, 7), 3.0);
        assert_eq!(r.texture.texel(7, 7), 4.0);
    }

    #[test]
    fn tile_grid_partitions_texture_exactly() {
        let tiles = PixelTile::grid(512, 512, 2, 2);
        assert_eq!(tiles.len(), 4);
        let total: usize = tiles.iter().map(|t| t.area()).sum();
        assert_eq!(total, 512 * 512);
        // Every pixel is inside exactly one tile.
        for &(x, y) in &[(0, 0), (255, 255), (256, 256), (511, 511), (100, 400)] {
            let owners = tiles.iter().filter(|t| t.contains(x, y)).count();
            assert_eq!(owners, 1, "pixel ({x},{y}) owned by {owners} tiles");
        }
    }

    #[test]
    fn tile_grid_handles_non_divisible_sizes() {
        let tiles = PixelTile::grid(10, 7, 3, 2);
        let total: usize = tiles.iter().map(|t| t.area()).sum();
        assert_eq!(total, 70);
    }

    #[test]
    fn compose_tiles_copies_each_region() {
        let tiles = PixelTile::grid(8, 8, 2, 1);
        let mut left = Texture::new(8, 8);
        for y in 0..8 {
            for x in 0..4 {
                *left.texel_mut(x, y) = 1.0;
            }
        }
        let mut right = Texture::new(8, 8);
        for y in 0..8 {
            for x in 4..8 {
                *right.texel_mut(x, y) = 2.0;
            }
        }
        let r = compose_tiles(&[left, right], &tiles);
        assert_eq!(r.texture.texel(0, 0), 1.0);
        assert_eq!(r.texture.texel(3, 7), 1.0);
        assert_eq!(r.texture.texel(4, 0), 2.0);
        assert_eq!(r.texture.texel(7, 7), 2.0);
        assert_eq!(r.blend_texels, 64);
    }

    #[test]
    fn compose_tiles_ignores_content_outside_owned_region() {
        let tiles = PixelTile::grid(8, 8, 2, 1);
        // The left-tile texture also has garbage in the right half, which
        // must not leak into the final texture (overlap-boundary spots render
        // into both tiles; each tile only contributes its owned region).
        let mut left = constant(8, 8, 1.0);
        let right = constant(8, 8, 2.0);
        *left.texel_mut(6, 6) = 99.0;
        let r = compose_tiles(&[left, right], &tiles);
        assert_eq!(r.texture.texel(6, 6), 2.0);
    }

    #[test]
    #[should_panic(expected = "one tile per partial texture")]
    fn compose_tiles_rejects_count_mismatch() {
        let tiles = PixelTile::grid(8, 8, 2, 2);
        let _ = compose_tiles(&[constant(8, 8, 1.0)], &tiles);
    }

    #[test]
    fn large_textures_take_the_chunked_path_with_identical_results() {
        // 512² spans sixteen 32-row chunks; verify against a hand
        // sequential fold.
        let partials: Vec<Texture> = (0..3)
            .map(|i| {
                let mut t = Texture::new(512, 512);
                for (k, v) in t.data_mut().iter_mut().enumerate() {
                    *v = ((k % 97) as f32) * 0.01 + i as f32;
                }
                t
            })
            .collect();
        let mut expected = partials[0].clone();
        expected.accumulate(&partials[1]);
        expected.accumulate(&partials[2]);
        let got = gather_additive(&partials);
        assert_eq!(expected.absolute_difference(&got.texture), 0.0);
    }

    /// A 512² partial whose texels differ per slot and span several
    /// magnitudes, so any change in addition order changes the bits.
    fn varied(slot: usize) -> Texture {
        let mut t = Texture::new(512, 512);
        for (k, v) in t.data_mut().iter_mut().enumerate() {
            let scale = [1.0e-3, 1.0, 3.0e2][(k + slot) % 3];
            *v = ((slot * 7919 + k) as f32 * 0.37).sin() * scale;
        }
        t
    }

    fn assert_bits_equal(expected: &Texture, got: &Texture) {
        for (k, (e, g)) in expected.data().iter().zip(got.data()).enumerate() {
            assert_eq!(e.to_bits(), g.to_bits(), "texel {k}: {e} vs {g}");
        }
    }

    #[test]
    fn large_tile_gather_matches_per_texel_oracle() {
        // A 3×3 grid of 512²: tile edges at rows 170 and 341 fall inside
        // 32-row chunks, and columns 170 and 341 split every row.
        let tiles = PixelTile::grid(512, 512, 3, 3);
        let partials: Vec<Texture> = (0..tiles.len()).map(varied).collect();
        let mut gather = StreamingGather::tiles(512, 512, tiles.clone());
        for &slot in &[4usize, 8, 0, 6, 2, 7, 1, 5, 3] {
            gather.push(slot, &partials[slot]);
        }
        let got = gather.finish();
        assert_eq!(got.blend_texels, 512 * 512);
        let mut expected = Texture::new(512, 512);
        for y in 0..512 {
            for x in 0..512 {
                let owner = tiles.iter().position(|t| t.contains(x, y)).unwrap();
                *expected.texel_mut(x, y) = partials[owner].texel(x, y);
            }
        }
        assert_bits_equal(&expected, &got.texture);
    }

    #[test]
    fn large_additive_gather_of_six_matches_sequential_fold() {
        // Six partials take the fused fold's `> 4` split. Slot 0 arrives
        // last, so the whole parked run folds at once: through `push` as a
        // six-source copy fold, through `push_owned` as a move followed by
        // a five-source accumulate.
        let partials: Vec<Texture> = (0..6).map(varied).collect();
        let mut expected = partials[0].clone();
        for partial in &partials[1..] {
            expected.accumulate(partial);
        }
        for owned_first in [false, true] {
            let mut gather = StreamingGather::additive(512, 512, 6);
            for &slot in &[3usize, 5, 1, 4, 2] {
                if slot % 2 == 0 {
                    gather.push(slot, &partials[slot]);
                } else {
                    gather.push_owned(slot, partials[slot].clone());
                }
            }
            if owned_first {
                gather.push_owned(0, partials[0].clone());
            } else {
                gather.push(0, &partials[0]);
            }
            let got = gather.finish();
            assert_eq!(got.blend_texels, 5 * 512 * 512);
            assert_bits_equal(&expected, &got.texture);
        }
    }
}
