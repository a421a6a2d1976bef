//! Graphics pipes: the execution engines of the "generate texture" step.
//!
//! A [`PipeCore`] is the synchronous rasterization engine with an OpenGL-like
//! command interface; a [`GraphicsPipe`] wraps a core in a dedicated worker
//! thread with a command queue, so that — exactly as in the paper's machine
//! model — the work done on a pipe overlaps with the spot-shape computation
//! running on the processors. One master process owns one [`GraphicsPipe`]
//! handle and streams commands into it.

use crate::arena::FrameArena;
use crate::blend::BlendMode;
use crate::bus::{BusTracker, Traffic};
use crate::cost::PipeWork;
use crate::mesh::TexturedMesh;
use crate::raster::{rasterize_quad, RasterStats, Sampler, Vertex};
use crate::state::{SamplingMode, StateChangeStats, StateMachine, TextureId, Transform2};
use crate::texture::{ceil_index, floor_index, FootprintPyramid, Texture};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A command for a graphics pipe. Commands travel in batches: a master
/// collects a spot batch's draws in one vector and hands it to
/// [`GraphicsPipe::submit`] (one FIFO entry) or, when it rasterizes on its
/// own thread, to [`PipeCore::execute_batch`].
#[derive(Debug, Clone)]
pub enum RenderCommand {
    /// Clears the target texture to zero.
    Clear,
    /// Uploads a spot texture into the pipe's texture memory.
    UploadTexture(TextureId, Arc<Texture>),
    /// Installs a pre-built footprint pyramid for a texture id. The
    /// synthesis preamble ships one shared pyramid to every group's pipe in
    /// footprint mode, so the (per-frame) build happens once instead of
    /// once per pipe; pipes without an installed pyramid build their own
    /// lazily on the first footprint-sampled draw.
    UploadPyramid(TextureId, Arc<FootprintPyramid>),
    /// Binds a previously uploaded spot texture.
    BindTexture(TextureId),
    /// Sets the blend mode.
    SetBlend(BlendMode),
    /// Selects how the bound spot texture is sampled (exact bilinear vs
    /// footprint-selected nearest). The synthesis preamble emits this only
    /// for non-default modes, so exact-mode command streams are unchanged.
    SetSampling(SamplingMode),
    /// Loads a transformation matrix (costs a pipe synchronisation; the
    /// reference implementation avoids this by transforming in software).
    LoadTransform(Transform2),
    /// Renders a standard four-vertex spot quad with the given intensity.
    Quad {
        /// The quad's vertices in perimeter order (pixel coordinates).
        vertices: [Vertex; 4],
        /// Spot intensity `aᵢ`.
        intensity: f32,
    },
    /// Renders a bent-spot mesh with the given intensity.
    Mesh {
        /// The textured mesh (pixel coordinates).
        mesh: TexturedMesh,
        /// Spot intensity `aᵢ`.
        intensity: f32,
    },
}

impl RenderCommand {
    /// Number of vertices this command streams over the bus.
    pub fn vertex_count(&self) -> u64 {
        match self {
            RenderCommand::Quad { .. } => 4,
            RenderCommand::Mesh { mesh, .. } => mesh.vertex_count() as u64,
            _ => 0,
        }
    }
}

/// Everything a pipe hands back when it finishes a frame.
#[derive(Debug, Clone)]
pub struct PipeOutput {
    /// The partial texture generated by this pipe.
    pub texture: Texture,
    /// Rasterization counters.
    pub raster: RasterStats,
    /// State machine counters.
    pub state: StateChangeStats,
    /// Texels zeroed by `Clear` commands since the previous `finish`. With
    /// dirty-rect clearing on a retained target this is the touched-row
    /// extent, not the full frame — telemetry only, deliberately excluded
    /// from the bit-identity comparisons.
    pub cleared_texels: u64,
}

impl PipeOutput {
    /// Converts the counters into the cost-model work record.
    pub fn pipe_work(&self) -> PipeWork {
        PipeWork {
            vertices: self.raster.vertices,
            fragments: self.raster.fragments,
            state_changes: self.state.total_changes(),
            blend_texels: 0,
        }
    }
}

/// Half-open range of target rows that may hold nonzero texels — what
/// [`RenderCommand::Clear`] actually has to zero. Rows outside the range are
/// guaranteed zero, so a clear after a frame of small spots touches only the
/// rows those spots covered instead of sweeping the whole framebuffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DirtyRows {
    lo: usize,
    hi: usize,
}

impl DirtyRows {
    const EMPTY: DirtyRows = DirtyRows { lo: 0, hi: 0 };

    fn full(height: usize) -> Self {
        DirtyRows { lo: 0, hi: height }
    }

    fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    fn union(&mut self, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        if self.is_empty() {
            *self = DirtyRows { lo, hi };
        } else {
            self.lo = self.lo.min(lo);
            self.hi = self.hi.max(hi);
        }
    }
}

/// The synchronous rasterization engine behind a graphics pipe.
#[derive(Debug, Clone)]
pub struct PipeCore {
    target: Texture,
    state: StateMachine,
    raster: RasterStats,
    textures: HashMap<TextureId, Arc<Texture>>,
    /// Footprint pyramids, built lazily on the first footprint-sampled draw
    /// per bound texture and cached for the pipe's lifetime (`None` keys the
    /// fallback texture). Invalidated when the texture is re-uploaded.
    pyramids: HashMap<Option<TextureId>, Arc<FootprintPyramid>>,
    fallback: Arc<Texture>,
    /// Buffer pool for partial-readback textures and executed batch vectors;
    /// when absent, `finish` clones and batches are dropped (the classic
    /// allocate-per-frame behaviour).
    arena: Option<Arc<FrameArena>>,
    /// Rows of `target` that may hold nonzero texels. Draws extend it from
    /// their vertex extent; `Clear` zeroes exactly this range. Set to the
    /// full height whenever a buffer of unknown content is installed (the
    /// arena swap in [`PipeCore::finish`]), which is the "fall back to a
    /// full clear" case.
    dirty: DirtyRows,
    /// Total texels zeroed by `Clear` commands (telemetry: the dirty-rect
    /// tests assert this stays below full-frame sweeps on retained targets).
    cleared_texels: u64,
}

impl PipeCore {
    /// Creates a pipe core with a zeroed target texture of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        PipeCore::with_arena(width, height, None)
    }

    /// Creates a pipe core that checks frame buffers out of `arena` — the
    /// initial target included — and recycles them back (executed batch
    /// vectors, the target on drop), so per-frame pipe sessions allocate no
    /// framebuffers once the pool is warm.
    pub fn with_arena(width: usize, height: usize, arena: Option<Arc<FrameArena>>) -> Self {
        // A 1x1 white texture stands in when no spot texture is bound, so
        // rendering without a bind still produces solid spots.
        let mut fallback = Texture::new(1, 1);
        fallback.fill(1.0);
        let target = match &arena {
            Some(arena) => arena.texture_zeroed(width, height),
            None => Texture::new(width, height),
        };
        PipeCore {
            target,
            state: StateMachine::new(),
            raster: RasterStats::default(),
            textures: HashMap::new(),
            pyramids: HashMap::new(),
            fallback: Arc::new(fallback),
            arena,
            // Both construction paths hand over an all-zero target.
            dirty: DirtyRows::EMPTY,
            cleared_texels: 0,
        }
    }

    /// Resets the per-session state — state machine, counters, uploaded
    /// textures and cached pyramids — to what a freshly constructed core
    /// has, while keeping the target buffer (and the knowledge of which of
    /// its rows are dirty). A pooled pipe runs this between checkouts so a
    /// reused worker is indistinguishable from a fresh spawn: same texels
    /// *and* same state-change accounting.
    pub(crate) fn reset_session(&mut self) {
        self.state = StateMachine::new();
        self.raster = RasterStats::default();
        self.textures.clear();
        self.pyramids.clear();
    }

    /// Records that a draw of `vertices` may touch rows `[min_y, max_y]`,
    /// their vertical extent (pixel coordinates, unclamped). Padded by one
    /// row on each side so exact pixel-centre coverage rules can never
    /// out-run the recorded extent.
    fn mark_dirty(&mut self, vertices: &[Vertex]) {
        let (min_y, max_y) = vertices.iter().fold((f64::MAX, f64::MIN), |(lo, hi), v| {
            (lo.min(v.position.y), hi.max(v.position.y))
        });
        if !min_y.is_finite() || !max_y.is_finite() {
            self.dirty = DirtyRows::full(self.target.height());
            return;
        }
        // Rows `floor(min_y) - 1` to `ceil(max_y) + 2`, clamped to
        // `[0, height]`. The index helpers clamp at zero, so the padding is
        // applied in integers, and `ceil(max_y) + 2` is spelled out for the
        // spans that end above row 0.
        let height = self.target.height();
        let lo = floor_index(min_y).saturating_sub(1);
        let hi = if max_y > -1.0 {
            ceil_index(max_y.min(height as f64)) + 2
        } else {
            usize::from(max_y > -2.0)
        };
        self.dirty.union(lo, hi.min(height));
    }

    /// Zeroes the rows recorded as dirty (a full sweep when a buffer of
    /// unknown content was installed) — the dirty-rect form of `Clear`.
    fn clear_target(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let width = self.target.width();
        let (lo, hi) = (self.dirty.lo, self.dirty.hi);
        self.target.data_mut()[lo * width..hi * width].fill(0.0);
        self.cleared_texels += ((hi - lo) * width) as u64;
        self.dirty = DirtyRows::EMPTY;
    }

    /// Executes one command against the target texture.
    pub fn execute(&mut self, cmd: RenderCommand) {
        match cmd {
            RenderCommand::Clear => self.clear_target(),
            RenderCommand::UploadTexture(id, tex) => {
                self.textures.insert(id, tex);
                // A re-upload invalidates any pyramid built over the old
                // texels.
                self.pyramids.remove(&Some(id));
            }
            RenderCommand::UploadPyramid(id, pyramid) => {
                self.pyramids.insert(Some(id), pyramid);
            }
            RenderCommand::BindTexture(id) => self.state.bind_texture(id),
            RenderCommand::SetBlend(mode) => self.state.set_blend(mode),
            RenderCommand::SetSampling(mode) => self.state.set_sampling(mode),
            RenderCommand::LoadTransform(t) => self.state.load_transform(t),
            RenderCommand::Quad {
                vertices,
                intensity,
            } => {
                let blend = self.state.blend();
                let vertices = self.transformed_quad(vertices);
                self.mark_dirty(&vertices);
                self.draw(|target, sampler, stats| {
                    rasterize_quad(target, sampler, vertices, intensity, blend, stats)
                });
            }
            RenderCommand::Mesh { mesh, intensity } => {
                let blend = self.state.blend();
                let mesh = self.transformed_mesh(mesh);
                self.mark_dirty(mesh.vertices());
                self.draw(|target, sampler, stats| {
                    mesh.rasterize(target, sampler, intensity, blend, stats)
                });
            }
        }
    }

    /// Executes a batch of commands in order, then hands the drained
    /// vector's allocation back to the arena (when there is one) for the
    /// next batch a master assembles.
    pub fn execute_batch(&mut self, mut cmds: Vec<RenderCommand>) {
        for cmd in cmds.drain(..) {
            self.execute(cmd);
        }
        if let Some(arena) = &self.arena {
            arena.recycle_commands(cmds);
        }
    }

    /// Runs one draw against the target with the bound texture, sampled in
    /// the current sampling mode: the spot texture itself, or its
    /// footprint pyramid.
    fn draw(&mut self, draw: impl FnOnce(&mut Texture, Sampler<'_>, &mut RasterStats)) {
        let (spot, pyramid);
        let sampler = match self.state.sampling() {
            SamplingMode::Exact => {
                spot = self.bound_texture();
                Sampler::Exact(&spot)
            }
            SamplingMode::Footprint => {
                pyramid = self.bound_pyramid();
                Sampler::Footprint(&pyramid)
            }
        };
        draw(&mut self.target, sampler, &mut self.raster);
    }

    fn bound_texture(&self) -> Arc<Texture> {
        self.state
            .bound_texture()
            .and_then(|id| self.textures.get(&id).cloned())
            .unwrap_or_else(|| self.fallback.clone())
    }

    /// The footprint pyramid of the currently bound texture, built on first
    /// use and cached per texture id.
    fn bound_pyramid(&mut self) -> Arc<FootprintPyramid> {
        let key = self.state.bound_texture();
        if let Some(pyramid) = self.pyramids.get(&key) {
            return Arc::clone(pyramid);
        }
        let base = self.bound_texture();
        let pyramid = Arc::new(FootprintPyramid::build(base));
        self.pyramids.insert(key, Arc::clone(&pyramid));
        pyramid
    }

    fn transformed_quad(&self, mut quad: [Vertex; 4]) -> [Vertex; 4] {
        let t = self.state.transform();
        if t == Transform2::IDENTITY {
            return quad;
        }
        for v in &mut quad {
            v.position = t.apply(v.position);
        }
        quad
    }

    fn transformed_mesh(&self, mesh: TexturedMesh) -> TexturedMesh {
        let t = self.state.transform();
        if t == Transform2::IDENTITY {
            return mesh;
        }
        let rows = mesh.rows();
        let cols = mesh.cols();
        let vertices = mesh
            .vertices()
            .iter()
            .map(|v| Vertex {
                position: t.apply(v.position),
                uv: v.uv,
            })
            .collect();
        TexturedMesh::new(rows, cols, vertices)
    }

    /// Finishes the frame, returning the texture and the counters, and
    /// resets the counters for the next frame.
    ///
    /// Without an arena the returned partial is a clone and the target keeps
    /// its content (the classic contract). With an arena attached the target
    /// is **moved out** and a recycled buffer with *unspecified contents* is
    /// installed in its place — no framebuffer-sized copy at all. Arena
    /// callers (the scheduler engine's sessions) always `Clear` before
    /// rendering the next work unit, so the unspecified post-finish target
    /// is never observable.
    pub fn finish(&mut self) -> PipeOutput {
        let texture = match &self.arena {
            Some(arena) => {
                let mut replacement =
                    arena.texture_uninit(self.target.width(), self.target.height());
                std::mem::swap(&mut self.target, &mut replacement);
                // The installed buffer's content is unspecified, so the next
                // Clear must sweep it fully.
                self.dirty = DirtyRows::full(self.target.height());
                replacement
            }
            // Without an arena the target keeps its content (a clone goes
            // out), so the dirty range stays valid: the next Clear on a
            // retained target zeroes only the rows this frame touched.
            None => self.target.clone(),
        };
        let out = PipeOutput {
            texture,
            raster: self.raster,
            state: self.state.stats(),
            cleared_texels: self.cleared_texels,
        };
        self.raster = RasterStats::default();
        self.state.reset_stats();
        self.cleared_texels = 0;
        out
    }

    /// Read-only access to the current target texture.
    pub fn target(&self) -> &Texture {
        &self.target
    }
}

impl Drop for PipeCore {
    /// Returns the target buffer to the arena so the next frame's pipe
    /// session reuses it — per-frame sessions would otherwise drop one warm
    /// framebuffer per teardown.
    fn drop(&mut self) {
        if let Some(arena) = self.arena.take() {
            arena.recycle_texture(std::mem::replace(&mut self.target, Texture::new(1, 1)));
        }
    }
}

enum PipeMessage {
    Batch(Vec<RenderCommand>),
    Finish(SyncSender<PipeOutput>),
    /// Resets the worker's per-session state (see
    /// [`PipeCore::reset_session`]); queued in FIFO order like any batch,
    /// so a pool can send it at checkout without waiting.
    ResetSession,
}

/// Depth of a pipe's FIFO, in messages. Each submitted batch is one
/// message, so this bounds the in-flight work to `PIPE_FIFO_DEPTH` batches:
/// deep enough that a master streaming batch-sized chunks never stalls
/// behind a healthy pipe, shallow enough that a slow pipe exerts
/// back-pressure instead of buffering a whole frame.
pub(crate) const PIPE_FIFO_DEPTH: usize = 256;

/// What [`GraphicsPipe::submit`] and [`GraphicsPipe::finish`] panic with
/// once a message has panicked on the pipe's worker.
const POISONED: &str = "graphics pipe poisoned: a render command panicked mid-frame";

/// A graphics pipe running on its own worker thread.
///
/// Command batches are queued through a bounded channel (the pipe FIFO,
/// sized by `PIPE_FIFO_DEPTH`); `finish` flushes the queue and returns the
/// completed partial texture.
pub struct GraphicsPipe {
    sender: SyncSender<PipeMessage>,
    worker: Option<JoinHandle<()>>,
    bus: Option<BusTracker>,
    /// Set by the worker when a message panics on it. A poisoned pipe keeps
    /// its thread alive (so drops still join cleanly) but its core state is
    /// suspect: `finish` raises, and a pool must discard it instead of
    /// shelving it for reuse.
    poisoned: Arc<AtomicBool>,
}

impl GraphicsPipe {
    /// Spawns a pipe worker with a target texture of the given size. When a
    /// `bus` tracker is supplied, vertex traffic is recorded on submission.
    /// An `arena` gives the worker pooled buffers for partial readbacks and
    /// executed batch vectors — the zero-alloc steady-state configuration of
    /// the scheduler engine.
    pub fn spawn(
        width: usize,
        height: usize,
        bus: Option<BusTracker>,
        arena: Option<Arc<FrameArena>>,
    ) -> Self {
        let (sender, receiver) = sync_channel::<PipeMessage>(PIPE_FIFO_DEPTH);
        let poisoned = Arc::new(AtomicBool::new(false));
        let worker_poisoned = Arc::clone(&poisoned);
        let worker = std::thread::Builder::new()
            .name("graphics-pipe".to_string())
            .spawn(move || {
                let mut core = PipeCore::with_arena(width, height, arena);
                while let Ok(msg) = receiver.recv() {
                    // A panic (real, or injected at the "raster" fault site)
                    // must not abort the process. It poisons the pipe: the
                    // core is left alone from then on, and the worker keeps
                    // draining so the master never blocks on the FIFO. A
                    // Finish dropped unanswered wakes the master with a recv
                    // error instead of a half-built frame.
                    if worker_poisoned.load(Ordering::Relaxed) {
                        continue;
                    }
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| match msg {
                        PipeMessage::Batch(cmds) => {
                            crate::fault::fire("raster");
                            core.execute_batch(cmds);
                        }
                        PipeMessage::Finish(reply) => {
                            let _ = reply.send(core.finish());
                        }
                        PipeMessage::ResetSession => core.reset_session(),
                    }));
                    if outcome.is_err() {
                        worker_poisoned.store(true, Ordering::Release);
                    }
                }
            })
            .expect("failed to spawn graphics pipe thread");
        GraphicsPipe {
            sender,
            worker: Some(worker),
            bus,
            poisoned,
        }
    }

    /// Whether a message panicked on the worker since spawn. A poisoned
    /// pipe's target/state are suspect; pools discard it and respawn.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Replaces the bus tracker vertex/texture traffic is recorded on.
    /// Recording happens on the submitting side, so a pooled pipe can serve
    /// a different engine run (with its own tracker) each checkout.
    pub(crate) fn set_bus(&mut self, bus: Option<BusTracker>) {
        self.bus = bus;
    }

    /// Queues a reset of the worker's per-session state (state machine,
    /// counters, uploaded textures, cached pyramids) — what a pool runs
    /// between checkouts so a reused pipe behaves exactly like a fresh
    /// spawn. FIFO-ordered with batches; no round-trip.
    pub(crate) fn reset_session(&self) {
        self.send(PipeMessage::ResetSession);
    }

    /// Queues a batch of commands as one FIFO entry, to run in order,
    /// blocking only when the FIFO is full (back-pressure from a saturated
    /// pipe). The batch's vertices are recorded on the bus. An empty batch
    /// is a no-op.
    ///
    /// # Panics
    /// Panics when the pipe is poisoned: its worker drops every later
    /// message, so the master stops building the frame instead of queueing
    /// the rest of it for nothing.
    pub fn submit(&self, cmds: Vec<RenderCommand>) {
        if cmds.is_empty() {
            return;
        }
        if self.is_poisoned() {
            panic!("{POISONED}");
        }
        if let Some(bus) = &self.bus {
            let vertices: u64 = cmds.iter().map(RenderCommand::vertex_count).sum();
            if vertices > 0 {
                bus.record(Traffic::Vertices, vertices * 16);
            }
        }
        self.send(PipeMessage::Batch(cmds));
    }

    fn send(&self, msg: PipeMessage) {
        self.sender
            .send(msg)
            .expect("graphics pipe worker terminated unexpectedly");
    }

    /// Flushes the queue and returns the frame output. The pipe stays usable
    /// for further frames afterwards.
    pub fn finish(&self) -> PipeOutput {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.send(PipeMessage::Finish(reply_tx));
        let Ok(out) = reply_rx.recv() else {
            // The worker answers every Finish unless a message panicked
            // before it (FIFO order), so a dropped reply means poison.
            // Raise a contained panic: the frame job's `catch_unwind`
            // turns it into a 500 + session quarantine, and the pool
            // discards this pipe at check-in instead of shelving it.
            panic!("{POISONED}");
        };
        if let Some(bus) = &self.bus {
            bus.record(Traffic::Textures, out.texture.byte_size() as u64);
        }
        out
    }
}

impl Drop for GraphicsPipe {
    fn drop(&mut self) {
        // Closing the channel lets the worker's recv loop end.
        let (sender, _) = sync_channel(0);
        drop(std::mem::replace(&mut self.sender, sender));
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::rectangle_mesh;
    use crate::raster::axis_aligned_spot_quad;
    use crate::texture::disc_spot_texture;
    use flowfield::Vec2;

    #[test]
    fn core_clear_and_quad_render() {
        let mut core = PipeCore::new(64, 64);
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 8.0),
            intensity: 1.0,
        });
        assert!(core.target().texel(32, 32) > 0.9);
        core.execute(RenderCommand::Clear);
        assert_eq!(core.target().texel(32, 32), 0.0);
    }

    #[test]
    fn core_uses_bound_spot_texture() {
        let mut core = PipeCore::new(64, 64);
        core.execute(RenderCommand::UploadTexture(
            1,
            Arc::new(disc_spot_texture(32, 0.5)),
        ));
        core.execute(RenderCommand::BindTexture(1));
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 10.0),
            intensity: 1.0,
        });
        // Disc texture: bright centre, dark quad corners.
        assert!(core.target().texel(32, 32) > 0.8);
        assert!(core.target().texel(24, 24) < 0.5);
    }

    #[test]
    fn core_applies_loaded_transform() {
        let mut core = PipeCore::new(64, 64);
        core.execute(RenderCommand::LoadTransform(Transform2::new(
            flowfield::Mat2::IDENTITY,
            Vec2::new(20.0, 0.0),
        )));
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(10.0, 32.0), 4.0),
            intensity: 1.0,
        });
        // The quad was translated to x ~ 30.
        assert!(core.target().texel(30, 32) > 0.9);
        assert_eq!(core.target().texel(10, 32), 0.0);
        let out = core.finish();
        assert_eq!(out.state.matrix_loads, 1);
    }

    #[test]
    fn finish_resets_counters_but_keeps_texture_content() {
        let mut core = PipeCore::new(32, 32);
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0),
            intensity: 1.0,
        });
        let first = core.finish();
        assert!(first.raster.fragments > 0);
        let second = core.finish();
        assert_eq!(second.raster.fragments, 0);
        // The target still holds the rendered quad (no implicit clear).
        assert!(second.texture.texel(16, 16) > 0.9);
    }

    #[test]
    fn pipe_output_converts_to_pipe_work() {
        let mut core = PipeCore::new(32, 32);
        core.execute(RenderCommand::SetBlend(BlendMode::Max));
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0),
            intensity: 1.0,
        });
        let out = core.finish();
        let work = out.pipe_work();
        assert_eq!(work.vertices, out.raster.vertices);
        assert_eq!(work.fragments, out.raster.fragments);
        assert_eq!(work.state_changes, 1);
    }

    #[test]
    fn threaded_pipe_matches_synchronous_core() {
        let spot = Arc::new(disc_spot_texture(16, 0.4));
        let commands = |n: usize| -> Vec<RenderCommand> {
            let mut cmds = vec![
                RenderCommand::Clear,
                RenderCommand::UploadTexture(1, spot.clone()),
                RenderCommand::BindTexture(1),
            ];
            for k in 0..n {
                cmds.push(RenderCommand::Quad {
                    vertices: axis_aligned_spot_quad(
                        Vec2::new(8.0 + 3.0 * k as f64, 16.0 + (k % 5) as f64),
                        5.0,
                    ),
                    intensity: if k % 2 == 0 { 0.5 } else { -0.5 },
                });
            }
            cmds
        };

        let mut core = PipeCore::new(64, 64);
        for cmd in commands(12) {
            core.execute(cmd);
        }
        let reference = core.finish();

        let pipe = GraphicsPipe::spawn(64, 64, None, None);
        for cmd in commands(12) {
            pipe.submit(vec![cmd]);
        }
        let threaded = pipe.finish();

        assert_eq!(
            reference.texture.absolute_difference(&threaded.texture),
            0.0
        );
        assert_eq!(reference.raster, threaded.raster);
    }

    #[test]
    fn threaded_pipe_records_bus_traffic() {
        let bus = BusTracker::new();
        let pipe = GraphicsPipe::spawn(32, 32, Some(bus.clone()), None);
        pipe.submit(vec![RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0),
            intensity: 1.0,
        }]);
        pipe.submit(vec![RenderCommand::Mesh {
            mesh: rectangle_mesh(4, 3, 0.0, 0.0, 16.0, 16.0),
            intensity: 1.0,
        }]);
        let _ = pipe.finish();
        let stats = bus.snapshot();
        // 4 + 12 vertices at 16 bytes each.
        assert_eq!(stats.vertex_bytes, (4 + 12) * 16);
        // The finished partial texture was read back over the bus.
        assert_eq!(stats.texture_bytes, 32 * 32 * 4);
    }

    #[test]
    fn batched_submission_matches_sequential_and_records_bus_traffic() {
        let spot = Arc::new(disc_spot_texture(16, 0.4));
        let quads: Vec<RenderCommand> = (0..20)
            .map(|k| RenderCommand::Quad {
                vertices: axis_aligned_spot_quad(
                    Vec2::new(6.0 + 2.5 * k as f64, 20.0 + (k % 7) as f64),
                    4.0,
                ),
                intensity: if k % 2 == 0 { 0.75 } else { -0.25 },
            })
            .collect();

        let mut core = PipeCore::new(64, 64);
        core.execute(RenderCommand::UploadTexture(1, spot.clone()));
        core.execute(RenderCommand::BindTexture(1));
        for cmd in quads.clone() {
            core.execute(cmd);
        }
        let sequential = core.finish();

        let bus = BusTracker::new();
        let pipe = GraphicsPipe::spawn(64, 64, Some(bus.clone()), None);
        pipe.submit(vec![
            RenderCommand::UploadTexture(1, spot.clone()),
            RenderCommand::BindTexture(1),
        ]);
        pipe.submit(quads);
        let batched = pipe.finish();

        assert_eq!(
            sequential.texture.absolute_difference(&batched.texture),
            0.0
        );
        assert_eq!(sequential.raster, batched.raster);
        // 20 quads at 4 vertices x 16 bytes each, in one batch transfer.
        assert_eq!(bus.snapshot().vertex_bytes, 20 * 4 * 16);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let bus = BusTracker::new();
        let pipe = GraphicsPipe::spawn(16, 16, Some(bus.clone()), None);
        pipe.submit(Vec::new());
        let out = pipe.finish();
        assert_eq!(out.raster.fragments, 0);
        assert_eq!(bus.snapshot().vertex_bytes, 0);
    }

    #[test]
    fn arena_backed_core_checks_out_and_returns_its_target() {
        let arena = Arc::new(FrameArena::new());
        {
            let mut core = PipeCore::with_arena(16, 16, Some(Arc::clone(&arena)));
            core.execute(RenderCommand::Quad {
                vertices: axis_aligned_spot_quad(Vec2::new(8.0, 8.0), 3.0),
                intensity: 1.0,
            });
            // finish() moves the target out (no copy) and installs a pooled
            // replacement; the moved-out partial carries the rendered frame.
            let out = core.finish();
            assert!(out.texture.texel(8, 8) > 0.9);
            arena.recycle_texture(out.texture);
        }
        // Initial target + finish replacement both came from / returned to
        // the pool: a second core allocates nothing new.
        let allocations_after_first = arena.stats().texture_allocations;
        {
            let mut core = PipeCore::with_arena(16, 16, Some(Arc::clone(&arena)));
            // The recycled target arrives zeroed, per the PipeCore contract.
            assert!(core.target().data().iter().all(|&v| v == 0.0));
            let _ = core.finish();
        }
        let stats = arena.stats();
        assert_eq!(
            stats.texture_allocations, allocations_after_first,
            "second arena-backed core should run entirely on pooled buffers: {stats:?}"
        );
        assert!(stats.texture_reuses > 0);
    }

    #[test]
    fn uploaded_pyramid_is_used_instead_of_a_lazy_rebuild() {
        // Install a pyramid built over a DIFFERENT texture than the bound
        // one: if the pipe used the upload, footprint draws sample the
        // installed pyramid's texels; a lazy rebuild would sample the bound
        // texture instead.
        let mut bright = Texture::new(8, 8);
        bright.fill(1.0);
        let mut dark = Texture::new(8, 8);
        dark.fill(0.25);
        let mut core = PipeCore::new(32, 32);
        core.execute(RenderCommand::UploadTexture(1, Arc::new(bright)));
        core.execute(RenderCommand::BindTexture(1));
        core.execute(RenderCommand::UploadPyramid(
            1,
            Arc::new(crate::texture::FootprintPyramid::build(Arc::new(dark))),
        ));
        core.execute(RenderCommand::SetSampling(SamplingMode::Footprint));
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0),
            intensity: 1.0,
        });
        assert!(
            (core.target().texel(16, 16) - 0.25).abs() < 1e-6,
            "footprint draw ignored the uploaded pyramid: {}",
            core.target().texel(16, 16)
        );
        // Re-uploading the texture invalidates the installed pyramid; the
        // lazy rebuild then samples the fresh texels.
        let mut fresh = Texture::new(8, 8);
        fresh.fill(0.75);
        core.execute(RenderCommand::UploadTexture(1, Arc::new(fresh)));
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0),
            intensity: 1.0,
        });
        assert!((core.target().texel(16, 16) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clear_is_dirty_rect_on_a_retained_target() {
        let mut core = PipeCore::new(64, 64);
        // A fresh target is all-zero: the first Clear has nothing to do.
        core.execute(RenderCommand::Clear);
        assert_eq!(core.cleared_texels(), 0);
        // One small spot dirties only its rows; the next Clear sweeps those
        // rows (plus the safety padding), not the full frame.
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(32.0, 32.0), 4.0),
            intensity: 1.0,
        });
        core.execute(RenderCommand::Clear);
        let cleared = core.cleared_texels();
        assert!(cleared > 0 && cleared < 64 * 64, "cleared {cleared} texels");
        assert!(core.target().data().iter().all(|&v| v == 0.0));
        // The dirty range survives a (cloning, no-arena) finish: the next
        // frame's Clear on the retained target stays partial.
        core.execute(RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 48.0), 4.0),
            intensity: 1.0,
        });
        let out = core.finish();
        assert!(out.cleared_texels > 0 && out.cleared_texels < 64 * 64);
        core.execute(RenderCommand::Clear);
        let out = core.finish();
        assert!(
            out.cleared_texels < 64 * 64,
            "full sweep on retained target"
        );
        assert!(out.texture.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn arena_swapped_target_falls_back_to_a_full_clear() {
        let arena = Arc::new(FrameArena::new());
        // Poison a pooled buffer so a wrong partial clear is observable.
        let mut poisoned = Texture::new(16, 16);
        poisoned.fill(7.0);
        arena.recycle_texture(poisoned);
        let mut core = PipeCore::with_arena(16, 16, Some(Arc::clone(&arena)));
        // finish installs the poisoned recycled buffer (unspecified content).
        let _ = core.finish();
        core.execute(RenderCommand::Clear);
        let out = core.finish();
        assert_eq!(out.cleared_texels, 16 * 16, "must sweep unknown buffers");
        assert!(out.texture.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reset_session_restores_fresh_spawn_semantics() {
        let spot = Arc::new(disc_spot_texture(16, 0.4));
        let run = |core: &mut PipeCore| {
            core.execute(RenderCommand::Clear);
            core.execute(RenderCommand::UploadTexture(1, spot.clone()));
            core.execute(RenderCommand::BindTexture(1));
            core.execute(RenderCommand::SetBlend(BlendMode::Additive));
            core.execute(RenderCommand::LoadTransform(Transform2::new(
                flowfield::Mat2::IDENTITY,
                Vec2::new(4.0, 0.0),
            )));
            core.execute(RenderCommand::Quad {
                vertices: axis_aligned_spot_quad(Vec2::new(20.0, 20.0), 6.0),
                intensity: 1.0,
            });
            core.finish()
        };
        let mut fresh = PipeCore::new(48, 48);
        let expected = run(&mut fresh);

        let mut reused = PipeCore::new(48, 48);
        let _ = run(&mut reused);
        reused.reset_session();
        let again = run(&mut reused);
        // Bit-identical texels AND identical state-change accounting: the
        // second session must not inherit the first's bound texture, blend
        // mode, transform or redundant-filter history.
        assert_eq!(expected.texture.absolute_difference(&again.texture), 0.0);
        assert_eq!(expected.state, again.state);
        assert_eq!(expected.raster, again.raster);
    }

    #[test]
    fn pipe_supports_multiple_frames() {
        let pipe = GraphicsPipe::spawn(32, 32, None, None);
        pipe.submit(vec![RenderCommand::Quad {
            vertices: axis_aligned_spot_quad(Vec2::new(16.0, 16.0), 4.0),
            intensity: 1.0,
        }]);
        let first = pipe.finish();
        pipe.submit(vec![
            RenderCommand::Clear,
            RenderCommand::Quad {
                vertices: axis_aligned_spot_quad(Vec2::new(8.0, 8.0), 4.0),
                intensity: 2.0,
            },
        ]);
        let second = pipe.finish();
        assert!(first.texture.texel(16, 16) > 0.9);
        assert!(second.texture.texel(8, 8) > 1.9);
        assert_eq!(second.texture.texel(16, 16), 0.0);
    }

    impl PipeCore {
        /// Texels zeroed by `Clear` commands since the previous `finish`. With
        /// dirty-rect clearing this grows by the touched-row extent per clear,
        /// not by the full frame.
        fn cleared_texels(&self) -> u64 {
            self.cleared_texels
        }
    }
}
