//! OpenGL-like state machine for a graphics pipe.
//!
//! The paper models each graphics pipe as "an OpenGL state machine which can
//! be set and queried through the OpenGL API". Setting state (most notably a
//! transformation matrix) forces synchronisation inside the pipe — on the
//! InfiniteReality the four geometry processors must be synchronised on every
//! matrix load — which is why the authors moved spot transformation to the
//! CPUs. The state machine here tracks the current state, detects redundant
//! changes, and counts the changes so the cost model can charge the
//! synchronisation penalty.

use crate::blend::BlendMode;
use flowfield::{Mat2, Vec2};

/// Identifier of a texture object bound to the pipe.
pub(crate) type TextureId = u32;

/// How the bound spot texture is sampled when shading fragments.
///
/// `Exact` is the classic per-fragment bilinear filter — the mode every
/// result in the repository was produced with, and the default. `Footprint`
/// trades exactness for throughput on sampling-bound geometry (bent-spot
/// meshes): fragments nearest-sample a small prefiltered pyramid level
/// chosen per triangle from the uv extent, replacing the four-tap bilinear
/// kernel with a single fetch. Spot statistics survive this coarsening (the
/// speckle-measurement literature's license), which the quality metrics
/// gate; callers that need bit-exact output keep `Exact`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Per-fragment bilinear sampling of the base texture (bit-exact mode).
    #[default]
    Exact,
    /// Nearest sampling of a footprint-selected prefiltered pyramid level.
    Footprint,
}

/// Counters of state-machine transitions, the input of the state-change
/// overhead term in the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateChangeStats {
    /// Number of blend-mode changes applied.
    pub blend_changes: u64,
    /// Number of texture binds applied.
    pub texture_binds: u64,
    /// Number of transformation-matrix loads applied.
    pub matrix_loads: u64,
    /// Number of sampling-mode changes applied.
    pub sampling_changes: u64,
    /// Number of redundant state calls that were filtered out.
    pub redundant_filtered: u64,
}

impl StateChangeStats {
    /// Total state changes that actually hit the pipe (and therefore cost a
    /// synchronisation).
    pub fn total_changes(&self) -> u64 {
        self.blend_changes + self.texture_binds + self.matrix_loads + self.sampling_changes
    }

    /// Accumulates the counters of another stats block.
    pub fn merge(&mut self, other: &StateChangeStats) {
        self.blend_changes += other.blend_changes;
        self.texture_binds += other.texture_binds;
        self.matrix_loads += other.matrix_loads;
        self.sampling_changes += other.sampling_changes;
        self.redundant_filtered += other.redundant_filtered;
    }
}

/// An affine 2-D transform (linear part + translation) as loaded into the
/// pipe's "model-view matrix".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transform2 {
    /// Linear part (rotation, scaling, shear).
    pub linear: Mat2,
    /// Translation applied after the linear part.
    pub translation: Vec2,
}

impl Transform2 {
    /// The identity transform.
    pub const IDENTITY: Transform2 = Transform2 {
        linear: Mat2::IDENTITY,
        translation: Vec2::ZERO,
    };

    /// Creates a transform from its parts.
    pub fn new(linear: Mat2, translation: Vec2) -> Self {
        Transform2 {
            linear,
            translation,
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Vec2) -> Vec2 {
        self.linear.apply(p) + self.translation
    }
}

impl Default for Transform2 {
    fn default() -> Self {
        Transform2::IDENTITY
    }
}

/// The mutable OpenGL-like state of one graphics pipe.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StateMachine {
    blend: BlendMode,
    bound_texture: Option<TextureId>,
    transform: Transform2,
    sampling: SamplingMode,
    stats: StateChangeStats,
}

impl StateMachine {
    /// Creates a state machine in the default state (additive blending, no
    /// texture bound, identity transform, exact sampling).
    pub(crate) fn new() -> Self {
        StateMachine {
            blend: BlendMode::Additive,
            bound_texture: None,
            transform: Transform2::IDENTITY,
            sampling: SamplingMode::Exact,
            stats: StateChangeStats::default(),
        }
    }

    /// Current blend mode.
    pub(crate) fn blend(&self) -> BlendMode {
        self.blend
    }

    /// Current sampling mode.
    pub(crate) fn sampling(&self) -> SamplingMode {
        self.sampling
    }

    /// Currently bound texture, if any.
    pub(crate) fn bound_texture(&self) -> Option<TextureId> {
        self.bound_texture
    }

    /// Current transform.
    pub(crate) fn transform(&self) -> Transform2 {
        self.transform
    }

    /// Accumulated state-change statistics.
    pub(crate) fn stats(&self) -> StateChangeStats {
        self.stats
    }

    /// Resets the statistics counters (e.g. at the start of a frame).
    pub(crate) fn reset_stats(&mut self) {
        self.stats = StateChangeStats::default();
    }

    /// Sets the blend mode; redundant calls are filtered and do not count as
    /// a state change.
    pub(crate) fn set_blend(&mut self, blend: BlendMode) {
        if self.blend == blend {
            self.stats.redundant_filtered += 1;
        } else {
            self.blend = blend;
            self.stats.blend_changes += 1;
        }
    }

    /// Sets the sampling mode; redundant calls are filtered and do not count
    /// as a state change.
    pub(crate) fn set_sampling(&mut self, sampling: SamplingMode) {
        if self.sampling == sampling {
            self.stats.redundant_filtered += 1;
        } else {
            self.sampling = sampling;
            self.stats.sampling_changes += 1;
        }
    }

    /// Binds a spot texture; redundant binds are filtered.
    pub(crate) fn bind_texture(&mut self, id: TextureId) {
        if self.bound_texture == Some(id) {
            self.stats.redundant_filtered += 1;
        } else {
            self.bound_texture = Some(id);
            self.stats.texture_binds += 1;
        }
    }

    /// Loads a transformation matrix; redundant loads are filtered. Every
    /// non-redundant load costs a pipe synchronisation in the cost model,
    /// which is why the reference implementation performs spot
    /// transformations in software instead.
    pub(crate) fn load_transform(&mut self, t: Transform2) {
        if self.transform == t {
            self.stats.redundant_filtered += 1;
        } else {
            self.transform = t;
            self.stats.matrix_loads += 1;
        }
    }
}

impl Default for StateMachine {
    fn default() -> Self {
        StateMachine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blend::AlphaFactor;

    #[test]
    fn default_state() {
        let s = StateMachine::new();
        assert_eq!(s.blend(), BlendMode::Additive);
        assert_eq!(s.bound_texture(), None);
        assert_eq!(s.transform(), Transform2::IDENTITY);
        assert_eq!(s.stats().total_changes(), 0);
    }

    #[test]
    fn redundant_blend_changes_are_filtered() {
        let mut s = StateMachine::new();
        s.set_blend(BlendMode::Additive); // same as default
        assert_eq!(s.stats().blend_changes, 0);
        assert_eq!(s.stats().redundant_filtered, 1);
        s.set_blend(BlendMode::Max);
        assert_eq!(s.stats().blend_changes, 1);
        s.set_blend(BlendMode::Max);
        assert_eq!(s.stats().blend_changes, 1);
        assert_eq!(s.stats().redundant_filtered, 2);
    }

    #[test]
    fn texture_binds_counted_once_per_change() {
        let mut s = StateMachine::new();
        s.bind_texture(7);
        s.bind_texture(7);
        s.bind_texture(8);
        assert_eq!(s.bound_texture(), Some(8));
        assert_eq!(s.stats().texture_binds, 2);
        assert_eq!(s.stats().redundant_filtered, 1);
    }

    #[test]
    fn matrix_loads_counted_and_total() {
        let mut s = StateMachine::new();
        let t1 = Transform2::new(Mat2::rotation(0.3), Vec2::new(1.0, 2.0));
        let t2 = Transform2::new(Mat2::scale(2.0, 1.0), Vec2::ZERO);
        s.load_transform(t1);
        s.load_transform(t1);
        s.load_transform(t2);
        s.set_blend(BlendMode::Alpha(AlphaFactor::new(0.5)));
        s.bind_texture(1);
        assert_eq!(s.stats().matrix_loads, 2);
        assert_eq!(s.stats().total_changes(), 4);
    }

    #[test]
    fn reset_stats_clears_counters_but_not_state() {
        let mut s = StateMachine::new();
        s.bind_texture(3);
        s.set_blend(BlendMode::Max);
        s.reset_stats();
        assert_eq!(s.stats().total_changes(), 0);
        assert_eq!(s.bound_texture(), Some(3));
        assert_eq!(s.blend(), BlendMode::Max);
    }

    #[test]
    fn transform_apply_combines_linear_and_translation() {
        let t = Transform2::new(Mat2::scale(2.0, 3.0), Vec2::new(1.0, -1.0));
        let p = t.apply(Vec2::new(1.0, 1.0));
        assert_eq!(p, Vec2::new(3.0, 2.0));
    }

    #[test]
    fn stats_merge() {
        let mut a = StateChangeStats {
            blend_changes: 1,
            texture_binds: 2,
            matrix_loads: 3,
            sampling_changes: 1,
            redundant_filtered: 4,
        };
        a.merge(&StateChangeStats {
            blend_changes: 10,
            texture_binds: 20,
            matrix_loads: 30,
            sampling_changes: 2,
            redundant_filtered: 40,
        });
        assert_eq!(a.total_changes(), 69);
        assert_eq!(a.redundant_filtered, 44);
    }

    #[test]
    fn sampling_mode_changes_counted_and_filtered() {
        let mut s = StateMachine::new();
        assert_eq!(s.sampling(), SamplingMode::Exact);
        s.set_sampling(SamplingMode::Exact); // redundant: the default
        assert_eq!(s.stats().sampling_changes, 0);
        assert_eq!(s.stats().redundant_filtered, 1);
        s.set_sampling(SamplingMode::Footprint);
        assert_eq!(s.sampling(), SamplingMode::Footprint);
        assert_eq!(s.stats().sampling_changes, 1);
        assert_eq!(s.stats().total_changes(), 1);
    }
}
