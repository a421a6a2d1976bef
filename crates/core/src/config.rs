//! Synthesis configuration.
//!
//! All tunable parameters of the spot-noise pipeline live here. The paper
//! emphasises that "because spot noise allows variation of parameters, speed
//! can be traded for quality" — the two preset constructors
//! [`SynthesisConfig::atmospheric_paper`] and
//! [`SynthesisConfig::turbulence_paper`] encode the exact parameter sets of
//! the two evaluation workloads (Tables 1 and 2), and the individual fields
//! are what the ablation benchmarks sweep.

use flowfield::Integrator;
pub use softpipe::SamplingMode;

/// The geometric representation used for each spot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpotKind {
    /// A standard spot: one textured polygon with four vertices, rotated to
    /// the local flow direction and stretched by the local speed.
    Disc,
    /// A bent spot: a textured mesh tiled around an advected stream line
    /// (enhanced spot noise). `rows` vertices run along the stream line,
    /// `cols` across it; the paper uses 32x17 and 16x3.
    Bent {
        /// Vertices along the stream line.
        rows: usize,
        /// Vertices across the stream line.
        cols: usize,
    },
}

impl SpotKind {
    /// Number of vertices a single spot of this kind submits to the pipe.
    pub(crate) fn vertices_per_spot(&self) -> usize {
        match self {
            SpotKind::Disc => 4,
            SpotKind::Bent { rows, cols } => rows * cols,
        }
    }
}

/// Parameters of a spot-noise texture synthesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthesisConfig {
    /// Final texture resolution (square, texels per side). Paper: 512.
    pub texture_size: usize,
    /// Number of spots per texture. Paper: 2 500 (atmospheric), 40 000 (DNS).
    pub spot_count: usize,
    /// Spot radius as a fraction of the texture side (an unstretched disc
    /// spot covers roughly `2 * radius * texture_size` pixels across).
    pub spot_radius: f64,
    /// Geometric representation of the spots.
    pub spot_kind: SpotKind,
    /// Resolution of the pre-rendered spot-function texture.
    pub spot_texture_size: usize,
    /// Relative width of the soft rim of the spot function.
    pub spot_softness: f32,
    /// Maximum elongation factor along the flow direction at the highest
    /// speed in the field (1.0 disables data-driven deformation).
    pub max_stretch: f64,
    /// Amplitude of the zero-mean random spot intensities.
    pub intensity_amplitude: f64,
    /// Integration scheme for stream lines and particle advection.
    pub integrator: Integrator,
    /// Random seed for spot positions and intensities.
    pub seed: u64,
    /// When true, spots are spatially partitioned into texture tiles (one
    /// tile per process group, overlap-boundary spots duplicated); when
    /// false, spots are dealt round-robin over process groups.
    pub use_tiling: bool,
    /// When true, standard (disc) spot transformation is performed on the
    /// graphics pipe by loading a per-spot transformation matrix instead of
    /// transforming the four vertices in software. The paper's reference
    /// implementation deliberately does *not* do this — "thus avoiding the
    /// high synchronization overhead costs for setting transformation
    /// matrices for each rendered spot" — and this switch exists to measure
    /// that trade-off (the `ablation_transform` bench). Ignored for bent
    /// spots, whose meshes must be computed in software anyway.
    pub transform_on_pipe: bool,
    /// Number of spots a master accumulates before submitting their
    /// commands to its pipe as one batch
    /// ([`GraphicsPipe::submit`](softpipe::GraphicsPipe::submit)).
    /// Batching turns the per-spot channel round-trip (the dominant
    /// submission overhead at hundreds of thousands of spots per second)
    /// into one message per `spot_batch` spots, while staying small enough
    /// that the pipe keeps overlapping with shape computation. The
    /// `bench_raster` harness sweeps this knob ({16, 64, 256}).
    pub spot_batch: usize,
    /// How spot textures are sampled when shading fragments.
    /// [`SamplingMode::Exact`] (the default) is the classic per-fragment
    /// bilinear filter and is bit-identical to every result this repository
    /// has ever produced. [`SamplingMode::Footprint`] trades exactness for
    /// throughput on sampling-bound bent-spot meshes: fragments
    /// nearest-sample a small prefiltered pyramid level chosen from each
    /// triangle's uv extent — the paper's "speed can be traded for quality"
    /// knob for the fragment pipeline, gated by the [`crate::quality`]
    /// metrics.
    pub sampling: SamplingMode,
}

impl SynthesisConfig {
    /// A small, fast configuration for unit tests and the quickstart example.
    pub fn small_test() -> Self {
        SynthesisConfig {
            texture_size: 128,
            spot_count: 300,
            spot_radius: 0.03,
            spot_kind: SpotKind::Disc,
            spot_texture_size: 16,
            spot_softness: 0.5,
            max_stretch: 3.0,
            intensity_amplitude: 1.0,
            integrator: Integrator::RungeKutta4,
            seed: 42,
            use_tiling: false,
            transform_on_pipe: false,
            spot_batch: 64,
            sampling: SamplingMode::Exact,
        }
    }

    /// The atmospheric-pollution workload of Table 1: 512x512 texture,
    /// 2 500 bent spots with a 32x17 mesh each (~1.3 M quadrilaterals).
    pub fn atmospheric_paper() -> Self {
        SynthesisConfig {
            texture_size: 512,
            spot_count: 2500,
            spot_radius: 0.035,
            spot_kind: SpotKind::Bent { rows: 32, cols: 17 },
            spot_texture_size: 32,
            spot_softness: 0.5,
            max_stretch: 4.0,
            intensity_amplitude: 1.0,
            integrator: Integrator::RungeKutta4,
            seed: 1997,
            use_tiling: false,
            transform_on_pipe: false,
            spot_batch: 64,
            sampling: SamplingMode::Exact,
        }
    }

    /// The turbulent-flow workload of Table 2: 512x512 texture, 40 000 bent
    /// spots with a 16x3 mesh each (~1.9 M quadrilaterals).
    pub fn turbulence_paper() -> Self {
        SynthesisConfig {
            texture_size: 512,
            spot_count: 40_000,
            spot_radius: 0.012,
            spot_kind: SpotKind::Bent { rows: 16, cols: 3 },
            spot_texture_size: 16,
            spot_softness: 0.5,
            max_stretch: 4.0,
            intensity_amplitude: 1.0,
            integrator: Integrator::RungeKutta4,
            seed: 1997,
            use_tiling: false,
            transform_on_pipe: false,
            spot_batch: 64,
            sampling: SamplingMode::Exact,
        }
    }

    /// Spot radius in pixels of the final texture.
    pub fn spot_radius_pixels(&self) -> f64 {
        self.spot_radius * self.texture_size as f64
    }

    /// Total vertices submitted per texture (the quantity behind the paper's
    /// bandwidth estimates).
    pub fn vertices_per_texture(&self) -> usize {
        self.spot_count * self.spot_kind.vertices_per_spot()
    }

    /// A stable content hash of the configuration, usable as (part of) a
    /// frame-cache key: two configs with identical parameters produce the
    /// same key in any process on any run, and any parameter change produces
    /// a different key. Every field is folded in — including knobs like
    /// [`spot_batch`](Self::spot_batch) that affect throughput but not the
    /// rendered texels — so the key is conservative: it never aliases two
    /// different configurations, at worst it declines to share cache entries
    /// between configs that happen to render identically.
    pub fn cache_key(&self) -> u64 {
        let mut h = crate::hash::StableHasher::new();
        h.write_str("SynthesisConfig/v1");
        h.write_usize(self.texture_size);
        h.write_usize(self.spot_count);
        h.write_f64(self.spot_radius);
        match self.spot_kind {
            SpotKind::Disc => h.write_u8(0),
            SpotKind::Bent { rows, cols } => {
                h.write_u8(1);
                h.write_usize(rows);
                h.write_usize(cols);
            }
        }
        h.write_usize(self.spot_texture_size);
        h.write_f32(self.spot_softness);
        h.write_f64(self.max_stretch);
        h.write_f64(self.intensity_amplitude);
        h.write_u8(match self.integrator {
            Integrator::Euler => 0,
            Integrator::Midpoint => 1,
            Integrator::RungeKutta4 => 2,
        });
        h.write_u64(self.seed);
        h.write_bool(self.use_tiling);
        h.write_bool(self.transform_on_pipe);
        h.write_usize(self.spot_batch);
        h.write_u8(match self.sampling {
            SamplingMode::Exact => 0,
            SamplingMode::Footprint => 1,
        });
        h.finish()
    }

    /// Validates parameter sanity, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.texture_size < 8 {
            return Err(format!("texture_size {} too small", self.texture_size));
        }
        if self.spot_count == 0 {
            return Err("spot_count must be positive".to_string());
        }
        if !(self.spot_radius > 0.0 && self.spot_radius < 0.5) {
            return Err(format!("spot_radius {} out of (0, 0.5)", self.spot_radius));
        }
        if self.spot_texture_size < 2 {
            return Err("spot_texture_size must be at least 2".to_string());
        }
        if self.max_stretch < 1.0 {
            return Err(format!("max_stretch {} must be >= 1", self.max_stretch));
        }
        if let SpotKind::Bent { rows, cols } = self.spot_kind {
            if rows < 2 || cols < 2 {
                return Err(format!("bent spot mesh {rows}x{cols} must be at least 2x2"));
            }
        }
        if self.spot_batch == 0 {
            return Err("spot_batch must be at least 1".to_string());
        }
        Ok(())
    }
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig::small_test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workloads_match_reported_geometry_volumes() {
        let atm = SynthesisConfig::atmospheric_paper();
        // 2500 x 32 x 17 vertices ~ 1.36 M (paper: "approximately 1.3 million
        // quadrilaterals; i.e. 2500x32x17 vertices").
        assert_eq!(atm.vertices_per_texture(), 2500 * 32 * 17);
        assert_eq!(atm.quads_per_texture(), 2500 * 31 * 16);
        assert!(atm.validate().is_ok());

        let dns = SynthesisConfig::turbulence_paper();
        // 40000 x 16 x 3 vertices ~ 1.9 M quadrilaterals per texture.
        assert_eq!(dns.vertices_per_texture(), 40_000 * 16 * 3);
        assert_eq!(dns.quads_per_texture(), 40_000 * 15 * 2);
        assert!(dns.validate().is_ok());
    }

    #[test]
    fn spot_kind_counts() {
        assert_eq!(SpotKind::Disc.vertices_per_spot(), 4);
        assert_eq!(SpotKind::Disc.quads_per_spot(), 1);
        let bent = SpotKind::Bent { rows: 32, cols: 17 };
        assert_eq!(bent.vertices_per_spot(), 544);
        assert_eq!(bent.quads_per_spot(), 496);
    }

    #[test]
    fn radius_in_pixels() {
        let cfg = SynthesisConfig {
            texture_size: 512,
            spot_radius: 0.05,
            ..SynthesisConfig::small_test()
        };
        assert!((cfg.spot_radius_pixels() - 25.6).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let ok = SynthesisConfig::small_test();
        assert!(ok.validate().is_ok());
        assert!(SynthesisConfig {
            texture_size: 4,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            spot_count: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            spot_radius: 0.9,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            spot_radius: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            max_stretch: 0.5,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            spot_texture_size: 1,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            spot_kind: SpotKind::Bent { rows: 1, cols: 3 },
            ..ok
        }
        .validate()
        .is_err());
        assert!(SynthesisConfig {
            spot_batch: 0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn cache_key_is_stable_and_discriminating() {
        // Re-building an identical config hashes identically.
        assert_eq!(
            SynthesisConfig::small_test().cache_key(),
            SynthesisConfig::small_test().cache_key()
        );
        assert_eq!(
            SynthesisConfig::atmospheric_paper().cache_key(),
            SynthesisConfig::atmospheric_paper().cache_key()
        );

        // Every single-field perturbation produces a distinct key.
        let base = SynthesisConfig::small_test();
        let variants = [
            SynthesisConfig {
                texture_size: 256,
                ..base
            },
            SynthesisConfig {
                spot_count: 301,
                ..base
            },
            SynthesisConfig {
                spot_radius: 0.031,
                ..base
            },
            SynthesisConfig {
                spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
                ..base
            },
            SynthesisConfig {
                spot_texture_size: 32,
                ..base
            },
            SynthesisConfig {
                spot_softness: 0.25,
                ..base
            },
            SynthesisConfig {
                max_stretch: 2.0,
                ..base
            },
            SynthesisConfig {
                intensity_amplitude: 0.5,
                ..base
            },
            SynthesisConfig {
                integrator: Integrator::Euler,
                ..base
            },
            SynthesisConfig { seed: 43, ..base },
            SynthesisConfig {
                use_tiling: true,
                ..base
            },
            SynthesisConfig {
                transform_on_pipe: true,
                ..base
            },
            SynthesisConfig {
                spot_batch: 65,
                ..base
            },
            SynthesisConfig {
                sampling: SamplingMode::Footprint,
                ..base
            },
        ];
        let mut keys = vec![base.cache_key()];
        for v in variants {
            keys.push(v.cache_key());
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "variants {i} and {j} collided");
            }
        }

        // Bent meshes with swapped dimensions are different configs.
        let a = SynthesisConfig {
            spot_kind: SpotKind::Bent { rows: 8, cols: 3 },
            ..base
        };
        let b = SynthesisConfig {
            spot_kind: SpotKind::Bent { rows: 3, cols: 8 },
            ..base
        };
        assert_ne!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn default_is_small_test() {
        assert_eq!(SynthesisConfig::default(), SynthesisConfig::small_test());
    }

    impl SpotKind {
        /// Number of quadrilaterals a single spot of this kind rasterizes.
        fn quads_per_spot(&self) -> usize {
            match self {
                SpotKind::Disc => 1,
                SpotKind::Bent { rows, cols } => (rows - 1) * (cols - 1),
            }
        }
    }

    impl SynthesisConfig {
        /// Total quadrilaterals rasterized per texture.
        fn quads_per_texture(&self) -> usize {
            self.spot_count * self.spot_kind.quads_per_spot()
        }
    }
}
