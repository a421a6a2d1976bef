//! # softpipe — a software graphics subsystem for spot-noise synthesis
//!
//! The paper runs on an SGI Onyx2 whose InfiniteReality pipes rasterize,
//! texture and blend the spots. This crate is the reproduction's substitute:
//! a software rasterizer exposed through an OpenGL-like command interface,
//! with worker-thread "pipes", state-change accounting, bus-bandwidth
//! tracking and a calibrated cost model so that both the *behaviour*
//! (textures produced) and the *performance shape* (Tables 1 and 2) of the
//! original system can be reproduced.
//!
//! Module map:
//!
//! * [`texture`] — grayscale intensity textures, spot-function textures and
//!   the footprint-sampling pyramid,
//! * [`arena`] — pooled per-frame buffers (zero-alloc steady state),
//! * [`blend`] — blend modes (additive blending is the spot-noise sum),
//! * [`raster`] — triangle/quad scan conversion with texture mapping,
//! * [`mesh`] — textured meshes for bent spots,
//! * [`framebuffer`] — RGB framebuffer and PPM export for the final scene,
//! * [`state`] — the OpenGL-like state machine with change counting,
//! * [`pipe`] — synchronous pipe core and threaded [`pipe::GraphicsPipe`],
//! * [`pool`] — persistent pipe workers checked out per frame,
//! * [`compose`] — gathering/blending partial textures (the sequential step),
//! * [`simd`] — explicit SSE2/AVX2/NEON kernels behind runtime dispatch,
//! * [`bus`] — host-to-graphics bus traffic accounting,
//! * [`cost`] — the Onyx2-calibrated cost model,
//! * [`machine`] — the workstation model (processors, pipes, assignment),
//! * [`fault`] — chaos-testing fault injection (`SPOTNOISE_FAULT`),
//! * [`sync`] — poison-recovering lock helpers used across the stack.

#![warn(missing_docs)]

pub mod arena;
pub mod blend;
pub mod bus;
pub mod compose;
pub mod cost;
pub mod fault;
pub mod framebuffer;
pub mod machine;
pub mod mesh;
pub mod pipe;
pub mod pool;
pub mod raster;
pub mod simd;
pub mod state;
pub mod sync;
pub mod texture;

pub use arena::{ArenaStats, FrameArena};
pub use blend::BlendMode;
pub use bus::{BusStats, BusTracker, Traffic};
pub use compose::{gather_additive, ComposeResult, PixelTile, StreamingGather};
pub use cost::{CostModel, CpuWork, PipeWork};
pub use fault::{FaultKind, FaultPlan, FaultRule};
pub use framebuffer::{Framebuffer, Rgb};
pub use machine::MachineConfig;
pub use mesh::TexturedMesh;
pub use pipe::{GraphicsPipe, PipeCore, PipeOutput, RenderCommand};
pub use pool::{PipePool, PoolStats, PooledPipe};
pub use raster::{RasterStats, Sampler, Vertex};
pub use simd::SimdLevel;
pub use state::{SamplingMode, StateChangeStats, StateMachine, Transform2};
pub use texture::{disc_spot_texture, gaussian_spot_texture, FootprintPyramid, Texture};

#[cfg(test)]
mod proptests {
    use crate::blend::BlendMode;
    use crate::compose::gather_additive;
    use crate::raster::{axis_aligned_spot_quad, rasterize_quad, RasterStats, Sampler};
    use crate::texture::{disc_spot_texture, Texture};
    use flowfield::Vec2;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Additive blending of a spot never changes texels outside the
    /// spot's bounding box.
    #[test]
    fn spot_rendering_is_local() {
        let seed = 0x10CA1;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let (cx, cy) = (rng.gen_range(8.0..56.0), rng.gen_range(8.0..56.0));
            let r = rng.gen_range(1.0..8.0);
            let mut target = Texture::new(64, 64);
            let spot = disc_spot_texture(16, 0.5);
            let mut stats = RasterStats::default();
            let quad = axis_aligned_spot_quad(Vec2::new(cx, cy), r);
            rasterize_quad(
                &mut target,
                Sampler::Exact(&spot),
                quad,
                1.0,
                BlendMode::Additive,
                &mut stats,
            );
            for y in 0..64usize {
                for x in 0..64usize {
                    let inside = (x as f64 + 0.5 - cx).abs() <= r + 1.0
                        && (y as f64 + 0.5 - cy).abs() <= r + 1.0;
                    if !inside {
                        assert_eq!(
                            target.texel(x, y),
                            0.0,
                            "seed {seed:#x}, case {case}: cx {cx}, cy {cy}, r {r}, texel ({x}, {y})"
                        );
                    }
                }
            }
        }
    }

    /// Gathering partial textures is independent of the partition: a set
    /// of spots rendered into one texture equals the same spots split
    /// into two textures and gathered.
    #[test]
    fn gather_equals_single_pass() {
        let seed = 0x6A7;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let split = rng.gen_range(1usize..7);
            let spots_seed = rng.gen_range(0u64..500);
            let mut spots_rng = ChaCha8Rng::seed_from_u64(spots_seed);
            let spots: Vec<(Vec2, f64, f32)> = (0..8)
                .map(|_| {
                    (
                        Vec2::new(
                            spots_rng.gen_range(4.0..60.0),
                            spots_rng.gen_range(4.0..60.0),
                        ),
                        spots_rng.gen_range(2.0..6.0),
                        spots_rng.gen_range(-1.0..1.0f32),
                    )
                })
                .collect();
            let spot_tex = disc_spot_texture(16, 0.5);
            let render = |subset: &[(Vec2, f64, f32)]| {
                let mut t = Texture::new(64, 64);
                let mut stats = RasterStats::default();
                for (c, r, a) in subset {
                    rasterize_quad(
                        &mut t,
                        Sampler::Exact(&spot_tex),
                        axis_aligned_spot_quad(*c, *r),
                        *a,
                        BlendMode::Additive,
                        &mut stats,
                    );
                }
                t
            };
            let all = render(&spots);
            let first = render(&spots[..split]);
            let second = render(&spots[split..]);
            let gathered = gather_additive(&[first, second]);
            let diff = all.absolute_difference(&gathered.texture);
            assert!(
                diff < 1e-3,
                "seed {seed:#x}, case {case}: split {split}, spots seed {spots_seed}: \
                 difference {diff}"
            );
        }
    }

    /// The blend modes' algebraic identities hold for arbitrary inputs.
    #[test]
    fn blend_identities() {
        let seed = 0xB1E;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..64 {
            let (dst, src) = (rng.gen_range(-10.0f32..10.0), rng.gen_range(-10.0f32..10.0));
            let context = format!("seed {seed:#x}, case {case}: dst {dst}, src {src}");
            assert_eq!(BlendMode::Replace.apply(dst, src), src, "{context}");
            assert_eq!(BlendMode::Additive.apply(dst, src), dst + src, "{context}");
            assert!(BlendMode::Max.apply(dst, src) >= dst, "{context}");
            assert!(BlendMode::Max.apply(dst, src) >= src, "{context}");
        }
    }
}
