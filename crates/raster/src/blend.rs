//! Fragment blending modes.
//!
//! Spot noise relies on *additive* blending of spot intensities into the
//! texture (the sum in `f(x) = Σ aᵢ h(x−xᵢ)`). The OpenGL-style state
//! machine also supports the other modes a graphics pipe provides, which the
//! presentation layer uses when compositing overlays.

/// How an incoming fragment value is combined with the value already stored
/// in the target texture.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum BlendMode {
    /// Destination is replaced by the source.
    Replace,
    /// Source is added to the destination (the spot-noise accumulation mode).
    #[default]
    Additive,
    /// Destination keeps the maximum of source and destination.
    Max,
    /// Classic alpha blending `dst = src * alpha + dst * (1 - alpha)`, with
    /// the constant alpha stored in the mode.
    Alpha(AlphaFactor),
}

/// A blend factor in `[0, 1]`, wrapped so that `BlendMode` stays `Eq` and
/// hashable while still carrying a floating-point alpha.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlphaFactor(u16);

impl AlphaFactor {
    /// Creates an alpha factor from a float in `[0, 1]` (clamped).
    pub fn new(alpha: f32) -> Self {
        AlphaFactor((alpha.clamp(0.0, 1.0) * u16::MAX as f32).round() as u16)
    }

    /// The alpha value as a float in `[0, 1]`.
    pub fn value(self) -> f32 {
        self.0 as f32 / u16::MAX as f32
    }
}

impl BlendMode {
    /// Applies the blend equation for a single fragment.
    ///
    /// `Max` uses the explicit compare-select `if src > dst { src } else
    /// { dst }` rather than `f32::max`: the two differ only on signed-zero
    /// ties, where `f32::max`'s result depends on how the intrinsic is
    /// lowered (debug and release builds disagree). The compare-select keeps
    /// `dst` on every tie, which is deterministic across build profiles and
    /// exactly reproducible by the SIMD kernels' compare+select.
    #[inline]
    pub fn apply(self, dst: f32, src: f32) -> f32 {
        match self {
            BlendMode::Replace => src,
            BlendMode::Additive => dst + src,
            BlendMode::Max => {
                if src > dst {
                    src
                } else {
                    dst
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                src * alpha + dst * (1.0 - alpha)
            }
        }
    }

    /// Applies the blend equation to a whole block of fragments: the mode is
    /// matched **once per block** and each arm runs a tight, branch-free loop
    /// the compiler can vectorize — this is what the lane-blocked span fills
    /// call instead of dispatching per fragment. Per-texel arithmetic is
    /// exactly [`BlendMode::apply`], so results are bit-identical to the
    /// per-fragment path.
    ///
    /// # Panics
    /// Panics when the slices' lengths differ (debug builds).
    #[inline]
    pub fn apply_block(self, dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        match self {
            BlendMode::Replace => dst.copy_from_slice(src),
            BlendMode::Additive => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += *s;
                }
            }
            BlendMode::Max => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = if *s > *d { *s } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = *s * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }

    /// Applies the blend equation with one uniform source value across a
    /// span (the uniform-row fast path): a single match, then a plain
    /// vectorizable loop per mode. Bit-identical to calling
    /// [`BlendMode::apply`] per texel with the same `src`.
    #[inline]
    pub fn apply_uniform(self, dst: &mut [f32], src: f32) {
        match self {
            BlendMode::Replace => dst.fill(src),
            BlendMode::Additive => {
                for d in dst.iter_mut() {
                    *d += src;
                }
            }
            BlendMode::Max => {
                for d in dst.iter_mut() {
                    *d = if src > *d { src } else { *d };
                }
            }
            BlendMode::Alpha(a) => {
                let alpha = a.value();
                for d in dst.iter_mut() {
                    *d = src * alpha + *d * (1.0 - alpha);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_ignores_destination() {
        assert_eq!(BlendMode::Replace.apply(5.0, 2.0), 2.0);
    }

    #[test]
    fn additive_sums() {
        assert_eq!(BlendMode::Additive.apply(1.0, 2.5), 3.5);
        assert_eq!(BlendMode::Additive.apply(-1.0, 1.0), 0.0);
    }

    #[test]
    fn max_keeps_larger() {
        assert_eq!(BlendMode::Max.apply(1.0, 2.5), 2.5);
        assert_eq!(BlendMode::Max.apply(3.0, 2.5), 3.0);
    }

    #[test]
    fn alpha_interpolates() {
        let half = BlendMode::Alpha(AlphaFactor::new(0.5));
        assert!((half.apply(0.0, 1.0) - 0.5).abs() < 1e-3);
        let opaque = BlendMode::Alpha(AlphaFactor::new(1.0));
        assert!((opaque.apply(0.0, 1.0) - 1.0).abs() < 1e-3);
        let clear = BlendMode::Alpha(AlphaFactor::new(0.0));
        assert!((clear.apply(0.25, 1.0) - 0.25).abs() < 1e-3);
    }

    #[test]
    fn alpha_factor_clamps_input() {
        assert_eq!(AlphaFactor::new(2.0).value(), 1.0);
        assert_eq!(AlphaFactor::new(-1.0).value(), 0.0);
    }

    #[test]
    fn block_and_uniform_application_match_per_fragment_exactly() {
        let modes = [
            BlendMode::Replace,
            BlendMode::Additive,
            BlendMode::Max,
            BlendMode::Alpha(AlphaFactor::new(0.37)),
        ];
        let dst_init: Vec<f32> = (0..13).map(|i| (i as f32 * 0.731).sin()).collect();
        let src: Vec<f32> = (0..13).map(|i| (i as f32 * 1.113).cos() * 2.0).collect();
        for mode in modes {
            let mut block = dst_init.clone();
            mode.apply_block(&mut block, &src);
            let per_fragment: Vec<f32> = dst_init
                .iter()
                .zip(&src)
                .map(|(&d, &s)| mode.apply(d, s))
                .collect();
            assert_eq!(block, per_fragment, "{mode:?} block diverged");

            let mut uniform = dst_init.clone();
            mode.apply_uniform(&mut uniform, 0.42);
            let per_fragment: Vec<f32> = dst_init.iter().map(|&d| mode.apply(d, 0.42)).collect();
            assert_eq!(uniform, per_fragment, "{mode:?} uniform diverged");
        }
    }

    #[test]
    fn additive_is_commutative_and_associative() {
        let vals = [0.3f32, 1.7, -0.4, 2.2];
        let forward = vals
            .iter()
            .fold(0.0, |acc, &v| BlendMode::Additive.apply(acc, v));
        let backward = vals
            .iter()
            .rev()
            .fold(0.0, |acc, &v| BlendMode::Additive.apply(acc, v));
        assert!((forward - backward).abs() < 1e-6);
    }
}
