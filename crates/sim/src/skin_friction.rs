//! Skin-friction field on the block (the data behind Figure 2).
//!
//! The paper's Figure 2 shows spot noise applied to the *skin friction* field
//! on the front of the block, to answer "where does the flow pass over or
//! under the block?". The original field is the wall-shear vector on the 3-D
//! block surface; with a 2-D DNS substitute there is no spanwise direction,
//! so the reproduction builds the skin-friction pattern as follows
//! (documented substitution; `reproduce figure2` renders it):
//!
//! * the *attachment height* — the height on the front face where the
//!   oncoming flow stagnates and splits into an over-branch and an
//!   under-branch — is measured from the 2-D DNS solution, and
//! * the field on the (span `s`, height `t`) face patch is reconstructed as a
//!   diverging pattern away from that attachment line, with a small spanwise
//!   component so the texture is not degenerate.
//!
//! Spot noise on this field shows exactly the separation-line structure of
//! the paper's figure: texture streaks diverging from a horizontal line whose
//! height moves with the stagnation point.

use crate::dns::DnsSolver;
use flowfield::{Rect, RegularGrid, Vec2};

/// The parameters of the reconstructed skin-friction pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkinFrictionPattern {
    /// Height (0..1, fraction of the face) of the attachment line at the
    /// left edge of the face patch.
    pub attachment_left: f64,
    /// Height of the attachment line at the right edge (a tilt models the
    /// slight asymmetry of the instantaneous flow).
    pub attachment_right: f64,
    /// Magnitude of the shear away from the attachment line.
    pub shear_strength: f64,
    /// Magnitude of the spanwise (cross-face) drift component.
    pub spanwise_drift: f64,
}

impl Default for SkinFrictionPattern {
    fn default() -> Self {
        SkinFrictionPattern {
            attachment_left: 0.5,
            attachment_right: 0.5,
            shear_strength: 1.0,
            spanwise_drift: 0.15,
        }
    }
}

/// Measures the attachment height on the front face of the block from the
/// DNS solution: the height at which the vertical velocity just upstream of
/// the face changes sign (flow going over above, under below). Returns a
/// fraction in `[0, 1]` of the face height.
pub fn attachment_height(dns: &DnsSolver) -> f64 {
    let block = dns.block().rect;
    let x_probe = block.min.x - 0.02 * dns.config().domain.width();
    let samples = 64;
    let mut crossing = 0.5;
    let mut prev_v = None;
    for k in 0..=samples {
        let t = k as f64 / samples as f64;
        let y = block.min.y + t * block.height();
        let v = dns.sample(Vec2::new(x_probe, y)).y;
        if let Some(pv) = prev_v {
            // Sign change from negative (down, under the block) to positive
            // (up, over the block) marks the attachment point.
            if pv <= 0.0 && v > 0.0 {
                crossing = t;
                break;
            }
        }
        prev_v = Some(v);
    }
    crossing.clamp(0.0, 1.0)
}

/// Builds the skin-friction pattern from the DNS solution: the attachment
/// line height comes from [`attachment_height`] and the shear strength from
/// the inflow speed.
pub fn pattern_from_dns(dns: &DnsSolver) -> SkinFrictionPattern {
    let h = attachment_height(dns);
    SkinFrictionPattern {
        attachment_left: h,
        // A mild tilt derived from the instantaneous wake asymmetry.
        attachment_right: (h + 0.1 * dns.wake_fluctuation().clamp(-1.0, 1.0)).clamp(0.0, 1.0),
        shear_strength: dns.config().inflow,
        spanwise_drift: 0.15 * dns.config().inflow,
    }
}

/// Samples the reconstructed skin-friction field on an `nx` x `ny` grid over
/// the unit face patch (`s` = spanwise position, `t` = height).
pub fn skin_friction_field(pattern: &SkinFrictionPattern, nx: usize, ny: usize) -> RegularGrid {
    let domain = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
    let p = *pattern;
    RegularGrid::from_fn(nx, ny, domain, move |pos| {
        let attach = p.attachment_left + (p.attachment_right - p.attachment_left) * pos.x;
        // Shear diverges away from the attachment line (up above it, down
        // below it) and saturates smoothly.
        let d = pos.y - attach;
        let vertical = p.shear_strength * (d * 6.0).tanh();
        // A gentle spanwise drift that changes sign across the face midline
        // gives the texture visible spanwise structure.
        let spanwise = p.spanwise_drift * (std::f64::consts::PI * (pos.x - 0.5)).sin();
        Vec2::new(spanwise, vertical)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::{DnsConfig, DnsSolver};

    #[test]
    fn default_pattern_is_symmetric() {
        let p = SkinFrictionPattern::default();
        assert_eq!(p.attachment_left, 0.5);
        assert_eq!(p.attachment_right, 0.5);
    }

    #[test]
    fn attachment_height_is_near_mid_face_for_symmetric_flow() {
        let mut dns = DnsSolver::new(DnsConfig::small_test());
        for _ in 0..40 {
            dns.step(0.02);
        }
        let h = attachment_height(&dns);
        assert!((0.0..=1.0).contains(&h));
        // For a block centred in the channel the attachment point is roughly
        // mid-face.
        assert!((h - 0.5).abs() < 0.4, "attachment height {h}");
    }

    #[test]
    fn pattern_from_dns_uses_measured_height() {
        let mut dns = DnsSolver::new(DnsConfig::small_test());
        for _ in 0..30 {
            dns.step(0.02);
        }
        let p = pattern_from_dns(&dns);
        assert!(p.shear_strength > 0.0);
        assert!((0.0..=1.0).contains(&p.attachment_left));
        assert!((0.0..=1.0).contains(&p.attachment_right));
    }

    #[test]
    fn skin_friction_field_diverges_from_attachment_line() {
        let p = SkinFrictionPattern {
            attachment_left: 0.4,
            attachment_right: 0.4,
            shear_strength: 1.0,
            spanwise_drift: 0.1,
        };
        let g = skin_friction_field(&p, 32, 32);
        // Above the attachment line the flow goes up, below it goes down.
        let above = g.interpolate(Vec2::new(0.5, 0.8));
        let below = g.interpolate(Vec2::new(0.5, 0.1));
        assert!(above.y > 0.0);
        assert!(below.y < 0.0);
        // Exactly on the line the vertical component is (close to) zero.
        let on = g.interpolate(Vec2::new(0.5, 0.4));
        assert!(on.y.abs() < 0.15);
    }

    #[test]
    fn tilted_attachment_line_moves_with_span() {
        let p = SkinFrictionPattern {
            attachment_left: 0.3,
            attachment_right: 0.7,
            shear_strength: 1.0,
            spanwise_drift: 0.0,
        };
        let g = skin_friction_field(&p, 48, 48);
        // At the left edge, height 0.5 lies above the line -> upward flow;
        // at the right edge the same height lies below the line -> downward.
        assert!(g.interpolate(Vec2::new(0.05, 0.5)).y > 0.0);
        assert!(g.interpolate(Vec2::new(0.95, 0.5)).y < 0.0);
    }
}
