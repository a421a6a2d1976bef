//! Colour maps.
//!
//! Figure 6 of the paper uses "a rainbow colormap ... for assigning colors to
//! the pollutant" superimposed on the grayscale spot-noise texture. The
//! rainbow map is reproduced here together with a few better-behaved
//! alternatives used by the examples.

use softpipe::Rgb;

/// Available colour maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Colormap {
    /// Plain grayscale (used for the spot-noise texture itself).
    Grayscale,
    /// The classic blue→cyan→green→yellow→red rainbow of the paper.
    Rainbow,
    /// A blue–white–red diverging map (useful for vorticity).
    Diverging,
    /// A dark-to-warm sequential map (a simple inferno-like ramp).
    Heat,
}

impl Colormap {
    /// Maps a normalised value `t` in `[0, 1]` (clamped) to a colour.
    pub fn map(self, t: f32) -> Rgb {
        let t = if t.is_nan() { 0.0 } else { t.clamp(0.0, 1.0) };
        match self {
            Colormap::Grayscale => Rgb::from_f32(t, t, t),
            Colormap::Rainbow => rainbow(t),
            Colormap::Diverging => diverging(t),
            Colormap::Heat => heat(t),
        }
    }
}

fn rainbow(t: f32) -> Rgb {
    // Piecewise-linear HSV-like sweep: blue -> cyan -> green -> yellow -> red.
    let (r, g, b) = if t < 0.25 {
        let s = t / 0.25;
        (0.0, s, 1.0)
    } else if t < 0.5 {
        let s = (t - 0.25) / 0.25;
        (0.0, 1.0, 1.0 - s)
    } else if t < 0.75 {
        let s = (t - 0.5) / 0.25;
        (s, 1.0, 0.0)
    } else {
        let s = (t - 0.75) / 0.25;
        (1.0, 1.0 - s, 0.0)
    };
    Rgb::from_f32(r, g, b)
}

fn diverging(t: f32) -> Rgb {
    if t < 0.5 {
        let s = t / 0.5;
        Rgb::from_f32(0.2 + 0.8 * s, 0.3 + 0.7 * s, 1.0)
    } else {
        let s = (t - 0.5) / 0.5;
        Rgb::from_f32(1.0, 1.0 - 0.7 * s, 1.0 - 0.8 * s)
    }
}

fn heat(t: f32) -> Rgb {
    Rgb::from_f32(
        (t * 2.0).min(1.0),
        (t * 1.4 - 0.3).clamp(0.0, 1.0),
        (t * 3.0 - 2.2).clamp(0.0, 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grayscale_endpoints() {
        assert_eq!(Colormap::Grayscale.map(0.0), Rgb::new(0, 0, 0));
        assert_eq!(Colormap::Grayscale.map(1.0), Rgb::new(255, 255, 255));
        assert_eq!(
            Colormap::Grayscale.map(0.5).r,
            Colormap::Grayscale.map(0.5).g
        );
    }

    #[test]
    fn rainbow_ends_blue_and_red() {
        let lo = Colormap::Rainbow.map(0.0);
        let hi = Colormap::Rainbow.map(1.0);
        assert!(lo.b > 200 && lo.r < 50);
        assert!(hi.r > 200 && hi.b < 50);
        // The middle is greenish.
        let mid = Colormap::Rainbow.map(0.5);
        assert!(mid.g > 200);
    }

    #[test]
    fn out_of_range_and_nan_are_clamped() {
        assert_eq!(Colormap::Rainbow.map(-3.0), Colormap::Rainbow.map(0.0));
        assert_eq!(Colormap::Rainbow.map(7.0), Colormap::Rainbow.map(1.0));
        assert_eq!(Colormap::Heat.map(f32::NAN), Colormap::Heat.map(0.0));
    }

    #[test]
    fn diverging_midpoint_is_light() {
        let mid = Colormap::Diverging.map(0.5);
        assert!(mid.r > 200 && mid.g > 200 && mid.b > 200);
        let lo = Colormap::Diverging.map(0.0);
        let hi = Colormap::Diverging.map(1.0);
        assert!(lo.b > lo.r);
        assert!(hi.r > hi.b);
    }

    #[test]
    fn heat_is_monotone_in_red() {
        let mut prev = -1i32;
        for k in 0..=10 {
            let c = Colormap::Heat.map(k as f32 / 10.0);
            assert!(c.r as i32 >= prev);
            prev = c.r as i32;
        }
    }
}
