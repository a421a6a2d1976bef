//! The block obstacle of the turbulence application.
//!
//! The DNS data set of the paper is the flow around a block placed in a
//! channel; the separation over and under the block and the vortex street
//! behind it are exactly what the spot-noise images show (Figures 2 and 7).

use flowfield::{Rect, Vec2};

/// A rectangular solid obstacle inside the flow domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// The obstacle's extent in world coordinates.
    pub rect: Rect,
}

impl Block {
    /// The paper-like placement: a block spanning the middle third of the
    /// channel height, positioned at a quarter of the channel length.
    pub fn standard(domain: Rect) -> Self {
        let w = domain.width();
        let h = domain.height();
        let min = domain.min + Vec2::new(0.22 * w, 0.40 * h);
        let max = domain.min + Vec2::new(0.30 * w, 0.60 * h);
        Block {
            rect: Rect::new(min, max),
        }
    }

    /// True when a point is inside the solid.
    pub fn contains(&self, p: Vec2) -> bool {
        self.rect.contains(p)
    }

    /// Builds the solid-cell mask for an `nx` x `ny` node lattice over
    /// `domain` (row-major, `true` = solid).
    pub fn mask(&self, nx: usize, ny: usize, domain: Rect) -> Vec<bool> {
        let mut mask = vec![false; nx * ny];
        for j in 0..ny {
            for i in 0..nx {
                let uv = Vec2::new(i as f64 / (nx - 1) as f64, j as f64 / (ny - 1) as f64);
                let p = domain.from_unit(uv);
                mask[j * nx + i] = self.contains(p);
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(10.0, 4.0))
    }

    #[test]
    fn standard_block_is_inside_domain() {
        let b = Block::standard(domain());
        assert!(domain().contains(b.rect.min));
        assert!(domain().contains(b.rect.max));
        // It blocks a fraction of the channel height, not all of it.
        assert!(b.rect.height() < domain().height());
        assert!(b.rect.height() > 0.1 * domain().height());
    }

    #[test]
    fn contains_matches_rect() {
        let b = Block::standard(domain());
        assert!(b.contains(b.rect.center()));
        assert!(!b.contains(domain().min));
    }

    #[test]
    fn mask_marks_solid_nodes_consistently() {
        let b = Block::standard(domain());
        let (nx, ny) = (50, 20);
        let mask = b.mask(nx, ny, domain());
        assert_eq!(mask.len(), nx * ny);
        let solid = mask.iter().filter(|&&s| s).count();
        // Fraction of solid nodes approximates the area fraction of the block.
        let area_fraction = b.rect.area() / domain().area();
        let node_fraction = solid as f64 / (nx * ny) as f64;
        assert!((node_fraction - area_fraction).abs() < 0.05);
        // The block centre node is solid, the domain corners are not.
        assert!(!mask[0]);
        assert!(!mask[nx * ny - 1]);
    }

    #[test]
    fn front_face_center_is_on_upstream_side() {
        let b = Block::standard(domain());
        let f = b.front_face_center();
        assert_eq!(f.x, b.rect.min.x);
        assert!((f.y - b.rect.center().y).abs() < 1e-12);
    }

    impl Block {
        /// The frontal (upstream) face centre.
        fn front_face_center(&self) -> Vec2 {
            Vec2::new(self.rect.min.x, self.rect.center().y)
        }
    }
}
