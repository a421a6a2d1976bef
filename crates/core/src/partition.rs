//! Partitioning the spot collection over process groups.
//!
//! The divide-and-conquer algorithm rests on two observations: spots are
//! independent, and the work per spot is (roughly) constant, so the spot
//! collection can be split into disjoint sets processed by different process
//! groups (paper §3). Two strategies are implemented, matching the paper's
//! implementation section:
//!
//! * [`partition_round_robin`] — spots are dealt over the groups like cards,
//!   which balances the load and requires the partial textures to be blended
//!   additively at the end;
//! * [`partition_tiled`] — spots are assigned by *location* to texture tiles,
//!   one tile per group. Spots whose footprint may straddle a tile boundary
//!   are assigned to every group they might affect (the paper's overlap
//!   handling), and the final texture is composed by copying each group's
//!   owned pixel region.

use crate::config::SynthesisConfig;
use crate::spot::{FieldToPixel, Spot};
use softpipe::PixelTile;

/// Result of a tiled partition.
#[derive(Debug, Clone)]
pub struct TiledPartition {
    /// Per-group spot sets (group `g` owns `tiles[g]`).
    pub groups: Vec<Vec<Spot>>,
    /// Pixel region owned by each group.
    pub tiles: Vec<PixelTile>,
    /// Number of spot instances that were duplicated into more than one
    /// group because their footprint straddles a tile boundary (the cost of
    /// tiling the paper discusses).
    pub duplicated: usize,
}

/// Splits `spots` into `groups` sets by dealing them round-robin.
/// Every spot lands in exactly one group and group sizes differ by at most 1.
pub fn partition_round_robin(spots: &[Spot], groups: usize) -> Vec<Vec<Spot>> {
    assert!(groups > 0, "need at least one group");
    let mut out: Vec<Vec<Spot>> = (0..groups)
        .map(|g| Vec::with_capacity(spots.len() / groups + 1 + usize::from(g == 0)))
        .collect();
    for (i, spot) in spots.iter().enumerate() {
        out[i % groups].push(*spot);
    }
    out
}

/// Splits `spots` into `groups` contiguous chunks (preserving order): one
/// chunk per task of the CPU-only executor.
pub fn partition_chunks(spots: &[Spot], groups: usize) -> Vec<Vec<Spot>> {
    chunk_slices(spots, groups)
        .into_iter()
        .map(<[Spot]>::to_vec)
        .collect()
}

/// Borrowing variant of [`partition_chunks`]: the same contiguous chunk
/// boundaries as sub-slices, without copying.
fn chunk_slices(spots: &[Spot], groups: usize) -> Vec<&[Spot]> {
    assert!(groups > 0, "need at least one group");
    let mut out = Vec::with_capacity(groups);
    let base = spots.len() / groups;
    let extra = spots.len() % groups;
    let mut start = 0;
    for g in 0..groups {
        let len = base + usize::from(g < extra);
        out.push(&spots[start..start + len]);
        start += len;
    }
    out
}

/// Chooses a tile-grid shape `(nx, ny)` with `nx * ny == groups`, as close to
/// square as possible (e.g. 2 -> 2x1, 4 -> 2x2, 6 -> 3x2).
pub fn tile_grid_shape(groups: usize) -> (usize, usize) {
    assert!(groups > 0, "need at least one group");
    let mut best = (groups, 1);
    let mut best_score = usize::MAX;
    let mut nx = 1;
    while nx * nx <= groups {
        if groups.is_multiple_of(nx) {
            let ny = groups / nx;
            let score = ny - nx; // ny >= nx here
            if score < best_score {
                best_score = score;
                best = (ny, nx);
            }
        }
        nx += 1;
    }
    best
}

/// Options of the tiled partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilingOptions {
    /// Extra margin (in pixels) added to every spot's footprint when deciding
    /// which tiles it may affect; covers the stretching of spots by the flow.
    pub overlap_margin_pixels: f64,
}

impl TilingOptions {
    /// Derives the margin from the synthesis configuration: a spot stretched
    /// to the maximum elongation reaches `radius * max_stretch` pixels along
    /// the flow from its seed plus up to one radius across it; a couple of
    /// pixels of rasterization slack are added so that every fragment of a
    /// duplicated spot is guaranteed to fall inside a tile whose group
    /// received that spot.
    pub fn from_config(cfg: &SynthesisConfig) -> Self {
        TilingOptions {
            overlap_margin_pixels: cfg.spot_radius_pixels() * (cfg.max_stretch + 1.0) + 2.0,
        }
    }
}

/// Partitions spots by location into one texture tile per group, duplicating
/// spots that may affect more than one tile.
pub fn partition_tiled(
    spots: &[Spot],
    mapper: &FieldToPixel,
    groups: usize,
    options: &TilingOptions,
) -> TiledPartition {
    assert!(groups > 0, "need at least one group");
    let size = mapper.texture_size();
    let (nx, ny) = tile_grid_shape(groups);
    let tiles = PixelTile::grid(size, size, nx, ny);
    let margin = options.overlap_margin_pixels.max(0.0);
    let mut group_spots: Vec<Vec<Spot>> = vec![Vec::new(); groups];
    let mut duplicated = 0usize;
    for spot in spots {
        let p = mapper.to_pixel(spot.position);
        let lo_x = p.x - margin;
        let hi_x = p.x + margin;
        let lo_y = p.y - margin;
        let hi_y = p.y + margin;
        let mut owners = 0;
        for (g, tile) in tiles.iter().enumerate() {
            let overlaps = hi_x >= tile.x0 as f64
                && lo_x < tile.x1 as f64
                && hi_y >= tile.y0 as f64
                && lo_y < tile.y1 as f64;
            if overlaps {
                group_spots[g].push(*spot);
                owners += 1;
            }
        }
        // A spot exactly on the texture border can miss all tiles after the
        // margin test; assign it to the nearest tile so no spot is lost.
        if owners == 0 {
            let g = nearest_tile(&tiles, p.x, p.y);
            group_spots[g].push(*spot);
            owners = 1;
        }
        duplicated += owners - 1;
    }
    TiledPartition {
        groups: group_spots,
        tiles,
        duplicated,
    }
}

fn nearest_tile(tiles: &[PixelTile], x: f64, y: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, t) in tiles.iter().enumerate() {
        let cx = (t.x0 + t.x1) as f64 * 0.5;
        let cy = (t.y0 + t.y1) as f64 * 0.5;
        let d = (cx - x) * (cx - x) + (cy - y) * (cy - y);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spot::generate_spots;
    use flowfield::{Rect, Vec2};

    fn domain() -> Rect {
        Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0))
    }

    fn spots(n: usize) -> Vec<Spot> {
        generate_spots(n, domain(), 1.0, 17)
    }

    #[test]
    fn round_robin_preserves_every_spot_exactly_once() {
        let s = spots(103);
        let parts = partition_round_robin(&s, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 103);
        // Balanced to within one spot.
        let max = parts.iter().map(Vec::len).max().unwrap();
        let min = parts.iter().map(Vec::len).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn chunk_partition_preserves_order_and_count() {
        let s = spots(10);
        let parts = partition_chunks(&s, 3);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
        let flat: Vec<Spot> = parts.into_iter().flatten().collect();
        for (a, b) in s.iter().zip(&flat) {
            assert_eq!(a.position, b.position);
        }
    }

    #[test]
    fn chunk_slices_match_owned_chunk_boundaries() {
        let s = spots(23);
        for groups in 1..6 {
            let owned = partition_chunks(&s, groups);
            let borrowed = chunk_slices(&s, groups);
            assert_eq!(owned.len(), borrowed.len());
            for (o, b) in owned.iter().zip(&borrowed) {
                assert_eq!(o.as_slice().len(), b.len());
                for (x, y) in o.iter().zip(*b) {
                    assert_eq!(x.position, y.position);
                }
            }
        }
    }

    #[test]
    fn single_group_partition_is_identity() {
        let s = spots(20);
        let rr = partition_round_robin(&s, 1);
        assert_eq!(rr.len(), 1);
        assert_eq!(rr[0].len(), 20);
    }

    #[test]
    fn tile_grid_shapes_are_near_square() {
        assert_eq!(tile_grid_shape(1), (1, 1));
        assert_eq!(tile_grid_shape(2), (2, 1));
        assert_eq!(tile_grid_shape(4), (2, 2));
        assert_eq!(tile_grid_shape(6), (3, 2));
        assert_eq!(tile_grid_shape(8), (4, 2));
        let (nx, ny) = tile_grid_shape(12);
        assert_eq!(nx * ny, 12);
        assert!(nx >= ny);
    }

    #[test]
    fn tiled_partition_covers_all_spots_and_reports_duplicates() {
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let s = spots(500);
        let opts = TilingOptions::from_config(&cfg);
        let part = partition_tiled(&s, &mapper, 4, &opts);
        assert_eq!(part.groups.len(), 4);
        assert_eq!(part.tiles.len(), 4);
        let total: usize = part.groups.iter().map(Vec::len).sum();
        // Every spot appears at least once; the surplus equals the reported
        // duplicate count.
        assert_eq!(total, 500 + part.duplicated);
        assert!(part.duplicated > 0, "expected some boundary spots");
    }

    #[test]
    fn zero_margin_tiling_never_duplicates() {
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let s = spots(300);
        let opts = TilingOptions {
            overlap_margin_pixels: 0.0,
        };
        let part = partition_tiled(&s, &mapper, 4, &opts);
        let total: usize = part.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 300 + part.duplicated);
        // With zero margin a spot can only fall into the tile containing it
        // (boundary coincidences aside, duplication is minimal).
        assert!(part.duplicated <= 5, "duplicated {}", part.duplicated);
    }

    #[test]
    fn larger_margin_duplicates_more() {
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let s = spots(400);
        let small = partition_tiled(
            &s,
            &mapper,
            4,
            &TilingOptions {
                overlap_margin_pixels: 2.0,
            },
        );
        let large = partition_tiled(
            &s,
            &mapper,
            4,
            &TilingOptions {
                overlap_margin_pixels: 20.0,
            },
        );
        assert!(large.duplicated > small.duplicated);
    }

    #[test]
    fn spots_assigned_to_tile_containing_them() {
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        // A spot at the centre of the lower-left quadrant.
        let spot = Spot {
            position: Vec2::new(0.25, 0.25),
            intensity: 1.0,
        };
        let part = partition_tiled(
            &[spot],
            &mapper,
            4,
            &TilingOptions {
                overlap_margin_pixels: 1.0,
            },
        );
        // Exactly one group received it and that group's tile contains the
        // spot's pixel position.
        let owners: Vec<usize> = part
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(owners.len(), 1);
        let p = mapper.to_pixel(spot.position);
        assert!(part.tiles[owners[0]].contains(p.x as usize, p.y as usize));
    }

    #[test]
    fn four_corner_junction_spot_is_duplicated_into_all_four_tiles() {
        // A spot centred exactly on the meeting point of a 2x2 tile grid
        // must be handed to every one of the four tiles its margin touches.
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size); // 128 px
        let spot = Spot {
            position: Vec2::new(0.5, 0.5), // pixel (64, 64): the 2x2 junction
            intensity: 1.0,
        };
        let part = partition_tiled(
            &[spot],
            &mapper,
            4,
            &TilingOptions {
                overlap_margin_pixels: 3.0,
            },
        );
        assert_eq!(part.duplicated, 3, "expected 4 owners (3 duplicates)");
        assert!(
            part.groups.iter().all(|g| g.len() == 1),
            "every tile must receive the junction spot: {:?}",
            part.groups.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn straddling_spots_land_in_exactly_the_tiles_they_overlap() {
        // Each spot's expected owner set is recomputed here from its margin
        // box; the partition must reproduce it exactly — no owner missing,
        // no spurious owner.
        let cfg = SynthesisConfig::small_test();
        let size = cfg.texture_size; // 128
        let mapper = FieldToPixel::new(domain(), size);
        let margin = 5.0;
        // Interior, vertical-boundary straddler, horizontal-boundary
        // straddler, junction, and a corner-of-texture spot.
        let cases = [
            Vec2::new(0.25, 0.25),
            Vec2::new(0.5, 0.2),
            Vec2::new(0.8, 0.5),
            Vec2::new(0.5, 0.5),
            Vec2::new(0.001, 0.001),
        ];
        for position in cases {
            let spot = Spot {
                position,
                intensity: 1.0,
            };
            let part = partition_tiled(
                &[spot],
                &mapper,
                4,
                &TilingOptions {
                    overlap_margin_pixels: margin,
                },
            );
            let owners: Vec<usize> = part
                .groups
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.is_empty())
                .map(|(i, _)| i)
                .collect();
            let p = mapper.to_pixel(position);
            let expected: Vec<usize> = part
                .tiles
                .iter()
                .enumerate()
                .filter(|(_, t)| {
                    p.x + margin >= t.x0 as f64
                        && p.x - margin < t.x1 as f64
                        && p.y + margin >= t.y0 as f64
                        && p.y - margin < t.y1 as f64
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                owners, expected,
                "spot at {position:?} (pixel {p:?}) assigned to the wrong tiles"
            );
            assert_eq!(part.duplicated, owners.len() - 1);
        }
    }

    #[test]
    fn oversubscribed_tile_partition_keeps_per_tile_consistency() {
        // More tiles than process groups (the dynamic tile queue's food):
        // the per-tile accounting must stay exact.
        let cfg = SynthesisConfig::small_test();
        let mapper = FieldToPixel::new(domain(), cfg.texture_size);
        let s = spots(300);
        let opts = TilingOptions::from_config(&cfg);
        let part = partition_tiled(&s, &mapper, 8, &opts);
        assert_eq!(part.tiles.len(), 8);
        assert_eq!(part.groups.len(), 8);
        let total: usize = part.groups.iter().map(Vec::len).sum();
        assert_eq!(total, 300 + part.duplicated);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = partition_round_robin(&spots(3), 0);
    }
}
