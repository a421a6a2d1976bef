//! # flowviz — presentation layer for the spot-noise reproduction
//!
//! The final pipeline step maps the synthesised texture onto geometry and
//! superimposes other visualizations. This crate provides:
//!
//! * [`Colormap`] — the rainbow map of the paper's Figure 6 and friends,
//! * [`texture_to_framebuffer`] — texture to framebuffer conversion,
//! * [`overlay_scalar_field`], [`draw_rect_outline`] — colormapped scalar
//!   overlays and outlines in domain coordinates,
//! * [`draw_map`] — the schematic map outline standing in for the Europe
//!   map.

#![warn(missing_docs)]

#[cfg(test)]
mod arrows;
mod colormap;
#[cfg(test)]
mod legend;
mod map;
mod overlay;
mod render;
#[cfg(test)]
mod streamplot;

pub use colormap::Colormap;
pub use map::draw_map;
pub use overlay::{draw_rect_outline, overlay_scalar_field};
pub use render::texture_to_framebuffer;
