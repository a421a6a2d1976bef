//! Reading and writing sampled fields.
//!
//! A simple, self-describing text format for sampled grids: a small ASCII
//! header followed by the sample values. The data browser keeps its slices
//! in memory, so nothing stores grids on disk and this module is compiled
//! for its round-trip tests only.

use crate::grid::RegularGrid;
use crate::vec2::{Rect, Vec2};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;

/// Magic line identifying a serialized vector grid.
const VECTOR_MAGIC: &str = "spotnoise-vector-grid-v1";

/// Serialises a vector grid into the text format.
fn write_vector_grid(grid: &RegularGrid, mut w: impl Write) -> io::Result<()> {
    let d = grid.domain();
    let mut header = String::new();
    let _ = writeln!(header, "{VECTOR_MAGIC}");
    let _ = writeln!(
        header,
        "{} {} {} {} {} {}",
        grid.nx(),
        grid.ny(),
        d.min.x,
        d.min.y,
        d.max.x,
        d.max.y
    );
    w.write_all(header.as_bytes())?;
    let mut body = String::with_capacity(grid.samples().len() * 16);
    for v in grid.samples() {
        let _ = writeln!(body, "{} {}", v.x, v.y);
    }
    w.write_all(body.as_bytes())
}

/// Deserialises a vector grid from the text format.
fn read_vector_grid(r: impl BufRead) -> io::Result<RegularGrid> {
    let mut lines = r.lines();
    let magic = next_line(&mut lines)?;
    if magic.trim() != VECTOR_MAGIC {
        return Err(bad_data(format!("unexpected magic line: {magic:?}")));
    }
    let header = next_line(&mut lines)?;
    let nums = parse_f64s(&header, 6)?;
    let nx = nums[0] as usize;
    let ny = nums[1] as usize;
    if nx < 2 || ny < 2 {
        return Err(bad_data(format!("invalid grid shape {nx}x{ny}")));
    }
    let domain = Rect::new(Vec2::new(nums[2], nums[3]), Vec2::new(nums[4], nums[5]));
    let mut grid = RegularGrid::zeros(nx, ny, domain);
    for j in 0..ny {
        for i in 0..nx {
            let line = next_line(&mut lines)?;
            let v = parse_f64s(&line, 2)?;
            *grid.node_mut(i, j) = Vec2::new(v[0], v[1]);
        }
    }
    Ok(grid)
}

/// Writes a vector grid to a file path.
fn save_vector_grid(grid: &RegularGrid, path: impl AsRef<Path>) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_vector_grid(grid, io::BufWriter::new(file))
}

/// Reads a vector grid from a file path.
fn load_vector_grid(path: impl AsRef<Path>) -> io::Result<RegularGrid> {
    let file = std::fs::File::open(path)?;
    read_vector_grid(io::BufReader::new(file))
}

fn next_line(lines: &mut impl Iterator<Item = io::Result<String>>) -> io::Result<String> {
    lines
        .next()
        .ok_or_else(|| bad_data("unexpected end of file".to_string()))?
}

fn parse_f64s(line: &str, expected: usize) -> io::Result<Vec<f64>> {
    let vals: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse::<f64>).collect();
    let vals = vals.map_err(|e| bad_data(format!("bad number in {line:?}: {e}")))?;
    if vals.len() != expected {
        return Err(bad_data(format!(
            "expected {expected} values, found {} in {line:?}",
            vals.len()
        )));
    }
    Ok(vals)
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ScalarGrid;

    fn sample_grid() -> RegularGrid {
        let dom = Rect::new(Vec2::new(-1.0, 0.0), Vec2::new(2.0, 1.5));
        RegularGrid::from_fn(7, 5, dom, |p| Vec2::new(p.x * 2.0, p.y - p.x))
    }

    #[test]
    fn vector_grid_roundtrip_preserves_samples_and_domain() {
        let g = sample_grid();
        let mut buf = Vec::new();
        write_vector_grid(&g, &mut buf).unwrap();
        let back = read_vector_grid(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.nx(), g.nx());
        assert_eq!(back.ny(), g.ny());
        assert_eq!(back.domain(), g.domain());
        for (a, b) in g.samples().iter().zip(back.samples()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scalar_grid_roundtrip() {
        let dom = Rect::new(Vec2::ZERO, Vec2::new(1.0, 1.0));
        let g = ScalarGrid::from_fn(4, 6, dom, |p| p.x * 10.0 + p.y);
        let mut buf = Vec::new();
        write_scalar_grid(&g, &mut buf).unwrap();
        let back = read_scalar_grid(io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back.nx(), 4);
        assert_eq!(back.ny(), 6);
        for (a, b) in g.samples().iter().zip(back.samples()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reject_wrong_magic() {
        let data = b"not-a-grid\n1 2 3 4 5 6\n";
        let err = read_vector_grid(io::BufReader::new(&data[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reject_truncated_body() {
        let g = sample_grid();
        let mut buf = Vec::new();
        write_vector_grid(&g, &mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        let err = read_vector_grid(io::BufReader::new(truncated)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reject_malformed_numbers() {
        let data = format!("{VECTOR_MAGIC}\n2 2 0 0 1 1\nfoo bar\n0 0\n0 0\n0 0\n");
        let err = read_vector_grid(io::BufReader::new(data.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn reject_bad_shape() {
        let data = format!("{VECTOR_MAGIC}\n1 2 0 0 1 1\n");
        let err = read_vector_grid(io::BufReader::new(data.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("flowfield_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.txt");
        let g = sample_grid();
        save_vector_grid(&g, &path).unwrap();
        let back = load_vector_grid(&path).unwrap();
        assert_eq!(back.samples(), g.samples());
        let _ = std::fs::remove_file(&path);
    }

    /// Magic line identifying a serialized scalar grid.
    const SCALAR_MAGIC: &str = "spotnoise-scalar-grid-v1";

    /// Serialises a scalar grid into the text format.
    fn write_scalar_grid(grid: &ScalarGrid, mut w: impl Write) -> io::Result<()> {
        let d = grid.domain();
        let mut out = String::new();
        let _ = writeln!(out, "{SCALAR_MAGIC}");
        let _ = writeln!(
            out,
            "{} {} {} {} {} {}",
            grid.nx(),
            grid.ny(),
            d.min.x,
            d.min.y,
            d.max.x,
            d.max.y
        );
        for v in grid.samples() {
            let _ = writeln!(out, "{v}");
        }
        w.write_all(out.as_bytes())
    }

    /// Deserialises a scalar grid from the text format.
    fn read_scalar_grid(r: impl BufRead) -> io::Result<ScalarGrid> {
        let mut lines = r.lines();
        let magic = next_line(&mut lines)?;
        if magic.trim() != SCALAR_MAGIC {
            return Err(bad_data(format!("unexpected magic line: {magic:?}")));
        }
        let header = next_line(&mut lines)?;
        let nums = parse_f64s(&header, 6)?;
        let nx = nums[0] as usize;
        let ny = nums[1] as usize;
        if nx < 2 || ny < 2 {
            return Err(bad_data(format!("invalid grid shape {nx}x{ny}")));
        }
        let domain = Rect::new(Vec2::new(nums[2], nums[3]), Vec2::new(nums[4], nums[5]));
        let mut grid = ScalarGrid::zeros(nx, ny, domain);
        for j in 0..ny {
            for i in 0..nx {
                let line = next_line(&mut lines)?;
                let v = parse_f64s(&line, 1)?;
                *grid.node_mut(i, j) = v[0];
            }
        }
        Ok(grid)
    }
}
