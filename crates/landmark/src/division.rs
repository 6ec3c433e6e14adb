//! Subarea division (paper §IV-A.2).
//!
//! Rules from the paper: each subarea contains exactly one landmark, the
//! area between two landmarks is split evenly between their subareas, and
//! subareas do not overlap. Nearest-landmark (Voronoi) assignment
//! satisfies all three and is what we implement; [`SubareaGrid`]
//! rasterizes the division for Fig. 5-style maps.

use dtnflow_core::geometry::{nearest_site, Point, Rect};
use dtnflow_core::ids::LandmarkId;

/// A Voronoi subarea division induced by landmark positions.
#[derive(Debug, Clone)]
pub struct SubareaDivision {
    sites: Vec<Point>,
}

impl SubareaDivision {
    /// Create a division; panics when no landmarks are given.
    pub fn new(sites: Vec<Point>) -> Self {
        assert!(!sites.is_empty(), "division needs at least one landmark");
        SubareaDivision { sites }
    }

    /// Landmark positions.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// Number of subareas.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Always false (construction rejects empty site lists).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The subarea containing `p`: the nearest landmark, ties to the
    /// lowest landmark id (deterministic, non-overlapping).
    pub fn assign(&self, p: Point) -> LandmarkId {
        LandmarkId::from(nearest_site(&self.sites, p))
    }
}

/// A rasterized subarea division over a rectangle: per-cell landmark
/// assignment, area shares, and an ASCII rendering (the Fig. 5 map).
#[derive(Debug, Clone)]
pub struct SubareaGrid {
    division: SubareaDivision,
    area: Rect,
    cols: usize,
    rows: usize,
    cells: Vec<LandmarkId>,
}

impl SubareaGrid {
    /// Rasterize `division` over `area` with `cols x rows` cells.
    pub fn new(division: SubareaDivision, area: Rect, cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "grid must have at least one cell");
        let mut cells = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let p = Point::new(
                    area.min.x + (c as f64 + 0.5) / cols as f64 * area.width(),
                    area.min.y + (r as f64 + 0.5) / rows as f64 * area.height(),
                );
                cells.push(division.assign(p));
            }
        }
        SubareaGrid {
            division,
            area,
            cols,
            rows,
            cells,
        }
    }

    /// The underlying continuous division.
    pub fn division(&self) -> &SubareaDivision {
        &self.division
    }

    /// The landmark assigned to grid cell `(col, row)`.
    pub fn cell(&self, col: usize, row: usize) -> LandmarkId {
        assert!(col < self.cols && row < self.rows, "cell out of range");
        self.cells[row * self.cols + col]
    }

    /// Fraction of cells assigned to each landmark (sums to 1).
    pub fn area_shares(&self) -> Vec<f64> {
        let mut counts = vec![0usize; self.division.len()];
        for lm in &self.cells {
            counts[lm.index()] += 1;
        }
        counts
            .into_iter()
            .map(|c| c as f64 / self.cells.len() as f64)
            .collect()
    }

    /// ASCII map: one character per cell (`0`–`9`, then `a`–`z`, then `+`),
    /// with the landmark's own cell marked `*`. Row 0 is the top
    /// (max-y) edge, like a map.
    pub fn render_ascii(&self) -> String {
        let glyph = |lm: LandmarkId| -> char {
            let i = lm.index();
            match i {
                0..=9 => (b'0' + i as u8) as char,
                10..=35 => (b'a' + (i - 10) as u8) as char,
                _ => '+',
            }
        };
        // Which cell holds each landmark's site?
        let mut site_cells = vec![usize::MAX; self.division.len()];
        for (i, s) in self.division.sites().iter().enumerate() {
            if self.area.contains(*s) {
                let c = (((s.x - self.area.min.x) / self.area.width() * self.cols as f64) as usize)
                    .min(self.cols - 1);
                let r = (((s.y - self.area.min.y) / self.area.height() * self.rows as f64)
                    as usize)
                    .min(self.rows - 1);
                site_cells[i] = r * self.cols + c;
            }
        }
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for r in (0..self.rows).rev() {
            for c in 0..self.cols {
                let idx = r * self.cols + c;
                let lm = self.cells[idx];
                if site_cells[lm.index()] == idx {
                    out.push('*');
                } else {
                    out.push(glyph(lm));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_sites() -> SubareaDivision {
        SubareaDivision::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)])
    }

    #[test]
    fn each_landmark_is_in_its_own_subarea() {
        let d = two_sites();
        assert_eq!(d.assign(Point::new(0.0, 0.0)), LandmarkId(0));
        assert_eq!(d.assign(Point::new(10.0, 0.0)), LandmarkId(1));
    }

    #[test]
    fn area_between_two_landmarks_splits_at_midpoint() {
        let d = two_sites();
        assert_eq!(d.assign(Point::new(4.9, 3.0)), LandmarkId(0));
        assert_eq!(d.assign(Point::new(5.1, -3.0)), LandmarkId(1));
        // The midpoint itself belongs to exactly one subarea (no overlap).
        assert_eq!(d.assign(Point::new(5.0, 0.0)), LandmarkId(0));
    }

    #[test]
    fn grid_covers_all_and_shares_sum_to_one() {
        let d = two_sites();
        let g = SubareaGrid::new(
            d,
            Rect::new(Point::new(-5.0, -5.0), Point::new(15.0, 5.0)),
            20,
            10,
        );
        let shares = g.area_shares();
        assert_eq!(shares.len(), 2);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Symmetric layout: both subareas get half the area.
        assert!((shares[0] - 0.5).abs() < 0.05, "share {}", shares[0]);
    }

    #[test]
    fn ascii_render_marks_sites_and_is_rectangular() {
        let d = two_sites();
        let g = SubareaGrid::new(
            d,
            Rect::new(Point::new(-5.0, -5.0), Point::new(15.0, 5.0)),
            10,
            4,
        );
        let art = g.render_ascii();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == 10));
        assert_eq!(art.matches('*').count(), 2);
        assert!(art.contains('0'));
        assert!(art.contains('1'));
    }

    #[test]
    #[should_panic(expected = "at least one landmark")]
    fn rejects_empty_division() {
        SubareaDivision::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "cell out of range")]
    fn cell_bounds_checked() {
        let g = SubareaGrid::new(two_sites(), Rect::from_size(10.0, 10.0), 2, 2);
        g.cell(2, 0);
    }
}
