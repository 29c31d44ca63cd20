//! Grid specifications and gridded field containers.

use dtfe_geometry::{Aabb2, Vec2, Vec3};

/// Typed rejection of malformed grid geometry, surfaced at construction
/// instead of as NaN-filled fields deep inside a marching kernel (the
/// serving layer validates remote requests through these).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GridError {
    /// `nx` or `ny` (or `nz`) is zero.
    EmptyResolution,
    /// A bound coordinate is NaN or infinite.
    NonFiniteExtent,
    /// `hi <= lo` on some axis: the grid would have zero or negative area.
    InvertedExtent,
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyResolution => write!(f, "grid resolution must be at least 1×1"),
            GridError::NonFiniteExtent => write!(f, "grid extent has a non-finite coordinate"),
            GridError::InvertedExtent => {
                write!(f, "grid extent is inverted or zero-area (hi <= lo)")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// A regular 2D grid: `nx × ny` cells of size `cell`, lower-left corner at
/// `origin`. Cell `(i, j)` covers
/// `[origin.x + i·cell.x, origin.x + (i+1)·cell.x) × [...)` and its
/// representative point `ξ` is the cell centre (paper §III-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridSpec2 {
    pub origin: Vec2,
    pub cell: Vec2,
    pub nx: usize,
    pub ny: usize,
}

impl GridSpec2 {
    /// Grid covering `[lo, hi]` with `nx × ny` cells. Panics on malformed
    /// input; use [`GridSpec2::try_covering`] to validate untrusted input.
    pub fn covering(lo: Vec2, hi: Vec2, nx: usize, ny: usize) -> Self {
        match Self::try_covering(lo, hi, nx, ny) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`GridSpec2::covering`], rejecting malformed geometry with a typed
    /// [`GridError`] instead of panicking — non-finite bounds, inverted or
    /// zero-area extents, and zero resolutions are all caught here, before
    /// they can surface as NaN-filled fields out of a render kernel.
    pub fn try_covering(lo: Vec2, hi: Vec2, nx: usize, ny: usize) -> Result<Self, GridError> {
        if nx == 0 || ny == 0 {
            return Err(GridError::EmptyResolution);
        }
        if !(lo.x.is_finite() && lo.y.is_finite() && hi.x.is_finite() && hi.y.is_finite()) {
            return Err(GridError::NonFiniteExtent);
        }
        if hi.x <= lo.x || hi.y <= lo.y {
            return Err(GridError::InvertedExtent);
        }
        Ok(GridSpec2 {
            origin: lo,
            cell: Vec2::new((hi.x - lo.x) / nx as f64, (hi.y - lo.y) / ny as f64),
            nx,
            ny,
        })
    }

    /// Square grid of side `len` centred on `c` with `n × n` cells — the
    /// shape of the paper's per-object fields (length `l_F`, resolution
    /// `N_g`).
    pub fn square(c: Vec2, len: f64, n: usize) -> Self {
        let h = len * 0.5;
        Self::covering(c - Vec2::new(h, h), c + Vec2::new(h, h), n, n)
    }

    /// As [`GridSpec2::square`], with typed validation (`len` must be finite
    /// and positive, `n` at least 1, `c` finite).
    pub fn try_square(c: Vec2, len: f64, n: usize) -> Result<Self, GridError> {
        if !len.is_finite() {
            return Err(GridError::NonFiniteExtent);
        }
        let h = len * 0.5;
        Self::try_covering(c - Vec2::new(h, h), c + Vec2::new(h, h), n, n)
    }

    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny
    }

    /// Centre of cell `(i, j)`.
    #[inline]
    pub fn center(&self, i: usize, j: usize) -> Vec2 {
        Vec2::new(
            self.origin.x + (i as f64 + 0.5) * self.cell.x,
            self.origin.y + (j as f64 + 0.5) * self.cell.y,
        )
    }

    /// Cell area `Δx·Δy`.
    #[inline]
    pub fn cell_area(&self) -> f64 {
        self.cell.x * self.cell.y
    }

    #[inline]
    pub fn bounds(&self) -> Aabb2 {
        Aabb2::new(
            self.origin,
            Vec2::new(
                self.origin.x + self.cell.x * self.nx as f64,
                self.origin.y + self.cell.y * self.ny as f64,
            ),
        )
    }
}

/// A regular 3D grid (used only by the walking baseline and the TESS
/// analog, which need the intermediate 3D representation our kernel avoids).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridSpec3 {
    pub origin: Vec3,
    pub cell: Vec3,
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
}

impl GridSpec3 {
    /// Grid covering `[lo, hi]` with `nx × ny × nz` cells.
    pub fn covering(lo: Vec3, hi: Vec3, nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "empty grid");
        GridSpec3 {
            origin: lo,
            cell: Vec3::new(
                (hi.x - lo.x) / nx as f64,
                (hi.y - lo.y) / ny as f64,
                (hi.z - lo.z) / nz as f64,
            ),
            nx,
            ny,
            nz,
        }
    }

    /// The 3D grid over `bounds` whose x-y footprint matches `spec` and with
    /// `nz` cells along the line of sight.
    pub fn lift(spec: &GridSpec2, zlo: f64, zhi: f64, nz: usize) -> Self {
        let b = spec.bounds();
        Self::covering(b.lo.with_z(zlo), b.hi.with_z(zhi), spec.nx, spec.ny, nz)
    }

    #[inline]
    pub fn num_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Centre of cell `(i, j, k)`.
    #[inline]
    pub fn center(&self, i: usize, j: usize, k: usize) -> Vec3 {
        Vec3::new(
            self.origin.x + (i as f64 + 0.5) * self.cell.x,
            self.origin.y + (j as f64 + 0.5) * self.cell.y,
            self.origin.z + (k as f64 + 0.5) * self.cell.z,
        )
    }

    /// The 2D footprint.
    pub fn footprint(&self) -> GridSpec2 {
        GridSpec2 {
            origin: self.origin.xy(),
            cell: self.cell.xy(),
            nx: self.nx,
            ny: self.ny,
        }
    }
}

/// A scalar field on a [`GridSpec2`] (row-major: `data[j * nx + i]`).
#[derive(Clone, Debug)]
pub struct Field2 {
    pub spec: GridSpec2,
    pub data: Vec<f64>,
}

impl Field2 {
    pub fn zeros(spec: GridSpec2) -> Self {
        Field2 {
            data: vec![0.0; spec.num_cells()],
            spec,
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[j * self.spec.nx + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[j * self.spec.nx + i] = v;
    }

    /// `Σ_ij value · Δx·Δy` — for a surface density field this is the total
    /// mass in the grid footprint, the quantity DTFE conserves.
    pub fn total_mass(&self) -> f64 {
        self.data.iter().sum::<f64>() * self.spec.cell_area()
    }

    pub fn min_max(&self) -> (f64, f64) {
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Element-wise `log10(self / other)` — the paper's Fig. 8c ratio map.
    /// Cells where either field is non-positive yield `NaN`.
    pub fn log10_ratio(&self, other: &Field2) -> Field2 {
        assert_eq!(self.spec, other.spec, "grids differ");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                if a > 0.0 && b > 0.0 {
                    (a / b).log10()
                } else {
                    f64::NAN
                }
            })
            .collect();
        Field2 {
            spec: self.spec,
            data,
        }
    }

    /// Histogram of finite values in `[lo, hi]` over `bins` equal bins —
    /// used for the Fig. 8d ratio histogram and Fig. 11 error histograms.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Vec<usize> {
        histogram(self.data.iter().copied(), lo, hi, bins)
    }
}

/// Histogram of the finite values of an iterator (shared by several
/// experiment harnesses).
pub fn histogram(
    values: impl IntoIterator<Item = f64>,
    lo: f64,
    hi: f64,
    bins: usize,
) -> Vec<usize> {
    assert!(bins > 0 && hi > lo);
    let mut h = vec![0usize; bins];
    let w = (hi - lo) / bins as f64;
    for v in values {
        if v.is_finite() && v >= lo && v < hi {
            h[((v - lo) / w) as usize] += 1;
        }
    }
    h
}

/// A scalar field on a [`GridSpec3`] (`data[(k * ny + j) * nx + i]`).
#[derive(Clone, Debug)]
pub struct Field3 {
    pub spec: GridSpec3,
    pub data: Vec<f64>,
}

impl Field3 {
    pub fn zeros(spec: GridSpec3) -> Self {
        Field3 {
            data: vec![0.0; spec.num_cells()],
            spec,
        }
    }

    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[(k * self.spec.ny + j) * self.spec.nx + i]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        self.data[(k * self.spec.ny + j) * self.spec.nx + i] = v;
    }

    /// Collapse along z: `Σ_k ρ_ijk Δz` (paper Eq. 4) — how the 3D-grid
    /// methods obtain surface density.
    pub fn project_z(&self) -> Field2 {
        let mut out = Field2::zeros(self.spec.footprint());
        let dz = self.spec.cell.z;
        for k in 0..self.spec.nz {
            for j in 0..self.spec.ny {
                for i in 0..self.spec.nx {
                    out.data[j * self.spec.nx + i] += self.at(i, j, k) * dz;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2_centers_and_area() {
        let g = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(4.0, 2.0), 4, 2);
        assert_eq!(g.cell, Vec2::new(1.0, 1.0));
        assert_eq!(g.center(0, 0), Vec2::new(0.5, 0.5));
        assert_eq!(g.center(3, 1), Vec2::new(3.5, 1.5));
        assert_eq!(g.cell_area(), 1.0);
        assert_eq!(g.num_cells(), 8);
    }

    #[test]
    fn try_constructors_reject_malformed_extents() {
        let lo = Vec2::new(0.0, 0.0);
        let hi = Vec2::new(2.0, 2.0);
        assert!(GridSpec2::try_covering(lo, hi, 4, 4).is_ok());
        assert_eq!(
            GridSpec2::try_covering(lo, hi, 0, 4),
            Err(GridError::EmptyResolution)
        );
        assert_eq!(
            GridSpec2::try_covering(Vec2::new(f64::NAN, 0.0), hi, 4, 4),
            Err(GridError::NonFiniteExtent)
        );
        assert_eq!(
            GridSpec2::try_covering(lo, Vec2::new(f64::INFINITY, 2.0), 4, 4),
            Err(GridError::NonFiniteExtent)
        );
        assert_eq!(
            GridSpec2::try_covering(hi, lo, 4, 4),
            Err(GridError::InvertedExtent)
        );
        // Zero-area: hi == lo on one axis.
        assert_eq!(
            GridSpec2::try_covering(lo, Vec2::new(2.0, 0.0), 4, 4),
            Err(GridError::InvertedExtent)
        );
        assert_eq!(
            GridSpec2::try_square(Vec2::new(1.0, 1.0), 0.0, 4),
            Err(GridError::InvertedExtent)
        );
        assert_eq!(
            GridSpec2::try_square(Vec2::new(1.0, 1.0), f64::NAN, 4),
            Err(GridError::NonFiniteExtent)
        );
        assert_eq!(
            GridSpec2::try_square(Vec2::new(1.0, 1.0), 2.0, 0),
            Err(GridError::EmptyResolution)
        );
        // The panicking constructor still matches the Ok path exactly.
        assert_eq!(
            GridSpec2::try_covering(lo, hi, 3, 5).unwrap(),
            GridSpec2::covering(lo, hi, 3, 5)
        );
    }

    #[test]
    fn grid2_square() {
        let g = GridSpec2::square(Vec2::new(1.0, 1.0), 2.0, 4);
        assert_eq!(g.origin, Vec2::new(0.0, 0.0));
        assert_eq!(g.bounds().hi, Vec2::new(2.0, 2.0));
    }

    #[test]
    fn field2_mass_and_ratio() {
        let g = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(2.0, 2.0), 2, 2);
        let mut a = Field2::zeros(g);
        a.data.fill(3.0);
        assert!((a.total_mass() - 12.0).abs() < 1e-12);
        let mut b = Field2::zeros(g);
        b.data.fill(0.3);
        let r = a.log10_ratio(&b);
        for v in &r.data {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let (lo, hi) = a.min_max();
        assert_eq!((lo, hi), (3.0, 3.0));
    }

    #[test]
    fn log_ratio_nan_on_nonpositive() {
        let g = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(1.0, 1.0), 1, 1);
        let mut a = Field2::zeros(g);
        let b = Field2::zeros(g);
        a.data[0] = 1.0;
        assert!(a.log10_ratio(&b).data[0].is_nan());
    }

    #[test]
    fn histogram_bins() {
        let h = histogram([0.1, 0.2, 0.9, 1.5, f64::NAN, -0.5], 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 1]);
    }

    #[test]
    fn field3_projection() {
        let g3 = GridSpec3::covering(Vec3::ZERO, Vec3::new(2.0, 2.0, 4.0), 2, 2, 4);
        let mut f = Field3::zeros(g3);
        // Uniform density 5: projection = 5 * Lz = 20 everywhere.
        f.data.fill(5.0);
        let p = f.project_z();
        for v in &p.data {
            assert!((v - 20.0).abs() < 1e-12);
        }
        // Total mass: 20 * area(4) = 80 = 5 * volume(16).
        assert!((p.total_mass() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn grid3_lift_matches_footprint() {
        let g2 = GridSpec2::square(Vec2::new(0.0, 0.0), 2.0, 8);
        let g3 = GridSpec3::lift(&g2, -1.0, 1.0, 16);
        assert_eq!(g3.footprint(), g2);
        assert_eq!(g3.nz, 16);
    }
}
