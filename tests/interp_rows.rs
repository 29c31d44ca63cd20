//! A linear table is its vertex values.
//!
//! A DTFE, stochastic or `ScalarField` table stores one value per vertex;
//! the interpolant row of a tetrahedron (Eq. 1) is derived from its four
//! values. The element projector derives each row where it sets a
//! tetrahedron up, and the march, its reference and the walking baseline
//! read the rows the first of them writes. Both go through one function, so:
//!
//! * a derived row is the written row, bit for bit, on every finite slot of
//!   every linear table — DTFE, a two-realization stochastic table and a
//!   `ScalarField` — on clustered, jittered, duplicate-carrying, Kronecker
//!   quasi-lattice and float-flat (zero-gradient) meshes;
//! * building a field or projecting it writes no rows, and a march writes
//!   them once;
//! * projected renders keep the bits they had while every table stored its
//!   rows: full depth, under a window (gathered) and scanning the mesh, on
//!   the clustered, Kronecker and flat meshes, pinned as FNV-1a checksums.

use dtfe_repro::core::marching::{surface_density_by, Kernel};
use dtfe_repro::core::{
    DtfeField, FieldEstimator, GridSpec2, HullIndex, LinearTable, MarchOptions, ScalarField,
    SlotValues, StochasticField, StochasticOptions,
};
use dtfe_repro::geometry::{Vec2, Vec3};

mod common;

use common::*;

/// The Kronecker quasi-lattice of `tests/projector.rs`: 2,000 points whose
/// centre lines graze projected edges and vertices all over a 64² grid.
fn kronecker() -> Vec<Vec3> {
    (1..=2000)
        .map(|i| {
            let i = i as f64;
            Vec3::new(
                (i * 0.618034).fract(),
                (i * 0.414214).fract(),
                (i * 0.259921).fract(),
            ) * 4.0
        })
        .collect()
}

/// Points on a plane tilted in x and y, rounded, with five points above
/// and below it: three of the tetrahedra between the rounded plane's points
/// are positive exactly but flat in floating point, so their rows fall
/// back to a zero gradient.
fn flat() -> Vec<Vec3> {
    let mut pts = Vec::new();
    for i in 0..7 {
        for j in 0..7 {
            let (x, y) = (i as f64 * 0.37 + (j % 2) as f64 * 0.11, j as f64 * 0.29);
            pts.push(Vec3::new(x, y, 1.0 + 0.37 * x - 0.21 * y));
        }
    }
    for (x, y, z) in [
        (1.0, 0.7, 0.2),
        (1.4, 1.1, 3.0),
        (0.3, 1.5, 0.1),
        (2.0, 0.4, 2.9),
        (1.1, 1.9, 2.5),
    ] {
        pts.push(Vec3::new(x, y, z));
    }
    pts
}

/// A fixture cloud, a grid dense enough to project over its footprint,
/// and a window inside its z-extent.
type Fixture = (&'static str, Vec<Vec3>, GridSpec2, (f64, f64));

fn fixtures() -> Vec<Fixture> {
    let six = GridSpec2::covering(Vec2::new(-0.1, 0.2), Vec2::new(6.2, 5.9), 57, 53);
    let four = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(4.0, 4.0), 64, 64);
    let plane = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(2.4, 1.8), 32, 32);
    let mut out: Vec<_> = clouds()
        .into_iter()
        .map(|(name, pts)| (name, pts, six, (1.5, 4.5)))
        .collect();
    out.push(("kronecker", kronecker(), four, (1.0, 2.5)));
    out.push(("flat", flat(), plane, (0.8, 1.6)));
    out
}

/// A linear field's table.
fn linear(field: &impl FieldEstimator) -> &LinearTable {
    match field.view().values {
        SlotValues::Linear(table) => table,
        SlotValues::Constant(_) => panic!("a vertex field is linear"),
    }
}

#[test]
fn derived_rows_are_the_written_rows() {
    let opts = StochasticOptions::new().realizations(2).seed(77);
    for (cloud, pts, grid, _) in fixtures() {
        let dtfe = DtfeField::build(&pts, masses(pts.len())).unwrap();
        let stochastic = StochasticField::build(&pts, masses(pts.len()), opts).unwrap();
        let heights: Vec<f64> = (dtfe.delaunay().vertices().iter())
            .map(|p| p.z * p.x)
            .collect();
        let scalar = ScalarField::new(dtfe.mesh(), heights);

        // A projected render derives its rows and writes none.
        let render = MarchOptions::new().parallel(false);
        let index = HullIndex::build(&dtfe);
        surface_density_by(&dtfe, &index, &grid, &render, Kernel::Project);
        let tables = [
            ("dtfe", linear(&dtfe), dtfe.delaunay()),
            ("stochastic:2", linear(&stochastic), stochastic.delaunay()),
            ("scalar", linear(&scalar), scalar.delaunay()),
        ];
        let mut zero_gradients = 0;
        for (name, table, del) in tables {
            let at = format!("{cloud}/{name}");
            assert!(table.written_rows().is_none(), "{at}: rows before a march");
            let rows = table.rows(del);
            assert!(std::ptr::eq(rows, table.written_rows().unwrap()), "{at}");
            assert_eq!(rows.len(), del.num_slots(), "{at}");
            for t in del.finite_tets() {
                let (derived, written) = (table.row(del, t), rows[t as usize]);
                let bits = |r: dtfe_repro::core::density::TetInterp| {
                    [r.rho0, r.grad.x, r.grad.y, r.grad.z].map(f64::to_bits)
                };
                assert_eq!(bits(derived), bits(written), "{at}: slot {t}");
                zero_gradients += (written.grad == Vec3::ZERO) as usize;
            }
        }
        if cloud == "flat" {
            assert!(zero_gradients >= 3, "the fixture has float-flat tetrahedra");
        }
    }
}

/// `(cloud, estimator, render)` → FNV-1a checksum of each projected render.
fn projected_checksums() -> Vec<(String, u64)> {
    let opts = StochasticOptions::new().realizations(2).seed(77);
    let mut out = Vec::new();
    for (cloud, pts, grid, (lo, hi)) in fixtures() {
        if cloud != "clustered" && cloud != "kronecker" && cloud != "flat" {
            continue;
        }
        let dtfe = DtfeField::build(&pts, masses(pts.len())).unwrap();
        let stochastic = StochasticField::build(&pts, masses(pts.len()), opts).unwrap();
        let heights: Vec<f64> = (dtfe.delaunay().vertices().iter())
            .map(|p| p.z * p.x)
            .collect();
        let scalar = ScalarField::new(dtfe.mesh(), heights);
        let fields: [(&str, &dyn FieldEstimator); 3] = [
            ("dtfe", &dtfe),
            ("stochastic:2", &stochastic),
            ("scalar", &scalar),
        ];
        let full = MarchOptions::new().parallel(false);
        let window = full.clone().z_range(lo, hi);
        for (name, field) in fields {
            let index = HullIndex::build(field);
            for (render, opts, kernel) in [
                ("full", &full, Kernel::Project),
                ("window", &window, Kernel::Project),
                ("window-scan", &window, Kernel::ProjectScan),
            ] {
                let (sigma, _) = surface_density_by(field, &index, &grid, opts, kernel);
                let what = format!("{cloud}/{name}/{render}");
                assert!(sigma.data.iter().any(|&v| v != 0.0), "{what}");
                out.push((what, fnv(&sigma.data)));
            }
        }
    }
    out
}

/// Taken while every linear table stored its rows.
const PINNED: [(&str, u64); 27] = [
    ("clustered/dtfe/full", 0x94bf84cdebeec560),
    ("clustered/dtfe/window", 0x1479ca162cb2cf02),
    ("clustered/dtfe/window-scan", 0x1479ca162cb2cf02),
    ("clustered/stochastic:2/full", 0x7652c86c90d62065),
    ("clustered/stochastic:2/window", 0xeedec1746d50b093),
    ("clustered/stochastic:2/window-scan", 0xeedec1746d50b093),
    ("clustered/scalar/full", 0x0d49b45d34846d06),
    ("clustered/scalar/window", 0x1898e730dff2787b),
    ("clustered/scalar/window-scan", 0x1898e730dff2787b),
    ("kronecker/dtfe/full", 0x37e38f24c4a8f596),
    ("kronecker/dtfe/window", 0xd1bf16a96003acc7),
    ("kronecker/dtfe/window-scan", 0xd1bf16a96003acc7),
    ("kronecker/stochastic:2/full", 0xfb46067e68cda6ea),
    ("kronecker/stochastic:2/window", 0x276480b9b26662cc),
    ("kronecker/stochastic:2/window-scan", 0x276480b9b26662cc),
    ("kronecker/scalar/full", 0x701bf452a31dc8df),
    ("kronecker/scalar/window", 0x7ee1754888d5cada),
    ("kronecker/scalar/window-scan", 0x7ee1754888d5cada),
    ("flat/dtfe/full", 0x7c2e879738f94622),
    ("flat/dtfe/window", 0x59bffb4245f8bbf8),
    ("flat/dtfe/window-scan", 0x59bffb4245f8bbf8),
    ("flat/stochastic:2/full", 0x384b4c609cac4985),
    ("flat/stochastic:2/window", 0x1604f812a9673305),
    ("flat/stochastic:2/window-scan", 0x1604f812a9673305),
    ("flat/scalar/full", 0x4f471b322037617d),
    ("flat/scalar/window", 0x2565948717c7aac4),
    ("flat/scalar/window-scan", 0x2565948717c7aac4),
];

#[test]
fn projected_renders_keep_their_bits() {
    let got = projected_checksums();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, s)| (n.to_string(), s)).collect();
    assert_eq!(got, pinned);
}
