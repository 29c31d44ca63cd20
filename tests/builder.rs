//! Contracts of the one triangulation builder that every path — batch item,
//! served tile, cluster shard — builds through.
//!
//! * **Order invariance**: the insertion order is a function of the point
//!   set, so the same particles in any sequence give the same tetrahedra and
//!   a rendered field with the same bits. Served == batch == cluster bytes
//!   rests on this: those paths cut the same particles out of a snapshot in
//!   different sequences.
//! * **Insertion locality**: a deterministic work-counter guard. Wall times
//!   swing ±30 % on a shared host; predicate calls per inserted point do not
//!   swing at all, and they are what a worse insertion order inflates.

use dtfe_repro::core::{surface_density, DtfeField, GridSpec2, MarchOptions, Mass};
use dtfe_repro::delaunay::{Delaunay, DelaunayBuilder};
use dtfe_repro::geometry::{Aabb3, Vec2, Vec3};
use dtfe_repro::nbody::halos::{clustered_box, ClusteredBoxSpec};
use dtfe_repro::telemetry::Recorder;

/// A tile's worth of clustered particles: sixteen NFW halos over a uniform
/// background, the shape `serve_churn` builds on every request.
fn clustered_tile(n: usize, seed: u64) -> Vec<Vec3> {
    let bounds = Aabb3::new(Vec3::ZERO, Vec3::splat(12.0));
    let mut spec = ClusteredBoxSpec::new(bounds, n, 16, seed);
    spec.occupation_range = (100.0, 1000.0);
    clustered_box(&spec).0
}

/// Fisher–Yates under a seeded xorshift.
fn shuffled(pts: &[Vec3], seed: u64) -> Vec<Vec3> {
    let mut out = pts.to_vec();
    let mut s = seed | 1;
    for i in (1..out.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        out.swap(i, (s % (i as u64 + 1)) as usize);
    }
    out
}

/// The finite tetrahedra as sorted coordinate quadruples, sorted.
fn tetrahedra(d: &Delaunay) -> Vec<[[u64; 3]; 4]> {
    let mut tets: Vec<_> = d
        .finite_tets()
        .map(|t| {
            let mut v = d
                .tet_points(t)
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]);
            v.sort_unstable();
            v
        })
        .collect();
    tets.sort_unstable();
    tets
}

/// FNV-1a over the slot count, every slot's `verts` and `neighbors` (freed
/// slots included), every vertex's coordinate bits and the input → vertex
/// map: the builder's output slot for slot (`crates/delaunay/tests/identity.rs`
/// holds the degenerate families to the same hash).
fn mesh_hash(d: &Delaunay, n_inputs: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(d.num_slots() as u64);
    for t in 0..d.num_slots() {
        let tet = d.tet_slot(t as u32);
        tet.verts
            .iter()
            .chain(&tet.neighbors)
            .for_each(|&x| eat(x as u64));
    }
    for p in d.vertices() {
        [p.x, p.y, p.z].iter().for_each(|c| eat(c.to_bits()));
    }
    (0..n_inputs).for_each(|i| eat(d.vertex_of_input(i) as u64));
    h
}

fn assert_same_mesh_and_field(pts: &[Vec3], grid: &GridSpec2, what: &str) {
    let render = |pts: &[Vec3]| {
        let del = DelaunayBuilder::new().build(pts).expect("build");
        let tets = tetrahedra(&del);
        let field = DtfeField::from_delaunay_for_inputs(del, pts.len(), Mass::Uniform(1.0));
        let opts = MarchOptions::new().samples(2).parallel(false);
        (tets, surface_density(&field, grid, &opts))
    };
    let (tets, sigma) = render(pts);
    assert!(sigma.total_mass() > 0.0, "{what}: empty render");
    for seed in [3, 0xD1CE] {
        let (tets2, sigma2) = render(&shuffled(pts, seed));
        assert!(tets == tets2, "{what}: tetrahedra depend on the sequence");
        let same = sigma
            .data
            .iter()
            .zip(&sigma2.data)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what}: rendered bits depend on the sequence");
    }
}

#[test]
fn same_points_in_any_sequence_give_the_same_mesh_and_field() {
    let cloud = clustered_tile(3000, 11);
    let grid = GridSpec2::covering(Vec2::new(2.0, 2.0), Vec2::new(10.0, 10.0), 48, 48);
    assert_same_mesh_and_field(&cloud, &grid, "clustered cloud");

    // A lattice is cospherical everywhere (its Delaunay triangulation is
    // not unique) and every third site is present twice.
    let mut lattice = Vec::new();
    for i in 0..7 {
        for j in 0..7 {
            for k in 0..7 {
                lattice.push(Vec3::new(i as f64, j as f64, k as f64));
            }
        }
    }
    let dups: Vec<Vec3> = lattice.iter().step_by(3).copied().collect();
    lattice.extend(dups);
    let grid = GridSpec2::covering(Vec2::new(0.4, 0.4), Vec2::new(5.6, 5.6), 32, 32);
    assert_same_mesh_and_field(&lattice, &grid, "lattice with duplicates");
}

#[test]
fn insertion_locality_work_counters() {
    let pts = clustered_tile(8000, 5);
    let rec = Recorder::new("build");
    let guard = rec.install();
    let del = DelaunayBuilder::new().build(&pts).expect("build");
    drop(guard);
    // Taken at commit 2f99a04: a faster builder returns the same mesh, slot
    // for slot, or every star-volume sum and rendered bit downstream moves.
    assert_eq!(
        mesh_hash(&del, pts.len()),
        0xfe77_ac63_84a8_b1c6,
        "the clustered tile's mesh moved"
    );
    let m = rec.snapshot().metrics;
    let c = |name: &str| m.counter(name) as f64;
    let exact = c("geometry.orient3d_exact") + c("geometry.insphere_exact");
    let calls = exact + c("geometry.orient3d_filtered") + c("geometry.insphere_filtered");
    let per_point = calls / del.num_vertices() as f64;
    assert!(
        per_point > 20.0,
        "{per_point:.1} predicate calls per point: counters not recorded?"
    );
    // A debug build re-tests every located tetrahedron for conflict and every
    // created one for orientation through the same counted predicates: about
    // one more call per boundary facet, ~27 per point.
    let bound = if cfg!(debug_assertions) { 100.0 } else { 60.0 };
    assert!(
        per_point <= bound,
        "{per_point:.1} predicate calls per point (walks or cavities grew)"
    );
    // What those calls are made of, per inserted point: the cost model's
    // own primitives. Exact for the seed; the bounds leave a few percent.
    let n = del.num_vertices() as f64;
    let (walk, conflict, facets) = (
        c("delaunay.walk_steps") / n,
        c("delaunay.conflict_tets") / n,
        c("delaunay.cavity_facets") / n,
    );
    // Measured 7.16, 19.67 and 26.20.
    assert!(
        walk > 1.0 && walk <= 7.5,
        "{walk:.2} walk steps per point location"
    );
    assert!(
        conflict > 4.0 && conflict <= 20.3,
        "{conflict:.2} conflict tetrahedra per insert"
    );
    assert!(
        facets > 4.0 && facets <= 27.0,
        "{facets:.2} cavity facets per insert"
    );
    // Every insert creates one tetrahedron per facet and deletes its
    // conflict region: the books balance against the mesh.
    assert_eq!(
        c("delaunay.cavity_facets") - c("delaunay.conflict_tets"),
        (del.num_tets() + del.num_ghosts()) as f64 - 5.0,
        "facets created less tetrahedra deleted is what the mesh grew by"
    );
    assert!(
        exact / calls < 1e-3,
        "exact-arithmetic fallback on {:.2e} of predicate calls",
        exact / calls
    );
}
