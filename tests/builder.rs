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
//! * **The render-time topology is the builder's mesh**: slot numbers from a
//!   breadth-first search computed here, every vertex array verbatim and
//!   positively oriented exactly — as the march reads it, slivers whose
//!   float determinant says otherwise included — and a valid Delaunay
//!   triangulation.
//! * **Scale range**: a cloud whose scale the predicates or the DTFE
//!   interpolant cannot carry is a typed error, not a wrong field.

use dtfe_repro::core::{surface_density, DtfeField, GridSpec2, MarchOptions, Mass};
use dtfe_repro::delaunay::{BuildError, Delaunay, DelaunayBuilder, TetId, NONE};
use dtfe_repro::geometry::predicates::{orient3d, orient3d_det};
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

/// Uniform in [0, 1) from a seeded xorshift64*.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The builder's live slots in breadth-first order over facet adjacency
/// (neighbours in index order) from its first live ghost slot, stragglers
/// appended in slot order.
fn bfs_slots(d: &Delaunay) -> Vec<TetId> {
    let n = d.num_slots() as TetId;
    let live = |t: TetId| d.tet_slot(t).is_live();
    let mut seen = vec![false; n as usize];
    let mut order = Vec::new();
    let start = (0..n).find(|&t| live(t) && d.tet_slot(t).is_ghost());
    order.extend(start);
    start.into_iter().for_each(|s| seen[s as usize] = true);
    let mut head = 0;
    while let Some(&t) = order.get(head) {
        head += 1;
        for nb in d.tet_slot(t).neighbors {
            if nb != NONE && live(nb) && !seen[nb as usize] {
                seen[nb as usize] = true;
                order.push(nb);
            }
        }
    }
    order.extend((0..n).filter(|&t| live(t) && !seen[t as usize]));
    order
}

#[test]
fn the_render_topology_is_the_builders_mesh_renumbered() {
    let jittered: Vec<Vec3> = {
        let mut r = uniform(53);
        (0..6 * 6 * 6)
            .map(|i| {
                let c = Vec3::new((i % 6) as f64, (i / 6 % 6) as f64, (i / 36) as f64);
                c + Vec3::new(r(), r(), r()) * 0.3
            })
            .collect()
    };
    let duplicates: Vec<Vec3> = {
        let mut r = uniform(29);
        let mut pts: Vec<Vec3> = (0..300).map(|_| Vec3::new(r(), r(), r()) * 6.0).collect();
        let copies: Vec<Vec3> = pts.iter().step_by(5).copied().collect();
        pts.extend(copies);
        pts
    };
    let lattice: Vec<Vec3> = (0..64)
        .map(|i| Vec3::new((i % 4) as f64, (i / 4 % 4) as f64, (i / 16) as f64))
        .collect();
    // A tilted sheet a few ulps thick: its tetrahedra are slivers whose
    // float orientation can disagree with the exact one.
    let sheet: Vec<Vec3> = {
        let mut r = uniform(71);
        (0..200)
            .map(|_| {
                let (x, y) = (r(), r());
                Vec3::new(x, y, 1.0 - x - y + 1e-15 * r())
            })
            .collect()
    };
    let clouds = [
        ("clustered", clustered_tile(1500, 7)),
        ("jittered lattice", jittered),
        ("duplicates", duplicates),
        ("4³ lattice", lattice),
        ("sheet", sheet),
    ];
    let mut float_inverted = 0;
    for (what, pts) in clouds {
        let raw = DelaunayBuilder::new().build(&pts).unwrap();
        let del = DelaunayBuilder::new().build(&pts).unwrap().into_topology();
        let topo = del.topology().expect("laid out");
        assert!(
            topo.positions().is_none(),
            "{what}: links only until a march"
        );
        let positions = topo.march_positions(del.vertices());
        let order = bfs_slots(&raw);
        assert_eq!(
            del.num_slots(),
            order.len(),
            "{what}: one record per live slot"
        );
        assert_eq!(topo.len(), order.len(), "{what}");
        let mut new_of = vec![NONE; raw.num_slots()];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = new as TetId;
        }
        for (new, &old) in order.iter().enumerate() {
            let (t, built) = (new as TetId, raw.tet_slot(old));
            let tet = del.tet(t);
            assert_eq!(tet.verts, built.verts, "{what}: slot {t} vertex array");
            assert_eq!(
                tet.neighbors,
                built.neighbors.map(|n| new_of[n as usize]),
                "{what}: slot {t} neighbours"
            );
            // The march's positions are the corners in the builder's
            // order, which is positive exactly: the orientation the march's
            // face table reads, whatever the float determinant says.
            let corners = if built.is_ghost() {
                let [a, b, c, _] = built.verts;
                let p = [a, b, c].map(|v| raw.vertex(v));
                [p[0], p[1], p[2], Vec3::ZERO]
            } else {
                let p = raw.tet_points(old);
                assert!(
                    orient3d(p[0], p[1], p[2], p[3]).is_positive(),
                    "{what}: slot {t} orientation"
                );
                float_inverted += (orient3d_det(p[0], p[1], p[2], p[3]) <= 0.0) as usize;
                p
            };
            assert_eq!(topo.tet(t).verts, built.verts, "{what}: slot {t} link");
            assert_eq!(positions[new], corners, "{what}: slot {t} positions");
            for (k, n) in tet.neighbors.into_iter().enumerate() {
                let back = del.tet(n).index_of_neighbor(t);
                assert!(back.is_some(), "{what}: slot {t} face {k} not reciprocal");
            }
        }
        del.validate().unwrap_or_else(|e| panic!("{what}: {e}"));
        del.validate_delaunay_global()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    // The sheet's slivers keep the exact orientation from being vacuous:
    // their float determinants disagree with it.
    assert!(float_inverted > 0, "no float determinant was inverted");
}

/// Grid mass of a 300-point cloud in `[0, s]³`, rendered over an 8×8 grid
/// covering it.
fn mass_at_scale(s: f64) -> Result<f64, BuildError> {
    let mut r = uniform(0x5CA1E);
    let pts: Vec<Vec3> = (0..300).map(|_| Vec3::new(r(), r(), r()) * s).collect();
    let field = DtfeField::build(&pts, Mass::Uniform(1.0))?;
    let grid = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(s, s), 8, 8);
    Ok(surface_density(&field, &grid, &MarchOptions::new().parallel(false)).total_mass())
}

#[test]
fn extreme_scales_render_the_unit_field_or_are_rejected() {
    let unit = mass_at_scale(1.0).unwrap();
    assert!(unit.is_finite() && unit > 250.0, "mass {unit}");
    for s in [1e50, 1e-50] {
        let m = mass_at_scale(s).unwrap();
        assert!(
            ((m - unit) / unit).abs() < 1e-12,
            "scale {s:e}: mass {m}, {unit} at scale 1"
        );
    }
    for s in [1e70, 1e-70, 1e100, 1e-100, 1e150, 1e-150] {
        assert!(
            matches!(mass_at_scale(s), Err(BuildError::OutOfRange { .. })),
            "scale {s:e} was not rejected"
        );
    }
    // One point beyond the bound names itself; a cloud that coincides is
    // degenerate, not out of range.
    let mut pts = vec![Vec3::new(0.0, 0.0, 0.0); 4];
    pts.extend([Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 3e57)]);
    assert_eq!(
        DelaunayBuilder::new().build(&pts).unwrap_err(),
        BuildError::OutOfRange { index: 5 }
    );
    assert_eq!(
        DelaunayBuilder::new()
            .build(&[Vec3::splat(1e-300); 5])
            .unwrap_err(),
        BuildError::Degenerate
    );
}
