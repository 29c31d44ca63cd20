//! The marching surface-density kernel (paper §IV-A, Fig. 3).
//!
//! For each 2D grid cell the kernel traverses exactly the tetrahedra whose
//! interiors the vertical line of sight `ℓ` crosses, using the Plücker
//! ray–tetrahedron test, and accumulates the *analytically exact* integral of
//! the linear DTFE interpolant over each crossing interval:
//!
//! ```text
//! Σ_T(ξ) = [ ρ̂(x₀) + ∇̂ρ · ( (ξ, (a+b)/2) − x₀ ) ] · (b − a)      (Eq. 12)
//! ```
//!
//! — the midpoint rule, which is exact for a linear integrand. The cost per
//! cell is proportional to the number of tetrahedra on the line of sight,
//! never to a 3D grid resolution; this is the paper's key algorithmic
//! observation ("the costly computation of an intermediate 3D grid is
//! completely avoided").
//!
//! Entry into the mesh goes through the **hull projection** (Eq. 14): the
//! downward-facing hull facets (`n_hull · ẑ < 0`) are projected into the x-y
//! plane and indexed in a uniform bin grid; locating `ξ` in that 2D
//! "triangulation" yields the first tetrahedron. Degenerate crossings
//! (through a vertex, edge, or coplanar face) are resolved by the paper's
//! `Perturb` routine (Fig. 2): nudge `ℓ` by at most `ε` toward a randomly
//! chosen vertex of the offending tetrahedron and re-march.
//!
//! # The line of sight of a windowed render
//!
//! With `z_range = (z_lo, z_hi)` the line of sight is the *segment*
//! `ξ × [z_lo, z_hi]`, and the march examines only the tetrahedra that
//! segment meets. Its **window entry** is the unique finite tetrahedron
//! `T₀` that *strictly* contains the point `(ξ, z_lo)` under the exact
//! `orient3d` — all four face signs strictly positive. There is no window
//! entry, and the line enters through the hull projection as above, when
//!
//! * a sign is zero (the floor point lies on a face, edge or vertex),
//! * the point is outside the hull, below it or beside it,
//! * the render has no window, or
//! * `z_lo` is not above the mesh's lowest vertex ([`MarchCache`]'s
//!   `z_min`): the definition evaluated early, since no finite tetrahedron
//!   reaches below `z_min` — which keeps meshes cropped at the window floor
//!   (the batch framework's) on the hull path with no added work.
//!
//! A floor point strictly beyond an *upward-facing* hull facet — one whose
//! exact projected winding is the opposite of the entry facets' — is above
//! the hull: the line still asks the hull projection, then crosses nothing
//! and is 0. Whichever facet a search leaves the hull through gives the
//! same verdict (DESIGN.md §4f).
//!
//! From `T₀` the *same* loop runs with no carried face seed, exactly as
//! after a hull entry, so clipping, the `z_out ≥ z_hi` exit, `Perturb` and
//! every counter are one code path; a restart after `Perturb` re-enters by
//! the same rule for the perturbed `ξ`. Strict containment is unique in a
//! valid triangulation, so `T₀` does not depend on how it is found: the
//! kernel walks to it from the previous line's `T₀`, the reference locates
//! it from scratch, and the two agree on data and on every counter.
//! `crossings` therefore counts the tetrahedra the *segment* meets;
//! tetrahedra wholly below the window are never examined, so a degeneracy
//! down there no longer perturbs a line it cannot contribute to. On every
//! path a tetrahedron the line enters at or above the ceiling `z_hi` — by
//! its rounded entry height, or exactly, its lowest vertex at or above
//! `z_hi` — ends the line without being counted: a hull-entered line whose
//! whole window lies below the hull crosses nothing, and an exit height
//! that rounds below a ceiling on a plane of faces does not count the
//! layer above.
//!
//! # Coherence (DESIGN.md §4f)
//!
//! The production path exploits three forms of coherence while staying
//! **bit-identical** to the straightforward kernel (kept as
//! [`surface_density_reference`], the equivalence oracle):
//!
//! * **Shared-edge Plücker traversal** — each step reuses the
//!   direction-matched edge side-products of the face the ray just exited
//!   through ([`dtfe_geometry::plucker::ray_tetra_seeded`]), and the
//!   per-step orientation normalization and vertex gathers are hoisted into
//!   the mesh's links and the positions its first march writes beside them
//!   ([`MarchCache`]).
//! * **Hinted window entry** — a windowed line finds its `T₀` by a
//!   visibility walk from the previous line's `T₀` (the previous row's
//!   first cell at a row start), with exact predicates; the hint can only
//!   change how many steps the walk takes, never where it ends.
//! * **Tiled parallelism** — workers render square 2D tiles of 64 × 64
//!   cells instead of whole rows. Every random draw of a
//!   line of sight — its jitter and each `Perturb` restart — is a pure
//!   function of the line's key ([`line_key`]: cell, sample, restart), so a
//!   cell renders the same bits in any tile, on any thread, or alone
//!   ([`cell_value`]); tiles are rendered independently and copied out.
//!
//! # Which kernel renders
//!
//! [`surface_density`] and every entry point beside it end in one `render`,
//! which picks the kernel from the render itself — there is no option for
//! it. A render *projects* ([`crate::projector`]: each tetrahedron set up
//! once, its footprint's cells filled row by row) when all three hold:
//!
//! * one centre sample per cell — jittered lines are off the lattice a
//!   scanline walks;
//! * the mesh has a finite tetrahedron;
//! * [`pairs_per_tet`], the expected `(line, tetrahedron)` pairs per
//!   tetrahedron the projector visits, reaches the measured crossover —
//!   below it the per-tetrahedron set-up outweighs the per-pair saving.
//!   With no window, or one containing the mesh's whole z-extent
//!   ([`MarchCache`]'s `z_min`, `z_max`), the projector visits every
//!   finite tetrahedron and the bound is [`PROJECT_MIN_PAIRS`]. Under a
//!   window inside the mesh it visits only those whose vertex box meets
//!   the render's box (grid × window), gathered by a flood fill from the
//!   one holding the box's centre, and the bound is
//!   [`PROJECT_MIN_WINDOW_PAIRS`].
//!
//! Everything else marches. The choice is a function of the mesh, the grid
//! and the options, so one request renders with one kernel wherever it is
//! served. [`surface_density_reference`] always marches: it is the march's
//! bit-for-bit oracle and the projector's differential one.

use crate::density::EntryFacet;
use crate::estimator::{entry_facets_of, FieldEstimator, FieldView, SlotValues};
use crate::grid::{Field2, GridSpec2};
use crate::projector;
use dtfe_delaunay::{Delaunay, TetId, VertexId, NONE};
use dtfe_geometry::plucker::{ray_tetra_seeded, FaceSeed, Plucker, Ray};
use dtfe_geometry::predicates::{orient2d, orient3d_uncounted, Orientation};
use dtfe_geometry::{Aabb2, Vec2, Vec3};
use rayon::prelude::*;

mod reference;
pub use crate::render::MarchOptions;
pub use reference::{surface_density_reference, surface_density_reference_hull_entry};

/// Paper Fig. 2's `ε`: how far `Perturb` moves `ξ`, relative to the cell
/// diagonal.
const EPSILON: f64 = 1e-7;

/// Perturbation restarts a line may spend before it keeps its best-effort
/// value (with exact entry handling this is practically unreachable).
const MAX_PERTURB: usize = 64;

/// Edge, in cells, of the square tiles a parallel march renders.
const TILE: usize = 64;

/// The expected `(line, tetrahedron)` pairs per finite tetrahedron at or
/// above which a centre-sampled, full-depth render projects instead of
/// marching: the measured crossover of the two kernels, which fell at
/// ~1.6 estimated (~2 real) pairs on a 32k-particle clustered box and at
/// ~4.5 estimated (~3.3 real) on a ~1.3k-tetrahedron field cube (DESIGN.md
/// §4f, EXPERIMENTS.md "Beyond the paper — the element projector").
pub const PROJECT_MIN_PAIRS: f64 = 3.0;

/// The expected `(line, tetrahedron)` pairs per gathered tetrahedron at or
/// above which a centre-sampled render under a window inside the mesh
/// projects: the measured windowed crossover, ~10 estimated on served
/// windows inside both serving workloads' padded tiles (DESIGN.md §4f,
/// EXPERIMENTS.md "Beyond the paper — the element projector"). It sits
/// above the full-depth bound because the estimate counts the window's
/// share of the mesh and not the shell of tetrahedra straddling its box,
/// which the projector also sets up.
pub const PROJECT_MIN_WINDOW_PAIRS: f64 = 10.0;

/// Tetrahedra a line of sight crosses per cube root of the mesh's finite
/// tetrahedra: 22.29 measured on the batch items (~4.2k tetrahedra, 64²
/// centre lines), 1.4 × 4200^(1/3) = 22.6.
const DEPTH_PER_CUBE_ROOT: f64 = 1.4;

/// Where the previous line of sight's window-entry walk ended, threaded
/// from cell to cell. Both members only shorten a search whose answer is
/// unique, so a stale or foreign hint costs steps and never changes an
/// entry.
struct EntryHint {
    /// Where the previous window-entry walk ended ([`NONE`]: none yet).
    window: TetId,
    /// `window` after the current row's first cell: the start for the next
    /// row's first cell, which lies one cell above it rather than a row
    /// width away from the previous row's last.
    row_window: TetId,
}

impl EntryHint {
    fn cold() -> EntryHint {
        EntryHint {
            window: NONE,
            row_window: NONE,
        }
    }
}

// ---------------------------------------------------------------------------
// The traversal links and positions.

/// The mesh's tetrahedra as the kernel steps through them: one 32-byte
/// [`dtfe_delaunay::Link`] per tetrahedron — vertex ids (the labels the
/// shared-edge reuse keys on) and neighbour slots with the
/// [`ray_tetra`](dtfe_geometry::plucker::ray_tetra) orientation swap
/// already applied — and, beside them, the positions in the same order,
/// which the first march writes ([`MarchCache::march_positions`]), so a
/// traversal step reads one link and one slot of positions; and the
/// vertex box: a window whose floor is not above its lowest height has no
/// window entry, and its heights and xy extent choose and price the kernel
/// (module docs), per render without touching the mesh. It is the
/// triangulation's own topology ([`Delaunay::topology`]), whose links
/// [`crate::RenderMesh::new`] writes; the name is the render API's.
pub use dtfe_delaunay::Topology as MarchCache;

// ---------------------------------------------------------------------------
// Hull entry: binned index.

/// Spatially-binned index over the projected downward hull facets — the 2D
/// point-location structure for Eq. 14. Build once per field, query per ray.
pub struct HullIndex {
    facets: Vec<EntryFacet>,
    bounds: Aabb2,
    nx: usize,
    ny: usize,
    inv_cell: Vec2,
    /// CSR layout: `bins[off[b]..off[b+1]]` are facet indices overlapping bin
    /// `b`.
    off: Vec<u32>,
    items: Vec<u32>,
}

impl HullIndex {
    /// Index all downward-facing hull facets of `field`'s triangulation —
    /// any [`FieldEstimator`] backend; backends sharing a mesh share the
    /// index.
    pub fn build<E: FieldEstimator + ?Sized>(field: &E) -> HullIndex {
        Self::for_mesh(field.view().del)
    }

    /// [`HullIndex::build`] for a caller that holds the mesh rather than a
    /// field. A mesh with no downward facet (none exists for a solid hull,
    /// but the float normal test decides) gets an index every query misses.
    pub fn for_mesh(del: &Delaunay) -> HullIndex {
        let _span = dtfe_telemetry::span!("core.hull_index_build", slots = del.num_slots());
        let facets = entry_facets_of(del);
        let (inf, neg) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut bounds = Aabb2::new(Vec2::new(inf, inf), Vec2::new(neg, neg));
        for f in &facets {
            for p in [f.a, f.b, f.c] {
                bounds.lo = Vec2::new(bounds.lo.x.min(p.x), bounds.lo.y.min(p.y));
                bounds.hi = Vec2::new(bounds.hi.x.max(p.x), bounds.hi.y.max(p.y));
            }
        }
        // ~1 facet per bin on average.
        let n = (facets.len() as f64).sqrt().ceil().max(1.0) as usize;
        let (nx, ny) = (n, n);
        let ext = bounds.extent();
        let inv_cell = Vec2::new(
            if ext.x > 0.0 { nx as f64 / ext.x } else { 0.0 },
            if ext.y > 0.0 { ny as f64 / ext.y } else { 0.0 },
        );

        // Count-then-fill CSR.
        let bin_range = |f: &EntryFacet| {
            let lo = Vec2::new(f.a.x.min(f.b.x).min(f.c.x), f.a.y.min(f.b.y).min(f.c.y));
            let hi = Vec2::new(f.a.x.max(f.b.x).max(f.c.x), f.a.y.max(f.b.y).max(f.c.y));
            let clamp = |v: f64, n: usize| (v.max(0.0) as usize).min(n - 1);
            let i0 = clamp((lo.x - bounds.lo.x) * inv_cell.x, nx);
            let i1 = clamp((hi.x - bounds.lo.x) * inv_cell.x, nx);
            let j0 = clamp((lo.y - bounds.lo.y) * inv_cell.y, ny);
            let j1 = clamp((hi.y - bounds.lo.y) * inv_cell.y, ny);
            (i0, i1, j0, j1)
        };
        let mut count = vec![0u32; nx * ny + 1];
        for f in &facets {
            let (i0, i1, j0, j1) = bin_range(f);
            for j in j0..=j1 {
                for i in i0..=i1 {
                    count[j * nx + i + 1] += 1;
                }
            }
        }
        for b in 1..count.len() {
            count[b] += count[b - 1];
        }
        let off = count.clone();
        let mut cursor = count;
        let mut items = vec![0u32; off[nx * ny] as usize];
        for (fi, f) in facets.iter().enumerate() {
            let (i0, i1, j0, j1) = bin_range(f);
            for j in j0..=j1 {
                for i in i0..=i1 {
                    let b = j * nx + i;
                    items[cursor[b] as usize] = fi as u32;
                    cursor[b] += 1;
                }
            }
        }

        HullIndex {
            facets,
            bounds,
            nx,
            ny,
            inv_cell,
            off,
            items,
        }
    }

    /// Resident bytes (the service layer's budget accounting), by the
    /// allocations' capacity.
    pub fn bytes(&self) -> usize {
        std::mem::size_of::<HullIndex>()
            + self.facets.capacity() * std::mem::size_of::<EntryFacet>()
            + (self.off.capacity() + self.items.capacity()) * std::mem::size_of::<u32>()
    }

    /// The ghost tetrahedron whose projected hull facet contains `q`
    /// (boundary inclusive; the first such facet in bin order); `None` when
    /// `q` is outside the hull footprint.
    #[inline(never)] // once per hull-entered line; see `march_one`
    pub fn query(&self, q: Vec2) -> Option<TetId> {
        if q.x < self.bounds.lo.x
            || q.y < self.bounds.lo.y
            || q.x > self.bounds.hi.x
            || q.y > self.bounds.hi.y
        {
            return None;
        }
        let i = (((q.x - self.bounds.lo.x) * self.inv_cell.x) as usize).min(self.nx - 1);
        let j = (((q.y - self.bounds.lo.y) * self.inv_cell.y) as usize).min(self.ny - 1);
        let b = j * self.nx + i;
        self.items[self.off[b] as usize..self.off[b + 1] as usize]
            .iter()
            .map(|&fi| &self.facets[fi as usize])
            .find(|f| triangle_contains(f.a, f.b, f.c, q))
            .map(|f| f.ghost)
    }
}

/// Boundary-inclusive point-in-triangle via exact 2D orientations, tolerant
/// of either winding; zero-area triangles contain nothing.
fn triangle_contains(a: Vec2, b: Vec2, c: Vec2, q: Vec2) -> bool {
    let s = orient2d(a, b, c);
    if s == Orientation::Zero {
        return false;
    }
    let ok = |o: Orientation| o == s || o == Orientation::Zero;
    ok(orient2d(a, b, q)) && ok(orient2d(b, c, q)) && ok(orient2d(c, a, q))
}

// ---------------------------------------------------------------------------
// Stats and RNG.

/// Outcome counters for a march (exposed so experiments can report
/// degeneracy rates, which drive the paper's Fig. 13 discussion).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MarchStats {
    /// Rays whose line of sight hit a degeneracy and were perturbed.
    pub perturbations: u64,
    /// Rays abandoned after their last `Perturb` restart (best-effort value
    /// kept).
    pub failures: u64,
    /// Total tetrahedron crossings: the tetrahedra the marched lines of
    /// sight examined. Under a window, on a line that enters at its window
    /// entry, that is the tetrahedra the segment `ξ × [z_lo, z_hi]` meets,
    /// not the whole hull chord; a line that enters through the hull also
    /// counts those it crosses below the floor. A tetrahedron entered at or
    /// above the ceiling ends the line uncounted, and a line whose floor is
    /// above the hull crosses nothing. A projected render counts
    /// `(line, tetrahedron)` pairs here — under a window inside the mesh,
    /// those whose clipped interval is non-empty.
    pub crossings: u64,
    /// Always 0: the march keeps no hull-entry hint. The field stays only
    /// for the `perf` harness, which reads it.
    pub entry_hint_hits: u64,
    /// Hull-entry queries: lines (and `Perturb` restarts) without a window
    /// entry that asked [`HullIndex::query`] (`core.entry_hint_miss`).
    pub entry_hint_misses: u64,
    /// Lines that entered at their window entry `T₀`
    /// (`core.window_entry_hit`).
    pub window_entries: u64,
    /// Window-entry walks that found no `T₀` — a tie, a floor point outside
    /// the hull, or the step cap — and entered through the hull instead, or
    /// crossed nothing when the floor point is above the hull
    /// (`core.window_entry_fallback`). Renders without a window, or whose
    /// floor is not above the mesh, attempt no walk and count nothing here.
    pub window_fallbacks: u64,
    /// Tetrahedra visited by window-entry walks (`core.window_walk_steps`).
    /// Their predicates are not booked on `geometry.orient3d_*`.
    pub window_walk_steps: u64,
    /// Plücker edge side-products evaluated (`core.plucker_edge_evals`);
    /// the reference kernel pays 6 per ray–tetrahedron test, the coherent
    /// kernel fewer.
    pub edge_evals: u64,
}

impl MarchStats {
    pub fn merge(&mut self, o: &MarchStats) {
        self.perturbations += o.perturbations;
        self.failures += o.failures;
        self.crossings += o.crossings;
        self.entry_hint_hits += o.entry_hint_hits;
        self.entry_hint_misses += o.entry_hint_misses;
        self.window_entries += o.window_entries;
        self.window_fallbacks += o.window_fallbacks;
        self.window_walk_steps += o.window_walk_steps;
        self.edge_evals += o.edge_evals;
    }
}

const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// splitmix64: fold `x` into the hash `h`.
#[inline]
fn absorb(h: u64, x: u64) -> u64 {
    let z = h.wrapping_add(GOLDEN) ^ x;
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The key of jitter sample `sample` of grid cell `(i, j)`. Every random
/// draw of that line of sight — where it pierces the cell, and each
/// `Perturb` restart — is a function of this key alone, never of the lines
/// rendered before it; [`march_cell`] with this key reproduces the line
/// as a render marches it.
#[inline]
pub fn line_key(i: usize, j: usize, sample: usize) -> u64 {
    absorb(absorb(absorb(0, j as u64), i as u64), sample as u64)
}

/// The draws of one line at one step: a splitmix64 stream seeded from the
/// line's key and `n` — the `Perturb` restart for the marching kernels (0
/// is the unperturbed line, whose only draws are its jitter), the 3D level
/// for the walking baseline. It lives for one call.
pub(crate) struct Draws(u64);

impl Draws {
    #[inline]
    pub(crate) fn new(key: u64, n: u64) -> Draws {
        Draws(absorb(key, n))
    }

    #[inline]
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        absorb(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Line `sample` of cell `(i, j)`: its key, and where it pierces the grid
/// plane — the cell centre in a one-sample render, else a point uniform in
/// the cell drawn from the key.
#[inline]
fn line_of_sight(
    grid: &GridSpec2,
    i: usize,
    j: usize,
    sample: usize,
    samples: usize,
) -> (u64, Vec2) {
    let key = line_key(i, j, sample);
    if samples <= 1 {
        return (key, grid.center(i, j));
    }
    let mut d = Draws::new(key, 0);
    let base = Vec2::new(
        grid.origin.x + i as f64 * grid.cell.x,
        grid.origin.y + j as f64 * grid.cell.y,
    );
    (
        key,
        base + Vec2::new(d.unit() * grid.cell.x, d.unit() * grid.cell.y),
    )
}

// ---------------------------------------------------------------------------
// The coherent kernel.

/// Loop-invariant state of one render, hoisted out of the per-cell restart
/// loop: the [`FieldView`]'s three borrows, the march's positions (written
/// here on the mesh's first march), the hull index, the step bound,
/// the integration window, and the floor a window entry is sought at (`None`
/// when the render has no window or its floor is not above the mesh's
/// lowest vertex). Not generic: every backend, named or `dyn`, renders
/// through this one kernel, so the `pub` entry points below are one-line
/// shims over `field.view()`.
struct MarchCtx<'a> {
    del: &'a Delaunay,
    cache: &'a MarchCache,
    pts: &'a [[Vec3; 4]],
    values: SlotValues<'a>,
    index: &'a HullIndex,
    z_range: Option<(f64, f64)>,
    window_floor: Option<f64>,
    eps: f64,
    max_perturb: usize,
    max_steps: usize,
}

impl<'a> MarchCtx<'a> {
    fn new(
        view: FieldView<'a>,
        index: &'a HullIndex,
        z_range: Option<(f64, f64)>,
        eps: f64,
        max_perturb: usize,
    ) -> MarchCtx<'a> {
        let FieldView { del, cache, values } = view;
        MarchCtx {
            del,
            cache,
            pts: cache.march_positions(del.vertices()),
            values,
            index,
            z_range,
            window_floor: z_range.map(|(lo, _)| lo).filter(|&lo| lo > cache.z_min()),
            eps,
            max_perturb,
            max_steps: del.num_tets() + del.num_ghosts() + 16,
        }
    }
}

/// One degeneracy event (the paper's Fig. 2 policy, in exactly one place):
/// count it, spend a restart attempt, and return the perturbed `ξ` — or
/// `None` when the budget is exhausted and the caller keeps the cell's
/// best-effort value. Both the step-count bailout and the
/// degenerate-crossing bailout of both kernels funnel through here.
#[allow(clippy::too_many_arguments)]
#[inline]
fn perturb_or_fail(
    del: &Delaunay,
    t: TetId,
    xi: Vec2,
    eps: f64,
    max_perturb: usize,
    line: u64,
    attempts: &mut usize,
    stats: &mut MarchStats,
) -> Option<Vec2> {
    stats.perturbations += 1;
    *attempts += 1;
    if *attempts > max_perturb {
        stats.failures += 1;
        return None;
    }
    Some(perturb(del, t, xi, eps, line, *attempts))
}

/// Integrate the estimator's field along the vertical line of sight through
/// `xi` (paper Fig. 3, one iteration of the kernel loop).
///
/// `eps` is the *absolute* perturbation magnitude; `line` keys the draws of
/// any `Perturb` restart ([`line_key`]). Returns the integral and updates
/// `stats`.
#[allow(clippy::too_many_arguments)] // mirrors the paper's kernel signature
pub fn march_cell<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    xi: Vec2,
    z_range: Option<(f64, f64)>,
    eps: f64,
    max_perturb: usize,
    line: u64,
    stats: &mut MarchStats,
) -> f64 {
    march_one(
        &MarchCtx::new(field.view(), index, z_range, eps, max_perturb),
        xi,
        line,
        stats,
        &mut EntryHint::cold(),
    )
}

/// [`march_cell`] with the render-invariant state and the entry hint
/// threaded through (the renderers' inner call).
///
/// This is the per-tetrahedron loop's function, and it exists once per
/// binary. With a single instantiation every helper it reaches has a single
/// caller and LLVM folds them all in here (2.7 kB → 5.1 kB measured) — the
/// effect that cost ~4 % when it happened to `window_entry` alone. So the
/// once-per-line searches and the cold `Perturb` path are pinned out of
/// line, and this function out of the row loop: the shape the kernel had
/// when it was compiled once per backend (DESIGN.md §4f).
#[inline(never)]
fn march_one(
    ctx: &MarchCtx<'_>,
    xi: Vec2,
    line: u64,
    stats: &mut MarchStats,
    hint: &mut EntryHint,
) -> f64 {
    let crossings_before = stats.crossings;
    let v = march_cell_inner(ctx, xi, line, stats, hint);
    // Per-LOS traversal depth distribution; free when telemetry is off and
    // invisible on rayon workers unless a global recorder is installed.
    dtfe_telemetry::hist_record!("core.tets_per_los", stats.crossings - crossings_before);
    v
}

/// Where a windowed line of sight starts (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Start {
    /// At its window entry `T₀`.
    Entry(TetId),
    /// Through the hull projection.
    Hull,
    /// Nowhere: the floor point is above the hull.
    AboveHull,
}

/// Does the outward-oriented hull facet `(a, b, c)` face up? Its exact
/// projected winding is counterclockwise — the opposite of the downward
/// entry facets' ([`HullIndex`]) — so its outward normal has `z > 0`.
fn faces_up(del: &Delaunay, [a, b, c]: [VertexId; 3]) -> bool {
    let xy = |v: VertexId| del.vertex(v).xy();
    orient2d(xy(a), xy(b), xy(c)) == Orientation::Positive
}

/// The window entry of the line through `xi` (module docs): a visibility
/// walk from the hinted tetrahedron to the one strictly containing
/// `(ξ, z_lo)`, every sign from the exact `orient3d`. [`Start::Hull`] when
/// the render seeks no window entry, the walk leaves the hull through a
/// facet that does not face up, it ends on a tie, or it exceeds the step
/// cap (which bounds a walk over corrupt adjacency);
/// [`Start::AboveHull`] when it leaves through one that does. Reads each
/// tetrahedron with the links' float
/// normalization undone ([`MarchCache::tet`]) and its corners from the
/// vertex array: the face signs are defined against the builder's exact
/// orientation. Never inlined: it runs once per line, and folding it into
/// the per-tetrahedron loop's function measurably slowed renders that have
/// no window at all.
#[inline(never)]
fn window_entry(ctx: &MarchCtx<'_>, xi: Vec2, hint: &mut TetId, stats: &mut MarchStats) -> Start {
    let Some(z_lo) = ctx.window_floor else {
        return Start::Hull;
    };
    let p = Vec3::new(xi.x, xi.y, z_lo);
    let (del, topo) = (ctx.del, ctx.cache);
    // A laid-out mesh has no freed slots.
    let usable = |t: TetId| (t as usize) < topo.len() && !topo.tet(t).is_ghost();
    let mut cur = if usable(*hint) {
        *hint
    } else {
        match del.finite_tets().next() {
            Some(t) => t,
            None => return Start::Hull,
        }
    };
    // The face the walk entered `cur` through: its sign is the exact
    // negation of the one that sent the walk across it — strictly positive
    // — so it is not evaluated again.
    let mut entered = usize::MAX;
    let mut found = Start::Hull;
    for _ in 0..ctx.max_steps {
        stats.window_walk_steps += 1;
        let tet = topo.tet(cur);
        let mut strict = true;
        let mut beyond = None;
        for i in (0..4).filter(|&i| i != entered) {
            let [a, b, c] = tet.face(i);
            // Face `i` is outward-oriented: Negative means `p` is strictly
            // beyond it, Positive strictly on the tetrahedron's side.
            match orient3d_uncounted(del.vertex(a), del.vertex(b), del.vertex(c), p) {
                Orientation::Negative => {
                    beyond = Some(i);
                    break;
                }
                Orientation::Zero => strict = false,
                Orientation::Positive => {}
            }
        }
        let Some(i) = beyond else {
            // No face separates `cur` from `p`: it is the entry if the
            // containment is strict, and a tie otherwise.
            if strict {
                found = Start::Entry(cur);
            }
            break;
        };
        let next = topo.tet(tet.neighbors[i]);
        if next.is_ghost() {
            // Strictly beyond a hull facet: outside the hull, and above it
            // when the facet faces up.
            if faces_up(del, tet.face(i)) {
                found = Start::AboveHull;
            }
            break;
        }
        // Adjacency is reciprocal in a valid triangulation; were it not,
        // skipping no face would only cost one test.
        entered = next.index_of_neighbor(cur).unwrap_or(usize::MAX);
        cur = tet.neighbors[i];
    }
    *hint = cur;
    match found {
        Start::Entry(_) => stats.window_entries += 1,
        Start::Hull | Start::AboveHull => stats.window_fallbacks += 1,
    }
    found
}

/// Test support: the kernel's window entry for the line through `xi` with
/// floor `z_lo`, walked from an arbitrary `hint` — any slot id, live or not.
#[doc(hidden)]
pub fn window_entry_with_hint<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    xi: Vec2,
    z_lo: f64,
    mut hint: TetId,
) -> Option<TetId> {
    match window_entry(
        &MarchCtx::new(field.view(), index, Some((z_lo, f64::INFINITY)), 0.0, 0),
        xi,
        &mut hint,
        &mut MarchStats::default(),
    ) {
        Start::Entry(t) => Some(t),
        Start::Hull | Start::AboveHull => None,
    }
}

fn march_cell_inner(
    ctx: &MarchCtx<'_>,
    xi: Vec2,
    line: u64,
    stats: &mut MarchStats,
    hint: &mut EntryHint,
) -> f64 {
    let mut xi_cur = xi;
    let mut attempts = 0usize;
    // Unlike the paper's Fig. 3 (which keeps partial sums across a
    // perturbation), we restart the whole ray after Perturb so every
    // contribution comes from one consistent line; the difference is O(ε).
    'restart: loop {
        // The first tetrahedron: the window entry where the line has one,
        // else the tetrahedron above the hull-projection facet.
        let mut t = match window_entry(ctx, xi_cur, &mut hint.window, stats) {
            Start::Entry(t0) => t0,
            start => {
                stats.entry_hint_misses += 1;
                match ctx.index.query(xi_cur) {
                    Some(ghost) if start == Start::Hull => ctx.cache.link(ghost).neighbors[3],
                    // Beside the footprint, or over it with the floor above
                    // the hull: the segment meets no tetrahedron.
                    _ => return 0.0,
                }
            }
        };
        let ray = Ray::vertical(xi_cur.x, xi_cur.y);
        let pl = Plucker::from_ray(&ray);
        let mut total = 0.0;
        let mut steps = 0usize;
        // Exit-face side-products carried across the shared face, together
        // with the receiving tetrahedron's local entry face (the slot whose
        // neighbor is the tetrahedron just exited) so the seed match checks
        // only that face's edges. Never carried over a restart (a perturbed
        // line is a new ray).
        let mut carry: Option<(FaceSeed, Option<usize>)> = None;
        loop {
            steps += 1;
            if steps > ctx.max_steps {
                // Structurally impossible on a valid triangulation; treat as
                // a degeneracy and perturb.
                match perturb_or_fail(
                    ctx.del,
                    t,
                    xi_cur,
                    ctx.eps,
                    ctx.max_perturb,
                    line,
                    &mut attempts,
                    stats,
                ) {
                    Some(x) => {
                        xi_cur = x;
                        continue 'restart;
                    }
                    None => return total,
                }
            }
            let (ct, pts) = (ctx.cache.link(t), &ctx.pts[t as usize]);
            let (entry, entry_face) = match carry.as_ref() {
                Some((s, f)) => (Some(s), *f),
                None => (None, None),
            };
            let (hit, exit_seed) =
                ray_tetra_seeded(&pl, pts, &ct.ids, entry, entry_face, &mut stats.edge_evals);
            let (false, Some((_, p_in)), Some((exit_face, p_out))) =
                (hit.degenerate, hit.enter, hit.exit)
            else {
                match perturb_or_fail(
                    ctx.del,
                    t,
                    xi_cur,
                    ctx.eps,
                    ctx.max_perturb,
                    line,
                    &mut attempts,
                    stats,
                ) {
                    Some(x) => {
                        xi_cur = x;
                        continue 'restart;
                    }
                    None => return total,
                }
            };
            let (mut a, mut b) = (p_in.z, p_out.z);
            if b < a {
                (a, b) = (b, a);
            }
            if let Some((zlo, zhi)) = ctx.z_range {
                if a >= zhi || pts.iter().all(|p| p.z >= zhi) {
                    // The segment ended below this tetrahedron: its entry
                    // height, or — exactly, as the projector decides it —
                    // its lowest vertex is at or above the ceiling.
                    return total;
                }
                a = a.max(zlo);
                b = b.min(zhi);
            }
            stats.crossings += 1;
            if b > a {
                // Eq. 12: exact integral via the interval midpoint. `x₀` is
                // the slot's vertex 0 (the normalization swaps only 2 ↔ 3).
                let mid = Vec3::new(xi_cur.x, xi_cur.y, 0.5 * (a + b));
                let rho_mid = ctx.values.eval(t, pts[0], mid);
                total += rho_mid * (b - a);
            }
            if let Some((_, zhi)) = ctx.z_range {
                if p_out.z >= zhi {
                    return total; // monotone in z: nothing further contributes
                }
            }

            let next = ct.neighbors[exit_face];
            let nt = ctx.cache.link(next);
            if nt.ids[3] == u32::MAX {
                return total; // left the hull (a convex body is exited once)
            }
            // The face of `next` we enter through is the one sharing the
            // exit face, i.e. whose neighbor slot points back at `t`.
            carry = Some((exit_seed, nt.neighbors.iter().position(|&n| n == t)));
            t = next;
        }
    }
}

/// The paper's `Perturb` (Fig. 2): move `ξ` by at most `eps` toward the
/// projection of a randomly chosen vertex of the offending tetrahedron,
/// with the draws of restart `attempt` of line `line`.
#[cold]
#[inline(never)]
fn perturb(del: &Delaunay, t: TetId, xi: Vec2, eps: f64, line: u64, attempt: usize) -> Vec2 {
    let mut d = Draws::new(line, attempt as u64);
    let tet = del.tet(t);
    for _ in 0..4 {
        let v = tet.verts[(d.next() % 4) as usize];
        if v == dtfe_delaunay::INFINITE {
            continue;
        }
        let mut delta = del.vertex(v).xy() - xi;
        let n = delta.norm();
        if n == 0.0 {
            continue; // ξ sits exactly on this vertex's projection
        }
        if n > eps {
            delta = delta * (eps / n);
        }
        // Extra deterministic jitter so repeated perturbations from the same
        // tetrahedron do not retrace the same degenerate line.
        let jitter = Vec2::new(d.unit() - 0.5, d.unit() - 0.5) * (0.1 * eps);
        return xi + delta + jitter;
    }
    // All vertices project onto ξ (pathological): random direction.
    let ang = d.unit() * std::f64::consts::TAU;
    xi + Vec2::new(ang.cos(), ang.sin()) * eps
}

// ---------------------------------------------------------------------------
// Renderers.

/// Render the full surface-density grid with the marching kernel
/// (paper Fig. 3 with the grid-cell loop parallelized as in §V). Generic
/// over the estimator backend: `∫ f dz` for whatever `f` the backend
/// interpolates.
pub fn surface_density<E: FieldEstimator + ?Sized>(
    field: &E,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> Field2 {
    surface_density_with_stats(field, grid, opts).0
}

/// As [`surface_density`], also returning march statistics.
pub fn surface_density_with_stats<E: FieldEstimator + ?Sized>(
    field: &E,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (Field2, MarchStats) {
    render(field.view(), None, grid, opts)
}

/// As [`surface_density_with_stats`], but marching through a caller-supplied
/// [`HullIndex`]. Building the index costs one pass over the hull facets, so
/// callers rendering *several* grids against the same triangulation (the
/// serving layer's batched tile renders) build it once and amortize it; the
/// output is bit-identical to [`surface_density`] on the same grid. A
/// render that projects does not read the index.
pub fn surface_density_with_index<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (Field2, MarchStats) {
    render(field.view(), Some(index), grid, opts)
}

/// [`pairs_per_tet`] of a render of `grid` over `view`: the lines of sight
/// whose centre lies over the mesh's xy box, times the depth of a line,
/// `DEPTH_PER_CUBE_ROOT · tets^(1/3)`, over the tetrahedra the render
/// visits. At full depth those are the finite tetrahedra; under a window
/// inside the mesh, the candidates the projector gathers, about the
/// grid's share of the mesh's xy box times the window's share of its
/// depth — which cancels against the lines' share of it. It assumes the
/// mesh is about as deep as it is wide.
fn estimate_pairs(view: &FieldView<'_>, grid: &GridSpec2, opts: &MarchOptions) -> f64 {
    let tets = view.del.num_tets() as f64;
    let (lo, hi) = view.cache.bounds();
    let over = |origin: f64, cell: f64, n: usize, lo: f64, hi: f64| {
        // The centres `origin + (k + 0.5) · cell`, `k < n`, in `[lo, hi]`.
        let first = ((lo - origin) / cell - 0.5).ceil().max(0.0);
        let last = ((hi - origin) / cell - 0.5).floor().min(n as f64 - 1.0);
        (last - first + 1.0).max(0.0)
    };
    let lines = over(grid.origin.x, grid.cell.x, grid.nx, lo.x, hi.x)
        * over(grid.origin.y, grid.cell.y, grid.ny, lo.y, hi.y)
        * opts.samples.max(1) as f64;
    let per_tet = lines * DEPTH_PER_CUBE_ROOT * tets.cbrt() / tets;
    if !projector::window_inside(view.cache, opts.z_range) {
        return per_tet;
    }
    // The grid's share of the mesh's xy box.
    let overlap = |origin: f64, cell: f64, n: usize, lo: f64, hi: f64| {
        ((origin + n as f64 * cell).min(hi) - origin.max(lo)).max(0.0) / (hi - lo)
    };
    let share = overlap(grid.origin.x, grid.cell.x, grid.nx, lo.x, hi.x)
        * overlap(grid.origin.y, grid.cell.y, grid.ny, lo.y, hi.y);
    if share > 0.0 {
        per_tet / share
    } else {
        0.0
    }
}

/// The expected `(line, tetrahedron)` pairs per tetrahedron a render of
/// `grid` over `field` visits — the quantity [`PROJECT_MIN_PAIRS`] and
/// [`PROJECT_MIN_WINDOW_PAIRS`] bound (module docs).
pub fn pairs_per_tet<E: FieldEstimator + ?Sized>(
    field: &E,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> f64 {
    estimate_pairs(&field.view(), grid, opts)
}

/// Whether a render of `grid` with `opts` over `field` projects rather
/// than marches (module docs).
pub fn projects<E: FieldEstimator + ?Sized>(
    field: &E,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> bool {
    selects_projector(&field.view(), grid, opts)
}

fn selects_projector(view: &FieldView<'_>, grid: &GridSpec2, opts: &MarchOptions) -> bool {
    let min = if projector::window_inside(view.cache, opts.z_range) {
        PROJECT_MIN_WINDOW_PAIRS
    } else {
        PROJECT_MIN_PAIRS
    };
    opts.samples <= 1 && view.del.num_tets() > 0 && estimate_pairs(view, grid, opts) >= min
}

/// The render every `surface_density*` entry point is a shim over: project
/// or march (module docs), building the hull index only to march.
fn render(
    view: FieldView<'_>,
    index: Option<&HullIndex>,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (Field2, MarchStats) {
    if selects_projector(&view, grid, opts) {
        return projector::render(view, grid, opts.z_range, opts.parallel, true);
    }
    match index {
        Some(index) => march_render(view, index, grid, opts),
        None => march_render(view, &HullIndex::for_mesh(view.del), grid, opts),
    }
}

/// A render kernel, named for [`surface_density_by`].
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    March,
    /// The projector as a render selects it: under a window inside the
    /// mesh it visits only the tetrahedra it gathers.
    Project,
    /// The projector over every finite tetrahedron, whatever the window —
    /// the bits and pairs of [`Kernel::Project`], at the price of a scan.
    ProjectScan,
}

/// Measurement and test support: render with `kernel` whatever the render
/// would select (module docs), so each kernel can be priced and checked
/// where the other is chosen. The projector draws centre lines only: asked
/// for more samples it renders the centre-sampled field.
#[doc(hidden)]
pub fn surface_density_by<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
    kernel: Kernel,
) -> (Field2, MarchStats) {
    match kernel {
        Kernel::March => march_render(field.view(), index, grid, opts),
        Kernel::Project => projector::render(field.view(), grid, opts.z_range, opts.parallel, true),
        Kernel::ProjectScan => {
            projector::render(field.view(), grid, opts.z_range, opts.parallel, false)
        }
    }
}

/// The marching render: every cell's lines of sight, tiled when parallel.
fn march_render(
    view: FieldView<'_>,
    index: &HullIndex,
    grid: &GridSpec2,
    opts: &MarchOptions,
) -> (Field2, MarchStats) {
    let span = dtfe_telemetry::span!("core.march_render", nx = grid.nx, ny = grid.ny);
    let eps = EPSILON * grid.cell.norm();
    let ctx = MarchCtx::new(view, index, opts.z_range, eps, MAX_PERTURB);
    let samples = opts.samples;
    let mut out = Field2::zeros(*grid);
    let mut stats = MarchStats::default();
    if opts.parallel {
        render_tiled(&ctx, grid, samples, TILE, &mut out, &mut stats);
    } else {
        let mut hint = EntryHint::cold();
        for (j, chunk) in out.data.chunks_mut(grid.nx).enumerate() {
            render_row_segment(&ctx, grid, samples, j, 0, &mut stats, &mut hint, chunk);
        }
    }
    // Bridge the kernel-local counters into the registry from this thread,
    // which covers the parallel path too (workers only merged into `stats`).
    dtfe_telemetry::counter_add!("core.los_marched", (grid.nx * grid.ny) as u64);
    dtfe_telemetry::counter_add!("core.tets_crossed", stats.crossings);
    dtfe_telemetry::counter_add!("core.degenerate_restarts", stats.perturbations);
    dtfe_telemetry::counter_add!("core.march_failures", stats.failures);
    dtfe_telemetry::counter_add!("core.entry_hint_miss", stats.entry_hint_misses);
    dtfe_telemetry::counter_add!("core.window_entry_hit", stats.window_entries);
    dtfe_telemetry::counter_add!("core.window_entry_fallback", stats.window_fallbacks);
    dtfe_telemetry::counter_add!("core.window_walk_steps", stats.window_walk_steps);
    dtfe_telemetry::counter_add!("core.plucker_edge_evals", stats.edge_evals);
    drop(span);
    (out, stats)
}

/// Render cells `i0..i0+out.len()` of row `j` into `out`, threading the
/// stats and the entry hint left to right. The window hint starts from the
/// previous segment's first cell (the cell below this one's).
#[allow(clippy::too_many_arguments)]
#[inline(never)] // keeps the cell loop apart from the tile scheduling around it
fn render_row_segment(
    ctx: &MarchCtx<'_>,
    grid: &GridSpec2,
    samples: usize,
    j: usize,
    i0: usize,
    stats: &mut MarchStats,
    hint: &mut EntryHint,
    out: &mut [f64],
) {
    hint.window = hint.row_window;
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = cell_value_inner(ctx, grid, samples, i0 + k, j, stats, hint);
        if k == 0 {
            hint.row_window = hint.window;
        }
    }
}

/// 2D-tiled parallel render. Each worker owns a square tile so consecutive
/// cells keep mesh locality in x *and* y. A cell's draws depend on its own
/// key only and a hint never changes an entry, so each tile renders exactly
/// what the serial kernel renders there; the tiles are copied out and their
/// counters summed.
fn render_tiled(
    ctx: &MarchCtx<'_>,
    grid: &GridSpec2,
    samples: usize,
    tile: usize,
    out: &mut Field2,
    stats: &mut MarchStats,
) {
    let nx = grid.nx;
    let tile = tile.max(1);
    let tx = nx.div_ceil(tile);
    // Tile `ti`'s first cell and its width and height.
    let bounds = |ti: usize| {
        let (i0, j0) = (ti % tx * tile, ti / tx * tile);
        (i0, j0, tile.min(nx - i0), tile.min(grid.ny - j0))
    };
    let tiles: Vec<(Vec<f64>, MarchStats)> = (0..tx * grid.ny.div_ceil(tile))
        .into_par_iter()
        .map(|ti| {
            let (i0, j0, w, h) = bounds(ti);
            let mut values = vec![0.0; w * h];
            let mut s = MarchStats::default();
            let mut hint = EntryHint::cold();
            for (r, row) in values.chunks_mut(w).enumerate() {
                render_row_segment(ctx, grid, samples, j0 + r, i0, &mut s, &mut hint, row);
            }
            (values, s)
        })
        .collect();
    for (ti, (values, s)) in tiles.iter().enumerate() {
        let (i0, j0, w, _) = bounds(ti);
        for (r, row) in values.chunks(w).enumerate() {
            let at = (j0 + r) * nx + i0;
            out.data[at..at + w].copy_from_slice(row);
        }
        stats.merge(s);
    }
}

/// One cell marched: centre sample or the jittered Monte-Carlo mean, the
/// bits a marched render of `grid` with `opts` gives that cell (a render
/// that projects sums in another order; module docs).
pub fn cell_value<E: FieldEstimator + ?Sized>(
    field: &E,
    index: &HullIndex,
    grid: &GridSpec2,
    i: usize,
    j: usize,
    opts: &MarchOptions,
    stats: &mut MarchStats,
) -> f64 {
    let eps = EPSILON * grid.cell.norm();
    cell_value_inner(
        &MarchCtx::new(field.view(), index, opts.z_range, eps, MAX_PERTURB),
        grid,
        opts.samples,
        i,
        j,
        stats,
        &mut EntryHint::cold(),
    )
}

#[allow(clippy::too_many_arguments)]
fn cell_value_inner(
    ctx: &MarchCtx<'_>,
    grid: &GridSpec2,
    samples: usize,
    i: usize,
    j: usize,
    stats: &mut MarchStats,
    hint: &mut EntryHint,
) -> f64 {
    let n = samples.max(1);
    let mut acc = 0.0;
    for sample in 0..n {
        let (line, xi) = line_of_sight(grid, i, j, sample, samples);
        acc += march_one(ctx, xi, line, stats, hint);
    }
    acc / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::{DtfeField, Mass};
    use dtfe_geometry::plucker::ray_tetra;
    use dtfe_geometry::Vec3;

    fn jittered_cloud(n_side: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                for k in 0..n_side {
                    pts.push(Vec3::new(
                        i as f64 + 0.6 * r(),
                        j as f64 + 0.6 * r(),
                        k as f64 + 0.6 * r(),
                    ));
                }
            }
        }
        pts
    }

    /// The parallel march with square tiles of edge `tile` instead of
    /// [`TILE`].
    fn march_tiled(
        field: &DtfeField,
        index: &HullIndex,
        grid: &GridSpec2,
        opts: &MarchOptions,
        tile: usize,
    ) -> (Field2, MarchStats) {
        let eps = EPSILON * grid.cell.norm();
        let ctx = MarchCtx::new(field.view(), index, opts.z_range, eps, MAX_PERTURB);
        let mut out = Field2::zeros(*grid);
        let mut stats = MarchStats::default();
        render_tiled(&ctx, grid, opts.samples, tile, &mut out, &mut stats);
        (out, stats)
    }

    #[test]
    fn single_tet_constant_density_chord() {
        let pts = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 1.0),
        ];
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        // Inside the tet the field is constant 24 (see density tests); the
        // chord at (0.2, 0.2) runs z ∈ [0, 0.6].
        let line = 1;
        let mut stats = MarchStats::default();
        let sigma = march_cell(
            &field,
            &index,
            Vec2::new(0.2, 0.2),
            None,
            1e-9,
            16,
            line,
            &mut stats,
        );
        assert!((sigma - 24.0 * 0.6).abs() < 1e-9, "sigma = {sigma}");
        assert_eq!(stats.failures, 0);
        // Outside the footprint: zero.
        let z = march_cell(
            &field,
            &index,
            Vec2::new(0.9, 0.9),
            None,
            1e-9,
            16,
            line,
            &mut stats,
        );
        assert_eq!(z, 0.0);
    }

    #[test]
    fn matches_brute_force_over_all_tets() {
        let pts = jittered_cloud(5, 17);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let del = field.delaunay();
        for &(x, y) in &[(2.03, 2.41), (1.37, 3.12), (0.73, 0.91), (3.9, 1.1)] {
            let xi = Vec2::new(x, y);
            let ray = Ray::vertical(x, y);
            let pl = Plucker::from_ray(&ray);
            // Brute force: test every finite tetrahedron.
            let mut brute = 0.0;
            for t in del.finite_tets() {
                let pts = del.tet_points(t);
                let hit = ray_tetra(&pl, &pts);
                if hit.is_through() && !hit.degenerate {
                    let (_, pin) = hit.enter.unwrap();
                    let (_, pout) = hit.exit.unwrap();
                    let (a, b) = (pin.z.min(pout.z), pin.z.max(pout.z));
                    let ti = field.tet_interp(t);
                    let mid = Vec3::new(x, y, 0.5 * (a + b));
                    brute += (ti.rho0 + ti.grad.dot(mid - pts[0])) * (b - a);
                }
            }
            let line = 5;
            let mut stats = MarchStats::default();
            let marched = march_cell(&field, &index, xi, None, 1e-9, 16, line, &mut stats);
            assert_eq!(stats.perturbations, 0, "unexpected degeneracy at {xi:?}");
            assert!(
                (marched - brute).abs() <= 1e-9 * (1.0 + brute.abs()),
                "marched {marched} vs brute {brute} at {xi:?}"
            );
        }
    }

    #[test]
    fn grid_mass_conservation() {
        let pts = jittered_cloud(6, 23);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        // A fine grid over the full footprint captures (nearly) all mass:
        // ∫∫ Σ dA = M up to x-y discretization error.
        let grid = GridSpec2::covering(Vec2::new(-0.2, -0.2), Vec2::new(5.9, 5.9), 96, 96);
        let opts = MarchOptions::new().samples(2).parallel(true);
        let (sigma, stats) = surface_density_with_stats(&field, &grid, &opts);
        let m = sigma.total_mass();
        let m_true = pts.len() as f64;
        assert_eq!(stats.failures, 0);
        assert!(
            (m - m_true).abs() / m_true < 0.02,
            "grid mass {m} vs particle mass {m_true}"
        );
    }

    #[test]
    fn degenerate_rays_through_lattice() {
        // Exact lattice: cell centres at half-integers are fine, but rays
        // through the lattice planes / vertices are maximally degenerate.
        let pts: Vec<Vec3> = (0..4)
            .flat_map(|i| {
                (0..4)
                    .flat_map(move |j| (0..4).map(move |k| Vec3::new(i as f64, j as f64, k as f64)))
            })
            .collect();
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let mut stats = MarchStats::default();
        let line = 3;
        // Through a vertex column and along an edge plane.
        for xi in [
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 1.5),
            Vec2::new(2.0, 0.5),
        ] {
            let v = march_cell(&field, &index, xi, None, 1e-7, 64, line, &mut stats);
            assert!(v.is_finite());
            // The lattice interior has density ~1 and chord length 3, and the
            // perturbed ray must see approximately that.
            assert!(v > 0.5 && v < 6.0, "sigma = {v} at {xi:?}");
        }
        assert!(
            stats.perturbations > 0,
            "expected degeneracies on lattice rays"
        );
        assert_eq!(stats.failures, 0);
    }

    #[test]
    fn z_range_additivity() {
        let pts = jittered_cloud(5, 31);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let xi = Vec2::new(2.2, 2.6);
        let run = |zr: Option<(f64, f64)>| {
            let line = 7;
            let mut stats = MarchStats::default();
            march_cell(&field, &index, xi, zr, 1e-9, 16, line, &mut stats)
        };
        let full = run(None);
        let lo = run(Some((-10.0, 2.0)));
        let hi = run(Some((2.0, 10.0)));
        assert!((lo + hi - full).abs() < 1e-9, "{lo} + {hi} != {full}");
        let clipped = run(Some((1.0, 2.0)));
        assert!(clipped <= full + 1e-12);
    }

    #[test]
    fn parallel_equals_serial() {
        let pts = jittered_cloud(4, 41);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let grid = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(3.5, 3.5), 24, 24);
        let par = surface_density(&field, &grid, &MarchOptions::new().parallel(true));
        let ser = surface_density(&field, &grid, &MarchOptions::new().parallel(false));
        // Per-line draws make these bit-identical.
        assert_eq!(par.data, ser.data);
    }

    #[test]
    fn any_tile_size_is_bit_identical() {
        let pts = jittered_cloud(4, 43);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let grid = GridSpec2::covering(Vec2::new(0.0, 0.0), Vec2::new(3.5, 3.5), 23, 19);
        for samples in [1usize, 3] {
            let opts = MarchOptions::new().samples(samples).parallel(false);
            let (base, bs) = march_render(field.view(), &index, &grid, &opts);
            for tile in [1usize, 3, 5, 16, 1024] {
                let (tiled, ts) = march_tiled(&field, &index, &grid, &opts, tile);
                assert_eq!(base.data, tiled.data, "tile {tile} samples {samples}");
                assert_eq!(bs, ts, "tile {tile} samples {samples}");
            }
        }
    }

    #[test]
    fn coherent_equals_reference_kernel() {
        let pts = jittered_cloud(5, 59);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let grid = GridSpec2::covering(Vec2::new(-0.3, -0.1), Vec2::new(4.6, 4.7), 31, 29);
        for opts in [
            MarchOptions::new().parallel(false),
            MarchOptions::new().samples(2).parallel(false),
            MarchOptions::new().samples(3).parallel(false),
            MarchOptions::new().z_range(0.5, 3.5).parallel(false),
        ] {
            // The march itself: centre lines over the whole depth of this
            // grid would project (tests/projector.rs holds that path).
            let (a, sa) = surface_density_reference(&field, &index, &grid, &opts);
            for (b, sb) in [
                march_render(field.view(), &index, &grid, &opts),
                march_tiled(&field, &index, &grid, &opts, 8),
            ] {
                assert_eq!(a.data, b.data);
                assert_eq!(sa.crossings, sb.crossings);
                assert_eq!(sa.perturbations, sb.perturbations);
                assert_eq!(sa.failures, sb.failures);
                assert_eq!(sa.entry_hint_misses, sb.entry_hint_misses);
            }
        }
    }

    #[test]
    fn tiled_render_identical_on_degenerate_lattice() {
        // A vertex-aligned grid over an exact lattice maximizes
        // perturbations: every tile must reproduce the serial render
        // exactly, including the perturbation count.
        let pts: Vec<Vec3> = (0..4)
            .flat_map(|i| {
                (0..4)
                    .flat_map(move |j| (0..4).map(move |k| Vec3::new(i as f64, j as f64, k as f64)))
            })
            .collect();
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        // Grid whose cell centres land exactly on lattice vertices and edges.
        let grid = GridSpec2::covering(Vec2::new(-0.5, -0.5), Vec2::new(3.5, 3.5), 8, 8);
        let opts_ser = MarchOptions::new().parallel(false);
        let (ser, ss) = surface_density_with_index(&field, &index, &grid, &opts_ser);
        assert!(ss.perturbations > 0, "scene not degenerate enough");
        for tile in [1usize, 3, 64] {
            let (par, sp) = march_tiled(&field, &index, &grid, &opts_ser, tile);
            assert_eq!(ser.data, par.data, "tile {tile}");
            assert_eq!(ss.perturbations, sp.perturbations, "tile {tile}");
            assert_eq!(ss.crossings, sp.crossings, "tile {tile}");
        }
        // And the reference kernel agrees too.
        let (reference, sr) = surface_density_reference(&field, &index, &grid, &opts_ser);
        assert_eq!(reference.data, ser.data);
        assert_eq!(sr.perturbations, ss.perturbations);
    }

    #[test]
    fn coherent_kernel_saves_edge_evals() {
        // The observability acceptance: on a fixed scene the coherent
        // kernel must evaluate strictly fewer Plücker edge products than
        // the reference kernel's 6-per-test, and ask the hull index exactly
        // as often as the reference does.
        let pts = jittered_cloud(6, 71);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let grid = GridSpec2::covering(Vec2::new(0.2, 0.2), Vec2::new(5.2, 5.2), 48, 48);
        let opts = MarchOptions::new().parallel(false);
        let (a, sr) = surface_density_reference(&field, &index, &grid, &opts);
        let (b, sc) = march_render(field.view(), &index, &grid, &opts);
        assert_eq!(a.data, b.data);
        assert_eq!(
            sr.edge_evals,
            6 * sr.crossings + 6 * sr.perturbations,
            "reference accounting drifted"
        );
        assert!(
            sc.edge_evals < sr.edge_evals,
            "coherent {} !< reference {}",
            sc.edge_evals,
            sr.edge_evals
        );
        assert_eq!(sc.entry_hint_misses, sr.entry_hint_misses);
        assert_eq!(sc.entry_hint_hits, 0);
    }

    #[test]
    fn hull_query_equals_brute_force_scan() {
        // The oracle of the one hull entry: the ghost of the lowest-index
        // facet containing `q`, boundary inclusive, or `None`. Facet
        // vertices and edge midpoints are the ties; on the lattice the
        // whole lower hull is coplanar, so every one of them is shared.
        let lattice: Vec<Vec3> = (0..4)
            .flat_map(|i| {
                (0..4)
                    .flat_map(move |j| (0..4).map(move |k| Vec3::new(i as f64, j as f64, k as f64)))
            })
            .collect();
        let mut s = 0xABCDEFu64;
        let mut r = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        for pts in [jittered_cloud(5, 83), lattice] {
            let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
            let index = HullIndex::build(&field);
            let brute = |q: Vec2| {
                index
                    .facets
                    .iter()
                    .find(|f| triangle_contains(f.a, f.b, f.c, q))
                    .map(|f| f.ghost)
            };
            let mut queries: Vec<Vec2> = (0..400)
                .map(|_| Vec2::new(r() * 6.0 - 1.0, r() * 6.0 - 1.0))
                .collect();
            for f in &index.facets {
                queries.extend([f.a, f.b, f.c]);
                queries.extend([(f.a + f.b) * 0.5, (f.b + f.c) * 0.5, (f.c + f.a) * 0.5]);
            }
            let (lo, hi) = (index.bounds.lo, index.bounds.hi);
            queries.extend([
                Vec2::new(lo.x - 1.0, lo.y),
                Vec2::new(hi.x, hi.y + 1e-9),
                Vec2::new(100.0, 0.0),
                Vec2::new(-0.5, 2.0),
            ]);
            let mut inside = 0;
            for q in queries {
                let want = brute(q);
                assert_eq!(index.query(q), want, "at {q:?}");
                inside += want.is_some() as usize;
            }
            assert!(inside > 6 * index.facets.len(), "{inside} inside hits");
        }
    }

    #[test]
    fn shared_index_render_is_bit_identical() {
        let pts = jittered_cloud(4, 61);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        let opts = MarchOptions::new().samples(2).parallel(false);
        // Two different grids against one index: each matches the
        // build-per-call path exactly.
        for grid in [
            GridSpec2::covering(Vec2::new(0.2, 0.2), Vec2::new(3.1, 3.1), 17, 13),
            GridSpec2::square(Vec2::new(1.7, 1.9), 2.0, 24),
        ] {
            let (a, sa) = surface_density_with_stats(&field, &grid, &opts);
            let (b, sb) = surface_density_with_index(&field, &index, &grid, &opts);
            assert_eq!(a.data, b.data);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn hull_index_queries() {
        let pts = jittered_cloud(4, 51);
        let field = DtfeField::build(&pts, Mass::Uniform(1.0)).unwrap();
        let index = HullIndex::build(&field);
        assert!(!index.facets.is_empty());
        assert!(index.query(Vec2::new(1.7, 1.7)).is_some());
        assert!(index.query(Vec2::new(100.0, 0.0)).is_none());
    }

    #[test]
    fn triangle_contains_cases() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 0.0);
        let c = Vec2::new(0.0, 2.0);
        assert!(triangle_contains(a, b, c, Vec2::new(0.5, 0.5)));
        assert!(triangle_contains(a, c, b, Vec2::new(0.5, 0.5))); // either winding
        assert!(triangle_contains(a, b, c, Vec2::new(1.0, 0.0))); // on edge
        assert!(triangle_contains(a, b, c, a)); // on vertex
        assert!(!triangle_contains(a, b, c, Vec2::new(2.0, 2.0)));
        assert!(!triangle_contains(
            a,
            b,
            Vec2::new(4.0, 0.0),
            Vec2::new(1.0, 0.0)
        )); // degenerate
    }
}
