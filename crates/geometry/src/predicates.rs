//! Robust geometric predicates.
//!
//! Each predicate is evaluated in up to three stages, following Shewchuk's
//! classic scheme: the last two for the orientation tests and `incircle`,
//! all three for `insphere`, which the triangulation builder calls forty
//! times per inserted point:
//!
//! 1. **Cheap bound** (`insphere` only) — evaluate the determinant in plain
//!    `f64` and compare it against a bound that costs a dozen flops and
//!    dominates the next stage's term by term, so it can only certify signs
//!    that stage would certify too. Nearly every call ends here.
//! 2. **Filtered float pass** — compare the same determinant against a
//!    static forward error bound derived from the "permanent" (the same
//!    polynomial with every subtraction replaced by an addition of absolute
//!    values). If the magnitude clears the bound the sign is provably
//!    correct.
//! 3. **Exact fallback** — recompute the determinant with the
//!    [expansion arithmetic](crate::expansion), which is exact for any `f64`
//!    inputs, and take the sign of the resulting expansion.
//!
//! The exact path allocates; the filter keeps it off the hot path for all but
//! (nearly-)degenerate inputs. Degenerate inputs are common in this domain —
//! N-body particles snapped to grid positions, co-spherical lattice points —
//! which is why the Delaunay substrate cannot get away with plain floating
//! point.

use crate::expansion::{
    diff_expansion, expansion_diff, expansion_mul, expansion_sum, scale_expansion, sign,
};
use crate::vec::{Vec2, Vec3};

/// Sign of a determinant-based orientation test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Orientation {
    /// Determinant > 0 (e.g. positively oriented tetrahedron).
    Positive,
    /// Determinant < 0.
    Negative,
    /// Exactly degenerate (coplanar / cocircular / cospherical).
    Zero,
}

impl Orientation {
    #[inline]
    fn from_sign(s: i32) -> Self {
        match s.cmp(&0) {
            std::cmp::Ordering::Greater => Orientation::Positive,
            std::cmp::Ordering::Less => Orientation::Negative,
            std::cmp::Ordering::Equal => Orientation::Zero,
        }
    }

    #[inline]
    pub fn is_positive(self) -> bool {
        self == Orientation::Positive
    }

    #[inline]
    pub fn is_negative(self) -> bool {
        self == Orientation::Negative
    }

    #[inline]
    pub fn is_zero(self) -> bool {
        self == Orientation::Zero
    }

    /// Reverse the orientation (swap of two rows).
    #[inline]
    pub fn flipped(self) -> Self {
        match self {
            Orientation::Positive => Orientation::Negative,
            Orientation::Negative => Orientation::Positive,
            Orientation::Zero => Orientation::Zero,
        }
    }
}

const EPS: f64 = f64::EPSILON / 2.0; // 2^-53, Shewchuk's "epsilon"
const O2D_BOUND: f64 = (3.0 + 16.0 * EPS) * EPS;
const O3D_BOUND: f64 = (7.0 + 56.0 * EPS) * EPS;
const ICC_BOUND: f64 = (10.0 + 96.0 * EPS) * EPS;
const ISP_BOUND: f64 = (16.0 + 224.0 * EPS) * EPS;
/// `insphere` stage 1: `ISP_BOUND · 6 · (1 + 64ε)`, see
/// [`InsphereFloat::stage1_bound`].
const ISP_STAGE1: f64 = ISP_BOUND * 6.0 * (1.0 + 64.0 * EPS);
/// Stage 1 decides only when `m_x·m_y·m_z·Σlift` is above this (~2^-930) …
const ISP_STAGE1_MIN: f64 = 1e-280;
/// … and `Σlift` below this (< 2^400: coordinate differences below 2^200).
const ISP_STAGE1_MAX_LIFT: f64 = 1e120;

/// Orientation of the 2D triangle `(a, b, c)`: `Positive` when the triangle
/// winds counterclockwise.
pub fn orient2d(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    orient2d_filtered(a, b, c).unwrap_or_else(|| orient2d_exact(a, b, c))
}

/// [`orient2d`] inlined into its caller, for a hot loop (the element
/// projector asks per footprint row): the filtered sign is a few flops, and
/// the rare undecided case goes to the out-of-line [`orient2d`].
#[inline]
pub fn orient2d_inline(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    orient2d_filtered(a, b, c).unwrap_or_else(|| orient2d(a, b, c))
}

/// The side of the directed line `a → b` that `c` lies on, with `c` moved
/// by the symbolic offset `(ε, ε²)`, `ε → 0⁺` (simulation of simplicity,
/// Edelsbrunner & Mücke): the sign of `orient2d(a, b, c + (ε, ε²))`.
/// `orient2d` is linear in `c`, so that is the exact [`orient2d`]; on a
/// zero, `sign(a_y − b_y)`; on a zero again, `sign(b_x − a_x)`. It is
/// `Zero` only when `a` and `b` coincide, and swapping them negates it.
/// Every decision of which side of a projected edge a vertical line of
/// sight passes — the march's edge sides, the hull entry, the element
/// projector's spans — is this one rule, so the moved line lies on no
/// projected edge or vertex and in exactly one tetrahedron at every
/// height. Inlined: the filtered sign is a few flops, and the rare
/// undecided case goes to the out-of-line [`orient2d`].
#[inline]
pub fn orient2d_sos(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    match orient2d_inline(a, b, c) {
        Orientation::Zero => {
            let s = if a.y != b.y { a.y - b.y } else { b.x - a.x };
            Orientation::from_sign((s > 0.0) as i32 - (s < 0.0) as i32)
        }
        o => o,
    }
}

/// The float filter: the sign when the determinant clears its error bound.
#[inline]
fn orient2d_filtered(a: Vec2, b: Vec2, c: Vec2) -> Option<Orientation> {
    let detleft = (a.x - c.x) * (b.y - c.y);
    let detright = (a.y - c.y) * (b.x - c.x);
    let det = detleft - detright;

    let detsum = detleft.abs() + detright.abs();
    (det.abs() > O2D_BOUND * detsum).then(|| Orientation::from_sign(if det > 0.0 { 1 } else { -1 }))
}

fn orient2d_exact(a: Vec2, b: Vec2, c: Vec2) -> Orientation {
    let acx = diff_expansion(a.x, c.x);
    let bcy = diff_expansion(b.y, c.y);
    let acy = diff_expansion(a.y, c.y);
    let bcx = diff_expansion(b.x, c.x);
    let left = expansion_mul(&acx, &bcy);
    let right = expansion_mul(&acy, &bcx);
    Orientation::from_sign(sign(&expansion_diff(&left, &right)))
}

/// Raw floating-point 3D orientation determinant (no filter, no fallback).
/// Used by the walking search where an occasionally-wrong *hint* is harmless.
#[inline]
pub fn orient3d_det(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> f64 {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let adz = a.z - d.z;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let bdz = b.z - d.z;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;
    let cdz = c.z - d.z;
    adx * (bdy * cdz - bdz * cdy) + bdx * (cdy * adz - cdz * ady) + cdx * (ady * bdz - adz * bdy)
}

/// Orientation of the tetrahedron `(a, b, c, d)`.
///
/// `Positive` when `d` lies on the side of plane `(a, b, c)` such that
/// `(a, b, c)` appears counterclockwise from `d` — equivalently, the signed
/// volume `det[a-d, b-d, c-d] / 6` is positive.
///
/// This is the *counted* entry point: every call is booked on
/// `geometry.orient3d_filtered` or `geometry.orient3d_exact`, the ledger
/// the triangulation builder's predicate work is read from.
pub fn orient3d(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Orientation {
    let (o, exact) = orient3d_sign(a, b, c, d);
    if exact {
        dtfe_telemetry::counter_add!("geometry.orient3d_exact", 1);
    } else {
        dtfe_telemetry::counter_add!("geometry.orient3d_filtered", 1);
    }
    o
}

/// [`orient3d`] without the telemetry booking — the same filtered pass and
/// the same exact fallback, so the same sign on every input. For callers
/// that are not triangulation work and keep their own counters (the
/// marching kernel's window-entry walk), so `geometry.predicate_calls_per_point`
/// keeps measuring the builder alone.
#[inline]
pub fn orient3d_uncounted(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Orientation {
    orient3d_sign(a, b, c, d).0
}

/// The sign core shared by [`orient3d`] and [`orient3d_uncounted`]: the
/// orientation, and whether the exact fallback decided it.
#[inline]
fn orient3d_sign(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> (Orientation, bool) {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let adz = a.z - d.z;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let bdz = b.z - d.z;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;
    let cdz = c.z - d.z;

    let bdycdz = bdy * cdz;
    let bdzcdy = bdz * cdy;
    let cdyadz = cdy * adz;
    let cdzady = cdz * ady;
    let adybdz = ady * bdz;
    let adzbdy = adz * bdy;

    let det = adx * (bdycdz - bdzcdy) + bdx * (cdyadz - cdzady) + cdx * (adybdz - adzbdy);
    let permanent = adx.abs() * (bdycdz.abs() + bdzcdy.abs())
        + bdx.abs() * (cdyadz.abs() + cdzady.abs())
        + cdx.abs() * (adybdz.abs() + adzbdy.abs());

    if det.abs() > O3D_BOUND * permanent {
        return (
            Orientation::from_sign(if det > 0.0 { 1 } else { -1 }),
            false,
        );
    }
    (orient3d_exact(a, b, c, d), true)
}

fn orient3d_exact(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Orientation {
    Orientation::from_sign(sign(&orient3d_expansion(a, b, c, d)))
}

/// Exact 3x3 determinant `det[a-d, b-d, c-d]` as an expansion.
fn orient3d_expansion(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Vec<f64> {
    let adx = diff_expansion(a.x, d.x);
    let ady = diff_expansion(a.y, d.y);
    let adz = diff_expansion(a.z, d.z);
    let bdx = diff_expansion(b.x, d.x);
    let bdy = diff_expansion(b.y, d.y);
    let bdz = diff_expansion(b.z, d.z);
    let cdx = diff_expansion(c.x, d.x);
    let cdy = diff_expansion(c.y, d.y);
    let cdz = diff_expansion(c.z, d.z);

    let m_a = expansion_diff(&expansion_mul(&bdy, &cdz), &expansion_mul(&bdz, &cdy));
    let m_b = expansion_diff(&expansion_mul(&cdy, &adz), &expansion_mul(&cdz, &ady));
    let m_c = expansion_diff(&expansion_mul(&ady, &bdz), &expansion_mul(&adz, &bdy));

    let t_a = expansion_mul(&adx, &m_a);
    let t_b = expansion_mul(&bdx, &m_b);
    let t_c = expansion_mul(&cdx, &m_c);
    expansion_sum(&expansion_sum(&t_a, &t_b), &t_c)
}

/// The float pass of [`insphere`]: the four rows translated to `e`, their
/// lifts, and the determinant evaluated in plain `f64`.
struct InsphereFloat {
    /// `[a-e, b-e, c-e, d-e]` as `[x, y, z]`.
    rows: [[f64; 3]; 4],
    lifts: [f64; 4],
    det: f64,
}

impl InsphereFloat {
    #[inline(always)]
    fn new(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> InsphereFloat {
        let [aex, aey, aez] = [a.x - e.x, a.y - e.y, a.z - e.z];
        let [bex, bey, bez] = [b.x - e.x, b.y - e.y, b.z - e.z];
        let [cex, cey, cez] = [c.x - e.x, c.y - e.y, c.z - e.z];
        let [dex, dey, dez] = [d.x - e.x, d.y - e.y, d.z - e.z];

        // 2x2 minors in the x-y columns.
        let ab = aex * bey - bex * aey;
        let bc = bex * cey - cex * bey;
        let cd = cex * dey - dex * cey;
        let da = dex * aey - aex * dey;
        let ac = aex * cey - cex * aey;
        let bd = bex * dey - dex * bey;

        // 3x3 minors (coordinate part).
        let abc = aez * bc - bez * ac + cez * ab;
        let bcd = bez * cd - cez * bd + dez * bc;
        let cda = cez * da + dez * ac + aez * cd;
        let dab = dez * ab + aez * bd + bez * da;

        let alift = aex * aex + aey * aey + aez * aez;
        let blift = bex * bex + bey * bey + bez * bez;
        let clift = cex * cex + cey * cey + cez * cez;
        let dlift = dex * dex + dey * dey + dez * dez;

        InsphereFloat {
            rows: [
                [aex, aey, aez],
                [bex, bey, bez],
                [cex, cey, cez],
                [dex, dey, dez],
            ],
            lifts: [alift, blift, clift, dlift],
            det: (dlift * abc - clift * dab) + (blift * cda - alift * bcd),
        }
    }

    /// Stage 1: `Some(bound)` with `bound >= ISP_BOUND * self.permanent()`
    /// as stage 2 computes it, for a dozen flops instead of sixty; `None`
    /// when the operands leave the range in which that is proved.
    ///
    /// With `m_k` the largest `|·|` of column `k`, every 2x2 absolute minor
    /// of the permanent is at most `2·m_x·m_y`, so every 3x3 one is at most
    /// `3·m_z·2·m_x·m_y`, so the permanent is at most `6·m_x·m_y·m_z·Σlift`.
    /// Rounding is monotone, so the same chain holds term by term for the
    /// computed values; what is left is the handful of roundings by which
    /// the two evaluation orders differ, which `64ε` covers several times
    /// over. Above `ISP_STAGE1_MAX_LIFT` a product could overflow in one
    /// order and not the other, below `ISP_STAGE1_MIN` an underflow's
    /// absolute error could outweigh the slack: both go to stage 2.
    #[inline(always)]
    fn stage1_bound(&self) -> Option<f64> {
        let col = |k: usize| {
            let [a, b, c, d] = self.rows.map(|r| r[k].abs());
            a.max(b).max(c.max(d))
        };
        let lift_sum = (self.lifts[0] + self.lifts[1]) + (self.lifts[2] + self.lifts[3]);
        let w = col(0) * col(1) * col(2) * lift_sum;
        // NaN fails both comparisons.
        (w > ISP_STAGE1_MIN && lift_sum < ISP_STAGE1_MAX_LIFT).then_some(ISP_STAGE1 * w)
    }

    /// Stage 2: the same polynomial as `det` with `|·|` everywhere a
    /// cancellation can occur.
    #[inline(always)]
    fn permanent(&self) -> f64 {
        let [[aex, aey, aez], [bex, bey, bez], [cex, cey, cez], [dex, dey, dez]] = self.rows;
        let [alift, blift, clift, dlift] = self.lifts;
        let ab_p = (aex * bey).abs() + (bex * aey).abs();
        let bc_p = (bex * cey).abs() + (cex * bey).abs();
        let cd_p = (cex * dey).abs() + (dex * cey).abs();
        let da_p = (dex * aey).abs() + (aex * dey).abs();
        let ac_p = (aex * cey).abs() + (cex * aey).abs();
        let bd_p = (bex * dey).abs() + (dex * bey).abs();
        let abc_p = aez.abs() * bc_p + bez.abs() * ac_p + cez.abs() * ab_p;
        let bcd_p = bez.abs() * cd_p + cez.abs() * bd_p + dez.abs() * bc_p;
        let cda_p = cez.abs() * da_p + dez.abs() * ac_p + aez.abs() * cd_p;
        let dab_p = dez.abs() * ab_p + aez.abs() * bd_p + bez.abs() * da_p;
        dlift * abc_p + clift * dab_p + blift * cda_p + alift * bcd_p
    }

    /// Does stage 1 certify the sign of `det`?
    #[inline(always)]
    fn stage1_certain(&self) -> bool {
        self.stage1_bound()
            .is_some_and(|bound| self.det.abs() > bound)
    }

    /// Does stage 2?
    #[inline(always)]
    fn stage2_certain(&self) -> bool {
        self.det.abs() > ISP_BOUND * self.permanent()
    }

    #[inline(always)]
    fn sign(&self) -> Orientation {
        Orientation::from_sign(if self.det > 0.0 { 1 } else { -1 })
    }
}

/// Is `e` inside the circumsphere of the positively-oriented tetrahedron
/// `(a, b, c, d)`?
///
/// Returns `Positive` when `e` is strictly inside (assuming
/// `orient3d(a, b, c, d)` is `Positive`; for a negatively-oriented
/// tetrahedron the meaning flips), `Negative` when strictly outside, `Zero`
/// when exactly cospherical.
///
/// Every call is booked once, on `geometry.insphere_filtered` when either
/// float stage decided it or on `geometry.insphere_exact`.
pub fn insphere(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> Orientation {
    let float = InsphereFloat::new(a, b, c, d, e);
    if float.stage1_certain() {
        dtfe_telemetry::counter_add!("geometry.insphere_filtered", 1);
        return float.sign();
    }
    insphere_stage2(&float, [a, b, c, d, e])
}

/// Stages 2 and 3 of [`insphere`]. Out of line: inlined, the permanent's
/// sixty flops are hoisted above the stage-1 branch that exists to skip them.
#[inline(never)]
fn insphere_stage2(float: &InsphereFloat, [a, b, c, d, e]: [Vec3; 5]) -> Orientation {
    if float.stage2_certain() {
        dtfe_telemetry::counter_add!("geometry.insphere_filtered", 1);
        return float.sign();
    }
    dtfe_telemetry::counter_add!("geometry.insphere_exact", 1);
    insphere_exact(a, b, c, d, e)
}

fn insphere_exact(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> Orientation {
    // Exact difference expansions.
    let diffs = |p: Vec3| {
        (
            diff_expansion(p.x, e.x),
            diff_expansion(p.y, e.y),
            diff_expansion(p.z, e.z),
        )
    };
    let (ax, ay, az) = diffs(a);
    let (bx, by, bz) = diffs(b);
    let (cx, cy, cz) = diffs(c);
    let (dx, dy, dz) = diffs(d);

    let lift = |x: &[f64], y: &[f64], z: &[f64]| {
        let xx = expansion_mul(x, x);
        let yy = expansion_mul(y, y);
        let zz = expansion_mul(z, z);
        expansion_sum(&expansion_sum(&xx, &yy), &zz)
    };
    let alift = lift(&ax, &ay, &az);
    let blift = lift(&bx, &by, &bz);
    let clift = lift(&cx, &cy, &cz);
    let dlift = lift(&dx, &dy, &dz);

    // 3x3 determinant of three rows of difference expansions.
    let det3 = |x0: &[f64],
                y0: &[f64],
                z0: &[f64],
                x1: &[f64],
                y1: &[f64],
                z1: &[f64],
                x2: &[f64],
                y2: &[f64],
                z2: &[f64]| {
        let m0 = expansion_diff(&expansion_mul(y1, z2), &expansion_mul(z1, y2));
        let m1 = expansion_diff(&expansion_mul(y2, z0), &expansion_mul(z2, y0));
        let m2 = expansion_diff(&expansion_mul(y0, z1), &expansion_mul(z0, y1));
        let t0 = expansion_mul(x0, &m0);
        let t1 = expansion_mul(x1, &m1);
        let t2 = expansion_mul(x2, &m2);
        expansion_sum(&expansion_sum(&t0, &t1), &t2)
    };

    let det_bcd = det3(&bx, &by, &bz, &cx, &cy, &cz, &dx, &dy, &dz);
    let det_acd = det3(&ax, &ay, &az, &cx, &cy, &cz, &dx, &dy, &dz);
    let det_abd = det3(&ax, &ay, &az, &bx, &by, &bz, &dx, &dy, &dz);
    let det_abc = det3(&ax, &ay, &az, &bx, &by, &bz, &cx, &cy, &cz);

    // Cofactor expansion along the lift column:
    // det = -alift*det(bcd) + blift*det(acd) - clift*det(abd) + dlift*det(abc)
    let t_a = scale_expansion(&expansion_mul(&alift, &det_bcd), -1.0);
    let t_b = expansion_mul(&blift, &det_acd);
    let t_c = scale_expansion(&expansion_mul(&clift, &det_abd), -1.0);
    let t_d = expansion_mul(&dlift, &det_abc);
    let det = expansion_sum(&expansion_sum(&t_a, &t_b), &expansion_sum(&t_c, &t_d));
    Orientation::from_sign(sign(&det))
}

/// Is `d` inside the circumcircle of the counterclockwise triangle
/// `(a, b, c)`? (`Positive` = strictly inside, for a CCW triangle.)
pub fn incircle(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> Orientation {
    let adx = a.x - d.x;
    let ady = a.y - d.y;
    let bdx = b.x - d.x;
    let bdy = b.y - d.y;
    let cdx = c.x - d.x;
    let cdy = c.y - d.y;

    let bdxcdy = bdx * cdy;
    let cdxbdy = cdx * bdy;
    let alift = adx * adx + ady * ady;
    let cdxady = cdx * ady;
    let adxcdy = adx * cdy;
    let blift = bdx * bdx + bdy * bdy;
    let adxbdy = adx * bdy;
    let bdxady = bdx * ady;
    let clift = cdx * cdx + cdy * cdy;

    let det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady);
    let permanent = alift * (bdxcdy.abs() + cdxbdy.abs())
        + blift * (cdxady.abs() + adxcdy.abs())
        + clift * (adxbdy.abs() + bdxady.abs());

    if det.abs() > ICC_BOUND * permanent {
        return Orientation::from_sign(if det > 0.0 { 1 } else { -1 });
    }
    incircle_exact(a, b, c, d)
}

fn incircle_exact(a: Vec2, b: Vec2, c: Vec2, d: Vec2) -> Orientation {
    let adx = diff_expansion(a.x, d.x);
    let ady = diff_expansion(a.y, d.y);
    let bdx = diff_expansion(b.x, d.x);
    let bdy = diff_expansion(b.y, d.y);
    let cdx = diff_expansion(c.x, d.x);
    let cdy = diff_expansion(c.y, d.y);

    let lift2 = |x: &[f64], y: &[f64]| expansion_sum(&expansion_mul(x, x), &expansion_mul(y, y));
    let alift = lift2(&adx, &ady);
    let blift = lift2(&bdx, &bdy);
    let clift = lift2(&cdx, &cdy);

    let m_a = expansion_diff(&expansion_mul(&bdx, &cdy), &expansion_mul(&cdx, &bdy));
    let m_b = expansion_diff(&expansion_mul(&cdx, &ady), &expansion_mul(&adx, &cdy));
    let m_c = expansion_diff(&expansion_mul(&adx, &bdy), &expansion_mul(&bdx, &ady));

    let t_a = expansion_mul(&alift, &m_a);
    let t_b = expansion_mul(&blift, &m_b);
    let t_c = expansion_mul(&clift, &m_c);
    Orientation::from_sign(sign(&expansion_sum(&expansion_sum(&t_a, &t_b), &t_c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orient2d_basic() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        let c = Vec2::new(0.0, 1.0);
        assert_eq!(orient2d(a, b, c), Orientation::Positive);
        assert_eq!(orient2d(a, c, b), Orientation::Negative);
        assert_eq!(orient2d(a, b, Vec2::new(2.0, 0.0)), Orientation::Zero);
    }

    #[test]
    fn orient2d_nearly_collinear_exact() {
        // Classic adversarial case: points on a line with a tiny offset that
        // naive arithmetic misjudges.
        let a = Vec2::new(0.5, 0.5);
        let b = Vec2::new(12.0, 12.0);
        let c = Vec2::new(24.0, 24.0);
        assert_eq!(orient2d(a, b, c), Orientation::Zero);
        // One-ulp perturbations must be resolved exactly.
        let c_up = Vec2::new(24.0, 24.0_f64.next_up());
        assert_eq!(orient2d(a, b, c_up), Orientation::Positive);
        let c_dn = Vec2::new(24.0, 24.0_f64.next_down());
        assert_eq!(orient2d(a, b, c_dn), Orientation::Negative);
    }

    /// The points of the 5 × 5 lattice `{0, ½, …, 2}²`: every triple of
    /// them that is collinear is a tie the symbolic offset must break.
    fn half_lattice() -> Vec<Vec2> {
        (0..25)
            .map(|k| Vec2::new((k % 5) as f64 * 0.5, (k / 5) as f64 * 0.5))
            .collect()
    }

    #[test]
    fn orient2d_sos_is_antisymmetric_and_never_zero() {
        let pts = half_lattice();
        let mut ties = 0;
        for &a in &pts {
            for &b in &pts {
                for &c in &pts {
                    let o = orient2d_sos(a, b, c);
                    assert_eq!(orient2d_sos(b, a, c), o.flipped(), "{a:?} {b:?} {c:?}");
                    assert_eq!(o.is_zero(), a == b, "{a:?} {b:?} {c:?}");
                    if orient2d(a, b, c).is_zero() {
                        ties += 1;
                    } else {
                        assert_eq!(o, orient2d(a, b, c), "the exact sign stands");
                    }
                }
            }
        }
        assert!(ties > 1000, "{ties} ties");
    }

    #[test]
    fn orient2d_sos_counts_a_point_on_an_edge_as_right_of_it() {
        // The element projector's span rule: a centre on an edge that
        // crosses its row lies right of it, whichever way the edge runs.
        let pts = half_lattice();
        for &u in &pts {
            for &v in pts.iter().filter(|v| v.y != u.y) {
                let up = v.y > u.y;
                for &c in &pts {
                    let right = match orient2d(u, v, c) {
                        Orientation::Zero => true,
                        Orientation::Positive => !up,
                        Orientation::Negative => up,
                    };
                    let sos = orient2d_sos(u, v, c);
                    let sos_right = sos
                        == if up {
                            Orientation::Negative
                        } else {
                            Orientation::Positive
                        };
                    assert_eq!(sos_right, right, "{u:?} → {v:?}, {c:?}");
                }
            }
        }
        // A horizontal edge takes the second tie-break: `c + (ε, ε²)` is
        // above the line through it, on the left of `a → b` when `b` is
        // right of `a`.
        let (a, b) = (Vec2::new(0.0, 1.0), Vec2::new(2.0, 1.0));
        assert_eq!(
            orient2d_sos(a, b, Vec2::new(5.0, 1.0)),
            Orientation::Positive
        );
        assert_eq!(
            orient2d_sos(b, a, Vec2::new(5.0, 1.0)),
            Orientation::Negative
        );
    }

    #[test]
    fn orient3d_basic() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d_up = Vec3::new(0.0, 0.0, 1.0);
        // det[a-d, b-d, c-d] with d above the CCW triangle abc:
        // rows (0,0,-1),(1,0,-1),(0,1,-1) -> det = -1... verify sign matches
        // signed-volume convention via the raw determinant.
        let det = orient3d_det(a, b, c, d_up);
        let o = orient3d(a, b, c, d_up);
        assert_eq!(o.is_positive(), det > 0.0);
        assert_eq!(
            orient3d(a, b, c, Vec3::new(0.3, 0.3, 0.0)),
            Orientation::Zero
        );
        assert_eq!(orient3d(a, b, c, d_up).flipped(), orient3d(a, c, b, d_up));
    }

    #[test]
    fn orient3d_coplanar_exact() {
        // Points on the plane x + y + z = 1 with coordinates that stress
        // rounding.
        let a = Vec3::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0);
        let b = Vec3::new(0.1, 0.2, 0.7);
        let c = Vec3::new(0.25, 0.5, 0.25);
        // A fourth point constructed to be exactly coplanar is hard in
        // floating point, so instead take three collinear-ish combinations of
        // a..c and verify determinant sign stability under tiny perturbation.
        let mid = Vec3::new(
            (a.x + b.x + c.x) / 3.0,
            (a.y + b.y + c.y) / 3.0,
            (a.z + b.z + c.z) / 3.0,
        );
        let o1 = orient3d(a, b, c, mid);
        // Whatever the (tiny) rounding of `mid`, the exact predicate must give
        // the same answer when called twice and flip under row swap.
        assert_eq!(o1, orient3d(a, b, c, mid));
        assert_eq!(o1.flipped(), orient3d(b, a, c, mid));
    }

    #[test]
    fn orient3d_exact_lattice() {
        // Exactly coplanar lattice points (all integers).
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 6.0);
        let c = Vec3::new(1.0, 1.0, 1.0);
        let d = Vec3::new(3.0, 5.0, 7.0); // b + c
        assert_eq!(orient3d(a, b, c, d), Orientation::Zero);
    }

    fn circumsphere_sign(a: Vec3, b: Vec3, c: Vec3, d: Vec3, e: Vec3) -> f64 {
        // Direct circumcenter computation (not robust, for cross-checking on
        // well-conditioned inputs only).
        let m = [
            [b.x - a.x, b.y - a.y, b.z - a.z],
            [c.x - a.x, c.y - a.y, c.z - a.z],
            [d.x - a.x, d.y - a.y, d.z - a.z],
        ];
        let rhs = [
            0.5 * (b.norm_sq() - a.norm_sq()),
            0.5 * (c.norm_sq() - a.norm_sq()),
            0.5 * (d.norm_sq() - a.norm_sq()),
        ];
        let det = |m: &[[f64; 3]; 3]| {
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        };
        let d0 = det(&m);
        let mut mx = m;
        mx[0][0] = rhs[0];
        mx[1][0] = rhs[1];
        mx[2][0] = rhs[2];
        let mut my = m;
        my[0][1] = rhs[0];
        my[1][1] = rhs[1];
        my[2][1] = rhs[2];
        let mut mz = m;
        mz[0][2] = rhs[0];
        mz[1][2] = rhs[1];
        mz[2][2] = rhs[2];
        let center = Vec3::new(det(&mx) / d0, det(&my) / d0, det(&mz) / d0);
        let r2 = center.distance_sq(a);
        r2 - center.distance_sq(e) // positive when e inside
    }

    #[test]
    fn insphere_matches_direct_circumsphere() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(1.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d = Vec3::new(0.0, 0.0, 1.0);
        assert!(orient3d(a, b, c, d).is_negative());
        // Use the positively oriented ordering.
        let (a, b) = (b, a);
        assert!(orient3d(a, b, c, d).is_positive());

        let inside = Vec3::new(0.25, 0.25, 0.25);
        let outside = Vec3::new(2.0, 2.0, 2.0);
        assert_eq!(
            insphere(a, b, c, d, inside).is_positive(),
            circumsphere_sign(a, b, c, d, inside) > 0.0
        );
        assert!(insphere(a, b, c, d, inside).is_positive());
        assert!(insphere(a, b, c, d, outside).is_negative());
    }

    #[test]
    fn insphere_cospherical_exact() {
        // Five points of a cube: the first four define a sphere through all
        // eight corners, so any other corner is exactly cospherical.
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d = Vec3::new(0.0, 0.0, 1.0);
        assert!(orient3d(a, b, c, d).is_positive());
        let e = Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(insphere(a, b, c, d, e), Orientation::Zero);
        let e_in = Vec3::new(1.0 - 1e-14, 1.0 - 1e-14, 1.0 - 1e-14);
        assert_eq!(insphere(a, b, c, d, e_in), Orientation::Positive);
    }

    #[test]
    fn insphere_orientation_antisymmetry() {
        // Swapping two of the defining points flips the sign.
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 0.0, 0.0);
        let c = Vec3::new(0.0, 1.0, 0.0);
        let d = Vec3::new(0.0, 0.0, 1.0);
        let e = Vec3::new(0.1, 0.2, 0.3);
        assert_eq!(insphere(a, b, c, d, e).flipped(), insphere(b, a, c, d, e));
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

    /// `x` moved by `k` units in the last place.
    fn nudged(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    fn scaled(t: [Vec3; 5], by: f64) -> [Vec3; 5] {
        t.map(|p| p * by)
    }

    /// Five-tuples the filter must not be fooled by: cube corners and lattice
    /// sites (exactly cospherical or nearly so), points on a common sphere
    /// with the fifth nudged off it by a few ulp or by a relative 2^-k, and
    /// a few generic ones so every stage decides some.
    fn near_cospherical_corpus() -> Vec<[Vec3; 5]> {
        let mut r = uniform(0x0C05_FE2E);
        let mut out = Vec::new();
        let corner = |i: usize| Vec3::new((i & 1) as f64, (i >> 1 & 1) as f64, (i >> 2 & 1) as f64);
        for _ in 0..300 {
            let mut pick = || corner((r() * 8.0) as usize);
            out.push([pick(), pick(), pick(), pick(), pick()]);
        }
        for _ in 0..300 {
            let mut site = || {
                Vec3::new(
                    (r() * 5.0).floor(),
                    (r() * 5.0).floor(),
                    (r() * 5.0).floor(),
                )
            };
            out.push([site(), site(), site(), site(), site()]);
        }
        // The inverse stereographic image of (u, v): on the unit sphere up
        // to rounding.
        let on_sphere = |u: f64, v: f64| {
            let s = u * u + v * v;
            Vec3::new(
                2.0 * u / (1.0 + s),
                2.0 * v / (1.0 + s),
                (s - 1.0) / (1.0 + s),
            )
        };
        for i in 0..600 {
            let mut p = || on_sphere(4.0 * r() - 2.0, 4.0 * r() - 2.0);
            let (a, b, c, d, e) = (p(), p(), p(), p(), p());
            let e = match i % 3 {
                0 => {
                    let k = 1 + (i / 3) as i64 % 4;
                    Vec3::new(nudged(e.x, k), nudged(e.y, -k), nudged(e.z, k))
                }
                1 => e * (1.0 + 0.5f64.powi(30 + (i / 3) % 23)),
                _ => e * (1.0 - 0.5f64.powi(30 + (i / 3) % 23)),
            };
            out.push([a, b, c, d, e]);
        }
        for _ in 0..100 {
            let mut p = || Vec3::new(r(), r(), r());
            out.push([p(), p(), p(), p(), p()]);
        }
        out
    }

    #[test]
    fn insphere_stage1_bound_dominates_the_permanent() {
        // Wherever stage 1 offers a bound it is at least stage 2's, so it
        // certifies nothing stage 2 would not: on generic clouds at every
        // scale, on flat, needle-like and nearly coincident configurations,
        // and on the near-cospherical corpus.
        let mut r = uniform(0xB00D);
        let mut tuples = near_cospherical_corpus();
        while tuples.len() < 100_000 {
            let scale = 2.0f64.powi((r() * 80.0) as i32 - 40);
            // Squash each axis by its own factor now and then.
            let squash = |x: f64| {
                if x < 0.3 {
                    2.0f64.powi(-(x * 200.0) as i32)
                } else {
                    1.0
                }
            };
            let (sx, sy, sz) = (squash(r()), squash(r()), squash(r()));
            let origin = Vec3::new(r(), r(), r()) * if r() < 0.5 { 1e6 } else { 0.0 };
            let mut p = || origin + Vec3::new(r() * sx, r() * sy, r() * sz) * scale;
            tuples.push([p(), p(), p(), p(), p()]);
        }
        let mut offered = 0usize;
        let mut certain = 0usize;
        for &[a, b, c, d, e] in &tuples {
            let f = InsphereFloat::new(a, b, c, d, e);
            if let Some(bound) = f.stage1_bound() {
                offered += 1;
                let stage2 = ISP_BOUND * f.permanent();
                assert!(
                    bound >= stage2,
                    "stage-1 bound {bound:e} below stage 2's {stage2:e} for {a:?} {b:?} {c:?} {d:?} {e:?}"
                );
            }
            certain += f.stage1_certain() as usize;
        }
        // Not vacuous: the bound is there (the tuples without one are the
        // clusters that collapse to coincident points far from the origin),
        // and loose by a small factor only.
        assert!(offered > tuples.len() * 3 / 4, "offered on {offered}");
        assert!(certain > tuples.len() * 2 / 3, "certain on {certain}");
    }

    #[test]
    fn insphere_agrees_with_exact_on_the_near_cospherical_corpus() {
        let corpus = near_cospherical_corpus();
        let (mut by_stage1, mut by_stage2, mut by_exact) = (0, 0, 0);
        // As is, and scaled until products overflow to inf or underflow to 0.
        for scale in [1.0, 2.0f64.powi(500), 2.0f64.powi(-500)] {
            for &t in &corpus {
                let [a, b, c, d, e] = scaled(t, scale);
                let f = InsphereFloat::new(a, b, c, d, e);
                if f.stage1_certain() {
                    by_stage1 += 1;
                    let bound = f.stage1_bound().expect("certain without a bound");
                    assert!(
                        bound.is_finite() && bound > 0.0,
                        "decided on bound {bound:e}"
                    );
                    assert!(
                        f.det.is_finite() && f.det != 0.0,
                        "decided on det {:e}",
                        f.det
                    );
                    assert!(f.stage2_certain(), "stage 1 decided what stage 2 would not");
                } else if f.stage2_certain() {
                    by_stage2 += 1;
                } else {
                    by_exact += 1;
                }
                if scale != 1.0 {
                    assert!(!f.stage1_certain(), "stage 1 decided at scale {scale:e}");
                }
                assert_eq!(
                    insphere(a, b, c, d, e),
                    insphere_exact(a, b, c, d, e),
                    "at scale {scale:e}: {a:?} {b:?} {c:?} {d:?} {e:?}"
                );
            }
        }
        // The corpus reaches every stage.
        assert!(by_stage1 > 100, "stage 1 decided {by_stage1}");
        assert!(by_stage2 > 10, "stage 2 decided {by_stage2}");
        assert!(by_exact > 1000, "exact decided {by_exact}");
    }

    #[test]
    fn insphere_books_every_call_once() {
        let corpus = near_cospherical_corpus();
        let rec = dtfe_telemetry::Recorder::new("insphere");
        let guard = rec.install();
        for &[a, b, c, d, e] in &corpus {
            insphere(a, b, c, d, e);
        }
        drop(guard);
        let m = rec.snapshot().metrics;
        let (filtered, exact) = (
            m.counter("geometry.insphere_filtered"),
            m.counter("geometry.insphere_exact"),
        );
        assert_eq!(filtered + exact, corpus.len() as u64);
        assert!(
            filtered > 0 && exact > 0,
            "{filtered} filtered, {exact} exact"
        );
    }

    #[test]
    fn incircle_basic() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 0.0);
        let c = Vec2::new(0.0, 1.0);
        assert!(orient2d(a, b, c).is_positive());
        assert!(incircle(a, b, c, Vec2::new(0.5, 0.5)).is_positive());
        assert!(incircle(a, b, c, Vec2::new(5.0, 5.0)).is_negative());
        // (1,1) is on the circle through the right triangle's vertices.
        assert_eq!(incircle(a, b, c, Vec2::new(1.0, 1.0)), Orientation::Zero);
    }
}
