//! The Lagrangian hydro kernels, in the order LULESH runs them each cycle:
//!
//! 1. stress + hourglass force terms per element, gathered at the nodes;
//! 2. acceleration, symmetry boundary conditions, velocity/position update;
//! 3. kinematics: new volumes, strain rates, characteristic lengths;
//! 4. artificial viscosity (q);
//! 5. equation of state: pressure/energy update, sound speed;
//! 6. time-constraint reduction (Courant condition).
//!
//! Geometry is exact for the trilinear hexahedron *as decomposed into six
//! tetrahedra*: volumes are sums of tet volumes and nodal volume-derivative
//! vectors are sums of exact tet gradients (`∂V_tet/∂a = (b−d)×(c−d)/6`).
//! The hourglass treatment is a velocity-filter damping toward the element
//! mean (a documented simplification of the mini-app's flanagan-belytschko
//! hourglass control — see DESIGN.md). Every kernel operates on an index
//! range so the driver can chunk it across workers; all writes are to the
//! range owner's rows (gather form), so results are bit-identical for any
//! chunking.

use super::domain::{Domain, ForceTerms, GAMMA, RHO0};

/// Corner-based decomposition of the hex (LULESH node order) into six
/// tetrahedra covering the volume exactly for planar-enough faces.
const TETS: [[usize; 4]; 6] = [
    [0, 1, 2, 6],
    [0, 2, 3, 6],
    [0, 3, 7, 6],
    [0, 7, 4, 6],
    [0, 4, 5, 6],
    [0, 5, 1, 6],
];

#[inline]
fn tet_volume(p: &[[f64; 3]; 8], t: &[usize; 4]) -> f64 {
    let a = p[t[0]];
    let b = p[t[1]];
    let c = p[t[2]];
    let d = p[t[3]];
    let ab = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
    let ac = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
    let ad = [d[0] - a[0], d[1] - a[1], d[2] - a[2]];
    (ab[0] * (ac[1] * ad[2] - ac[2] * ad[1]) - ab[1] * (ac[0] * ad[2] - ac[2] * ad[0])
        + ab[2] * (ac[0] * ad[1] - ac[1] * ad[0]))
        / 6.0
}

fn corner_positions(d: &Domain, elem: usize) -> [[f64; 3]; 8] {
    let nodes = d.elem_nodes(elem);
    let mut p = [[0.0; 3]; 8];
    for (slot, &n) in nodes.iter().enumerate() {
        p[slot] = [d.x[n], d.y[n], d.z[n]];
    }
    p
}

/// Volume of element `elem` in its current configuration.
pub fn elem_volume(d: &Domain, elem: usize) -> f64 {
    let p = corner_positions(d, elem);
    TETS.iter().map(|t| tet_volume(&p, t)).sum()
}

/// Exact gradient of the element volume with respect to each corner.
pub fn elem_volume_gradients(p: &[[f64; 3]; 8]) -> [[f64; 3]; 8] {
    let mut grads = [[0.0; 3]; 8];
    for t in &TETS {
        // V = (AB × AC) · AD / 6, vertices (a, b, c, d) = t.
        // ∂V/∂b = (AC × AD)/6, ∂V/∂c = (AD × AB)/6, ∂V/∂d = (AB × AC)/6,
        // ∂V/∂a = −(sum of the others).
        let a = p[t[0]];
        let b = p[t[1]];
        let c = p[t[2]];
        let d = p[t[3]];
        let ab = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        let ac = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
        let ad = [d[0] - a[0], d[1] - a[1], d[2] - a[2]];
        let cross = |u: [f64; 3], v: [f64; 3]| {
            [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
        };
        let gb = cross(ac, ad);
        let gc = cross(ad, ab);
        let gd = cross(ab, ac);
        for x in 0..3 {
            grads[t[1]][x] += gb[x] / 6.0;
            grads[t[2]][x] += gc[x] / 6.0;
            grads[t[3]][x] += gd[x] / 6.0;
            grads[t[0]][x] -= (gb[x] + gc[x] + gd[x]) / 6.0;
        }
    }
    grads
}

/// Hourglass damping coefficient.
const HG_COEF: f64 = 0.03;

/// Kernel 1a (element pass): compute, once per element in `range`, the
/// terms its corners' forces need — stress, corner volume gradients, mean
/// corner velocity and hourglass scale — into `d.force_terms`.
pub fn calc_force_terms(d: &mut Domain, range: std::ops::Range<usize>) {
    for elem in range {
        let grads = elem_volume_gradients(&corner_positions(d, elem));
        let mut mean = [0.0f64; 3];
        for m in d.elem_nodes(elem) {
            mean[0] += d.xd[m];
            mean[1] += d.yd[m];
            mean[2] += d.zd[m];
        }
        for x in &mut mean {
            *x /= 8.0;
        }
        let rho = RHO0 / d.v[elem].max(1e-12);
        d.force_terms[elem] = ForceTerms {
            stress: d.p[elem] + d.q[elem],
            grads,
            mean_vel: mean,
            hg_scale: HG_COEF * rho * d.arealg[elem] * d.ss[elem].max(1e-12),
        };
    }
}

/// Kernel 1b (node gather): sum the stress and hourglass forces of each
/// node in `range` from its adjacent elements' [`calc_force_terms`]. Each
/// node writes only its own row, so chunks never write each other's rows.
pub fn integrate_force(d: &mut Domain, range: std::ops::Range<usize>) {
    for n in range {
        let mut f = [0.0f64; 3];
        for (elem, slot) in d.node_corners(n) {
            let t = &d.force_terms[elem];
            // Pressure (and the viscous pseudo-pressure) push the corner
            // outward: F = +(p+q)·∂V/∂x.
            for (fx, g) in f.iter_mut().zip(t.grads[slot]) {
                *fx += t.stress * g;
            }
            // Hourglass control: damp this node's velocity toward the
            // element mean velocity.
            f[0] -= t.hg_scale * (d.xd[n] - t.mean_vel[0]);
            f[1] -= t.hg_scale * (d.yd[n] - t.mean_vel[1]);
            f[2] -= t.hg_scale * (d.zd[n] - t.mean_vel[2]);
        }
        d.fx[n] = f[0];
        d.fy[n] = f[1];
        d.fz[n] = f[2];
    }
}

/// Kernel 2: acceleration from force, symmetry-plane boundary conditions,
/// then velocity and position integration for the nodes in `range`.
pub fn integrate_motion(d: &mut Domain, range: std::ops::Range<usize>, dt: f64) {
    let nper = d.nper();
    for n in range {
        let m = d.nodal_mass[n].max(1e-300);
        let mut acc = [d.fx[n] / m, d.fy[n] / m, d.fz[n] / m];
        let (i, j, k) = (n % nper, (n / nper) % nper, n / (nper * nper));
        // Symmetry planes at x=0, y=0, z=0 (the Sedov octant boundaries).
        if i == 0 {
            acc[0] = 0.0;
        }
        if j == 0 {
            acc[1] = 0.0;
        }
        if k == 0 {
            acc[2] = 0.0;
        }
        d.xdd[n] = acc[0];
        d.ydd[n] = acc[1];
        d.zdd[n] = acc[2];
        d.xd[n] += acc[0] * dt;
        d.yd[n] += acc[1] * dt;
        d.zd[n] += acc[2] * dt;
        d.x[n] += d.xd[n] * dt;
        d.y[n] += d.yd[n] * dt;
        d.z[n] += d.zd[n] * dt;
    }
}

/// Kernel 3: kinematics — new relative volume, volume change, strain rate,
/// and characteristic length for the elements in `range`.
pub fn calc_kinematics(d: &mut Domain, range: std::ops::Range<usize>, dt: f64) {
    for elem in range {
        let vol = elem_volume(d, elem);
        let rel = vol / d.volo[elem];
        d.delv[elem] = rel - d.v[elem];
        d.vdov[elem] = if dt > 0.0 { d.delv[elem] / (d.v[elem].max(1e-12) * dt) } else { 0.0 };
        d.v[elem] = rel.max(1e-6);
        d.arealg[elem] = vol.max(1e-300).cbrt();
    }
}

/// Artificial-viscosity coefficients (quadratic and linear terms).
const Q_QUAD: f64 = 2.0;
const Q_LIN: f64 = 0.25;

/// Kernel 4: artificial viscosity for the elements in `range` — nonzero
/// only in compression, quadratic + linear in the velocity jump.
pub fn calc_q(d: &mut Domain, range: std::ops::Range<usize>) {
    for elem in range {
        let vdov = d.vdov[elem];
        if vdov < 0.0 {
            let rho = RHO0 / d.v[elem].max(1e-12);
            let dvel = -vdov * d.arealg[elem]; // velocity jump scale
            d.q[elem] = rho * (Q_QUAD * dvel * dvel + Q_LIN * d.ss[elem] * dvel);
        } else {
            d.q[elem] = 0.0;
        }
    }
}

/// Floor on relative volume change treated as zero (LULESH's `v_cut`).
const DELV_CUT: f64 = 1e-10;

/// Kernel 5: equation of state — two-pass predictor/corrector energy and
/// pressure update (ideal gas), plus the new sound speed.
pub fn calc_eos(d: &mut Domain, range: std::ops::Range<usize>) {
    for elem in range {
        let delv = if d.delv[elem].abs() < DELV_CUT { 0.0 } else { d.delv[elem] };
        // Predictor: half-step compression work with old pressure.
        let mut e_new = d.e[elem] - 0.5 * (d.p[elem] + d.q[elem]) * delv;
        e_new = e_new.max(0.0);
        let mut p_new = (GAMMA - 1.0) / d.v[elem].max(1e-12) * e_new;
        p_new = p_new.max(0.0);
        // Corrector: redo the work term with the mean pressure.
        e_new = d.e[elem] - 0.5 * (0.5 * (d.p[elem] + p_new) + d.q[elem]) * delv;
        e_new = e_new.max(0.0);
        p_new = ((GAMMA - 1.0) / d.v[elem].max(1e-12) * e_new).max(0.0);
        d.e[elem] = e_new;
        d.p[elem] = p_new;
        let ss2 = GAMMA * p_new * d.v[elem] / RHO0;
        d.ss[elem] = ss2.max(1e-12).sqrt();
    }
}

/// Courant safety factor, hydro volume-change limit, and growth cap.
const CFL: f64 = 0.15;
const DVOV_MAX: f64 = 0.05;
const DT_GROW: f64 = 1.2;

/// Kernel 6 (serial reduction): next timestep from the Courant condition
/// and the hydro constraint (limit relative volume change per cycle), as in
/// LULESH's `CalcTimeConstraintsForElems`.
pub fn calc_dt(d: &Domain) -> f64 {
    let mut dt_courant = f64::INFINITY;
    let mut dt_hydro = f64::INFINITY;
    for elem in 0..d.num_elems() {
        let denom = d.ss[elem] + 1e-12;
        dt_courant = dt_courant.min(d.arealg[elem] / denom);
        if d.vdov[elem].abs() > 1e-12 {
            dt_hydro = dt_hydro.min(DVOV_MAX / d.vdov[elem].abs());
        }
    }
    (CFL * dt_courant).min(dt_hydro).min(d.dt * DT_GROW)
}

/// One full sequential cycle (the reference the parallel driver must match).
pub fn step_sequential(d: &mut Domain) {
    let dt = d.dt;
    calc_force_terms(d, 0..d.num_elems());
    integrate_force(d, 0..d.num_nodes());
    integrate_motion(d, 0..d.num_nodes(), dt);
    calc_kinematics(d, 0..d.num_elems(), dt);
    calc_q(d, 0..d.num_elems());
    calc_eos(d, 0..d.num_elems());
    d.dt = calc_dt(d);
    d.time += dt;
    d.cycle += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lulesh::domain::SEDOV_ENERGY;

    #[test]
    fn unit_cube_volume_and_gradients() {
        let d = Domain::sedov(2);
        let h = 1.125 / 2.0;
        let vol = elem_volume(&d, 0);
        assert!((vol - h * h * h).abs() < 1e-12);
        // Gradients of a rectangular hex: moving corner 6 (far corner)
        // outward increases volume; numerical check against finite diff.
        let p = corner_positions_for_test(&d, 0);
        let grads = elem_volume_gradients(&p);
        let eps = 1e-6;
        for slot in 0..8 {
            for x in 0..3 {
                let mut pp = p;
                pp[slot][x] += eps;
                let v1: f64 = TETS.iter().map(|t| tet_volume(&pp, t)).sum();
                let numeric = (v1 - vol) / eps;
                assert!(
                    (numeric - grads[slot][x]).abs() < 1e-5,
                    "slot {slot} axis {x}: numeric {numeric} vs analytic {}",
                    grads[slot][x]
                );
            }
        }
        let _ = p;
    }

    fn corner_positions_for_test(d: &Domain, elem: usize) -> [[f64; 3]; 8] {
        super::corner_positions(d, elem)
    }

    /// The per-node force formulation: every (node, element) pair rebuilds
    /// the element's gradients, mean velocity and hourglass scale. It has
    /// its own adjacency walk so it shares no code with the gather.
    fn reference_forces(d: &Domain) -> Vec<[f64; 3]> {
        let n_per = d.nper();
        (0..d.num_nodes())
            .map(|n| {
                let (i, j, k) = (n % n_per, (n / n_per) % n_per, n / (n_per * n_per));
                let mut adjacent = Vec::with_capacity(8);
                for dk in 0..2 {
                    for dj in 0..2 {
                        for di in 0..2 {
                            if i >= di && j >= dj && k >= dk {
                                let (ei, ej, ek) = (i - di, j - dj, k - dk);
                                if ei < d.edge && ej < d.edge && ek < d.edge {
                                    adjacent.push(d.elem_index(ei, ej, ek));
                                }
                            }
                        }
                    }
                }
                let mut f = [0.0f64; 3];
                for elem in adjacent {
                    let p = corner_positions(d, elem);
                    let grads = elem_volume_gradients(&p);
                    let nodes = d.elem_nodes(elem);
                    let slot = nodes.iter().position(|&m| m == n).expect("adjacency is symmetric");
                    let stress = d.p[elem] + d.q[elem];
                    for x in 0..3 {
                        f[x] += stress * grads[slot][x];
                    }
                    let mut mean = [0.0f64; 3];
                    for &m in &nodes {
                        mean[0] += d.xd[m];
                        mean[1] += d.yd[m];
                        mean[2] += d.zd[m];
                    }
                    for x in &mut mean {
                        *x /= 8.0;
                    }
                    let rho = RHO0 / d.v[elem].max(1e-12);
                    let scale = HG_COEF * rho * d.arealg[elem] * d.ss[elem].max(1e-12);
                    f[0] -= scale * (d.xd[n] - mean[0]);
                    f[1] -= scale * (d.yd[n] - mean[1]);
                    f[2] -= scale * (d.zd[n] - mean[2]);
                }
                f
            })
            .collect()
    }

    /// `0..total` cut into pieces of `size` (the last one shorter).
    fn pieces(total: usize, size: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        (0..total).step_by(size).map(move |lo| lo..(lo + size).min(total))
    }

    #[test]
    fn element_pass_and_gather_match_per_node_forces_bitwise() {
        let mut d = Domain::sedov(6);
        let (nodes, elems) = (d.num_nodes(), d.num_elems());
        // Piece sizes for 1, 7 and 48 chunks (the driver's `div_ceil`
        // split), plus a prime size; most leave a short last piece.
        let splits = |total: usize| [total, total.div_ceil(7), total.div_ceil(48), 13];
        let mut forced = 0;
        for cycle in 0..48 {
            let want = reference_forces(&d);
            forced += want.iter().filter(|f| f.iter().any(|&x| x != 0.0)).count();
            for (elem_size, node_size) in splits(elems).into_iter().zip(splits(nodes)) {
                for f in [&mut d.fx, &mut d.fy, &mut d.fz] {
                    f.fill(f64::NAN);
                }
                for r in pieces(elems, elem_size) {
                    calc_force_terms(&mut d, r);
                }
                for r in pieces(nodes, node_size) {
                    integrate_force(&mut d, r);
                }
                for (n, w) in want.iter().enumerate() {
                    let got = [d.fx[n], d.fy[n], d.fz[n]];
                    assert!(
                        got.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "cycle {cycle}, node {n}, pieces {elem_size}/{node_size}: {got:?} vs {w:?}"
                    );
                }
            }
            step_sequential(&mut d);
        }
        assert!(forced > 48 * nodes / 4, "too few nodes carry force ({forced})");
    }

    #[test]
    fn blast_pushes_shock_outward() {
        let mut d = Domain::sedov(6);
        for _ in 0..40 {
            step_sequential(&mut d);
        }
        assert!(d.cycle == 40 && d.time > 0.0);
        // The corner element expanded (its relative volume grew).
        assert!(d.v[0] > 1.0, "blast element must expand: v={}", d.v[0]);
        // Pressure spread beyond the corner element.
        let pressurized = d.p.iter().filter(|&&p| p > 1e-9).count();
        assert!(pressurized > 1, "shock must propagate");
        // All volumes stay positive.
        assert!(d.v.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn energy_stays_bounded_and_mostly_conserved() {
        let mut d = Domain::sedov(6);
        let e0 = d.total_internal_energy() + d.total_kinetic_energy();
        assert!((e0 - SEDOV_ENERGY * d.volo[0]).abs() < 1e-9);
        for _ in 0..60 {
            step_sequential(&mut d);
        }
        let e1 = d.total_internal_energy() + d.total_kinetic_energy();
        // The explicit central-difference integrator is not symplectic:
        // total energy drifts a few percent per shock transit (the real
        // mini-app behaves the same way). It must stay bounded — no
        // blow-up, no collapse.
        assert!(e1 <= e0 * 1.15, "energy grew too much: {e0} -> {e1}");
        assert!(e1 >= e0 * 0.5, "energy collapsed: {e0} -> {e1}");
        // And pushing on twice as long must not run away.
        for _ in 0..60 {
            step_sequential(&mut d);
        }
        let e2 = d.total_internal_energy() + d.total_kinetic_energy();
        assert!(e2 <= e0 * 1.25, "energy ran away: {e0} -> {e2}");
    }

    #[test]
    fn symmetry_is_preserved() {
        // The Sedov setup is symmetric in x/y/z; after stepping, the fields
        // must remain symmetric under coordinate permutation.
        let mut d = Domain::sedov(4);
        for _ in 0..25 {
            step_sequential(&mut d);
        }
        let e = d.edge;
        for i in 0..e {
            for j in 0..e {
                for k in 0..e {
                    let a = d.p[d.elem_index(i, j, k)];
                    let b = d.p[d.elem_index(j, i, k)];
                    let c = d.p[d.elem_index(k, j, i)];
                    assert!((a - b).abs() < 1e-9 && (a - c).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn timestep_respects_courant_and_growth() {
        let mut d = Domain::sedov(4);
        let dt0 = d.dt;
        step_sequential(&mut d);
        assert!(d.dt <= dt0 * DT_GROW + 1e-300);
        assert!(d.dt > 0.0);
    }
}
