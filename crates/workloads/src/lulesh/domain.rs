//! The LULESH mesh and field state.
//!
//! A structured hexahedral mesh over the unit cube: `edge³` elements,
//! `(edge+1)³` nodes, with node-centered kinematics (position, velocity,
//! acceleration, force, mass) and element-centered thermodynamics (energy,
//! pressure, artificial viscosity, relative volume, sound speed). The Sedov
//! initialization deposits a large energy in the corner element at the
//! origin, with symmetry boundary conditions on the three coordinate planes
//! — exactly the problem the LLNL mini-app ships.

/// Ideal-gas gamma used by the EOS.
pub const GAMMA: f64 = 1.4;
/// Initial material density.
pub const RHO0: f64 = 1.0;
/// Sedov corner energy deposit.
pub const SEDOV_ENERGY: f64 = 3.948746e+1;

/// What one element contributes to the forces on its corners this cycle.
#[derive(Clone, Copy, Default)]
pub(crate) struct ForceTerms {
    /// Pressure plus artificial viscosity.
    pub stress: f64,
    /// Volume gradient with respect to each corner.
    pub grads: [[f64; 3]; 8],
    /// Mean velocity of the eight corners.
    pub mean_vel: [f64; 3],
    /// Hourglass damping scale.
    pub hg_scale: f64,
}

/// The simulation state.
pub struct Domain {
    /// Elements per cube edge.
    pub edge: usize,

    // Node-centered fields, length (edge+1)³.
    /// Positions.
    pub x: Vec<f64>,
    /// Positions.
    pub y: Vec<f64>,
    /// Positions.
    pub z: Vec<f64>,
    /// Velocities.
    pub xd: Vec<f64>,
    /// Velocities.
    pub yd: Vec<f64>,
    /// Velocities.
    pub zd: Vec<f64>,
    /// Accelerations.
    pub xdd: Vec<f64>,
    /// Accelerations.
    pub ydd: Vec<f64>,
    /// Accelerations.
    pub zdd: Vec<f64>,
    /// Force accumulators.
    pub fx: Vec<f64>,
    /// Force accumulators.
    pub fy: Vec<f64>,
    /// Force accumulators.
    pub fz: Vec<f64>,
    /// Lumped nodal mass.
    pub nodal_mass: Vec<f64>,

    // Element-centered fields, length edge³.
    /// Internal energy per unit reference volume.
    pub e: Vec<f64>,
    /// Pressure.
    pub p: Vec<f64>,
    /// Artificial viscosity.
    pub q: Vec<f64>,
    /// Relative volume (V / V₀).
    pub v: Vec<f64>,
    /// Reference volume.
    pub volo: Vec<f64>,
    /// Relative-volume change over the last step.
    pub delv: Vec<f64>,
    /// Volume strain rate (dV/dt / V).
    pub vdov: Vec<f64>,
    /// Characteristic element length.
    pub arealg: Vec<f64>,
    /// Sound speed.
    pub ss: Vec<f64>,
    /// Per-element force-phase scratch, written by
    /// [`calc_force_terms`](super::kernels::calc_force_terms) and read by
    /// the node gather in the same cycle.
    pub(crate) force_terms: Vec<ForceTerms>,

    /// Current timestep.
    pub dt: f64,
    /// Simulated time.
    pub time: f64,
    /// Completed cycles.
    pub cycle: u64,
}

impl Domain {
    /// Nodes per edge.
    #[inline]
    pub fn nper(&self) -> usize {
        self.edge + 1
    }

    /// Total node count.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nper().pow(3)
    }

    /// Total element count.
    #[inline]
    pub fn num_elems(&self) -> usize {
        self.edge.pow(3)
    }

    /// Node linear index from lattice coordinates.
    #[inline]
    pub fn node_index(&self, i: usize, j: usize, k: usize) -> usize {
        let n = self.nper();
        i + n * (j + n * k)
    }

    /// Element linear index from lattice coordinates.
    #[inline]
    pub fn elem_index(&self, i: usize, j: usize, k: usize) -> usize {
        let e = self.edge;
        i + e * (j + e * k)
    }

    /// Lattice coordinates of element `idx`.
    #[inline]
    pub fn elem_coords(&self, idx: usize) -> (usize, usize, usize) {
        let e = self.edge;
        (idx % e, (idx / e) % e, idx / (e * e))
    }

    /// The eight corner nodes of element `idx`, in LULESH ordering.
    pub fn elem_nodes(&self, idx: usize) -> [usize; 8] {
        let (i, j, k) = self.elem_coords(idx);
        [
            self.node_index(i, j, k),
            self.node_index(i + 1, j, k),
            self.node_index(i + 1, j + 1, k),
            self.node_index(i, j + 1, k),
            self.node_index(i, j, k + 1),
            self.node_index(i + 1, j, k + 1),
            self.node_index(i + 1, j + 1, k + 1),
            self.node_index(i, j + 1, k + 1),
        ]
    }

    /// Elements adjacent to node `idx` (1 to 8 of them) as `(elem, slot)`
    /// pairs, where `slot` is the node's index in `elem_nodes(elem)`. The
    /// elements come in lattice order: x-offset fastest, then y, then z.
    pub(crate) fn node_corners(&self, idx: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        // LULESH corner slot of the node at offset (di, dj, dk) from an
        // element's origin corner, indexed by di + 2·dj + 4·dk.
        const SLOT: [usize; 8] = [0, 1, 3, 2, 4, 5, 7, 6];
        let n = self.nper();
        let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
        (0..8).filter_map(move |b| {
            let (di, dj, dk) = (b & 1, (b >> 1) & 1, b >> 2);
            let (ei, ej, ek) = (i.checked_sub(di)?, j.checked_sub(dj)?, k.checked_sub(dk)?);
            (ei < self.edge && ej < self.edge && ek < self.edge)
                .then(|| (self.elem_index(ei, ej, ek), SLOT[b]))
        })
    }

    /// Build the Sedov blast problem on an `edge³` mesh of the unit cube.
    pub fn sedov(edge: usize) -> Domain {
        assert!(edge >= 2, "mesh needs at least 2 elements per edge");
        let nper = edge + 1;
        let num_nodes = nper * nper * nper;
        let num_elems = edge * edge * edge;
        let h = 1.125 / edge as f64; // LULESH uses a 1.125-wide cube
        let mut d = Domain {
            edge,
            x: vec![0.0; num_nodes],
            y: vec![0.0; num_nodes],
            z: vec![0.0; num_nodes],
            xd: vec![0.0; num_nodes],
            yd: vec![0.0; num_nodes],
            zd: vec![0.0; num_nodes],
            xdd: vec![0.0; num_nodes],
            ydd: vec![0.0; num_nodes],
            zdd: vec![0.0; num_nodes],
            fx: vec![0.0; num_nodes],
            fy: vec![0.0; num_nodes],
            fz: vec![0.0; num_nodes],
            nodal_mass: vec![0.0; num_nodes],
            e: vec![0.0; num_elems],
            p: vec![0.0; num_elems],
            q: vec![0.0; num_elems],
            v: vec![1.0; num_elems],
            volo: vec![0.0; num_elems],
            delv: vec![0.0; num_elems],
            vdov: vec![0.0; num_elems],
            arealg: vec![0.0; num_elems],
            ss: vec![0.0; num_elems],
            force_terms: vec![ForceTerms::default(); num_elems],
            dt: 1.0e-5,
            time: 0.0,
            cycle: 0,
        };
        for k in 0..nper {
            for j in 0..nper {
                for i in 0..nper {
                    let idx = d.node_index(i, j, k);
                    d.x[idx] = i as f64 * h;
                    d.y[idx] = j as f64 * h;
                    d.z[idx] = k as f64 * h;
                }
            }
        }
        for e in 0..num_elems {
            let vol = crate::lulesh::kernels::elem_volume(&d, e);
            d.volo[e] = vol;
            d.arealg[e] = vol.cbrt();
            // Lump element mass onto its corners.
            for n in d.elem_nodes(e) {
                d.nodal_mass[n] += RHO0 * vol / 8.0;
            }
        }
        // Sedov energy deposit in the origin corner element.
        d.e[0] = SEDOV_ENERGY;
        d
    }

    /// Total internal energy: Σ e·V₀ (e is per unit reference volume).
    pub fn total_internal_energy(&self) -> f64 {
        self.e.iter().zip(&self.volo).map(|(e, v0)| e * v0).sum()
    }

    /// Total kinetic energy: Σ ½·m·|v|².
    pub fn total_kinetic_energy(&self) -> f64 {
        (0..self.num_nodes())
            .map(|n| {
                0.5 * self.nodal_mass[n]
                    * (self.xd[n] * self.xd[n] + self.yd[n] * self.yd[n] + self.zd[n] * self.zd[n])
            })
            .sum()
    }

    /// Total mesh volume as currently deformed.
    pub fn total_volume(&self) -> f64 {
        (0..self.num_elems()).map(|e| crate::lulesh::kernels::elem_volume(self, e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sedov_mesh_shape() {
        let d = Domain::sedov(4);
        assert_eq!(d.num_elems(), 64);
        assert_eq!(d.num_nodes(), 125);
        assert_eq!(d.e[0], SEDOV_ENERGY);
        assert!(d.e[1..].iter().all(|&e| e == 0.0));
    }

    #[test]
    fn initial_volume_matches_cube() {
        let d = Domain::sedov(6);
        let expected = 1.125f64.powi(3);
        assert!((d.total_volume() - expected).abs() < 1e-9);
        let volo_sum: f64 = d.volo.iter().sum();
        assert!((volo_sum - expected).abs() < 1e-9);
    }

    #[test]
    fn nodal_mass_sums_to_total_mass() {
        let d = Domain::sedov(5);
        let mass: f64 = d.nodal_mass.iter().sum();
        assert!((mass - RHO0 * 1.125f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn elem_nodes_are_distinct_and_adjacent() {
        let d = Domain::sedov(3);
        for e in 0..d.num_elems() {
            let nodes = d.elem_nodes(e);
            let set: std::collections::HashSet<_> = nodes.iter().collect();
            assert_eq!(set.len(), 8);
        }
    }

    #[test]
    fn node_elems_inverse_of_elem_nodes() {
        let d = Domain::sedov(3);
        for e in 0..d.num_elems() {
            for n in d.elem_nodes(e) {
                assert!(
                    d.node_corners(n).any(|(elem, _)| elem == e),
                    "elem {e} missing from node {n}"
                );
            }
        }
        for n in 0..d.num_nodes() {
            for (elem, slot) in d.node_corners(n) {
                assert_eq!(d.elem_nodes(elem)[slot], n, "node {n} at slot {slot} of elem {elem}");
            }
        }
        // Interior node touches 8 elements; the origin corner touches 1.
        assert_eq!(d.node_corners(d.node_index(1, 1, 1)).count(), 8);
        assert_eq!(d.node_corners(d.node_index(0, 0, 0)).count(), 1);
    }
}
