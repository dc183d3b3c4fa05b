//! BOTS `sparselu`: LU factorization of a sparse blocked matrix.
//!
//! The matrix is an `NB×NB` grid of dense `BS×BS` blocks, most of them null
//! (the BOTS generator's structured sparsity pattern). Each outer iteration
//! `k` factorizes the diagonal block (`lu0`), updates its row (`fwd`) and
//! column (`bdiv`) in parallel, then updates the trailing submatrix (`bmod`)
//! with one task per affected block — allocating blocks that fill in.
//! It is the suite's heavyweight: the highest O0 power in the whole study
//! (158.7 W, Table III) and near-linear speedup. The `for`/`single`
//! variants differ only in how update tasks are generated.
//!
//! The numerics are real (f64 blocks, no pivoting; the generator makes the
//! matrix diagonally dominant so that is stable), verified by checking
//! `L·U` against a dense Gaussian elimination of the same matrix.

use maestro::{Maestro, RunReport};
use maestro_machine::Cost;
use maestro_runtime::{leaf, BoxTask, RuntimeParams, Step, TaskCtx, TaskLogic, TaskValue};

use crate::bots::Variant;
use crate::compiler::CompilerConfig;
use crate::profiles::{self, cost_split};
use crate::registry::{Group, Scale, Workload};

const OMP_DISPATCH_BASE: u64 = 900;

/// The blocked sparse matrix.
pub struct SparseMatrix {
    /// `nb × nb` grid; `None` is a null block.
    pub blocks: Vec<Option<Vec<f64>>>,
    /// Blocks per side.
    pub nb: usize,
    /// Elements per block side.
    pub bs: usize,
}

impl SparseMatrix {
    /// The BOTS-style structured pattern: a block is non-null when on the
    /// diagonal, first row/column, or a deterministic sparse scatter.
    pub fn generate(nb: usize, bs: usize) -> SparseMatrix {
        let mut blocks = vec![None; nb * nb];
        let mut x = 0x5EED_0123_4567u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..nb {
            for j in 0..nb {
                let structural = i == j || i == 0 || j == 0 || (i + j) % 3 == 0;
                if structural {
                    let mut b = vec![0.0f64; bs * bs];
                    for (e, v) in b.iter_mut().enumerate() {
                        let r = (rng() % 2000) as f64 / 1000.0 - 1.0;
                        // Strong diagonal keeps pivot-free LU stable.
                        *v = if i == j && e % (bs + 1) == 0 { 50.0 + r } else { r };
                    }
                    blocks[i * nb + j] = Some(b);
                }
            }
        }
        SparseMatrix { blocks, nb, bs }
    }

    fn at(&self, i: usize, j: usize) -> Option<&Vec<f64>> {
        self.blocks[i * self.nb + j].as_ref()
    }

    /// Expand to a dense matrix (for verification).
    pub fn to_dense(&self) -> Vec<f64> {
        let n = self.nb * self.bs;
        let mut dense = vec![0.0; n * n];
        for bi in 0..self.nb {
            for bj in 0..self.nb {
                if let Some(b) = self.at(bi, bj) {
                    for r in 0..self.bs {
                        for c in 0..self.bs {
                            dense[(bi * self.bs + r) * n + bj * self.bs + c] = b[r * self.bs + c];
                        }
                    }
                }
            }
        }
        dense
    }
}

// ----- the four BOTS kernels (real numerics) -----

/// In-place LU of the diagonal block (Doolittle, no pivoting).
pub fn lu0(a: &mut [f64], bs: usize) {
    for k in 0..bs {
        let pivot = a[k * bs + k];
        debug_assert!(pivot.abs() > 1e-12, "diagonal dominance violated");
        for i in (k + 1)..bs {
            a[i * bs + k] /= pivot;
            let lik = a[i * bs + k];
            for j in (k + 1)..bs {
                a[i * bs + j] -= lik * a[k * bs + j];
            }
        }
    }
}

/// Row update: `U_kj ← L_kk⁻¹ · A_kj` (forward substitution).
pub fn fwd(diag: &[f64], a: &mut [f64], bs: usize) {
    for j in 0..bs {
        for k in 0..bs {
            let akj = a[k * bs + j];
            for i in (k + 1)..bs {
                a[i * bs + j] -= diag[i * bs + k] * akj;
            }
        }
    }
}

/// Column update: `L_ik ← A_ik · U_kk⁻¹` (backward substitution).
pub fn bdiv(diag: &[f64], a: &mut [f64], bs: usize) {
    for i in 0..bs {
        for k in 0..bs {
            a[i * bs + k] /= diag[k * bs + k];
            let aik = a[i * bs + k];
            for j in (k + 1)..bs {
                a[i * bs + j] -= aik * diag[k * bs + j];
            }
        }
    }
}

/// Trailing update: `A_ij ← A_ij − L_ik · U_kj`.
pub fn bmod(row: &[f64], col: &[f64], a: &mut [f64], bs: usize) {
    for i in 0..bs {
        for k in 0..bs {
            let rik = row[i * bs + k];
            if rik == 0.0 {
                continue;
            }
            for j in 0..bs {
                a[i * bs + j] -= rik * col[k * bs + j];
            }
        }
    }
}

/// Dense reference LU (no pivoting) for verification.
pub fn dense_lu(a: &mut [f64], n: usize) {
    for k in 0..n {
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            a[i * n + k] /= pivot;
            let lik = a[i * n + k];
            for j in (k + 1)..n {
                a[i * n + j] -= lik * a[k * n + j];
            }
        }
    }
}

/// The outer-iteration driver: for each `k`, lu0 → {fwd,bdiv} → {bmod}.
struct LuDriver {
    k: usize,
    phase: u8,
    variant: Variant,
    lu0_cost: Cost,
    fwd_cost: Cost,
    bmod_cost: Cost,
}

impl LuDriver {
    fn spawn_fwd_bdiv(&self, app: &SparseMatrix) -> Vec<BoxTask<SparseMatrix>> {
        let (k, bs) = (self.k, app.bs);
        let cost = self.fwd_cost;
        let mut children: Vec<BoxTask<SparseMatrix>> = Vec::new();
        for j in (k + 1)..app.nb {
            if app.at(k, j).is_some() {
                children.push(leaf(move |m: &mut SparseMatrix, _| {
                    let diag = m.blocks[k * m.nb + k].clone().expect("diag factored");
                    let b = m.blocks[k * m.nb + j].as_mut().expect("structural");
                    fwd(&diag, b, bs);
                    (cost, TaskValue::none())
                }));
            }
            if app.at(j, k).is_some() {
                children.push(leaf(move |m: &mut SparseMatrix, _| {
                    let diag = m.blocks[k * m.nb + k].clone().expect("diag factored");
                    let b = m.blocks[j * m.nb + k].as_mut().expect("structural");
                    bdiv(&diag, b, bs);
                    (cost, TaskValue::none())
                }));
            }
        }
        children
    }

    fn spawn_bmod(&self, app: &SparseMatrix) -> Vec<BoxTask<SparseMatrix>> {
        let (k, bs, nb) = (self.k, app.bs, app.nb);
        let cost = self.bmod_cost;
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in (k + 1)..nb {
            for j in (k + 1)..nb {
                if app.at(i, k).is_some() && app.at(k, j).is_some() {
                    pairs.push((i, j));
                }
            }
        }
        if self.variant == Variant::For {
            // Loop-distributed generation interleaves rows round-robin.
            pairs.sort_by_key(|&(i, j)| (j, i));
        }
        pairs
            .into_iter()
            .map(|(i, j)| {
                let child: BoxTask<SparseMatrix> = leaf(move |m: &mut SparseMatrix, _| {
                    let row = m.blocks[i * nb + k].clone().expect("checked");
                    let col = m.blocks[k * nb + j].clone().expect("checked");
                    let target = m.blocks[i * nb + j].get_or_insert_with(|| vec![0.0; bs * bs]);
                    bmod(&row, &col, target, bs);
                    (cost, TaskValue::none())
                });
                child
            })
            .collect()
    }
}

impl TaskLogic<SparseMatrix> for LuDriver {
    fn step(&mut self, app: &mut SparseMatrix, _ctx: &mut TaskCtx) -> Step<SparseMatrix> {
        loop {
            if self.k >= app.nb {
                return Step::Done(TaskValue::none());
            }
            match self.phase {
                0 => {
                    // Factor the diagonal block (a serial task's work charged
                    // to the driver itself).
                    let k = self.k;
                    let bs = app.bs;
                    let diag = app.blocks[k * app.nb + k].as_mut().expect("diag structural");
                    lu0(diag, bs);
                    self.phase = 1;
                    return Step::Compute(self.lu0_cost);
                }
                1 => {
                    let children = self.spawn_fwd_bdiv(app);
                    self.phase = 2;
                    if !children.is_empty() {
                        return Step::SpawnWait(children);
                    }
                }
                2 => {
                    let children = self.spawn_bmod(app);
                    self.phase = 0;
                    self.k += 1;
                    if !children.is_empty() {
                        return Step::SpawnWait(children);
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    fn label(&self) -> &'static str {
        "sparselu"
    }
}

/// The sparse LU benchmark.
pub struct SparseLu {
    nb: usize,
    bs: usize,
    variant: Variant,
    name: &'static str,
}

impl SparseLu {
    /// Construct at the given input scale and task-generation variant.
    pub fn new(scale: Scale, variant: Variant) -> Self {
        let (nb, bs) = match scale {
            Scale::Test => (6, 8),
            Scale::Paper => (20, 24),
        };
        let name = match variant {
            Variant::For => "bots-sparselu-for",
            Variant::Single => "bots-sparselu-single",
        };
        SparseLu { nb, bs, variant, name }
    }

    /// Count tasks and flop-weights for calibration.
    fn workload_shape(&self) -> (u64, f64) {
        let m = SparseMatrix::generate(self.nb, self.bs);
        let mut tasks = 0u64;
        let mut flops = 0f64;
        let bs3 = (self.bs as f64).powi(3);
        // Simulate the structural fill-in without numerics.
        let mut present: Vec<bool> = m.blocks.iter().map(|b| b.is_some()).collect();
        for k in 0..self.nb {
            tasks += 1;
            flops += bs3 / 3.0;
            for j in (k + 1)..self.nb {
                if present[k * self.nb + j] {
                    tasks += 1;
                    flops += bs3 / 2.0;
                }
                if present[j * self.nb + k] {
                    tasks += 1;
                    flops += bs3 / 2.0;
                }
            }
            for i in (k + 1)..self.nb {
                for j in (k + 1)..self.nb {
                    if present[i * self.nb + k] && present[k * self.nb + j] {
                        tasks += 1;
                        flops += 2.0 * bs3;
                        present[i * self.nb + j] = true;
                    }
                }
            }
        }
        (tasks, flops)
    }
}

impl Workload for SparseLu {
    fn name(&self) -> &'static str {
        self.name
    }

    fn group(&self) -> Group {
        Group::Bots
    }

    fn runtime_params(&self, cc: CompilerConfig, workers: usize) -> RuntimeParams {
        let (tasks, _) = self.workload_shape();
        let plan = profiles::plan_bag(self.name, cc, tasks, OMP_DISPATCH_BASE);
        cc.omp_params_with_slope(workers, plan.slope_cycles)
    }

    fn run(&self, m: &mut Maestro, cc: CompilerConfig) -> RunReport {
        let cal = profiles::calibration(self.name);
        let (_tasks, total_flops) = self.workload_shape();
        let cycles_per_flop =
            cal.serial_time_s * profiles::FREQ_GHZ * 1e9 * cal.work_mult(cc) / total_flops;
        let bs3 = (self.bs as f64).powi(3);
        let intensity = cal.intensity(cc);
        let mk = |flops: f64, mem_frac: f64| {
            cost_split((cycles_per_flop * flops) as u64, mem_frac, 3.0, intensity)
        };
        let mut app = SparseMatrix::generate(self.nb, self.bs);
        let original_dense = app.to_dense();

        let root: BoxTask<SparseMatrix> = Box::new(LuDriver {
            k: 0,
            phase: 0,
            variant: self.variant,
            lu0_cost: mk(bs3 / 3.0, 0.10),
            fwd_cost: mk(bs3 / 2.0, 0.20),
            bmod_cost: mk(2.0 * bs3, 0.30),
        });
        let report = m.run(self.name, &mut app, root);

        // Verify against a dense factorization of the same matrix.
        let n = self.nb * self.bs;
        let mut reference = original_dense;
        dense_lu(&mut reference, n);
        let factored = app.to_dense();
        let mut max_err = 0.0f64;
        for (a, b) in factored.iter().zip(reference.iter()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 1e-6, "blocked LU diverged from dense LU: max err {max_err}");
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro::MaestroConfig;

    #[test]
    fn lu0_factorizes_small_block() {
        // A = L·U with unit diagonal L.
        let bs = 3;
        let mut a = vec![4.0, 1.0, 2.0, 2.0, 5.0, 1.0, 1.0, 2.0, 6.0];
        let orig = a.clone();
        lu0(&mut a, bs);
        // Reconstruct L·U.
        let mut rec = vec![0.0; 9];
        for i in 0..bs {
            for j in 0..bs {
                let mut s = 0.0;
                for k in 0..bs {
                    let l = if i == k {
                        1.0
                    } else if k < i {
                        a[i * bs + k]
                    } else {
                        0.0
                    };
                    let u = if k <= j { a[k * bs + j] } else { 0.0 };
                    s += l * u;
                }
                rec[i * bs + j] = s;
            }
        }
        for (x, y) in rec.iter().zip(orig.iter()) {
            assert!((x - y).abs() < 1e-12, "{rec:?} vs {orig:?}");
        }
    }

    #[test]
    fn blocked_matches_dense_for_any_worker_count() {
        let cc = CompilerConfig::icc(crate::OptLevel::O2);
        for workers in [1, 16] {
            let w = SparseLu::new(Scale::Test, Variant::Single);
            let mut cfg = MaestroConfig::fixed(workers);
            cfg.runtime = w.runtime_params(cc, workers);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc); // panics internally on numeric divergence
        }
    }

    #[test]
    fn for_and_single_agree() {
        let cc = CompilerConfig::gcc(crate::OptLevel::O2);
        for variant in [Variant::For, Variant::Single] {
            let w = SparseLu::new(Scale::Test, variant);
            let mut cfg = MaestroConfig::fixed(8);
            cfg.runtime = w.runtime_params(cc, 8);
            let mut m = Maestro::new(cfg);
            w.run(&mut m, cc);
        }
    }

    #[test]
    fn fill_in_happens() {
        let w = SparseLu::new(Scale::Test, Variant::Single);
        let (tasks, flops) = w.workload_shape();
        assert!(tasks > 36, "update tasks beyond the diagonal: {tasks}");
        assert!(flops > 0.0);
    }
}
