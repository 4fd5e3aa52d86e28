//! Output checks run on every measured operation (outside its timing).

use rapid_sparse::csc::SparseMatrix;
use rapid_sparse::refsolve::rel_residual;
use rapid_sparse::taskgen::CholeskyModel;

/// Largest accepted relative residual of the Cholesky solve.
pub const MAX_RESIDUAL: f64 = 1e-10;

/// `Ok` when every object of `got` equals `want` bit for bit.
pub fn bitwise_eq(got: &[Vec<f64>], want: &[Vec<f64>]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} objects, expected {}", got.len(), want.len()));
    }
    for (d, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Err(format!("object {d} has {} values, expected {}", g.len(), w.len()));
        }
        if let Some(i) = g.iter().zip(w).position(|(x, y)| x.to_bits() != y.to_bits()) {
            return Err(format!("object {d}[{i}] = {:e}, reference {:e}", g[i], w[i]));
        }
    }
    Ok(())
}

/// Solves `A x = b` with the block factor a Cholesky run left in its
/// objects, without assembling a dense `L`: O(nnz(L)) per solve. It is
/// `refsolve::cholesky_solve` restricted to the blocks that exist.
pub struct BlockSolver<'m> {
    model: &'m CholeskyModel,
    /// `cols[k]`: `(row block, object)` of every block in column block
    /// `k`, diagonal first.
    cols: Vec<Vec<(usize, usize)>>,
}

impl<'m> BlockSolver<'m> {
    /// Index the model's blocks by column.
    pub fn new(model: &'m CholeskyModel) -> BlockSolver<'m> {
        let nb = model.pattern.part.num_blocks();
        let mut cols: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nb];
        for (d, &(i, j)) in model.block_of_obj.iter().enumerate() {
            cols[j as usize].push((i as usize, d));
        }
        for (k, col) in cols.iter_mut().enumerate() {
            col.sort_unstable();
            assert_eq!(col.first().map(|c| c.0), Some(k), "column block {k} lacks its diagonal");
        }
        BlockSolver { model, cols }
    }

    /// Solve `L Lᵀ x = b` with the factor stored in `objects`.
    pub fn solve(&self, objects: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let part = &self.model.pattern.part;
        let mut y = b.to_vec();
        // L y = b, one column block at a time.
        for (k, col) in self.cols.iter().enumerate() {
            let kr = part.range(k);
            let w = kr.len();
            let diag = &objects[col[0].1];
            for c in 0..w {
                let v = y[kr.start + c] / diag[c * w + c];
                y[kr.start + c] = v;
                for r in c + 1..w {
                    y[kr.start + r] -= diag[c * w + r] * v;
                }
            }
            for &(i, d) in &col[1..] {
                let ir = part.range(i);
                let h = ir.len();
                let blk = &objects[d];
                for c in 0..w {
                    let v = y[kr.start + c];
                    for r in 0..h {
                        y[ir.start + r] -= blk[c * h + r] * v;
                    }
                }
            }
        }
        // Lᵀ x = y, in reverse.
        for (k, col) in self.cols.iter().enumerate().rev() {
            let kr = part.range(k);
            let w = kr.len();
            for &(i, d) in &col[1..] {
                let ir = part.range(i);
                let h = ir.len();
                let blk = &objects[d];
                for c in 0..w {
                    let s: f64 = (0..h).map(|r| blk[c * h + r] * y[ir.start + r]).sum();
                    y[kr.start + c] -= s;
                }
            }
            let diag = &objects[col[0].1];
            for c in (0..w).rev() {
                let s: f64 = (c + 1..w).map(|r| diag[c * w + r] * y[kr.start + r]).sum();
                y[kr.start + c] = (y[kr.start + c] - s) / diag[c * w + c];
            }
        }
        y
    }

    /// Relative residual of solving `A x = A·x₀` for a fixed `x₀`.
    pub fn residual(&self, a: &SparseMatrix, objects: &[Vec<f64>]) -> f64 {
        let x0: Vec<f64> = (0..a.ncols).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();
        let b = a.spmv(&x0);
        let x = self.solve(objects, &b);
        rel_residual(a, &x, &b)
    }

    /// `Ok` when `objects` hold a factor whose solve has a relative
    /// residual below [`MAX_RESIDUAL`].
    pub fn check(&self, a: &SparseMatrix, objects: &[Vec<f64>]) -> Result<(), String> {
        let r = self.residual(a, objects);
        if r < MAX_RESIDUAL {
            Ok(())
        } else {
            Err(format!("Cholesky solve residual {r:e} >= {MAX_RESIDUAL:e}"))
        }
    }
}

/// Change one value the solve uses: the first pivot of the factor.
pub fn corrupt_pivot(model: &CholeskyModel, objects: &mut [Vec<f64>]) {
    objects[model.obj_of_block[&(0, 0)].idx()][0] *= 1.0 + 1e-6;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapid_rt::threaded::run_sequential_with_init;
    use rapid_sparse::{gen, order, refsolve, taskgen};

    fn small() -> (SparseMatrix, CholeskyModel) {
        let a = gen::bcsstk_like(5, 4, 3, 7);
        let a = a.permute_sym(&order::min_degree(&a));
        let model = taskgen::cholesky_2d_model(&a, 8, 2);
        (a, model)
    }

    #[test]
    fn block_solve_matches_dense_reference() {
        let (a, model) = small();
        let objects = run_sequential_with_init(&model.graph, model.body(), model.init(&a));
        let b: Vec<f64> = (0..a.nrows).map(|i| (i as f64).sin()).collect();
        let dense = refsolve::cholesky_solve(&model.extract_l(&objects), &b);
        let block = BlockSolver::new(&model).solve(&objects, &b);
        for (x, y) in dense.iter().zip(&block) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0), "{x} vs {y}");
        }
        assert!(BlockSolver::new(&model).check(&a, &objects).is_ok());
    }

    /// The checks must reject a run whose output differs in one value.
    #[test]
    fn corrupted_factor_is_rejected() {
        let (a, model) = small();
        let objects = run_sequential_with_init(&model.graph, model.body(), model.init(&a));
        let mut bad = objects.clone();
        corrupt_pivot(&model, &mut bad);
        assert!(bitwise_eq(&bad, &objects).is_err());
        assert!(BlockSolver::new(&model).check(&a, &bad).is_err());
        assert!(bitwise_eq(&objects, &objects).is_ok());
    }
}
