//! Sparse matrices: triplet (COO) assembly and CSR storage.
//!
//! The thermal network, the PDN conductance Laplacian and the full 2-D
//! finite-volume operator are all assembled as triplets (natural for
//! stencil/stamp-style assembly, duplicate entries summed) and then
//! compressed to CSR for the iterative solvers.

use crate::NumError;

/// A growable sparse matrix in coordinate (triplet) form.
///
/// Duplicate `(row, col)` entries are allowed during assembly and are summed
/// when converting to CSR — this is the "stamping" idiom used by circuit and
/// FV assemblers.
///
/// # Examples
///
/// ```
/// use bright_num::{TripletMatrix, CsrMatrix};
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0)?;
/// t.push(0, 0, 1.0)?; // duplicate: summed
/// t.push(1, 1, 4.0)?;
/// let a: CsrMatrix = t.to_csr();
/// assert_eq!(a.get(0, 0), 3.0);
/// # Ok::<(), bright_num::NumError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty triplet matrix of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty triplet matrix with room for `cap` entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (possibly duplicate) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Appends an entry; duplicates accumulate on conversion.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] for out-of-range indices and
    /// [`NumError::InvalidInput`] for non-finite values.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), NumError> {
        if row >= self.rows || col >= self.cols {
            return Err(NumError::DimensionMismatch(format!(
                "entry ({row},{col}) outside {}x{}",
                self.rows, self.cols
            )));
        }
        if !value.is_finite() {
            return Err(NumError::InvalidInput(format!(
                "non-finite entry at ({row},{col})"
            )));
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Clears the entry list, keeping the allocation — for re-stamping
    /// assembly loops that pair with [`CsrSymbolic::refresh_values`].
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Stamps a 2-terminal conductance between nodes `a` and `b`
    /// (adds `g` to both diagonals, `−g` to both off-diagonals) — the
    /// elementary operation of thermal- and power-grid assembly.
    ///
    /// # Errors
    ///
    /// Same as [`TripletMatrix::push`].
    pub fn stamp_conductance(&mut self, a: usize, b: usize, g: f64) -> Result<(), NumError> {
        self.push(a, a, g)?;
        self.push(b, b, g)?;
        self.push(a, b, -g)?;
        self.push(b, a, -g)
    }

    /// Compresses to CSR, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.entries.clone();
        sorted.sort_unstable_by_key(|x| (x.0, x.1));

        let mut row_counts = vec![0usize; self.rows];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;

        for &(r, c, v) in &sorted {
            if last == Some((r, c)) {
                *values.last_mut().expect("non-empty when last is set") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_counts[r] += 1;
                last = Some((r, c));
            }
        }
        let mut row_ptr = vec![0usize; self.rows + 1];
        for i in 0..self.rows {
            row_ptr[i + 1] = row_ptr[i] + row_counts[i];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Splits compression into a symbolic phase: builds the CSR pattern
    /// *and* a triplet→slot scatter map, so later assemblies with the
    /// same stamp sequence can refresh values in O(nnz) with no sorting
    /// or allocation (see [`CsrSymbolic::refresh_values`]).
    pub fn to_csr_symbolic(&self) -> CsrSymbolic {
        // Sort entry *indices* by coordinate so each original entry's
        // destination slot is known.
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_unstable_by_key(|&k| (self.entries[k].0, self.entries[k].1));

        let mut row_counts = vec![0usize; self.rows];
        let mut col_idx = Vec::with_capacity(order.len());
        let mut scatter = vec![0usize; self.entries.len()];
        let mut last: Option<(usize, usize)> = None;
        let mut slot = 0usize;
        for &k in &order {
            let (r, c, _) = self.entries[k];
            if last != Some((r, c)) {
                if last.is_some() {
                    slot += 1;
                }
                col_idx.push(c);
                row_counts[r] += 1;
                last = Some((r, c));
            }
            scatter[k] = slot;
        }
        let nnz = col_idx.len();
        let mut row_ptr = vec![0usize; self.rows + 1];
        for i in 0..self.rows {
            row_ptr[i + 1] = row_ptr[i] + row_counts[i];
        }
        CsrSymbolic {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            scatter,
            nnz,
        }
    }
}

/// The symbolic (pattern-only) half of a triplet→CSR compression.
///
/// Built once per sparsity pattern by [`TripletMatrix::to_csr_symbolic`];
/// afterwards, [`CsrSymbolic::numeric`] materializes a matrix and
/// [`CsrSymbolic::refresh_values`] re-fills an existing matrix from a
/// re-stamped triplet list in O(nnz) — the amortized-assembly primitive
/// behind the sweep engines.
///
/// # Contract
///
/// The triplet list passed to `numeric`/`refresh_values` must stamp the
/// same `(row, col)` sequence (in the same order) as the list the
/// symbolic phase was built from; only the *values* may differ. This is
/// the natural property of assembly loops that run the same code path
/// with different coefficients. Violations are detected cheaply (length
/// and shape checks) or, for reordered same-length stamp lists, produce
/// a matrix with values accumulated into the wrong slots — debug builds
/// assert coordinates match.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrSymbolic {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// For each original triplet entry, the CSR value slot it sums into.
    scatter: Vec<usize>,
    nnz: usize,
}

impl CsrSymbolic {
    /// Number of rows of the pattern.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the pattern.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of structural non-zeros (after duplicate merging).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Materializes a numeric CSR matrix from a triplet list with this
    /// pattern.
    ///
    /// # Errors
    ///
    /// As [`CsrSymbolic::refresh_values`].
    pub fn numeric(&self, triplets: &TripletMatrix) -> Result<CsrMatrix, NumError> {
        let mut csr = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: vec![0.0; self.nnz],
        };
        self.refresh_values(&mut csr, triplets)?;
        Ok(csr)
    }

    /// Re-fills `csr`'s values from a re-stamped triplet list in O(nnz):
    /// no sort, no allocation. `csr` must originate from
    /// [`CsrSymbolic::numeric`] on this pattern.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if the triplet list length
    /// or the matrix shape/nnz does not match the symbolic phase.
    pub fn refresh_values(
        &self,
        csr: &mut CsrMatrix,
        triplets: &TripletMatrix,
    ) -> Result<(), NumError> {
        if triplets.nnz() != self.scatter.len()
            || triplets.rows() != self.rows
            || triplets.cols() != self.cols
        {
            return Err(NumError::DimensionMismatch(format!(
                "refresh_values: triplets {}x{} with {} entries vs symbolic {}x{} built from {}",
                triplets.rows(),
                triplets.cols(),
                triplets.nnz(),
                self.rows,
                self.cols,
                self.scatter.len()
            )));
        }
        if csr.rows != self.rows || csr.cols != self.cols || csr.values.len() != self.nnz {
            return Err(NumError::DimensionMismatch(format!(
                "refresh_values: csr {}x{} with {} values vs symbolic {}x{} with {}",
                csr.rows,
                csr.cols,
                csr.values.len(),
                self.rows,
                self.cols,
                self.nnz
            )));
        }
        for v in &mut csr.values {
            *v = 0.0;
        }
        for (k, &(r, c, v)) in triplets.entries.iter().enumerate() {
            let slot = self.scatter[k];
            debug_assert_eq!(
                self.col_idx[slot], c,
                "refresh_values: stamp order changed at entry {k}"
            );
            debug_assert!(
                (self.row_ptr[r]..self.row_ptr[r + 1]).contains(&slot),
                "refresh_values: stamp order changed at entry {k}"
            );
            csr.values[slot] += v;
        }
        Ok(())
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// An empty `0 × 0` matrix — a placeholder for two-phase
    /// construction before assembly fills in the real operator.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            rows: 0,
            cols: 0,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros (after duplicate summing).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Reads entry `(i, j)`, returning 0.0 for entries outside the pattern.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored entries of row `i` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] on size mismatch.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, NumError> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y)?;
        Ok(y)
    }

    /// Allocation-free matrix–vector product `y ← A·x`; each row is
    /// accumulated strictly in storage order.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] on size mismatch.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), NumError> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(NumError::DimensionMismatch(format!(
                "matvec: A is {}x{}, x has {}, y has {}",
                self.rows,
                self.cols,
                x.len(),
                y.len()
            )));
        }
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_dot(i, x);
        }
        Ok(())
    }

    /// Fused matrix–vector product plus dot epilogue: `y ← A·x`,
    /// returning `w·y` from the same pass over the rows. Each 64-row
    /// pairwise-reduction leaf fills its rows of `y`, then reduces them
    /// while they are still in cache.
    ///
    /// The result is **bitwise identical** to [`CsrMatrix::matvec_into`]
    /// followed by `vec_ops::dot(w, y)`: the rows of `y` get the same
    /// in-order accumulators, and the dot combines 64-element chunk sums
    /// in the same length-determined pairwise tree.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] on size mismatch.
    pub fn matvec_dot_into(&self, x: &[f64], y: &mut [f64], w: &[f64]) -> Result<f64, NumError> {
        if x.len() != self.cols || y.len() != self.rows || w.len() != self.rows {
            return Err(NumError::DimensionMismatch(format!(
                "matvec_dot: A is {}x{}, x has {}, y has {}, w has {}",
                self.rows,
                self.cols,
                x.len(),
                y.len(),
                w.len()
            )));
        }
        Ok(crate::vec_ops::reduce_chunks(y.len(), |lo, hi| {
            for (yi, i) in y[lo..hi].iter_mut().zip(lo..hi) {
                *yi = self.row_dot(i, x);
            }
            crate::vec_ops::chunk_dot(&w[lo..hi], &y[lo..hi])
        }))
    }

    /// In-order dot of row `i` with `x` (`Σ a_ij · x_j` over the stored
    /// entries): the one accumulation order both products share.
    #[inline]
    fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        let mut acc = 0.0;
        for (c, v) in self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]) {
            acc += v * x[*c];
        }
        acc
    }

    /// Copies the stored values of a same-pattern matrix into this one —
    /// the O(nnz) sync path solver sessions use when the owning solver
    /// has already refreshed its own copy of the operator.
    ///
    /// Only shape and nnz are checked (a full pattern comparison would
    /// cost as much as the copy); both matrices originating from the
    /// same [`CsrSymbolic`] is the caller's contract.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if shapes or nnz differ.
    pub fn copy_values_from(&mut self, src: &CsrMatrix) -> Result<(), NumError> {
        if self.rows != src.rows || self.cols != src.cols || self.values.len() != src.values.len()
        {
            return Err(NumError::DimensionMismatch(format!(
                "copy_values_from: {}x{} ({} nnz) vs {}x{} ({} nnz)",
                self.rows,
                self.cols,
                self.values.len(),
                src.rows,
                src.cols,
                src.values.len()
            )));
        }
        debug_assert_eq!(self.col_idx, src.col_idx, "copy_values_from: pattern mismatch");
        self.values.copy_from_slice(&src.values);
        Ok(())
    }

    /// Assembles a CSR matrix directly from its raw arrays — the
    /// in-crate constructor the multigrid hierarchy uses for its
    /// Galerkin coarse operators (whose patterns are computed, not
    /// stamped through a [`TripletMatrix`]). Columns must be sorted
    /// within each row and `row_ptr` must be a valid prefix-sum.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Row-pointer array (length `rows + 1`).
    #[inline]
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Flattened column indices, sorted within each row.
    #[inline]
    pub(crate) fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Mutable stored values — the O(nnz) in-place refresh path of the
    /// multigrid coarse operators.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Extracts the main diagonal (0.0 where absent from the pattern).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols)).map(|i| self.get(i, i)).collect()
    }

    /// Writes the main diagonal into `out` (resized as needed) without
    /// allocating on the repeated-solve path.
    pub fn diagonal_into(&self, out: &mut Vec<f64>) {
        let n = self.rows.min(self.cols);
        out.clear();
        out.extend((0..n).map(|i| self.get(i, i)));
    }

    /// Returns `true` if the matrix is (weakly) row diagonally dominant:
    /// `|a_ii| ≥ Σ_{j≠i} |a_ij|` for every row. Iterative solvers in this
    /// workspace are applied to matrices with this property.
    pub fn is_diagonally_dominant(&self) -> bool {
        for i in 0..self.rows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (j, v) in self.row(i) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            if diag + 1e-14 * (diag + off) < off {
                return false;
            }
        }
        true
    }

    /// Checks structural and numerical symmetry to a relative tolerance.
    pub fn is_symmetric(&self, rel_tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                let vt = self.get(j, i);
                let scale = v.abs().max(vt.abs()).max(1e-300);
                if (v - vt).abs() > rel_tol * scale {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0).unwrap();
            if i > 0 {
                t.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                t.push(i, i + 1, -1.0).unwrap();
            }
        }
        t.to_csr()
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(1, 1, 1.0).unwrap();
        t.push(1, 1, 2.5).unwrap();
        t.push(0, 2, -1.0).unwrap();
        t.push(0, 2, -1.0).unwrap();
        let a = t.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(1, 1), 3.5);
        assert_eq!(a.get(0, 2), -2.0);
        assert_eq!(a.get(2, 2), 0.0);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut t = TripletMatrix::new(4, 4);
        t.push(0, 0, 1.0).unwrap();
        t.push(3, 3, 1.0).unwrap();
        let a = t.to_csr();
        let y = a.matvec(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(y, vec![1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn matvec_matches_dense_laplacian() {
        let a = laplacian_1d(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = a.matvec(&x).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn conductance_stamp_is_symmetric_singular() {
        let mut t = TripletMatrix::new(2, 2);
        t.stamp_conductance(0, 1, 5.0).unwrap();
        let a = t.to_csr();
        assert!(a.is_symmetric(1e-12));
        // Row sums are zero (floating network).
        let y = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0]);
    }

    #[test]
    fn diagonal_dominance_detection() {
        assert!(laplacian_1d(8).is_diagonally_dominant());
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 1, -3.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        assert!(!t.to_csr().is_diagonally_dominant());
    }

    #[test]
    fn symmetry_detection() {
        assert!(laplacian_1d(6).is_symmetric(1e-14));
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0).unwrap();
        t.push(1, 1, 1.0).unwrap();
        t.push(0, 0, 1.0).unwrap();
        assert!(!t.to_csr().is_symmetric(1e-14));
    }

    #[test]
    fn push_validates() {
        let mut t = TripletMatrix::new(2, 2);
        assert!(t.push(2, 0, 1.0).is_err());
        assert!(t.push(0, 0, f64::NAN).is_err());
    }

    #[test]
    fn symbolic_numeric_matches_to_csr() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(2, 0, 1.0).unwrap();
        t.push(0, 1, 2.0).unwrap();
        t.push(0, 1, 3.0).unwrap(); // duplicate
        t.push(1, 2, -1.0).unwrap();
        let sym = t.to_csr_symbolic();
        assert_eq!(sym.nnz(), 3);
        let a = sym.numeric(&t).unwrap();
        assert_eq!(a, t.to_csr());
    }

    #[test]
    fn refresh_values_tracks_restamped_coefficients() {
        let stamp = |g: f64| {
            let mut t = TripletMatrix::new(4, 4);
            t.stamp_conductance(0, 1, g).unwrap();
            t.stamp_conductance(1, 2, 2.0 * g).unwrap();
            t.push(3, 3, g * g).unwrap();
            t
        };
        let first = stamp(1.0);
        let sym = first.to_csr_symbolic();
        let mut a = sym.numeric(&first).unwrap();
        for g in [0.5, 3.0, 7.25] {
            let t = stamp(g);
            sym.refresh_values(&mut a, &t).unwrap();
            assert_eq!(a, t.to_csr(), "g = {g}");
        }
    }

    #[test]
    fn refresh_values_rejects_mismatched_inputs() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        let sym = t.to_csr_symbolic();
        let mut a = sym.numeric(&t).unwrap();

        let mut longer = TripletMatrix::new(2, 2);
        longer.push(0, 0, 1.0).unwrap();
        longer.push(1, 1, 1.0).unwrap();
        assert!(sym.refresh_values(&mut a, &longer).is_err());

        let mut wrong_shape = TripletMatrix::new(3, 3);
        wrong_shape.push(0, 0, 1.0).unwrap();
        assert!(sym.refresh_values(&mut a, &wrong_shape).is_err());

        let mut other = TripletMatrix::new(2, 2);
        other.push(1, 1, 1.0).unwrap();
        let mut b = other.to_csr_symbolic().numeric(&other).unwrap();
        // Same nnz/shape but built from a different pattern: caught by the
        // cheap checks only when sizes differ; here sizes match, so this
        // is the documented same-stamp-sequence contract.
        assert!(sym.refresh_values(&mut b, &t).is_ok());
    }

    #[test]
    fn triplet_clear_keeps_shape() {
        let mut t = TripletMatrix::with_capacity(2, 2, 8);
        t.push(0, 0, 1.0).unwrap();
        t.clear();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.rows(), 2);
        t.push(1, 1, 2.0).unwrap();
        assert_eq!(t.to_csr().get(1, 1), 2.0);
    }

    #[test]
    fn diagonal_into_matches_diagonal() {
        let a = laplacian_1d(6);
        let mut d = Vec::new();
        a.diagonal_into(&mut d);
        assert_eq!(d, a.diagonal());
    }

    #[test]
    fn row_iterator_yields_sorted_columns() {
        let mut t = TripletMatrix::new(1, 5);
        t.push(0, 4, 4.0).unwrap();
        t.push(0, 1, 1.0).unwrap();
        t.push(0, 3, 3.0).unwrap();
        let a = t.to_csr();
        let cols: Vec<usize> = a.row(0).map(|(c, _)| c).collect();
        assert_eq!(cols, vec![1, 3, 4]);
    }
}
