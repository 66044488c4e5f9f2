//! Small dense-vector kernels used by the iterative solvers.
//!
//! All reductions ([`dot`], [`norm2`], [`wrms_diff`] and the fused
//! variants) use **chunked pairwise accumulation**: the slice is cut
//! into fixed 64-element base chunks, summed in order within each
//! chunk, and chunk sums are combined pairwise (a binary-counter
//! merge, the classic pairwise-summation scheme). On the
//! ~200k-unknown production grids this bounds the rounding error to
//! O(log n) ulps instead of O(n) while unrolling cleanly, and —
//! because the combine tree depends only on the slice length — every
//! reduction here is deterministic.
//!
//! The fused kernels ([`axpy_dot`], [`axpy_norm2_sq`], [`dot2`])
//! combine an update and its following reduction(s) into one memory
//! pass — the Krylov loops in [`crate::solvers`] use [`axpy_norm2_sq`]
//! and [`dot2`] to cut whole-vector traversals per iteration. Each fused kernel is
//! **bitwise identical** to the unfused call sequence it replaces
//! (chunks are visited left to right: update in order, reduce in
//! order, combine in the same pairwise tree).

/// Base chunk length of the pairwise reduction tree.
const PAIRWISE_CHUNK: usize = 64;

/// Pairwise (binary-counter) combination of in-order leaf sums over
/// `0..len` in [`PAIRWISE_CHUNK`]-sized chunks. `leaf(lo, hi)` is
/// called once per chunk, left to right, so it may carry side effects
/// (the fused kernels update `y` inside the leaf).
#[inline]
pub(crate) fn reduce_chunks<F: FnMut(usize, usize) -> f64>(len: usize, mut leaf: F) -> f64 {
    // After pushing chunk k, merge once per trailing 1-bit of k: the
    // standard pairwise-summation stack, depth ≤ 64.
    let mut stack = [0.0f64; 64];
    let mut depth = 0usize;
    let mut k = 0usize;
    let mut lo = 0usize;
    while lo < len {
        let hi = (lo + PAIRWISE_CHUNK).min(len);
        let mut s = leaf(lo, hi);
        let mut kk = k;
        while kk & 1 == 1 {
            depth -= 1;
            s += stack[depth];
            kk >>= 1;
        }
        stack[depth] = s;
        depth += 1;
        k += 1;
        lo = hi;
    }
    if depth == 0 {
        return 0.0;
    }
    let mut s = stack[depth - 1];
    for d in (0..depth - 1).rev() {
        s += stack[d];
    }
    s
}

/// Two-accumulator variant of [`reduce_chunks`] for fused double
/// reductions: identical combine tree, tuple partials.
#[inline]
fn reduce_chunks2<F: FnMut(usize, usize) -> (f64, f64)>(len: usize, mut leaf: F) -> (f64, f64) {
    let mut stack = [(0.0f64, 0.0f64); 64];
    let mut depth = 0usize;
    let mut k = 0usize;
    let mut lo = 0usize;
    while lo < len {
        let hi = (lo + PAIRWISE_CHUNK).min(len);
        let (mut s, mut t) = leaf(lo, hi);
        let mut kk = k;
        while kk & 1 == 1 {
            depth -= 1;
            s += stack[depth].0;
            t += stack[depth].1;
            kk >>= 1;
        }
        stack[depth] = (s, t);
        depth += 1;
        k += 1;
        lo = hi;
    }
    if depth == 0 {
        return (0.0, 0.0);
    }
    let (mut s, mut t) = stack[depth - 1];
    for d in (0..depth - 1).rev() {
        s += stack[d].0;
        t += stack[d].1;
    }
    (s, t)
}

#[inline]
pub(crate) fn chunk_dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Dot product of two equally sized slices (chunked pairwise
/// accumulation; see the [module docs](self)).
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    reduce_chunks(a.len().min(b.len()), |lo, hi| {
        chunk_dot(&a[lo..hi], &b[lo..hi])
    })
}

/// Both `dot(x, a)` and `dot(x, b)` in a single pass over `x` — the
/// fused reduction the Krylov loops use for `(t·s, t·t)` and
/// `(r·z, r·r)` pairs. Bitwise identical to two separate [`dot`]
/// calls.
///
/// # Panics
///
/// Panics in debug builds on length mismatches.
#[inline]
#[must_use]
pub fn dot2(x: &[f64], a: &[f64], b: &[f64]) -> (f64, f64) {
    debug_assert_eq!(x.len(), a.len());
    debug_assert_eq!(x.len(), b.len());
    reduce_chunks2(x.len(), |lo, hi| {
        (
            chunk_dot(&x[lo..hi], &a[lo..hi]),
            chunk_dot(&x[lo..hi], &b[lo..hi]),
        )
    })
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Maximum absolute entry (L∞ norm). Returns 0 for an empty slice.
#[inline]
pub fn norm_inf(a: &[f64]) -> f64 {
    a.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// `y ← a·x + y`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Fused `y ← a·x + y` returning `dot(y, w)` of the updated `y` — one
/// memory pass instead of two. Bitwise identical to [`axpy`] followed
/// by [`dot`] (each chunk is updated in order, then reduced in order,
/// and chunk sums combine in the same pairwise tree).
///
/// The in-tree Krylov loops currently reach for [`axpy_norm2_sq`] and
/// [`dot2`] (their fusion points pair an update with its own norm, or
/// two dots against one stream); this cross-dot variant completes the
/// fused-reduction set for callers whose update feeds a *different*
/// reduction vector, and is held to the same bitwise contract by the
/// property tests.
///
/// # Panics
///
/// Panics in debug builds on length mismatches.
#[inline]
#[must_use]
pub fn axpy_dot(a: f64, x: &[f64], y: &mut [f64], w: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(w.len(), y.len());
    let n = y.len();
    reduce_chunks(n, |lo, hi| {
        let yc = &mut y[lo..hi];
        for (yi, xi) in yc.iter_mut().zip(&x[lo..hi]) {
            *yi += a * xi;
        }
        chunk_dot(yc, &w[lo..hi])
    })
}

/// Fused `y ← a·x + y` returning `‖y‖₂²` of the updated `y` — the
/// residual-update + norm-check pass of the Krylov loops. Bitwise
/// identical to [`axpy`] followed by `dot(y, y)`.
///
/// # Panics
///
/// Panics in debug builds on length mismatches.
#[inline]
#[must_use]
pub fn axpy_norm2_sq(a: f64, x: &[f64], y: &mut [f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let n = y.len();
    reduce_chunks(n, |lo, hi| {
        let yc = &mut y[lo..hi];
        for (yi, xi) in yc.iter_mut().zip(&x[lo..hi]) {
            *yi += a * xi;
        }
        chunk_dot(yc, yc)
    })
}

/// `y ← x + b·y` (the "xpby" update used by CG's direction refresh).
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi + b * *yi;
    }
}

/// `y ← x` (copy).
#[inline]
pub fn copy(x: &[f64], y: &mut [f64]) {
    y.copy_from_slice(x);
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// Component-wise subtraction `out ← a − b`.
#[inline]
pub fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Returns `true` if every entry is finite.
#[inline]
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

/// Weighted root-mean-square norm of the difference `a − b`, the local
/// error measure adaptive time steppers compare against 1:
///
/// ```text
/// wrms = sqrt( (1/n) Σ_i ( (a_i − b_i) / (abs_tol + rel_tol·max(|a_i|,|b_i|)) )² )
/// ```
///
/// A value ≤ 1 means the difference is within the mixed
/// absolute/relative tolerance in the RMS sense (the SUNDIALS/CVODE
/// convention). Returns 0 for empty slices. Accumulated pairwise like
/// every reduction in this module.
///
/// # Examples
///
/// ```
/// use bright_num::vec_ops::wrms_diff;
///
/// // 0.05 K apart on ~300 K fields: well inside atol=0.1.
/// let err = wrms_diff(&[300.00, 310.00], &[300.05, 310.05], 0.1, 0.0);
/// assert!(err < 1.0);
/// // ...but outside atol=0.01.
/// assert!(wrms_diff(&[300.00], &[300.05], 0.01, 0.0) > 1.0);
/// ```
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths, or if
/// both tolerances are zero/negative (the weight would divide by zero).
#[must_use]
pub fn wrms_diff(a: &[f64], b: &[f64], abs_tol: f64, rel_tol: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(
        abs_tol > 0.0 || rel_tol > 0.0,
        "wrms_diff needs a positive tolerance"
    );
    if a.is_empty() {
        return 0.0;
    }
    let sum = reduce_chunks(a.len(), |lo, hi| {
        let mut acc = 0.0;
        for (x, y) in a[lo..hi].iter().zip(&b[lo..hi]) {
            let w = abs_tol + rel_tol * x.abs().max(y.abs());
            let e = (x - y) / w;
            acc += e * e;
        }
        acc
    });
    (sum / a.len() as f64).sqrt()
}

/// Weighted root-mean-square norm of an explicit error vector against
/// tolerance weights built from a reference solution:
///
/// ```text
/// wrms = sqrt( (1/n) Σ_i ( err_i / (abs_tol + rel_tol·|ref_i|) )² )
/// ```
///
/// This is the embedded-estimate companion to [`wrms_diff`]: the
/// TR-BDF2 controller produces a local-truncation-error *vector*
/// directly (no second solution to diff against), and weights it by
/// the magnitude of the accepted solution. Same SUNDIALS convention:
/// ≤ 1 means within tolerance in the RMS sense. Returns 0 for empty
/// slices; chunked pairwise accumulation like every reduction here.
///
/// # Examples
///
/// ```
/// use bright_num::vec_ops::wrms;
///
/// // A 0.02 K error estimate on a ~300 K field, atol = 0.05.
/// let e = wrms(&[0.02, -0.02], &[300.0, 310.0], 0.05, 0.0);
/// assert!(e < 1.0);
/// assert!(wrms(&[0.2], &[300.0], 0.05, 0.0) > 1.0);
/// ```
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths, or if
/// both tolerances are zero/negative.
#[must_use]
pub fn wrms(err: &[f64], reference: &[f64], abs_tol: f64, rel_tol: f64) -> f64 {
    debug_assert_eq!(err.len(), reference.len());
    debug_assert!(
        abs_tol > 0.0 || rel_tol > 0.0,
        "wrms needs a positive tolerance"
    );
    if err.is_empty() {
        return 0.0;
    }
    let sum = reduce_chunks(err.len(), |lo, hi| {
        let mut acc = 0.0;
        for (e, r) in err[lo..hi].iter().zip(&reference[lo..hi]) {
            let w = abs_tol + rel_tol * r.abs();
            let x = e / w;
            acc += x * x;
        }
        acc
    });
    (sum / err.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(salt).wrapping_add(17) % 1000) as f64 * 1e-3 - 0.5)
            .collect()
    }

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn pairwise_dot_matches_compensated_sum() {
        // Lengths straddling several chunk boundaries; compare against
        // a Kahan-compensated reference.
        for n in [1usize, 63, 64, 65, 127, 128, 200, 1000, 4097] {
            let a = series(n, 31);
            let b = series(n, 57);
            let got = dot(&a, &b);
            let (mut s, mut c) = (0.0f64, 0.0f64);
            for (x, y) in a.iter().zip(&b) {
                let t = x * y - c;
                let u = s + t;
                c = (u - s) - t;
                s = u;
            }
            assert!(
                (got - s).abs() <= 1e-13 * (1.0 + s.abs()),
                "n={n}: {got} vs {s}"
            );
        }
    }

    #[test]
    fn fused_kernels_match_unfused_bitwise() {
        for n in [0usize, 1, 5, 64, 65, 130, 517] {
            let x = series(n, 11);
            let w = series(n, 13);
            let base = series(n, 19);
            let alpha = 0.37;

            let mut y1 = base.clone();
            axpy(alpha, &x, &mut y1);
            let want_dot = dot(&y1, &w);
            let want_nrm = dot(&y1, &y1);

            let mut y2 = base.clone();
            let got_dot = axpy_dot(alpha, &x, &mut y2, &w);
            assert_eq!(y1, y2, "n={n}");
            assert!(got_dot.to_bits() == want_dot.to_bits(), "n={n}");

            let mut y3 = base.clone();
            let got_nrm = axpy_norm2_sq(alpha, &x, &mut y3);
            assert_eq!(y1, y3, "n={n}");
            assert!(got_nrm.to_bits() == want_nrm.to_bits(), "n={n}");

            let (d1, d2) = dot2(&x, &w, &base);
            assert!(d1.to_bits() == dot(&x, &w).to_bits(), "n={n}");
            assert!(d2.to_bits() == dot(&x, &base).to_bits(), "n={n}");
        }
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn xpby_refreshes_direction() {
        let x = [1.0, 1.0];
        let mut y = [3.0, 5.0];
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [2.5, 3.5]);
    }

    #[test]
    fn finite_detection() {
        assert!(all_finite(&[1.0, -2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn wrms_measures_against_mixed_tolerance() {
        // Identical vectors: zero error; empty: zero by convention.
        assert_eq!(wrms_diff(&[1.0, 2.0], &[1.0, 2.0], 1e-3, 1e-3), 0.0);
        assert_eq!(wrms_diff(&[], &[], 1e-3, 0.0), 0.0);
        // Pure absolute tolerance: err/atol per component.
        let e = wrms_diff(&[0.0, 0.0], &[3e-3, 4e-3], 1e-3, 0.0);
        assert!((e - (12.5_f64).sqrt()).abs() < 1e-12, "e = {e}");
        // Relative part scales with the magnitude: the same absolute
        // offset on a large value is "smaller".
        let small = wrms_diff(&[1.0], &[1.1], 0.0, 0.1);
        let large = wrms_diff(&[1000.0], &[1000.1], 0.0, 0.1);
        assert!(large < small);
        // Boundary: exactly at tolerance -> 1.
        assert!((wrms_diff(&[0.0], &[0.5], 0.5, 0.0) - 1.0).abs() < 1e-12);
    }
}
