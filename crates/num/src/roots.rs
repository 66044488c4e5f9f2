//! Scalar root finding.
//!
//! Polarization solves are nested one-dimensional inversions: "what
//! overpotential makes this electrode pass current I?", "what cell current
//! satisfies the voltage balance?". The flow cell solves every one with
//! Brent's method on a bracketing interval ([`brent`], or
//! [`brent_bracketed`] from ends it has already evaluated).

use crate::NumError;

/// Options for the scalar root finders.
#[derive(Debug, Clone, PartialEq)]
pub struct RootOptions {
    /// Absolute tolerance on the argument.
    pub x_tolerance: f64,
    /// Absolute tolerance on the function value.
    pub f_tolerance: f64,
    /// Maximum iterations.
    pub max_iterations: usize,
}

impl Default for RootOptions {
    fn default() -> Self {
        Self {
            x_tolerance: 1e-12,
            f_tolerance: 1e-12,
            max_iterations: 200,
        }
    }
}

fn check_bracket(a: f64, b: f64) -> Result<(), NumError> {
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumError::InvalidInput(format!("bad bracket [{a}, {b}]")));
    }
    Ok(())
}

/// Brent's method (inverse quadratic interpolation with bisection
/// safeguard) on a sign-changing interval `[a, b]`.
///
/// Evaluates both ends, then runs [`brent_bracketed`].
///
/// # Errors
///
/// * [`NumError::NoRoot`] if `f(a)` and `f(b)` have the same sign,
/// * [`NumError::InvalidInput`] for a degenerate or non-finite interval,
/// * [`NumError::NotConverged`] if the budget is exhausted.
pub fn brent<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    opts: &RootOptions,
) -> Result<f64, NumError> {
    check_bracket(a, b)?;
    let fa = f(a);
    let fb = f(b);
    brent_bracketed(|x| (f(x), ()), (a, fa, ()), (b, fb, ()), opts).map(|(root, ())| root)
}

/// Brent's method from ends the caller has already evaluated: `lo` and
/// `hi` are `(x, f(x), payload)` with `lo.0 < hi.0`. `f` returns the
/// function value together with a `Copy` payload (by-products of the
/// evaluation the caller wants at the root), which travels with its
/// iterate; the result is the root and the payload of the evaluation
/// that produced it. [`brent`] is this with `()` payloads, so both run
/// the same iterates and return the same root bits.
///
/// # Errors
///
/// As [`brent`].
pub fn brent_bracketed<P: Copy, F: FnMut(f64) -> (f64, P)>(
    mut f: F,
    lo: (f64, f64, P),
    hi: (f64, f64, P),
    opts: &RootOptions,
) -> Result<(f64, P), NumError> {
    let ((a, mut fa, mut pa), (b, mut fb, mut pb)) = (lo, hi);
    check_bracket(a, b)?;
    let mut xa = a;
    let mut xb = b;
    if fa == 0.0 {
        return Ok((xa, pa));
    }
    if fb == 0.0 {
        return Ok((xb, pb));
    }
    if fa.signum() == fb.signum() {
        return Err(NumError::NoRoot(format!(
            "no sign change on [{a}, {b}]: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )));
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut xa, &mut xb);
        std::mem::swap(&mut fa, &mut fb);
        std::mem::swap(&mut pa, &mut pb);
    }
    let mut xc = xa;
    let mut fc = fa;
    let mut mflag = true;
    let mut d = xc;

    for _ in 0..opts.max_iterations {
        if fb.abs() < opts.f_tolerance || (xb - xa).abs() < opts.x_tolerance {
            return Ok((xb, pb));
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            xa * fb * fc / ((fa - fb) * (fa - fc))
                + xb * fa * fc / ((fb - fa) * (fb - fc))
                + xc * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            xb - fb * (xb - xa) / (fb - fa)
        };

        let lo = (3.0 * xa + xb) / 4.0;
        let hi = xb;
        let (lo, hi) = if lo < hi { (lo, hi) } else { (hi, lo) };
        let cond = !(lo..=hi).contains(&s)
            || (mflag && (s - xb).abs() >= (xb - xc).abs() / 2.0)
            || (!mflag && (s - xb).abs() >= (xc - d).abs() / 2.0)
            || (mflag && (xb - xc).abs() < opts.x_tolerance)
            || (!mflag && (xc - d).abs() < opts.x_tolerance);
        if cond {
            s = 0.5 * (xa + xb);
            mflag = true;
        } else {
            mflag = false;
        }
        let (fs, ps) = f(s);
        d = xc;
        xc = xb;
        fc = fb;
        if fa.signum() != fs.signum() {
            xb = s;
            fb = fs;
            pb = ps;
        } else {
            xa = s;
            fa = fs;
            pa = ps;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut xa, &mut xb);
            std::mem::swap(&mut fa, &mut fb);
            std::mem::swap(&mut pa, &mut pb);
        }
    }
    Err(NumError::NotConverged {
        iterations: opts.max_iterations,
        residual: fb.abs(),
        tolerance: opts.f_tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_sqrt2_fast() {
        let mut evals = 0;
        let root = brent(
            |x| {
                evals += 1;
                x * x - 2.0
            },
            0.0,
            2.0,
            &RootOptions::default(),
        )
        .unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!(evals < 20, "brent used {evals} evaluations");
    }

    #[test]
    fn brent_handles_exponential_nonlinearity() {
        // Butler-Volmer-like shape: sinh-dominated.
        let f = |x: f64| 2.0 * (x / 0.05).sinh() - 40.0;
        let root = brent(f, 0.0, 1.0, &RootOptions::default()).unwrap();
        assert!((2.0 * (root / 0.05).sinh() - 40.0).abs() < 1e-8);
    }

    #[test]
    fn rejects_same_sign_bracket() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, &RootOptions::default()),
            Err(NumError::NoRoot(_))
        ));
    }

    #[test]
    fn rejects_bad_interval() {
        assert!(brent(|x| x, 2.0, 1.0, &RootOptions::default()).is_err());
        assert!(brent(|x| x, f64::NAN, 1.0, &RootOptions::default()).is_err());
    }

    #[test]
    fn endpoints_that_are_roots_return_immediately() {
        assert_eq!(brent(|x| x, 0.0, 1.0, &RootOptions::default()).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, &RootOptions::default()).unwrap(), 1.0);
    }

    fn assert_bracketed_matches_brent(f: impl Fn(f64) -> f64, a: f64, b: f64) {
        let opts = RootOptions::default();
        let plain = brent(&f, a, b, &opts).unwrap();
        let (root, payload) =
            brent_bracketed(|x| (f(x), f(x)), (a, f(a), f(a)), (b, f(b), f(b)), &opts).unwrap();
        assert_eq!(root.to_bits(), plain.to_bits(), "{root} vs {plain}");
        assert_eq!(
            payload.to_bits(),
            f(root).to_bits(),
            "payload is f at the root"
        );
    }

    #[test]
    fn brent_bracketed_matches_brent_bitwise() {
        assert_bracketed_matches_brent(|x| x * x * x - 2.0 * x - 5.0, 0.0, 4.0);
        assert_bracketed_matches_brent(|x| x.exp() - 7.5, -1.0, 3.0);
        // Decreasing residual shaped like a station voltage balance:
        // OCV minus two Butler–Volmer overpotentials and an ohmic drop.
        let vt = 0.025_852;
        let balance = |i: f64| {
            1.4 - 2.0 * vt * (i / 900.0).asinh() - 2.0 * vt * (i / 700.0).asinh() - 2e-4 * i - 1.0
        };
        assert_bracketed_matches_brent(balance, 0.0, 2500.0);
    }

    #[test]
    fn brent_bracketed_zero_end_returns_that_end_and_payload() {
        let opts = RootOptions::default();
        let never = |_: f64| -> (f64, u32) { panic!("no evaluation needed") };
        assert_eq!(
            brent_bracketed(never, (0.0, 0.0, 7), (1.0, -1.0, 9), &opts).unwrap(),
            (0.0, 7)
        );
        assert_eq!(
            brent_bracketed(never, (0.0, 1.0, 7), (1.0, 0.0, 9), &opts).unwrap(),
            (1.0, 9)
        );
    }

    #[test]
    fn brent_bracketed_rejects_same_sign_ends_and_bad_brackets() {
        let opts = RootOptions::default();
        let f = |x: f64| (x * x + 1.0, ());
        assert!(matches!(
            brent_bracketed(f, (-1.0, 2.0, ()), (1.0, 2.0, ()), &opts),
            Err(NumError::NoRoot(_))
        ));
        assert!(matches!(
            brent_bracketed(f, (1.0, -1.0, ()), (1.0, 1.0, ()), &opts),
            Err(NumError::InvalidInput(_))
        ));
    }
}
