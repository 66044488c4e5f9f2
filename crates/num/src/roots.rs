//! Scalar root finding.
//!
//! Polarization solves are nested one-dimensional inversions: "what
//! overpotential makes this electrode pass current I?", "what cell current
//! satisfies the voltage balance?". Brent's method on a bracketing interval
//! is the workhorse; bisection and damped Newton are provided as simpler
//! alternatives.

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

/// Bisection on a sign-changing interval `[a, b]`.
///
/// # Errors
///
/// * [`NumError::NoRoot`] if `f(a)` and `f(b)` have the same sign,
/// * [`NumError::InvalidInput`] for a degenerate or non-finite interval,
/// * [`NumError::NotConverged`] if the budget is exhausted (practically
///   unreachable for bisection with sensible tolerances).
pub fn bisect<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    opts: &RootOptions,
) -> Result<f64, NumError> {
    check_bracket(a, b)?;
    let mut lo = a;
    let mut hi = b;
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(NumError::NoRoot(format!(
            "no sign change on [{a}, {b}]: f(a)={f_lo:.3e}, f(b)={f_hi:.3e}"
        )));
    }
    for _ in 0..opts.max_iterations {
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if f_mid == 0.0 || (hi - lo) < opts.x_tolerance || f_mid.abs() < opts.f_tolerance {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    Err(NumError::NotConverged {
        iterations: opts.max_iterations,
        residual: hi - lo,
        tolerance: opts.x_tolerance,
    })
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
/// As [`bisect`].
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
/// As [`bisect`].
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

/// Damped Newton iteration with a user-supplied derivative.
///
/// Steps are halved (up to 30 times) whenever `|f|` fails to decrease,
/// which makes the iteration robust on the stiff exponential nonlinearities
/// of Butler–Volmer kinetics.
///
/// # Errors
///
/// * [`NumError::InvalidInput`] for a non-finite start,
/// * [`NumError::NoRoot`] if the derivative vanishes,
/// * [`NumError::NotConverged`] if the budget is exhausted.
pub fn newton<F, G>(mut f: F, mut df: G, x0: f64, opts: &RootOptions) -> Result<f64, NumError>
where
    F: FnMut(f64) -> f64,
    G: FnMut(f64) -> f64,
{
    if !x0.is_finite() {
        return Err(NumError::InvalidInput("non-finite start".into()));
    }
    let mut x = x0;
    let mut fx = f(x);
    for _ in 0..opts.max_iterations {
        if fx.abs() < opts.f_tolerance {
            return Ok(x);
        }
        let dfx = df(x);
        if dfx.abs() < 1e-300 || !dfx.is_finite() {
            return Err(NumError::NoRoot(format!(
                "derivative {dfx:.3e} at x={x:.6e}"
            )));
        }
        let mut step = fx / dfx;
        let mut x_new = x - step;
        let mut f_new = f(x_new);
        let mut halvings = 0;
        while (!f_new.is_finite() || f_new.abs() > fx.abs()) && halvings < 30 {
            step *= 0.5;
            x_new = x - step;
            f_new = f(x_new);
            halvings += 1;
        }
        if (x_new - x).abs() < opts.x_tolerance && f_new.abs() < opts.f_tolerance.max(1e-9) {
            return Ok(x_new);
        }
        x = x_new;
        fx = f_new;
    }
    if fx.abs() < opts.f_tolerance.max(1e-9) {
        return Ok(x);
    }
    Err(NumError::NotConverged {
        iterations: opts.max_iterations,
        residual: fx.abs(),
        tolerance: opts.f_tolerance,
    })
}

/// Expands an initial guess interval geometrically until `f` changes sign,
/// then the returned bracket can be passed to [`brent`].
///
/// # Errors
///
/// Returns [`NumError::NoRoot`] if no sign change is found within
/// `max_expansions` doublings.
pub fn expand_bracket<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    max_expansions: usize,
) -> Result<(f64, f64), NumError> {
    if !(a.is_finite() && b.is_finite()) || a >= b {
        return Err(NumError::InvalidInput(format!("bad seed [{a}, {b}]")));
    }
    let mut lo = a;
    let mut hi = b;
    let mut f_lo = f(lo);
    let mut f_hi = f(hi);
    for _ in 0..max_expansions {
        if f_lo.signum() != f_hi.signum() {
            return Ok((lo, hi));
        }
        let width = hi - lo;
        if f_lo.abs() < f_hi.abs() {
            lo -= width;
            f_lo = f(lo);
        } else {
            hi += width;
            f_hi = f(hi);
        }
    }
    Err(NumError::NoRoot(format!(
        "no sign change after {max_expansions} expansions from [{a}, {b}]"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, &RootOptions::default()).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

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
    fn newton_converges_quadratically() {
        let root = newton(|x| x * x - 2.0, |x| 2.0 * x, 1.0, &RootOptions::default()).unwrap();
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn newton_damps_on_overshoot() {
        // atan has tiny derivative far out; undamped Newton diverges from 3.
        let root = newton(
            |x: f64| x.atan(),
            |x: f64| 1.0 / (1.0 + x * x),
            3.0,
            &RootOptions {
                max_iterations: 500,
                ..RootOptions::default()
            },
        )
        .unwrap();
        assert!(root.abs() < 1e-6, "got {root}");
    }

    #[test]
    fn rejects_same_sign_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, &RootOptions::default()),
            Err(NumError::NoRoot(_))
        ));
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, &RootOptions::default()),
            Err(NumError::NoRoot(_))
        ));
    }

    #[test]
    fn rejects_bad_interval() {
        assert!(bisect(|x| x, 2.0, 1.0, &RootOptions::default()).is_err());
        assert!(brent(|x| x, f64::NAN, 1.0, &RootOptions::default()).is_err());
    }

    #[test]
    fn endpoints_that_are_roots_return_immediately() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, &RootOptions::default()).unwrap(), 0.0);
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

    #[test]
    fn bracket_expansion_finds_sign_change() {
        let (lo, hi) = expand_bracket(|x| x - 100.0, 0.0, 1.0, 60).unwrap();
        assert!(lo <= 100.0 && 100.0 <= hi);
        assert!(expand_bracket(|_| 1.0, 0.0, 1.0, 8).is_err());
    }
}
