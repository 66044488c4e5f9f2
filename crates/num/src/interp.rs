//! Comparing a model curve with a tabulated reference sampled at the
//! same abscissae: the relative-error metric of the Fig. 3 validation.

use crate::NumError;

/// Maximum relative error between an interpolated reference and sampled
/// points: `max_i |model(x_i) − ref(x_i)| / max(|ref(x_i)|, floor)`.
///
/// Used to reproduce the paper's "model within 10 % of experiment" claim.
///
/// # Errors
///
/// Returns [`NumError::DimensionMismatch`] if slice lengths differ.
pub fn max_relative_error(
    reference: &[f64],
    model: &[f64],
    floor: f64,
) -> Result<f64, NumError> {
    if reference.len() != model.len() {
        return Err(NumError::DimensionMismatch(format!(
            "reference has {} points, model has {}",
            reference.len(),
            model.len()
        )));
    }
    Ok(reference
        .iter()
        .zip(model)
        .map(|(r, m)| (r - m).abs() / r.abs().max(floor))
        .fold(0.0_f64, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_metric() {
        let e = max_relative_error(&[1.0, 2.0, 4.0], &[1.1, 2.0, 3.6], 1e-9).unwrap();
        assert!((e - 0.1).abs() < 1e-12);
        assert!(max_relative_error(&[1.0], &[1.0, 2.0], 1e-9).is_err());
    }
}
