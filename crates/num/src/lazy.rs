//! Fallible lazy initialization over `OnceLock`.
//!
//! Stable `OnceLock` has no `get_or_try_init`; every cached-operator
//! site in the workspace (thermal operator, PDN system, flow-cell solve
//! context, co-simulation models) needs exactly that, so the idiom
//! lives here once.

use std::sync::OnceLock;

/// Returns the cached value, building it with `build` on first use.
///
/// If `build` fails the error is returned and the cell stays empty, so
/// a later call retries. Racing callers that find the cell empty may
/// each run `build`; one result wins and the others are dropped. That
/// suits a pure construction whose cell is filled before it is shared
/// (the thermal operator, the flow-cell solve context). A build too
/// costly to repeat on a cell that threads race to fill, such as the
/// PDN's banded factor, caches a `Result` through
/// `OnceLock::get_or_init` instead, which runs one build and makes the
/// other callers wait for it.
///
/// # Errors
///
/// Whatever `build` returns.
///
/// # Examples
///
/// ```
/// use std::sync::OnceLock;
/// use bright_num::lazy::get_or_try_init;
///
/// let cell: OnceLock<Vec<f64>> = OnceLock::new();
/// let v: &Vec<f64> = get_or_try_init(&cell, || Ok::<_, ()>(vec![1.0]))?;
/// assert_eq!(v[0], 1.0);
/// # Ok::<(), ()>(())
/// ```
pub fn get_or_try_init<T, E>(
    cell: &OnceLock<T>,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<&T, E> {
    if cell.get().is_none() {
        let value = build()?;
        let _ = cell.set(value);
    }
    Ok(cell.get().expect("cell initialized above"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_and_caches() {
        let cell: OnceLock<u32> = OnceLock::new();
        let mut calls = 0;
        let a = *get_or_try_init(&cell, || {
            calls += 1;
            Ok::<_, ()>(7)
        })
        .unwrap();
        let b = *get_or_try_init(&cell, || {
            calls += 1;
            Ok::<_, ()>(9)
        })
        .unwrap();
        assert_eq!((a, b, calls), (7, 7, 1));
    }

    #[test]
    fn error_leaves_cell_empty_for_retry() {
        let cell: OnceLock<u32> = OnceLock::new();
        assert_eq!(get_or_try_init(&cell, || Err::<u32, _>("boom")), Err("boom"));
        assert!(cell.get().is_none());
        assert_eq!(get_or_try_init(&cell, || Ok::<_, &str>(3)), Ok(&3));
    }
}
