//! Output checks on a result table: shape, finiteness and series-current
//! conservation.
//!
//! Every workload deck prints its drain-side junction currents first and
//! its ground-side junction currents second, in equal numbers, so the sum
//! of each half is the current entering and leaving the same series path.
//! On the deterministic engines (master equation, hybrid) the two sums are
//! equal up to solver tolerance and a point over [`EXACT_SERIES_TOL`] fails;
//! on the KMC engines the mismatch is a convergence measure and is only
//! reported.

/// Largest drain/ground mismatch a deterministic point may show, as a share
/// of the sweep's largest current.
const EXACT_SERIES_TOL: f64 = 1e-9;

/// Currents below one attoampere (about six electrons a second) count as
/// zero when scaling the exact check, so a sweep held entirely in Coulomb
/// blockade is not judged on solver round-off.
const CURRENT_FLOOR: f64 = 1e-18;

/// What the checks found on one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableCheck {
    /// Per planned point: whether its row is present, well-shaped, finite
    /// and (on exact workloads) series-conserving.
    pub point_ok: Vec<bool>,
    /// Largest drain/ground mismatch over the sweep divided by the sweep's
    /// largest current.
    pub series_err: f64,
}

/// The drain-side and ground-side current columns of a table: the `I(...)`
/// columns (never their `stderr(...)` partners), first half and second half.
fn series_columns(columns: &[String]) -> Result<(Vec<usize>, Vec<usize>), String> {
    let currents: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, name)| name.starts_with("I("))
        .map(|(index, _)| index)
        .collect();
    if currents.is_empty() || !currents.len().is_multiple_of(2) {
        return Err(format!(
            "expected equal numbers of drain-side and ground-side current columns, got {columns:?}"
        ));
    }
    let (drain, ground) = currents.split_at(currents.len() / 2);
    Ok((drain.to_vec(), ground.to_vec()))
}

/// Checks `rows` against the `points` the plan asked for. `exact` marks a
/// deterministic engine, whose points must conserve series current.
pub fn check_table(
    columns: &[String],
    rows: &[Vec<f64>],
    points: usize,
    exact: bool,
) -> Result<TableCheck, String> {
    let (drain, ground) = series_columns(columns)?;
    let mut point_ok = vec![false; points];
    let mut sides = Vec::with_capacity(points);
    for (ok, row) in point_ok.iter_mut().zip(rows) {
        if row.len() == columns.len() && row.iter().all(|v| v.is_finite()) {
            *ok = true;
            let d: f64 = drain.iter().map(|&c| row[c]).sum();
            let g: f64 = ground.iter().map(|&c| row[c]).sum();
            sides.push(Some((d, g)));
        } else {
            sides.push(None);
        }
    }
    let scale = sides
        .iter()
        .flatten()
        .map(|&(d, g)| d.abs().max(g.abs()))
        .fold(0.0, f64::max);
    let mut worst = 0.0_f64;
    for (ok, side) in point_ok.iter_mut().zip(&sides) {
        if let Some((d, g)) = side {
            let mismatch = (d - g).abs();
            worst = worst.max(mismatch);
            if exact && mismatch > EXACT_SERIES_TOL * scale.max(CURRENT_FLOOR) {
                *ok = false;
            }
        }
    }
    let series_err = if scale > 0.0 { worst / scale } else { 0.0 };
    Ok(TableCheck {
        point_ok,
        series_err,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn columns() -> Vec<String> {
        ["VG", "VD", "I(J1)", "I(J2)"].map(String::from).to_vec()
    }

    #[test]
    fn a_conserving_table_passes() {
        let rows = vec![vec![0.0, 1.0, 2e-12, 2e-12], vec![0.0, 2.0, 4e-12, 4e-12]];
        let check = check_table(&columns(), &rows, 2, true).unwrap();
        assert_eq!(check.point_ok, vec![true, true]);
        assert_eq!(check.series_err, 0.0);
    }

    #[test]
    fn a_deliberately_mismatched_table_fails_the_series_check() {
        let rows = vec![vec![0.0, 1.0, 2e-12, 2e-12], vec![0.0, 2.0, 4e-12, 3e-12]];
        let check = check_table(&columns(), &rows, 2, true).unwrap();
        assert_eq!(check.point_ok, vec![true, false]);
        assert!((check.series_err - 0.25).abs() < 1e-12);
        // On a statistical (KMC) table the same mismatch is reported, not failed.
        let check = check_table(&columns(), &rows, 2, false).unwrap();
        assert_eq!(check.point_ok, vec![true, true]);
        assert!((check.series_err - 0.25).abs() < 1e-12);
    }

    #[test]
    fn missing_short_and_non_finite_rows_fail() {
        let rows = vec![vec![0.0, 1.0, f64::NAN, 0.0], vec![0.0, 2.0, 4e-12]];
        let check = check_table(&columns(), &rows, 3, false).unwrap();
        assert_eq!(check.point_ok, vec![false, false, false]);
    }

    #[test]
    fn stderr_columns_are_not_series_sides() {
        let columns = ["VD", "I(J1)", "stderr(I(J1))", "I(J9)", "stderr(I(J9))"]
            .map(String::from)
            .to_vec();
        assert_eq!(series_columns(&columns).unwrap(), (vec![1], vec![3]));
        assert!(series_columns(&columns[..3]).is_err());
    }

    #[test]
    fn round_off_in_deep_blockade_is_not_a_failure() {
        let rows = vec![vec![0.0, 1.0, 1e-27, 3e-30]];
        let check = check_table(&columns(), &rows, 1, true).unwrap();
        assert_eq!(check.point_ok, vec![true]);
    }
}
