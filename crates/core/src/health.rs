//! Numerical health guards: structured errors, per-point quarantine, and
//! coverage accounting.
//!
//! The paper's extreme-scale projection (§5, Table 8) assumes runs long
//! enough that transient numerical breakdowns — a near-singular RGF block
//! at a resonance, a Sancho–Rubio decimation that stalls at a propagating
//! energy — are routine events, not fatal ones. This module gives the
//! pipeline a vocabulary for those events ([`NumericalError`]) and a
//! containment policy ([`HealthPolicy`]): a bad `(E, kz)` grid point is
//! *quarantined* (zero-filled and excluded from observables, recorded in a
//! [`CoverageReport`]) instead of poisoning the whole Born iteration, as
//! long as the bad fraction stays under a configured ceiling.

use qt_linalg::{Matrix, SingularMatrix};
use std::fmt;

/// Structured numerical failure, attributed to a pipeline phase and (where
/// meaningful) a flattened grid-point index.
#[derive(Clone, Debug, PartialEq)]
pub enum NumericalError {
    /// A block inversion failed (LU hit a zero pivot) inside `phase` while
    /// processing flattened grid point `index`.
    SingularBlock { phase: &'static str, index: usize },
    /// The Sancho–Rubio decimation exhausted its iteration budget without
    /// the coupling norm dropping below tolerance; `residual` is the final
    /// coupling norm.
    BoundaryNonConvergence { iters: usize, residual: f64 },
    /// A produced tensor contained NaN or ±Inf, detected at the boundary
    /// of `phase` for flattened grid point `index`.
    NonFiniteTensor { phase: &'static str, index: usize },
    /// A rank death the distributed SSE exchange did not recover: `rank`
    /// (an original world identity) died past the exchange's ceiling on
    /// lost work units, or after its retry bound or its last survivor ran
    /// out. The exchange stops at once and yields no result.
    RankLoss { rank: usize },
}

impl NumericalError {
    /// Attach phase/grid-point context to a raw [`SingularMatrix`].
    pub fn singular(phase: &'static str, index: usize) -> Self {
        NumericalError::SingularBlock { phase, index }
    }

    /// Re-attribute a context-free error (e.g. one converted through
    /// `From<SingularMatrix>` inside a deep helper) to the phase and grid
    /// point of the caller. Errors that already carry real context are
    /// passed through unchanged.
    pub fn at(self, phase: &'static str, index: usize) -> Self {
        match self {
            NumericalError::SingularBlock { .. } => NumericalError::SingularBlock { phase, index },
            NumericalError::NonFiniteTensor { .. } => {
                NumericalError::NonFiniteTensor { phase, index }
            }
            other => other,
        }
    }
}

impl fmt::Display for NumericalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericalError::SingularBlock { phase, index } => {
                write!(f, "singular block in phase `{phase}` at grid point {index}")
            }
            NumericalError::BoundaryNonConvergence { iters, residual } => write!(
                f,
                "boundary decimation did not converge after {iters} iterations \
                 (residual {residual:.3e})"
            ),
            NumericalError::NonFiniteTensor { phase, index } => write!(
                f,
                "non-finite tensor produced by phase `{phase}` at grid point {index}"
            ),
            NumericalError::RankLoss { rank } => {
                write!(f, "distributed state lost with the death of rank {rank}")
            }
        }
    }
}

impl std::error::Error for NumericalError {}

impl From<SingularMatrix> for NumericalError {
    fn from(_: SingularMatrix) -> Self {
        // Context-free conversion used by `?` in deep helpers; callers that
        // know the phase/point re-attribute via [`NumericalError::at`].
        NumericalError::SingularBlock {
            phase: "linalg",
            index: 0,
        }
    }
}

/// True when every element of every matrix is finite (no NaN, no ±Inf).
pub fn matrices_finite<'a>(ms: impl IntoIterator<Item = &'a Matrix>) -> bool {
    ms.into_iter().all(|m| {
        m.as_slice()
            .iter()
            .all(|z| z.re.is_finite() && z.im.is_finite())
    })
}

/// One excluded grid point and the reason it was excluded.
#[derive(Clone, Debug, PartialEq)]
pub struct QuarantinedPoint {
    /// Flattened grid index (`kz * ne + e` for electrons,
    /// `qz * nw + w` for phonons).
    pub grid_index: usize,
    /// What went wrong at this point.
    pub error: NumericalError,
}

/// Which grid points a GF phase actually covered.
///
/// A phase that quarantines points still returns a *complete* tensor — the
/// quarantined slices are zero-filled, which drops their contribution to
/// the SSE convolutions and observables — but the report makes the gap
/// visible so callers (and the telemetry `health.*` counters) can decide
/// whether the iteration is still trustworthy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CoverageReport {
    /// Number of grid points the phase was asked to compute.
    pub total_points: usize,
    /// The points that failed a health check and were zero-filled.
    pub quarantined: Vec<QuarantinedPoint>,
}

impl CoverageReport {
    /// A report claiming full coverage of `total_points` points.
    pub fn full(total_points: usize) -> Self {
        CoverageReport {
            total_points,
            quarantined: Vec::new(),
        }
    }

    /// Fraction of points quarantined, in `[0, 1]`.
    pub fn bad_fraction(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / self.total_points as f64
        }
    }

    /// True when no point was quarantined.
    pub fn is_full(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Fold another phase's coverage into this one (used by the SCF loop to
    /// aggregate electron + phonon coverage per iteration).
    pub fn absorb(&mut self, other: &CoverageReport) {
        self.total_points += other.total_points;
        self.quarantined.extend(other.quarantined.iter().cloned());
    }
}

/// Containment policy for numerical failures inside the GF phases.
#[derive(Clone, Copy, Debug)]
pub struct HealthPolicy {
    /// When true (default), a failing grid point is zero-filled and
    /// recorded instead of failing the phase. When false, the first
    /// failure aborts the phase with its [`NumericalError`].
    pub quarantine: bool,
    /// Hard ceiling on [`CoverageReport::bad_fraction`]; exceeding it turns
    /// quarantine into a phase-level error (too little of the spectrum left
    /// to trust the iteration).
    pub max_bad_fraction: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            quarantine: true,
            max_bad_fraction: 0.25,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_linalg::c64;

    #[test]
    fn error_display_names_phase_and_point() {
        let e = NumericalError::singular("rgf", 7);
        assert!(format!("{e}").contains("rgf"));
        assert!(format!("{e}").contains('7'));
        let e = NumericalError::BoundaryNonConvergence {
            iters: 200,
            residual: 3.5e-2,
        };
        let s = format!("{e}");
        assert!(s.contains("200") && s.contains("3.5"), "{s}");
    }

    #[test]
    fn from_singular_reattributes_with_at() {
        let e: NumericalError = SingularMatrix.into();
        let e = e.at("gf/electron", 12);
        assert_eq!(e, NumericalError::singular("gf/electron", 12));
        // Convergence errors keep their own payload through `at`.
        let e = NumericalError::BoundaryNonConvergence {
            iters: 9,
            residual: 1.0,
        }
        .at("gf/electron", 12);
        assert!(matches!(
            e,
            NumericalError::BoundaryNonConvergence { iters: 9, .. }
        ));
    }

    #[test]
    fn finite_check_flags_nan_and_inf() {
        let good = Matrix::identity(2);
        assert!(matrices_finite([&good]));
        let mut bad = Matrix::identity(2);
        bad[(0, 1)] = c64(f64::NAN, 0.0);
        assert!(!matrices_finite([&good, &bad]));
        let mut inf = Matrix::identity(2);
        inf[(1, 0)] = c64(0.0, f64::INFINITY);
        assert!(!matrices_finite([&inf]));
    }

    #[test]
    fn coverage_report_fractions_and_absorb() {
        let mut a = CoverageReport::full(8);
        assert!(a.is_full());
        assert_eq!(a.bad_fraction(), 0.0);
        a.quarantined.push(QuarantinedPoint {
            grid_index: 3,
            error: NumericalError::singular("rgf", 3),
        });
        assert!(!a.is_full());
        assert!((a.bad_fraction() - 0.125).abs() < 1e-15);
        let b = CoverageReport::full(8);
        a.absorb(&b);
        assert_eq!(a.total_points, 16);
        assert!((a.bad_fraction() - 1.0 / 16.0).abs() < 1e-15);
        assert_eq!(CoverageReport::default().bad_fraction(), 0.0);
    }
}
