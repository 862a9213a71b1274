//! Verification support: reference results and tolerance comparison.
//!
//! The reproduction's core correctness invariant (`docs/ARCHITECTURE.md`
//! §5) is that a
//! run which fails and recovers from a checkpoint produces *the same result*
//! as a failure-free run. This module computes the failure-free reference on
//! the raw substrate backend (no C³ layer at all, so the reference cannot be
//! contaminated by protocol bugs) and provides the comparison predicate the
//! integration tests and table harnesses share.

use crate::{Class, Kernel};
use mpisim::{JobSpec, MpiError};

/// Relative tolerance for result comparison.
///
/// Kernels are deterministic and the C³ layer must not perturb arithmetic at
/// all, so equality should in fact be *bitwise*; the tolerance only absorbs
/// the reduction-order freedom the substrate's tree reductions are allowed
/// (they are rank-ordered and deterministic, so in practice `a == b`).
pub const REL_TOL: f64 = 1e-12;

/// Do two results agree within [`REL_TOL`]?
pub fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-300);
    (a - b).abs() <= REL_TOL * scale
}

/// Failure-free reference result for `kernel` at `class` on `p` ranks,
/// computed on the raw backend (no C³ layer).
pub fn reference(kernel: Kernel, class: Class, p: usize) -> Result<f64, MpiError> {
    let out = mpisim::launch(&JobSpec::new(p), move |ctx| kernel.run(ctx, class))
        .map_err(|e| MpiError::Internal(e.to_string()))?;
    let r0 = out.results[0];
    debug_assert!(
        out.results.iter().all(|r| *r == r0),
        "{} returned rank-divergent results",
        kernel.name()
    );
    Ok(r0)
}

/// Golden class-S uniprocessor reference values, pinned so that an
/// accidental change to any kernel's arithmetic (or to the substrate's
/// reduction order) is caught immediately. Regenerate by printing
/// [`reference()`]`(k, Class::S, 1)` for every kernel.
pub const GOLDEN_CLASS_S: [(Kernel, f64); 10] = [
    (Kernel::CG, 1.457_210_919_955_356_5),
    (Kernel::LU, 0.884_941_570_751_822_6),
    (Kernel::SP, 0.475_338_980_440_651_76),
    (Kernel::BT, 0.110_230_275_996_988_41),
    (Kernel::MG, 2.996_481_759_236_648e-6),
    (Kernel::FT, 11.404_393_120_652_905),
    (Kernel::IS, 3_594_221_879_595_004.0),
    (Kernel::EP, 10_482.789_593_579_2),
    (Kernel::SMG, 0.017_479_742_285_698_492),
    (Kernel::HPL, 0.148_720_500_905_837_74),
];

/// A verification outcome for reporting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Result matches the reference.
    Pass,
    /// Result differs beyond tolerance.
    Fail {
        /// The reference value.
        expected: f64,
        /// The observed value.
        got: f64,
    },
}

impl Verdict {
    /// Compare an observed result against the failure-free reference.
    pub fn check(expected: f64, got: f64) -> Verdict {
        if close(expected, got) {
            Verdict::Pass
        } else {
            Verdict::Fail { expected, got }
        }
    }

    /// Did verification pass?
    pub fn passed(self) -> bool {
        matches!(self, Verdict::Pass)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => write!(f, "VERIFIED"),
            Verdict::Fail { expected, got } => {
                write!(f, "FAILED (expected {expected:.12e}, got {got:.12e})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_accepts_identical_and_rejects_different() {
        assert!(close(1.0, 1.0));
        assert!(close(0.0, 0.0));
        assert!(close(1e300, 1e300));
        assert!(!close(1.0, 1.0 + 1e-6));
        assert!(!close(1.0, -1.0));
    }

    #[test]
    fn verdict_formats() {
        assert!(Verdict::check(2.5, 2.5).passed());
        let v = Verdict::check(1.0, 2.0);
        assert!(!v.passed());
        assert!(format!("{v}").contains("FAILED"));
    }

    /// Every kernel is rank-count independent at class S: the reference on
    /// one rank equals the reference on four. This is the determinism
    /// foundation the recovery tests rely on.
    #[test]
    fn references_are_rank_count_independent() {
        for k in Kernel::ALL {
            let r1 = reference(k, Class::S, 1).unwrap();
            let r4 = reference(k, Class::S, 4).unwrap();
            let scale = r1.abs().max(1e-12);
            assert!(
                (r1 - r4).abs() <= 1e-8 * scale,
                "{}: p=1 gives {r1}, p=4 gives {r4}",
                k.name()
            );
        }
    }

    /// Every kernel reproduces its pinned golden value exactly (bitwise,
    /// since the serial runs have a fixed arithmetic order).
    #[test]
    fn golden_class_s_values_hold() {
        for (k, want) in GOLDEN_CLASS_S {
            let got = reference(k, Class::S, 1).unwrap();
            assert_eq!(got, want, "{} drifted from its golden value", k.name());
        }
    }

    /// Back-to-back runs are bitwise deterministic.
    #[test]
    fn references_are_deterministic() {
        for k in [Kernel::CG, Kernel::FT, Kernel::IS] {
            let a = reference(k, Class::S, 2).unwrap();
            let b = reference(k, Class::S, 2).unwrap();
            assert_eq!(a, b, "{} not deterministic", k.name());
        }
    }
}
