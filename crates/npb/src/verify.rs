//! Verification support: failure-free reference results.
//!
//! The reproduction's core correctness invariant (`docs/ARCHITECTURE.md`
//! §5) is that a run which fails and recovers from a checkpoint produces
//! *the same result* as a failure-free run. This module computes the
//! failure-free reference on the raw substrate backend (no C³ layer at all,
//! so the reference cannot be contaminated by protocol bugs) and pins the
//! class-S references of every kernel in [`GOLDEN_CLASS_S`].

use crate::Kernel;
use mpisim::{JobSpec, MpiError};

/// Failure-free reference result for `kernel` on `p` ranks, computed on
/// the raw backend (no C³ layer).
pub fn reference(kernel: Kernel, p: usize) -> Result<f64, MpiError> {
    let out = mpisim::launch(&JobSpec::new(p), move |ctx| kernel.run(ctx))
        .map_err(|e| MpiError::Internal(e.to_string()))?;
    let r0 = out.results[0];
    debug_assert!(
        out.results.iter().all(|r| *r == r0),
        "{} returned rank-divergent results",
        kernel.name()
    );
    Ok(r0)
}

/// Golden uniprocessor reference values of [`Kernel::CLASS_S`], in its
/// order, pinned so that an accidental change to any kernel's arithmetic
/// (or to the substrate's reduction order) is caught immediately.
/// Regenerate by printing [`reference()`]`(k, 1)` for every class-S kernel.
pub const GOLDEN_CLASS_S: [f64; 10] = [
    1.457_210_919_955_356_5,   // CG
    0.884_941_570_751_822_6,   // LU
    0.475_338_980_440_651_76,  // SP
    0.110_230_275_996_988_41,  // BT
    2.996_481_759_236_648e-6,  // MG
    11.404_393_120_652_905,    // FT
    3_594_221_879_595_004.0,   // IS
    10_482.789_593_579_2,      // EP
    0.017_479_742_285_698_492, // SMG2000
    0.148_720_500_905_837_74,  // HPL
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kernel is rank-count independent at class S: the reference on
    /// one rank equals the reference on four. This is the determinism
    /// foundation the recovery tests rely on.
    #[test]
    fn references_are_rank_count_independent() {
        for k in Kernel::CLASS_S {
            let r1 = reference(k, 1).unwrap();
            let r4 = reference(k, 4).unwrap();
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
        for (k, want) in Kernel::CLASS_S.into_iter().zip(GOLDEN_CLASS_S) {
            let got = reference(k, 1).unwrap();
            assert_eq!(got, want, "{} drifted from its golden value", k.name());
        }
    }

    /// Back-to-back runs are bitwise deterministic.
    #[test]
    fn references_are_deterministic() {
        for k in Kernel::CLASS_S {
            if matches!(k, Kernel::Cg(_) | Kernel::Ft(_) | Kernel::Is(_)) {
                let a = reference(k, 2).unwrap();
                let b = reference(k, 2).unwrap();
                assert_eq!(a, b, "{} not deterministic", k.name());
            }
        }
    }
}
