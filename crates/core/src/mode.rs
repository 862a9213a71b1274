//! Process modes — the state machine of Figure 3.

/// The four protocol states a process moves through.
///
/// ```text
///            Checkpoint condition              all nodes started ckpt
///   Run ───────────────────────► NonDet-Log ─────────────────────► RecvOnly-Log
///    ▲  ◄──────── received all late messages ──────────────────────────┘
///    │
///    └──────── LateRegistry and WasEarlyRegistry empty ──────── Restore
///                                                          (restart entry)
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Mode {
    /// Normal execution.
    Run,
    /// Between the local checkpoint and learning that every process has
    /// started its checkpoint: log late messages *and* non-deterministic
    /// events (wild-card receives, test outcomes).
    NonDetLog,
    /// Every process has started; only late messages remain to be logged.
    RecvOnlyLog,
    /// Recovering from a checkpoint: replay logs, suppress early re-sends.
    Restore,
}

impl Mode {
    /// Is this one of the two logging modes?
    #[inline]
    pub fn is_logging(self) -> bool {
        matches!(self, Mode::NonDetLog | Mode::RecvOnlyLog)
    }

    /// Is the process still logging *non-deterministic events*? (The
    /// piggybacked "logging" bit, §3.2 question 2.)
    #[inline]
    pub fn nondet_logging(self) -> bool {
        self == Mode::NonDetLog
    }

    /// Is `self -> next` a legal transition of Figure 3? (Restore is
    /// entered by construction, not by a transition: see
    /// [`crate::machine::Protocol::restore`].)
    pub fn can_transition(self, next: Mode) -> bool {
        use Mode::*;
        matches!(
            (self, next),
            // Take a checkpoint.
            (Run, NonDetLog)
            // Everyone started; stop logging nondeterminism.
            | (NonDetLog, RecvOnlyLog)
            // All late messages received; commit.
            | (RecvOnlyLog, Run)
            // Degenerate commit: all CI present and no late expected at
            // checkpoint time (pragma pseudocode fast paths).
            | (NonDetLog, Run)
            // Recovery completes.
            | (Restore, Run)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_cycle() {
        assert!(Mode::Run.can_transition(Mode::NonDetLog));
        assert!(Mode::NonDetLog.can_transition(Mode::RecvOnlyLog));
        assert!(Mode::RecvOnlyLog.can_transition(Mode::Run));
        assert!(Mode::Restore.can_transition(Mode::Run));
        assert!(Mode::NonDetLog.can_transition(Mode::Run));
    }

    #[test]
    fn illegal_transitions() {
        assert!(!Mode::Run.can_transition(Mode::RecvOnlyLog));
        assert!(!Mode::Run.can_transition(Mode::Restore));
        assert!(!Mode::RecvOnlyLog.can_transition(Mode::NonDetLog));
        assert!(!Mode::Restore.can_transition(Mode::NonDetLog));
        assert!(!Mode::RecvOnlyLog.can_transition(Mode::Restore));
    }

    #[test]
    fn logging_predicates() {
        assert!(Mode::NonDetLog.is_logging());
        assert!(Mode::RecvOnlyLog.is_logging());
        assert!(!Mode::Run.is_logging());
        assert!(Mode::NonDetLog.nondet_logging());
        assert!(!Mode::RecvOnlyLog.nondet_logging());
    }
}
