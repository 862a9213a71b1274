//! Piggybacked message metadata — three bits per message (§3.2).
//!
//! Because a message can cross at most one recovery line, the full epoch
//! number never needs to travel: "if we imagine that epochs are colored red,
//! green, and blue successively... the integer Epoch can be replaced by
//! Epoch-color, which can be encoded in two bits. Furthermore, a single
//! piggybacked bit is adequate to encode whether the sender of a message has
//! stopped logging non-deterministic events. Therefore, it is sufficient to
//! piggyback three bits on each outgoing message."
//!
//! This module is deliberately separate from the protocol ("the new
//! implementation separates the implementation of piggybacking from the rest
//! of the protocol", §4.5): the protocol talks in terms of [`PigData`] and
//! [`MsgClass`]; how those are squeezed onto the wire is encapsulated here.

use crate::mode::Mode;

/// Logical piggyback content: the sender's epoch and whether it is still
/// logging non-deterministic events.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PigData {
    /// Sender's epoch number at send time.
    pub epoch: u64,
    /// True while the sender is in `NonDet-Log` (§3.2 question 2: "has the
    /// sending process stopped logging? No, if the piggybacked mode is
    /// NonDet-Log, and yes otherwise").
    pub logging: bool,
}

impl PigData {
    /// The piggyback for a process currently in `mode` and `epoch`.
    pub fn of(epoch: u64, mode: Mode) -> Self {
        PigData { epoch, logging: mode.nondet_logging() }
    }
}

/// Message classification relative to the receiver's epoch (Definition 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgClass {
    /// Sender's epoch < receiver's epoch: crossed the line forward; must be
    /// logged and replayed.
    Late,
    /// Same epoch.
    IntraEpoch,
    /// Sender's epoch > receiver's epoch: crossed the line backward; must be
    /// suppressed on recovery.
    Early,
}

/// Encode the three protocol bits into a wire byte:
/// bits 0–1 = epoch mod 3 (the color), bit 2 = logging.
#[inline]
pub fn encode(pig: PigData) -> u8 {
    ((pig.epoch % 3) as u8) | ((pig.logging as u8) << 2)
}

/// Decode a wire byte into (epoch color, logging bit).
#[inline]
pub fn decode(byte: u8) -> (u8, bool) {
    (byte & 0b11, byte & 0b100 != 0)
}

/// Classify a message from its sender's epoch *color* and the receiver's
/// epoch. Sound because epochs of sender and receiver can differ by at most
/// one (a message crosses at most one recovery line).
#[inline]
pub fn classify(receiver_epoch: u64, sender_color: u8) -> MsgClass {
    let rc = (receiver_epoch % 3) as u8;
    match (sender_color + 3 - rc) % 3 {
        0 => MsgClass::IntraEpoch,
        1 => MsgClass::Early,
        2 => MsgClass::Late,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_bits_only() {
        for e in 0..9u64 {
            for l in [false, true] {
                assert!(encode(PigData { epoch: e, logging: l }) < 8);
            }
        }
    }

    #[test]
    fn classification_matches_definition_one() {
        for re in 0..12u64 {
            // Sender one behind: late.
            if re > 0 {
                let c = ((re - 1) % 3) as u8;
                assert_eq!(classify(re, c), MsgClass::Late);
            }
            // Same epoch: intra.
            let c = (re % 3) as u8;
            assert_eq!(classify(re, c), MsgClass::IntraEpoch);
            // Sender one ahead: early.
            let c = ((re + 1) % 3) as u8;
            assert_eq!(classify(re, c), MsgClass::Early);
        }
    }

    #[test]
    fn logging_bit_roundtrip() {
        let p = PigData { epoch: 7, logging: true };
        let (c, l) = decode(encode(p));
        assert_eq!(c, 1); // 7 % 3
        assert!(l);
        let p2 = PigData { epoch: 7, logging: false };
        let (_, l2) = decode(encode(p2));
        assert!(!l2);
    }

    #[test]
    fn of_mode_maps_logging_bit() {
        assert!(PigData::of(1, Mode::NonDetLog).logging);
        assert!(!PigData::of(1, Mode::RecvOnlyLog).logging);
        assert!(!PigData::of(1, Mode::Run).logging);
        assert!(!PigData::of(1, Mode::Restore).logging);
    }
}
