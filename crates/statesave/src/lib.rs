//! # statesave — application-level state saving for the C³ reproduction
//!
//! The paper's C³ precompiler instruments C programs so that they maintain a
//! description of their own state and can write it to a checkpoint file and
//! rebuild it on restart (§5). This crate is the runtime side of that
//! mechanism, with the precompiler replaced by the checkpoint pragma's
//! encoder: the application writes its state with [`codec::Encoder`] and
//! reads it back with [`codec::Decoder`] (`docs/ARCHITECTURE.md` §4):
//!
//! * [`codec`] — a self-describing binary format ("C³ saves all data as
//!   binary, irrespective of the data's type") with a [`codec::Saveable`]
//!   trait applications implement for their state structs;
//! * [`store`] — the checkpoint store: one append-only file per (version,
//!   rank) in a flat root, each section a length-prefixed record. A section
//!   write waits for no sync but starts the file's writeback; a commit
//!   syncs the file's data, appends a commit record, syncs the data again
//!   and syncs the root directory once.
//!   A file without a complete trailing commit record is a torn line, and a
//!   section written to a committed or torn file starts it afresh. This
//!   supports the protocol's two-phase save (state at the recovery line,
//!   late-message log and commit record at commit);
//! * [`incremental`] — incremental checkpointing (listed as ongoing work in
//!   §5/§8 of the paper; implemented here as an extension).

#![warn(missing_docs)]

pub mod codec;
pub mod incremental;
pub mod store;

pub use codec::{Decoder, Encoder, Saveable};
pub use incremental::{Delta, DirtyTracker, IncrementalSaver, Sections, DEFAULT_CHUNK_SIZE};
pub use store::{CkptStore, TempStore};
