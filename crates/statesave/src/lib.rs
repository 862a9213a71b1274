//! # statesave — application-level state saving for the C³ reproduction
//!
//! The paper's C³ precompiler instruments C programs so that they maintain a
//! description of their own state (variables in scope, heap objects) and can
//! write it to a checkpoint file and rebuild it on restart (§5). This crate
//! is the runtime side of that mechanism, with the precompiler replaced by
//! explicit registration (`docs/ARCHITECTURE.md` §4):
//!
//! * [`codec`] — a self-describing binary format ("C³ saves all data as
//!   binary, irrespective of the data's type") with a [`codec::Saveable`]
//!   trait applications implement for their state structs;
//! * [`registry`] — a variable-description registry, the stand-in for the
//!   precompiler's scope tracking;
//! * [`memmgr`] — a checkpointable heap with stable object identifiers, the
//!   stand-in for C³'s own memory manager that restores objects to their
//!   original addresses;
//! * [`store`] — versioned per-rank checkpoint directories with commit
//!   markers, supporting the protocol's two-phase save (state at the
//!   recovery line, late-message log at commit);
//! * [`slc`] — a Condor-style *system-level* checkpointing baseline that
//!   dumps the whole (simulated) process image, used for the paper's
//!   Table 1 comparison;
//! * [`incremental`] — incremental checkpointing (listed as ongoing work in
//!   §5/§8 of the paper; implemented here as an extension).

#![warn(missing_docs)]

pub mod codec;
pub mod incremental;
pub mod memmgr;
pub mod registry;
pub mod slc;
pub mod store;

pub use codec::{Decoder, Encoder, Saveable};
pub use incremental::{
    plane_compress, plane_decompress, rle_compress, rle_decompress, Delta, DirtyTracker,
    IncrementalSaver, DEFAULT_CHUNK_SIZE,
};
pub use memmgr::{CkptHeap, ObjId};
pub use registry::{TypeCode, VarDesc, VariableRegistry};
pub use slc::SlcCheckpointer;
pub use store::{CkptStore, TempStore};
