//! Checkpoint assembly: what gets written at the recovery line, what gets
//! written at commit, and how a line is reloaded (Fig. 5).
//!
//! Sections written at `chkpt_StartCheckpoint` (the recovery line):
//!
//! | section  | contents                                                    |
//! |----------|-------------------------------------------------------------|
//! | `app`    | application state from the pragma's save closure            |
//! | `mpi`    | rank, nranks, received counts (the epoch is the version)    |
//! | `tables` | derived datatypes: handle, definition, freed flag           |
//! | `comms`  | communicators: members, wires, call counters (§4.4)         |
//! | `early`  | the Early-Message-Registry                                  |
//!
//! Written at `chkpt_CommitCheckpoint`:
//!
//! | record   | contents                                                    |
//! |----------|-------------------------------------------------------------|
//! | `late`   | the Late-Message-Registry (replay log) + request table      |
//! | commit   | the store's commit record, the line's durability point      |
//!
//! Each line is one store file per rank ([`statesave::store`]). With
//! `write_disk` off (the paper's configuration #2) the sections are fully
//! assembled and counted but not written.
//!
//! In [`crate::CkptMode::Incremental`] the five line sections go through
//! the context's [`DirtyTracker`] instead, and the line is one `delta`
//! section: the chain's base version (u64 LE) followed by the tracker's
//! [`statesave::Delta`] as it is — chunks addressed by (section index,
//! chunk index), each changed chunk compressed once, no second pass. A
//! restore reads the chain from its base and applies every link in place
//! into one buffer per section ([`Sections::apply`]), which checks every
//! chunk against its hash; the rebuilt sections then move into the
//! tracker, so the next checkpoint continues the chain.

use crate::api::{C3Ctx, C3Error};
use crate::registries::{EarlyRegistry, ReplayLog};
use crate::requests::C3ReqTable;
use crate::Result;
use mpisim::{Datatype, DatatypeHandle, TypeTable};
use statesave::codec::{CodecError, Decoder, Encoder};
use statesave::{DirtyTracker, Sections};

/// The store section holding an incremental line (base or delta). Its
/// presence at a version marks that version as incrementally written; full
/// checkpoints write the five line sections instead.
const DELTA_SECTION: &str = "delta";

/// The five recovery-line sections, in write order. Incremental mode
/// feeds exactly these (as named sections) to the dirty tracker.
const LINE_SECTIONS: [&str; 5] = ["app", "mpi", "tables", "comms", "early"];

/// Per-context incremental-checkpoint state: the chunk-hash tracker plus
/// the chain position, advanced at every `chkpt_StartCheckpoint`.
#[derive(Debug)]
pub(crate) struct IncrCkpt {
    /// Chunk-granular dirty tracking across commits.
    pub tracker: DirtyTracker,
    /// Chain length: a base plus `every_n - 1` deltas.
    pub every_n: u32,
    /// Links written in the current chain (0 = no chain yet; the next
    /// checkpoint is a base).
    pub chain_len: u32,
    /// Version of the current chain's base.
    pub base_version: u64,
}

impl IncrCkpt {
    pub(crate) fn new(every_n: u32) -> Self {
        IncrCkpt {
            tracker: DirtyTracker::new(),
            every_n: every_n.max(1),
            chain_len: 0,
            base_version: 0,
        }
    }
}

fn put(ctx: &mut C3Ctx<'_>, version: u64, name: &str, bytes: &[u8]) -> Result<()> {
    ctx.stats.ckpt_bytes_written += bytes.len() as u64;
    if ctx.cfg.write_disk {
        ctx.store.write_section(version, ctx.rank(), name, bytes).map_err(C3Error::Io)?;
    }
    Ok(())
}

/// [`put`] for recovery-line state: also counted in
/// [`crate::C3Stats::ckpt_line_bytes`], the per-mode volume the recovery
/// benchmarks compare.
fn put_line(ctx: &mut C3Ctx<'_>, version: u64, name: &str, bytes: &[u8]) -> Result<()> {
    ctx.stats.ckpt_line_bytes += bytes.len() as u64;
    put(ctx, version, name, bytes)
}

/// Write the recovery-line sections.
///
/// In [`crate::CkptMode::Full`] each section is its own store record; in
/// incremental mode the sections are fed through the dirty tracker and a
/// single `delta` section (base or delta link) is written instead.
pub(crate) fn write_line_sections(
    ctx: &mut C3Ctx<'_>,
    version: u64,
    app_state: Vec<u8>,
) -> Result<()> {
    let mut mpi_e = Encoder::new();
    mpi_e.u64(ctx.rank() as u64);
    mpi_e.u64(ctx.nranks() as u64);
    ctx.counters.save(&mut mpi_e);
    let mut tables_e = Encoder::new();
    save_types(&ctx.mpi.types, &mut tables_e);
    let mut comms_e = Encoder::new();
    ctx.comms.save(&mut comms_e);
    let mut early_e = Encoder::new();
    ctx.early.save(&mut early_e);

    let encs = [mpi_e, tables_e, comms_e, early_e];
    if ctx.incr.is_some() {
        let mut sections: Vec<(&str, &[u8])> = Vec::with_capacity(LINE_SECTIONS.len());
        sections.push((LINE_SECTIONS[0], &app_state));
        for (name, e) in LINE_SECTIONS[1..].iter().zip(&encs) {
            sections.push((name, e.as_bytes()));
        }
        write_delta_line(ctx, version, &sections)
    } else {
        ctx.stats.ckpt_bases += 1;
        put_line(ctx, version, LINE_SECTIONS[0], &app_state)?;
        for (name, e) in LINE_SECTIONS[1..].iter().zip(&encs) {
            put_line(ctx, version, name, e.as_bytes())?;
        }
        Ok(())
    }
}

/// Write one incremental line: advance the chain (base every `every_n`
/// commits, delta otherwise) and store the tracker's delta as it is, behind
/// its chain's base version, as the single `delta` section.
fn write_delta_line(ctx: &mut C3Ctx<'_>, version: u64, sections: &[(&str, &[u8])]) -> Result<()> {
    let incr = ctx.incr.as_mut().expect("write_delta_line requires incremental mode");
    let is_base = incr.chain_len == 0 || incr.chain_len >= incr.every_n;
    if is_base {
        incr.tracker.reset();
        incr.chain_len = 1;
        incr.base_version = version;
    } else {
        incr.chain_len += 1;
    }
    let base_version = incr.base_version;
    let delta = incr.tracker.checkpoint(sections);
    if is_base {
        ctx.stats.ckpt_bases += 1;
    } else {
        ctx.stats.ckpt_deltas += 1;
    }

    let mut bytes = Vec::with_capacity(8 + delta.as_bytes().len());
    bytes.extend_from_slice(&base_version.to_le_bytes());
    bytes.extend_from_slice(delta.as_bytes());
    put_line(ctx, version, DELTA_SECTION, &bytes)
}

/// Read the `delta` section of one version: (base version of its chain,
/// the section's bytes, whose link starts at offset 8).
fn read_delta(ctx: &C3Ctx<'_>, version: u64) -> Result<(u64, Vec<u8>)> {
    let raw = ctx.store.read_section(version, ctx.rank(), DELTA_SECTION).map_err(C3Error::Io)?;
    let base = Decoder::new(&raw).u64()?;
    Ok((base, raw))
}

/// Rebuild the line sections of `version` by applying its base-plus-delta
/// chain in place, every link validated ([`Sections::apply`]).
///
/// The chain is read from the *committed* store, so a torn tail (death
/// mid-delta-commit) never reaches here: the uncommitted versions were
/// pruned back to the last complete prefix by `restore_or_fresh`. The
/// base checks and per-chunk hash checks are defense in depth against
/// store corruption.
fn restore_delta_sections(ctx: &C3Ctx<'_>, version: u64) -> Result<(u64, Sections)> {
    let (base, last) = read_delta(ctx, version)?;
    if base > version {
        return Err(C3Error::Protocol(format!("delta at line {version} names future base {base}")));
    }
    let mut sections = Sections::default();
    let mut apply = |v: u64, raw: &[u8]| {
        sections.apply(&raw[8..]).map_err(|CodecError(m)| {
            C3Error::Codec(CodecError(format!("line {version}, link v{v}: {m}")))
        })
    };
    for v in base..version {
        let (b, raw) = read_delta(ctx, v)?;
        if b != base {
            return Err(C3Error::Protocol(format!(
                "delta chain broken: version {v} claims base {b}, line {version} claims {base}"
            )));
        }
        apply(v, &raw)?;
    }
    apply(version, &last)?;
    Ok((base, sections))
}

/// Write the commit section and the commit record.
pub(crate) fn write_commit_sections(ctx: &mut C3Ctx<'_>, version: u64) -> Result<()> {
    let mut e = Encoder::new();
    ctx.replay.save(&mut e);
    ctx.reqs.save(ctx.line_next_req, &mut e);
    put(ctx, version, "late", e.as_bytes())?;
    // The torn-commit crash window: the late log is in the file, the commit
    // record is not. A `DuringCommit` fault kills the rank exactly here;
    // recovery must then come from the previous fully committed line.
    ctx.maybe_fail_during_commit()?;
    if ctx.cfg.write_disk {
        ctx.store.mark_committed(version, ctx.rank()).map_err(C3Error::Io)?;
    }
    Ok(())
}

/// Reload the recovery line `version` into a freshly constructed context
/// (`chkpt_RestoreCheckpoint`'s load half).
///
/// The representation is detected from the store, not the config: a
/// version carrying a `delta` section restores through the chain, one
/// carrying the line sections restores directly — so a job may switch
/// [`crate::CkptMode`] across restarts and still recover.
pub(crate) fn restore_line(ctx: &mut C3Ctx<'_>, version: u64) -> Result<()> {
    let rank = ctx.rank();
    ctx.epoch = version;
    if ctx.store.has_section(version, rank, DELTA_SECTION) {
        let (base, sections) = restore_delta_sections(ctx, version)?;
        load_line_sections(ctx, |name| sections.get(name))?;
        // Prime the tracker so the next checkpoint continues the chain.
        if let Some(incr) = ctx.incr.as_mut() {
            incr.tracker.prime(sections);
            incr.chain_len = (version - base + 1) as u32;
            incr.base_version = base;
        }
    } else {
        let mut sections = Vec::with_capacity(LINE_SECTIONS.len());
        for name in LINE_SECTIONS {
            sections.push(ctx.store.read_section(version, rank, name).map_err(C3Error::Io)?);
        }
        load_line_sections(ctx, |name| {
            LINE_SECTIONS.iter().position(|n| *n == name).map(|i| &sections[i][..])
        })?;
    }

    let late = ctx.store.read_section(version, rank, "late").map_err(C3Error::Io)?;
    let mut d = Decoder::new(&late);
    ctx.replay = ReplayLog::load(&mut d)?;
    // Receives are re-posted lazily at completion time (see
    // `C3Ctx::posted` in `protocol.rs`).
    ctx.reqs = C3ReqTable::load(&mut d, version)?;
    Ok(())
}

/// Load the five line sections, found by name through `get`, into the
/// context.
fn load_line_sections<'s>(
    ctx: &mut C3Ctx<'_>,
    get: impl Fn(&str) -> Option<&'s [u8]>,
) -> Result<()> {
    let sec = |name: &str| {
        get(name)
            .ok_or_else(|| C3Error::Protocol(format!("restore: line section '{name}' missing")))
    };

    ctx.restored_app_state = Some(sec("app")?.to_vec());

    let mut d = Decoder::new(sec("mpi")?);
    let saved_rank = d.u64()? as usize;
    let saved_n = d.u64()? as usize;
    if saved_rank != ctx.rank() || saved_n != ctx.nranks() {
        return Err(C3Error::Protocol(format!(
            "checkpoint belongs to rank {saved_rank}/{saved_n}, this job is {}/{}",
            ctx.rank(),
            ctx.nranks()
        )));
    }
    ctx.counters = crate::counters::Counters::load(&mut d)?;

    load_types(&mut Decoder::new(sec("tables")?), &mut ctx.mpi.types)?;
    ctx.comms = crate::comms::CommTable::load(&mut Decoder::new(sec("comms")?))?;
    ctx.early = EarlyRegistry::load(&mut Decoder::new(sec("early")?))?;
    Ok(())
}

/// Write the `tables` section (§4.2, Fig. 5): every retained derived type
/// of the substrate's table, in ascending handle order, as handle,
/// definition and freed flag. Definitions use discriminants 0–3 in
/// [`Datatype`]'s variant order after `Basic`, which is never derived.
fn save_types(types: &TypeTable, e: &mut Encoder) {
    let derived: Vec<_> = types.derived().collect();
    e.u64(derived.len() as u64);
    for (h, dt, freed) in derived {
        e.u32(h.0);
        match dt {
            Datatype::Basic(_) => unreachable!("basic datatypes are predefined"),
            Datatype::Contiguous { count, child } => {
                e.u8(0);
                e.usize(*count);
                e.u32(child.0);
            }
            Datatype::Vector { count, blocklen, stride, child } => {
                e.u8(1);
                e.usize(*count);
                e.usize(*blocklen);
                e.usize(*stride);
                e.u32(child.0);
            }
            Datatype::Indexed { blocks, child } => {
                e.u8(2);
                e.save(blocks);
                e.u32(child.0);
            }
            Datatype::Struct { fields, extent } => {
                e.u8(3);
                e.u64(fields.len() as u64);
                for (off, count, child) in fields {
                    e.usize(*off);
                    e.usize(*count);
                    e.u32(child.0);
                }
                e.usize(*extent);
            }
        }
        e.bool(freed);
    }
}

/// Reload a `tables` section into a fresh substrate table: commit every
/// entry at its handle (children precede parents), then free the freed
/// ones again, each still referenced by a retained parent.
fn load_types(d: &mut Decoder<'_>, types: &mut TypeTable) -> Result<()> {
    let rebuild = |e: mpisim::MpiError| CodecError(format!("datatype rebuild failed: {e}"));
    let n = d.u64()?;
    let mut freed = Vec::new();
    for _ in 0..n {
        let h = DatatypeHandle(d.u32()?);
        let dt = match d.u8()? {
            0 => Datatype::Contiguous { count: d.usize()?, child: DatatypeHandle(d.u32()?) },
            1 => Datatype::Vector {
                count: d.usize()?,
                blocklen: d.usize()?,
                stride: d.usize()?,
                child: DatatypeHandle(d.u32()?),
            },
            2 => Datatype::Indexed { blocks: d.load()?, child: DatatypeHandle(d.u32()?) },
            3 => {
                let nfields = d.u64()?;
                let mut fields = Vec::new();
                for _ in 0..nfields {
                    fields.push((d.usize()?, d.usize()?, DatatypeHandle(d.u32()?)));
                }
                Datatype::Struct { fields, extent: d.usize()? }
            }
            k => return Err(CodecError(format!("bad datatype discriminant {k}")).into()),
        };
        if d.bool()? {
            freed.push(h);
        }
        types.commit_at(h, dt).map_err(rebuild)?;
    }
    for h in freed {
        types.free(h).map_err(rebuild)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::DT_F64;

    #[test]
    fn tables_section_recreates_handles_and_frees_again() {
        let mut t = TypeTable::new();
        let inner = t.commit(Datatype::Contiguous { count: 4, child: DT_F64 }).unwrap();
        let outer = t.commit(Datatype::Struct { fields: vec![(0, 1, inner)], extent: 40 }).unwrap();
        t.free(inner).unwrap();
        let mut e = Encoder::new();
        save_types(&t, &mut e);

        let mut t2 = TypeTable::new();
        load_types(&mut Decoder::new(e.as_bytes()), &mut t2).unwrap();
        // Same handles, same layouts; the freed intermediate is freed again.
        assert_eq!(t2.derived().count(), 2);
        assert!(t2.get(inner).is_err());
        assert_eq!(t2.type_size(outer).unwrap(), 32);
        let again: Vec<_> = t2.derived().collect();
        assert_eq!(again, t.derived().collect::<Vec<_>>());
    }
}
