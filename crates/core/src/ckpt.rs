//! Checkpoint assembly: what gets written at the recovery line, what gets
//! written at commit, and how a line is reloaded (Fig. 5).
//!
//! Sections written at `chkpt_StartCheckpoint` (the recovery line):
//!
//! | section  | contents                                                    |
//! |----------|-------------------------------------------------------------|
//! | `app`    | application state from the pragma's save closure            |
//! | `mpi`    | rank, nranks, epoch, message counters                       |
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

use crate::api::{C3Ctx, C3Error};
use crate::registries::{EarlyRegistry, ReplayLog};
use crate::requests::C3ReqTable;
use crate::Result;
use mpisim::{Datatype, DatatypeHandle, TypeTable};
use statesave::codec::{CodecError, Decoder, Encoder};
use statesave::incremental::Delta;
use statesave::{DirtyTracker, IncrementalSaver};
use std::collections::BTreeMap;

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
    mpi_e.u64(ctx.epoch);
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
/// commits, delta otherwise), encode the [`Delta`], plane-compress it, and
/// store it behind its chain's base version as the single `delta` section.
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

    let mut body = Encoder::new();
    delta.save(&mut body);
    let mut packed = Vec::new();
    statesave::plane_compress(body.as_bytes(), &mut packed);
    let mut e = Encoder::new();
    e.u64(base_version);
    e.bytes(&packed);
    ctx.stats.ckpt_line_bytes += e.as_bytes().len() as u64;
    put(ctx, version, DELTA_SECTION, e.as_bytes())
}

/// Read and decode the `delta` section of one version: (base version of
/// its chain, the delta itself).
fn read_delta(ctx: &C3Ctx<'_>, version: u64) -> Result<(u64, Delta)> {
    let rank = ctx.mpi.rank();
    let raw = ctx.store.read_section(version, rank, DELTA_SECTION).map_err(C3Error::Io)?;
    let mut d = Decoder::new(&raw);
    let base = d.u64()?;
    let bytes = statesave::plane_decompress(&d.bytes()?)?;
    let delta = Delta::load(&mut Decoder::new(&bytes))?;
    Ok((base, delta))
}

/// Rebuild the line sections of `version` from its base-plus-delta chain,
/// validating every link, and prime the context's dirty tracker so the
/// next checkpoint diffs against the restored state.
///
/// The chain is read from the *committed* store, so a torn tail (death
/// mid-delta-commit) never reaches here: the uncommitted versions were
/// pruned back to the last complete prefix by `restore_or_fresh`. Hash
/// validation below is defense in depth against store corruption.
fn restore_delta_sections(ctx: &mut C3Ctx<'_>, version: u64) -> Result<BTreeMap<String, Vec<u8>>> {
    let (base, last) = read_delta(ctx, version)?;
    if base > version {
        return Err(C3Error::Protocol(format!("delta at line {version} names future base {base}")));
    }
    let mut chain = Vec::with_capacity((version - base + 1) as usize);
    for v in base..version {
        let (b, d) = read_delta(ctx, v)?;
        if b != base {
            return Err(C3Error::Protocol(format!(
                "delta chain broken: version {v} claims base {b}, line {version} claims {base}"
            )));
        }
        chain.push(d);
    }
    chain.push(last);
    let chunks = IncrementalSaver::reconstruct(&chain).map_err(C3Error::Codec)?;
    if let Some(incr) = ctx.incr.as_mut() {
        incr.tracker.prime(&chunks);
        incr.chain_len = (version - base + 1) as u32;
        incr.base_version = base;
    }
    DirtyTracker::assemble(&chunks).map_err(C3Error::Codec)
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

    let mut sections: BTreeMap<String, Vec<u8>> =
        if ctx.store.has_section(version, rank, DELTA_SECTION) {
            restore_delta_sections(ctx, version)?
        } else {
            let mut m = BTreeMap::new();
            for name in LINE_SECTIONS {
                m.insert(
                    name.to_string(),
                    ctx.store.read_section(version, rank, name).map_err(C3Error::Io)?,
                );
            }
            m
        };
    let mut sec = |name: &str| -> Result<Vec<u8>> {
        sections
            .remove(name)
            .ok_or_else(|| C3Error::Protocol(format!("restore: line section '{name}' missing")))
    };

    ctx.restored_app_state = Some(sec("app")?);

    let mpi = sec("mpi")?;
    let mut d = Decoder::new(&mpi);
    let saved_rank = d.u64()? as usize;
    let saved_n = d.u64()? as usize;
    if saved_rank != rank || saved_n != ctx.nranks() {
        return Err(C3Error::Protocol(format!(
            "checkpoint belongs to rank {saved_rank}/{saved_n}, this job is {rank}/{}",
            ctx.nranks()
        )));
    }
    ctx.epoch = d.u64()?;
    ctx.counters = crate::counters::Counters::load(&mut d)?;

    let tables = sec("tables")?;
    load_types(&mut Decoder::new(&tables), &mut ctx.mpi.types)?;

    let comms = sec("comms")?;
    ctx.comms = crate::comms::CommTable::load(&mut Decoder::new(&comms))?;

    let early = sec("early")?;
    ctx.early = EarlyRegistry::load(&mut Decoder::new(&early))?;

    let late = ctx.store.read_section(version, rank, "late").map_err(C3Error::Io)?;
    let mut d = Decoder::new(&late);
    ctx.replay = ReplayLog::load(&mut d)?;
    // Receives are re-posted lazily at completion time (see
    // `C3Ctx::posted` in `protocol.rs`).
    ctx.reqs = C3ReqTable::load(&mut d, ctx.epoch)?;

    debug_assert_eq!(ctx.epoch, version, "checkpoint version equals its epoch");
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
