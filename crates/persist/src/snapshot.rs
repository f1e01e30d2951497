//! State snapshots: the **mutable** half of an engine — committed gate
//! values, slot inputs, and the enumeration machine's provenance
//! supports — captured per shard at a point-in-time LSN.
//!
//! A snapshot is only meaningful against the plan it was taken under
//! (same circuits, same slot registries); the file layer stamps both
//! artifacts with the carrier tag, and the load path re-validates every
//! length against the plan before reconstructing evaluators.
//!
//! The dump of a [`ShardedEngine`](agq_enumerate::ShardedEngine) also
//! carries the Gaifman component decomposition (element → component →
//! shard tables), so the restored engine routes identically — a
//! snapshot taken on one box restores onto another with the same shard
//! assignment.

use crate::codec::{ByteReader, ByteWriter};
use crate::error::PersistError;
use crate::value::{read_values, write_values, PersistValue};
use agq_enumerate::{InputVal, MachineStateDump, ShardStateDump};
use agq_semiring::Gen;
use agq_structure::gaifman::GaifmanComponents;

/// Snapshot body: sharded (`kind` 1), the only kind the engine writes.
/// The format also defines an unsharded `kind` 0 with exactly one state
/// and no routing tables; it still parses, and the engine loaders reject
/// it as [`PersistError::Corrupt`].
pub struct SnapshotBundle<S> {
    /// LSN the states are current through.
    pub last_lsn: u64,
    /// Sharding metadata — `None` for a `kind` 0 snapshot.
    pub sharding: Option<ShardingMeta>,
    /// One state dump per shard (exactly one for `kind` 0).
    pub shards: Vec<ShardStateDump<S>>,
}

/// The routing tables of a sharded engine.
pub struct ShardingMeta {
    /// The component decomposition (element → component → shard).
    pub components: GaifmanComponents,
    /// Whether φ passed the component-locality check.
    pub component_local: bool,
}

fn write_input_val(w: &mut ByteWriter, iv: &InputVal) {
    w.len_prefix(iv.len());
    for gens in iv {
        w.len_prefix(gens.len());
        for g in gens {
            w.u64(g.0);
        }
    }
}

fn read_input_val(r: &mut ByteReader) -> Result<InputVal, PersistError> {
    let n = r.len_prefix(8)?;
    let mut iv = Vec::with_capacity(n);
    for _ in 0..n {
        let m = r.len_prefix(8)?;
        let mut gens = Vec::with_capacity(m);
        for _ in 0..m {
            gens.push(Gen(r.u64()?));
        }
        iv.push(gens);
    }
    Ok(iv)
}

fn write_u32s(w: &mut ByteWriter, vs: &[u32]) {
    w.len_prefix(vs.len());
    for &v in vs {
        w.u32(v);
    }
}

fn read_u32s(r: &mut ByteReader) -> Result<Vec<u32>, PersistError> {
    let n = r.len_prefix(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u32()?);
    }
    Ok(out)
}

fn write_machine(w: &mut ByteWriter, m: &MachineStateDump) {
    w.len_prefix(m.input_vals.len());
    for iv in &m.input_vals {
        write_input_val(w, iv);
    }
    w.len_prefix(m.support.len());
    for &b in &m.support {
        w.u8(b as u8);
    }
    write_u32s(w, &m.add_len);
    write_u32s(w, &m.add_nz);
    write_u32s(w, &m.add_where);
    write_u32s(w, &m.perm_mask);
    write_u32s(w, &m.perm_next);
    write_u32s(w, &m.perm_prev);
    write_u32s(w, &m.perm_heads);
    write_u32s(w, &m.perm_tails);
    w.len_prefix(m.perm_counts.len());
    for &c in &m.perm_counts {
        w.i64(c);
    }
}

fn read_machine(r: &mut ByteReader) -> Result<MachineStateDump, PersistError> {
    let n = r.len_prefix(8)?;
    let mut input_vals = Vec::with_capacity(n);
    for _ in 0..n {
        input_vals.push(read_input_val(r)?);
    }
    let n_sup = r.len_prefix(1)?;
    let mut support = Vec::with_capacity(n_sup);
    for _ in 0..n_sup {
        support.push(match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Corrupt("support byte is neither 0 nor 1")),
        });
    }
    let add_len = read_u32s(r)?;
    let add_nz = read_u32s(r)?;
    let add_where = read_u32s(r)?;
    let perm_mask = read_u32s(r)?;
    let perm_next = read_u32s(r)?;
    let perm_prev = read_u32s(r)?;
    let perm_heads = read_u32s(r)?;
    let perm_tails = read_u32s(r)?;
    let n_counts = r.len_prefix(8)?;
    let mut perm_counts = Vec::with_capacity(n_counts);
    for _ in 0..n_counts {
        perm_counts.push(r.i64()?);
    }
    Ok(MachineStateDump {
        input_vals,
        support,
        add_len,
        add_nz,
        add_where,
        perm_mask,
        perm_next,
        perm_prev,
        perm_heads,
        perm_tails,
        perm_counts,
    })
}

fn write_shard<S: PersistValue>(w: &mut ByteWriter, dump: &ShardStateDump<S>) {
    write_values(w, &dump.slot_values);
    write_values(w, &dump.gate_values);
    write_machine(w, &dump.machine);
}

fn read_shard<S: PersistValue>(r: &mut ByteReader) -> Result<ShardStateDump<S>, PersistError> {
    let slot_values = read_values(r)?;
    let gate_values = read_values(r)?;
    let machine = read_machine(r)?;
    Ok(ShardStateDump {
        slot_values,
        gate_values,
        machine,
    })
}

/// Serialize a snapshot bundle into `.agqsnap` body bytes (header and
/// checksum trailer are added by the file layer in `engine_io`).
pub fn write_snapshot<S: PersistValue>(bundle: &SnapshotBundle<S>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(bundle.last_lsn);
    match &bundle.sharding {
        None => w.u8(0),
        Some(meta) => {
            w.u8(1);
            w.u8(meta.component_local as u8);
            let (comp, comp_shard) = meta.components.parts();
            w.u64(meta.components.num_shards() as u64);
            w.len_prefix(comp.len());
            for &c in comp {
                w.u32(c);
            }
            w.len_prefix(comp_shard.len());
            for &s in comp_shard {
                w.u32(s);
            }
        }
    }
    w.len_prefix(bundle.shards.len());
    for dump in &bundle.shards {
        write_shard(&mut w, dump);
    }
    w.into_bytes()
}

/// Parse a snapshot bundle back out of `.agqsnap` body bytes.
pub fn read_snapshot<S: PersistValue>(body: &[u8]) -> Result<SnapshotBundle<S>, PersistError> {
    let mut r = ByteReader::new(body);
    let last_lsn = r.u64()?;
    let sharding = match r.u8()? {
        0 => None,
        1 => {
            let component_local = match r.u8()? {
                0 => false,
                1 => true,
                _ => {
                    return Err(PersistError::Corrupt(
                        "component-local flag is neither 0 nor 1",
                    ))
                }
            };
            let num_shards = r.u64()? as usize;
            let n_comp = r.len_prefix(4)?;
            let mut comp = Vec::with_capacity(n_comp);
            for _ in 0..n_comp {
                comp.push(r.u32()?);
            }
            let n_cs = r.len_prefix(4)?;
            let mut comp_shard = Vec::with_capacity(n_cs);
            for _ in 0..n_cs {
                comp_shard.push(r.u32()?);
            }
            let components = GaifmanComponents::from_parts(comp, comp_shard, num_shards)
                .map_err(PersistError::Corrupt)?;
            Some(ShardingMeta {
                components,
                component_local,
            })
        }
        _ => return Err(PersistError::Corrupt("unknown snapshot kind")),
    };
    let n_shards = r.len_prefix(8)?;
    if let Some(meta) = &sharding {
        if n_shards != meta.components.num_shards() {
            return Err(PersistError::Corrupt(
                "shard count disagrees with the component decomposition",
            ));
        }
    } else if n_shards != 1 {
        return Err(PersistError::Corrupt(
            "unsharded snapshot must hold exactly one state",
        ));
    }
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        shards.push(read_shard(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(PersistError::Corrupt("trailing bytes after snapshot"));
    }
    Ok(SnapshotBundle {
        last_lsn,
        sharding,
        shards,
    })
}
