//! Batch-update coalescing shared by every `apply_batch` entry point.
//!
//! Every layer of the update stack (core [`crate::QueryEngine`], the
//! enumeration index, the sharded engine) accepts whole batches and must
//! agree on the same coalescing rule: **the last update to a
//! `(rel, tuple)` pair wins**, earlier ones are dead. This module holds
//! the one implementation of that rule so the layers cannot drift, plus
//! the hasher it runs on.
//!
//! The hasher is a multiply-rotate hash (the `rustc`/Firefox "FxHash"
//! construction) rather than the standard library's SipHash: coalescing
//! hashes every incoming update, and on hot-key churn workloads the hash
//! itself — not the circuit sweep — dominates the per-update cost.
//! SipHash's DoS hardening buys nothing here because the keys are the
//! caller's own tuples, already bounded by the compiled slot registry.

use crate::engine::TupleUpdate;
use agq_structure::{Elem, RelId};
use std::borrow::Borrow;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for small fixed-shape keys (relation ids and
/// element tuples). Not DoS-resistant; do not use for attacker-chosen
/// keys.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Coalesce a batch per `(rel, tuple)` — the **last** update to a tuple
/// wins — pushing one reference per surviving update into `out` (cleared
/// first). The output is in *reverse* chronological order; callers that
/// care about ordering among distinct tuples (none of the engines do —
/// distinct tuples commute) should not rely on it.
///
/// A stack that coalesces once here feeds the deduplicated slice to the
/// `apply_batch_coalesced` entry points of its layers, so no layer pays
/// for coalescing again.
pub fn coalesce_updates<'a, U: Borrow<TupleUpdate>>(
    updates: &'a [U],
    out: &mut Vec<&'a TupleUpdate>,
) {
    out.clear();
    let mut seen: FxHashSet<(RelId, &[Elem])> =
        FxHashSet::with_capacity_and_hasher(updates.len(), FxBuildHasher::default());
    for u in updates.iter().rev() {
        let u = u.borrow();
        if seen.insert((u.rel, &u.tuple[..])) {
            out.push(u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_update_wins_and_order_is_reverse() {
        let r = RelId(0);
        let ups = vec![
            TupleUpdate::insert(r, &[1, 2]),
            TupleUpdate::insert(r, &[3, 4]),
            TupleUpdate::remove(r, &[1, 2]),
        ];
        let mut out = Vec::new();
        coalesce_updates(&ups, &mut out);
        assert_eq!(out.len(), 2);
        // reverse chronological: the (1,2) removal is the survivor
        assert_eq!(out[0], &ups[2]);
        assert_eq!(out[1], &ups[1]);
    }

    #[test]
    fn borrowed_and_owned_slices_agree() {
        let r = RelId(0);
        let ups = vec![TupleUpdate::insert(r, &[7]), TupleUpdate::remove(r, &[7])];
        let refs: Vec<&TupleUpdate> = ups.iter().collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        coalesce_updates(&ups, &mut a);
        coalesce_updates(&refs, &mut b);
        assert_eq!(a, b);
    }
}
