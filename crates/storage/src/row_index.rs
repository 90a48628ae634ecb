//! A set index over rows that stores positions instead of copies.

use crate::value::Value;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Marks an unused slot.
const EMPTY: u32 = u32::MAX;

/// Indexes up to this many rows are scanned instead of hashed.
const SMALL: usize = 8;

/// A hash set of row *positions*: an open-addressed table of `u32` indexes
/// into a row vector the caller owns, probed by the rows' hashes.
///
/// Indexing a row costs one slot instead of a copy of its values. The table
/// holds no rows, so every operation takes a `row_at` function that resolves
/// a stored position to its row. A small index allocates nothing: while it
/// holds the positions `0..len` of at most eight rows it finds them by a
/// scan, and it builds a hash table when it outgrows that.
#[derive(Debug, Clone, Default)]
pub struct RowIndex {
    /// Number of indexed positions.
    len: usize,
    table: Option<Box<Table>>,
}

/// The hashed form: slots kept at most half full.
#[derive(Debug, Clone)]
struct Table {
    hasher: RandomState,
    /// `EMPTY` or a row position; the length is a power of two.
    slots: Box<[u32]>,
}

impl RowIndex {
    /// An empty index.
    pub fn new() -> Self {
        RowIndex::default()
    }

    /// Index the rows `0..n` of a row vector, in order. A row equal to an
    /// earlier one is left out, like a rejected [`RowIndex::insert`].
    pub fn build<'a>(n: usize, row_at: impl Fn(u32) -> &'a [Value]) -> Self {
        let mut index = RowIndex::new();
        for pos in 0..n as u32 {
            let _ = index.insert(row_at(pos), pos, &row_at);
        }
        index
    }

    /// The position of an indexed row equal to `row`, if any.
    pub fn find<'a>(&self, row: &[Value], row_at: impl Fn(u32) -> &'a [Value]) -> Option<u32> {
        match &self.table {
            None => (0..self.len as u32).find(|&pos| row_at(pos) == row),
            Some(table) => table.probe(table.hasher.hash_one(row), row, row_at).ok(),
        }
    }

    /// Index position `pos`, whose row is `row`, unless an equal row is
    /// already indexed: then `pos` is left out and the error holds the
    /// position of that equal row. `row_at` need only resolve the positions
    /// already indexed.
    pub fn insert<'a>(
        &mut self,
        row: &[Value],
        pos: u32,
        row_at: impl Fn(u32) -> &'a [Value],
    ) -> Result<(), u32> {
        assert_ne!(pos, EMPTY, "row position {pos} is reserved");
        let table = match &mut self.table {
            Some(table) => table,
            None => {
                if let Some(equal) = self.find(row, &row_at) {
                    return Err(equal);
                }
                if pos as usize == self.len && self.len < SMALL {
                    self.len += 1;
                    return Ok(());
                }
                let scanned = 0..self.len as u32;
                let table = Table::new(RandomState::new(), self.len + 1, scanned, &row_at);
                self.table.insert(Box::new(table))
            }
        };
        if 2 * (self.len + 1) > table.slots.len() {
            let old = std::mem::take(&mut table.slots);
            let indexed = old.iter().copied().filter(|&p| p != EMPTY);
            **table = Table::new(table.hasher.clone(), self.len + 1, indexed, &row_at);
        }
        match table.probe(table.hasher.hash_one(row), row, row_at) {
            Ok(equal) => Err(equal),
            Err(slot) => {
                table.slots[slot] = pos;
                self.len += 1;
                Ok(())
            }
        }
    }
}

impl Table {
    /// A table with room for `n` positions, holding `positions` (whose rows
    /// are distinct).
    fn new<'a>(
        hasher: RandomState,
        n: usize,
        positions: impl Iterator<Item = u32>,
        row_at: impl Fn(u32) -> &'a [Value],
    ) -> Table {
        let size = (2 * n).next_power_of_two().max(2 * SMALL);
        let mut slots = vec![EMPTY; size].into_boxed_slice();
        for pos in positions {
            let mut slot = hasher.hash_one(row_at(pos)) as usize & (size - 1);
            while slots[slot] != EMPTY {
                slot = (slot + 1) & (size - 1);
            }
            slots[slot] = pos;
        }
        Table { hasher, slots }
    }

    /// Walk the probe sequence of `hash`: `Ok` with the position of a row
    /// equal to `row`, or `Err` with the empty slot that ends the sequence.
    fn probe<'a>(
        &self,
        hash: u64,
        row: &[Value],
        row_at: impl Fn(u32) -> &'a [Value],
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                pos if row_at(pos) == row => return Ok(pos),
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_inserted_rows_and_rejects_duplicates_across_growth() {
        let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int(i % 40)]).collect();
        let mut index = RowIndex::new();
        let mut kept = 0;
        for (pos, row) in rows.iter().enumerate() {
            match index.insert(row, pos as u32, |p| &rows[p as usize]) {
                Ok(()) => kept += 1,
                Err(equal) => assert_eq!(rows[equal as usize], *row),
            }
        }
        assert_eq!(kept, 40);
        let built = RowIndex::build(rows.len(), |p| &rows[p as usize]);
        for i in 0..40 {
            for index in [&index, &built] {
                assert_eq!(
                    index.find(&[Value::Int(i)], |p| &rows[p as usize]),
                    Some(i as u32),
                    "the first occurrence is the indexed one"
                );
            }
        }
        assert_eq!(index.find(&[Value::Int(40)], |p| &rows[p as usize]), None);
    }

    #[test]
    fn a_duplicate_in_the_scanned_form_keeps_later_positions_findable() {
        // Position 2 repeats position 0, so position 3 is not `len`: the
        // index must switch to the hashed form without losing 0 and 1.
        let rows: Vec<Vec<Value>> = [1, 2, 1, 3].iter().map(|&i| vec![Value::Int(i)]).collect();
        let index = RowIndex::build(rows.len(), |p| &rows[p as usize]);
        for (probe, at) in [(1, Some(0)), (2, Some(1)), (3, Some(3)), (4, None)] {
            assert_eq!(index.find(&[Value::Int(probe)], |p| &rows[p as usize]), at);
        }
    }
}
