//! Sequence databases and the paper's 32-way transposed batch layout.
//!
//! §III-C: "the database sequences are stored in batches containing 32
//! transposed sequences, i.e., 32 for the number of lanes in AVX2 when
//! using 8-bit integers. This enables the immediate use of AVX shuffling
//! instructions ... each adjacent transposed residue represents a residue
//! from a different sequence." This module implements exactly that
//! organization — done **once, offline** per database.

use swsimd_matrices::{Alphabet, PAD_INDEX};

use crate::record::{EncodedSeq, SeqRecord};

/// A database of encoded sequences, the unit the kernels search against.
#[derive(Clone)]
pub struct Database {
    records: Vec<SeqRecord>,
    encoded: Vec<EncodedSeq>,
    total_residues: usize,
}

impl Database {
    /// Build a database by encoding records with `alphabet`.
    pub fn from_records(records: Vec<SeqRecord>, alphabet: &Alphabet) -> Self {
        let encoded = records
            .iter()
            .enumerate()
            .map(|(i, r)| EncodedSeq::from_bytes(&r.seq, alphabet, i))
            .collect::<Vec<_>>();
        let total_residues = encoded.iter().map(|e| e.len()).sum();
        Self {
            records,
            encoded,
            total_residues,
        }
    }

    /// Build a database only if `records` fits inside `quota` — the
    /// admission-path arm of the ingestion memory budget, for callers
    /// that assemble records themselves (e.g. the batch server) rather
    /// than streaming through `read_database_streaming_with`.
    pub fn try_from_records(
        records: Vec<SeqRecord>,
        alphabet: &Alphabet,
        quota: &crate::stream::IngestQuota,
    ) -> Result<Self, crate::stream::IngestError> {
        use crate::stream::IngestError;
        if records.len() > quota.max_records {
            return Err(IngestError::QuotaExceeded {
                quota: "records",
                limit: quota.max_records as u64,
                observed: records.len() as u64,
            });
        }
        let mut total = 0usize;
        for r in &records {
            if r.seq.len() > quota.max_record_residues {
                return Err(IngestError::QuotaExceeded {
                    quota: "record residues",
                    limit: quota.max_record_residues as u64,
                    observed: r.seq.len() as u64,
                });
            }
            total = total.saturating_add(r.seq.len());
        }
        if total > quota.max_total_residues {
            return Err(IngestError::QuotaExceeded {
                quota: "total residues",
                limit: quota.max_total_residues as u64,
                observed: total as u64,
            });
        }
        Ok(Self::from_records(records, alphabet))
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total residue count across all sequences.
    pub fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// The raw record at `i`.
    pub fn record(&self, i: usize) -> &SeqRecord {
        &self.records[i]
    }

    /// The encoded sequence at `i`.
    pub fn encoded(&self, i: usize) -> &EncodedSeq {
        &self.encoded[i]
    }

    /// Iterate over encoded sequences.
    pub fn iter_encoded(&self) -> impl Iterator<Item = &EncodedSeq> {
        self.encoded.iter()
    }

    /// Split `0..len()` into at most `parts` contiguous ranges with
    /// roughly equal residue counts — the unit of work-stealing-free
    /// thread partitioning in `swsimd-runner`.
    #[allow(clippy::single_range_in_vec_init)] // an empty database yields one empty range
    pub fn partition(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        let parts = parts.max(1);
        if self.is_empty() {
            return vec![0..0];
        }
        let target = self.total_residues.div_ceil(parts).max(1);
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        let mut acc = 0usize;
        for (i, e) in self.encoded.iter().enumerate() {
            acc += e.len().max(1);
            if acc >= target && out.len() + 1 < parts {
                out.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < self.len() || out.is_empty() {
            out.push(start..self.len());
        }
        out
    }
}

/// One batch of up to `lanes` sequences in transposed layout.
///
/// `column(j)` yields the `lanes` residues at position `j`, one per
/// sequence — a single contiguous vector load for the inter-sequence
/// kernel. Lanes whose sequence has ended hold [`PAD_INDEX`], whose
/// substitution score is poisoned.
#[derive(Clone)]
pub struct DbBatch {
    lanes: usize,
    max_len: usize,
    /// Original database indices of the member sequences (≤ `lanes`).
    members: Vec<u32>,
    /// Length of each member.
    lens: Vec<u32>,
    /// Transposed residues: `data[j * lanes + k]`, padded to `lanes`.
    data: Vec<u8>,
}

impl DbBatch {
    /// Lanes (vector width) of this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Length of the longest member: number of columns.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Original database indices of members.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// Member lengths, parallel to `members`.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// The transposed residue column at db position `j` (`lanes` bytes).
    #[inline(always)]
    pub fn column(&self, j: usize) -> &[u8] {
        &self.data[j * self.lanes..(j + 1) * self.lanes]
    }

    /// Raw transposed buffer.
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

/// A database reorganized into transposed batches for the
/// inter-sequence (interleaved) kernel.
#[derive(Clone)]
pub struct BatchedDatabase {
    lanes: usize,
    batches: Vec<DbBatch>,
}

impl BatchedDatabase {
    /// Organize `db` into batches of `lanes` sequences.
    ///
    /// With `sort_by_len` the sequences are batched in length order so
    /// batch members finish together, minimizing padding work (the
    /// fraction of poisoned lanes) — the offline reorganization the
    /// paper describes.
    pub fn build(db: &Database, lanes: usize, sort_by_len: bool) -> Self {
        Self::build_range(db, 0..db.len(), lanes, sort_by_len)
    }

    /// Like [`BatchedDatabase::build`], over the sequences in `range`
    /// only. Batch members keep their indices in `db`, so hits from a
    /// search over one partition are already globally indexed.
    pub fn build_range(
        db: &Database,
        range: std::ops::Range<usize>,
        lanes: usize,
        sort_by_len: bool,
    ) -> Self {
        assert!(lanes > 0);
        let mut order: Vec<usize> = range.collect();
        if sort_by_len {
            order.sort_by_key(|&i| db.encoded(i).len());
        }
        let mut batches = Vec::with_capacity(order.len().div_ceil(lanes));
        for group in order.chunks(lanes) {
            let max_len = group
                .iter()
                .map(|&i| db.encoded(i).len())
                .max()
                .unwrap_or(0);
            let mut data = vec![PAD_INDEX; max_len * lanes];
            for (k, &i) in group.iter().enumerate() {
                for (j, &res) in db.encoded(i).idx.iter().enumerate() {
                    data[j * lanes + k] = res;
                }
            }
            batches.push(DbBatch {
                lanes,
                max_len,
                members: group.iter().map(|&i| i as u32).collect(),
                lens: group.iter().map(|&i| db.encoded(i).len() as u32).collect(),
                data,
            });
        }
        Self { lanes, batches }
    }

    /// Rebuild from persisted parts (see `crate::persist`): each tuple
    /// is `(member db indices, max_len, transposed data)`. Lengths are
    /// recomputed from the database; callers must have validated the
    /// member indices.
    pub(crate) fn from_raw_parts(
        lanes: usize,
        parts: Vec<(Vec<u32>, usize, Vec<u8>)>,
        db: &Database,
    ) -> Self {
        let batches = parts
            .into_iter()
            .map(|(members, max_len, data)| {
                debug_assert_eq!(data.len(), max_len * lanes);
                let lens = members
                    .iter()
                    .map(|&i| db.encoded(i as usize).len() as u32)
                    .collect();
                DbBatch {
                    lanes,
                    max_len,
                    members,
                    lens,
                    data,
                }
            })
            .collect();
        Self { lanes, batches }
    }

    /// Vector lane count the batches were built for.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The batches.
    pub fn batches(&self) -> &[DbBatch] {
        &self.batches
    }

    /// Fraction of residue slots that are padding — the cost of ragged
    /// batch tails (lower with `sort_by_len`).
    pub fn padding_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut real = 0usize;
        for b in &self.batches {
            total += b.max_len * b.lanes;
            real += b.lens.iter().map(|&l| l as usize).sum::<usize>();
        }
        if total == 0 {
            0.0
        } else {
            1.0 - real as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(seqs: &[&str]) -> Database {
        let records: Vec<SeqRecord> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("s{i}"), s.as_bytes().to_vec()))
            .collect();
        Database::from_records(records, &Alphabet::protein())
    }

    #[test]
    fn database_counts() {
        let d = db(&["MKV", "AAAA", ""]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.total_residues(), 7);
        assert_eq!(d.encoded(0).idx.len(), 3);
    }

    #[test]
    fn partition_covers_everything() {
        let d = db(&["MKV", "AAAA", "WW", "RRRRRR", "C"]);
        for parts in 1..8 {
            let ranges = d.partition(parts);
            assert!(ranges.len() <= parts.max(1));
            let mut covered = Vec::new();
            for r in &ranges {
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..5).collect::<Vec<_>>(), "parts={parts}");
        }
    }

    #[test]
    fn quota_checked_construction() {
        use crate::stream::{IngestError, IngestQuota};
        let records = vec![
            SeqRecord::new("a", b"MKV".to_vec()),
            SeqRecord::new("b", b"WWWW".to_vec()),
        ];
        let ok = Database::try_from_records(
            records.clone(),
            &Alphabet::protein(),
            &IngestQuota::unlimited(),
        );
        assert_eq!(ok.unwrap().len(), 2);
        let too_many = Database::try_from_records(
            records.clone(),
            &Alphabet::protein(),
            &IngestQuota {
                max_records: 1,
                ..IngestQuota::unlimited()
            },
        );
        assert!(matches!(
            too_many.map(|_| ()),
            Err(IngestError::QuotaExceeded {
                quota: "records",
                ..
            })
        ));
        let too_long = Database::try_from_records(
            records,
            &Alphabet::protein(),
            &IngestQuota {
                max_record_residues: 3,
                ..IngestQuota::unlimited()
            },
        );
        assert!(matches!(
            too_long.map(|_| ()),
            Err(IngestError::QuotaExceeded {
                quota: "record residues",
                ..
            })
        ));
    }

    #[test]
    fn partition_empty_db() {
        let d = db(&[]);
        assert_eq!(d.partition(4), vec![0..0]);
    }

    #[test]
    fn range_batches_keep_global_members() {
        let d = db(&["MKV", "AAAA", "WW", "RRRRRR", "C"]);
        let b = BatchedDatabase::build_range(&d, 1..4, 2, true);
        let members: Vec<u32> = b
            .batches()
            .iter()
            .flat_map(|batch| batch.members().iter().copied())
            .collect();
        assert_eq!(members, vec![2, 1, 3], "length-sorted, indices into d");
        assert_eq!(b.batches()[0].column(0), &[17, 0]); // W, A
    }

    #[test]
    fn batch_transposition() {
        let d = db(&["AR", "ND"]);
        let b = BatchedDatabase::build(&d, 4, false);
        assert_eq!(b.batches().len(), 1);
        let batch = &b.batches()[0];
        assert_eq!(batch.max_len(), 2);
        // Column 0 = first residues of each sequence, then padding.
        assert_eq!(batch.column(0), &[0, 2, PAD_INDEX, PAD_INDEX]); // A, N
        assert_eq!(batch.column(1), &[1, 3, PAD_INDEX, PAD_INDEX]); // R, D
    }

    #[test]
    fn ragged_batch_padding() {
        let d = db(&["A", "ARN"]);
        let b = BatchedDatabase::build(&d, 2, false);
        let batch = &b.batches()[0];
        assert_eq!(batch.max_len(), 3);
        assert_eq!(batch.column(1), &[PAD_INDEX, 1]);
        assert_eq!(batch.column(2), &[PAD_INDEX, 2]);
    }

    #[test]
    fn sort_by_len_reduces_padding() {
        let seqs: Vec<String> = (1..=64).map(|i| "A".repeat(i * 3 % 97 + 1)).collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let d = db(&refs);
        let unsorted = BatchedDatabase::build(&d, 8, false);
        let sorted = BatchedDatabase::build(&d, 8, true);
        assert!(
            sorted.padding_fraction() <= unsorted.padding_fraction(),
            "sorted {} vs unsorted {}",
            sorted.padding_fraction(),
            unsorted.padding_fraction()
        );
    }

    #[test]
    fn batch_members_track_original_indices() {
        let d = db(&["AAAA", "A", "AA"]);
        let b = BatchedDatabase::build(&d, 2, true);
        // Sorted by length: s1 (1), s2 (2) | s0 (4)
        assert_eq!(b.batches()[0].members(), &[1, 2]);
        assert_eq!(b.batches()[1].members(), &[0]);
    }
}
