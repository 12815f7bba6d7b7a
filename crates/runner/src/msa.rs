//! All-vs-all scoring and guide-tree construction — the multiple-
//! sequence-alignment front end that motivates the paper's throughput
//! work (§I: "many applications, such as multiple sequence alignment
//! ... where SW is invoked repeatedly"; the authors' FMSA line of work
//! uses exactly this SW-prefilter → guide tree pipeline).
//!
//! [`pairwise_scores`] computes the upper-triangular SW score matrix
//! for a set of sequences using the batch kernel (each sequence is the
//! query once, searched against a database of its successors), across
//! threads. [`upgma`] turns the scores into a rooted guide tree with
//! branch lengths, rendered in Newick format.

use swsimd_core::batch::lanes_for;
use swsimd_core::{Aligner, AlignerBuilder};
use swsimd_seq::{BatchedDatabase, Database, SeqRecord};

/// Symmetric pairwise score matrix (`scores[i][j]`, `i != j`), plus the
/// self-scores on the diagonal.
#[derive(Clone, Debug)]
pub struct ScoreMatrix {
    /// `n x n` local alignment scores.
    pub scores: Vec<Vec<i32>>,
}

impl ScoreMatrix {
    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Normalized distance in `[0, 1]`:
    /// `1 - score(i,j) / min(score(i,i), score(j,j))`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let denom = self.scores[i][i].min(self.scores[j][j]).max(1) as f64;
        (1.0 - self.scores[i][j] as f64 / denom).clamp(0.0, 1.0)
    }
}

/// Compute all pairwise local-alignment scores for a set of encoded
/// sequences, distributing queries across `threads`.
///
/// The sequences are put into one [`Database`] (encoded once, with the
/// aligners' alphabet); row `i` lays out only its successors `i+1..n`
/// and searches them, so hit indices are already matrix columns.
pub fn pairwise_scores<F>(seqs: &[Vec<u8>], threads: usize, make_aligner: F) -> ScoreMatrix
where
    F: Fn() -> AlignerBuilder,
{
    let n = seqs.len();
    let mut scores = vec![vec![0i32; n]; n];
    if n == 0 {
        return ScoreMatrix { scores };
    }

    let chunk = n.div_ceil(threads.max(1));
    let aligners: Vec<Aligner> = (0..n.div_ceil(chunk))
        .map(|_| make_aligner().build())
        .collect();
    let alphabet = aligners[0].alphabet();
    let records = seqs
        .iter()
        .map(|s| SeqRecord::new("t", alphabet.decode(s)))
        .collect();
    let db = Database::from_records(records, alphabet);

    // Self-scores plus the upper triangle, one contiguous block of rows
    // per thread.
    std::thread::scope(|scope| {
        for ((ci, rows), mut aligner) in scores.chunks_mut(chunk).enumerate().zip(aligners) {
            let db = &db;
            scope.spawn(move || {
                let lanes = lanes_for(aligner.engine());
                for (k, row) in rows.iter_mut().enumerate() {
                    let i = ci * chunk + k;
                    row[i] = aligner.align(&seqs[i], &seqs[i]).score;
                    let batched = BatchedDatabase::build_range(db, i + 1..n, lanes, true);
                    for hit in aligner.search_batched(&seqs[i], db, &batched) {
                        row[hit.db_index] = hit.score;
                    }
                }
            });
        }
    });
    // Mirror the upper triangle.
    for i in 0..n {
        for j in 0..i {
            scores[i][j] = scores[j][i];
        }
    }
    ScoreMatrix { scores }
}

/// A rooted guide tree node.
#[derive(Clone, Debug)]
pub enum GuideTree {
    /// A sequence, by input index.
    Leaf {
        /// Index into the input set.
        index: usize,
    },
    /// An internal merge.
    Node {
        /// Left subtree and its branch length.
        left: (Box<GuideTree>, f64),
        /// Right subtree and its branch length.
        right: (Box<GuideTree>, f64),
        /// Height (UPGMA ultrametric) of this node.
        height: f64,
    },
}

impl GuideTree {
    /// Leaf indices in tree order.
    pub fn leaves(&self) -> Vec<usize> {
        match self {
            GuideTree::Leaf { index } => vec![*index],
            GuideTree::Node { left, right, .. } => {
                let mut v = left.0.leaves();
                v.extend(right.0.leaves());
                v
            }
        }
    }

    /// Newick rendering with branch lengths, using `names` for leaves.
    pub fn newick(&self, names: &[String]) -> String {
        fn go(t: &GuideTree, names: &[String], out: &mut String) {
            match t {
                GuideTree::Leaf { index } => {
                    out.push_str(names.get(*index).map(String::as_str).unwrap_or("?"))
                }
                GuideTree::Node { left, right, .. } => {
                    out.push('(');
                    go(&left.0, names, out);
                    out.push_str(&format!(":{:.4},", left.1));
                    go(&right.0, names, out);
                    out.push_str(&format!(":{:.4}", right.1));
                    out.push(')');
                }
            }
        }
        let mut s = String::new();
        go(self, names, &mut s);
        s.push(';');
        s
    }
}

/// UPGMA clustering over a score matrix's normalized distances.
///
/// Returns `None` for empty input; a single sequence yields a lone leaf.
pub fn upgma(m: &ScoreMatrix) -> Option<GuideTree> {
    let n = m.len();
    if n == 0 {
        return None;
    }
    // Active clusters: (tree, size, height).
    let mut clusters: Vec<(GuideTree, usize, f64)> = (0..n)
        .map(|i| (GuideTree::Leaf { index: i }, 1, 0.0))
        .collect();
    // Average-linkage distances between active clusters.
    let mut dist: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..n).map(|j| m.distance(i, j)).collect())
        .collect();
    let mut active: Vec<usize> = (0..n).collect();

    while active.len() > 1 {
        // Closest pair among active clusters.
        let (mut bi, mut bj, mut bd) = (0usize, 1usize, f64::INFINITY);
        for (x, &i) in active.iter().enumerate() {
            for &j in &active[x + 1..] {
                if dist[i][j] < bd {
                    bd = dist[i][j];
                    bi = i;
                    bj = j;
                }
            }
        }
        let height = bd / 2.0;
        let (ti, si, hi) = clusters[bi].clone();
        let (tj, sj, hj) = clusters[bj].clone();
        let merged = GuideTree::Node {
            left: (Box::new(ti), height - hi),
            right: (Box::new(tj), height - hj),
            height,
        };
        // UPGMA average-linkage update into slot bi.
        for &k in &active {
            if k != bi && k != bj {
                let d = (dist[bi][k] * si as f64 + dist[bj][k] * sj as f64) / (si + sj) as f64;
                dist[bi][k] = d;
                dist[k][bi] = d;
            }
        }
        clusters[bi] = (merged, si + sj, height);
        active.retain(|&k| k != bj);
    }
    Some(clusters[active[0]].0.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsimd_core::sw_scalar;
    use swsimd_matrices::{blosum62, Alphabet, SubstitutionMatrix};
    use swsimd_seq::{generate_exact, mutate};

    fn builder() -> AlignerBuilder {
        Aligner::builder().matrix(blosum62())
    }

    fn enc(bytes: &[u8]) -> Vec<u8> {
        Alphabet::protein().encode(bytes)
    }

    #[test]
    fn score_matrix_is_symmetric_and_self_max() {
        let base = generate_exact(80, 3).seq;
        let seqs: Vec<Vec<u8>> = vec![
            enc(&base),
            enc(&mutate(&base, 0.1, 1)),
            enc(&mutate(&base, 0.5, 2)),
            enc(&generate_exact(60, 99).seq),
        ];
        let m = pairwise_scores(&seqs, 2, builder);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.scores[i][j], m.scores[j][i], "asymmetric at {i},{j}");
            }
            // Self-score dominates the row.
            for j in 0..4 {
                assert!(m.scores[i][i] >= m.scores[i][j]);
            }
        }
        // Close homolog scores higher than the unrelated sequence.
        assert!(m.scores[0][1] > m.scores[0][3]);
        // Distances reflect that.
        assert!(m.distance(0, 1) < m.distance(0, 3));
    }

    /// Every entry of `m` equals the scalar reference under `builder`'s
    /// scoring.
    fn assert_exact(seqs: &[Vec<u8>], m: &ScoreMatrix, builder: AlignerBuilder) {
        let a = builder.build();
        for (i, qi) in seqs.iter().enumerate() {
            for (j, tj) in seqs.iter().enumerate() {
                let want = sw_scalar(qi, tj, a.scoring(), a.gap_model()).score;
                assert_eq!(m.scores[i][j], want, "entry {i},{j}");
            }
        }
    }

    #[test]
    fn every_entry_matches_the_scalar_reference() {
        // Close homologs saturate 8-bit lanes and take the promotion
        // path; the unrelated tail sequences do not.
        let base = generate_exact(150, 11).seq;
        let mut seqs: Vec<Vec<u8>> = (0..5)
            .map(|k| enc(&mutate(&base, 0.1 * k as f64, k)))
            .collect();
        seqs.extend((0..4).map(|k| enc(&generate_exact(20 + 31 * k, 40 + k as u64).seq)));
        for threads in [1, 2, 4] {
            assert_exact(&seqs, &pairwise_scores(&seqs, threads, builder), builder());
        }
    }

    #[test]
    fn dna_scores_use_the_aligner_alphabet() {
        let dna = SubstitutionMatrix::match_mismatch("dna", Alphabet::dna(), 2, -3);
        let alphabet = Alphabet::dna();
        let seqs: Vec<Vec<u8>> = [
            b"ACGTACGTTGCA".as_slice(),
            b"ACGTTCGTTGCA",
            b"TTTTGGGGCCCCAAAA",
            b"GATTACA",
        ]
        .iter()
        .map(|s| alphabet.encode(s))
        .collect();
        let make = || Aligner::builder().matrix(&dna);
        assert_exact(&seqs, &pairwise_scores(&seqs, 2, make), make());
    }

    #[test]
    fn pairwise_threads_agree() {
        let seqs: Vec<Vec<u8>> = (0..6)
            .map(|i| enc(&generate_exact(40 + i * 7, i as u64).seq))
            .collect();
        let a = pairwise_scores(&seqs, 1, builder);
        let b = pairwise_scores(&seqs, 3, builder);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn upgma_clusters_homologs_first() {
        let base = generate_exact(100, 7).seq;
        let seqs: Vec<Vec<u8>> = vec![
            enc(&base),                        // 0
            enc(&mutate(&base, 0.05, 1)),      // 1: very close to 0
            enc(&generate_exact(100, 50).seq), // 2: unrelated
        ];
        let m = pairwise_scores(&seqs, 1, builder);
        let tree = upgma(&m).unwrap();
        // The first merge must be (0, 1).
        match &tree {
            GuideTree::Node { left, right, .. } => {
                let inner = if matches!(*left.0, GuideTree::Node { .. }) {
                    &left.0
                } else {
                    &right.0
                };
                let mut pair = inner.leaves();
                pair.sort_unstable();
                assert_eq!(pair, vec![0, 1], "homologs should merge first");
            }
            GuideTree::Leaf { .. } => panic!("expected an internal root"),
        }
        assert_eq!(tree.leaves().len(), 3);
    }

    #[test]
    fn newick_renders() {
        let seqs: Vec<Vec<u8>> = (0..3).map(|i| enc(&generate_exact(30, i).seq)).collect();
        let m = pairwise_scores(&seqs, 1, builder);
        let tree = upgma(&m).unwrap();
        let names: Vec<String> = (0..3).map(|i| format!("s{i}")).collect();
        let nwk = tree.newick(&names);
        assert!(nwk.ends_with(';'));
        for n in &names {
            assert!(nwk.contains(n.as_str()), "{nwk}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        assert!(upgma(&ScoreMatrix { scores: vec![] }).is_none());
        let one = pairwise_scores(&[enc(b"MKV")], 2, builder);
        let t = upgma(&one).unwrap();
        assert_eq!(t.leaves(), vec![0]);
    }
}
