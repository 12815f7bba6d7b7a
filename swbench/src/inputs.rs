//! Seeded input synthesis. The same seed always gives the same inputs;
//! the program under test only ever sees what these functions return.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use swsimd_matrices::Alphabet;
use swsimd_seq::{generate, generate_exact, mutate, standard_queries, SeqRecord, SynthConfig};

/// Input sizes of one run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Sequences in the `scan` database.
    pub scan_db_seqs: usize,
    /// Longest `scan` database sequence.
    pub scan_max_len: usize,
    /// How many of the ten standard queries `scan` searches.
    pub scan_queries: usize,
    /// `msa` protein families.
    pub msa_families: usize,
    /// Mutated members per `msa` family.
    pub msa_members: usize,
    /// Sequences in the `serve` database.
    pub serve_db_seqs: usize,
    /// Distinct `serve` queries.
    pub serve_queries: usize,
    /// Arrival rate of the paced `serve` phase, requests per second.
    pub serve_rate: f64,
    /// Pairs aligned per `align` round.
    pub align_pairs: usize,
    /// Pairs per round checked against the scalar reference.
    pub oracle_pairs: usize,
    /// Times the program is set up per run; `setup_s` is the median.
    pub setup_repeats: usize,
}

impl Sizes {
    /// The benchmark proper.
    pub const FULL: Sizes = Sizes {
        scan_db_seqs: 1 << 13,
        scan_max_len: 8_000,
        scan_queries: 10,
        msa_families: 8,
        msa_members: 16,
        serve_db_seqs: 512,
        serve_queries: 64,
        serve_rate: 20.0,
        align_pairs: 512,
        oracle_pairs: 64,
        setup_repeats: 11,
    };

    /// Tiny inputs for a quick end-to-end check of the harness.
    pub const SMOKE: Sizes = Sizes {
        scan_db_seqs: 160,
        scan_max_len: 400,
        scan_queries: 4,
        msa_families: 3,
        msa_members: 5,
        serve_db_seqs: 96,
        serve_queries: 6,
        serve_rate: 40.0,
        align_pairs: 24,
        oracle_pairs: 8,
        setup_repeats: 2,
    };
}

/// Derive an independent seed for one input stream (splitmix64).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn encode(seq: &[u8]) -> Vec<u8> {
    Alphabet::protein().encode(seq)
}

/// A Swiss-Prot-like database plus encoded queries.
#[derive(Clone, PartialEq)]
pub struct SearchInputs {
    /// Database records (ASCII residues).
    pub records: Vec<SeqRecord>,
    /// Encoded queries.
    pub queries: Vec<Vec<u8>>,
}

/// `scan`: the standard queries against a seeded synthetic database.
pub fn scan(seed: u64, sizes: &Sizes) -> SearchInputs {
    SearchInputs {
        records: generate(&SynthConfig {
            n_seqs: sizes.scan_db_seqs,
            seed: sub_seed(seed, 1),
            max_len: sizes.scan_max_len,
            ..Default::default()
        }),
        queries: standard_queries()[..sizes.scan_queries]
            .iter()
            .map(|r| encode(&r.seq))
            .collect(),
    }
}

/// Evenly spaced lengths from `lo` to `hi`: the inputs' shape is fixed
/// and only their residues depend on the seed, so runs with different
/// seeds do comparable work.
fn spaced(i: usize, n: usize, lo: usize, hi: usize) -> usize {
    lo + (hi - lo) * i / (n.max(2) - 1)
}

/// `serve`: a seeded database and seeded queries of 47-682 aa, in
/// seeded order.
pub fn serve(seed: u64, sizes: &Sizes) -> SearchInputs {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let n = sizes.serve_queries;
    let mut queries: Vec<Vec<u8>> = (0..n)
        .map(|i| encode(&generate_exact(spaced(i, n, 47, 682), rng.gen()).seq))
        .collect();
    queries.shuffle(&mut rng);
    SearchInputs {
        records: generate(&SynthConfig {
            n_seqs: sizes.serve_db_seqs,
            seed: sub_seed(seed, 3),
            ..Default::default()
        }),
        queries,
    }
}

/// `msa`: families of mutated copies of seeded roots, family after
/// family. Root lengths are spaced over 150-570 aa and member
/// divergences over 0.05-0.45. ASCII residues.
pub fn msa(seed: u64, sizes: &Sizes) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let (families, members) = (sizes.msa_families, sizes.msa_members);
    let mut seqs = Vec::with_capacity(families * members);
    for f in 0..families {
        let root = generate_exact(spaced(f, families, 150, 570), rng.gen()).seq;
        for m in 0..members {
            let divergence = 0.05 + 0.4 * (m as f64 + 0.5) / members as f64;
            seqs.push(mutate(&root, divergence, rng.gen()));
        }
    }
    seqs
}

/// `align`: queries of 47-1021 aa; even pairs get a homolog (divergence
/// 0.1-0.4), odd pairs an unrelated sequence of 47-1200 aa. Lengths and
/// divergences follow a fixed low-discrepancy schedule. ASCII residues.
pub fn align(seed: u64, sizes: &Sizes) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    // Golden-ratio steps spread each quantity evenly over its range.
    let frac = |i: usize, step: f64| (i as f64 * step).fract();
    let within = |lo: usize, hi: usize, x: f64| lo + ((hi - lo) as f64 * x) as usize;
    (0..sizes.align_pairs)
        .map(|i| {
            let query = generate_exact(within(47, 1021, frac(i, 0.618_034)), rng.gen()).seq;
            let target = if i % 2 == 0 {
                mutate(&query, 0.1 + 0.3 * frac(i, 0.754_878), rng.gen())
            } else {
                generate_exact(within(47, 1200, frac(i, 0.754_878)), rng.gen()).seq
            };
            (query, target)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let s = Sizes::SMOKE;
        assert!(scan(1, &s) == scan(1, &s));
        assert!(scan(1, &s).records != scan(2, &s).records);
        // The standard queries are fixed stand-ins; only the database
        // depends on the seed.
        assert!(scan(1, &s).queries == scan(2, &s).queries);
        assert!(serve(1, &s) == serve(1, &s));
        assert!(serve(1, &s).queries != serve(2, &s).queries);
        assert!(serve(1, &s).records != serve(2, &s).records);
        assert_eq!(msa(1, &s), msa(1, &s));
        assert_ne!(msa(1, &s), msa(2, &s));
        assert_eq!(align(1, &s), align(1, &s));
        assert_ne!(align(1, &s), align(2, &s));
    }

    #[test]
    fn inputs_have_the_declared_shape() {
        let s = Sizes::SMOKE;
        let m = msa(9, &s);
        assert_eq!(m.len(), s.msa_families * s.msa_members);
        let a = align(9, &s);
        assert_eq!(a.len(), s.align_pairs);
        assert!(a.iter().all(|(q, _)| (47..=1021).contains(&q.len())));
        let v = serve(9, &s);
        assert_eq!(v.records.len(), s.serve_db_seqs);
        assert!(v.queries.iter().all(|q| (47..=682).contains(&q.len())));
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
    }
}
