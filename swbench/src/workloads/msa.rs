//! `msa`: Smith-Waterman as a subroutine (the paper's Scenario 3 and
//! its §I motivation) — all-vs-all scores with
//! `runner::pairwise_scores`, then a UPGMA guide tree.
//!
//! The same batch kernel is used very differently from `scan`: every
//! row searches a tiny database of the row's successors, and pairs
//! within a family saturate 8-bit lanes, which triggers 16-bit
//! `diag_score` reruns.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swsimd_core::adaptive::adaptive_score;
use swsimd_matrices::Alphabet;
use swsimd_runner::{pairwise_scores, rank_hits, upgma, GuideTree, ScoreMatrix};
use swsimd_seq::{Database, SeqRecord};

use crate::inputs::{self, sub_seed};
use crate::layers::{self, Counters, Kernel, LayerLog};
use crate::report::Outcome;
use crate::trace::{Scope, Tracer};
use crate::{builder, ms, repeat_setup, scalar_mismatches, Run, THREADS};

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let k = Kernel::new();
    let ascii = inputs::msa(r.seed, &r.sizes);
    let alphabet = Alphabet::protein();
    let first_family = r.sizes.msa_members.min(ascii.len());
    let (seqs, setup_s) = repeat_setup(
        r.sizes.setup_repeats,
        || (),
        |()| {
            let seqs: Vec<Vec<u8>> = ascii.iter().map(|s| alphabet.encode(s)).collect();
            upgma(&pairwise_scores(&seqs[..first_family], THREADS, builder));
            seqs
        },
    );
    let lens: Vec<u64> = seqs.iter().map(|s| s.len() as u64).collect();
    let sum: u64 = lens.iter().sum();
    let sum_sq: u64 = lens.iter().map(|l| l * l).sum();
    // Self-scores plus the upper triangle.
    let work = sum_sq + (sum * sum - sum_sq) / 2;
    let names: Vec<String> = (0..seqs.len()).map(|i| i.to_string()).collect();

    let mut out = Outcome::default();
    let (mut rounds, mut latency_ms) = (Vec::new(), Vec::new());
    let tracer = Tracer::default();
    let mut log = LayerLog::default();
    let mut clock = r.clock();
    while clock.next_round() {
        let round = clock.rounds() - 1;
        let t = Instant::now();
        let m = pairwise_scores(&seqs, THREADS, builder);
        let tree = upgma(&m);
        let wall = t.elapsed();
        latency_ms.push(ms(wall));
        rounds.push((work, wall.as_secs_f64()));
        log.untraced_s.push(wall.as_secs_f64());
        let bad = check(r, &k, &seqs, &m, tree.as_ref(), round);
        out.tally(1 + r.sizes.oracle_pairs as u64, bad);

        if r.trace {
            let t = Instant::now();
            let (scores, traced_tree) = Scope::root(&tracer, round as u64)
                .span("bench.round", |sc| {
                    traced_tree(sc, &k, &seqs, &mut log.counters)
                });
            log.traced_s.push(t.elapsed().as_secs_f64());
            log.rounds += 1;
            let same = scores == m.scores
                && newick(traced_tree.as_ref(), &names) == newick(tree.as_ref(), &names);
            out.tally(1, u64::from(!same));
        }
    }
    out.fact("rounds", clock.rounds());
    out.fact("sequences", seqs.len());
    out.fact("cells_per_tree", work);
    if r.trace {
        out.spans = tracer.spans();
        out.metrics = log.metrics(&out.spans);
    } else {
        super::end_to_end(&mut out, setup_s, &rounds, latency_ms);
    }
    out
}

fn newick(t: Option<&GuideTree>, names: &[String]) -> Option<String> {
    t.map(|t| t.newick(names))
}

/// `pairwise_scores` + `upgma`, one public call at a time: rows are
/// split into one contiguous chunk per thread; each row scores its
/// sequence against itself (`core.diag`), decodes and encodes its
/// successors into a database (`seq.encode`), lays it out
/// (`seq.layout`), searches it (`core.batch`, `core.promote`) and ranks
/// the hits (`runner.rank`).
fn traced_tree(
    sc: Scope<'_>,
    k: &Kernel,
    seqs: &[Vec<u8>],
    total: &mut Counters,
) -> (Vec<Vec<i32>>, Option<GuideTree>) {
    let n = seqs.len();
    let chunk = n.div_ceil(THREADS).max(1);
    let rows: Vec<(Vec<Vec<i32>>, Counters)> = sc.span("runner.msa.scores", |pool| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|first| {
                    s.spawn(move || {
                        pool.span("runner.partition", |p| {
                            let mut c = Counters::default();
                            let rows = (first..(first + chunk).min(n))
                                .map(|i| row(p.with_req(i as u64), k, seqs, i, &mut c))
                                .collect();
                            (rows, c)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("row thread panicked"))
                .collect()
        })
    });
    let mut scores = Vec::with_capacity(n);
    for (chunk_rows, c) in rows {
        scores.extend(chunk_rows);
        total.merge(&c);
    }
    let upper = scores.clone();
    for (i, row) in scores.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate().take(i) {
            *v = upper[j][i];
        }
    }
    let tree = sc.span("runner.msa.upgma", |_| {
        upgma(&ScoreMatrix {
            scores: scores.clone(),
        })
    });
    (scores, tree)
}

/// Row `i` of the score matrix (upper triangle and diagonal).
fn row(p: Scope<'_>, k: &Kernel, seqs: &[Vec<u8>], i: usize, c: &mut Counters) -> Vec<i32> {
    let mut row = vec![0; seqs.len()];
    row[i] = p.span("core.diag", |_| {
        adaptive_score(
            k.engine,
            &seqs[i],
            &seqs[i],
            &k.scoring,
            k.gaps,
            k.threshold,
            &mut c.diag,
        )
        .0
    });
    if i + 1 < seqs.len() {
        let db = p.span("seq.encode", |_| {
            let alphabet = Alphabet::protein();
            let rest = seqs[i + 1..]
                .iter()
                .map(|s| SeqRecord::new("t", alphabet.decode(s)))
                .collect();
            Database::from_records(rest, &alphabet)
        });
        let batched = layers::layout(p, k, &db, c);
        let hits = layers::search(p, k, &seqs[i], &db, &batched, c);
        for h in p.span("runner.rank", |_| rank_hits(hits, 0)) {
            row[i + 1 + h.db_index] = h.score;
        }
    }
    row
}

/// Oracle check of one tree: it has every sequence as a leaf exactly
/// once, and a seeded sample of matrix entries (diagonal included)
/// equals the scalar reference. Returns the failed checks.
fn check(
    r: &Run,
    k: &Kernel,
    seqs: &[Vec<u8>],
    m: &ScoreMatrix,
    tree: Option<&GuideTree>,
    round: usize,
) -> u64 {
    let mut leaves = tree.map(GuideTree::leaves).unwrap_or_default();
    leaves.sort_unstable();
    let mut bad = u64::from(leaves != (0..seqs.len()).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(sub_seed(r.seed, 2000 + round as u64));
    let items: Vec<(&[u8], &[u8], i32)> = (0..r.sizes.oracle_pairs)
        .map(|_| {
            let (i, j) = (rng.gen_range(0..seqs.len()), rng.gen_range(0..seqs.len()));
            (seqs[i].as_slice(), seqs[j].as_slice(), m.scores[i][j])
        })
        .collect();
    bad += scalar_mismatches(k, &items);
    bad
}
