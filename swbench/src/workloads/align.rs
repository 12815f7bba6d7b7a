//! `align`: the paper's own diagonal kernel with traceback (Figs 2-4,
//! 8) — seeded pairs aligned with `Aligner::builder().traceback(true)`.
//!
//! `scan` never runs this kernel; on top of the DP reads it writes
//! O(mn) direction bytes.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swsimd_core::adaptive::adaptive_traceback;
use swsimd_core::{AlignResult, Aligner};
use swsimd_matrices::Alphabet;

use crate::inputs::{self, sub_seed};
use crate::layers::{Counters, Kernel, LayerLog};
use crate::report::Outcome;
use crate::trace::{Scope, Tracer};
use crate::{builder, ms, repeat_setup, scalar_mismatches, Run, THREADS};

type Pair = (Vec<u8>, Vec<u8>);

/// One client thread's traced pairs: (index, score, CIGAR), and its counts.
type ClientTrace = (Vec<(usize, i32, Option<String>)>, Counters);

/// Pairs each client aligns while warming up.
const WARM_PAIRS: usize = 16;

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let k = Kernel::new();
    let ascii = inputs::align(r.seed, &r.sizes);
    let alphabet = Alphabet::protein();
    let ((pairs, mut aligners), setup_s) = repeat_setup(
        r.sizes.setup_repeats,
        || (),
        |()| {
            let pairs: Vec<Pair> = ascii
                .iter()
                .map(|(q, t)| (alphabet.encode(q), alphabet.encode(t)))
                .collect();
            let mut aligners: Vec<Aligner> = (0..THREADS)
                .map(|_| builder().traceback(true).build())
                .collect();
            for (a, warm) in aligners.iter_mut().zip(pairs.chunks(WARM_PAIRS)) {
                for (q, t) in warm {
                    a.align(q, t);
                }
            }
            (pairs, aligners)
        },
    );
    let work: u64 = pairs.iter().map(|(q, t)| (q.len() * t.len()) as u64).sum();

    let mut out = Outcome::default();
    let (mut rounds, mut latency_ms) = (Vec::new(), Vec::new());
    let tracer = Tracer::default();
    let mut log = LayerLog::default();
    let mut clock = r.clock();
    while clock.next_round() {
        let round = clock.rounds() - 1;
        let t0 = Instant::now();
        let per_thread: Vec<Vec<(usize, AlignResult, f64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = aligners
                .iter_mut()
                .enumerate()
                .map(|(tid, a)| {
                    let pairs = &pairs;
                    s.spawn(move || {
                        (tid..pairs.len())
                            .step_by(THREADS)
                            .map(|i| {
                                let t = Instant::now();
                                let res = a.align(&pairs[i].0, &pairs[i].1);
                                (i, res, ms(t.elapsed()))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        rounds.push((work, wall));
        log.untraced_s.push(wall);
        let mut results: Vec<Option<AlignResult>> = vec![None; pairs.len()];
        for (i, res, lat) in per_thread.into_iter().flatten() {
            latency_ms.push(lat);
            results[i] = Some(res);
        }
        let results: Vec<AlignResult> = results
            .into_iter()
            .map(|r| r.expect("every pair aligned"))
            .collect();
        out.tally(pairs.len() as u64, 0);
        let bad = check(r, &k, &pairs, &results, round);
        out.tally(r.sizes.oracle_pairs as u64, bad);

        if r.trace {
            let t0 = Instant::now();
            let traced = Scope::root(&tracer, round as u64).span("bench.round", |sc| {
                traced_round(sc, &k, &pairs, &mut log.counters)
            });
            log.traced_s.push(t0.elapsed().as_secs_f64());
            log.rounds += 1;
            let differ = traced
                .iter()
                .zip(&results)
                .filter(|((score, cigar), res)| {
                    *score != res.score || *cigar != res.alignment.as_ref().map(|a| a.cigar())
                })
                .count();
            out.tally(traced.len() as u64, differ as u64);
        }
    }
    out.fact("rounds", clock.rounds());
    out.fact("pairs", pairs.len());
    out.fact("cells_per_round", work);
    if r.trace {
        out.spans = tracer.spans();
        out.metrics = log.metrics(&out.spans);
    } else {
        super::end_to_end(&mut out, setup_s, &rounds, latency_ms);
    }
    out
}

/// The aligner's traceback path, one public call per pair
/// (`adaptive_traceback` in a `core.diag` span), split over the client
/// threads the same way. Returns each pair's score and CIGAR.
fn traced_round(
    sc: Scope<'_>,
    k: &Kernel,
    pairs: &[Pair],
    total: &mut Counters,
) -> Vec<(i32, Option<String>)> {
    let per_thread: Vec<ClientTrace> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                s.spawn(move || {
                    sc.span("bench.client", |cl| {
                        let mut c = Counters::default();
                        let done = (tid..pairs.len())
                            .step_by(THREADS)
                            .map(|i| {
                                let (q, t) = &pairs[i];
                                let (tb, _) = cl.with_req(i as u64).span("core.diag", |_| {
                                    adaptive_traceback(
                                        k.engine,
                                        q,
                                        t,
                                        &k.scoring,
                                        k.gaps,
                                        k.threshold,
                                        &mut c.diag,
                                    )
                                });
                                (i, tb.score, tb.alignment.map(|a| a.cigar()))
                            })
                            .collect();
                        (done, c)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = vec![(0, None); pairs.len()];
    for (done, c) in per_thread {
        total.merge(&c);
        for (i, score, cigar) in done {
            out[i] = (score, cigar);
        }
    }
    out
}

/// Oracle check of one round: a seeded sample of pairs has the scalar
/// reference's score, and its alignment rescores to that score.
/// Returns the failed checks.
fn check(r: &Run, k: &Kernel, pairs: &[Pair], results: &[AlignResult], round: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(sub_seed(r.seed, 3000 + round as u64));
    let sample: Vec<usize> = (0..r.sizes.oracle_pairs)
        .map(|_| rng.gen_range(0..pairs.len()))
        .collect();
    let mut bad = 0;
    for &i in &sample {
        let (q, t) = &pairs[i];
        let res = &results[i];
        let rescored = res
            .alignment
            .as_ref()
            .map(|a| a.rescore(q, t, &k.scoring, k.gaps));
        if res.score > 0 && rescored != Some(res.score) {
            bad += 1;
        }
    }
    let items: Vec<(&[u8], &[u8], i32)> = sample
        .iter()
        .map(|&i| {
            (
                pairs[i].0.as_slice(),
                pairs[i].1.as_slice(),
                results[i].score,
            )
        })
        .collect();
    bad + scalar_mismatches(k, &items)
}
