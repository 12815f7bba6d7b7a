//! Figure regeneration: one function per figure of the paper's
//! evaluation (§IV). Each measures on this machine, projects across the
//! modeled testbed where the paper plots multiple architectures, prints
//! a table, and returns its [`FigureRecord`]; the `figures` binary
//! writes the records to `results/figNN.json` (see EXPERIMENTS.md for
//! the paper-vs-measured comparison).

use serde_json::{json, Value};

use swsimd_baselines::striped::{build_profile, with_profile};
use swsimd_baselines::{sw_diag_classic_i16, sw_scan_i16};
use swsimd_core::batch::lanes_for;
use swsimd_core::diag::dispatch::{diag_score, diag_traceback};
use swsimd_core::{
    segment_census, Aligner, GapModel, GapPenalties, KernelStats, Precision, Scoring,
};
use swsimd_matrices::blosum62;
use swsimd_perf::{
    analyze, avx2_diag_i16, avx512_diag_i16, predict_gcups, scaling_curve, ArchId, ArchProfile,
    OpMix, VectorLicence,
};
use swsimd_runner::{scenario1, scenario2, scenario3};
use swsimd_simd::{EngineKind, SimdEngine};
use swsimd_tune::{
    gcc_space, relative_performance, run as ga_run, tuned_improvement, EvalWorkload, GaConfig,
    KernelKnobs, QueryBucket,
};

use crate::timing::{gcups, time_per_call, FigureRecord};
use crate::workload::{Scale, Workload};

fn aff() -> GapModel {
    GapModel::Affine(GapPenalties::new(11, 1))
}

fn ms(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 120,
        Scale::Full => 1_500,
    }
}

/// Measure GCUPS of a full database search with a configured aligner.
fn search_gcups(build: impl Fn() -> Aligner, w: &Workload, qi: usize, scale: Scale) -> f64 {
    let mut aligner = build();
    let q = &w.queries[qi].1;
    let secs = time_per_call(
        || {
            let hits = aligner.search(q, &w.db, 1);
            std::hint::black_box(&hits);
        },
        ms(scale),
    );
    gcups(w.cells(qi), secs)
}

/// Measure GCUPS of a pairwise kernel looped over database targets.
fn pairwise_gcups<F: FnMut(&[u8])>(
    targets: &[Vec<u8>],
    cells: u64,
    scale: Scale,
    mut per_target: F,
) -> f64 {
    let secs = time_per_call(
        || {
            for t in targets {
                per_target(t);
            }
        },
        ms(scale),
    );
    gcups(cells, secs)
}

// ---------------------------------------------------------------------
// Fig 6 — AVX2 (256) vs AVX-512 per architecture and query
// ---------------------------------------------------------------------

/// Regenerate Fig 6.
pub fn fig06(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let gaps = aff();
    let sample = w.db_sample(24, 1_000);
    let engines: Vec<EngineKind> = [EngineKind::Avx2, EngineKind::Avx512]
        .into_iter()
        .filter(|e| e.is_available())
        .collect();

    let mut measured = Vec::new();
    for (label, q) in &w.queries {
        let cells: u64 = q.len() as u64 * sample.iter().map(|t| t.len() as u64).sum::<u64>();
        let mut row = json!({ "query": label, "len": q.len() });
        for &engine in &engines {
            let g = pairwise_gcups(&sample, cells, scale, |t| {
                let mut st = KernelStats::default();
                let r = diag_score(engine, Precision::I16, q, t, &scoring, gaps, 16, &mut st);
                std::hint::black_box(r.score);
            });
            row[engine.name()] = json!(g);
        }
        measured.push(row);
    }

    // Cross-architecture projection (Skylake & Cascade Lake run AVX-512).
    let mut projected = Vec::new();
    for arch in [ArchId::SkylakeGold6132, ArchId::CascadeLakeGold6242] {
        let p = ArchProfile::get(arch);
        let a2 = predict_gcups(p, &avx2_diag_i16(0.1));
        let a5 = predict_gcups(p, &avx512_diag_i16(0.1));
        projected.push(json!({
            "arch": arch.name(), "avx2": a2, "avx512": a5, "ratio": a5 / a2,
        }));
    }

    let series = json!({ "measured_host": measured, "projected": projected });
    record("fig06", "AVX2 vs AVX-512 performance", scale, series)
}

// ---------------------------------------------------------------------
// Fig 7 — affine vs linear gap penalty
// ---------------------------------------------------------------------

/// Regenerate Fig 7.
pub fn fig07(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let mut rows = Vec::new();
    for qi in 0..w.queries.len() {
        let affine = search_gcups(
            || {
                Aligner::builder()
                    .matrix(blosum62())
                    .gaps(GapPenalties::new(11, 1))
                    .build()
            },
            &w,
            qi,
            scale,
        );
        // The paper-comparable "without affine" point: the same affine
        // machinery with open == extend (their designs differ only in
        // the gap model, not in which buffers exist).
        let linear_same_path = search_gcups(
            || {
                Aligner::builder()
                    .matrix(blosum62())
                    .gaps(GapPenalties::new(4, 4))
                    .build()
            },
            &w,
            qi,
            scale,
        );
        // Our dedicated linear path additionally skips the E/F state —
        // an optimization beyond the paper's comparison.
        let linear_dedicated = search_gcups(
            || Aligner::builder().matrix(blosum62()).linear_gap(4).build(),
            &w,
            qi,
            scale,
        );
        rows.push(json!({
            "query": w.queries[qi].0,
            "affine": affine,
            "linear_same_path": linear_same_path,
            "linear_dedicated": linear_dedicated,
            "affine_over_linear_same_path": affine / linear_same_path.max(1e-12),
        }));
    }
    let series = json!({ "measured_host": rows });
    record("fig07", "Affine vs linear gap penalty", scale, series)
}

// ---------------------------------------------------------------------
// Fig 8 — traceback on vs off
// ---------------------------------------------------------------------

/// Regenerate Fig 8.
pub fn fig08(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let gaps = aff();
    let sample = w.db_sample(16, 600);
    let engine = EngineKind::best();

    let mut rows = Vec::new();
    for (label, q) in &w.queries {
        if q.len() > 2_100 {
            continue; // keep O(mn) traceback storage bounded in Quick runs
        }
        let cells: u64 = q.len() as u64 * sample.iter().map(|t| t.len() as u64).sum::<u64>();
        let no_tb = pairwise_gcups(&sample, cells, scale, |t| {
            let mut st = KernelStats::default();
            let r = diag_score(engine, Precision::I16, q, t, &scoring, gaps, 16, &mut st);
            std::hint::black_box(r.score);
        });
        let with_tb = pairwise_gcups(&sample, cells, scale, |t| {
            let mut st = KernelStats::default();
            let r = diag_traceback(engine, Precision::I16, q, t, &scoring, gaps, 16, &mut st);
            std::hint::black_box(r.score);
        });
        rows.push(json!({
            "query": label, "without_traceback": no_tb, "with_traceback": with_tb,
            "overhead_pct": (no_tb / with_tb.max(1e-12) - 1.0) * 100.0,
        }));
    }
    let series = json!({ "measured_host": rows });
    record("fig08", "Traceback on vs off", scale, series)
}

// ---------------------------------------------------------------------
// Fig 9 — substitution matrix vs fixed scores (+ bit-width ablation)
// ---------------------------------------------------------------------

/// Regenerate Fig 9 plus the §IV-C 8-vs-16-bit ablation.
pub fn fig09(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let fixed = Scoring::Fixed {
        r#match: 5,
        mismatch: -4,
    };
    let gaps = aff();
    let engine = EngineKind::best();
    let sample = w.db_sample(24, 1_000);

    let mut rows = Vec::new();
    for (qi, (label, q)) in w.queries.iter().enumerate() {
        let cells: u64 = q.len() as u64 * sample.iter().map(|t| t.len() as u64).sum::<u64>();

        // The paper's headline comparison: the diagonal kernel with the
        // substitution matrix (gather scoring) vs fixed scores
        // (compare+blend) — gather pressure is the cost.
        let diag_matrix = pairwise_gcups(&sample, cells, scale, |t| {
            let mut st = KernelStats::default();
            std::hint::black_box(
                diag_score(engine, Precision::I16, q, t, &scoring, gaps, 16, &mut st).score,
            );
        });
        let diag_fixed = pairwise_gcups(&sample, cells, scale, |t| {
            let mut st = KernelStats::default();
            std::hint::black_box(
                diag_score(engine, Precision::I16, q, t, &fixed, gaps, 16, &mut st).score,
            );
        });

        // The repaired path: database search through the 8-bit LUT
        // batch kernel, where the matrix premium nearly vanishes
        // ("the performance is now comparable", §IV-C).
        let search_matrix = search_gcups(
            || Aligner::builder().matrix(blosum62()).build(),
            &w,
            qi,
            scale,
        );
        let search_fixed = search_gcups(
            || Aligner::builder().fixed_scores(5, -4).build(),
            &w,
            qi,
            scale,
        );

        // Bit-width ablation on the matrix path.
        let g8_emulated = pairwise_gcups(&sample, cells, scale, |t| {
            let mut st = KernelStats::default();
            std::hint::black_box(
                diag_score(engine, Precision::I8, q, t, &scoring, gaps, 16, &mut st).score,
            );
        });

        rows.push(json!({
            "query": label,
            "diag_kernel": {
                "with_matrix": diag_matrix,
                "without_matrix": diag_fixed,
                "matrix_cost_pct": (diag_fixed / diag_matrix.max(1e-12) - 1.0) * 100.0,
            },
            "batch_search": {
                "with_matrix": search_matrix,
                "without_matrix": search_fixed,
                "matrix_cost_pct": (search_fixed / search_matrix.max(1e-12) - 1.0) * 100.0,
            },
            "bits_ablation": {
                "i16_gather_diag": diag_matrix,
                "i8_emulated_gather_diag": g8_emulated,
                "i8_lut_batch_search": search_matrix,
            },
        }));
    }
    let series = json!({ "measured_host": rows });
    record(
        "fig09",
        "With vs without substitution matrix",
        scale,
        series,
    )
}

// ---------------------------------------------------------------------
// Fig 10 — GA hyperparameter tuning improvements
// ---------------------------------------------------------------------

/// Regenerate Fig 10.
pub fn fig10(scale: Scale) -> FigureRecord {
    // Modeled GCC-flag tuning per architecture and query bucket.
    let space = gcc_space();
    let cfg = match scale {
        Scale::Quick => GaConfig {
            population: 16,
            generations: 8,
            seed: 7,
            ..Default::default()
        },
        Scale::Full => GaConfig {
            population: 24,
            generations: 12,
            seed: 7,
            ..Default::default()
        },
    };
    let mut per_arch = Vec::new();
    for arch in ArchId::ALL {
        let mut buckets = serde_json::Map::new();
        for bucket in QueryBucket::ALL {
            let r = ga_run(&space, &cfg, |g| {
                relative_performance(&space, g, arch, bucket)
            });
            let gain = tuned_improvement(&space, &r.best.genome, arch, bucket);
            buckets.insert(format!("{bucket:?}"), json!((gain - 1.0) * 100.0));
        }
        per_arch.push(json!({ "arch": arch.name(), "improvement_pct": buckets }));
    }

    // Real kernel-knob tuning on this machine.
    let workload = match scale {
        Scale::Quick => EvalWorkload::standard(96, 64, 7),
        Scale::Full => EvalWorkload::standard(290, 256, 7),
    };
    let kcfg = GaConfig {
        population: 8,
        generations: 4,
        seed: 42,
        ..Default::default()
    };
    let (knobs, result) = swsimd_tune::tune_kernel(&workload, &kcfg);
    let baseline = swsimd_tune::measure_gcups(
        &KernelKnobs {
            scalar_threshold: lanes_for(EngineKind::best()),
            batch_sort: true,
            precision_policy: 0,
            block_diagonals: 64,
        },
        &workload,
    );
    let real = json!({
        "baseline_gcups": baseline,
        "tuned_gcups": result.best.fitness,
        "improvement_pct": (result.best.fitness / baseline.max(1e-12) - 1.0) * 100.0,
        "best_knobs": format!("{knobs:?}"),
        "evaluations": result.evaluations,
        "history": result.history,
    });

    // §IV-I future work, implemented: phase ordering + selection via a
    // permutation GA over the modeled pass pipeline.
    let phase: Vec<Value> = ArchId::ALL
        .iter()
        .map(|&arch| {
            let r = swsimd_tune::tune_phase_order(arch, &swsimd_tune::PhaseGaConfig::default());
            json!({
                "arch": arch.name(),
                "improvement_pct": (r.best_fitness / r.default_fitness - 1.0) * 100.0,
                "pipeline": r.best.describe(),
            })
        })
        .collect();

    let series = json!({
        "modeled_gcc_flags": per_arch,
        "real_kernel_knobs": real,
        "phase_ordering_future_work": phase,
    });
    record(
        "fig10",
        "Performance improvement after hyperparameter tuning",
        scale,
        series,
    )
}

// ---------------------------------------------------------------------
// Fig 11 — thread scaling with frequency recalibration
// ---------------------------------------------------------------------

/// Regenerate Fig 11.
pub fn fig11(scale: Scale) -> FigureRecord {
    // Model: per-arch speedup curves at the paper's thread points.
    let mut per_arch = Vec::new();
    for arch in ArchId::ALL {
        let p = ArchProfile::get(arch);
        let counts = [1, p.cores / 2, p.cores, p.logical_cpus()];
        let pts = scaling_curve(p, VectorLicence::Avx2, &counts);
        per_arch.push(json!({
            "arch": arch.name(),
            "cores": p.cores,
            "points": pts.iter().map(|s| json!({
                "threads": s.threads,
                "ghz": s.ghz,
                "speedup": s.speedup,
                "naive_speedup": s.naive_speedup,
                "recalibrated_efficiency":
                    swsimd_perf::recalibrated_efficiency(p, VectorLicence::Avx2, s.threads),
            })).collect::<Vec<_>>(),
        }));
    }

    // Host measurement: wall-clock scaling of parallel_search (honest —
    // on a single-core container this is flat, and recorded as such).
    let w = Workload::standard(Scale::Quick);
    let q = &w.queries[2].1;
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut host = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut run = || {
            let out = swsimd_runner::parallel_search(
                q,
                &w.db,
                &swsimd_runner::PoolConfig {
                    threads,
                    ..Default::default()
                },
                || Aligner::builder().matrix(blosum62()),
            );
            std::hint::black_box(out.hits.len());
        };
        let secs = time_per_call(&mut run, ms(scale));
        host.push(json!({
            "threads": threads,
            "gcups": gcups(q.len() as u64 * w.db.total_residues() as u64, secs),
        }));
    }
    // Measured effective frequency (the paper's microbenchmark).
    let ghz = swsimd_perf::measure_effective_ghz(60);

    let series = json!({
        "modeled": per_arch,
        "measured_host": { "available_parallelism": host_parallelism, "points": host,
                            "effective_ghz": ghz },
    });
    record(
        "fig11",
        "Thread scaling with frequency recalibration",
        scale,
        series,
    )
}

// ---------------------------------------------------------------------
// Fig 12 — top-down pipeline analysis (VTune stand-in)
// ---------------------------------------------------------------------

/// Regenerate Fig 12 (a: backend split, b: slots vs threads, c: per query).
pub fn fig12(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let gaps = aff();
    let engine = EngineKind::best();
    let sky = ArchProfile::get(ArchId::SkylakeGold6132);

    // Drive the model with *measured* per-query scalar fractions.
    let lanes = match engine {
        EngineKind::Avx512 => 32,
        EngineKind::Avx2 => 16,
        _ => 8,
    };
    let sample = w.db_sample(12, 800);
    let mut per_query = Vec::new();
    for (label, q) in &w.queries {
        let mut st = KernelStats::default();
        for t in &sample {
            let _ = diag_score(engine, Precision::I16, q, t, &scoring, gaps, lanes, &mut st);
        }
        let sf = st.scalar_fraction();
        let mix = OpMix::diag_matrix(2, lanes, sf);
        let td1 = analyze(sky, &mix, 1);
        let td2 = analyze(sky, &mix, 2);
        per_query.push(json!({
            "query": label,
            "scalar_fraction_measured": sf,
            "padding_fraction_measured": st.padding_fraction(),
            "retiring_1t": td1.retiring,
            "retiring_2t_smt": td2.retiring,
        }));
    }

    // (a) backend split with vs without substitution matrix.
    let with_m = analyze(sky, &OpMix::diag_matrix(2, lanes, 0.05), 1);
    let without_m = analyze(sky, &OpMix::diag_fixed(2, lanes, 0.05), 1);
    let split = json!({
        "with_matrix": { "core_bound": with_m.core_bound, "memory_bound": with_m.memory_bound,
                          "retiring": with_m.retiring },
        "without_matrix": { "core_bound": without_m.core_bound,
                             "memory_bound": without_m.memory_bound,
                             "retiring": without_m.retiring },
    });

    // (b) slot efficiency vs threads for the large-batch mix.
    let batch_mix = OpMix::batch_lut(lanes_for(engine));
    let slots_vs_threads: Vec<Value> = [1usize, 2]
        .iter()
        .map(|&smt| {
            let td = analyze(sky, &batch_mix, smt);
            json!({ "smt_threads": smt, "retiring": td.retiring,
                     "backend_bound": td.backend_bound() })
        })
        .collect();

    // The memory-bound question, answered by roofline placement with
    // measured working sets (§I, §IV-E/F).
    let roofline: Vec<Value> = [47usize, 290, 1_021]
        .iter()
        .map(|&qlen| {
            let ws = swsimd_perf::diag_working_set(sky, qlen, 2, lanes);
            let p = swsimd_perf::roofline_place(
                sky,
                swsimd_perf::VectorLicence::Avx2,
                lanes,
                &OpMix::diag_matrix(2, lanes, 0.05),
                &ws,
                qlen,
                2,
            );
            json!({
                "query_len": qlen,
                "working_set_level": format!("{}", ws.level),
                "bound": format!("{:?}", p.bound),
                "compute_roof_gcups": p.compute_roof_gcups,
                "bandwidth_roof_gcups": p.bandwidth_roof_gcups,
            })
        })
        .collect();

    let series = json!({
        "backend_split": split,
        "slots_vs_threads": slots_vs_threads,
        "per_query": per_query,
        "roofline": roofline,
    });
    record("fig12", "Top-down pipeline-slot analysis", scale, series)
}

// ---------------------------------------------------------------------
// Fig 13 — usage scenarios
// ---------------------------------------------------------------------

/// Regenerate Fig 13.
pub fn fig13(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let builder = || Aligner::builder().matrix(blosum62());

    // Scenario 1 vs 2 needs a database large enough that per-query
    // setup (batch reorganization, first-touch) is a visible cost;
    // the standard Quick database is fully cache-resident.
    let w = {
        let db = swsimd_seq::generate_database(&swsimd_seq::SynthConfig {
            n_seqs: match scale {
                Scale::Quick => 768,
                Scale::Full => 1 << 13,
            },
            max_len: 2_000,
            ..Default::default()
        });
        Workload { db, ..w }
    };

    // One shared query set for Scenarios 1 and 2, so the comparison
    // isolates the deployment (per-query vs accumulated batch).
    let batch: Vec<Vec<u8>> = w
        .queries
        .iter()
        .cycle()
        .take(16)
        .map(|(_, q)| q.clone())
        .collect();

    // Scenario 1: each query processed independently (per-query setup
    // costs paid every time).
    let t1 = crate::timing::time_per_call(
        || {
            for q in &batch {
                let r = scenario1(q, &w.db, threads, builder);
                std::hint::black_box(r.alignments);
            }
        },
        ms(scale) * 3,
    );
    let total_cells: u64 =
        batch.iter().map(|q| q.len() as u64).sum::<u64>() * w.db.total_residues() as u64;
    let s1_gcups = gcups(total_cells, t1);

    // Scenario 2: the same queries accumulated and processed as one
    // batch over a shared pre-batched database.
    let t2 = crate::timing::time_per_call(
        || {
            let r = scenario2(&batch, &w.db, threads, builder);
            std::hint::black_box(r.alignments);
        },
        ms(scale) * 3,
    );
    let s2_gcups = gcups(total_cells, t2);

    // Scenario 3: small sets — short queries vs a 64-sequence database.
    let small_records: Vec<swsimd_seq::SeqRecord> = (0..64)
        .map(|i| swsimd_seq::generate_exact(80 + (i % 5) * 20, 0x530 + i as u64))
        .collect();
    let small_db = swsimd_seq::Database::from_records(small_records, blosum62().alphabet());
    let queries3: Vec<Vec<u8>> = (0..8)
        .map(|i| {
            blosum62()
                .alphabet()
                .encode(&swsimd_seq::generate_exact(64, i).seq)
        })
        .collect();
    let s3 = scenario3(&queries3, &small_db, builder);

    let series = json!({
        "scenario1_per_query": { "gcups": s1_gcups, "queries": batch.len() },
        "scenario2_query_batch": { "gcups": s2_gcups, "queries": batch.len() },
        "scenario3_small_sets": { "gcups": s3.throughput.gcups(), "alignments": s3.alignments },
        "batch_over_single_ratio": s2_gcups / s1_gcups.max(1e-12),
    });
    record(
        "fig13",
        "Performance for different SW usage scenarios",
        scale,
        series,
    )
}

// ---------------------------------------------------------------------
// Fig 14 — comparison with the Parasail-style baselines
// ---------------------------------------------------------------------

/// Regenerate Fig 14 (and the headline speedups).
///
/// Every implementation runs its best database-search configuration,
/// as the paper benchmarks libraries, not inner loops:
/// * **ours** — the combined kernel: 8-bit LUT batch search with
///   adaptive promotion of saturated lanes (database pre-batched once,
///   offline, per §III-C);
/// * **Parasail striped** — 8-bit striped with a per-query amortized
///   profile and 16-bit reruns on saturation (Parasail's `sat` pattern);
/// * **Parasail scan / diag** — 16-bit (their stable configurations).
pub fn fig14(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let gaps = aff();
    let engine = EngineKind::best();
    let max_t = match scale {
        Scale::Quick => 400,
        Scale::Full => 4_000,
    };
    let target_count = if scale == Scale::Quick { 48 } else { 256 };
    let targets = w.db_sample(target_count, max_t);

    // The shared mini-database for our batch path (built once, offline).
    let records: Vec<swsimd_seq::SeqRecord> = targets
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let ascii = blosum62().alphabet().decode(t);
            swsimd_seq::SeqRecord::new(format!("t{i}"), ascii)
        })
        .collect();
    let sample_db = swsimd_seq::Database::from_records(records, blosum62().alphabet());
    let batched = swsimd_seq::BatchedDatabase::build(&sample_db, lanes_for(engine), true);

    let mut rows = Vec::new();
    let mut sums = (0.0f64, 0.0f64, 0.0f64, 0usize);
    for (label, q) in &w.queries {
        let cells: u64 = q.len() as u64 * targets.iter().map(|t| t.len() as u64).sum::<u64>();

        // Ours: batch search with adaptive promotion.
        let mut aligner = Aligner::builder().matrix(blosum62()).build();
        let secs = time_per_call(
            || {
                let hits = aligner.search_batched(q, &sample_db, &batched);
                std::hint::black_box(hits.len());
            },
            ms(scale),
        );
        let ours = gcups(cells, secs);

        // Striped, Parasail-style: 8-bit profile amortized per query,
        // saturated targets rerun at 16-bit.
        let (prof8, prof16) = match engine {
            EngineKind::Avx512 => (
                build_profile::<<swsimd_simd::Avx512 as SimdEngine>::V8>(q, &scoring),
                build_profile::<<swsimd_simd::Avx512 as SimdEngine>::V16>(q, &scoring),
            ),
            EngineKind::Avx2 => (
                build_profile::<<swsimd_simd::Avx2 as SimdEngine>::V8>(q, &scoring),
                build_profile::<<swsimd_simd::Avx2 as SimdEngine>::V16>(q, &scoring),
            ),
            EngineKind::Sse41 => (
                build_profile::<<swsimd_simd::Sse41 as SimdEngine>::V8>(q, &scoring),
                build_profile::<<swsimd_simd::Sse41 as SimdEngine>::V16>(q, &scoring),
            ),
            EngineKind::Scalar => (
                build_profile::<<swsimd_simd::Scalar as SimdEngine>::V8>(q, &scoring),
                build_profile::<<swsimd_simd::Scalar as SimdEngine>::V16>(q, &scoring),
            ),
        };
        let mut corrections = 0u64;
        let striped = pairwise_gcups(&targets, cells, scale, |t| {
            let mut st = KernelStats::default();
            let r8 = with_profile::striped_i8(engine, &prof8, t, gaps, &mut st);
            if r8.saturated {
                std::hint::black_box(
                    with_profile::striped_i16(engine, &prof16, t, gaps, &mut st).score,
                );
            } else {
                std::hint::black_box(r8.score);
            }
            corrections += st.correction_loops;
        });

        let scan = pairwise_gcups(&targets, cells, scale, |t| {
            let mut st = KernelStats::default();
            std::hint::black_box(sw_scan_i16(engine, q, t, &scoring, gaps, &mut st));
        });

        let diag_classic = pairwise_gcups(&targets, cells, scale, |t| {
            let mut st = KernelStats::default();
            std::hint::black_box(sw_diag_classic_i16(engine, q, t, &scoring, gaps, &mut st));
        });

        rows.push(json!({
            "query": label,
            "ours_gcups": ours,
            "parasail_striped": striped,
            "parasail_scan": scan,
            "parasail_diag": diag_classic,
            "speedup_vs_striped": ours / striped.max(1e-12),
            "speedup_vs_scan": ours / scan.max(1e-12),
            "speedup_vs_diag": ours / diag_classic.max(1e-12),
            "striped_correction_loops": corrections,
        }));
        sums.0 += ours / striped.max(1e-12);
        sums.1 += ours / scan.max(1e-12);
        sums.2 += ours / diag_classic.max(1e-12);
        sums.3 += 1;
    }
    let n = sums.3.max(1) as f64;
    let series = json!({
        "measured_host": rows,
        "mean_speedups": {
            "vs_striped": sums.0 / n,
            "vs_scan": sums.1 / n,
            "vs_diag": sums.2 / n,
            "paper_reported": { "vs_striped": 1.5, "vs_scan": 1.9, "vs_diag": 3.9 },
        },
    });
    record("fig14", "Ours vs Parasail scan/striped/diag", scale, series)
}

// ---------------------------------------------------------------------
// §III-B — diagonal segment census ("roughly around 15%")
// ---------------------------------------------------------------------

/// Regenerate the §III-B short-segment census.
pub fn segments(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let stats = swsimd_seq::length_stats(&w.db);
    let mut rows = Vec::new();
    for (label, q) in &w.queries {
        let mut per_threshold = serde_json::Map::new();
        for threshold in [16usize, 32, 64] {
            // Aggregate across the database length distribution using
            // the median and quartile-ish lengths.
            let mut short = 0u64;
            let mut total = 0u64;
            for n in [stats.median / 2, stats.median, stats.median * 2] {
                let (s, t) = segment_census(q.len(), n.max(1), threshold);
                short += s;
                total += t;
            }
            per_threshold.insert(
                format!("lanes{threshold}"),
                json!(short as f64 / total.max(1) as f64),
            );
        }
        rows.push(json!({ "query": label, "short_cell_fraction": per_threshold }));
    }
    let series = json!({ "db_median_len": stats.median, "rows": rows });
    record(
        "seg_census",
        "Short-segment cell fraction (§III-B)",
        scale,
        series,
    )
}

// ---------------------------------------------------------------------
// Portability analysis — paper contribution (vi)
// ---------------------------------------------------------------------

/// Measure the diagonal and batch kernels on **every** engine available
/// on this CPU (scalar emulation, SSE4.1, AVX2, AVX-512) — the paper's
/// "comprehensive portability analysis" of how the methods adapt across
/// platforms.
pub fn portability(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let gaps = aff();
    let targets = w.db_sample(16, 600);
    let (qlabel, q) = &w.queries[w.queries.len() / 2];
    let cells: u64 = q.len() as u64 * targets.iter().map(|t| t.len() as u64).sum::<u64>();

    let mut rows = Vec::new();
    for engine in EngineKind::available() {
        let diag16 = pairwise_gcups(&targets, cells, scale, |t| {
            let mut st = KernelStats::default();
            std::hint::black_box(
                diag_score(engine, Precision::I16, q, t, &scoring, gaps, 16, &mut st).score,
            );
        });
        // Batch search on this engine (its own lane count), against the
        // full workload database so every engine's batches fill their
        // lanes (a 16-sequence sample would leave a 64-lane engine 75%
        // padded — a real effect, but not the portability question).
        let batched = swsimd_seq::BatchedDatabase::build(&w.db, lanes_for(engine), true);
        let mut aligner = Aligner::builder().matrix(blosum62()).engine(engine).build();
        let secs = time_per_call(
            || {
                let hits = aligner.search_batched(q, &w.db, &batched);
                std::hint::black_box(hits.len());
            },
            ms(scale),
        );
        let batch8 = gcups(q.len() as u64 * w.db.total_residues() as u64, secs);
        rows.push(json!({
            "engine": engine.name(),
            "width_bits": engine.width_bits(),
            "diag_i16_gcups": diag16,
            "batch_i8_gcups": batch8,
        }));
    }
    let series = json!({ "query": qlabel, "measured_host": rows });
    record(
        "portability",
        "Kernel throughput across vector extensions",
        scale,
        series,
    )
}

// ---------------------------------------------------------------------
// Ablations — design-choice sweeps DESIGN.md calls out
// ---------------------------------------------------------------------

/// Ablation 1: the scalar-fallback threshold (Fig 3 design choice).
/// Sweeps the segment length below which the kernel reverts to scalar
/// code, reporting GCUPS and the measured scalar-cell fraction.
pub fn ablation_threshold(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let scoring = Scoring::matrix(blosum62());
    let gaps = aff();
    let engine = EngineKind::best();
    let targets = w.db_sample(16, 600);

    let mut rows = Vec::new();
    for (label, q) in w.queries.iter().step_by(2) {
        let cells: u64 = q.len() as u64 * targets.iter().map(|t| t.len() as u64).sum::<u64>();
        let mut sweep = Vec::new();
        for threshold in [1usize, 4, 8, 16, 32, 64, 128] {
            let mut stats = KernelStats::default();
            let g = pairwise_gcups(&targets, cells, scale, |t| {
                std::hint::black_box(
                    diag_score(
                        engine,
                        Precision::I16,
                        q,
                        t,
                        &scoring,
                        gaps,
                        threshold,
                        &mut stats,
                    )
                    .score,
                );
            });
            sweep.push(json!({
                "threshold": threshold,
                "gcups": g,
                "scalar_fraction": stats.scalar_fraction(),
                "padding_fraction": stats.padding_fraction(),
            }));
        }
        rows.push(json!({ "query": label, "sweep": sweep }));
    }
    let series = json!({ "measured_host": rows });
    record(
        "ablation_threshold",
        "Scalar-fallback threshold sweep (Fig 3 knob)",
        scale,
        series,
    )
}

/// Ablation 2: batch construction policy — length-sorted vs unsorted
/// batches (padding-fraction vs locality trade in the Fig 5 layout).
pub fn ablation_batching(scale: Scale) -> FigureRecord {
    let w = Workload::standard(scale);
    let q = &w.queries[w.queries.len() / 2].1;
    let mut rows = Vec::new();
    for sort in [false, true] {
        let lanes = lanes_for(EngineKind::best());
        let batched = swsimd_seq::BatchedDatabase::build(&w.db, lanes, sort);
        let mut aligner = Aligner::builder().matrix(blosum62()).build();
        let secs = time_per_call(
            || {
                let hits = aligner.search_batched(q, &w.db, &batched);
                std::hint::black_box(hits.len());
            },
            ms(scale),
        );
        rows.push(json!({
            "sorted_by_length": sort,
            "padding_fraction": batched.padding_fraction(),
            "gcups": gcups(q.len() as u64 * w.db.total_residues() as u64, secs),
        }));
    }
    let series = json!({ "measured_host": rows });
    record(
        "ablation_batching",
        "Length-sorted vs unsorted batches (Fig 5 layout)",
        scale,
        series,
    )
}

fn record(figure: &'static str, title: &'static str, scale: Scale, series: Value) -> FigureRecord {
    FigureRecord {
        figure,
        title,
        scale: format!("{scale:?}"),
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke tests: each figure function must run at Quick scale and
    // produce structurally-sane output. (Timing values are not checked.)

    #[test]
    fn fig06_smoke() {
        let v = fig06(Scale::Quick).series;
        assert!(v["measured_host"].as_array().unwrap().len() >= 4);
        let proj = v["projected"].as_array().unwrap();
        assert_eq!(proj.len(), 2);
        for p in proj {
            let ratio = p["ratio"].as_f64().unwrap();
            assert!(ratio < 1.9, "AVX-512/AVX2 {ratio} should be well below 2");
        }
    }

    #[test]
    fn fig13_smoke() {
        let v = fig13(Scale::Quick).series;
        assert!(v["scenario1_per_query"]["gcups"].as_f64().unwrap() > 0.0);
        assert!(v["scenario2_query_batch"]["gcups"].as_f64().unwrap() > 0.0);
        assert!(v["scenario3_small_sets"]["gcups"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn segments_census_near_paper_band() {
        let v = segments(Scale::Quick).series;
        // At 32 lanes the paper says roughly 15% of cells fall in short
        // segments for typical protein sizes; our census should land in
        // a generous band around that for the short/mid queries.
        let rows = v["rows"].as_array().unwrap();
        let f = rows[1]["short_cell_fraction"]["lanes32"].as_f64().unwrap();
        assert!((0.01..0.60).contains(&f), "fraction {f}");
    }

    #[test]
    fn fig12_smoke() {
        let v = fig12(Scale::Quick).series;
        let split = &v["backend_split"];
        assert!(
            split["with_matrix"]["core_bound"].as_f64().unwrap()
                > split["with_matrix"]["memory_bound"].as_f64().unwrap()
        );
        let svt = v["slots_vs_threads"].as_array().unwrap();
        assert!(svt[1]["retiring"].as_f64().unwrap() > svt[0]["retiring"].as_f64().unwrap());
    }
}
