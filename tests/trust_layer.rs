//! End-to-end kernel trust layer: the boot self-test battery, sampled
//! shadow verification, and the circuit-breaker demotion ladder.
//!
//! The headline scenario: a fault plan poisons the best backend's
//! scores, full-rate shadow verification catches every lie, the
//! breaker opens after `threshold` strikes and demotes the backend —
//! and the server keeps serving *exact* answers throughout, with the
//! whole episode visible in `health_line()` and a Prometheus scrape.
//!
//! Tests that mutate the process-global [`trust`] ladder serialize on
//! a mutex and reset the ladder on both entry and exit, so they cannot
//! contaminate each other (or the rest of this binary) regardless of
//! interleaving or panics.

use std::sync::{Arc, Mutex, MutexGuard};

use proptest::prelude::*;
use swsimd::core::{selftest, trust};
use swsimd::matrices::blosum62;
use swsimd::runner::{
    parallel_search, BatchServer, FaultPlan, PoolConfig, Sampler, ServeError, ServerConfig,
};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{
    run_battery, AlignError, Aligner, EngineKind, OnMismatch, ShadowConfig, TrustLadder, TrustState,
};

static GATE: Mutex<()> = Mutex::new(());

/// Exclusive access to the global trust ladder, reset on entry and
/// again on drop (even if the test panics mid-way).
struct LadderGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for LadderGuard {
    fn drop(&mut self) {
        trust::global().reset();
    }
}

fn exclusive_ladder() -> LadderGuard {
    let guard = GATE.lock().unwrap_or_else(|poison| poison.into_inner());
    trust::global().reset();
    LadderGuard(guard)
}

/// The widest available non-scalar engine — the natural victim for
/// demotion tests. `None` on a scalar-only host (nothing can demote).
fn widest_simd_engine() -> Option<EngineKind> {
    EngineKind::available()
        .into_iter()
        .rev()
        .find(|&e| e != EngineKind::Scalar)
}

fn small_db(n_seqs: usize) -> Arc<swsimd::seq::Database> {
    Arc::new(generate_database(&SynthConfig {
        n_seqs,
        median_len: 45.0,
        max_len: 90,
        ..Default::default()
    }))
}

fn query(len: usize, seed: u64) -> Vec<u8> {
    blosum62().alphabet().encode(&generate_exact(len, seed).seq)
}

/// (db_index, score) pairs in a canonical order, so server replies can
/// be compared against a reference search without depending on
/// tie-breaking in hit ordering.
fn canonical(hits: &[swsimd::Hit]) -> Vec<(usize, i32)> {
    let mut v: Vec<_> = hits.iter().map(|h| (h.db_index, h.score)).collect();
    v.sort_unstable();
    v
}

// ---------------------------------------------------------------- boot

/// The battery covers every engine the CPU offers, runs a non-trivial
/// number of checks per engine, and passes on healthy kernels.
#[test]
fn battery_covers_every_available_engine_and_passes() {
    let report = run_battery();
    assert!(
        report.all_passed(),
        "self-test failures on a healthy host: {:?}",
        report.failed_engines()
    );
    let covered: Vec<_> = report.outcomes.iter().map(|o| o.engine).collect();
    for e in EngineKind::available() {
        assert!(covered.contains(&e), "battery skipped available {e:?}");
    }
    assert_eq!(
        report.outcomes.len() + report.skipped.len(),
        EngineKind::ALL.len(),
        "every engine is either exercised or declared skipped"
    );
    for o in &report.outcomes {
        assert!(
            o.checks >= 20,
            "{:?} ran only {} checks",
            o.engine,
            o.checks
        );
    }
}

/// `boot()` runs the battery exactly once per process and hands every
/// caller the same cached report.
#[test]
fn boot_is_cached_and_idempotent() {
    let first = selftest::boot();
    let second = selftest::boot();
    assert!(std::ptr::eq(first, second), "boot re-ran the battery");
    assert!(first.all_passed());
}

// ----------------------------------------------------- breaker e2e

/// A poisoned backend trips the breaker; the server answers every
/// query exactly (shadow repair + demotion), and the episode shows up
/// in `health_line()` and the Prometheus scrape.
#[test]
fn poisoned_backend_trips_breaker_and_server_stays_exact() {
    let _gate = exclusive_ladder();
    let threshold = trust::global().threshold();
    let db = small_db(24);

    let server = BatchServer::start(
        Arc::clone(&db),
        ServerConfig {
            batch_size: 1,
            // Verify every served hit against the scalar reference.
            shadow: ShadowConfig {
                sample_rate: 1.0,
                on_mismatch: OnMismatch::Demote,
            },
            // Poison the top hit of the first `threshold` batches.
            fault_plan: FaultPlan::new().wrong_score_at(0, threshold),
            ..ServerConfig::default()
        },
        || Aligner::builder().matrix(blosum62()),
    );
    let client = server.client();

    let n_queries = u64::from(threshold) + 2;
    for i in 0..n_queries {
        let q = query(40, 0xB00 + i);
        let served = client
            .submit(q.clone(), db.len(), None)
            .and_then(|p| p.wait())
            .expect("server is up")
            .hits;
        // Scores are engine-independent, so a clean scalar search is
        // the exact expected answer even while the server degrades.
        let reference = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 1,
                ..PoolConfig::default()
            },
            || {
                Aligner::builder()
                    .matrix(blosum62())
                    .engine(EngineKind::Scalar)
            },
        );
        assert_eq!(
            canonical(&served),
            canonical(&reference.hits),
            "query {i} served a wrong score despite shadow verification"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.queries, n_queries);
    assert_eq!(
        stats.shadow_mismatches,
        u64::from(threshold),
        "each poisoned batch is one mismatch"
    );
    assert!(stats.shadow_checks >= n_queries * db.len() as u64);
    assert_eq!(stats.degraded_batches, 0, "shadow repair is not a retry");

    let health = server.health_line();
    assert!(
        health.contains(&format!("shadow_mismatches={threshold}")),
        "{health}"
    );
    let scrape = server.prometheus_text();
    assert!(
        scrape.contains("swsimd_server_shadow_mismatches_total"),
        "{scrape}"
    );
    assert!(
        scrape.contains("swsimd_server_shadow_checks_total"),
        "{scrape}"
    );

    // Demotion itself needs a demotable (non-scalar) engine.
    if EngineKind::best() != EngineKind::Scalar {
        assert_eq!(stats.backend_demotions, 1, "breaker opened exactly once");
        assert_eq!(
            trust::global().state(EngineKind::best()),
            TrustState::Demoted
        );
        assert_ne!(
            trust::effective_engine(EngineKind::best()),
            EngineKind::best(),
            "dispatch routes around the demoted backend"
        );
        assert!(health.contains("backend_demotions=1"), "{health}");
        assert!(
            scrape.contains("swsimd_server_backend_demotions_total"),
            "{scrape}"
        );
        assert!(
            scrape.contains("swsimd_backend_demotions_total"),
            "{scrape}"
        );
    }
    server.shutdown();
}

/// A mismatch under `OnMismatch::Record` counts but never demotes:
/// observe-only mode for cautious rollouts.
#[test]
fn record_mode_observes_without_demoting() {
    let _gate = exclusive_ladder();
    let db = small_db(12);
    let server = BatchServer::start(
        Arc::clone(&db),
        ServerConfig {
            batch_size: 1,
            shadow: ShadowConfig {
                sample_rate: 1.0,
                on_mismatch: OnMismatch::Record,
            },
            fault_plan: FaultPlan::new().wrong_score_at(0, 10),
            ..ServerConfig::default()
        },
        || Aligner::builder().matrix(blosum62()),
    );
    let client = server.client();
    for i in 0..5u64 {
        client
            .submit(query(30, 0xCAFE + i), 3, None)
            .and_then(|p| p.wait())
            .expect("server is up");
    }
    let stats = server.shutdown();
    assert_eq!(stats.shadow_mismatches, 5);
    assert_eq!(stats.backend_demotions, 0, "Record mode never demotes");
    assert_eq!(
        trust::global().state(EngineKind::best()),
        TrustState::Trusted
    );
}

// ------------------------------------------------------- probation

/// A demoted-but-actually-healthy engine re-earns trust through the
/// probation battery; dispatch resumes using it.
#[test]
fn probation_retest_repromotes_a_healthy_engine() {
    let _gate = exclusive_ladder();
    let Some(victim) = widest_simd_engine() else {
        return; // scalar-only host: nothing can demote
    };
    let ladder = trust::global();
    assert!(ladder.mark_failed(victim, "injected"));
    assert_eq!(ladder.state(victim), TrustState::Demoted);
    assert_ne!(trust::effective_engine(victim), victim);

    // The silicon is fine, so the battery passes and trust returns.
    assert!(
        selftest::probation_retest(victim),
        "healthy engine re-promotes"
    );
    assert_eq!(ladder.state(victim), TrustState::Trusted);
    assert_eq!(ladder.strikes(victim), 0, "strikes reset on re-promotion");
    assert_eq!(trust::effective_engine(victim), victim);
    assert!(ladder.repromotions() >= 1);
}

// ----------------------------------------------------- typed errors

/// Forcing an unusable engine is a typed refusal — missing ISA and
/// trust-demoted both — at the builder, and at server admission.
#[test]
fn forced_engine_gets_typed_refusal_not_silent_fallback() {
    let _gate = exclusive_ladder();

    for e in EngineKind::ALL {
        if e.is_available() {
            continue;
        }
        let err = Aligner::builder()
            .matrix(blosum62())
            .engine(e)
            .try_build()
            .map(|_| ())
            .expect_err("missing ISA must not silently fall back");
        assert!(
            matches!(err, AlignError::EngineUnavailable { requested, .. } if requested == e),
            "{err}"
        );
    }

    let Some(victim) = widest_simd_engine() else {
        return;
    };
    trust::global().mark_failed(victim, "injected");
    let err = Aligner::builder()
        .matrix(blosum62())
        .engine(victim)
        .try_build()
        .map(|_| ())
        .expect_err("demoted engine must not silently fall back");
    assert!(
        matches!(err, AlignError::EngineUnavailable { requested, .. } if requested == victim),
        "{err}"
    );
    assert!(err.to_string().contains("demoted"), "{err}");

    let err = BatchServer::try_start(small_db(4), ServerConfig::default(), move || {
        Aligner::builder().matrix(blosum62()).engine(victim)
    })
    .err()
    .expect("server admission refuses a demoted engine");
    assert!(
        matches!(err, ServeError::EngineUnavailable { requested, .. } if requested == victim),
        "{err}"
    );
}

// ------------------------------------------------- ladder invariants

fn ladder_invariants_hold(l: &TrustLadder) {
    assert!(l.usable(EngineKind::Scalar), "scalar is the floor");
    assert!(!l.trusted_engines().is_empty(), "never zero backends");
    for r in EngineKind::ALL {
        let eff = l.effective(r);
        assert!(l.usable(eff), "effective({r:?}) = {eff:?} must be usable");
    }
}

/// Deterministic hammer: demote everything demotable, repeatedly —
/// the ladder still terminates at scalar and never goes empty.
/// (The proptest below explores the same invariants over random op
/// sequences; this twin guarantees coverage even where the property
/// runner is unavailable.)
#[test]
fn hammered_ladder_terminates_at_scalar() {
    let l = TrustLadder::with_threshold(1);
    for round in 0..3 {
        for e in EngineKind::ALL {
            for _ in 0..5 {
                l.record_strike(e);
            }
            l.mark_failed(e, "hammer");
            ladder_invariants_hold(&l);
        }
        assert_eq!(l.trusted_engines(), vec![EngineKind::Scalar]);
        for e in EngineKind::ALL {
            assert_eq!(l.effective(e), EngineKind::Scalar);
        }
        // Failed probation keeps it demoted; invariants still hold.
        l.probation_outcome(EngineKind::Avx2, round == 2);
        ladder_invariants_hold(&l);
    }
}

proptest! {
    /// Any sequence of strikes / hard failures / probation outcomes
    /// leaves at least one usable backend, keeps scalar usable, and
    /// keeps `effective()` pointing at a usable engine — after every
    /// single step, not just at the end.
    #[test]
    fn prop_demotion_ladder_never_disables_all_backends(
        threshold in 1u32..5,
        ops in proptest::collection::vec((0usize..4, 0u8..3, 0u8..2), 0..80),
    ) {
        let l = TrustLadder::with_threshold(threshold);
        for (engine_idx, op, pass) in ops {
            let e = EngineKind::ALL[engine_idx];
            match op {
                0 => { l.record_strike(e); }
                1 => { l.mark_failed(e, "prop"); }
                _ => { l.probation_outcome(e, pass == 1); }
            }
            prop_assert!(l.usable(EngineKind::Scalar));
            prop_assert!(!l.trusted_engines().is_empty());
            for r in EngineKind::ALL {
                prop_assert!(l.usable(l.effective(r)));
            }
        }
    }
}

// ---------------------------------------------------------- sampler

/// The shadow sampler is a deterministic stride, not a coin flip:
/// exactly ⌊n·rate⌋ or ⌈n·rate⌉ of any n calls sample, and rate 0
/// never samples (the zero-overhead configuration).
#[test]
fn shadow_sampler_strides_deterministically() {
    let zero = Sampler::new(0.0);
    assert_eq!((0..10_000).filter(|_| zero.should_sample()).count(), 0);

    let full = Sampler::new(1.0);
    assert_eq!((0..10_000).filter(|_| full.should_sample()).count(), 10_000);

    for rate in [0.5, 0.25, 0.1, 0.01] {
        let s = Sampler::new(rate);
        let n = 10_000usize;
        let hits = (0..n).filter(|_| s.should_sample()).count();
        let expected = (n as f64 * rate) as usize;
        assert!(
            hits.abs_diff(expected) <= 1,
            "rate {rate}: {hits} of {n} sampled, expected ~{expected}"
        );
    }
}
