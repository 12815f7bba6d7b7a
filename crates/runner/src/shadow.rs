//! Sampled shadow verification: recompute a configurable fraction of
//! production results on the scalar reference and compare.
//!
//! The fast path's only systematic check is structural (one hit per
//! database sequence); a backend computing *wrong scores* passes it.
//! Shadow verification closes that hole: a deterministic [`Sampler`]
//! picks a `sample_rate` fraction of served hits, each sampled hit is
//! recomputed with [`swsimd_core::sw_scalar`], and a disagreement is a
//! **shadow mismatch** — counted, traced, repaired (the client always
//! receives the reference score), and — under
//! [`OnMismatch::Demote`] — charged as a strike against the backend in
//! the global [`swsimd_core::trust`] ladder, where enough strikes open
//! the circuit breaker and demote dispatch to the next weaker ISA.
//!
//! At `sample_rate = 0` (the default) the cost is one branch per hit;
//! the `obs_overhead` bench gate holds it to the same <1% budget as
//! the tracing probes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use swsimd_core::{
    sw_scalar, sw_scalar_traceback, AlignResult, AlignerBuilder, GapModel, Hit, Scoring,
};
use swsimd_seq::Database;

/// What to do beyond counting when a sampled result disagrees with the
/// scalar reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnMismatch {
    /// Count and trace only (monitoring mode).
    Record,
    /// Count, trace, and charge a strike against the backend in the
    /// global trust ladder (circuit-breaker mode, the default).
    #[default]
    Demote,
}

/// Shadow-verification policy carried by [`crate::PoolConfig`] and
/// [`crate::ServerConfig`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShadowConfig {
    /// Fraction of served hits recomputed on the scalar reference
    /// (0.0 = off, 1.0 = every hit). Clamped to [0, 1].
    pub sample_rate: f64,
    /// Mismatch policy.
    pub on_mismatch: OnMismatch,
}

impl Default for ShadowConfig {
    fn default() -> Self {
        Self {
            sample_rate: 0.0,
            on_mismatch: OnMismatch::Demote,
        }
    }
}

impl ShadowConfig {
    /// Verify every served hit (test/canary mode).
    pub fn full() -> Self {
        Self {
            sample_rate: 1.0,
            ..Self::default()
        }
    }

    /// Verify a fraction of served hits.
    pub fn sampled(rate: f64) -> Self {
        Self {
            sample_rate: rate,
            ..Self::default()
        }
    }

    /// True when any sampling can occur.
    pub fn enabled(&self) -> bool {
        self.sample_rate > 0.0
    }
}

/// Deterministic stride sampler: a 32.32 fixed-point accumulator adds
/// `rate` per call and samples on every integer carry, so a rate of
/// 0.25 samples exactly every 4th call — no RNG on the hot path, and
/// rate 0 is a single load-and-branch.
#[derive(Debug)]
pub struct Sampler {
    acc: AtomicU64,
    step: u64,
}

impl Sampler {
    /// Sampler for a [0, 1] rate (clamped).
    pub fn new(rate: f64) -> Self {
        let step = (rate.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
        Self {
            acc: AtomicU64::new(0),
            step,
        }
    }

    /// Draw one decision. Thread-safe; over any window of `n` calls the
    /// number of `true`s is `⌊n·rate⌋` or `⌈n·rate⌉`.
    #[inline]
    pub fn should_sample(&self) -> bool {
        if self.step == 0 {
            return false;
        }
        let prev = self.acc.fetch_add(self.step, Relaxed);
        let next = prev.wrapping_add(self.step);
        (next >> 32) != (prev >> 32)
    }
}

/// Per-search shadow-verification outcome, folded into
/// [`crate::FaultStats`] and the batch server's [`crate::ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShadowOutcome {
    /// Hits recomputed on the scalar reference.
    pub checks: u64,
    /// Recomputed hits that disagreed with the served score.
    pub mismatches: u64,
    /// Strikes that opened the breaker (backend demotions).
    pub demotions: u64,
}

/// A [`ShadowConfig`] bound to its [`Sampler`]: the object workers
/// consult per served hit. Shared by reference across partition
/// workers so the sampling stride spans the whole search.
#[derive(Debug)]
pub struct ShadowVerifier {
    config: ShadowConfig,
    sampler: Sampler,
}

impl ShadowVerifier {
    /// Bind a config to a fresh sampler.
    pub fn new(config: ShadowConfig) -> Self {
        let sampler = Sampler::new(config.sample_rate);
        Self { config, sampler }
    }

    /// The bound policy.
    pub fn config(&self) -> &ShadowConfig {
        &self.config
    }

    /// Verify a sampled subset of `hits` (global database indices)
    /// against the scalar reference, repairing any mismatching score so
    /// the caller still serves exact results. Mismatches are traced,
    /// counted, and — in [`OnMismatch::Demote`] mode — charged against
    /// `make_aligner`'s engine in the global trust ladder.
    pub fn verify_hits<F>(
        &self,
        query: &[u8],
        db: &Database,
        hits: &mut [Hit],
        make_aligner: &F,
    ) -> ShadowOutcome
    where
        F: Fn() -> AlignerBuilder,
    {
        let mut out = ShadowOutcome::default();
        if !self.config.enabled() {
            return out;
        }
        // Scoring params and the engine to attribute mismatches to are
        // built lazily: most calls at low rates draw no samples.
        let mut aligner = None;
        for h in hits.iter_mut() {
            if !self.sampler.should_sample() {
                continue;
            }
            let a = aligner.get_or_insert_with(|| make_aligner().build());
            out.checks += 1;
            let want = sw_scalar(
                query,
                &db.encoded(h.db_index).idx,
                a.scoring(),
                a.gap_model(),
            )
            .score;
            if h.score == want {
                continue;
            }
            out.mismatches += 1;
            let engine = swsimd_core::trust::effective_engine(a.engine());
            swsimd_obs::event!(
                "shadow_mismatch",
                "engine" => engine.name(),
                "db_index" => h.db_index,
                "served" => i64::from(h.score),
                "reference" => i64::from(want),
            );
            swsimd_obs::global()
                .counter(
                    "swsimd_shadow_mismatches_total",
                    "Sampled results that disagreed with the scalar reference.",
                    &[("engine", engine.name())],
                )
                .inc();
            if self.config.on_mismatch == OnMismatch::Demote
                && swsimd_core::trust::global().record_strike(engine)
            {
                out.demotions += 1;
            }
            // The client always gets the reference answer.
            h.score = want;
        }
        out
    }
}

/// Compare a full traceback result against the scalar reference:
/// score, end position, and (when an alignment is present) that the
/// CIGAR rescores to the reported score. Used by the shadow path for
/// traceback-serving deployments and by the self-test battery's e2e
/// checks.
pub fn verify_result(
    query: &[u8],
    target: &[u8],
    scoring: &Scoring,
    gaps: GapModel,
    result: &AlignResult,
) -> bool {
    let want = sw_scalar_traceback(query, target, scoring, gaps);
    if result.score != want.score {
        return false;
    }
    if result.end.is_some() && result.end != want.end {
        return false;
    }
    match &result.alignment {
        Some(aln) => aln.rescore(query, target, scoring, gaps) == result.score,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_zero_never_samples() {
        let s = Sampler::new(0.0);
        assert!((0..10_000).all(|_| !s.should_sample()));
    }

    #[test]
    fn rate_one_always_samples() {
        let s = Sampler::new(1.0);
        assert!((0..10_000).all(|_| s.should_sample()));
    }

    #[test]
    fn fractional_rates_hit_their_stride() {
        for (rate, want) in [(0.5, 5_000), (0.25, 2_500), (0.1, 1_000), (0.01, 100)] {
            let s = Sampler::new(rate);
            let n = (0..10_000).filter(|_| s.should_sample()).count();
            assert!(
                (n as i64 - want).unsigned_abs() <= 1,
                "rate {rate}: {n} of 10000 sampled"
            );
        }
    }

    #[test]
    fn default_config_is_off_and_demoting() {
        let c = ShadowConfig::default();
        assert!(!c.enabled());
        assert_eq!(c.on_mismatch, OnMismatch::Demote);
        assert!(ShadowConfig::full().enabled());
        assert_eq!(ShadowConfig::sampled(0.25).sample_rate, 0.25);
    }

    #[test]
    fn verify_result_agrees_with_reference() {
        use swsimd_core::Aligner;
        let mut a = Aligner::builder().traceback(true).build();
        let alphabet = a.alphabet().clone();
        let q = alphabet.encode(b"MKVLAADTWGHK");
        let t = alphabet.encode(b"MKVLADTWGHK");
        let r = a.align(&q, &t);
        assert!(verify_result(&q, &t, a.scoring(), a.gap_model(), &r));
        let mut wrong = r.clone();
        wrong.score += 1;
        assert!(!verify_result(&q, &t, a.scoring(), a.gap_model(), &wrong));
    }
}
