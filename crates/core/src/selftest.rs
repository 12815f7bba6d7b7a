//! Boot-time golden-vector self-test for every SIMD backend.
//!
//! A backend that `is_x86_feature_detected!` reports as present can
//! still compute wrong scores: buggy steppings, a miscompiled
//! `#[target_feature]` wrapper, a broken emulated-gather path. The
//! battery here runs a small set of golden alignments plus seeded
//! random pairs through every available (engine × width × score/tb)
//! diagonal dispatch entry point, and one seeded database through the
//! engine's 8-bit batch kernel (the `scan`/`serve` path), and checks
//! each result against the scalar reference ([`crate::scalar_ref`]).
//!
//! [`boot`] runs the battery once per process (first caller pays,
//! everyone else reads the cached report) and marks failing backends
//! demoted in the global [`crate::trust`] ladder *before* the first
//! query can reach them. [`probation_retest`] re-runs the battery to
//! re-admit a demoted backend — the only path back to trusted.
//!
//! The battery probes engines directly (bypassing trust routing), so a
//! demoted engine really is re-tested rather than silently routed to
//! its fallback.

use std::sync::OnceLock;

use swsimd_matrices::Alphabet;
use swsimd_seq::{BatchedDatabase, Database, SeqRecord};
use swsimd_simd::EngineKind;

use crate::batch::{batch_score, lanes_for};
use crate::diag::dispatch::{diag_score_raw, diag_traceback_raw};
use crate::params::{GapModel, GapPenalties, Precision, Scoring};
use crate::scalar_ref::sw_scalar;
use crate::stats::KernelStats;
use crate::trust;

/// Seed for the randomized half of the battery (stable across runs so
/// a failure report is reproducible with `swsimd selftest`).
pub const BATTERY_SEED: u64 = 0x0005_eed0_5e1f_7e57;

/// Seeded random pairs per battery run, in addition to the golden set.
const RANDOM_CASES: usize = 6;

/// Query length of the batch case: its self-score saturates 8-bit lanes
/// (every BLOSUM62 identity scores at least 4).
const BATCH_QUERY_LEN: usize = 40;

/// Longest sequence of the batch case: not a multiple of the batch
/// kernel's column block, so its width-1 tail runs too.
const BATCH_COLS: usize = 47;
const _: () = assert!(!BATCH_COLS.is_multiple_of(crate::batch::BLOCK));

/// Deterministic 64-bit LCG (`swsimd-core` deliberately has no RNG
/// dependency; kernel-quality randomness is not needed here).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed | 1)
    }
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
    fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 33) as usize) % n
    }
    fn seq(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.below(20) as u8).collect()
    }
}

/// One battery case: label, sequences, and scoring parameters.
struct Case {
    label: String,
    query: Vec<u8>,
    target: Vec<u8>,
    scoring: Scoring,
    gaps: GapModel,
}

fn battery_cases() -> Vec<Case> {
    let b62 = Scoring::matrix(swsimd_matrices::blosum62());
    let affine = GapModel::Affine(GapPenalties::new(11, 1));
    let fixed = Scoring::Fixed {
        r#match: 2,
        mismatch: -3,
    };
    let mut cases = vec![
        Case {
            label: "golden/identical-peptide".into(),
            query: (0..24u8).map(|i| i % 20).collect(),
            target: (0..24u8).map(|i| i % 20).collect(),
            scoring: b62.clone(),
            gaps: affine,
        },
        Case {
            label: "golden/internal-gap".into(),
            query: (0..20u8).collect(),
            target: (0..20u8).filter(|&i| !(8..12).contains(&i)).collect(),
            scoring: b62.clone(),
            gaps: affine,
        },
        Case {
            label: "golden/saturating-homopolymer".into(),
            query: vec![0; 64],
            target: vec![0; 64],
            scoring: b62.clone(),
            gaps: affine,
        },
        Case {
            label: "golden/fixed-scoring-linear-gap".into(),
            query: (0..16u8).map(|i| i % 4).collect(),
            target: (0..16u8).map(|i| (i + 1) % 4).collect(),
            scoring: fixed,
            gaps: GapModel::Linear { gap: 2 },
        },
    ];
    let mut rng = Lcg::new(BATTERY_SEED);
    for i in 0..RANDOM_CASES {
        let qlen = 8 + rng.below(56);
        let tlen = 8 + rng.below(56);
        cases.push(Case {
            label: format!("seeded/{i} (seed=0x{BATTERY_SEED:x} qlen={qlen} tlen={tlen})"),
            query: rng.seq(qlen),
            target: rng.seq(tlen),
            scoring: b62.clone(),
            gaps: affine,
        });
    }
    cases
}

/// The batch-kernel case for an engine with `lanes` 8-bit lanes: a
/// seeded query and a database of one full batch plus a ragged second
/// one. Sequence 0 is the query itself, whose lane saturates; sequence 1
/// has [`BATCH_COLS`] residues.
fn batch_case(lanes: usize) -> (Vec<u8>, Database) {
    let mut rng = Lcg::new(BATTERY_SEED + 1);
    let query = rng.seq(BATCH_QUERY_LEN);
    let mut seqs = vec![query.clone(), rng.seq(BATCH_COLS)];
    while seqs.len() < lanes + 5 {
        let len = 1 + rng.below(BATCH_COLS);
        seqs.push(rng.seq(len));
    }
    let alphabet = Alphabet::protein();
    let records = seqs
        .iter()
        .map(|s| SeqRecord::new("selftest", alphabet.decode(s)))
        .collect();
    (query, Database::from_records(records, &alphabet))
}

/// Run the batch case through `engine`'s batch kernel and record every
/// lane that disagrees with the scalar reference.
fn check_batch(engine: EngineKind, out: &mut EngineOutcome) {
    let scoring = Scoring::matrix(swsimd_matrices::blosum62());
    let gaps = GapModel::Affine(GapPenalties::new(11, 1));
    let lanes = lanes_for(engine);
    let (query, db) = batch_case(lanes);
    let batched = BatchedDatabase::build(&db, lanes, false);
    let mut scores = Vec::new();
    let mut stats = KernelStats::default();
    for b in batched.batches() {
        batch_score(engine, &query, b, &scoring, gaps, &mut stats, &mut scores);
    }
    let case = |what: String| {
        format!(
            "seeded/batch (seed=0x{:x} lanes={lanes} cols={BATCH_COLS}) {what}",
            BATTERY_SEED + 1
        )
    };
    let failure = |case: String, expected: i32, got: i32, detail: &'static str| CaseFailure {
        engine,
        precision: Precision::I8,
        traceback: false,
        case,
        expected,
        got,
        detail,
    };
    out.checks += 1;
    if scores.len() != db.len() {
        out.failures.push(failure(
            case("lane count".into()),
            db.len() as i32,
            scores.len() as i32,
            "batch kernel returned the wrong number of lanes",
        ));
        return;
    }
    for ls in scores {
        out.checks += 1;
        let target = &db.encoded(ls.db_index as usize).idx;
        let want = sw_scalar(&query, target, &scoring, gaps).score;
        let ceiling = lane_max(Precision::I8);
        let (ok, detail) = if ls.saturated {
            (
                want >= ceiling,
                "batch lane saturated below the lane ceiling",
            )
        } else {
            (
                ls.score == want && want < ceiling,
                "batch lane score mismatch vs scalar_ref",
            )
        };
        if !ok {
            out.failures.push(failure(
                case(format!("seq {}", ls.db_index)),
                want,
                ls.score,
                detail,
            ));
        }
    }
}

fn lane_max(p: Precision) -> i32 {
    match p {
        Precision::I8 => i8::MAX as i32,
        Precision::I16 => i16::MAX as i32,
        _ => i32::MAX,
    }
}

/// One failed battery check, with everything needed to reproduce it.
#[derive(Clone, Debug)]
pub struct CaseFailure {
    /// Engine under test.
    pub engine: EngineKind,
    /// Lane width under test.
    pub precision: Precision,
    /// Whether the traceback entry point (vs score-only) failed.
    pub traceback: bool,
    /// Case label, including the battery seed for seeded cases.
    pub case: String,
    /// Scalar-reference score.
    pub expected: i32,
    /// Score the backend produced.
    pub got: i32,
    /// What went wrong beyond the raw scores (saturation, rescore…).
    pub detail: &'static str,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} w{} {}: case `{}` expected {} got {} ({})",
            self.engine.name(),
            match self.precision {
                Precision::I8 => 8,
                Precision::I16 => 16,
                _ => 32,
            },
            if self.traceback { "tb" } else { "score" },
            self.case,
            self.expected,
            self.got,
            self.detail,
        )
    }
}

/// Battery outcome for one engine.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// Engine tested.
    pub engine: EngineKind,
    /// Checks executed (cases × widths × score/tb).
    pub checks: usize,
    /// Failed checks (empty means the engine passed).
    pub failures: Vec<CaseFailure>,
}

impl EngineOutcome {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Full battery report: per-engine outcomes plus the engines that were
/// skipped because this CPU lacks the ISA.
#[derive(Clone, Debug)]
pub struct SelftestReport {
    /// One outcome per engine available on this CPU.
    pub outcomes: Vec<EngineOutcome>,
    /// Engines this CPU cannot run at all (not failures).
    pub skipped: Vec<EngineKind>,
}

impl SelftestReport {
    /// True when every available engine passed.
    pub fn all_passed(&self) -> bool {
        self.outcomes.iter().all(EngineOutcome::passed)
    }

    /// Engines with at least one failed check.
    pub fn failed_engines(&self) -> Vec<EngineKind> {
        self.outcomes
            .iter()
            .filter(|o| !o.passed())
            .map(|o| o.engine)
            .collect()
    }

    /// Total failed checks across all engines.
    pub fn failure_count(&self) -> usize {
        self.outcomes.iter().map(|o| o.failures.len()).sum()
    }
}

/// Run the battery through one engine's dispatch entry points,
/// bypassing trust routing so the probed engine is really the one
/// executing. The engine must be available on this CPU.
pub fn run_battery_for(engine: EngineKind) -> EngineOutcome {
    let mut out = EngineOutcome {
        engine,
        checks: 0,
        failures: Vec::new(),
    };
    for case in battery_cases() {
        let (q, t) = (&case.query, &case.target);
        let want = sw_scalar(q, t, &case.scoring, case.gaps).score;
        for p in [Precision::I8, Precision::I16, Precision::I32] {
            let mut stats = KernelStats::default();
            let got = diag_score_raw(engine, p, q, t, &case.scoring, case.gaps, 0, &mut stats);
            out.checks += 1;
            let ok = if got.saturated {
                // Saturation is allowed only when the true score
                // actually reaches the lane ceiling.
                want >= lane_max(p)
            } else {
                got.score == want && want < lane_max(p).saturating_add(1)
            };
            if !ok {
                out.failures.push(CaseFailure {
                    engine,
                    precision: p,
                    traceback: false,
                    case: case.label.clone(),
                    expected: want,
                    got: got.score,
                    detail: if got.saturated {
                        "saturated below the lane ceiling"
                    } else {
                        "score mismatch vs scalar_ref"
                    },
                });
            }

            let mut stats = KernelStats::default();
            let tb = diag_traceback_raw(engine, p, q, t, &case.scoring, case.gaps, 0, &mut stats);
            out.checks += 1;
            let (ok, detail) = if tb.saturated {
                (want >= lane_max(p), "tb saturated below the lane ceiling")
            } else if tb.score != want {
                (false, "tb score mismatch vs scalar_ref")
            } else if want > 0 && tb.end.is_none() {
                (false, "tb reported a positive score with no end cell")
            } else {
                match &tb.alignment {
                    Some(aln) if aln.rescore(q, t, &case.scoring, case.gaps) != tb.score => {
                        (false, "tb path does not rescore to the reported score")
                    }
                    _ => (true, ""),
                }
            };
            if !ok {
                out.failures.push(CaseFailure {
                    engine,
                    precision: p,
                    traceback: true,
                    case: case.label.clone(),
                    expected: want,
                    got: tb.score,
                    detail,
                });
            }
        }
    }
    check_batch(engine, &mut out);
    out
}

/// Run the battery through every engine available on this CPU.
pub fn run_battery() -> SelftestReport {
    let mut report = SelftestReport {
        outcomes: Vec::new(),
        skipped: Vec::new(),
    };
    for e in EngineKind::ALL {
        if e.is_available() {
            report.outcomes.push(run_battery_for(e));
        } else {
            report.skipped.push(e);
        }
    }
    report
}

/// Run the boot battery once per process and demote failing backends
/// in the global trust ladder before any query dispatches to them.
/// Subsequent calls return the cached report.
pub fn boot() -> &'static SelftestReport {
    static REPORT: OnceLock<SelftestReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let report = run_battery();
        for outcome in &report.outcomes {
            if !outcome.passed() {
                trust::global().mark_failed(outcome.engine, "boot_selftest");
                swsimd_obs::event!(
                    "selftest_failed",
                    "engine" => outcome.engine.name(),
                    "stage" => "boot",
                    "failures" => outcome.failures.len(),
                );
                swsimd_obs::global()
                    .counter(
                        "swsimd_selftest_failures_total",
                        "Backends that failed the boot self-test battery.",
                        &[("engine", outcome.engine.name())],
                    )
                    .inc();
            }
        }
        report
    })
}

/// Re-test a demoted engine on the global trust ladder: put it on
/// probation, run the battery against it directly, and re-promote it
/// only if every check passes. Returns `true` on re-promotion.
pub fn probation_retest(engine: EngineKind) -> bool {
    if !engine.is_available() {
        return false;
    }
    let outcome = run_battery_for(engine);
    trust::global().probation_outcome(engine, outcome.passed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_passes_on_every_available_engine() {
        let report = run_battery();
        for o in &report.outcomes {
            assert!(
                o.passed(),
                "{} failed {} checks: {:?}",
                o.engine.name(),
                o.failures.len(),
                o.failures.first()
            );
            assert!(o.checks > 0);
        }
        // Available + skipped partition the full engine set.
        assert_eq!(report.outcomes.len() + report.skipped.len(), 4);
        assert!(report.all_passed());
        assert!(report.failed_engines().is_empty());
        assert_eq!(report.failure_count(), 0);
    }

    #[test]
    fn batch_case_has_a_saturating_lane_and_a_ragged_batch() {
        let scoring = Scoring::matrix(swsimd_matrices::blosum62());
        let gaps = GapModel::Affine(GapPenalties::new(11, 1));
        for engine in EngineKind::available() {
            let lanes = lanes_for(engine);
            let (query, db) = batch_case(lanes);
            let self_score = sw_scalar(&query, &db.encoded(0).idx, &scoring, gaps).score;
            assert!(self_score > i8::MAX as i32, "{self_score}");
            assert_eq!(db.len(), lanes + 5);
            let longest = db.iter_encoded().map(|e| e.len()).max();
            assert_eq!(longest, Some(BATCH_COLS));

            let mut out = EngineOutcome {
                engine,
                checks: 0,
                failures: Vec::new(),
            };
            check_batch(engine, &mut out);
            assert_eq!(out.checks, 1 + db.len());
            assert!(out.passed(), "{:?}", out.failures.first());
        }
    }

    #[test]
    fn boot_is_idempotent_and_cached() {
        let a = boot() as *const _;
        let b = boot() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn battery_is_deterministic() {
        let a = run_battery_for(EngineKind::Scalar);
        let b = run_battery_for(EngineKind::Scalar);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.failures.len(), b.failures.len());
    }

    #[test]
    fn failure_display_is_reproducible() {
        let f = CaseFailure {
            engine: EngineKind::Avx2,
            precision: Precision::I16,
            traceback: true,
            case: "seeded/0 (seed=0x5eed05e1f7e57 qlen=10 tlen=12)".into(),
            expected: 42,
            got: 41,
            detail: "tb score mismatch vs scalar_ref",
        };
        let s = f.to_string();
        assert!(s.contains("AVX2"), "{s}");
        assert!(s.contains("w16"), "{s}");
        assert!(s.contains("seed=0x5eed05e1f7e57"), "{s}");
        assert!(s.contains("expected 42 got 41"), "{s}");
    }
}
