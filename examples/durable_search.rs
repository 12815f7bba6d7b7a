//! Durable search: checkpoint a long scan, kill it mid-flight, resume.
//!
//! Runs the same whole-database scan three ways — uninterrupted,
//! crashed after N completed chunks (a simulated kill -9 between
//! journal appends), and resumed from the surviving journal — and
//! shows the resumed results are bit-identical to the uninterrupted
//! run while only the missing chunks were recomputed. Both journaled
//! runs go through `durable_search`, the one resume-or-start entry
//! point.
//!
//! ```text
//! cargo run --release --example durable_search [n_seqs] [threads] [crash_after]
//! ```

use swsimd::durable_search;
use swsimd::matrices::{blosum62, Alphabet};
use swsimd::runner::{parallel_search, PoolConfig};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::{read_journal_file, Aligner, FaultPlan};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_seqs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2_000);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let crash_after: u32 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(threads as u32 / 2);

    let db = generate_database(&SynthConfig {
        n_seqs,
        ..Default::default()
    });
    let query = Alphabet::protein().encode(&generate_exact(300, 0xD1CE).seq);
    let builder = || Aligner::builder().matrix(blosum62());
    let cfg = |plan: FaultPlan| PoolConfig {
        threads,
        fault_plan: plan,
        ..Default::default()
    };

    // The oracle: an uninterrupted search.
    let want = parallel_search(&query, &db, &cfg(FaultPlan::none()), builder);
    println!(
        "oracle: {} sequences scanned on {threads} threads, best score {}",
        db.len(),
        want.hits[0].score
    );

    // The doomed run: journal to disk, die after `crash_after` chunks.
    let path = std::env::temp_dir().join("swsimd_durable_search.swjl");
    let _ = std::fs::remove_file(&path);
    let crash_cfg = cfg(FaultPlan::new().crash_after_chunks(crash_after));
    match durable_search(&path, &query, &db, &crash_cfg, builder, &mut |_, _| {}) {
        Ok(_) => {
            println!("no crash injected (crash_after >= chunk count)");
            return;
        }
        Err(e) => println!("scan died mid-flight: {e}"),
    }

    // Recovery: replay the intact prefix, recompute only the rest.
    let journal = read_journal_file(&path).expect("journal readable");
    println!(
        "journal: {} completed chunk(s) survived{}",
        journal.entries.len(),
        if journal.truncated {
            " (torn tail discarded)"
        } else {
            ""
        }
    );
    let (out, stats) = durable_search(
        &path,
        &query,
        &db,
        &cfg(FaultPlan::none()),
        builder,
        &mut |_, _| {},
    )
    .expect("resume from journal");
    let stats = stats.expect("a journal survived the crash");
    println!(
        "resume: replayed {} chunk(s) ({} hits), recomputed {}",
        stats.replayed_chunks, stats.replayed_hits, stats.recomputed_chunks
    );
    assert!(!path.exists(), "a finished search removes its journal");

    assert_eq!(out.hits, want.hits, "resume must be bit-identical");
    println!(
        "bit-identical to the uninterrupted run: {} hits, best {} (db #{})",
        out.hits.len(),
        out.hits[0].score,
        out.hits[0].db_index
    );
}
