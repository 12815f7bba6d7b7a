//! Failure injection and hostile-input tests: the library must behave
//! sensibly on malformed FASTA, non-residue characters, degenerate
//! batches, and saturation edge cases.

use swsimd::matrices::{blosum62, Alphabet, PAD_INDEX, X_INDEX};
use swsimd::seq::{parse_fasta, BatchedDatabase, Database, FastaError, SeqRecord};
use swsimd::{Aligner, Precision};

#[test]
fn malformed_fasta_is_rejected_not_panicking() {
    assert!(matches!(
        parse_fasta("ACGT\n"),
        Err(FastaError::DataBeforeHeader { .. })
    ));
    assert!(matches!(
        parse_fasta(">\nACGT\n"),
        Err(FastaError::EmptyHeader { .. })
    ));
}

#[test]
fn non_residue_characters_map_to_x_and_align() {
    let alphabet = Alphabet::protein();
    // Digits, punctuation, unicode fragments (as bytes) all map to X.
    let messy = alphabet.encode("MKV1 2@LAADTW\u{00e9}".as_bytes());
    assert!(messy.iter().all(|&b| b < 24));
    assert!(messy.contains(&X_INDEX));
    let clean = alphabet.encode(b"MKVLAADTW");
    let mut a = Aligner::new();
    let r = a.align(&messy, &clean);
    // Still aligns the real residues around the Xs.
    assert!(r.score > 0);
}

#[test]
fn x_never_outscores_real_match() {
    // X vs anything is <= 0 in BLOSUM62, so an all-X query scores 0.
    let alphabet = Alphabet::protein();
    let xs = alphabet.encode(b"XXXXXXXX");
    let target = alphabet.encode(b"MKVLAADTW");
    let mut a = Aligner::new();
    assert_eq!(a.align(&xs, &target).score, 0);
}

#[test]
fn stop_codons_are_scored_like_ncbi() {
    let m = blosum62();
    assert_eq!(m.score(b'*', b'*'), 1);
    assert_eq!(m.score(b'A', b'*'), -4);
    let alphabet = m.alphabet();
    let q = alphabet.encode(b"MKV*LA");
    let mut a = Aligner::new();
    let r = a.align(&q, &q);
    assert!(r.score > 0);
}

#[test]
fn pad_index_poisoning_is_total() {
    let r = blosum62().reorganized();
    for other in 0..32u8 {
        assert!(r.score(PAD_INDEX, other) < -32);
        assert!(r.score(other, PAD_INDEX) < -32);
    }
}

#[test]
fn empty_and_single_residue_databases() {
    let alphabet = Alphabet::protein();
    let db = Database::from_records(
        vec![
            SeqRecord::new("one", b"W".to_vec()),
            SeqRecord::new("empty", b"".to_vec()),
        ],
        &alphabet,
    );
    let q = alphabet.encode(b"W");
    let mut a = Aligner::new();
    let hits = a.search(&q, &db, 0);
    assert_eq!(hits.len(), 2);
    assert_eq!(hits[0].score, 11); // W:W
    assert_eq!(hits[1].score, 0); // empty sequence
}

#[test]
fn batches_with_all_empty_sequences() {
    let alphabet = Alphabet::protein();
    let db = Database::from_records(
        (0..5)
            .map(|i| SeqRecord::new(format!("e{i}"), Vec::new()))
            .collect(),
        &alphabet,
    );
    let batched = BatchedDatabase::build(&db, 16, true);
    assert_eq!(batched.batches().len(), 1);
    assert_eq!(batched.batches()[0].max_len(), 0);
    let mut a = Aligner::new();
    let hits = a.search(&alphabet.encode(b"MKV"), &db, 0);
    assert!(hits.iter().all(|h| h.score == 0));
}

#[test]
fn saturation_cascade_i8_to_i16_to_i32() {
    // Score 44,000 overflows both i8 and i16; adaptive must cascade.
    let q = vec![17u8; 4_000];
    let mut a = Aligner::new(); // adaptive by default
    let r = a.align(&q, &q);
    assert_eq!(r.score, 44_000);
    assert_eq!(r.precision_used, Precision::I32);
    assert!(
        a.stats().promotions >= 2,
        "expected two promotions, got {}",
        a.stats().promotions
    );
}

#[test]
fn zero_length_query_against_large_db() {
    let alphabet = Alphabet::protein();
    let db = Database::from_records(
        (0..40)
            .map(|i| SeqRecord::new(format!("s{i}"), vec![b'A'; 50]))
            .collect(),
        &alphabet,
    );
    let mut a = Aligner::new();
    let hits = a.search(&[], &db, 0);
    assert_eq!(hits.len(), 40);
    assert!(hits.iter().all(|h| h.score == 0));
}

#[test]
fn lowercase_and_mixed_case_sequences() {
    let alphabet = Alphabet::protein();
    let upper = alphabet.encode(b"MKVLAADTW");
    let lower = alphabet.encode(b"mkvlaadtw");
    assert_eq!(upper, lower);
}

#[test]
fn huge_top_k_is_clamped() {
    let alphabet = Alphabet::protein();
    let db = Database::from_records(
        (0..7)
            .map(|i| SeqRecord::new(format!("s{i}"), vec![b'A'; 10]))
            .collect(),
        &alphabet,
    );
    let mut a = Aligner::new();
    assert_eq!(a.search(&alphabet.encode(b"AAA"), &db, 10_000).len(), 7);
}

// ---------------------------------------------------------------------
// server_faults: the fault-tolerant serving layer under injected
// failures (FaultPlan), exercised end-to-end through the facade.
// ---------------------------------------------------------------------
mod server_faults {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use swsimd::matrices::{blosum62, Alphabet};
    use swsimd::runner::{
        parallel_search, BatchServer, PendingQuery, PoolConfig, Request, ServerConfig,
    };
    use swsimd::seq::{generate_database, generate_exact, SynthConfig};
    use swsimd::{AlignError, Aligner, FaultPlan, ServeError};

    fn db(n: usize, seed: u64) -> swsimd::Database {
        generate_database(&SynthConfig {
            n_seqs: n,
            seed,
            median_len: 60.0,
            max_len: 200,
            ..Default::default()
        })
    }

    fn enc(len: usize, seed: u64) -> Vec<u8> {
        Alphabet::protein().encode(&generate_exact(len, seed).seq)
    }

    fn builder() -> swsimd::AlignerBuilder {
        Aligner::builder().matrix(blosum62())
    }

    /// Block for an admitted request's hits.
    fn served(admitted: Result<PendingQuery, ServeError>) -> Result<Vec<swsimd::Hit>, ServeError> {
        admitted?.wait().map(|o| o.hits)
    }

    /// Acceptance criterion: a FaultPlan-injected worker panic during a
    /// multi-partition parallel search still yields the exact, sorted
    /// result set for ALL partitions, with the degradation counted.
    #[test]
    fn injected_partition_panic_keeps_parallel_search_exact() {
        let db = db(64, 11);
        let q = enc(70, 12);
        let clean = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 4,
                ..Default::default()
            },
            builder,
        );
        let faulty = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads: 4,
                fault_plan: FaultPlan::new().panic_at(2, 1),
                ..Default::default()
            },
            builder,
        );
        assert_eq!(faulty.hits, clean.hits, "degraded retry must stay exact");
        assert_eq!(faulty.faults.worker_panics, 1);
        assert_eq!(faulty.faults.degraded_batches, 1);
        assert_eq!(faulty.faults.retries, 1);
        assert!(!clean.faults.any());
    }

    #[test]
    fn server_worker_panic_degrades_and_counts() {
        let database = Arc::new(db(32, 13));
        let q = enc(50, 14);
        let mut direct = builder().build();
        let want = direct.search(&q, &database, 4);

        let server = BatchServer::start(
            database.clone(),
            ServerConfig {
                fault_plan: FaultPlan::new().panic_at(0, 1),
                ..Default::default()
            },
            builder,
        );
        let client = server.client();
        let hits = served(client.submit(q, 4, None)).expect("degraded, not dead");
        assert_eq!(hits, want);
        let stats = server.shutdown();
        assert_eq!(stats.worker_panics, 1);
        assert_eq!(stats.degraded_batches, 1);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn deadline_expiry_is_typed_and_bounded() {
        let database = Arc::new(db(16, 15));
        let server = BatchServer::start(
            database,
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(400)),
                ..Default::default()
            },
            builder,
        );
        let client = server.client();
        let start = Instant::now();
        let r = served(
            client.send(Request::new(enc(30, 16), 1).with_timeout(Duration::from_millis(40))),
        );
        let elapsed = start.elapsed();
        assert_eq!(r, Err(ServeError::DeadlineExceeded));
        assert!(elapsed < Duration::from_millis(350), "took {elapsed:?}");
        let stats = server.shutdown();
        assert!(stats.timeouts >= 1);
    }

    #[test]
    fn queue_full_sheds_with_typed_error() {
        let database = Arc::new(db(16, 17));
        let server = BatchServer::start(
            database,
            ServerConfig {
                batch_size: 1,
                max_wait: Duration::from_millis(1),
                queue_depth: 1,
                fault_plan: FaultPlan::new().delay_at(0, Duration::from_millis(120)),
                ..Default::default()
            },
            builder,
        );
        let client = server.client();
        // Plug the worker (every job computes ≥120ms), wait for it to
        // pick the plug up, then occupy the single queue slot. The
        // queue is now provably full for the plug's whole compute.
        let plug = client.submit(enc(20, 30), 1, None).expect("plug admitted");
        let t0 = Instant::now();
        while server.queue_depth() > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "plug never picked up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let filler = client
            .submit(enc(20, 31), 1, None)
            .expect("filler admitted");
        match served(client.submit(enc(20, 60), 1, None)) {
            Err(ServeError::QueueFull { .. }) => {}
            other => panic!("sustained load never shed: {other:?}"),
        }
        for p in [plug, filler] {
            loop {
                if let Some(r) = p.poll(Duration::from_millis(5)) {
                    r.expect("queued job served");
                    break;
                }
            }
        }
        let stats = server.shutdown();
        assert!(stats.shed >= 1);
    }

    #[test]
    fn shutdown_while_inflight_drains_then_rejects() {
        let database = Arc::new(db(24, 18));
        let server = BatchServer::start(database, ServerConfig::default(), builder);
        let client = server.client();
        let inflight = {
            let c = client.clone();
            std::thread::spawn(move || served(c.submit(enc(25, 19), 1, None)))
        };
        std::thread::sleep(Duration::from_millis(5));
        let stats = server.shutdown();
        // The in-flight query was drained, not dropped.
        let hits = inflight.join().expect("client thread").expect("drained");
        assert_eq!(hits.len(), 1);
        assert_eq!(stats.queries, 1);
        // Admission now reports ShutDown instead of panicking.
        assert_eq!(
            served(client.submit(enc(10, 20), 1, None)),
            Err(ServeError::ShutDown)
        );
    }

    #[test]
    fn invalid_query_is_a_structured_error() {
        let database = Arc::new(db(8, 21));
        let server = BatchServer::start(database, ServerConfig::default(), builder);
        let client = server.client();
        match served(client.submit(vec![0, 1, 77], 1, None)) {
            Err(ServeError::InvalidQuery(AlignError::InvalidResidue { position, value })) => {
                assert_eq!((position, value), (2, 77));
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
        let _ = server.shutdown();
    }

    #[test]
    fn oversized_query_is_rejected_at_admission() {
        let database = Arc::new(db(8, 22));
        let server = BatchServer::start(
            database,
            ServerConfig {
                max_query_len: 16,
                ..Default::default()
            },
            builder,
        );
        let client = server.client();
        match served(client.submit(enc(40, 23), 1, None)) {
            Err(ServeError::QueryTooLarge { len, limit }) => {
                assert_eq!((len, limit), (40, 16));
            }
            other => panic!("expected QueryTooLarge, got {other:?}"),
        }
        assert!(
            served(client.submit(enc(16, 24), 1, None)).is_ok(),
            "at-limit query passes"
        );
        let _ = server.shutdown();
    }
}

// ---------------------------------------------------------------------
// durability: checkpoint/resume, torn writes, and the corruption fuzz —
// the recovery contract (DESIGN.md §10) exercised through the facade.
// ---------------------------------------------------------------------
mod durability {
    use swsimd::matrices::{blosum62, Alphabet};
    use swsimd::runner::{parallel_search, PoolConfig, SearchOutput};
    use swsimd::seq::{
        generate_database, generate_exact, load_database_image, save_database_image,
        BatchedDatabase, SynthConfig,
    };
    use swsimd::{
        checkpointed_search, read_journal, resume_search, Aligner, Database, FaultPlan,
        FaultyWriter, Journal, JournalWriter,
    };

    fn db(n: usize, seed: u64) -> Database {
        generate_database(&SynthConfig {
            n_seqs: n,
            seed,
            median_len: 50.0,
            max_len: 120,
            ..Default::default()
        })
    }

    fn enc(len: usize, seed: u64) -> Vec<u8> {
        Alphabet::protein().encode(&generate_exact(len, seed).seq)
    }

    fn builder() -> swsimd::AlignerBuilder {
        Aligner::builder().matrix(blosum62())
    }

    fn cfg(threads: usize) -> PoolConfig {
        PoolConfig {
            threads,
            ..Default::default()
        }
    }

    fn oracle(q: &[u8], database: &Database, threads: usize) -> SearchOutput {
        parallel_search(q, database, &cfg(threads), builder)
    }

    /// Number of fuzz cases per corpus; override with
    /// `SWSIMD_FUZZ_CASES` (e.g. for a longer CI soak).
    fn fuzz_cases() -> u64 {
        std::env::var("SWSIMD_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(6_000)
    }

    /// Small deterministic PRNG (splitmix64) so every fuzz case is
    /// reproducible from its index alone.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derive one corrupted variant of `clean` from a case seed:
    /// truncation, a bit flip, or both. Returns `None` when the
    /// mutation is a no-op (full-length cut with no flip).
    fn mutate(clean: &[u8], seed: u64) -> Option<Vec<u8>> {
        let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1);
        let op = splitmix64(&mut s) % 3;
        let mut data = clean.to_vec();
        if op != 1 {
            let cut = (splitmix64(&mut s) as usize) % (clean.len() + 1);
            if op == 0 && cut == clean.len() {
                return None;
            }
            data.truncate(cut);
        }
        if op != 0 && !data.is_empty() {
            let pos = (splitmix64(&mut s) as usize) % data.len();
            let bit = 1u8 << (splitmix64(&mut s) % 8);
            data[pos] ^= bit;
        }
        Some(data)
    }

    /// Acceptance criterion: kill -9 after N completed chunks, then
    /// resume — bit-identical to the uninterrupted run at EVERY crash
    /// point, with exactly the surviving chunks replayed.
    #[test]
    fn kill_and_resume_is_bit_identical_at_every_crash_point() {
        let threads = 4;
        let database = db(30, 41);
        let q = enc(48, 42);
        let want = oracle(&q, &database, threads);

        for survive in 0..threads as u32 {
            let mut jw = JournalWriter::new(Vec::new()).expect("journal header");
            let crash_cfg = PoolConfig {
                fault_plan: FaultPlan::new().crash_after_chunks(survive),
                ..cfg(threads)
            };
            let err = checkpointed_search(&q, &database, &crash_cfg, builder, &mut jw)
                .expect_err("the injected crash must surface as an error");
            assert!(err.to_string().contains("fault-injected crash"));

            let journal = read_journal(&jw.into_inner()).expect("crash-point journal readable");
            assert!(!journal.truncated, "clean kill leaves whole frames");
            assert_eq!(journal.entries.len(), survive as usize);

            let (resumed, stats) = resume_search(&journal, &q, &database, &cfg(threads), builder)
                .expect("resume after crash");
            assert_eq!(resumed.hits, want.hits, "crash at {survive} chunks");
            assert_eq!(stats.replayed_chunks, survive as usize);
            assert_eq!(stats.recomputed_chunks, threads - survive as usize);
        }
    }

    /// A torn final frame (power loss mid-write) costs only the torn
    /// chunk: the journal reads back `truncated`, and resume recomputes
    /// the tail to the oracle answer.
    #[test]
    fn torn_final_frame_loses_work_not_correctness() {
        let threads = 3;
        let database = db(24, 43);
        let q = enc(40, 44);
        let want = oracle(&q, &database, threads);

        // Learn the clean journal length first.
        let mut clean = JournalWriter::new(Vec::new()).unwrap();
        checkpointed_search(&q, &database, &cfg(threads), builder, &mut clean).unwrap();
        let full_len = clean.into_inner().len() as u64;

        let sink = FaultyWriter::new(Vec::new()).torn_at(full_len - 5);
        let mut jw = JournalWriter::new(sink).unwrap();
        checkpointed_search(&q, &database, &cfg(threads), builder, &mut jw)
            .expect_err("the torn write must surface as an error");

        let bytes = jw.into_inner().into_inner();
        assert_eq!(bytes.len() as u64, full_len - 5);
        let journal = read_journal(&bytes).expect("prefix before the tear is readable");
        assert!(journal.truncated, "torn frame flags the journal truncated");
        assert!(journal.entries.len() < threads);

        let (resumed, stats) =
            resume_search(&journal, &q, &database, &cfg(threads), builder).unwrap();
        assert_eq!(resumed.hits, want.hits);
        assert_eq!(stats.replayed_chunks, journal.entries.len());
        assert!(stats.recomputed_chunks >= 1);
    }

    /// An in-flight bit flip (FaultyWriter) is caught by the frame CRC:
    /// replay stops at the flipped frame and resume still matches.
    #[test]
    fn in_flight_bit_flip_is_caught_by_frame_crc() {
        let threads = 3;
        let database = db(24, 45);
        let q = enc(40, 46);
        let want = oracle(&q, &database, threads);

        let mut clean = JournalWriter::new(Vec::new()).unwrap();
        checkpointed_search(&q, &database, &cfg(threads), builder, &mut clean).unwrap();
        let full_len = clean.into_inner().len() as u64;

        // Flip a byte two-thirds into the stream: inside a chunk frame.
        let sink = FaultyWriter::new(Vec::new()).flip_at(full_len * 2 / 3, 0x10);
        let mut jw = JournalWriter::new(sink).unwrap();
        checkpointed_search(&q, &database, &cfg(threads), builder, &mut jw).unwrap();
        let bytes = jw.into_inner().into_inner();
        assert_eq!(
            bytes.len() as u64,
            full_len,
            "flip corrupts, never shortens"
        );

        let journal = read_journal(&bytes).expect("prefix before the flip is readable");
        assert!(journal.truncated, "flipped frame stops replay");
        let (resumed, _) = resume_search(&journal, &q, &database, &cfg(threads), builder).unwrap();
        assert_eq!(resumed.hits, want.hits);
    }

    /// Fuzz half 1 — persist images: every truncation / bit flip of a
    /// v2 image is rejected with a typed error. Zero panics, zero
    /// silent acceptances (every byte is checksummed).
    #[test]
    fn image_corruption_fuzz_always_errors() {
        let alphabet = Alphabet::protein();
        let database = db(12, 47);
        let batched = BatchedDatabase::build(&database, 16, true);
        let image = save_database_image(&database, &batched, &alphabet);
        assert!(load_database_image(&image, &alphabet).is_ok());

        let mut tested = 0u64;
        for case in 0..fuzz_cases() {
            let Some(bad) = mutate(&image, 0x1111_0000 ^ case) else {
                continue;
            };
            tested += 1;
            let got = load_database_image(&bad, &alphabet);
            assert!(
                got.is_err(),
                "case {case}: corrupted image (len {} vs {}) loaded silently",
                bad.len(),
                image.len()
            );
        }
        assert!(tested > fuzz_cases() / 2, "mutator degenerated");
    }

    /// Fuzz half 2 — journals: every truncation / bit flip either
    /// fails to read or replays a verified prefix of the clean journal;
    /// a sampled subset is resumed fully and checked against the
    /// oracle. Zero panics, zero silently-wrong replays.
    #[test]
    fn journal_corruption_fuzz_never_silently_wrong() {
        let threads = 4;
        let database = db(26, 48);
        let q = enc(44, 49);
        let want = oracle(&q, &database, threads);

        let mut jw = JournalWriter::new(Vec::new()).unwrap();
        checkpointed_search(&q, &database, &cfg(threads), builder, &mut jw).unwrap();
        let bytes = jw.into_inner();
        let clean = read_journal(&bytes).unwrap();

        let check_prefix = |journal: &Journal, case: u64| {
            assert_eq!(journal.meta, clean.meta, "case {case}: meta drifted");
            for entry in &journal.entries {
                let reference = clean
                    .entries
                    .iter()
                    .find(|e| e.chunk == entry.chunk)
                    .unwrap_or_else(|| panic!("case {case}: phantom chunk {}", entry.chunk));
                assert_eq!(entry, reference, "case {case}: replayed frame drifted");
            }
        };

        let mut accepted = 0u64;
        for case in 0..fuzz_cases() {
            let Some(bad) = mutate(&bytes, 0x2222_0000 ^ case) else {
                continue;
            };
            match read_journal(&bad) {
                // CRC framing rejected the damage outright: fine.
                Err(_) => {}
                // Accepted: must be a verified prefix of the clean
                // journal — truncated replay loses work, never truth.
                Ok(journal) => {
                    check_prefix(&journal, case);
                    accepted += 1;
                    // Resume a deterministic sample end-to-end.
                    if case % 97 == 0 {
                        let (resumed, _) =
                            resume_search(&journal, &q, &database, &cfg(threads), builder)
                                .expect("validated prefix resumes");
                        assert_eq!(resumed.hits, want.hits, "case {case}");
                    }
                }
            }
        }
        assert!(accepted > 0, "no truncation ever hit a frame boundary");
    }
}
