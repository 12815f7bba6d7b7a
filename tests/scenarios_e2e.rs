//! End-to-end tests of the deployment layer: scenarios, threading, and
//! the batch server, checked for result consistency (not speed).

use std::sync::Arc;
use std::time::Duration;

use swsimd::matrices::{blosum62, Alphabet};
use swsimd::runner::{
    parallel_search, scenario1, scenario2, scenario3, BatchServer, PoolConfig, ServerConfig,
};
use swsimd::seq::{generate_database, generate_exact, SynthConfig};
use swsimd::Aligner;

fn db(n: usize, seed: u64) -> swsimd::Database {
    generate_database(&SynthConfig {
        n_seqs: n,
        seed,
        median_len: 70.0,
        max_len: 250,
        ..Default::default()
    })
}

fn enc(len: usize, seed: u64) -> Vec<u8> {
    Alphabet::protein().encode(&generate_exact(len, seed).seq)
}

fn builder() -> swsimd::AlignerBuilder {
    Aligner::builder().matrix(blosum62())
}

#[test]
fn thread_count_does_not_change_results() {
    let db = db(80, 1);
    let q = enc(90, 2);
    let reference = parallel_search(
        &q,
        &db,
        &PoolConfig {
            threads: 1,
            ..PoolConfig::default()
        },
        builder,
    );
    for threads in [2, 4, 8] {
        let out = parallel_search(
            &q,
            &db,
            &PoolConfig {
                threads,
                ..PoolConfig::default()
            },
            builder,
        );
        assert_eq!(out.hits, reference.hits, "threads={threads}");
    }
}

#[test]
fn all_three_scenarios_agree_on_best_hit() {
    let db = db(48, 3);
    let q = enc(60, 4);
    let s1 = scenario1(&q, &db, 2, builder);
    let s2 = scenario2(std::slice::from_ref(&q), &db, 2, builder);
    let s3 = scenario3(std::slice::from_ref(&q), &db, builder);
    assert_eq!(s1.best_hits[0].score, s2.best_hits[0].score);
    assert_eq!(s1.best_hits[0].score, s3.best_hits[0].score);
    assert_eq!(s1.best_hits[0].db_index, s3.best_hits[0].db_index);
}

#[test]
fn server_matches_direct_search_under_concurrency() {
    let database = Arc::new(db(40, 5));
    let server = BatchServer::start(
        database.clone(),
        ServerConfig {
            batch_size: 4,
            max_wait: Duration::from_millis(50),
            ..Default::default()
        },
        builder,
    );
    let client = server.client();

    let queries: Vec<Vec<u8>> = (0..10).map(|i| enc(40 + i * 5, 100 + i as u64)).collect();
    let mut server_results = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for q in &queries {
            let c = client.clone();
            handles.push(scope.spawn(move || {
                c.submit(q.clone(), 5, None)
                    .and_then(|p| p.wait())
                    .expect("server is up")
                    .hits
            }));
        }
        for h in handles {
            server_results.push(h.join().unwrap());
        }
    });
    let stats = server.shutdown();
    assert_eq!(stats.queries, 10);

    let mut direct = builder().build();
    for (q, got) in queries.iter().zip(&server_results) {
        let want = direct.search(q, &database, 5);
        assert_eq!(got, &want);
    }
}

#[test]
fn scenario_reports_count_cells() {
    let db = db(20, 7);
    let q = enc(30, 8);
    let r = scenario1(&q, &db, 1, builder);
    assert_eq!(
        r.throughput.cells,
        q.len() as u64 * db.total_residues() as u64
    );
    assert!(r.throughput.seconds > 0.0);
}

#[test]
fn empty_database_yields_no_hits() {
    let empty = swsimd::Database::from_records(Vec::new(), &Alphabet::protein());
    let q = enc(20, 9);
    let out = parallel_search(
        &q,
        &empty,
        &PoolConfig {
            threads: 2,
            ..PoolConfig::default()
        },
        builder,
    );
    assert!(out.hits.is_empty());
}
