//! End-to-end tests of the `swsimd` command-line binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swsimd"))
}

fn write_fasta(name: &str, text: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("swsimd_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(text.as_bytes()).unwrap();
    path
}

const QUERY: &str =
    ">q1 kinase fragment\nMKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ\n";
const DB: &str = "\
>close homolog
MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQAAAA
>fragment
MKTAYIAKQRQISFVKSHFSRQLEERLGLIEV
>junk
PPPPWWWWGGGG
";

#[test]
fn info_lists_engines_and_matrices() {
    let out = bin().arg("info").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scalar"), "{text}");
    assert!(text.contains("BLOSUM62"));
    assert!(text.contains("(selected)"));
}

#[test]
fn align_reports_scores_and_cigars() {
    let q = write_fasta("q.fa", QUERY);
    let d = write_fasta("d.fa", DB);
    let out = bin().arg("align").arg(&q).arg(&d).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("q1\tclose"), "{text}");
    assert!(text.contains("cigar=56M"), "{text}");
    // Three targets, three result lines with scores.
    assert_eq!(text.matches("score=").count(), 3);
}

#[test]
fn search_ranks_homolog_first() {
    let q = write_fasta("q2.fa", QUERY);
    let d = write_fasta("d2.fa", DB);
    let out = bin()
        .args(["search"])
        .arg(&q)
        .arg(&d)
        .args(["--top", "2", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let first = text.lines().next().expect("at least one hit");
    assert!(first.contains("close"), "best hit wrong: {first}");
}

#[test]
fn journaled_search_prints_plain_hits_and_cleans_up() {
    let q = write_fasta("q_journal.fa", QUERY);
    let d = write_fasta("d_journal.fa", DB);
    let journal = std::env::temp_dir()
        .join("swsimd_cli_e2e")
        .join(format!("search-{}.swjl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let search = |extra: &[&std::ffi::OsStr]| {
        let out = bin()
            .args(["search"])
            .arg(&q)
            .arg(&d)
            .args(["--threads", "2"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let plain = search(&[]);
    let journaled = search(&["--journal".as_ref(), journal.as_os_str()]);
    assert_eq!(plain.matches("score=").count(), 3, "{plain}");
    assert_eq!(journaled, plain);
    assert!(!journal.exists(), "a finished search removes its journal");
}

#[test]
fn global_mode_flag_changes_scores() {
    let q = write_fasta("q3.fa", QUERY);
    let d = write_fasta("d3.fa", DB);
    let local = bin()
        .arg("align")
        .arg(&q)
        .arg(&d)
        .arg("--no-traceback")
        .output()
        .unwrap();
    let global = bin()
        .arg("align")
        .arg(&q)
        .arg(&d)
        .args(["--mode", "global", "--no-traceback"])
        .output()
        .unwrap();
    let lt = String::from_utf8_lossy(&local.stdout);
    let gt = String::from_utf8_lossy(&global.stdout);
    let score = |text: &str, key: &str| -> i32 {
        text.lines()
            .find(|l| l.contains(key))
            .and_then(|l| l.split("score=").nth(1))
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap()
    };
    // Junk target: local clamps at a small positive, global goes negative.
    assert!(score(&lt, "junk") >= 0);
    assert!(score(&gt, "junk") < 0);
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bin().arg("align").arg("/nonexistent.fa").output().unwrap();
    assert!(!out.status.success());
    let out = bin()
        .args(["align", "/a.fa", "/b.fa", "--engine", "quantum"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn matrix_selection_changes_results() {
    let q = write_fasta("q4.fa", QUERY);
    let d = write_fasta("d4.fa", DB);
    let b62 = bin()
        .arg("align")
        .arg(&q)
        .arg(&d)
        .arg("--no-traceback")
        .output()
        .unwrap();
    let p250 = bin()
        .arg("align")
        .arg(&q)
        .arg(&d)
        .args(["--matrix", "PAM250", "--no-traceback"])
        .output()
        .unwrap();
    assert!(b62.status.success() && p250.status.success());
    assert_ne!(b62.stdout, p250.stdout);
}
