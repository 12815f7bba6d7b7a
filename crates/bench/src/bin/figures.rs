//! Regenerate every table/figure of the paper's evaluation section.

use std::path::{Path, PathBuf};

use swsimd_bench::{
    ablation_batching, ablation_threshold, fig06, fig07, fig08, fig09, fig10, fig11, fig12, fig13,
    fig14, portability, segments, write_record, FigureRecord, Scale,
};

fn main() {
    // Surface tracer events (e.g. figure_record_write_failed) on
    // stderr; spans stay silent unless SWSIMD_TRACE asks for them.
    if std::env::var_os("SWSIMD_TRACE").is_some() {
        swsimd_obs::set_sink(Some(std::sync::Arc::new(swsimd_obs::StderrSink)));
    } else {
        swsimd_obs::set_sink(Some(std::sync::Arc::new(ErrorsOnlySink)));
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let figs: Vec<String> = {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--fig" {
                if let Some(v) = it.next() {
                    out.push(v.clone());
                }
            }
        }
        out
    };
    let want = |name: &str| figs.is_empty() || figs.iter().any(|f| f == name);
    let dir = std::env::var_os("SWSIMD_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));

    println!("swsimd figure harness — scale {scale:?}");
    println!(
        "host engines: {:?}\n",
        swsimd_simd::EngineKind::available()
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
    );

    if want("6") {
        emit(&dir, "Fig 6  (AVX2 vs AVX-512)", &fig06(scale));
    }
    if want("7") {
        emit(&dir, "Fig 7  (affine vs linear gaps)", &fig07(scale));
    }
    if want("8") {
        emit(&dir, "Fig 8  (traceback on/off)", &fig08(scale));
    }
    if want("9") {
        emit(
            &dir,
            "Fig 9  (substitution matrix on/off + bit widths)",
            &fig09(scale),
        );
    }
    if want("10") {
        emit(&dir, "Fig 10 (GA hyperparameter tuning)", &fig10(scale));
    }
    if want("11") {
        emit(&dir, "Fig 11 (thread scaling)", &fig11(scale));
    }
    if want("12") {
        emit(&dir, "Fig 12 (top-down pipeline analysis)", &fig12(scale));
    }
    if want("13") {
        emit(&dir, "Fig 13 (usage scenarios)", &fig13(scale));
    }
    if want("14") {
        emit(&dir, "Fig 14 (vs Parasail baselines)", &fig14(scale));
    }
    if want("segments") {
        emit(&dir, "§III-B (segment census)", &segments(scale));
    }
    if want("portability") {
        emit(&dir, "Portability (contribution vi)", &portability(scale));
    }
    if want("ablations") {
        emit(
            &dir,
            "Ablation (scalar threshold)",
            &ablation_threshold(scale),
        );
        emit(&dir, "Ablation (batch sorting)", &ablation_batching(scale));
    }
    println!("\nrecords written under {}/", dir.display());
}

/// Print one record's series and write it under `dir`.
fn emit(dir: &Path, heading: &str, rec: &FigureRecord) {
    println!("== {heading} ==");
    println!("{}\n", serde_json::to_string_pretty(&rec.series).unwrap());
    match write_record(dir, rec) {
        Ok(path) => println!("[{}] {} -> {}", rec.figure, rec.title, path.display()),
        Err(e) => {
            swsimd_obs::event!(
                "figure_record_write_failed",
                "figure" => rec.figure,
                "error" => e.to_string(),
            );
        }
    }
}

/// Forwards only failure-ish instant events to stderr, so a figure
/// run stays quiet unless something went wrong.
struct ErrorsOnlySink;

impl swsimd_obs::Sink for ErrorsOnlySink {
    fn record(&self, event: &swsimd_obs::Event) {
        if event.kind == swsimd_obs::EventKind::Instant
            && (event.name.ends_with("_failed")
                || event.name.contains("panic")
                || event.name.contains("degraded"))
        {
            eprintln!("[obs] {event}");
        }
    }
}
