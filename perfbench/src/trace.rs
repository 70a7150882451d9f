//! The traced run: per-layer metrics for one workload's inputs.
//!
//! Passes alternate until the time allowance is spent: a traced pass
//! (read, digest, then the layer walk of every document, plus a journal
//! `begin`/`done` per record) and an untraced pass timing the program's
//! own `scan_bytes_with_policy` over the same bytes. Every document's walk
//! outcome must equal the program's. A final pair of batch scans, isolated
//! and in-process, prices the isolate round trip. Metrics are medians over
//! passes; the spans of every pass are written out at the end.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vbadet::scan::cache::sha256;
use vbadet::{
    scan_bytes_with_policy, scan_paths_with_policy, Detector, IsolateConfig, ScanJournal,
    ScanOutcome, ScanPolicy, ScanRecord,
};

use crate::spans::{layer_totals, Recorder};
use crate::walk::{Walker, SCAN_LAYERS};

pub struct Options {
    pub workload: String,
    pub dir: PathBuf,
    pub model: PathBuf,
    pub vbadet: PathBuf,
    pub seconds: f64,
    pub spans: PathBuf,
}

/// The policy each workload's command line sets up: `triage_sweep` runs
/// with `--ladder`, the others with the defaults.
fn policy_for(workload: &str) -> ScanPolicy {
    let policy = ScanPolicy::default();
    if workload == "triage_sweep" {
        policy.with_ladder()
    } else {
        policy
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mb_per_s(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ns as f64 / 1e9)
    }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn read_manifest(dir: &Path) -> io::Result<Vec<PathBuf>> {
    Ok(fs::read_to_string(dir.join("manifest.tsv"))?
        .lines()
        .filter_map(|line| line.split('\t').next())
        .map(|rel| dir.join(rel))
        .collect())
}

pub fn run(opts: &Options) -> io::Result<()> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let paths = read_manifest(&opts.dir)?;
    let detector = Detector::load(&fs::read_to_string(&opts.model)?).map_err(io::Error::other)?;
    let policy = policy_for(&opts.workload);
    let mut walker = Walker::new(&detector, &policy);
    let mut rec = Recorder::new();
    let journal_path = opts.dir.join("trace-journal.jsonl");

    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut mismatches = 0usize;
    let mut first_outcomes: Vec<ScanOutcome> = Vec::new();
    // Predict calls, journal bytes, documents that tried salvage, and
    // documents whose salvage recovered modules.
    let mut counts = (0u64, 0u64, 0u64, 0u64);
    let mut passes = 0usize;
    while passes == 0 || started.elapsed() < budget / 2 {
        let first_span = rec.spans().len();
        let mut journal = ScanJournal::create(&journal_path)?;
        let mut outcomes = Vec::with_capacity(paths.len());
        let (mut salvage_tried, mut salvage_docs) = (0u64, 0u64);
        for (i, path) in paths.iter().enumerate() {
            rec.set_doc(i as u32);
            let doc_start = rec.spans().len();
            let outcome = rec.span("doc", |rec| {
                let bytes = rec.span("read", |_| {
                    let bytes = fs::read(path);
                    let n = bytes.as_ref().map_or(0, |b| b.len() as u64);
                    (bytes, n)
                });
                let bytes = match bytes {
                    Ok(bytes) => bytes,
                    Err(e) => return (Err(e), 0),
                };
                rec.span("cache.digest", |_| {
                    (black_box(sha256(&bytes)), bytes.len() as u64)
                });
                let outcome = rec.span("scan", |rec| (walker.scan(rec, &bytes), 0));
                (Ok(outcome), 0)
            })?;
            let salvage = rec.spans()[doc_start..]
                .iter()
                .filter(|s| s.name == "ovba.salvage");
            salvage_tried += u64::from(salvage.clone().next().is_some());
            salvage_docs += u64::from(salvage.into_iter().any(|s| s.bytes > 0));
            let record = ScanRecord {
                path: path.clone(),
                outcome,
            };
            rec.span("journal.write", |_| {
                let before = journal.bytes_written();
                let written = journal.begin(&path.display().to_string());
                let written = written.and_then(|()| journal.done(&record));
                (written, journal.bytes_written() - before)
            })?;
            outcomes.push(record.outcome);
        }
        journal.sync()?;
        drop(journal);

        // The program's own path over the same bytes, untraced.
        let mut doc_ns = 0u64;
        for (i, path) in paths.iter().enumerate() {
            let bytes = fs::read(path)?;
            let t = Instant::now();
            let outcome = scan_bytes_with_policy(&detector, &bytes, &policy);
            doc_ns += t.elapsed().as_nanos() as u64;
            if outcome != outcomes[i] {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!(
                        "walk differs from scan_bytes_with_policy on {}: {:?} vs {:?}",
                        path.display(),
                        outcomes[i],
                        outcome
                    );
                }
            }
        }

        let spans = &rec.spans()[first_span..];
        let totals = layer_totals(spans, first_span);
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let scan_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "scan")
            .map(|s| s.end - s.start)
            .sum();
        let layered_ns: u64 = SCAN_LAYERS.iter().map(|l| total(l).self_ns).sum();
        let mut put =
            |name: &'static str, value: f64| per_pass.entry(name).or_default().push(value);
        put("read.ms", ms(total("read").self_ns));
        put(
            "read.mb_per_s",
            mb_per_s(total("read").bytes, total("read").self_ns),
        );
        let digest = total("cache.digest");
        put("cache.digest_ms", ms(digest.self_ns));
        put(
            "cache.digest_mb_per_s",
            mb_per_s(digest.bytes, digest.self_ns),
        );
        put("zip.parse_ms", ms(total("zip.parse").self_ns));
        let inflate = total("zip.inflate");
        put("zip.inflate_ms", ms(inflate.self_ns));
        put(
            "zip.inflate_mb_per_s",
            mb_per_s(inflate.bytes, inflate.self_ns),
        );
        put("ole.parse_ms", ms(total("ole.parse").self_ns));
        let project = total("ovba.project");
        put("ovba.project_ms", ms(project.self_ns));
        put("ovba.mb_per_s", mb_per_s(project.bytes, project.self_ns));
        put("ovba.salvage_ms", ms(total("ovba.salvage").self_ns));
        let lex = total("vba.lex");
        put("vba.lex_ms", ms(lex.self_ns));
        put("vba.lex_mb_per_s", mb_per_s(lex.bytes, lex.self_ns));
        let features = total("features.pass");
        put("features.pass_ms", ms(features.self_ns));
        put(
            "features.mb_per_s",
            mb_per_s(features.bytes, features.self_ns),
        );
        put("ml.predict_ms", ms(total("ml.predict").self_ns));
        put("scan.doc_ms", ms(doc_ns));
        put("scan.other_ms", ms(doc_ns) - ms(layered_ns));
        put(
            "trace.overhead_pct",
            100.0 * (scan_ns as f64 - doc_ns as f64) / doc_ns.max(1) as f64,
        );
        put("journal.write_ms", ms(total("journal.write").self_ns));
        counts = (
            total("ml.predict").calls,
            total("journal.write").bytes,
            salvage_tried,
            salvage_docs,
        );
        if passes == 0 {
            first_outcomes = outcomes;
        }
        passes += 1;
    }

    // Isolated workers against the in-process pool, same inputs and jobs.
    let isolate = IsolateConfig::new(vec![
        opts.vbadet.display().to_string(),
        vbadet::scan::isolate::WORKER_SUBCOMMAND.to_string(),
    ]);
    let mut ipc = Vec::new();
    let mut engine_mismatches = 0usize;
    while ipc.is_empty() || started.elapsed() < budget {
        let mut wall = [0f64; 2];
        for (slot, policy) in [
            policy.clone().jobs(2),
            policy.clone().jobs(2).isolated(isolate.clone()),
        ]
        .iter()
        .enumerate()
        {
            let t = Instant::now();
            let report = scan_paths_with_policy(&detector, &paths, policy);
            wall[slot] = t.elapsed().as_secs_f64() * 1e3;
            engine_mismatches += report
                .records
                .iter()
                .zip(&first_outcomes)
                .filter(|(r, o)| r.outcome != **o)
                .count()
                + paths.len().saturating_sub(report.records.len());
        }
        ipc.push((wall[1] - wall[0]) / paths.len() as f64);
    }

    let mut out = BufWriter::new(fs::File::create(&opts.spans)?);
    rec.write_tsv(&mut out)?;
    out.flush()?;

    let (predict_calls, journal_bytes, salvage_tried, salvage_docs) = counts;
    let engine_runs = 2 * ipc.len();
    let mut metrics: Vec<(String, f64)> = per_pass
        .into_iter()
        .map(|(name, values)| (name.to_string(), median(values)))
        .collect();
    metrics.push(("ml.predict_calls".into(), predict_calls as f64));
    metrics.push(("journal.bytes".into(), journal_bytes as f64));
    metrics.push((
        "ovba.salvage_yield".into(),
        if salvage_tried == 0 {
            0.0
        } else {
            salvage_docs as f64 / salvage_tried as f64
        },
    ));
    metrics.push(("isolate.ipc_ms_per_doc".into(), median(ipc)));
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"docs\": {}, \"passes\": {passes}, \"walk_mismatches\": {mismatches}, \
         \"engine_runs\": {engine_runs}, \"engine_mismatches\": {engine_mismatches}, \
         \"metrics\": {{{}}}}}",
        paths.len(),
        body.join(", ")
    );
    Ok(())
}
