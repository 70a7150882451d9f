//! Seeded input generators for the three workloads.
//!
//! Every workload writes its documents under one subdirectory of the work
//! directory plus `manifest.tsv`, one line per document:
//! `path  kind  tag  label  bytes  src_bytes`, where `kind` is the
//! container family (`ooxml`, `ole`, `junk`), `tag` what the generator
//! made (`intact`, `macro_free`, `junk`, `cut`, `stomped`), `label` 1 when
//! the generator marked the document malicious, and `src_bytes` the macro
//! source bytes it embeds. `probe.doc`, a macro-free OLE document, is the
//! one-document input for set-up timing.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use vbadet_corpus::{generate_macros, CorpusSpec, DocumentFactory, DocumentKind, MacroSample};
use vbadet_ole::{OleBuilder, OleFile};
use vbadet_ovba::VbaProjectBuilder;

/// SplitMix64: the generator's own choices (file mix, sizes, cut points)
/// come from this, seeded by the benchmark's `--seed`.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Self {
        Mix(seed ^ 0x5EED_BE4C_11A2_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

struct Manifest {
    out: io::BufWriter<fs::File>,
}

impl Manifest {
    fn create(dir: &Path) -> io::Result<Self> {
        Ok(Manifest {
            out: io::BufWriter::new(fs::File::create(dir.join("manifest.tsv"))?),
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn add(
        &mut self,
        dir: &Path,
        rel: &str,
        kind: &str,
        tag: &str,
        malicious: bool,
        bytes: &[u8],
        src_bytes: usize,
    ) -> io::Result<()> {
        fs::write(dir.join(rel), bytes)?;
        writeln!(
            self.out,
            "{rel}\t{kind}\t{tag}\t{}\t{}\t{src_bytes}",
            u8::from(malicious),
            bytes.len()
        )
    }

    fn finish(mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Files in the triage sweep: enough that one `vbadet scan` of them runs
/// for seconds, while the paths stay far below `ARG_MAX`.
const TRIAGE_FILES: usize = 16_000;
/// Distinct attachments for `gateway_serve`: more than one run's unique
/// requests.
const SERVE_FILES: usize = 1_200;
/// Corpus seed of the `gateway_serve` attachments. The population is the
/// same in every run and `--seed` picks the traffic over it (run.py), as a
/// gateway samples one stream of mail: 1,200 generated documents differ in
/// how many the detector gets right by up to 3% from seed to seed, which
/// would hide a verdict change of that size in `verdict_accuracy`.
const SERVE_CORPUS_SEED: u64 = 1;

pub fn run(workload: &str, seed: u64, out: &Path) -> io::Result<()> {
    fs::create_dir_all(out)?;
    let mut mix = Mix::new(seed);
    fs::write(out.join("probe.doc"), macro_free_doc(&mut mix, 6_000))?;
    match workload {
        "paper_batch" => paper_corpus(CorpusSpec::paper().with_seed(seed), out, "p"),
        "gateway_serve" => {
            // Table II shapes (class mix, container types, file sizes) at a
            // fraction of the file count: enough distinct attachments for
            // one run's unique requests.
            let paper = CorpusSpec::paper();
            let mut spec = paper.scaled(SERVE_FILES as f64 / paper.total_files() as f64);
            spec.benign_avg_size = paper.benign_avg_size;
            spec.malicious_avg_size = paper.malicious_avg_size;
            paper_corpus(spec.with_seed(SERVE_CORPUS_SEED), out, "s")
        }
        "triage_sweep" => triage(&mut mix, seed, out),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    }
}

fn paper_corpus(spec: CorpusSpec, out: &Path, sub: &str) -> io::Result<()> {
    fs::create_dir_all(out.join(sub))?;
    let mut manifest = Manifest::create(out)?;
    let macros = generate_macros(&spec);
    let mut result = Ok(());
    DocumentFactory::new(&spec, &macros).for_each(|file| {
        if result.is_err() {
            return;
        }
        let kind = match file.kind {
            DocumentKind::WordDocm | DocumentKind::ExcelXlsm => "ooxml",
            DocumentKind::WordDoc | DocumentKind::ExcelXls => "ole",
        };
        let src_bytes = vbadet::extract_macros(&file.bytes)
            .map(|ms| ms.iter().map(|m| m.code.len()).sum())
            .unwrap_or(0);
        result = manifest.add(
            out,
            &format!("{sub}/{}", file.name),
            kind,
            "intact",
            file.malicious,
            &file.bytes,
            src_bytes,
        );
    });
    result?;
    manifest.finish()
}

/// A file-share sweep: mostly macro-free OLE documents and junk, damaged
/// macro documents (cut inside a module stream, or with a stomped `dir`
/// stream), and a minority of small intact macro documents.
fn triage(mix: &mut Mix, seed: u64, out: &Path) -> io::Result<()> {
    fs::create_dir_all(out.join("t"))?;
    let mut manifest = Manifest::create(out)?;
    let macros = generate_macros(&CorpusSpec::paper().scaled(0.05).with_seed(seed));
    for i in 0..TRIAGE_FILES {
        let roll = mix.range(0, 100);
        let (ext, kind, tag, malicious, bytes, src) = match roll {
            0..=39 => {
                let len = mix.range(1_000, 16_000);
                (
                    "doc",
                    "ole",
                    "macro_free",
                    false,
                    macro_free_doc(mix, len),
                    0,
                )
            }
            40..=64 => {
                let (ext, bytes) = junk(mix, roll >= 55);
                (ext, "junk", "junk", false, bytes, 0)
            }
            _ => {
                let picked: Vec<&MacroSample> = (0..mix.range(1, 3))
                    .map(|_| &macros[mix.range(0, macros.len())])
                    .collect();
                let malicious = picked.iter().any(|m| m.malicious);
                let src = picked.iter().map(|m| m.source.len()).sum();
                let doc = macro_doc(mix, &picked);
                let (tag, bytes) = match roll {
                    65..=74 => (
                        "cut",
                        cut_inside_module(mix, &doc, picked[picked.len() - 1]),
                    ),
                    75..=84 => ("stomped", stomp_dir(&doc)?),
                    _ => ("intact", doc),
                };
                ("doc", "ole", tag, malicious, bytes, src)
            }
        };
        manifest.add(
            out,
            &format!("t/{i:05}.{ext}"),
            kind,
            tag,
            malicious,
            &bytes,
            src,
        )?;
    }
    manifest.finish()
}

fn macro_free_doc(mix: &mut Mix, len: usize) -> Vec<u8> {
    let mut ole = OleBuilder::new();
    ole.add_stream("WordDocument", &mix.bytes(len))
        .expect("valid stream name");
    let summary = mix.range(200, 600);
    ole.add_stream("\u{5}SummaryInformation", &mix.bytes(summary))
        .expect("valid stream name");
    ole.build()
}

fn macro_doc(mix: &mut Mix, modules: &[&MacroSample]) -> Vec<u8> {
    let mut project = VbaProjectBuilder::new("VBAProject");
    for (i, m) in modules.iter().enumerate() {
        let name = if i == 0 {
            "ThisDocument".to_string()
        } else {
            format!("Module{i}")
        };
        project.add_module(&name, &m.source);
        if i == 0 {
            project.document_module(&name);
        }
    }
    let mut ole = OleBuilder::new();
    let body = mix.range(2_000, 8_000);
    ole.add_stream("WordDocument", &mix.bytes(body))
        .expect("valid stream name");
    project
        .write_into(&mut ole, "Macros")
        .expect("valid module names");
    ole.build()
}

/// Non-Office bytes; with `magic`, garbage behind an OLE or ZIP signature
/// so the container parsers (and the ladder's retries) do real work.
fn junk(mix: &mut Mix, magic: bool) -> (&'static str, Vec<u8>) {
    let len = mix.range(64, 8_000);
    if magic {
        let (ext, head): (&str, &[u8]) = if mix.next().is_multiple_of(2) {
            ("doc", &[0xD0, 0xCF, 0x11, 0xE0, 0xA1, 0xB1, 0x1A, 0xE1])
        } else {
            ("docx", b"PK\x03\x04")
        };
        let mut bytes = head.to_vec();
        bytes.extend(mix.bytes(len));
        return (ext, bytes);
    }
    if mix.next().is_multiple_of(2) {
        ("bin", mix.bytes(len))
    } else {
        let words = [
            "invoice", "report", "meeting", "draft", "final", "notes", "q3",
        ];
        let mut text = String::new();
        while text.len() < len {
            text.push_str(words[mix.range(0, words.len())]);
            text.push(if mix.next().is_multiple_of(9) {
                '\n'
            } else {
                ' '
            });
        }
        ("txt", text.into_bytes())
    }
}

/// Truncates `doc` halfway through the compressed stream of `module`, so
/// the compound file is cut inside its VBA streams.
fn cut_inside_module(mix: &mut Mix, doc: &[u8], module: &MacroSample) -> Vec<u8> {
    let raw: Vec<u8> = module
        .source
        .chars()
        .map(|c| if (c as u32) < 256 { c as u8 } else { b'?' })
        .collect();
    let packed = vbadet_ovba::compression::compress(&raw);
    let at = doc
        .windows(packed.len().min(64))
        .position(|w| w == &packed[..w.len()])
        .map(|pos| pos + packed.len() / 2)
        .unwrap_or(doc.len() * 3 / 5);
    let jitter = mix.range(0, 32);
    doc[..(at + jitter).min(doc.len() - 1)].to_vec()
}

/// Rewrites `doc` with its `VBA/dir` stream overwritten by 0xFF bytes, the
/// damage VBA stomping leaves: module streams intact, project unreadable.
fn stomp_dir(doc: &[u8]) -> io::Result<Vec<u8>> {
    let ole = OleFile::parse(doc).map_err(io::Error::other)?;
    let mut rebuilt = OleBuilder::new();
    for path in ole.stream_paths().map_err(io::Error::other)? {
        let data = ole.open_stream(&path).map_err(io::Error::other)?;
        let data = if path.ends_with("VBA/dir") {
            vec![0xFF; data.len()]
        } else {
            data
        };
        rebuilt.add_stream(&path, &data).map_err(io::Error::other)?;
    }
    Ok(rebuilt.build())
}
