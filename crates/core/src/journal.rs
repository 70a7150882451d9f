//! Crash-safe scan journal: append-only JSONL checkpointing and replay.
//!
//! A triage run over a large corpus can be killed at any moment — OOM
//! reaper, power loss, an operator's Ctrl-C — and rescanning hundreds of
//! thousands of already-decided documents is the difference between a
//! ten-minute and a ten-hour recovery. [`ScanJournal`] checkpoints a batch
//! scan as it runs: one JSON object per line, a `begin` record before each
//! document is parsed and a `done` record (carrying its full
//! [`ScanOutcome`]) after. Each line is written and flushed as a unit;
//! every [`FSYNC_PERIOD`] records the file is additionally fsynced, so at
//! most one batch of buffered records is exposed to a power cut while an
//! ordinary process kill loses nothing.
//!
//! [`replay_journal`] reads a journal back tolerantly: a torn final line —
//! the expected wreckage of a crash mid-write — ends the replay with a
//! warning instead of an error, and any document with a `begin` but no
//! `done` is reported as in-flight so the resuming scan re-attempts it.
//!
//! The format is deliberately self-describing (a header line names the
//! format and version) and hand-rolled: one writer, one minimal
//! recursive-descent parser, no serialization dependency to drag into the
//! scanning core.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::path::Path;

use crate::detector::{ModuleVerdict, Verdict};
use crate::scan::{FailureClass, LadderRung, ScanOutcome, ScanRecord};

/// Format name carried by the journal's header line.
pub const JOURNAL_FORMAT: &str = "vbadet-scan-journal";
/// Format version carried by the journal's header line.
pub const JOURNAL_VERSION: u64 = 1;
/// The journal is fsynced every this many records (and at creation and
/// [`ScanJournal::sync`]). Between fsyncs records are still written and
/// flushed per line, so only an OS-level crash can lose them.
const FSYNC_PERIOD: usize = 64;

/// Append-only checkpoint writer for a batch scan.
///
/// Created fresh per scan run; the header line is written and fsynced
/// immediately so even an instantly-killed run leaves a recognizable
/// journal.
#[derive(Debug)]
pub struct ScanJournal {
    file: File,
    unsynced: usize,
    bytes_written: u64,
}

impl ScanJournal {
    /// Creates (truncating) a journal at `path` and writes the header.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut journal = ScanJournal {
            file,
            unsynced: 0,
            bytes_written: 0,
        };
        journal.write_line(&format!(
            "{{\"format\":{},\"version\":{JOURNAL_VERSION}}}",
            json_str(JOURNAL_FORMAT)
        ))?;
        journal.file.sync_data()?;
        journal.unsynced = 0;
        Ok(journal)
    }

    /// Records that `path` is about to be scanned. A `begin` without a
    /// matching `done` marks the document as in-flight on replay.
    ///
    /// # Errors
    ///
    /// Any I/O error appending to the journal.
    pub fn begin(&mut self, path: &str) -> io::Result<()> {
        self.write_line(&format!(
            "{{\"event\":\"begin\",\"path\":{}}}",
            json_str(path)
        ))
    }

    /// Records a completed document with its full outcome.
    ///
    /// # Errors
    ///
    /// Any I/O error appending to the journal.
    pub fn done(&mut self, record: &ScanRecord) -> io::Result<()> {
        let line = format!(
            "{{\"event\":\"done\",\"path\":{},\"outcome\":{}}}",
            json_str(&record.path.display().to_string()),
            outcome_json(&record.outcome),
        );
        if vbadet_faultpoint::fire("journal::torn-write").is_some() {
            // Simulate a crash mid-write: half the record reaches the
            // file, then the writer dies.
            self.file.write_all(&line.as_bytes()[..line.len() / 2])?;
            self.file.flush()?;
            return Err(io::Error::other("injected torn journal write"));
        }
        self.write_line(&line)
    }

    /// Forces an fsync now (end-of-batch durability point).
    ///
    /// # Errors
    ///
    /// Any I/O error from the sync.
    pub fn sync(&mut self) -> io::Result<()> {
        self.unsynced = 0;
        self.file.sync_data()
    }

    /// Total bytes appended so far, including the header line. Torn writes
    /// (the fault-injected half-record) are not counted: the record never
    /// durably completed.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.bytes_written += line.len() as u64 + 1;
        self.unsynced += 1;
        if self.unsynced >= FSYNC_PERIOD {
            self.sync()?;
        }
        Ok(())
    }
}

/// What a journal says happened before the crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalReplay {
    completed: HashMap<String, ScanOutcome>,
    /// Paths with a `begin` but no `done`: documents that were mid-scan
    /// when the run died and must be re-attempted.
    pub in_flight: Vec<String>,
    /// Set when the journal ends in a torn or garbled record (the normal
    /// signature of a crash mid-write). Everything before the damage is
    /// still replayed.
    pub warning: Option<String>,
}

impl JournalReplay {
    /// The recorded outcome for `path`, if its scan completed.
    pub fn outcome_for(&self, path: &str) -> Option<&ScanOutcome> {
        self.completed.get(path)
    }

    /// Number of documents with a recorded outcome.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }
}

/// Reads a journal back, tolerating the torn tail a crash leaves behind.
///
/// # Errors
///
/// Fails only when the file cannot be read at all or its header is missing
/// or names an unknown format/version — damage *within* the body
/// degrades to [`JournalReplay::warning`] instead.
pub fn replay_journal<P: AsRef<Path>>(path: P) -> io::Result<JournalReplay> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let mut lines = text.lines();
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let header = lines.next().ok_or_else(|| bad("empty journal"))?;
    let header = parse_json(header).map_err(|e| bad(&format!("bad journal header: {e}")))?;
    if header.get("format").and_then(Json::as_str) != Some(JOURNAL_FORMAT) {
        return Err(bad("not a vbadet scan journal"));
    }
    if header.get("version").and_then(Json::as_u64) != Some(JOURNAL_VERSION) {
        return Err(bad("unsupported journal version"));
    }
    let mut replay = JournalReplay::default();
    let mut pending: Vec<String> = Vec::new();
    for (idx, line) in lines.enumerate() {
        let record = match parse_json(line).and_then(|j| decode_event(&j)) {
            Ok(record) => record,
            Err(e) => {
                // Line numbers are 1-based and the header is line 1.
                replay.warning = Some(format!(
                    "journal damaged at line {}: {e}; later records ignored",
                    idx + 2
                ));
                break;
            }
        };
        match record {
            Event::Begin(path) => {
                if !pending.contains(&path) {
                    pending.push(path);
                }
            }
            Event::Done(path, outcome) => {
                pending.retain(|p| p != &path);
                replay.completed.insert(path, outcome);
            }
        }
    }
    replay.in_flight = pending;
    Ok(replay)
}

enum Event {
    Begin(String),
    Done(String, ScanOutcome),
}

fn decode_event(j: &Json) -> Result<Event, String> {
    let event = j
        .get("event")
        .and_then(Json::as_str)
        .ok_or("record without event")?;
    let path = j
        .get("path")
        .and_then(Json::as_str)
        .ok_or("record without path")?
        .to_string();
    match event {
        "begin" => Ok(Event::Begin(path)),
        "done" => {
            let outcome = j.get("outcome").ok_or("done record without outcome")?;
            Ok(Event::Done(path, decode_outcome(outcome)?))
        }
        other => Err(format!("unknown event {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Outcome encoding
// ---------------------------------------------------------------------------

pub(crate) fn outcome_json(outcome: &ScanOutcome) -> String {
    match outcome {
        ScanOutcome::Clean => "{\"kind\":\"clean\"}".to_string(),
        ScanOutcome::Macros(v) => {
            format!("{{\"kind\":\"macros\",\"verdicts\":{}}}", verdicts_json(v))
        }
        ScanOutcome::Salvaged(v) => {
            format!(
                "{{\"kind\":\"salvaged\",\"verdicts\":{}}}",
                verdicts_json(v)
            )
        }
        ScanOutcome::Recovered { rung, verdicts } => format!(
            "{{\"kind\":\"recovered\",\"rung\":{},\"verdicts\":{}}}",
            json_str(rung.label()),
            verdicts_json(verdicts)
        ),
        ScanOutcome::Failed { class, detail } => format!(
            "{{\"kind\":\"failed\",\"class\":{},\"detail\":{}}}",
            json_str(class.label()),
            json_str(detail)
        ),
    }
}

fn verdicts_json(verdicts: &[ModuleVerdict]) -> String {
    let items: Vec<String> = verdicts
        .iter()
        .map(|m| {
            format!(
                "{{\"module\":{},\"obfuscated\":{},\"score\":{}}}",
                json_str(&m.module_name),
                m.verdict.obfuscated,
                fmt_f64(m.verdict.score)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Shortest-roundtrip float formatting: Rust's `Display` for `f64` prints
/// the shortest decimal that parses back to the same bits, which is
/// exactly the property a checkpoint needs. Non-finite scores (which the
/// detector never produces) degrade to JSON `null`.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

pub(crate) fn decode_outcome(j: &Json) -> Result<ScanOutcome, String> {
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("outcome without kind")?;
    let verdicts = |j: &Json| -> Result<Vec<ModuleVerdict>, String> {
        j.get("verdicts")
            .and_then(Json::as_arr)
            .ok_or("outcome without verdicts")?
            .iter()
            .map(|v| {
                Ok(ModuleVerdict {
                    module_name: v
                        .get("module")
                        .and_then(Json::as_str)
                        .ok_or("verdict without module")?
                        .to_string(),
                    verdict: Verdict {
                        obfuscated: v
                            .get("obfuscated")
                            .and_then(Json::as_bool)
                            .ok_or("verdict without obfuscated")?,
                        score: v.get("score").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    },
                })
            })
            .collect()
    };
    match kind {
        "clean" => Ok(ScanOutcome::Clean),
        "macros" => Ok(ScanOutcome::Macros(verdicts(j)?)),
        "salvaged" => Ok(ScanOutcome::Salvaged(verdicts(j)?)),
        "recovered" => {
            let rung = j
                .get("rung")
                .and_then(Json::as_str)
                .and_then(LadderRung::from_label)
                .ok_or("recovered outcome without a valid rung")?;
            Ok(ScanOutcome::Recovered {
                rung,
                verdicts: verdicts(j)?,
            })
        }
        "failed" => Ok(ScanOutcome::Failed {
            class: j
                .get("class")
                .and_then(Json::as_str)
                .and_then(FailureClass::from_label)
                .ok_or("failed outcome without a valid class")?,
            detail: j
                .get("detail")
                .and_then(Json::as_str)
                .ok_or("failed outcome without detail")?
                .to_string(),
        }),
        other => Err(format!("unknown outcome kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Just enough for the journal format; objects keep
/// insertion order in a vector because lookups are tiny.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let high = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&high) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                high
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| "bad unicode escape".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                _ => {
                    // Copy the run of plain bytes up to the next quote or
                    // escape. The input came from a &str and both
                    // delimiters are ASCII, so the run is whole chars;
                    // validating only the run keeps a long string (the
                    // detector in an isolate hello) linear, not quadratic.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated unicode escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "bad unicode escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad unicode escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vbadet-journal-{tag}-{}.jsonl", std::process::id()))
    }

    fn sample_records() -> Vec<ScanRecord> {
        let verdict = |name: &str, obf: bool, score: f64| ModuleVerdict {
            module_name: name.to_string(),
            verdict: Verdict {
                obfuscated: obf,
                score,
            },
        };
        vec![
            ScanRecord {
                path: PathBuf::from("a.doc"),
                outcome: ScanOutcome::Clean,
            },
            ScanRecord {
                path: PathBuf::from("dir with spaces/b\"quoted\".docm"),
                outcome: ScanOutcome::Macros(vec![
                    verdict("Module1", true, 1.25),
                    verdict("Thïs–Dòc", false, -0.037_251_123_4),
                ]),
            },
            ScanRecord {
                path: PathBuf::from("c.xls"),
                outcome: ScanOutcome::Salvaged(vec![verdict("salvaged_1", true, 3.5)]),
            },
            ScanRecord {
                path: PathBuf::from("d.bin"),
                outcome: ScanOutcome::Recovered {
                    rung: LadderRung::Salvage,
                    verdicts: vec![verdict("salvaged_1", false, -0.5)],
                },
            },
            ScanRecord {
                path: PathBuf::from("e.doc"),
                outcome: ScanOutcome::Failed {
                    class: FailureClass::Timeout,
                    detail: "scan budget exceeded: deadline\nsecond line".to_string(),
                },
            },
        ]
    }

    #[test]
    fn journal_round_trips_every_outcome_kind() {
        let path = temp_path("roundtrip");
        let records = sample_records();
        let mut journal = ScanJournal::create(&path).unwrap();
        for r in &records {
            journal.begin(&r.path.display().to_string()).unwrap();
            journal.done(r).unwrap();
        }
        journal.sync().unwrap();
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(replay.warning.is_none());
        assert!(replay.in_flight.is_empty());
        assert_eq!(replay.completed_count(), records.len());
        for r in &records {
            assert_eq!(
                replay.outcome_for(&r.path.display().to_string()),
                Some(&r.outcome),
                "outcome mismatch for {}",
                r.path.display()
            );
        }
    }

    #[test]
    fn torn_tail_degrades_to_warning_and_in_flight() {
        let path = temp_path("torn");
        let records = sample_records();
        {
            let mut journal = ScanJournal::create(&path).unwrap();
            for r in &records[..2] {
                journal.begin(&r.path.display().to_string()).unwrap();
                journal.done(r).unwrap();
            }
            journal.begin("mid-flight.doc").unwrap();
        }
        // Append half a record, as a crash mid-write would.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"event\":\"done\",\"path\":\"mid-fl")
                .unwrap();
        }
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.completed_count(), 2);
        assert_eq!(replay.in_flight, vec!["mid-flight.doc".to_string()]);
        let warning = replay.warning.expect("torn tail must set a warning");
        assert!(warning.contains("damaged"), "unexpected warning: {warning}");
    }

    #[test]
    fn duplicate_path_entries_resolve_last_wins() {
        // A resumed-and-rejournaled run (or a rescan appended by an
        // operator) can record the same path twice; the later outcome is
        // the one a resume must trust.
        let path = temp_path("dup");
        let mut journal = ScanJournal::create(&path).unwrap();
        let first = ScanRecord {
            path: PathBuf::from("x.doc"),
            outcome: ScanOutcome::Clean,
        };
        let second = ScanRecord {
            path: PathBuf::from("x.doc"),
            outcome: ScanOutcome::Failed {
                class: FailureClass::Truncated,
                detail: "rescan saw a shorter file".to_string(),
            },
        };
        journal.begin("x.doc").unwrap();
        journal.done(&first).unwrap();
        journal.begin("x.doc").unwrap();
        journal.done(&second).unwrap();
        journal.sync().unwrap();
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.completed_count(), 1);
        assert_eq!(replay.outcome_for("x.doc"), Some(&second.outcome));
        assert!(replay.in_flight.is_empty());
        assert!(replay.warning.is_none());
    }

    #[test]
    fn empty_journal_file_is_a_typed_error() {
        let path = temp_path("empty");
        std::fs::write(&path, "").unwrap();
        let err = replay_journal(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("empty journal"), "got {err}");
    }

    #[test]
    fn header_only_journal_replays_to_nothing() {
        // A run killed immediately after creation leaves just the header:
        // a valid journal with zero decided documents and no damage.
        let path = temp_path("header-only");
        ScanJournal::create(&path).unwrap();
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replay.completed_count(), 0);
        assert!(replay.in_flight.is_empty());
        assert!(replay.warning.is_none());
    }

    #[test]
    fn journal_with_every_body_line_torn_degrades_to_a_warning() {
        let path = temp_path("all-torn");
        {
            ScanJournal::create(&path).unwrap();
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"event\":\"done\",\"pa\n{\"event\nnot json\n")
                .unwrap();
        }
        let replay = replay_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Damage at the first body line: nothing replayed, nothing
        // in-flight, and the warning points at line 2 (header is line 1).
        assert_eq!(replay.completed_count(), 0);
        assert!(replay.in_flight.is_empty());
        let warning = replay.warning.expect("torn body must warn");
        assert!(warning.contains("line 2"), "unexpected warning: {warning}");
    }

    #[test]
    fn foreign_files_are_rejected_not_replayed() {
        let path = temp_path("foreign");
        std::fs::write(&path, "{\"format\":\"something-else\",\"version\":1}\n").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::write(&path, "not json at all\n").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(replay_journal(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn float_formatting_round_trips_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.25,
            0.1,
            1e300,
            -3.337e-10,
            f64::MIN_POSITIVE,
        ] {
            let printed = fmt_f64(x);
            let back: f64 = printed.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} printed as {printed}");
        }
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let j = parse_json(
            "{\"a\": [1, -2.5, true, null], \"b\": {\"c\": \"x\\n\\\"y\\\" \\u00e9 \\ud83d\\ude00\"}}",
        )
        .unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\n\"y\" é 😀")
        );
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn long_strings_round_trip_in_linear_time() {
        // A detector-sized text and a 1 MiB one, with raw non-ASCII and
        // escapes between the plain runs. Re-validating the rest of the
        // input per char (the old decoder) takes minutes on the latter.
        for n in [10_000, 1 << 20] {
            let text: String = "caf\u{e9} \"q\"\\\n\u{1F600}x"
                .chars()
                .cycle()
                .take(n)
                .collect();
            let parsed = parse_json(&json_str(&text)).unwrap();
            assert_eq!(parsed.as_str(), Some(text.as_str()));
        }
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("\"caf\u{e9}").is_err());
    }
}
