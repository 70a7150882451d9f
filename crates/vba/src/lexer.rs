//! The VBA tokenizer.
//!
//! The lexer is span-based and works on bytes: it walks the source once,
//! dispatching every byte through a 256-entry class table ([`CLASS`],
//! U+0000–U+00FF) and emitting [`SpanToken`]s (byte + char offsets,
//! interned ids, no owned payloads). Runs of identifier characters and
//! blanks are skipped by table, comment and string bodies a word at a
//! time. A lead byte ≥ 0x80 takes a cold path that decodes one `char`.
//! Character statistics come from a byte histogram and per-run word
//! scans ([`SourceStats`]). The classic owned-token API ([`tokenize`]) is
//! a thin materialization on top and produces byte-identical output to
//! the historical `Vec<char>`-indexed implementation (kept as a reference
//! oracle under the `reference` feature).

use crate::intern::{self, Op};
use crate::stats::SourceStats;
use crate::token::{SpanKind, SpanToken, Token, TokenKind};

/// VBA reserved words (MS-VBAL §3.3.5), lowercase.
pub(crate) const KEYWORDS: &[&str] = &[
    "addressof",
    "alias",
    "and",
    "as",
    "attribute",
    "base",
    "boolean",
    "byref",
    "byte",
    "byval",
    "call",
    "case",
    "cdecl",
    "compare",
    "const",
    "currency",
    "date",
    "decimal",
    "declare",
    "defbool",
    "defbyte",
    "defcur",
    "defdate",
    "defdbl",
    "defint",
    "deflng",
    "defobj",
    "defsng",
    "defstr",
    "defvar",
    "dim",
    "do",
    "double",
    "each",
    "else",
    "elseif",
    "empty",
    "end",
    "enum",
    "eqv",
    "erase",
    "error",
    "event",
    "exit",
    "explicit",
    "false",
    "for",
    "friend",
    "function",
    "get",
    "gosub",
    "goto",
    "if",
    "imp",
    "implements",
    "in",
    "integer",
    "is",
    "let",
    "lib",
    "like",
    "line",
    "lock",
    "long",
    "longlong",
    "longptr",
    "loop",
    "lset",
    "mod",
    "new",
    "next",
    "not",
    "nothing",
    "null",
    "object",
    "on",
    "option",
    "optional",
    "or",
    "paramarray",
    "preserve",
    "print",
    "private",
    "property",
    "public",
    "put",
    "raiseevent",
    "randomize",
    "redim",
    "resume",
    "return",
    "rset",
    "seek",
    "select",
    "set",
    "single",
    "static",
    "step",
    "stop",
    "string",
    "sub",
    "then",
    "to",
    "true",
    "type",
    "typeof",
    "until",
    "variant",
    "wend",
    "while",
    "with",
    "withevents",
    "write",
    "xor",
];

/// Compares a lowercase table entry against the ASCII-lowercase folding
/// of `word`, byte-wise — the same ordering as
/// `entry.cmp(&word.to_ascii_lowercase())` without allocating the folded
/// copy (string comparison is bytewise-lexicographic, and ASCII folding
/// maps byte-for-byte).
pub(crate) fn cmp_ascii_fold(entry: &str, word: &str) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let mut e = entry.bytes();
    let mut w = word.bytes().map(|b| b.to_ascii_lowercase());
    loop {
        match (e.next(), w.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(a), Some(b)) => match a.cmp(&b) {
                Ordering::Equal => continue,
                other => return other,
            },
        }
    }
}

/// Whether `word` is a VBA reserved word (case-insensitive, no allocation).
/// The text oracle for the interned keyword ids the span lexer assigns.
#[cfg(any(test, feature = "reference"))]
pub(crate) fn is_keyword(word: &str) -> bool {
    KEYWORDS
        .binary_search_by(|k| cmp_ascii_fold(k, word))
        .is_ok()
}

/// Type-declaration suffix characters that may trail an identifier.
#[cfg(any(test, feature = "reference"))]
fn is_type_suffix(c: char) -> bool {
    matches!(c, '$' | '%' | '&' | '!' | '#' | '@')
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || !c.is_ascii()
}

fn is_ident_continue(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || !c.is_ascii()
}

/// A "word" character (paper §IV.C.4): alphanumeric or `_`.
fn is_word_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Class bits of one character, see [`CLASS`].
pub(crate) const IDENT_START: u8 = 1 << 0;
pub(crate) const IDENT_CONT: u8 = 1 << 1;
pub(crate) const SUFFIX: u8 = 1 << 2;
/// `char::is_whitespace` (J6).
pub(crate) const SPACE: u8 = 1 << 3;
/// [`is_word_char`] (V3/V4, J5/J12/J13).
pub(crate) const WORD: u8 = 1 << 4;
/// `char::is_ascii_alphabetic` (J5 readability).
pub(crate) const ALPHA: u8 = 1 << 5;
/// An ASCII vowel, either case (J5 readability).
pub(crate) const VOWEL: u8 = 1 << 6;
/// Space, tab or CR: skipped by the lexer without a token.
pub(crate) const BLANK: u8 = 1 << 7;

/// The class of every character from U+0000 to U+00FF — the whole range
/// `ovba`'s code-page decode produces, so on the scan path every char is
/// classified by one load. Built at compile time from explicit ranges;
/// the `class_table_matches_char_predicates` test proves it equal to the
/// `char` predicates it replaces on all 256 values.
pub(crate) static CLASS: [u8; 256] = class_table();

const fn class_table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut c = 0usize;
    while c < 256 {
        let b = c as u8;
        let alpha = b.is_ascii_alphabetic();
        let digit = b.is_ascii_digit();
        let ascii = c < 0x80;
        // Latin-1 letters and numerals: ª ² ³ µ ¹ º ¼ ½ ¾ À–Ö Ø–ö ø–ÿ.
        let latin1_alnum = matches!(
            b,
            0xAA | 0xB2 | 0xB3 | 0xB5 | 0xB9 | 0xBA | 0xBC..=0xBE | 0xC0..=0xD6 | 0xD8..=0xF6
                | 0xF8..=0xFF
        );
        let mut class = 0;
        if alpha || b == b'_' || !ascii {
            class |= IDENT_START;
        }
        if alpha || digit || b == b'_' || !ascii {
            class |= IDENT_CONT;
        }
        if matches!(b, b'$' | b'%' | b'&' | b'!' | b'#' | b'@') {
            class |= SUFFIX;
        }
        if matches!(b, 0x09..=0x0D | b' ' | 0x85 | 0xA0) {
            class |= SPACE;
        }
        if alpha || digit || b == b'_' || latin1_alnum {
            class |= WORD;
        }
        if alpha {
            class |= ALPHA;
        }
        if matches!(b.to_ascii_lowercase(), b'a' | b'e' | b'i' | b'o' | b'u') {
            class |= VOWEL;
        }
        if matches!(b, b' ' | b'\t' | b'\r') {
            class |= BLANK;
        }
        table[c] = class;
        c += 1;
    }
    table
}

/// The class of any char: the table below U+0100, the original
/// predicates at or above it (never reached on the scan path).
pub(crate) fn class_of(c: char) -> u8 {
    if let Ok(b) = u8::try_from(c) {
        return CLASS[b as usize];
    }
    let mut class = 0;
    if is_ident_start(c) {
        class |= IDENT_START;
    }
    if is_ident_continue(c) {
        class |= IDENT_CONT;
    }
    if c.is_whitespace() {
        class |= SPACE;
    }
    if is_word_char(c) {
        class |= WORD;
    }
    class
}

/// Cold path for a lead byte ≥ 0x80 at byte `i` (a char boundary):
/// decodes the one char there and returns its class and UTF-8 length.
#[cold]
pub(crate) fn class_at(src: &str, i: usize) -> (u8, usize) {
    let c = src[i..].chars().next().expect("lexer cursor on a char");
    (class_of(c), c.len_utf8())
}

/// UTF-8 continuation bytes (0x80–0xBF) in `bytes`: byte length minus
/// char length.
fn continuation_bytes(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| (b as i8) < -0x40).count()
}

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// High bit set in each byte of `x` that is zero. The lowest set bit is
/// always exact (higher ones may be borrow artefacts).
#[inline]
fn zero_bytes(x: u64) -> u64 {
    x.wrapping_sub(LO) & !x & HI
}

/// Index of the first `a` or `b` in `bytes[from..]`, or `bytes.len()`:
/// eight bytes at a time (SWAR), then byte by byte for the tail.
#[inline]
fn find_either(bytes: &[u8], from: usize, a: u8, b: u8) -> usize {
    let (pa, pb) = (LO * a as u64, LO * b as u64);
    let mut i = from;
    while i + 8 <= bytes.len() {
        let word = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("eight bytes"));
        let hits = zero_bytes(word ^ pa) | zero_bytes(word ^ pb);
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != a && bytes[i] != b {
        i += 1;
    }
    i
}

/// How a string literal's decoded value is stored: as a borrowed span of
/// the source (the common case) or, when `""` escapes force a rewrite, as
/// an index into the decoded-string arena.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StrRepr {
    /// Byte range of the value in the source (quotes excluded).
    Span(usize, usize),
    /// Index into the decoded arena.
    Decoded(usize),
}

/// Side-table record for one string literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StringInfo {
    pub repr: StrRepr,
    /// Decoded value length in characters (recorded during lexing; J8/V7
    /// never re-walk the value).
    pub char_len: usize,
}

/// Side-table record for one comment: the trimmed body as a byte range of
/// the source. Character lengths are aggregated into
/// [`SourceStats::comment_body_chars`] during lexing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CommentInfo {
    pub body_start: usize,
    pub body_end: usize,
}

/// The state of one lexing pass: a byte cursor, the number of UTF-8
/// continuation bytes before it (so a char offset is `i - wide`; always
/// 0 in an ASCII source), the line and code-run machines, and the output
/// buffers.
struct Lexer<'a, 'o> {
    src: &'a str,
    b: &'a [u8],
    ascii: bool,
    i: usize,
    wide: usize,
    /// Char offset where the current physical line began.
    line_start: usize,
    /// The last code word seen, as `(start, end, chars)`, not yet
    /// counted: the next word run joins it if it starts at `end`.
    open_word: Option<(usize, usize, usize)>,
    tokens: &'o mut Vec<SpanToken>,
    strings: &'o mut Vec<StringInfo>,
    comments: &'o mut Vec<CommentInfo>,
    decoded: &'o mut Vec<String>,
    stats: &'o mut SourceStats,
}

/// The single lexing pass: tokenizes `source` into `tokens` (+ string and
/// comment side tables) while filling `stats`. All output vectors are
/// cleared first; capacity is retained.
///
/// Token offsets are `u32`, so `source` must be shorter than 4 GiB (the
/// scan path caps a module at `ScanLimits`' 4 MiB).
pub(crate) fn lex_spans(
    source: &str,
    tokens: &mut Vec<SpanToken>,
    strings: &mut Vec<StringInfo>,
    comments: &mut Vec<CommentInfo>,
    decoded: &mut Vec<String>,
    stats: &mut SourceStats,
) {
    assert!(
        u32::try_from(source.len()).is_ok(),
        "VBA source of {} bytes exceeds the lexer's 4 GiB span range",
        source.len()
    );
    tokens.clear();
    strings.clear();
    comments.clear();
    decoded.clear();
    stats.reset();
    let ascii = stats.count_chars(source);
    let mut lexer = Lexer {
        src: source,
        b: source.as_bytes(),
        ascii,
        i: 0,
        wide: 0,
        line_start: 0,
        open_word: None,
        tokens,
        strings,
        comments,
        decoded,
        stats,
    };
    lexer.run();
}

impl Lexer<'_, '_> {
    fn run(&mut self) {
        let n = self.b.len();
        let b = self.b;
        while self.i < n {
            let start = self.i;
            let c = b[start];
            // Line continuation: whitespace (or the start), '_', optional
            // spaces, line break.
            if c == b'_' && (start == 0 || matches!(b[start - 1], b' ' | b'\t')) && self.splice() {
                continue;
            }
            let class = if c < 0x80 {
                CLASS[c as usize]
            } else {
                class_at(self.src, start).0
            };
            if class & BLANK != 0 {
                let mut i = start + 1;
                while i < n && CLASS[b[i] as usize] & BLANK != 0 {
                    i += 1;
                }
                self.i = i;
                continue;
            }
            let cstart = self.char_pos();
            match c {
                b'\n' => {
                    self.newline(start);
                    self.i += 1;
                    self.push(SpanKind::Newline, start, cstart);
                }
                b'\'' => {
                    self.i += 1; // the marker
                    self.comment(start, cstart, false);
                }
                b'"' => self.string(start, cstart),
                b'&' if matches!(self.b.get(start + 1), Some(b'H' | b'h' | b'O' | b'o')) => {
                    self.radix_number(start, cstart)
                }
                b'0'..=b'9' => self.number(start, cstart),
                _ if class & IDENT_START != 0 => self.word(start, cstart),
                _ => {
                    // Operators and punctuation, two-character first. Every
                    // non-ASCII char is an identifier start, so `c` is ASCII.
                    debug_assert!(c.is_ascii());
                    if let Some(op) = self.b.get(start + 1).and_then(|&d| Op::pair(c, d)) {
                        self.i += 2;
                        self.push(SpanKind::Operator(op), start, cstart);
                    } else {
                        self.i += 1;
                        if let Some(op) = Op::single(c) {
                            self.push(SpanKind::Operator(op), start, cstart);
                        }
                        // Unknown characters are skipped (total lexer).
                    }
                }
            }
        }
        self.flush_word();
        let last_line = self.char_pos() - self.line_start;
        if last_line > 0 {
            self.stats.line_count += 1;
            if last_line > 150 {
                self.stats.long_lines += 1;
            }
        }
        debug_assert_eq!(self.char_pos(), self.stats.char_len);
    }

    #[inline]
    fn char_pos(&self) -> usize {
        self.i - self.wide
    }

    /// Moves the cursor to `to` over arbitrary text; returns the number
    /// of chars passed.
    #[inline]
    fn advance(&mut self, to: usize) -> usize {
        let mut chars = to - self.i;
        if !self.ascii {
            let wide = continuation_bytes(&self.b[self.i..to]);
            self.wide += wide;
            chars -= wide;
        }
        self.i = to;
        chars
    }

    #[inline]
    fn push(&mut self, kind: SpanKind, start: usize, cstart: usize) {
        // `lex_spans` checked that every offset fits in u32.
        self.tokens.push(SpanToken {
            kind,
            start: start as u32,
            end: self.i as u32,
            char_start: cstart as u32,
            char_end: self.char_pos() as u32,
        });
    }

    /// Line machine, `str::lines` semantics: the '\n' at byte `at` ends a
    /// line (one '\r' before it is not counted in its length).
    fn newline(&mut self, at: usize) {
        let pos = at - self.wide;
        let len = pos - self.line_start - usize::from(at > 0 && self.b[at - 1] == b'\r');
        self.stats.line_count += 1;
        if len > 150 {
            self.stats.long_lines += 1;
        }
        self.line_start = pos + 1;
    }

    /// Code-word machine (V3/V4, J5/J12/J13): `[s, e)` is a run of word
    /// characters (`chars` of them) outside comments and strings. A word
    /// is a maximal such run, so a run that starts where the previous one
    /// ended extends it: a number directly followed by a name (`1e`,
    /// `&HFFg`) is one word.
    fn word_run(&mut self, s: usize, e: usize, chars: usize) {
        match &mut self.open_word {
            Some((_, end, n)) if *end == s => {
                *end = e;
                *n += chars;
            }
            _ => {
                self.flush_word();
                self.open_word = Some((s, e, chars));
            }
        }
    }

    /// Counts the open code word; called where code ends (a comment or
    /// string starts, or the source ends).
    fn flush_word(&mut self) {
        if let Some((s, e, chars)) = self.open_word.take() {
            self.stats.code_word(&self.b[s..e], chars);
        }
    }

    /// Reports the word runs inside the ASCII token `[s, e)`.
    fn ascii_words(&mut self, s: usize, e: usize) {
        let mut j = s;
        while j < e {
            if CLASS[self.b[j] as usize] & WORD == 0 {
                j += 1;
                continue;
            }
            let run = j;
            while j < e && CLASS[self.b[j] as usize] & WORD != 0 {
                j += 1;
            }
            self.word_run(run, j, j - run);
        }
    }

    /// A `_` after whitespace (or at the start) followed by optional
    /// spaces and a line break splices the lines: consumed, no token.
    fn splice(&mut self) -> bool {
        let mut j = self.i + 1;
        while j < self.b.len() && matches!(self.b[j], b' ' | b'\t' | b'\r') {
            j += 1;
        }
        if j < self.b.len() && self.b[j] == b'\n' {
            // The `_` itself is a one-character code word.
            self.word_run(self.i, self.i + 1, 1);
            self.newline(j);
            self.i = j + 1;
            return true;
        }
        false
    }

    /// A comment: the cursor is past its `'` or `Rem` marker. The body
    /// runs to the line break; `Rem` bodies also drop leading whitespace.
    fn comment(&mut self, start: usize, cstart: usize, rem: bool) {
        self.flush_word();
        let raw_start = self.i;
        let end = find_either(self.b, raw_start, b'\n', b'\n');
        let raw_chars = self.advance(end);
        let raw = &self.src[raw_start..end];
        let after_r = raw.trim_end_matches('\r');
        // Every trimmed trailing byte is one '\r' character.
        let mut body_chars = raw_chars - (raw.len() - after_r.len());
        let body = if rem { after_r.trim_start() } else { after_r };
        let prefix = &after_r[..after_r.len() - body.len()];
        body_chars -= if self.ascii {
            prefix.len()
        } else {
            prefix.chars().count()
        };
        let body_start = raw_start + prefix.len();
        self.comments.push(CommentInfo {
            body_start,
            body_end: body_start + body.len(),
        });
        self.stats.comment_body_chars += body_chars;
        self.stats.comment_span_chars += self.char_pos() - cstart;
        self.stats.scan_comment_words(body);
        self.push(
            SpanKind::Comment((self.comments.len() - 1) as u32),
            start,
            cstart,
        );
    }

    /// A string literal: up to the closing quote, the line break or the
    /// end of the source (unterminated literals are tolerated); `""`
    /// decodes to one quote.
    fn string(&mut self, start: usize, cstart: usize) {
        self.flush_word();
        self.i += 1; // opening quote
        let val_start = self.i;
        let mut copied_to = val_start;
        let mut buf: Option<String> = None;
        let mut char_len = 0usize;
        let val_end = loop {
            let j = find_either(self.b, self.i, b'"', b'\n');
            char_len += self.advance(j);
            if j == self.b.len() || self.b[j] == b'\n' {
                break j; // strings do not span lines
            }
            if self.b.get(j + 1) == Some(&b'"') {
                // Escaped quote: decode lazily.
                let s = buf.get_or_insert_with(String::new);
                s.push_str(&self.src[copied_to..j]);
                s.push('"');
                char_len += 1;
                self.i = j + 2;
                copied_to = self.i;
            } else {
                self.i = j + 1;
                break j;
            }
        };
        let repr = match buf {
            Some(mut s) => {
                s.push_str(&self.src[copied_to..val_end]);
                self.decoded.push(s);
                StrRepr::Decoded(self.decoded.len() - 1)
            }
            None => StrRepr::Span(val_start, val_end),
        };
        self.strings.push(StringInfo { repr, char_len });
        self.stats.string_chars += char_len;
        self.stats.string_len_sum += char_len as f64;
        self.push(
            SpanKind::StringLit((self.strings.len() - 1) as u32),
            start,
            cstart,
        );
    }

    /// `&H` / `&O` numeric literal; falls back to the `&` operator when
    /// no digit follows.
    fn radix_number(&mut self, start: usize, cstart: usize) {
        let hex = matches!(self.b[start + 1], b'H' | b'h');
        let digit = |b: u8| {
            if hex {
                b.is_ascii_hexdigit()
            } else {
                (b'0'..=b'7').contains(&b)
            }
        };
        let mut j = start + 2;
        while j < self.b.len() && digit(self.b[j]) {
            j += 1;
        }
        if j > start + 2 {
            if j < self.b.len() && CLASS[self.b[j] as usize] & SUFFIX != 0 {
                j += 1;
            }
            self.i = j;
            self.ascii_words(start, j);
            self.push(SpanKind::Number, start, cstart);
        } else {
            self.i = start + 1;
            self.push(SpanKind::Operator(Op::Amp), start, cstart);
        }
    }

    fn digits(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
    }

    /// Decimal literal: digits, optional fraction, an exponent only when
    /// digits follow it, optional type suffix.
    fn number(&mut self, start: usize, cstart: usize) {
        self.digits();
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            self.digits();
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            let mut j = self.i + 1;
            if matches!(self.b.get(j), Some(b'+' | b'-')) {
                j += 1;
            }
            if self.b.get(j).is_some_and(u8::is_ascii_digit) {
                self.i = j;
                self.digits();
            }
        }
        if self.i < self.b.len() && CLASS[self.b[self.i] as usize] & SUFFIX != 0 {
            self.i += 1;
        }
        self.ascii_words(start, self.i);
        self.push(SpanKind::Number, start, cstart);
    }

    /// A word: `Rem` (a comment), a keyword, or an identifier (which
    /// absorbs one type suffix), interned on the spot.
    fn word(&mut self, start: usize, cstart: usize) {
        let n = self.b.len();
        // The identifier's word characters not yet reported as a code
        // word run. ASCII identifier characters are all word characters;
        // a non-ASCII one that is not (U+00A0, U+2603, …) splits the run.
        let (mut seg, mut seg_c) = (start, cstart);
        let b = self.b;
        loop {
            let mut i = self.i;
            while i < n && b[i] < 0x80 && CLASS[b[i] as usize] & IDENT_CONT != 0 {
                i += 1;
            }
            self.i = i;
            if i == n || b[i] < 0x80 {
                break;
            }
            let (class, len) = class_at(self.src, self.i);
            if class & IDENT_CONT == 0 {
                break;
            }
            if class & WORD == 0 {
                if self.i > seg {
                    self.word_run(seg, self.i, self.char_pos() - seg_c);
                }
                seg = self.i + len;
                seg_c = self.char_pos() + 1;
            }
            self.wide += len - 1;
            self.i += len;
        }
        let word = &self.b[start..self.i];
        if word.eq_ignore_ascii_case(b"rem") {
            // A comment: the marker is not a code word (and `rem` is all
            // ASCII, so no run of it was reported above).
            self.comment(start, cstart, true);
            return;
        }
        if self.i > seg {
            self.word_run(seg, self.i, self.char_pos() - seg_c);
        }
        let interned = intern::lookup(word);
        let kind = match interned.keyword() {
            Some(k) => SpanKind::Keyword(k),
            None => {
                if self.i < n && CLASS[self.b[self.i] as usize] & SUFFIX != 0 {
                    self.i += 1;
                }
                SpanKind::Identifier(interned.builtin())
            }
        };
        self.push(kind, start, cstart);
    }
}

/// Tokenizes VBA source code.
///
/// The lexer is *total*: any input produces a token stream (unrecognized
/// bytes become one-character [`TokenKind::Operator`]-like fallbacks are
/// skipped), which matters because obfuscated macros frequently contain
/// deliberately broken code (§VI.B of the paper).
///
/// # Panics
///
/// If `source` is 4 GiB or longer (token offsets are `u32`).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut strings = Vec::new();
    let mut comments = Vec::new();
    let mut decoded = Vec::new();
    let mut stats = SourceStats::default();
    lex_spans(
        source,
        &mut tokens,
        &mut strings,
        &mut comments,
        &mut decoded,
        &mut stats,
    );
    tokens
        .iter()
        .map(|t| {
            let kind = match t.kind {
                SpanKind::Identifier(_) => TokenKind::Identifier(source[t.span()].to_string()),
                SpanKind::Keyword(_) => TokenKind::Keyword(source[t.span()].to_string()),
                SpanKind::Number => TokenKind::Number(source[t.span()].to_string()),
                SpanKind::StringLit(i) => {
                    let info = &strings[i as usize];
                    TokenKind::StringLit(match info.repr {
                        StrRepr::Span(s, e) => source[s..e].to_string(),
                        StrRepr::Decoded(d) => decoded[d].clone(),
                    })
                }
                SpanKind::Comment(i) => {
                    let info = &comments[i as usize];
                    TokenKind::Comment(source[info.body_start..info.body_end].to_string())
                }
                SpanKind::Operator(op) => TokenKind::Operator(op.as_str()),
                SpanKind::Newline => TokenKind::Newline,
            };
            Token {
                kind,
                start: t.start as usize,
                end: t.end as usize,
            }
        })
        .collect()
}

/// The historical `Vec<char>`-indexed tokenizer, kept verbatim as the
/// equivalence oracle for the span lexer: property tests assert the two
/// produce identical token streams on arbitrary (including hostile)
/// input.
#[cfg(any(test, feature = "reference"))]
pub fn reference_tokenize(source: &str) -> Vec<Token> {
    let bytes: Vec<char> = source.chars().collect();
    // Byte offsets per char index (so spans refer to the original string).
    let mut offsets = Vec::with_capacity(bytes.len() + 1);
    {
        let mut off = 0usize;
        for &c in &bytes {
            offsets.push(off);
            off += c.len_utf8();
        }
        offsets.push(off);
    }

    let mut tokens = Vec::new();
    let mut i = 0usize;
    let n = bytes.len();

    let push = |tokens: &mut Vec<Token>, kind: TokenKind, start: usize, end: usize| {
        tokens.push(Token {
            kind,
            start: offsets[start],
            end: offsets[end],
        });
    };

    while i < n {
        let c = bytes[i];

        // Line continuation: whitespace, '_', optional spaces, line break.
        if c == '_' && (i == 0 || bytes[i - 1] == ' ' || bytes[i - 1] == '\t') {
            let mut j = i + 1;
            while j < n && (bytes[j] == ' ' || bytes[j] == '\t' || bytes[j] == '\r') {
                j += 1;
            }
            if j < n && bytes[j] == '\n' {
                i = j + 1; // splice: no Newline token
                continue;
            }
        }

        match c {
            ' ' | '\t' | '\r' => {
                i += 1;
            }
            '\n' => {
                push(&mut tokens, TokenKind::Newline, i, i + 1);
                i += 1;
            }
            '\'' => {
                let start = i;
                i += 1;
                let text_start = i;
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[text_start..i].iter().collect();
                push(
                    &mut tokens,
                    TokenKind::Comment(text.trim_end_matches('\r').to_string()),
                    start,
                    i,
                );
            }
            '"' => {
                let start = i;
                i += 1;
                let mut value = String::new();
                loop {
                    if i >= n {
                        break; // unterminated string: tolerate
                    }
                    if bytes[i] == '"' {
                        if i + 1 < n && bytes[i + 1] == '"' {
                            value.push('"');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else if bytes[i] == '\n' {
                        break; // strings do not span lines
                    } else {
                        value.push(bytes[i]);
                        i += 1;
                    }
                }
                push(&mut tokens, TokenKind::StringLit(value), start, i);
            }
            '&' if i + 1 < n && matches!(bytes[i + 1], 'H' | 'h' | 'O' | 'o') => {
                // &H / &O numeric literal (falls back to operator + ident
                // when no digits follow).
                let radix_hex = matches!(bytes[i + 1], 'H' | 'h');
                let mut j = i + 2;
                while j < n
                    && (bytes[j].is_ascii_hexdigit() && radix_hex
                        || bytes[j].is_digit(8) && !radix_hex)
                {
                    j += 1;
                }
                if j > i + 2 {
                    if j < n && is_type_suffix(bytes[j]) {
                        j += 1;
                    }
                    let text: String = bytes[i..j].iter().collect();
                    push(&mut tokens, TokenKind::Number(text), i, j);
                    i = j;
                } else {
                    push(&mut tokens, TokenKind::Operator("&"), i, i + 1);
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i < n && bytes[i] == '.' {
                    i += 1;
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < n && matches!(bytes[i], 'e' | 'E') {
                    let mut j = i + 1;
                    if j < n && matches!(bytes[j], '+' | '-') {
                        j += 1;
                    }
                    if j < n && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < n && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                if i < n && is_type_suffix(bytes[i]) {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push(&mut tokens, TokenKind::Number(text), start, i);
            }
            _ if is_ident_start(c) => {
                let start = i;
                while i < n && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                if word.eq_ignore_ascii_case("rem") {
                    // Rem comment: swallow the rest of the line.
                    let text_start = i;
                    while i < n && bytes[i] != '\n' {
                        i += 1;
                    }
                    let text: String = bytes[text_start..i].iter().collect();
                    push(
                        &mut tokens,
                        TokenKind::Comment(text.trim_end_matches('\r').trim_start().to_string()),
                        start,
                        i,
                    );
                } else if is_keyword(&word) {
                    push(&mut tokens, TokenKind::Keyword(word), start, i);
                } else {
                    let mut word = word;
                    if i < n && is_type_suffix(bytes[i]) {
                        word.push(bytes[i]);
                        i += 1;
                    }
                    push(&mut tokens, TokenKind::Identifier(word), start, i);
                }
            }
            _ => {
                // Operators and punctuation, multi-character first.
                let two: Option<&'static str> = if i + 1 < n {
                    match (c, bytes[i + 1]) {
                        ('<', '>') => Some("<>"),
                        ('<', '=') => Some("<="),
                        ('>', '=') => Some(">="),
                        (':', '=') => Some(":="),
                        _ => None,
                    }
                } else {
                    None
                };
                if let Some(op) = two {
                    push(&mut tokens, TokenKind::Operator(op), i, i + 2);
                    i += 2;
                    continue;
                }
                let op: Option<&'static str> = match c {
                    '&' => Some("&"),
                    '+' => Some("+"),
                    '-' => Some("-"),
                    '*' => Some("*"),
                    '/' => Some("/"),
                    '\\' => Some("\\"),
                    '^' => Some("^"),
                    '=' => Some("="),
                    '<' => Some("<"),
                    '>' => Some(">"),
                    '.' => Some("."),
                    ',' => Some(","),
                    ';' => Some(";"),
                    ':' => Some(":"),
                    '(' => Some("("),
                    ')' => Some(")"),
                    '#' => Some("#"),
                    '@' => Some("@"),
                    '!' => Some("!"),
                    '$' => Some("$"),
                    '%' => Some("%"),
                    '?' => Some("?"),
                    '[' => Some("["),
                    ']' => Some("]"),
                    '{' => Some("{"),
                    '}' => Some("}"),
                    _ => None,
                };
                if let Some(op) = op {
                    push(&mut tokens, TokenKind::Operator(op), i, i + 1);
                }
                // Unknown characters are skipped (total lexer).
                i += 1;
            }
        }
    }
    tokens
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn keywords_are_sorted_for_binary_search() {
        let mut sorted = KEYWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, KEYWORDS, "KEYWORDS must stay sorted");
    }

    #[test]
    fn class_table_matches_char_predicates() {
        for u in 0u32..=0xFF {
            let c = char::from_u32(u).unwrap();
            let class = CLASS[u as usize];
            let has = |bit: u8| class & bit != 0;
            assert_eq!(has(IDENT_START), is_ident_start(c), "ident start {u:#04x}");
            assert_eq!(
                has(IDENT_CONT),
                is_ident_continue(c),
                "ident continue {u:#04x}"
            );
            assert_eq!(has(SUFFIX), is_type_suffix(c), "type suffix {u:#04x}");
            assert_eq!(has(SPACE), c.is_whitespace(), "whitespace {u:#04x}");
            assert_eq!(has(WORD), is_word_char(c), "word char {u:#04x}");
            assert_eq!(has(ALPHA), c.is_ascii_alphabetic(), "ascii alpha {u:#04x}");
            assert_eq!(
                has(VOWEL),
                matches!(c.to_ascii_lowercase(), 'a' | 'e' | 'i' | 'o' | 'u'),
                "vowel {u:#04x}"
            );
            assert_eq!(has(BLANK), matches!(c, ' ' | '\t' | '\r'), "blank {u:#04x}");
            assert_eq!(class_of(c), class, "class_of {u:#04x}");
        }
        // Above the table, class_of falls back to the same predicates.
        for c in [
            '\u{100}', '\u{1680}', '\u{2028}', '\u{3000}', '\u{feff}', '\u{fffd}', '\u{4e2d}',
        ] {
            let class = class_of(c);
            assert_eq!(class & SPACE != 0, c.is_whitespace(), "{c:?}");
            assert_eq!(class & WORD != 0, is_word_char(c), "{c:?}");
            assert_eq!(class & IDENT_START != 0, is_ident_start(c), "{c:?}");
            assert_eq!(class & IDENT_CONT != 0, is_ident_continue(c), "{c:?}");
        }
    }

    #[test]
    fn swar_search_matches_linear_search() {
        let hay = b"abc\"def\nxyz\"\"0123456789abcdef\n";
        for from in 0..=hay.len() {
            for (a, b) in [(b'"', b'\n'), (b'\n', b'\n'), (b'z', b'z'), (b'#', b'#')] {
                let expect = hay[from..]
                    .iter()
                    .position(|&x| x == a || x == b)
                    .map_or(hay.len(), |p| from + p);
                assert_eq!(find_either(hay, from, a, b), expect, "{from} {a} {b}");
            }
        }
    }

    #[test]
    fn token_ids_agree_with_text_oracles() {
        let src = "Sub Go()\r\nDim s$: s = Chr$(65) & CHR(1) + mid(s, 1) = Randomize\r\n\
                   Shell x: CreateObject$ ReMx caf\u{e9} Chr\u{e9} <> <= >= := End Sub";
        let mut scratch = crate::LexScratch::default();
        let a = crate::MacroAnalysis::with_scratch(src, &mut scratch);
        for t in a.tokens() {
            let text = a.token_text(t);
            match t.kind {
                SpanKind::Keyword(k) => {
                    assert!(is_keyword(text), "{text}");
                    assert!(k.name().eq_ignore_ascii_case(text), "{text}");
                }
                SpanKind::Identifier(b) => {
                    assert!(!is_keyword(text), "{text}");
                    assert_eq!(b.category(), crate::functions::categorize(text), "{text}");
                }
                SpanKind::Operator(op) => assert_eq!(op.as_str(), text),
                _ => {}
            }
        }
    }

    #[test]
    fn fold_compare_matches_allocating_compare() {
        for w in [
            "Dim",
            "DIM",
            "dim",
            "dio",
            "di",
            "dimm",
            "zzz",
            "",
            "Caf\u{e9}",
        ] {
            let lower = w.to_ascii_lowercase();
            for k in ["dim", "do", "a", "zz"] {
                assert_eq!(cmp_ascii_fold(k, w), k.cmp(lower.as_str()), "{k} vs {w}");
            }
        }
    }

    #[test]
    fn simple_statement() {
        assert_eq!(
            kinds("Dim x As Integer"),
            vec![
                Keyword("Dim".into()),
                Identifier("x".into()),
                Keyword("As".into()),
                Keyword("Integer".into()),
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(kinds("SUB sub SuB")[0], Keyword("SUB".into()));
        assert!(matches!(&kinds("DIM")[0], Keyword(_)));
        assert!(matches!(&kinds("dIm")[0], Keyword(_)));
    }

    #[test]
    fn string_literal_with_escaped_quotes() {
        assert_eq!(
            kinds(r#"s = "he said ""hi""""#),
            vec![
                Identifier("s".into()),
                Operator("="),
                StringLit("he said \"hi\"".into()),
            ]
        );
    }

    #[test]
    fn unterminated_string_is_tolerated() {
        let k = kinds("s = \"oops");
        assert_eq!(k[2], StringLit("oops".into()));
    }

    #[test]
    fn apostrophe_comment() {
        assert_eq!(
            kinds("x = 1 ' trailing comment\r\ny = 2"),
            vec![
                Identifier("x".into()),
                Operator("="),
                Number("1".into()),
                Comment(" trailing comment".into()),
                Newline,
                Identifier("y".into()),
                Operator("="),
                Number("2".into()),
            ]
        );
    }

    #[test]
    fn rem_comment() {
        let k = kinds("Rem whole line comment\nx = 1");
        assert_eq!(k[0], Comment("whole line comment".into()));
        // Identifier containing "rem" is NOT a comment.
        let k2 = kinds("remainder = 5");
        assert_eq!(k2[0], Identifier("remainder".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("42")[0], Number("42".into()));
        assert_eq!(kinds("3.14")[0], Number("3.14".into()));
        assert_eq!(kinds("1e10")[0], Number("1e10".into()));
        assert_eq!(kinds("2.5E-3")[0], Number("2.5E-3".into()));
        assert_eq!(kinds("&HFF")[0], Number("&HFF".into()));
        assert_eq!(kinds("&o777")[0], Number("&o777".into()));
        assert_eq!(kinds("123&")[0], Number("123&".into()));
    }

    #[test]
    fn ampersand_operator_vs_hex_literal() {
        // Between identifiers & is the concatenation operator.
        assert_eq!(
            kinds("a & b"),
            vec![
                Identifier("a".into()),
                Operator("&"),
                Identifier("b".into())
            ]
        );
        // `a &Hello` — no hex digits after &H... actually 'e' is a hex digit?
        // "&He" -> hex digit 'e' consumed; this is genuinely ambiguous in
        // VBA and resolved toward the literal, as here.
        assert_eq!(kinds("x &H12 y")[1], Number("&H12".into()));
    }

    #[test]
    fn identifier_type_suffixes() {
        assert_eq!(kinds("name$")[0], Identifier("name$".into()));
        assert_eq!(kinds("count%")[0], Identifier("count%".into()));
        // Suffix & must not leak a string-operator token.
        let k = kinds("total& = 1");
        assert_eq!(k[0], Identifier("total&".into()));
        assert_eq!(k[1], Operator("="));
    }

    #[test]
    fn line_continuation_is_spliced() {
        let k = kinds("x = 1 + _\r\n    2");
        assert!(
            !k.contains(&Newline),
            "continuation must not produce Newline: {k:?}"
        );
        assert_eq!(k.last(), Some(&Number("2".into())));
    }

    #[test]
    fn multi_char_operators() {
        assert_eq!(
            kinds("a <> b <= c >= d := e"),
            vec![
                Identifier("a".into()),
                Operator("<>"),
                Identifier("b".into()),
                Operator("<="),
                Identifier("c".into()),
                Operator(">="),
                Identifier("d".into()),
                Operator(":="),
                Identifier("e".into()),
            ]
        );
    }

    #[test]
    fn member_access_chain() {
        let k = kinds("OutlookApp.CreateItem(0)");
        assert_eq!(
            k,
            vec![
                Identifier("OutlookApp".into()),
                Operator("."),
                Identifier("CreateItem".into()),
                Operator("("),
                Number("0".into()),
                Operator(")"),
            ]
        );
    }

    #[test]
    fn spans_cover_source() {
        let src = "Dim zz = \"ab\" ' c";
        for t in tokenize(src) {
            assert!(t.start <= t.end && t.end <= src.len());
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn full_procedure_from_paper_fig1a() {
        // Figure 1(a) of the paper.
        let src = "Sub StartCalculator()\r\n\
                   Dim Program As String\r\n\
                   Dim TaskID As Double\r\n\
                   On Error Resume Next\r\n\
                   Program = \"calc.exe\"\r\n\
                   'Run calculator program using Shell()\r\n\
                   TaskID = Shell(Program, 1)\r\n\
                   If Err <> 0 Then\r\n\
                   MsgBox \"Can't start \" & Program\r\n\
                   End If\r\n\
                   End Sub\r\n";
        let toks = tokenize(src);
        let strings: Vec<_> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                StringLit(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strings, vec!["calc.exe", "Can't start "]);
        let comments = toks.iter().filter(|t| matches!(t.kind, Comment(_))).count();
        assert_eq!(comments, 1);
        assert!(toks
            .iter()
            .any(|t| matches!(&t.kind, Identifier(i) if i == "Shell")));
    }

    #[test]
    fn non_ascii_identifiers_do_not_panic() {
        let k = kinds("Dim caf\u{00E9} = \"\u{2603}\"");
        assert!(k
            .iter()
            .any(|t| matches!(t, Identifier(i) if i.contains('\u{00E9}'))));
    }

    #[test]
    fn totality_on_noise() {
        let mut state = 7u64;
        for _ in 0..50 {
            let src: String = (0..200)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    char::from_u32((state % 0x250) as u32).unwrap_or('?')
                })
                .collect();
            let _ = tokenize(&src);
        }
    }

    #[test]
    fn span_lexer_matches_reference_tokenizer() {
        let samples = [
            "",
            "Dim x As Integer\r\nx = 1 ' c\r\n",
            "s = \"a\"\"b\"\ns2 = \"open",
            "Rem note \r\r\nRem\n1Rem tail\nremainder = 5",
            "x = 1 + _\r\n 2\n_ = 3\n _\n",
            "&HFF &o777 &Hx 123& 1e5 2.5E-3 9.",
            "a<>b<=c>=d:=e&f",
            "caf\u{e9} = \"\u{2603}\u{2603}\" ' \u{e9}t\u{e9}\n",
            "Sub A()\nExit Sub\nEnd Sub\nDeclare Function F Lib \"k\"\n",
            "\"unterminated\nnext = 1",
        ];
        for src in samples {
            assert_eq!(tokenize(src), reference_tokenize(src), "src = {src:?}");
        }
        // Pseudo-random noise, same generator as totality_on_noise.
        let mut state = 99u64;
        for _ in 0..100 {
            let src: String = (0..300)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    char::from_u32((state % 0x300) as u32).unwrap_or('?')
                })
                .collect();
            assert_eq!(tokenize(&src), reference_tokenize(&src), "src = {src:?}");
        }
    }
}
