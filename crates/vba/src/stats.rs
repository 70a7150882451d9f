//! Character statistics gathered during the lexer's pass.
//!
//! The feature extractors (J1–J20, V1–V15) historically re-walked the
//! source once per feature: `chars().count()` for J1, a whitespace filter
//! for J6, a `BTreeMap` rebuild for the entropy of J15/V13, a
//! `collect::<Vec<String>>` for the word statistics of V3/V4, and so on.
//! [`SourceStats`] replaces all of those:
//!
//! - one byte histogram gives the char count, whitespace, backslashes and
//!   the entropy counts (a cold pass fixes it up when the source has
//!   non-ASCII chars);
//! - the lexer reports each code word (a run of word characters outside
//!   comments and strings) as it passes it, and hands over each comment
//!   body, whose words a table-driven scanner counts;
//! - the lexer itself counts lines, string and comment characters.
//!
//! Equivalence with the old multi-pass computation is bit-level: every
//! floating-point quantity that the extractors derive from these counters
//! is accumulated in the same order the reference code iterated
//! (document order for word lengths, token order for string lengths,
//! ascending character order for the entropy histogram), so the fused
//! path reproduces the exact `f64` bit patterns of the original.

use crate::lexer::{class_at, ALPHA, CLASS, SPACE, VOWEL, WORD};

/// Character-level statistics of one macro source, filled by the lexer in
/// the same pass that produces the token stream.
///
/// Fields are documented with the features they back; "words" follow the
/// paper's definition (runs of alphanumeric/`_` outside comments and
/// strings), "lines" follow `str::lines` semantics.
#[derive(Debug, Clone)]
pub struct SourceStats {
    /// Total characters (`== source.chars().count()`; J1).
    pub char_len: usize,
    /// Unicode-whitespace characters (J6).
    pub whitespace: usize,
    /// Backslash characters (J17).
    pub backslashes: usize,
    /// Physical lines, `str::lines` semantics (J2/J3/J11/J14).
    pub line_count: usize,
    /// Lines longer than 150 characters (J14).
    pub long_lines: usize,
    /// Words outside comments and strings (J12/J13).
    pub code_words: usize,
    /// Words inside comment bodies (J5/J12/J13).
    pub comment_words: usize,
    /// Human-readable words across code and comments (J5).
    pub readable_words: usize,
    /// Character length of every code word, in document order (V3/V4).
    pub word_lengths: Vec<f64>,
    /// Decoded string-literal char lengths summed as sequential `f64`
    /// adds in token order — the exact accumulation `mean()` performed
    /// over the old owned-`String` vector (J8/V7).
    pub string_len_sum: f64,
    /// Total decoded string-literal characters (J16/V6).
    pub string_chars: usize,
    /// Total trimmed comment-body characters (V2).
    pub comment_body_chars: usize,
    /// Total full comment-span characters, marker included (V1).
    pub comment_span_chars: usize,

    // Entropy histogram: counts of U+0000–U+00FF by char value, plus the
    // (rare) chars at or above U+0100, sorted. Iterating the histogram
    // ascending then the sorted runs reproduces the old full-`BTreeMap`
    // term order exactly.
    hist: [u64; 256],
    wide: Vec<char>,
}

impl Default for SourceStats {
    fn default() -> Self {
        SourceStats {
            char_len: 0,
            whitespace: 0,
            backslashes: 0,
            line_count: 0,
            long_lines: 0,
            code_words: 0,
            comment_words: 0,
            readable_words: 0,
            word_lengths: Vec::new(),
            string_len_sum: 0.0,
            string_chars: 0,
            comment_body_chars: 0,
            comment_span_chars: 0,
            hist: [0; 256],
            wide: Vec::new(),
        }
    }
}

/// J5's human-readability predicate on one word's bytes: alphabetic,
/// 2–15 bytes, contains a vowel, no consonant run longer than 4. Bytes
/// ≥ 0x80 are not ASCII letters, so a non-ASCII word is never readable.
fn is_readable(word: &[u8]) -> bool {
    if !(2..=15).contains(&word.len()) {
        return false;
    }
    // Branch-free over the word: AND of the letter bits, OR of the vowel
    // bits, and the longest consonant run.
    let (mut alpha, mut vowel, mut run, mut longest) = (ALPHA, 0, 0u32, 0u32);
    for &b in word {
        let class = CLASS[b as usize];
        alpha &= class;
        vowel |= class & VOWEL;
        run = if class & VOWEL != 0 { 0 } else { run + 1 };
        longest = longest.max(run);
    }
    alpha != 0 && vowel != 0 && longest <= 4
}

/// Calls `f(word, char_len)` for each maximal run of word characters in
/// `text`, in order. ASCII bytes are classified by the table; a lead byte
/// ≥ 0x80 decodes one char.
#[inline]
fn for_each_word(text: &str, mut f: impl FnMut(&[u8], usize)) {
    let b = text.as_bytes();
    let n = b.len();
    let mut i = 0;
    while i < n {
        let (class, len) = if b[i] < 0x80 {
            (CLASS[b[i] as usize], 1)
        } else {
            class_at(text, i)
        };
        if class & WORD == 0 {
            i += len;
            continue;
        }
        let start = i;
        let mut chars = 0;
        while i < n {
            if b[i] < 0x80 {
                if CLASS[b[i] as usize] & WORD == 0 {
                    break;
                }
                i += 1;
            } else {
                let (class, len) = class_at(text, i);
                if class & WORD == 0 {
                    break;
                }
                i += len;
            }
            chars += 1;
        }
        f(&b[start..i], chars);
    }
}

impl SourceStats {
    /// Clears all counters while keeping buffer capacity.
    pub(crate) fn reset(&mut self) {
        let mut word_lengths = std::mem::take(&mut self.word_lengths);
        word_lengths.clear();
        let mut wide = std::mem::take(&mut self.wide);
        wide.clear();
        *self = SourceStats {
            word_lengths,
            wide,
            ..SourceStats::default()
        };
    }

    /// Fills the char histogram and the counts derived from it
    /// (`char_len`, `whitespace`, `backslashes`). Returns whether the
    /// source is all ASCII, in which case byte and char offsets agree.
    pub(crate) fn count_chars(&mut self, source: &str) -> bool {
        let bytes = source.as_bytes();
        // Four interleaved lanes keep repeated bytes (indentation) from
        // serializing on one counter. Sources are under 4 GiB, so no lane
        // overflows.
        let mut lanes = [[0u32; 256]; 4];
        let mut quads = bytes.chunks_exact(4);
        for q in &mut quads {
            lanes[0][q[0] as usize] += 1;
            lanes[1][q[1] as usize] += 1;
            lanes[2][q[2] as usize] += 1;
            lanes[3][q[3] as usize] += 1;
        }
        for &b in quads.remainder() {
            lanes[0][b as usize] += 1;
        }
        for (c, n) in self.hist.iter_mut().enumerate() {
            *n = lanes.iter().map(|lane| lane[c] as u64).sum();
        }
        let ascii = self.hist[0x80..].iter().all(|&n| n == 0);
        if !ascii {
            // Cold path: re-count the non-ASCII part by char.
            self.hist[0x80..].fill(0);
            for c in source.chars().filter(|c| !c.is_ascii()) {
                match u8::try_from(c) {
                    Ok(b) => self.hist[b as usize] += 1,
                    Err(_) => self.wide.push(c),
                }
            }
            self.wide.sort_unstable();
        }
        self.char_len = self.hist.iter().sum::<u64>() as usize + self.wide.len();
        self.whitespace = (CLASS.iter().zip(&self.hist))
            .filter(|(&class, _)| class & SPACE != 0)
            .map(|(_, &n)| n as usize)
            .sum::<usize>()
            + self.wide.iter().filter(|c| c.is_whitespace()).count();
        self.backslashes = self.hist[b'\\' as usize] as usize;
        ascii
    }

    /// Counts one code word (outside comments and strings) of `chars`
    /// characters; the lexer reports them in document order.
    pub(crate) fn code_word(&mut self, word: &[u8], chars: usize) {
        self.code_words += 1;
        self.word_lengths.push(chars as f64);
        self.readable_words += usize::from(is_readable(word));
    }

    /// Counts the words of one comment body.
    pub(crate) fn scan_comment_words(&mut self, text: &str) {
        for_each_word(text, |word, _| {
            self.comment_words += 1;
            self.readable_words += usize::from(is_readable(word));
        });
    }

    /// Non-zero character counts in ascending character order — the exact
    /// term sequence the old `BTreeMap<char, u64>` entropy sum iterated.
    pub fn char_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.hist.iter().copied().filter(|&n| n > 0).chain(
            self.wide
                .chunk_by(|a, b| a == b)
                .map(|run| run.len() as u64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(source: &str) -> SourceStats {
        crate::MacroAnalysis::new(source).stats().clone()
    }

    #[test]
    fn char_line_and_word_counts() {
        let s = run("ab cd\r\nxy\n");
        assert_eq!(s.char_len, 10);
        assert_eq!(s.line_count, 2);
        assert_eq!(s.code_words, 3);
        assert_eq!(s.word_lengths, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn lines_match_str_lines_semantics() {
        for src in [
            "", "a", "a\n", "a\nb", "\n", "a\r\nb\r", "x\n\r", "a _\r\nb",
        ] {
            let s = run(src);
            assert_eq!(s.line_count, src.lines().count(), "{src:?}");
        }
    }

    #[test]
    fn long_line_detection_strips_cr() {
        let line = "a".repeat(151);
        assert_eq!(run(&format!("{line}\r\n")).long_lines, 1);
        let line150 = "a".repeat(150);
        assert_eq!(run(&format!("{line150}\r\n")).long_lines, 0);
    }

    #[test]
    fn entropy_counts_ascending() {
        let s = run("ba\u{2603}ab\u{e9}\u{2603}");
        let counts: Vec<u64> = s.char_counts().collect();
        // 'a' x2, 'b' x2, e-acute x1, snowman x2 — ascending char order.
        assert_eq!(counts, vec![2, 2, 1, 2]);
        assert_eq!(s.char_len, 7);
    }

    #[test]
    fn histogram_counts_match_char_filters() {
        for src in [
            "",
            "a\\b c\t\r\n",
            "\u{a0}\u{85}\u{3000}x\u{2028}\\\u{e9}",
            &"ab  \\".repeat(37),
        ] {
            let mut s = SourceStats::default();
            let ascii = s.count_chars(src);
            assert_eq!(ascii, src.is_ascii(), "{src:?}");
            assert_eq!(s.char_len, src.chars().count(), "{src:?}");
            assert_eq!(
                s.whitespace,
                src.chars().filter(|c| c.is_whitespace()).count(),
                "{src:?}"
            );
            assert_eq!(s.backslashes, src.matches('\\').count(), "{src:?}");
        }
    }

    #[test]
    fn word_scan_matches_split() {
        for text in ["", "a b_c 12x", "caf\u{e9}\u{2603}\u{b2}x y", "__ ,, z"] {
            let mut words = Vec::new();
            for_each_word(text, |w, chars| words.push((w.to_vec(), chars)));
            let expect: Vec<(Vec<u8>, usize)> = text
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .map(|w| (w.as_bytes().to_vec(), w.chars().count()))
                .collect();
            assert_eq!(words, expect, "{text:?}");
            // Code words come from the lexer; the same text as code.
            let lengths: Vec<f64> = expect.iter().map(|&(_, n)| n as f64).collect();
            assert_eq!(run(text).word_lengths, lengths, "{text:?}");
        }
    }

    #[test]
    fn readability_matches_reference_predicate() {
        fn reference(word: &str) -> bool {
            if word.len() < 2 || word.len() > 15 || !word.chars().all(|c| c.is_ascii_alphabetic()) {
                return false;
            }
            let lower = word.to_ascii_lowercase();
            let is_vowel = |c: char| matches!(c, 'a' | 'e' | 'i' | 'o' | 'u');
            if !lower.chars().any(is_vowel) {
                return false;
            }
            let mut run = 0usize;
            for c in lower.chars() {
                if is_vowel(c) {
                    run = 0;
                } else {
                    run += 1;
                    if run > 4 {
                        return false;
                    }
                }
            }
            true
        }
        for w in [
            "hello",
            "Program",
            "counter",
            "open",
            "a",
            "x1b2",
            "xqzptvk",
            "ueiwjfdjkfdsv",
            "abcdefghijklmnop",
            "caf\u{e9}",
            "_x",
            "strength",
        ] {
            assert_eq!(is_readable(w.as_bytes()), reference(w), "{w:?}");
        }
    }
}
