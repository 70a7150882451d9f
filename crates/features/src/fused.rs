//! Token-stream passes shared by the fused J/V extractors.
//!
//! Everything here walks the contiguous [`SpanToken`] slice of a
//! [`MacroAnalysis`] — never the source text — and writes into reusable
//! [`PassScratch`] buffers, so steady-state extraction allocates nothing.
//! Each quantity is accumulated in the exact order the historical
//! extractors iterated it, keeping every derived `f64` bit-identical to
//! the reference implementation (see `crate::reference`).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use vbadet_vba::{BuiltinId, FunctionCategory, KeywordId, MacroAnalysis, Op, SpanKind, SpanToken};

/// Reusable buffers for the token passes (cleared per document, capacity
/// retained).
#[derive(Debug, Default)]
pub struct PassScratch {
    arg_spans: Vec<(u32, u32)>,
    /// Open-addressing set of the distinct identifiers seen so far:
    /// `hash << 32 | token index + 1`, 0 for an empty slot.
    ident_set: Vec<u64>,
    ident_keys: RandomState,
    pub(crate) ident_lengths: Vec<f64>,
}

/// Quantities derived from one streaming pass over the token slice:
/// call sites (with category counts), string operators, and procedure
/// bodies.
#[derive(Debug, Default)]
pub(crate) struct TokenDerived {
    /// Number of call sites (J7).
    pub call_count: usize,
    /// Calls per function category, V8–V12 order.
    pub cat_counts: [f64; 5],
    /// `&`/`+`/`=` operator tokens (V5).
    pub string_ops: usize,
    /// Closed procedure bodies (J18/J20).
    pub body_count: usize,
    /// Characters across closed bodies, accumulated in body order (J18/J19).
    pub body_chars: f64,
}

/// One pass over the tokens: call sites + categories, string operators,
/// procedure bodies. Streaming equivalent of the `call_sites()` /
/// `string_operator_count()` / `procedure_body_spans()` views, on the ids
/// the lexer interned instead of token text.
pub(crate) fn token_derived(analysis: &MacroAnalysis) -> TokenDerived {
    // `iter::Sum for f64` folds from -0.0, so the reference's body-char
    // sum is -0.0 when no body exists — and that sign bit survives into
    // J19. Start from the same identity to stay bit-identical.
    let mut d = TokenDerived {
        body_chars: -0.0,
        ..TokenDerived::default()
    };
    // Call-site machine: an identifier is "pending" until the next
    // significant token decides paren-call vs statement-position builtin.
    let mut pending: Option<BuiltinId> = None;
    // The previous significant token, when it is a keyword.
    let mut prev_kw: Option<KeywordId> = None;
    let mut open_body: Option<u32> = None;

    let resolve = |d: &mut TokenDerived, builtin: BuiltinId, followed_by_paren: bool| {
        if followed_by_paren || builtin.is_builtin() {
            d.call_count += 1;
            if let Some(cat) = builtin.category() {
                let idx = match cat {
                    FunctionCategory::Text => 0,
                    FunctionCategory::Arithmetic => 1,
                    FunctionCategory::TypeConversion => 2,
                    FunctionCategory::Financial => 3,
                    FunctionCategory::Rich => 4,
                };
                d.cat_counts[idx] += 1.0;
            }
        }
    };

    for t in analysis.tokens() {
        match t.kind {
            SpanKind::Comment(_) | SpanKind::Newline => continue,
            SpanKind::Operator(Op::Amp | Op::Plus | Op::Eq) => d.string_ops += 1,
            _ => {}
        }
        if let Some(b) = pending.take() {
            resolve(&mut d, b, t.kind == SpanKind::Operator(Op::LParen));
        }
        match t.kind {
            SpanKind::Identifier(b) if !prev_kw.is_some_and(KeywordId::declares_name) => {
                pending = Some(b);
            }
            SpanKind::Keyword(KeywordId::SUB | KeywordId::FUNCTION) => match prev_kw {
                // Prototype, not a body.
                Some(KeywordId::DECLARE) => {}
                Some(KeywordId::END) => {
                    if let Some(start) = open_body.take() {
                        d.body_count += 1;
                        d.body_chars += (t.char_end - start) as f64;
                    }
                }
                // `Exit Sub` keeps the procedure open.
                Some(KeywordId::EXIT) => {}
                _ => {
                    open_body.get_or_insert(t.char_start);
                }
            },
            _ => {}
        }
        prev_kw = match t.kind {
            SpanKind::Keyword(k) => Some(k),
            _ => None,
        };
    }
    if let Some(b) = pending.take() {
        resolve(&mut d, b, false);
    }
    d
}

/// J9: character lengths of top-level call arguments, returned as the
/// sequential `(sum, count)` the reference `mean()` accumulated.
///
/// Matches the historical walk exactly: calls are `Identifier` tokens
/// *immediately* followed by `(` in the raw stream (comments/newlines
/// break adjacency, unlike `call_sites()`), argument spans are trimmed,
/// empty arguments skipped, unclosed calls contribute nothing.
pub(crate) fn arg_length_stats(
    analysis: &MacroAnalysis,
    scratch: &mut PassScratch,
) -> (f64, usize) {
    let tokens = analysis.tokens();
    let source = analysis.source();
    let (mut sum, mut count) = (0.0f64, 0usize);
    let mut i = 0usize;
    while i < tokens.len() {
        let is_call_open = matches!(tokens[i].kind, SpanKind::Identifier(_))
            && matches!(
                tokens.get(i + 1).map(|t| t.kind),
                Some(SpanKind::Operator(Op::LParen))
            );
        if !is_call_open {
            i += 1;
            continue;
        }
        // Find the matching close paren, collecting top-level comma splits.
        let open = i + 1;
        let mut depth = 0usize;
        let mut arg_start = tokens[open].end;
        let mut j = open;
        scratch.arg_spans.clear();
        let mut closed = false;
        while j < tokens.len() {
            match tokens[j].kind {
                SpanKind::Operator(Op::LParen) => depth += 1,
                SpanKind::Operator(Op::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        scratch.arg_spans.push((arg_start, tokens[j].start));
                        closed = true;
                        break;
                    }
                }
                SpanKind::Operator(Op::Comma) if depth == 1 => {
                    scratch.arg_spans.push((arg_start, tokens[j].start));
                    arg_start = tokens[j].end;
                }
                _ => {}
            }
            j += 1;
        }
        if closed {
            for &(s, e) in &scratch.arg_spans {
                let text = source[s as usize..e as usize].trim();
                if !text.is_empty() {
                    sum += text.chars().count() as f64;
                    count += 1;
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    (sum, count)
}

/// Keyed hash of the ASCII-lowercase folding of `name`. Identifier names
/// come from the scanned document, so the set uses the standard library's
/// randomly keyed SipHash: a document cannot be crafted to collide.
fn folded_hash(keys: &RandomState, name: &[u8]) -> u64 {
    let mut h = keys.build_hasher();
    let mut buf = [0u8; 32];
    for chunk in name.chunks(buf.len()) {
        let folded = &mut buf[..chunk.len()];
        folded.copy_from_slice(chunk);
        folded.make_ascii_lowercase();
        h.write(folded);
    }
    h.finish()
}

/// V14/V15: distinct user identifier lengths in first-occurrence order —
/// the dedup semantics of `identifiers()` (case-insensitive, builtins
/// excluded) without per-occurrence `String` keys. Each non-builtin
/// identifier probes a per-document hash set keyed by its case-folded
/// text; a new name appends its length. Fills `scratch.ident_lengths`.
pub(crate) fn ident_lengths<'s>(
    analysis: &MacroAnalysis,
    scratch: &'s mut PassScratch,
) -> &'s [f64] {
    let source = analysis.source().as_bytes();
    let tokens = analysis.tokens();
    let is_candidate = |t: &SpanToken| t.kind == SpanKind::Identifier(BuiltinId::NONE);
    // At least twice as many slots as candidates keeps the load at most
    // one half; the buffer's capacity is retained across documents.
    let candidates = tokens.iter().filter(|t| is_candidate(t)).count();
    let set = &mut scratch.ident_set;
    set.clear();
    set.resize((2 * candidates).next_power_of_two(), 0);
    let mask = set.len() - 1;
    scratch.ident_lengths.clear();
    for (i, t) in tokens.iter().enumerate() {
        if !is_candidate(t) {
            continue;
        }
        let name = &source[t.span()];
        let hash = folded_hash(&scratch.ident_keys, name) >> 32;
        let mut slot = hash as usize & mask;
        loop {
            let entry = set[slot];
            if entry == 0 {
                set[slot] = hash << 32 | (i as u64 + 1);
                scratch.ident_lengths.push(t.char_len() as f64);
                break;
            }
            if entry >> 32 == hash {
                let seen = &tokens[(entry as u32 - 1) as usize];
                if source[seen.span()].eq_ignore_ascii_case(name) {
                    break;
                }
            }
            slot = (slot + 1) & mask;
        }
    }
    &scratch.ident_lengths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_derived_matches_views() {
        let src = "Sub A()\r\n'c\r\nx = Chr(65) & \"s\"\r\nShell p, 1\r\nExit Sub\r\nEnd Sub\r\n\
                   Declare Function F Lib \"k\" ()\r\n";
        let a = MacroAnalysis::new(src);
        let d = token_derived(&a);
        assert_eq!(d.call_count, a.call_sites().len());
        assert_eq!(d.string_ops, a.string_operator_count());
        let bodies = a.procedure_body_spans();
        assert_eq!(d.body_count, bodies.len());
        let expect: f64 = bodies
            .iter()
            .map(|&(s, e)| src[s..e].chars().count() as f64)
            .sum();
        assert_eq!(d.body_chars.to_bits(), expect.to_bits());
    }

    #[test]
    fn ident_dedup_matches_identifiers_view() {
        // Many distinct names (in mixed case, repeated) fill a large set;
        // one scratch across documents of different sizes.
        let many: String = (0..600)
            .map(|i| format!("v{}x{i} = V{}X{i} + w{}\r\n", i % 7, i % 7, i % 13))
            .collect();
        let mut s = PassScratch::default();
        for src in [
            "Dim Alpha\r\nalpha = ALPHA + beta\r\nx = Chr(1)\r\ncaf\u{e9} = caf\u{c9}\r\n",
            &many,
            "",
            "Chr$(1) + x$ + X + x",
        ] {
            let a = MacroAnalysis::new(src);
            let lens: Vec<f64> = ident_lengths(&a, &mut s).to_vec();
            let expect: Vec<f64> = a
                .identifiers()
                .iter()
                .map(|i| i.chars().count() as f64)
                .collect();
            assert_eq!(lens, expect, "{src:?}");
        }
    }
}
