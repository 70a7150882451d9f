//! Bit-equivalence proof for the allocation-free scoring hot path.
//!
//! The fused single-pass extractors ([`vbadet_features::FeatureScratch`])
//! and the span lexer must produce *bit-identical* `f64` vectors and
//! token streams to the historical multi-pass reference implementations
//! (kept behind the `reference` feature) — on the synthetic corpus, and
//! on hundreds of seeded hostile mutants designed to hit lexer edge
//! cases: unterminated strings and comments, line continuations, `Rem`
//! fused with digits, `&H` literals, non-ASCII identifiers, and CR/LF
//! soup. Likewise the flattened struct-of-arrays forest must reproduce
//! the per-node tree walk exactly, including on the committed fixture.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vbadet_features::{reference, FeatureScratch, FeatureSet};

/// Base sources covering every token family the lexer knows: keywords,
/// identifiers (ASCII and not), numbers (`&H`, `&O`, exponents, type
/// suffixes), strings with `""` escapes, `'` and `Rem` comments, line
/// continuations, and mixed line endings.
const BASES: &[&str] = &[
    "Sub Alpha()\r\n    Dim x As Integer\r\n    x = Chr(65) & \"he\"\"llo\" + Mid(s, 1, 2)\r\n\
     \x20   ' a comment with words\r\n    Rem another one\r\nEnd Sub\r\n",
    "Function F(a, b)\r\n    F = a + b * &HFF - &O77 + 1.5E-3# \r\nEnd Function\r\n",
    "Attribute VB_Name = \"Module1\"\nPrivate Declare Function Beep Lib \"kernel32\" ()\n\
     Sub Go()\n    Call Helper(1, \"two\", 3.0)\nEnd Sub\n",
    "x = \"unterminated\r\ny = 'trailing comment no newline",
    "Sub S()\r\n    v = Array(1, _\r\n        2, _\r\n        3)\r\n    Exit Sub\r\nEnd Sub\r\n",
    "1Rem fused\r\ncaf\u{e9} = caf\u{c9} + \u{2603}\r\nIf x Then y = Asc(\"\u{e9}\") End If\r\n",
    "",
];

/// Snippets spliced into mutants to provoke state-machine boundaries.
const HOSTILE: &[&str] = &[
    "\"", "'", "\r", "\n", "\r\n", " _\r\n", "_", "Rem ", "rem", "&H", "&", "\"\"", "E+", "#",
    "Sub ", "End Sub", "Function", "Declare ", "Exit ", "(", ")", ",", "\t", "\u{0}", "\u{e9}",
    "\u{2028}", "0", ".5", "=",
];

fn mutate(rng: &mut StdRng) -> String {
    let mut s = String::from(*BASES.choose(rng).unwrap());
    for _ in 0..rng.gen_range(1..6) {
        // Any char boundary, including the very end.
        let boundaries: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
        let at = *boundaries.choose(rng).unwrap();
        match rng.gen_range(0..4u32) {
            0 => s.insert_str(at, HOSTILE.choose(rng).unwrap()),
            1 => s.truncate(at),
            2 => {
                let other = *BASES.choose(rng).unwrap();
                let cut: Vec<usize> = other
                    .char_indices()
                    .map(|(i, _)| i)
                    .chain([other.len()])
                    .collect();
                let from = *cut.choose(rng).unwrap();
                s.insert_str(at, &other[from..]);
            }
            _ => {
                let tail: String = s[at..].chars().take(7).collect();
                s.insert_str(at, &tail);
            }
        }
    }
    s
}

fn assert_bit_identical(src: &str, scratch: &mut FeatureScratch) {
    let v_ref = reference::v_features(src);
    let v_fused = scratch.extract(FeatureSet::V, src).to_vec();
    for (i, (a, b)) in v_fused.iter().zip(v_ref.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "V{} diverged on {src:?}: fused {a} vs reference {b}",
            i + 1
        );
    }
    let j_ref = reference::j_features(src);
    let j_fused = scratch.extract(FeatureSet::J, src).to_vec();
    for (i, (a, b)) in j_fused.iter().zip(j_ref.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "J{} diverged on {src:?}: fused {a} vs reference {b}",
            i + 1
        );
    }
    // The owned token stream the compat layer exposes is also unchanged.
    assert_eq!(
        vbadet_vba::tokenize(src),
        vbadet_vba::reference_tokenize(src),
        "token stream diverged on {src:?}"
    );
}

#[test]
fn fused_extractors_match_reference_on_hostile_mutants() {
    let mut rng = StdRng::seed_from_u64(0xFEA7);
    let mut scratch = FeatureScratch::default();
    for base in BASES {
        assert_bit_identical(base, &mut scratch);
    }
    // One scratch across all mutants: proves buffer reuse cannot leak
    // state from one document into the next.
    for _ in 0..600 {
        let src = mutate(&mut rng);
        assert_bit_identical(&src, &mut scratch);
    }
}

/// The byte-class lexer classifies U+0000–U+00FF by table and everything
/// above by the `char` predicates. Every char of the table, plus a few
/// above it, in every lexer context: alone, inside an identifier, a `'`
/// comment, a string, a `Rem` comment, and before a line continuation.
/// The set includes chars where the lexer's and the statistics' classes
/// disagree (U+0085 and U+00A0 are whitespace and identifier
/// characters; U+00AA, U+00B2, U+00B5 are word characters; U+00D7 and
/// U+00F7 are not; `\x0B` and `\x0C` are whitespace but not blanks).
#[test]
fn fused_extractors_match_reference_on_every_latin1_char() {
    let above = [
        '\u{100}', '\u{1680}', '\u{2028}', '\u{3000}', '\u{feff}', '\u{fffd}',
    ];
    let chars = (0u32..=0xFF).filter_map(char::from_u32).chain(above);
    let mut scratch = FeatureScratch::default();
    let mut checked = 0;
    for c in chars {
        for src in [
            format!("{c}"),
            format!("a{c}b"),
            format!("'x{c}y"),
            format!("\"{c}\""),
            format!("Rem {c}"),
            format!("x {c}_\r\n1"),
        ] {
            assert_bit_identical(&src, &mut scratch);
            checked += 1;
        }
    }
    assert_eq!(checked, 262 * 6);
}

#[test]
fn fused_extractors_match_reference_on_the_corpus() {
    let spec = vbadet_corpus::CorpusSpec::paper().scaled(0.05);
    let macros = vbadet_corpus::generate_macros(&spec);
    assert!(macros.len() > 100, "corpus draw too small to be probative");
    let mut scratch = FeatureScratch::default();
    for m in &macros {
        assert_bit_identical(&m.source, &mut scratch);
    }
}

#[test]
fn flattened_forest_matches_tree_walk_on_committed_fixture() {
    let text = include_str!("fixtures/rf_forest.txt");
    let rf = vbadet_ml::RandomForest::from_text(text).expect("fixture parses");
    let mut rng = StdRng::seed_from_u64(77);
    for case in 0..500 {
        let x: Vec<f64> = (0..2)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.gen_range(-10.0..10.0),
            })
            .collect();
        assert_eq!(
            rf.predict_proba(&x).to_bits(),
            rf.predict_proba_reference(&x).to_bits(),
            "case {case}: {x:?}"
        );
    }
}

#[test]
fn scratch_scoring_matches_plain_scoring_through_the_detector() {
    use vbadet::{Detector, DetectorConfig, ScoreScratch};
    let spec = vbadet_corpus::CorpusSpec::paper().scaled(0.02);
    let detector = Detector::train_on_corpus(&DetectorConfig::default(), &spec);
    let mut rng = StdRng::seed_from_u64(0x5C0);
    let mut scratch = ScoreScratch::default();
    for _ in 0..100 {
        let src = mutate(&mut rng);
        let fast = detector.score_with(&mut scratch, &src);
        let slow = detector.score(&src);
        assert_eq!(fast.score.to_bits(), slow.score.to_bits(), "{src:?}");
        assert_eq!(fast.obfuscated, slow.obfuscated);
    }
}
