//! Interned ids for the tokens the feature passes compare.
//!
//! The lexer tags every keyword, identifier and operator with a small id
//! while it already has the word in hand, so the V/J token passes compare
//! integers instead of re-folding and re-searching token text:
//!
//! - [`Op`]: one variant per operator or punctuation mark;
//! - [`KeywordId`]: the index of a reserved word in `KEYWORDS`;
//! - [`BuiltinId`]: a built-in function name and its
//!   [`FunctionCategory`] (V8–V12), or [`BuiltinId::NONE`].
//!
//! Keyword and builtin names resolve through one open-addressing table
//! built at compile time, so a lookup costs a four-byte hash and about
//! one probe, and nothing is built at start-up. The text-based oracles
//! (`is_keyword`, [`functions::categorize`](crate::functions::categorize))
//! stay as they were; the unit tests below prove the table agrees with
//! them.

use crate::functions::{
    FunctionCategory, ARITHMETIC_FUNCTIONS, CONVERSION_FUNCTIONS, FINANCIAL_FUNCTIONS,
    RICH_FUNCTIONS, TEXT_FUNCTIONS,
};
use crate::lexer::KEYWORDS;

/// An operator or punctuation mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `&` (concatenation).
    Amp,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `*`.
    Star,
    /// `/`.
    Slash,
    /// `\` (integer division).
    Backslash,
    /// `^`.
    Caret,
    /// `=`.
    Eq,
    /// `<`.
    Lt,
    /// `>`.
    Gt,
    /// `.`.
    Dot,
    /// `,`.
    Comma,
    /// `;`.
    Semicolon,
    /// `:`.
    Colon,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `#`.
    Hash,
    /// `@`.
    At,
    /// `!`.
    Bang,
    /// `$`.
    Dollar,
    /// `%`.
    Percent,
    /// `?`.
    Question,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `<>`.
    Ne,
    /// `<=`.
    Le,
    /// `>=`.
    Ge,
    /// `:=`.
    Assign,
}

impl Op {
    /// The operator's source text.
    pub const fn as_str(self) -> &'static str {
        match self {
            Op::Amp => "&",
            Op::Plus => "+",
            Op::Minus => "-",
            Op::Star => "*",
            Op::Slash => "/",
            Op::Backslash => "\\",
            Op::Caret => "^",
            Op::Eq => "=",
            Op::Lt => "<",
            Op::Gt => ">",
            Op::Dot => ".",
            Op::Comma => ",",
            Op::Semicolon => ";",
            Op::Colon => ":",
            Op::LParen => "(",
            Op::RParen => ")",
            Op::Hash => "#",
            Op::At => "@",
            Op::Bang => "!",
            Op::Dollar => "$",
            Op::Percent => "%",
            Op::Question => "?",
            Op::LBracket => "[",
            Op::RBracket => "]",
            Op::LBrace => "{",
            Op::RBrace => "}",
            Op::Ne => "<>",
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::Assign => ":=",
        }
    }

    /// The one-character operator spelled by ASCII byte `b`, if any.
    pub(crate) const fn single(b: u8) -> Option<Op> {
        Some(match b {
            b'&' => Op::Amp,
            b'+' => Op::Plus,
            b'-' => Op::Minus,
            b'*' => Op::Star,
            b'/' => Op::Slash,
            b'\\' => Op::Backslash,
            b'^' => Op::Caret,
            b'=' => Op::Eq,
            b'<' => Op::Lt,
            b'>' => Op::Gt,
            b'.' => Op::Dot,
            b',' => Op::Comma,
            b';' => Op::Semicolon,
            b':' => Op::Colon,
            b'(' => Op::LParen,
            b')' => Op::RParen,
            b'#' => Op::Hash,
            b'@' => Op::At,
            b'!' => Op::Bang,
            b'$' => Op::Dollar,
            b'%' => Op::Percent,
            b'?' => Op::Question,
            b'[' => Op::LBracket,
            b']' => Op::RBracket,
            b'{' => Op::LBrace,
            b'}' => Op::RBrace,
            _ => return None,
        })
    }

    /// The two-character operator starting with `a` then `b`, if any.
    pub(crate) const fn pair(a: u8, b: u8) -> Option<Op> {
        match (a, b) {
            (b'<', b'>') => Some(Op::Ne),
            (b'<', b'=') => Some(Op::Le),
            (b'>', b'=') => Some(Op::Ge),
            (b':', b'=') => Some(Op::Assign),
            _ => None,
        }
    }
}

/// A reserved word: its index in the sorted keyword table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeywordId(u8);

impl KeywordId {
    /// `Sub`.
    pub const SUB: KeywordId = keyword("sub");
    /// `Function`.
    pub const FUNCTION: KeywordId = keyword("function");
    /// `Property`.
    pub const PROPERTY: KeywordId = keyword("property");
    /// `Dim`.
    pub const DIM: KeywordId = keyword("dim");
    /// `Const`.
    pub const CONST: KeywordId = keyword("const");
    /// `As`.
    pub const AS: KeywordId = keyword("as");
    /// `Declare`.
    pub const DECLARE: KeywordId = keyword("declare");
    /// `End`.
    pub const END: KeywordId = keyword("end");
    /// `Exit`.
    pub const EXIT: KeywordId = keyword("exit");

    /// The keyword's lowercase spelling.
    pub fn name(self) -> &'static str {
        KEYWORDS[self.0 as usize]
    }

    /// Whether an identifier right after this keyword is a declared name
    /// rather than a call (`Sub X`, `Dim X`, `As X`, …).
    pub fn declares_name(self) -> bool {
        matches!(
            self,
            KeywordId::SUB
                | KeywordId::FUNCTION
                | KeywordId::PROPERTY
                | KeywordId::DIM
                | KeywordId::CONST
                | KeywordId::AS
        )
    }
}

/// Compile-time keyword id; an unknown name fails the build.
const fn keyword(name: &str) -> KeywordId {
    let mut i = 0;
    while i < KEYWORDS.len() {
        if const_eq(KEYWORDS[i].as_bytes(), name.as_bytes()) {
            return KeywordId(i as u8);
        }
        i += 1;
    }
    panic!("not a keyword")
}

/// An identifier's built-in function, if it names one: 0 is "none",
/// `1 + i` is entry `i` of the category-ordered builtin table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuiltinId(u8);

/// All built-in names with their categories, in V8–V12 order.
const BUILTINS: [(&str, FunctionCategory); BUILTIN_COUNT] = builtins();
const BUILTIN_COUNT: usize = TEXT_FUNCTIONS.len()
    + ARITHMETIC_FUNCTIONS.len()
    + CONVERSION_FUNCTIONS.len()
    + FINANCIAL_FUNCTIONS.len()
    + RICH_FUNCTIONS.len();

const fn builtins() -> [(&'static str, FunctionCategory); BUILTIN_COUNT] {
    let tables: [(&[&str], FunctionCategory); 5] = [
        (TEXT_FUNCTIONS, FunctionCategory::Text),
        (ARITHMETIC_FUNCTIONS, FunctionCategory::Arithmetic),
        (CONVERSION_FUNCTIONS, FunctionCategory::TypeConversion),
        (FINANCIAL_FUNCTIONS, FunctionCategory::Financial),
        (RICH_FUNCTIONS, FunctionCategory::Rich),
    ];
    let mut out = [("", FunctionCategory::Text); BUILTIN_COUNT];
    let (mut t, mut k) = (0, 0);
    while t < tables.len() {
        let mut i = 0;
        while i < tables[t].0.len() {
            out[k] = (tables[t].0[i], tables[t].1);
            k += 1;
            i += 1;
        }
        t += 1;
    }
    out
}

impl BuiltinId {
    /// Not a built-in function.
    pub const NONE: BuiltinId = BuiltinId(0);

    /// Whether this names a built-in function.
    pub fn is_builtin(self) -> bool {
        self.0 != 0
    }

    /// The function's V8–V12 category.
    pub fn category(self) -> Option<FunctionCategory> {
        self.entry().map(|(_, cat)| cat)
    }

    fn entry(self) -> Option<(&'static str, FunctionCategory)> {
        (self.0 as usize).checked_sub(1).map(|i| BUILTINS[i])
    }
}

/// One table slot: a keyword id (`NO_KEYWORD` for none) and a builtin id
/// for the same folded name (`Randomize` is both), plus the name's length
/// so most misses are rejected without touching the name. An empty slot
/// has length 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interned {
    keyword: u8,
    builtin: BuiltinId,
    len: u8,
}

const NO_KEYWORD: u8 = u8::MAX;
const EMPTY: Interned = Interned {
    keyword: NO_KEYWORD,
    builtin: BuiltinId::NONE,
    len: 0,
};

impl Interned {
    /// The keyword id, if the word is a reserved word.
    pub(crate) fn keyword(self) -> Option<KeywordId> {
        (self.keyword != NO_KEYWORD).then_some(KeywordId(self.keyword))
    }

    /// The builtin id ([`BuiltinId::NONE`] when not a builtin).
    pub(crate) fn builtin(self) -> BuiltinId {
        self.builtin
    }

    fn name(self) -> &'static str {
        match self.keyword() {
            Some(k) => k.name(),
            None => BUILTINS[self.builtin.0 as usize - 1].0,
        }
    }
}

/// Longest keyword or builtin name, in bytes; longer words skip the table.
const MAX_NAME: usize = max_name();
const SLOT_BITS: u32 = 10;
const SLOTS: usize = 1 << SLOT_BITS;
static TABLE: [Interned; SLOTS] = build_table();
// Ids fit in a byte (with `NO_KEYWORD` and `BuiltinId::NONE` spare), and
// the table stays at most half full.
const _: () = assert!(
    KEYWORDS.len() < NO_KEYWORD as usize
        && BUILTIN_COUNT < u8::MAX as usize
        && KEYWORDS.len() + BUILTIN_COUNT <= SLOTS / 2
);

const fn max_name() -> usize {
    let mut m = 0;
    let mut i = 0;
    while i < KEYWORDS.len() {
        if KEYWORDS[i].len() > m {
            m = KEYWORDS[i].len();
        }
        i += 1;
    }
    i = 0;
    while i < BUILTIN_COUNT {
        if BUILTINS[i].0.len() > m {
            m = BUILTINS[i].0.len();
        }
        i += 1;
    }
    m
}

/// Slot index of a non-empty word: its length and first, middle and last
/// bytes, each with the ASCII case bit set so a word and its lowercase
/// table entry hash alike. (Setting 0x20 lowercases letters and leaves
/// digits and `_` distinct; any other byte cannot occur in a table
/// entry, so a collision it causes is settled by the exact compare.) The
/// four products are independent, so the hash costs no per-byte chain.
const fn slot_of(word: &[u8]) -> usize {
    let l = word.len();
    let h = (l as u32).wrapping_mul(0x9e37_79b9)
        ^ ((word[0] | 0x20) as u32).wrapping_mul(0x85eb_ca6b)
        ^ ((word[l / 2] | 0x20) as u32).wrapping_mul(0xc2b2_ae35)
        ^ ((word[l - 1] | 0x20) as u32).wrapping_mul(0x27d4_eb2f);
    (h >> (32 - SLOT_BITS)) as usize
}

const fn const_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Linear-probe insert of every keyword, then every builtin (merging into
/// the keyword's slot when the names coincide).
const fn build_table() -> [Interned; SLOTS] {
    let mut table = [EMPTY; SLOTS];
    let mut i = 0;
    while i < KEYWORDS.len() {
        let name = KEYWORDS[i].as_bytes();
        let mut s = slot_of(name);
        while table[s].len != 0 {
            s = (s + 1) % SLOTS;
        }
        table[s].keyword = i as u8;
        table[s].len = name.len() as u8;
        i += 1;
    }
    i = 0;
    while i < BUILTIN_COUNT {
        let name = BUILTINS[i].0.as_bytes();
        let mut s = slot_of(name);
        while table[s].len != 0
            && !(table[s].keyword != NO_KEYWORD
                && const_eq(KEYWORDS[table[s].keyword as usize].as_bytes(), name))
        {
            s = (s + 1) % SLOTS;
        }
        table[s].builtin = BuiltinId(i as u8 + 1);
        table[s].len = name.len() as u8;
        i += 1;
    }
    table
}

/// Interns one lexed word (no type suffix): its keyword id and builtin id
/// under ASCII case folding, or neither.
#[inline]
pub(crate) fn lookup(word: &[u8]) -> Interned {
    if word.is_empty() || word.len() > MAX_NAME {
        return EMPTY;
    }
    let mut s = slot_of(word);
    loop {
        let slot = TABLE[s];
        if slot.len == 0 {
            return EMPTY;
        }
        if slot.len as usize == word.len() && slot.name().as_bytes().eq_ignore_ascii_case(word) {
            return slot;
        }
        s = (s + 1) % SLOTS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::categorize;
    use crate::lexer::is_keyword;

    /// The builtin id of an identifier's full text: like
    /// [`categorize`], trailing type suffixes do not count.
    fn builtin_of(name: &str) -> BuiltinId {
        lookup(
            name.trim_end_matches(['$', '%', '&', '!', '#', '@'])
                .as_bytes(),
        )
        .builtin()
    }

    fn check(word: &str) {
        let interned = lookup(word.as_bytes());
        assert_eq!(
            interned.keyword().is_some(),
            is_keyword(word),
            "keyword id vs is_keyword on {word:?}"
        );
        if let Some(k) = interned.keyword() {
            assert!(k.name().eq_ignore_ascii_case(word), "{word:?} -> {k:?}");
        }
        let b = builtin_of(word);
        assert_eq!(
            b.category(),
            categorize(word),
            "builtin id vs categorize on {word:?}"
        );
        if let Some((name, _)) = b.entry() {
            assert!(
                name.eq_ignore_ascii_case(word.trim_end_matches(['$', '%', '&', '!', '#', '@'])),
                "{word:?} -> {name}"
            );
        }
    }

    fn mixed_case(word: &str) -> String {
        word.chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_ascii_uppercase()
                } else {
                    c
                }
            })
            .collect()
    }

    #[test]
    fn interned_ids_agree_with_text_oracles() {
        let names = KEYWORDS.iter().chain(BUILTINS.iter().map(|(n, _)| n));
        let mut checked = 0usize;
        for name in names {
            let mut inputs = vec![name.to_string()];
            // Near misses: every proper prefix and one extra letter.
            inputs.extend((1..name.len()).map(|n| name[..n].to_string()));
            inputs.push(format!("{name}x"));
            for input in inputs {
                for cased in [
                    input.to_ascii_lowercase(),
                    input.to_ascii_uppercase(),
                    mixed_case(&input),
                ] {
                    check(&cased);
                    for suffix in ['$', '%', '&', '!', '#', '@'] {
                        check(&format!("{cased}{suffix}"));
                    }
                    checked += 7;
                }
            }
        }
        for word in ["rem", "Rem", "REMX", "", "_", "caf\u{e9}", "Chr\u{e9}"] {
            check(word);
        }
        assert!(checked > 10_000, "only {checked} inputs");
    }

    #[test]
    fn every_name_is_reachable() {
        for (i, k) in KEYWORDS.iter().enumerate() {
            assert_eq!(lookup(k.as_bytes()).keyword(), Some(KeywordId(i as u8)));
        }
        for (i, (name, cat)) in BUILTINS.iter().enumerate() {
            let b = lookup(name.as_bytes()).builtin();
            assert_eq!(b, BuiltinId(i as u8 + 1), "{name}");
            assert_eq!(b.category(), Some(*cat));
        }
        assert_eq!(
            lookup(b"Randomize").keyword().map(KeywordId::name),
            Some("randomize")
        );
        assert_eq!(
            lookup(b"Randomize").builtin().category(),
            Some(FunctionCategory::Arithmetic)
        );
    }

    #[test]
    fn table_probes_stay_short() {
        // Longest run of occupied slots: bounds the probes of any miss.
        let mut longest = 0;
        let mut run = 0;
        for slot in TABLE.iter().chain(TABLE.iter()) {
            run = if slot.len == 0 { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest <= 12, "occupied run of {longest} slots");
    }

    #[test]
    fn named_keyword_ids_spell_their_keyword() {
        for (id, name) in [
            (KeywordId::SUB, "sub"),
            (KeywordId::FUNCTION, "function"),
            (KeywordId::PROPERTY, "property"),
            (KeywordId::DIM, "dim"),
            (KeywordId::CONST, "const"),
            (KeywordId::AS, "as"),
            (KeywordId::DECLARE, "declare"),
            (KeywordId::END, "end"),
            (KeywordId::EXIT, "exit"),
        ] {
            assert_eq!(id.name(), name);
        }
    }

    #[test]
    fn operator_ids_round_trip_their_text() {
        for b in 0..=u8::MAX {
            if let Some(op) = Op::single(b) {
                assert_eq!(op.as_str().as_bytes(), [b]);
            }
            for c in 0..=u8::MAX {
                if let Some(op) = Op::pair(b, c) {
                    assert_eq!(op.as_str().as_bytes(), [b, c]);
                }
            }
        }
    }
}
