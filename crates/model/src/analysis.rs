//! Token analysis: stemming and stop-words.
//!
//! The paper's conclusion lists "new full-text primitives such as stemming,
//! thesaurus and stop-words" as planned extensions of the model. Stemming
//! and stop-words are *index-time* token transformations (this module);
//! thesaurus expansion is a *query-time* rewrite (`ftsl-lang`). Queries must
//! be analyzed with the same configuration as the index — the `ftsl-core`
//! facade wires that up.

use std::borrow::Cow;
use std::collections::HashSet;

/// A lightweight Porter-style suffix stripper.
///
/// Implements the high-value subset of Porter's algorithm (plural
/// reduction, -ed/-ing removal with consonant handling, common -ization
/// class suffixes, y→i, final-e stripping). The property that matters — and
/// that the tests pin down — is *conflation*: morphological variants of a
/// word map to the same index term. It is not a certified Porter
/// implementation; the goal is the model primitive, not linguistic
/// perfection.
pub fn stem(word: &str) -> String {
    let w = word.to_lowercase();
    if w.len() <= 3 {
        return w;
    }
    let w = step1a(&w);
    let w = step1b(&w);
    let w = step_y_to_i(&w);
    let w = step_suffixes(&w);
    strip_final_e(&w)
}

fn is_vowel(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => true,
        b'y' => i > 0 && !is_vowel(bytes, i - 1),
        _ => false,
    }
}

fn has_vowel(word: &str) -> bool {
    let bytes = word.as_bytes();
    (0..bytes.len()).any(|i| is_vowel(bytes, i))
}

/// Plurals: sses -> ss, ies -> i, ss -> ss, s -> "".
fn step1a(w: &str) -> String {
    if let Some(stemmed) = w.strip_suffix("sses") {
        return format!("{stemmed}ss");
    }
    if let Some(stemmed) = w.strip_suffix("ies") {
        return format!("{stemmed}i");
    }
    if w.ends_with("ss") {
        return w.to_string();
    }
    if let Some(stemmed) = w.strip_suffix('s') {
        if stemmed.len() > 2 {
            return stemmed.to_string();
        }
    }
    w.to_string()
}

/// -eed/-ed/-ing removal.
fn step1b(w: &str) -> String {
    if let Some(stemmed) = w.strip_suffix("eed") {
        if has_vowel(stemmed) {
            return format!("{stemmed}ee");
        }
        return w.to_string();
    }
    for suffix in ["ing", "ed"] {
        if let Some(stemmed) = w.strip_suffix(suffix) {
            if !has_vowel(stemmed) || stemmed.len() < 2 {
                return w.to_string();
            }
            // Restore 'e' for common cases: at/bl/iz endings (e.g.
            // "completing" -> "complet" -> "complete").
            if stemmed.ends_with("at") || stemmed.ends_with("bl") || stemmed.ends_with("iz") {
                return format!("{stemmed}e");
            }
            // Undouble final consonants (e.g. "running" -> "run").
            let b = stemmed.as_bytes();
            if b.len() >= 2
                && b[b.len() - 1] == b[b.len() - 2]
                && !matches!(b[b.len() - 1], b'l' | b's' | b'z')
                && !is_vowel(b, b.len() - 1)
            {
                return stemmed[..stemmed.len() - 1].to_string();
            }
            return stemmed.to_string();
        }
    }
    w.to_string()
}

/// The common derivational suffixes (a pragmatic subset of Porter steps
/// 2-4).
fn step_suffixes(w: &str) -> String {
    const MAPPINGS: &[(&str, &str)] = &[
        ("ization", "ize"),
        ("ational", "ate"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("iveness", "ive"),
        ("tional", "tion"),
        ("biliti", "ble"),
        ("lessli", "less"),
        ("entli", "ent"),
        ("ation", "ate"),
        ("alism", "al"),
        ("aliti", "al"),
        ("ousli", "ous"),
        ("iviti", "ive"),
        ("fulli", "ful"),
        ("ness", ""),
        ("ment", ""),
        ("able", ""),
        ("ible", ""),
        ("ance", ""),
        ("ence", ""),
        ("izer", "ize"),
        ("ator", "ate"),
        ("alli", "al"),
    ];
    for (suffix, replacement) in MAPPINGS {
        if let Some(stemmed) = w.strip_suffix(suffix) {
            if stemmed.len() >= 3 {
                return format!("{stemmed}{replacement}");
            }
        }
    }
    w.to_string()
}

/// -y -> -i after a consonant (uniform with step1a's ies->i), applied
/// *before* the suffix mappings so "usability" reaches the -biliti rule.
fn step_y_to_i(w: &str) -> String {
    if let Some(stemmed) = w.strip_suffix('y') {
        let b = stemmed.as_bytes();
        if stemmed.len() >= 3 && !b.is_empty() && !is_vowel(b, b.len() - 1) {
            return format!("{stemmed}i");
        }
    }
    w.to_string()
}

/// Porter's step 5a in spirit: drop a final 'e' from long-enough stems so
/// that "complete"/"completing" and "normalize"/"normalization" conflate.
fn strip_final_e(w: &str) -> String {
    if w.len() >= 5 {
        if let Some(stemmed) = w.strip_suffix('e') {
            return stemmed.to_string();
        }
    }
    w.to_string()
}

/// The classic Van Rijsbergen-style English stop-word list (abridged to the
/// high-frequency core).
pub fn default_stop_words() -> HashSet<String> {
    [
        "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is",
        "it", "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there",
        "these", "they", "this", "to", "was", "will", "with",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Index- and query-time token analysis configuration.
#[derive(Clone, Debug, Default)]
pub struct AnalysisConfig {
    /// Apply the [`stem`] function to every token.
    pub stem: bool,
    /// Drop these tokens entirely (empty set = keep everything).
    pub stop_words: HashSet<String>,
}

impl AnalysisConfig {
    /// No stemming, no stop-words (the default used across the paper's
    /// formal sections).
    pub fn none() -> Self {
        Self::default()
    }

    /// Stemming plus the default English stop-word list.
    pub fn english() -> Self {
        AnalysisConfig {
            stem: true,
            stop_words: default_stop_words(),
        }
    }

    /// True when [`Self::analyze`] only lowercases: no stemming, no
    /// stop-words.
    pub fn is_identity(&self) -> bool {
        !self.stem && self.stop_words.is_empty()
    }

    /// Analyze one token: `None` means the token is stopped. The token
    /// itself is borrowed back when lowercasing leaves it as it is and
    /// there is no stemming, so an already lowercase token costs no
    /// allocation.
    pub fn analyze<'a>(&self, token: &'a str) -> Option<Cow<'a, str>> {
        let lowered = if is_lowercase(token) {
            Cow::Borrowed(token)
        } else {
            Cow::Owned(token.to_lowercase())
        };
        if self.stop_words.contains(lowered.as_ref()) {
            return None;
        }
        Some(if self.stem {
            Cow::Owned(stem(&lowered))
        } else {
            lowered
        })
    }
}

/// Whether `token.to_lowercase()` is `token`: every character lowercases
/// to itself alone. (The one context-dependent mapping, final sigma, is of
/// an uppercase character, which this already rejects.)
fn is_lowercase(token: &str) -> bool {
    token.chars().all(|c| {
        let mut lower = c.to_lowercase();
        lower.next() == Some(c) && lower.next().is_none()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plural_reduction() {
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("caress"), "caress");
        assert_eq!(stem("cats"), "cat");
    }

    #[test]
    fn ed_ing_removal() {
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("running"), "run");
        assert_eq!(stem("sing"), "sing"); // no vowel before -ing
        assert_eq!(stem("agreed"), "agre"); // final-e stripped, like "agree"
    }

    #[test]
    fn query_and_document_forms_conflate() {
        // The reason stemming matters: morphological variants hash to the
        // same index term.
        assert_eq!(stem("tests"), stem("test"));
        assert_eq!(stem("testing"), stem("test"));
        assert_eq!(stem("tested"), stem("test"));
        assert_eq!(stem("usability"), stem("usable"));
        assert_eq!(stem("completing"), stem("complete"));
        assert_eq!(stem("agreed"), stem("agree"));
        assert_eq!(stem("normalization"), stem("normalize"));
        assert_eq!(stem("relational"), stem("relate"));
    }

    #[test]
    fn derivational_suffixes() {
        assert_eq!(stem("usefulness"), "useful");
        assert_eq!(stem("adjustment"), "adjust");
        assert_eq!(stem("usability"), "usabl");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("be"), "be");
        assert_eq!(stem("sky"), "sky");
    }

    #[test]
    fn analysis_config_stops_and_stems() {
        let cfg = AnalysisConfig::english();
        assert_eq!(cfg.analyze("The"), None);
        assert_eq!(cfg.analyze("Tests").as_deref(), Some("test"));
        let none = AnalysisConfig::none();
        assert_eq!(none.analyze("The").as_deref(), Some("the"));
        assert_eq!(none.analyze("Tests").as_deref(), Some("tests"));
    }

    #[test]
    fn lowercase_tokens_are_borrowed_and_every_token_lowercases() {
        let none = AnalysisConfig::none();
        for token in ["tests", "x86", "größe", "ǆ", "ς", "日本"] {
            assert!(
                matches!(none.analyze(token), Some(Cow::Borrowed(t)) if t == token),
                "{token}"
            );
        }
        // Uppercase, titlecase (`ǅ` lowercases to `ǆ`), and a final sigma.
        for token in ["Tests", "GRÖSSE", "ǅ", "ΟΔΟΣ", "İ"] {
            let analyzed = none.analyze(token).expect("not stopped");
            assert!(matches!(analyzed, Cow::Owned(_)), "{token}");
            assert_eq!(analyzed, token.to_lowercase());
        }
        // Stemming always builds the stem.
        let stemmed = AnalysisConfig {
            stem: true,
            ..AnalysisConfig::none()
        };
        assert_eq!(stemmed.analyze("tests").as_deref(), Some("test"));
    }
}
