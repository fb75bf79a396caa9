//! The flat token interner against the map it replaced: a `HashMap` from
//! lowercased text to id plus a `Vec` of names. Ids, names, lookups, `iter`
//! order and clones must agree, including for text whose lowercase form has
//! a different byte length.

use ftsl_model::{TokenId, TokenInterner};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;
use std::collections::HashMap;

/// The interner this crate used to have.
#[derive(Clone, Default)]
struct Reference {
    by_name: HashMap<String, TokenId>,
    names: Vec<String>,
}

impl Reference {
    fn intern(&mut self, text: &str) -> TokenId {
        let lowered = text.to_lowercase();
        if let Some(&id) = self.by_name.get(&lowered) {
            return id;
        }
        let id = TokenId(self.names.len() as u32);
        self.by_name.insert(lowered.clone(), id);
        self.names.push(lowered);
        id
    }

    fn get(&self, text: &str) -> Option<TokenId> {
        self.by_name.get(&text.to_lowercase()).copied()
    }
}

/// ASCII of both cases, accented letters, and characters whose lowercase
/// form is longer (`İ` 2 → 3 bytes, `Ⱥ` 2 → 3) or shorter (`ẞ` 3 → 2, the
/// Kelvin sign 3 → 1) in UTF-8; `Σ` lowercases by context.
const ALPHABET: [char; 12] = ['a', 'b', 'A', 'B', 'é', 'É', 'İ', 'Ⱥ', 'ẞ', 'K', 'Σ', 'σ'];

fn arb_word() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..5)
        .prop_map(|chars| chars.into_iter().map(|c| ALPHABET[c]).collect())
}

/// Each step interns (`true`) or only looks up (`false`) a word.
fn arb_steps() -> impl Strategy<Value = Vec<(bool, String)>> {
    proptest::collection::vec((any::<bool>(), arb_word()), 0..60)
}

fn assert_same(got: &TokenInterner, want: &Reference) {
    assert_eq!(got.len(), want.names.len());
    assert_eq!(got.is_empty(), want.names.is_empty());
    let listed: Vec<(TokenId, &str)> = got.iter().collect();
    let expected: Vec<(TokenId, &str)> = want
        .names
        .iter()
        .enumerate()
        .map(|(i, name)| (TokenId(i as u32), name.as_str()))
        .collect();
    assert_eq!(listed, expected, "dense ids in interning order");
    for (id, name) in expected {
        assert_eq!(got.name(id), name);
        assert_eq!(got.get(name), Some(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(128)))]

    #[test]
    fn interner_matches_the_hash_map(steps in arb_steps(), later in arb_steps()) {
        let mut got = TokenInterner::new();
        let mut want = Reference::default();
        for (intern, word) in &steps {
            if *intern {
                let id = got.intern(word);
                prop_assert_eq!(id, want.intern(word));
                // Interning stores the lowercase form, byte length and all.
                prop_assert_eq!(got.name(id), word.to_lowercase());
            } else {
                prop_assert_eq!(got.get(word), want.get(word));
            }
        }
        assert_same(&got, &want);

        // A clone answers the same, and grows on its own.
        let mut copy = got.clone();
        let mut copy_want = want.clone();
        assert_same(&copy, &copy_want);
        for (_, word) in &later {
            prop_assert_eq!(copy.intern(word), copy_want.intern(word));
            prop_assert_eq!(got.get(word), want.get(word), "the original is untouched");
        }
        assert_same(&copy, &copy_want);
        assert_same(&got, &want);
    }
}

#[test]
fn two_hundred_thousand_distinct_tokens() {
    const N: u32 = 200_000;
    let mut interner = TokenInterner::new();
    for i in 0..N {
        assert_eq!(interner.intern(&format!("Token{i}")), TokenId(i));
    }
    assert_eq!(interner.len(), N as usize);
    let copy = interner.clone();
    for i in (0..N).step_by(7) {
        let text = format!("token{i}");
        assert_eq!(interner.get(&text), Some(TokenId(i)));
        assert_eq!(copy.get(&text.to_uppercase()), Some(TokenId(i)));
        assert_eq!(copy.name(TokenId(i)), text);
    }
    assert_eq!(interner.get("token200000"), None);
    assert_eq!(interner.intern("TOKEN199999"), TokenId(N - 1));
    assert_eq!(interner.len(), N as usize);
}
