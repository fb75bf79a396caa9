//! Token identifiers and string interning.
//!
//! The paper treats `T` (the token set) abstractly, and several theorems turn
//! on whether `T` is finite or infinite. Concretely we intern token strings
//! into dense [`TokenId`]s; the interner doubles as the corpus vocabulary.

use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;

/// Dense identifier for an interned token string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Bidirectional map between token strings and [`TokenId`]s.
///
/// Token text is normalized to lowercase on interning, matching the common IR
/// convention (the paper's examples are case-insensitive: `Usability` and
/// `usability` match the same queries).
///
/// ## Layout
///
/// The interner is three flat columns, with no allocation per token:
///
/// * `text`, every token's normalized text back to back in id order;
/// * `ends`, one byte offset per token, one past its text, so token `i` is
///   `text[ends[i − 1]..ends[i]]`;
/// * `slots`, an open-addressing table of ids (linear probing, a power of
///   two long, at most half full), where `u32::MAX` marks an empty slot.
///
/// A live index shares one interner, copied only when the write buffer
/// interns while a segment or snapshot holds it (see
/// [`crate::Corpus::with_interner`]), so a copy is three `memcpy`s rather
/// than one heap string per token. Slots are found by `std`'s keyed
/// SipHash ([`RandomState`]): token text is untrusted input, and an
/// unkeyed hash would let a document choose the collisions. A clone keeps
/// its keys, so its table stays valid.
#[derive(Clone, Default)]
pub struct TokenInterner {
    text: String,
    ends: Vec<u32>,
    slots: Vec<u32>,
    hasher: RandomState,
}

/// An empty slot of [`TokenInterner`]'s id table.
const EMPTY: u32 = u32::MAX;

/// Slots of a table's first allocation.
const MIN_SLOTS: usize = 16;

impl TokenInterner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `text`, returning its id (allocating one if unseen).
    ///
    /// # Panics
    /// Panics past `u32::MAX − 1` distinct tokens or 4 GiB of vocabulary
    /// text, the widths of the id and offset columns.
    pub fn intern(&mut self, text: &str) -> TokenId {
        let normalized = normalize(text);
        if self.slots.is_empty() {
            self.grow();
        }
        let slot = match self.probe(&normalized) {
            Ok(id) => return id,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("vocabulary exceeds u32 token ids");
        self.text.push_str(&normalized);
        let end = u32::try_from(self.text.len()).expect("vocabulary text exceeds 4 GiB");
        self.ends.push(end);
        self.slots[slot] = id;
        if self.len() * 2 > self.slots.len() {
            self.grow();
        }
        TokenId(id)
    }

    /// Look up an existing token without interning. Returns `None` for
    /// strings never seen in the corpus — such tokens have empty inverted
    /// lists, which queries must handle gracefully.
    pub fn get(&self, text: &str) -> Option<TokenId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(&normalize(text)).ok()
    }

    /// The string for an interned id.
    pub fn name(&self, id: TokenId) -> &str {
        let end = self.ends[id.index()] as usize;
        let start = id
            .index()
            .checked_sub(1)
            .map_or(0, |i| self.ends[i] as usize);
        &self.text[start..end]
    }

    /// Number of distinct tokens interned (the vocabulary size `|T|`).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True iff no tokens have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterate over all `(TokenId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &str)> {
        (0..self.len() as u32).map(|i| (TokenId(i), self.name(TokenId(i))))
    }

    /// The id of `normalized` (`Ok`), or the empty slot where it belongs
    /// (`Err`). The table must be allocated; it is never full.
    fn probe(&self, normalized: &str) -> Result<TokenId, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.hasher.hash_one(normalized) as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if self.name(TokenId(id)) == normalized => return Ok(TokenId(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double the id table (or allocate its first one) and re-insert every
    /// token.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(MIN_SLOTS);
        let mask = size - 1;
        let mut slots = vec![EMPTY; size];
        for (id, name) in self.iter() {
            let mut slot = self.hasher.hash_one(name) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id.0;
        }
        self.slots = slots;
    }
}

/// Lowercase `text`, borrowing it when it is already lowercase ASCII (the
/// common case: the tokenizer's analysis has lowercased it already).
fn normalize(text: &str) -> Cow<'_, str> {
    if text
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
    {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.to_lowercase())
    }
}

impl fmt::Debug for TokenInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TokenInterner({} tokens)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = TokenInterner::new();
        let a = i.intern("usability");
        let b = i.intern("usability");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn interning_is_case_insensitive() {
        let mut i = TokenInterner::new();
        let a = i.intern("Usability");
        let b = i.intern("usability");
        assert_eq!(a, b);
        assert_eq!(i.name(a), "usability");
    }

    #[test]
    fn get_does_not_allocate_new_ids() {
        let mut i = TokenInterner::new();
        i.intern("test");
        assert!(i.get("test").is_some());
        assert!(i.get("missing").is_none());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn normalize_borrows_lowercase_ascii_only() {
        for text in ["", "usability", "a1b2"] {
            assert!(matches!(normalize(text), Cow::Borrowed(t) if t == text));
        }
        for text in ["Usability", "café", "ÉTÉ", "İ"] {
            assert!(matches!(normalize(text), Cow::Owned(t) if t == text.to_lowercase()));
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = TokenInterner::new();
        let ids: Vec<TokenId> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        assert_eq!(ids, vec![TokenId(0), TokenId(1), TokenId(2)]);
        let collected: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }
}
