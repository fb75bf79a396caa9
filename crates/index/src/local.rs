//! A build's own token ids: the distinct tokens its documents use,
//! numbered densely.
//!
//! A write-buffer chunk is sealed over the live index's whole vocabulary,
//! so a table indexed by token id costs the vocabulary's width however few
//! documents the chunk holds. The builders count and group over local ids
//! instead — [`LocalTokens::of`] numbers the distinct tokens in the order
//! they first occur, with a hash table sized by the documents — and emit
//! in token order by walking [`LocalTokens::used`], which is sorted by
//! token id.

use ftsl_model::Document;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// The distinct tokens of a document set, and the local id of every
/// occurrence's token.
pub(crate) struct LocalTokens {
    /// `(token, local)` for every distinct token, ascending by token id.
    pub(crate) used: Vec<(u32, u32)>,
    /// Per occurrence, in document order and then occurrence order, the
    /// local id of its token: the number of distinct tokens before its
    /// first occurrence.
    pub(crate) locals: Vec<u32>,
}

impl LocalTokens {
    /// Number the tokens of `docs`. Costs one hash probe per occurrence
    /// and a sort of the distinct tokens; nothing is as wide as the
    /// vocabulary.
    pub(crate) fn of(docs: &[Document]) -> Self {
        let total = docs.iter().map(|d| d.tokens.len()).sum();
        let mut table = IdTable::new();
        let mut locals: Vec<u32> = Vec::with_capacity(total);
        for doc in docs {
            for &(token, _) in &doc.tokens {
                locals.push(table.get_or_insert(token.0));
            }
        }
        let mut used = table.into_entries();
        used.sort_unstable_by_key(|&(token, _)| token);
        LocalTokens { used, locals }
    }

    /// Number of distinct tokens.
    pub(crate) fn len(&self) -> usize {
        self.used.len()
    }

    /// The local ids of the occurrences of each document in turn.
    pub(crate) fn per_doc<'a>(
        &'a self,
        docs: &'a [Document],
    ) -> impl Iterator<Item = (&'a Document, &'a [u32])> + 'a {
        docs.iter().scan(0, move |start, doc| {
            let end = *start + doc.tokens.len();
            let locals = &self.locals[*start..end];
            *start = end;
            Some((doc, locals))
        })
    }
}

/// Slots of an [`IdTable`]'s first allocation.
const ID_TABLE_SLOTS: usize = 256;

/// An empty [`IdTable`] slot (the interner never hands out this id).
const EMPTY: u32 = u32::MAX;

/// Token id → the order it first occurred in: an open-addressing table
/// (linear probing, at most half full) that grows with the distinct
/// tokens, not with the vocabulary.
struct IdTable {
    /// `(token, first)` pairs; `token == EMPTY` marks a free slot.
    slots: Vec<(u32, u32)>,
    len: u32,
    /// Odd multiplier of the multiply-shift hash, drawn per build so that
    /// document text cannot choose its collisions.
    mult: u64,
}

impl IdTable {
    fn new() -> Self {
        IdTable {
            slots: vec![(EMPTY, 0); ID_TABLE_SLOTS],
            len: 0,
            mult: RandomState::new().hash_one(ID_TABLE_SLOTS) | 1,
        }
    }

    #[inline]
    fn home(&self, token: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (u64::from(token).wrapping_mul(self.mult) >> (u64::BITS - bits)) as usize
    }

    /// The first-occurrence number of `token`, numbering it next if new.
    #[inline]
    fn get_or_insert(&mut self, token: u32) -> u32 {
        debug_assert_ne!(token, EMPTY);
        let mask = self.slots.len() - 1;
        let mut i = self.home(token);
        loop {
            let (key, first) = self.slots[i];
            if key == token {
                return first;
            }
            if key == EMPTY {
                let first = self.len;
                self.slots[i] = (token, first);
                self.len += 1;
                if self.len as usize * 2 > self.slots.len() {
                    self.grow();
                }
                return first;
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table.
    fn grow(&mut self) {
        let size = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY, 0); size]);
        for slot in old.into_iter().filter(|s| s.0 != EMPTY) {
            let mut i = self.home(slot.0);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & (size - 1);
            }
            self.slots[i] = slot;
        }
    }

    /// Every `(token, first)` pair, in no particular order.
    fn into_entries(self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.len as usize);
        out.extend(self.slots.into_iter().filter(|s| s.0 != EMPTY));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_model::{Corpus, TokenInterner};

    #[test]
    fn locals_follow_first_occurrence_and_used_follows_token_ids() {
        let mut interner = TokenInterner::new();
        for t in ["zeta", "unused", "alpha", "mid"] {
            interner.intern(t);
        }
        let mut corpus = Corpus::with_interner(interner);
        corpus.add_text("alpha mid zeta alpha");
        corpus.add_text("");
        corpus.add_text("mid zeta");
        let local = LocalTokens::of(corpus.documents());
        // Ids: zeta 0, alpha 2, mid 3; "unused" (1) gets no local id.
        assert_eq!(local.used, vec![(0, 2), (2, 0), (3, 1)]);
        assert_eq!(local.len(), 3);
        assert_eq!(local.locals, vec![0, 1, 2, 0, 1, 2]);
        let per_doc: Vec<&[u32]> = local.per_doc(corpus.documents()).map(|(_, l)| l).collect();
        assert_eq!(per_doc, vec![&[0, 1, 2, 0][..], &[][..], &[1, 2][..]]);
    }

    #[test]
    fn the_table_grows_past_its_first_allocation() {
        let texts: Vec<String> = (0..3 * ID_TABLE_SLOTS).map(|i| format!("w{i}")).collect();
        let corpus = Corpus::from_texts(&texts);
        let local = LocalTokens::of(corpus.documents());
        let ids: Vec<u32> = (0..texts.len() as u32).collect();
        assert_eq!(local.used, ids.iter().map(|&i| (i, i)).collect::<Vec<_>>());
        assert_eq!(local.locals, ids);
    }
}
