//! The corpus: the set `N` of context nodes together with the token
//! vocabulary, realizing the formal model's `Positions` and `Token` functions.

use crate::document::Document;
use crate::node::NodeId;
use crate::position::Position;
use crate::token::{TokenId, TokenInterner};
use crate::tokenizer::Tokenizer;
use std::sync::Arc;

/// A collection of context nodes sharing one token vocabulary.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    documents: Vec<Document>,
    interner: Arc<TokenInterner>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty corpus that starts from an existing vocabulary.
    ///
    /// Token ids interned by `interner` stay valid in the new corpus, which
    /// is what lets a segmented index keep one *prefix-consistent* global
    /// vocabulary: passing an `Arc` shares it, and a corpus copies it only
    /// to intern while it is shared (copy-on-write), so a given `TokenId`
    /// means the same string in every segment that knows it.
    pub fn with_interner(interner: impl Into<Arc<TokenInterner>>) -> Self {
        Corpus {
            documents: Vec::new(),
            interner: interner.into(),
        }
    }

    /// Build a corpus by tokenizing raw texts with the default tokenizer.
    pub fn from_texts<S: AsRef<str>>(texts: &[S]) -> Self {
        let mut corpus = Corpus::new();
        let tokenizer = Tokenizer::new();
        for text in texts {
            corpus.add_text_with(&tokenizer, text.as_ref());
        }
        corpus
    }

    /// Tokenize and append one document; returns its node id.
    pub fn add_text(&mut self, text: &str) -> NodeId {
        self.add_text_with(&Tokenizer::new(), text)
    }

    /// Tokenize with a specific tokenizer and append; returns the node id.
    pub fn add_text_with(&mut self, tokenizer: &Tokenizer, text: &str) -> NodeId {
        let node = NodeId(self.documents.len() as u32);
        let tokens = tokenizer.tokenize(text, Arc::make_mut(&mut self.interner));
        self.documents
            .push(Document::new(node, format!("doc{}", node.0), tokens));
        node
    }

    /// Append an already-tokenized document built from `(token_str, position)`
    /// pairs. Used by generators that synthesize token streams directly.
    pub fn add_tokens(
        &mut self,
        label: impl Into<String>,
        tokens: Vec<(TokenId, Position)>,
    ) -> NodeId {
        let node = NodeId(self.documents.len() as u32);
        self.documents.push(Document::new(node, label, tokens));
        node
    }

    /// Intern a token string (for generators building token streams).
    pub fn intern(&mut self, text: &str) -> TokenId {
        Arc::make_mut(&mut self.interner).intern(text)
    }

    /// Number of context nodes (`cnodes` in the complexity model).
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True iff the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.documents.len() as u32).map(NodeId)
    }

    /// The document realizing `node`.
    pub fn document(&self, node: NodeId) -> &Document {
        &self.documents[node.index()]
    }

    /// All documents in node order.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// The token interner (vocabulary), shared: clone the `Arc` to start
    /// another corpus from it ([`Self::with_interner`]).
    pub fn interner(&self) -> &Arc<TokenInterner> {
        &self.interner
    }

    /// `Positions(node)`: the positions of a context node, in offset order.
    pub fn positions(&self, node: NodeId) -> Vec<Position> {
        self.document(node).positions().collect()
    }

    /// `Token(pos)` within `node`.
    pub fn token_at(&self, node: NodeId, pos: Position) -> Option<TokenId> {
        self.document(node).token_at(pos)
    }

    /// Look up a token id by string without interning.
    pub fn token_id(&self, text: &str) -> Option<TokenId> {
        self.interner.get(text)
    }

    /// Compute corpus-wide statistics.
    pub fn stats(&self) -> CorpusStats {
        let total_positions: usize = self.documents.iter().map(Document::len).sum();
        CorpusStats {
            cnodes: self.documents.len(),
            vocabulary: self.interner.len(),
            total_positions,
            pos_per_cnode: self.documents.iter().map(Document::len).max().unwrap_or(0),
        }
    }
}

/// Corpus-level size statistics (a subset of the Section 5.1.2 parameters;
/// the inverted-list-side parameters live in `ftsl-index`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of context nodes (`cnodes`).
    pub cnodes: usize,
    /// Number of distinct tokens (`|T|`).
    pub vocabulary: usize,
    /// Total token occurrences across all nodes.
    pub total_positions: usize,
    /// Maximum positions in any single node (`pos_per_cnode`).
    pub pos_per_cnode: usize,
}

/// The Figure 1 book document from the paper, usable by tests and examples
/// across the workspace.
pub fn figure1_book_text() -> &'static str {
    "book id usability\n\
     author Elina Rose author\n\
     content Usability Definition\n\
     p Usability of a software measures how well the software supports \
     achieving an efficient software. p\n\n\
     p A software is tested for usability by a task completion experiment. \
     More on usability of a software follows. p\n\
     content book"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_texts_assigns_dense_node_ids() {
        let c = Corpus::from_texts(&["one two", "three"]);
        assert_eq!(c.len(), 2);
        let ids: Vec<NodeId> = c.node_ids().collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn positions_and_token_at_realize_the_model() {
        let c = Corpus::from_texts(&["alpha beta alpha"]);
        let n = NodeId(0);
        let ps = c.positions(n);
        assert_eq!(ps.len(), 3);
        let alpha = c.token_id("alpha").unwrap();
        assert_eq!(c.token_at(n, ps[0]), Some(alpha));
        assert_eq!(c.token_at(n, ps[2]), Some(alpha));
    }

    #[test]
    fn vocabulary_is_shared_across_documents() {
        let c = Corpus::from_texts(&["shared word", "shared again"]);
        assert_eq!(c.stats().vocabulary, 3);
    }

    #[test]
    fn stats_reports_sizes() {
        let c = Corpus::from_texts(&["a b c", "d e"]);
        let s = c.stats();
        assert_eq!(s.cnodes, 2);
        assert_eq!(s.total_positions, 5);
        assert_eq!(s.pos_per_cnode, 3);
    }

    #[test]
    fn figure1_document_contains_expected_tokens() {
        let c = Corpus::from_texts(&[figure1_book_text()]);
        for tok in ["usability", "software", "efficient", "task", "completion"] {
            assert!(c.token_id(tok).is_some(), "missing token {tok}");
        }
        // "usability" occurs multiple times, like the paper's Figure 2 list.
        let usability = c.token_id("usability").unwrap();
        assert!(c.document(NodeId(0)).occurs(usability) >= 3);
    }
}
