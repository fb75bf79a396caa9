//! Deterministic synthetic corpus generation.
//!
//! Documents are token streams with sentence/paragraph structure. Background
//! tokens are Zipf-distributed over a synthetic vocabulary (`t0`, `t1`, …);
//! *planted tokens* are inserted with controlled document frequency and
//! occurrences per document, giving direct control over the complexity-model
//! parameters `entries_per_token` and `pos_per_entry` that Figures 7–8
//! sweep.

use crate::zipf::Zipf;
use ftsl_model::{Corpus, Position};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A token planted into the corpus with controlled statistics.
#[derive(Clone, Debug)]
pub struct PlantedToken {
    /// Token text.
    pub token: String,
    /// Fraction of documents containing the token (document frequency /
    /// cnodes).
    pub doc_fraction: f64,
    /// Occurrences per containing document (`pos_per_entry` for this
    /// token's list).
    pub occurrences: usize,
}

/// Synthetic corpus configuration.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Number of context nodes (`cnodes`).
    pub cnodes: usize,
    /// Background vocabulary size.
    pub vocabulary: usize,
    /// Zipf exponent for background tokens.
    pub zipf_exponent: f64,
    /// Background tokens per document.
    pub tokens_per_doc: usize,
    /// Mean sentence length in tokens.
    pub sentence_len: usize,
    /// Sentences per paragraph.
    pub sentences_per_para: usize,
    /// Planted query tokens.
    pub planted: Vec<PlantedToken>,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            cnodes: 1000,
            vocabulary: 5000,
            zipf_exponent: 1.0,
            tokens_per_doc: 200,
            sentence_len: 15,
            sentences_per_para: 5,
            planted: Vec::new(),
            seed: 0xF75,
        }
    }
}

impl SynthConfig {
    /// A small corpus for tests.
    pub fn small() -> Self {
        SynthConfig {
            cnodes: 50,
            vocabulary: 200,
            tokens_per_doc: 40,
            ..Default::default()
        }
    }

    /// Plant a token (builder style).
    pub fn plant(mut self, token: &str, doc_fraction: f64, occurrences: usize) -> Self {
        self.planted.push(PlantedToken {
            token: token.to_string(),
            doc_fraction,
            occurrences,
        });
        self
    }

    /// Generate the corpus.
    pub fn build(&self) -> Corpus {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut corpus = Corpus::new();
        let background: Vec<ftsl_model::TokenId> = (0..self.vocabulary)
            .map(|i| corpus.intern(&format!("t{i}")))
            .collect();
        let planted_ids: Vec<ftsl_model::TokenId> = self
            .planted
            .iter()
            .map(|p| corpus.intern(&p.token))
            .collect();
        let zipf = Zipf::new(self.vocabulary, self.zipf_exponent);

        for doc_idx in 0..self.cnodes {
            // Decide which planted tokens appear here and at which slots.
            let total_background = self.tokens_per_doc;
            let mut planted_slots: Vec<(usize, ftsl_model::TokenId)> = Vec::new();
            for (p, &id) in self.planted.iter().zip(&planted_ids) {
                if rng.random::<f64>() < p.doc_fraction {
                    for _ in 0..p.occurrences {
                        let slot = rng.random_range(0..total_background.max(1));
                        planted_slots.push((slot, id));
                    }
                }
            }
            planted_slots.sort_by_key(|&(slot, _)| slot);

            let mut tokens = Vec::with_capacity(total_background + planted_slots.len());
            let mut offset = 0u32;
            let mut sentence = 0u32;
            let mut paragraph = 0u32;
            let mut in_sentence = 0usize;
            let mut in_para = 0usize;
            let mut planted_iter = planted_slots.into_iter().peekable();
            for slot in 0..total_background {
                while planted_iter.peek().is_some_and(|&(s, _)| s <= slot) {
                    let (_, id) = planted_iter.next().unwrap();
                    tokens.push((id, Position::new(offset, sentence, paragraph)));
                    offset += 1;
                }
                let tok = background[zipf.sample(&mut rng)];
                tokens.push((tok, Position::new(offset, sentence, paragraph)));
                offset += 1;
                in_sentence += 1;
                if in_sentence >= self.sentence_len {
                    in_sentence = 0;
                    sentence += 1;
                    in_para += 1;
                    if in_para >= self.sentences_per_para {
                        in_para = 0;
                        paragraph += 1;
                    }
                }
            }
            for (_, id) in planted_iter {
                tokens.push((id, Position::new(offset, sentence, paragraph)));
                offset += 1;
            }
            corpus.add_tokens(format!("synth{doc_idx}"), tokens);
        }
        corpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_index::IndexBuilder;

    #[test]
    fn generation_is_deterministic() {
        let a = SynthConfig::small().build();
        let b = SynthConfig::small().build();
        assert_eq!(a.len(), b.len());
        for (da, db) in a.documents().iter().zip(b.documents()) {
            assert_eq!(da.tokens, db.tokens);
        }
    }

    #[test]
    fn corpus_has_requested_shape() {
        let config = SynthConfig::small();
        let corpus = config.build();
        assert_eq!(corpus.len(), 50);
        let stats = corpus.stats();
        assert!(stats.pos_per_cnode >= 40);
        assert!(stats.vocabulary <= 200 + 1);
    }

    #[test]
    fn planted_tokens_hit_their_statistics() {
        let config = SynthConfig::small().plant("needle", 0.5, 4);
        let corpus = config.build();
        let index = IndexBuilder::new().build(&corpus);
        let needle = corpus.token_id("needle").unwrap();
        let df = index.df(needle);
        // ~50% of 50 docs, 4 occurrences each.
        assert!((15..=35).contains(&df), "{df}");
        let mut cur = index.block_cursor(needle);
        while cur.next_entry().is_some() {
            assert_eq!(cur.tf(), 4);
        }
    }

    #[test]
    fn structure_ordinals_are_monotone() {
        let corpus = SynthConfig::small().build();
        for doc in corpus.documents() {
            for w in doc.tokens.windows(2) {
                assert!(w[0].1.offset < w[1].1.offset);
                assert!(w[0].1.sentence <= w[1].1.sentence);
                assert!(w[0].1.paragraph <= w[1].1.paragraph);
            }
        }
    }

    #[test]
    fn paragraphs_exist_in_longer_documents() {
        let corpus = SynthConfig::default().build();
        let doc = corpus.document(ftsl_model::NodeId(0));
        let max_para = doc.tokens.iter().map(|(_, p)| p.paragraph).max().unwrap();
        assert!(max_para >= 1, "expected multiple paragraphs");
    }
}
