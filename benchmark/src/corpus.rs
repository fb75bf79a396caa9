//! Seeded collections: Zipf background text with sentence and paragraph
//! marks, plus optional planted tokens (the paper's `q0..` query tokens).
//!
//! Documents are plain text — the system tokenizes them itself through
//! `LiveFtsl::add` — and the generator keeps the token ids it drew, so the
//! query generator can pick tokens by document frequency and real
//! co-occurrences without asking the system under test.

use crate::rng::{Rng, Zipf};
use crate::sizes::CorpusShape;

pub struct Corpus {
    pub texts: Vec<String>,
    /// Token ids of every document, in text order. Ids below the shape's
    /// vocabulary are background `t<i>`; the rest are planted `q<i>`.
    pub tokens: Vec<Vec<u32>>,
    /// Document frequency per token id.
    pub df: Vec<u32>,
    vocabulary: usize,
}

impl Corpus {
    pub fn generate(shape: &CorpusShape, rng: &mut Rng) -> Corpus {
        let zipf = Zipf::new(shape.vocabulary, shape.zipf_exponent, 0.0);
        let (planted, _, occurrences) = shape.planted;
        let mut texts = Vec::with_capacity(shape.docs);
        let mut tokens = Vec::with_capacity(shape.docs);
        let mut df = vec![0u32; shape.vocabulary + planted];
        let mut seen = vec![usize::MAX; shape.vocabulary + planted];
        let holders = planted_holders(shape, rng);
        for (doc, &held) in holders.iter().enumerate() {
            // Slots (background positions) before which a planted token goes.
            let mut slots: Vec<(usize, u32)> = Vec::new();
            for p in 0..planted {
                if held & (1 << p) != 0 {
                    for _ in 0..occurrences {
                        slots.push((
                            rng.below(shape.tokens_per_doc),
                            (shape.vocabulary + p) as u32,
                        ));
                    }
                }
            }
            slots.sort_unstable();
            let mut slots = slots.into_iter().peekable();
            let mut ids = Vec::with_capacity(shape.tokens_per_doc + planted * occurrences);
            let mut text = String::with_capacity(shape.tokens_per_doc * 6);
            let (mut in_sentence, mut in_para) = (0, 0);
            for slot in 0..shape.tokens_per_doc {
                while let Some((_, id)) = slots.next_if(|&(s, _)| s <= slot) {
                    ids.push(id);
                    push_token(&mut text, id, shape.vocabulary);
                    text.push(' ');
                }
                let id = zipf.sample(rng) as u32;
                ids.push(id);
                push_token(&mut text, id, shape.vocabulary);
                in_sentence += 1;
                if in_sentence == shape.sentence_len {
                    in_sentence = 0;
                    in_para += 1;
                    if in_para == shape.sentences_per_para {
                        in_para = 0;
                        text.push_str(".\n\n");
                    } else {
                        text.push_str(". ");
                    }
                } else {
                    text.push(' ');
                }
            }
            for &id in &ids {
                if seen[id as usize] != doc {
                    seen[id as usize] = doc;
                    df[id as usize] += 1;
                }
            }
            texts.push(text);
            tokens.push(ids);
        }
        Corpus {
            texts,
            tokens,
            df,
            vocabulary: shape.vocabulary,
        }
    }

    pub fn token_name(&self, id: u32) -> String {
        let mut s = String::new();
        push_token(&mut s, id, self.vocabulary);
        s
    }

    /// Names of the planted tokens, `q0..`.
    pub fn planted_names(&self) -> Vec<String> {
        (self.vocabulary..self.df.len())
            .map(|id| self.token_name(id as u32))
            .collect()
    }

    pub fn text_bytes(&self) -> usize {
        self.texts.iter().map(String::len).sum()
    }

    /// Token ids that occur at all, most frequent first (ties by id, so the
    /// order is a function of the seed alone).
    pub fn by_frequency(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.df.len() as u32)
            .filter(|&id| self.df[id as usize] > 0)
            .collect();
        ids.sort_by_key(|&id| (std::cmp::Reverse(self.df[id as usize]), id));
        ids
    }
}

/// Which planted tokens each document holds, as a bit set per document.
///
/// Tokens are independent at the shape's share, but the *counts* are exact:
/// every combination of tokens gets its expected number of documents
/// (largest remainders first), and only which documents they are is left
/// to the seed. Drawing each membership by chance would let the number of
/// documents holding all of three or four tokens — which is what a COMP
/// query pays for — swing by ±15 % from seed to seed.
fn planted_holders(shape: &CorpusShape, rng: &mut Rng) -> Vec<u32> {
    let (planted, fraction, _) = shape.planted;
    assert!(planted < 16, "planted token sets are small");
    let mut shares: Vec<(u32, f64)> = (0..1u32 << planted)
        .map(|set| {
            let held = set.count_ones() as i32;
            let p = fraction.powi(held) * (1.0 - fraction).powi(planted as i32 - held);
            (set, p * shape.docs as f64)
        })
        .collect();
    let mut holders: Vec<u32> = Vec::with_capacity(shape.docs);
    for &(set, expected) in &shares {
        holders.extend(std::iter::repeat_n(set, expected.floor() as usize));
    }
    shares.sort_by(|a, b| (b.1.fract()).total_cmp(&a.1.fract()).then(a.0.cmp(&b.0)));
    let missing = shape.docs - holders.len();
    holders.extend(shares.iter().take(missing).map(|s| s.0));
    rng.shuffle(&mut holders);
    holders
}

fn push_token(text: &mut String, id: u32, vocabulary: usize) {
    use std::fmt::Write as _;
    let _ = if (id as usize) < vocabulary {
        write!(text, "t{id}")
    } else {
        write!(text, "q{}", id as usize - vocabulary)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> CorpusShape {
        CorpusShape {
            docs: 200,
            tokens_per_doc: 40,
            vocabulary: 300,
            zipf_exponent: 1.0,
            sentence_len: 10,
            sentences_per_para: 2,
            planted: (2, 0.5, 3),
        }
    }

    #[test]
    fn generation_is_a_function_of_the_seed() {
        let a = Corpus::generate(&shape(), &mut Rng::new(9));
        let b = Corpus::generate(&shape(), &mut Rng::new(9));
        let c = Corpus::generate(&shape(), &mut Rng::new(10));
        assert_eq!(a.texts, b.texts);
        assert_ne!(a.texts, c.texts);
    }

    #[test]
    fn text_matches_the_recorded_tokens_and_planting_hits_its_share() {
        let c = Corpus::generate(&shape(), &mut Rng::new(1));
        for (text, ids) in c.texts.iter().zip(&c.tokens) {
            let words: Vec<String> = text
                .split(|ch: char| !ch.is_alphanumeric())
                .filter(|w| !w.is_empty())
                .map(str::to_string)
                .collect();
            let names: Vec<String> = ids.iter().map(|&id| c.token_name(id)).collect();
            assert_eq!(words, names);
        }
        assert!(c.texts[0].contains(". ") && c.texts[0].contains(".\n\n"));
        assert_eq!(c.planted_names(), vec!["q0", "q1"]);
        // Exactly half of 200 documents hold each planted token, and
        // exactly a quarter hold both, whatever the seed.
        for seed in [1, 2] {
            let c = Corpus::generate(&shape(), &mut Rng::new(seed));
            assert_eq!((c.df[300], c.df[301]), (100, 100));
            let both = c
                .tokens
                .iter()
                .filter(|t| t.contains(&300) && t.contains(&301))
                .count();
            assert_eq!(both, 50);
        }
        let order = c.by_frequency();
        assert!(order
            .windows(2)
            .all(|w| c.df[w[0] as usize] >= c.df[w[1] as usize]));
        assert!(c.text_bytes() > 200 * 40 * 2);
    }
}
