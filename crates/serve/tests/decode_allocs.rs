//! A corrupt image is refused within an allocation bound: whatever bytes
//! [`persist::decode`] or [`manifest::decode_with`] is handed, it returns
//! without panicking, and the decoding thread's live bytes never rise more
//! than [`PER_INPUT_BYTE`] bytes per input byte plus [`FIXED`] above where
//! they started. Decode runs on the calling thread, so that thread's
//! counters ([`ftsl_serve::CountingAlloc`]) see all of it.
//!
//! Each case mutates a valid image once: a truncation at any offset, one
//! 4-aligned `u32` set to 0, 1, `u32::MAX` or a random value, or one byte
//! XORed with a non-zero mask. A case that panics or breaks the bound is a
//! decoder bug.

use ftsl_index::{manifest, persist, IndexBuilder, LiveConfig, LiveIndex};
use ftsl_model::{Corpus, NodeId};
use ftsl_serve::{reset_thread_peak, thread_live_bytes, thread_peak_bytes, CountingAlloc};
use ftsl_testkit::prop_cases;
use proptest::prelude::*;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most one input byte can make the decoder reserve. Every count is
/// bounded by the bytes left before it sizes anything, so what each part
/// of an image reserves is a multiple of the bytes that part takes:
///
/// * a pair coverage bitmap byte spans 8 tokens, each a row of both key
///   tables' CSR starts, at most 32 bits wide, beside the bitmap's own
///   copy: 8 × 2 × 4 + 1 = 65, the largest;
/// * a pair list record: the one reused entries buffer holds 8 bytes per
///   entry, at most twice what it needs, and the densest record that
///   checks out (128 consecutive nodes at gap 1) takes 38 bytes, so
///   2 × 8 × 128 / 38 < 54, with under 2 more for the key, its block
///   headers and its stream in the arena;
/// * a posting list record: its head, headers and bytes, under 3;
/// * a manifest document (at least 12 bytes): its global id, its wire
///   record and its `Document` in doubling vectors, 156 bytes, under 14,
///   and its tokens, 1; a vocabulary name (at least 5 bytes): under 40
///   bytes of interner tables, 8.
const PER_INPUT_BYTE: i64 = 65;

/// What a decode reserves whatever its input: the fixed-size parts of an
/// index or a live index.
const FIXED: i64 = 16 << 10;

/// A 24-document index with pairs: 20-word documents over 30 words, so
/// every word clears the pair index's document-frequency cutoff.
fn index_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let corpus = Corpus::from_texts(&texts(0, 24));
        let index = IndexBuilder::new().build(&corpus);
        assert!(index.pairs().num_keys() > 200);
        persist::encode(&index)
    })
}

/// A manifest of three 10-document segments with tombstones in each.
fn manifest_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let live = LiveIndex::with_config(no_merges());
        for round in 0..3 {
            for text in texts(round, 10) {
                live.add_document(&text);
            }
            live.flush();
        }
        for node in [2, 11, 15, 27] {
            assert!(live.delete_node(NodeId(node)));
        }
        let snapshot = live.snapshot();
        assert_eq!(snapshot.num_segments(), 3);
        assert!(snapshot
            .segments()
            .iter()
            .all(|s| s.deletes().deleted_count() > 0));
        manifest::encode(&live)
    })
}

fn no_merges() -> LiveConfig {
    LiveConfig {
        background_merge: false,
        ..LiveConfig::default()
    }
}

/// `docs` texts of 20 words over 30, from a generator seeded by `seed`.
fn texts(seed: u64, docs: usize) -> Vec<String> {
    let mut state = 0x2545_f491_4f6c_dd1d ^ seed;
    (0..docs)
        .map(|_| {
            (0..20)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    format!("w{}", state % 30)
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// One mutation, applied at an offset drawn from a `u64`.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    Truncate,
    Word(u32),
    Flip(u8),
}

fn arb_mutation() -> impl Strategy<Value = (Mutation, u64)> {
    let word = prop_oneof![Just(0u32), Just(1), Just(u32::MAX), any::<u32>()];
    let mutation = prop_oneof![
        Just(Mutation::Truncate),
        word.prop_map(Mutation::Word),
        (1u16..256).prop_map(|mask| Mutation::Flip(mask as u8)),
    ];
    (mutation, any::<u64>())
}

fn mutate(image: &[u8], (mutation, at): (Mutation, u64)) -> Vec<u8> {
    let mut raw = image.to_vec();
    match mutation {
        Mutation::Truncate => raw.truncate((at % (raw.len() as u64 + 1)) as usize),
        Mutation::Word(word) => {
            let at = (at % (raw.len() as u64 / 4)) as usize * 4;
            raw[at..at + 4].copy_from_slice(&word.to_le_bytes());
        }
        Mutation::Flip(mask) => {
            let at = (at % raw.len() as u64) as usize;
            raw[at] ^= mask;
        }
    }
    raw
}

/// Run `decode` over `raw`, assert the thread's live bytes stayed within
/// the bound for `raw.len()` input bytes, and return whether it decoded.
fn decode_bounded(raw: &[u8], decode: impl FnOnce(&[u8]) -> bool) -> bool {
    let before = thread_live_bytes();
    reset_thread_peak();
    let decoded = decode(raw);
    let peak = thread_peak_bytes() - before;
    let bound = PER_INPUT_BYTE * raw.len() as i64 + FIXED;
    assert!(
        peak <= bound,
        "{} input bytes (decoded: {decoded}) raised live bytes by {peak}, over {bound}",
        raw.len()
    );
    decoded
}

#[test]
fn valid_images_decode_within_the_bound() {
    assert!(decode_bounded(index_image(), |raw| persist::decode(raw).is_ok()));
    assert!(decode_bounded(manifest_image(), |raw| {
        manifest::decode_with(raw, no_merges()).is_ok()
    }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(prop_cases(256)))]

    #[test]
    fn a_mutated_index_image_is_refused_within_the_bound(mutation in arb_mutation()) {
        let raw = mutate(index_image(), mutation);
        decode_bounded(&raw, |raw| persist::decode(raw).is_ok());
    }

    #[test]
    fn a_mutated_manifest_is_refused_within_the_bound(mutation in arb_mutation()) {
        let raw = mutate(manifest_image(), mutation);
        decode_bounded(&raw, |raw| manifest::decode_with(raw, no_merges()).is_ok());
    }
}
