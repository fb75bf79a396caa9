//! The persisted forms are pinned byte for byte: bare v7 index images and
//! v8 live manifests, each built from fixed input, hash to constants. One
//! image comes from a corpus large enough that its pair index is built as
//! first-token ranges on two cores; it hashes to what the one-range build
//! wrote. A change to how an index is built or held in memory must leave
//! every hash untouched, and decoding an image must give back the same pair
//! lists and the same resident pair bytes as the index that was encoded.

use ftsl::corpus::SynthConfig;
use ftsl::index::{manifest, persist, IndexBuilder, LiveConfig, LiveIndex, PairIndex, Snapshot};
use ftsl::model::TokenId;

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pair lists in key order, as `(a, b, entries)`.
type Lists = Vec<(TokenId, TokenId, Vec<(u32, u32)>)>;

/// Every pair list of `pairs`.
fn pair_lists(pairs: &PairIndex) -> Lists {
    pairs
        .iter()
        .map(|(a, b, list)| (a, b, list.to_entries()))
        .collect()
}

/// 300 documents of 50 Zipf tokens over 2 000 words: keys of one
/// document, keys of a few, and keys whose lists span several blocks.
fn synth_config() -> SynthConfig {
    SynthConfig {
        cnodes: 300,
        vocabulary: 2_000,
        tokens_per_doc: 50,
        ..SynthConfig::default()
    }
}

const INDEX_IMAGE_FNV: u64 = 0x6aa9_8053_e611_735d;
const MANIFEST_FNV: u64 = 0x23aa_7cdd_7655_656a;
const MERGED_MANIFEST_FNV: u64 = 0x1df6_4a3c_3803_c355;

#[test]
fn a_synthetic_index_image_is_pinned() {
    let corpus = synth_config().build();
    let index = IndexBuilder::new().build(&corpus);
    let pairs = index.pairs();
    let lists = pair_lists(pairs);
    assert!(lists.iter().any(|(_, _, l)| l.len() == 1));
    assert!(lists.iter().any(|(_, _, l)| l.len() > 128));
    let image = persist::encode(&index);
    assert_eq!(
        fnv1a(image.as_slice()),
        INDEX_IMAGE_FNV,
        "{} bytes",
        image.len()
    );
    let decoded = persist::decode(image.as_slice()).expect("the image decodes");
    assert_eq!(pair_lists(decoded.pairs()), lists);
    assert_eq!(decoded.pairs().resident_bytes(), pairs.resident_bytes());
    assert_eq!(persist::encode(&decoded).as_slice(), image.as_slice());
}

/// 1 200 documents of 60 Zipf tokens over 5 000 words: 72 000 occurrences,
/// enough that a build on more than one core cuts its pair index into two
/// first-token ranges built side by side.
fn split_config() -> SynthConfig {
    SynthConfig {
        cnodes: 1_200,
        vocabulary: 5_000,
        tokens_per_doc: 60,
        ..SynthConfig::default()
    }
}

/// The image of [`split_config`]'s index as one range builds it, before
/// pair builds were split.
const SPLIT_INDEX_IMAGE_FNV: u64 = 0xd2ea_c482_26b0_280f;

#[test]
fn an_index_image_built_in_ranges_is_pinned() {
    let corpus = split_config().build();
    let index = IndexBuilder::new().build(&corpus);
    let pairs = index.pairs();
    assert!(pairs.num_keys() > 100_000, "{} keys", pairs.num_keys());
    let image = persist::encode(&index);
    assert_eq!(
        fnv1a(image.as_slice()),
        SPLIT_INDEX_IMAGE_FNV,
        "{} bytes",
        image.len()
    );
    let decoded = persist::decode(image.as_slice()).expect("the image decodes");
    assert_eq!(pair_lists(decoded.pairs()), pair_lists(pairs));
    assert_eq!(decoded.pairs().resident_bytes(), pairs.resident_bytes());
}

/// Per segment of `snapshot`, its pair lists and resident pair bytes.
fn segment_pairs(snapshot: &Snapshot) -> Vec<(Lists, usize)> {
    snapshot
        .segments()
        .iter()
        .map(|s| {
            let pairs = s.data().index().pairs();
            (pair_lists(pairs), pairs.resident_bytes())
        })
        .collect()
}

#[test]
fn a_small_live_manifest_is_pinned() {
    let live = LiveIndex::with_config(LiveConfig {
        flush_threshold: 1_000,
        merge_fanin: 4,
        background_merge: false,
    });
    for round in 0..3u32 {
        for i in 0..20u32 {
            let words: Vec<String> = (0..12)
                .map(|j| format!("w{}", (i * 7 + j * 3 + round) % 17))
                .collect();
            live.add_document(&words.join(" "));
        }
        live.flush();
    }
    assert!(live.delete_node(ftsl::model::NodeId(5)));
    assert!(live.delete_node(ftsl::model::NodeId(33)));
    let image = manifest::encode(&live);
    assert_eq!(
        fnv1a(image.as_slice()),
        MANIFEST_FNV,
        "{} bytes",
        image.len()
    );
    let decoded = manifest::decode_with(
        image.as_slice(),
        LiveConfig {
            background_merge: false,
            ..LiveConfig::default()
        },
    )
    .expect("the manifest decodes");
    let (before, after) = (
        segment_pairs(&live.snapshot()),
        segment_pairs(&decoded.snapshot()),
    );
    assert_eq!(before.len(), 3);
    assert!(before.iter().all(|(lists, _)| !lists.is_empty()));
    assert_eq!(after, before);
    assert_eq!(manifest::encode(&decoded), image);
}

/// Document `i` of round `round`: twelve words over a 17-word vocabulary,
/// plus one word of its round only.
fn round_text(round: u32, i: u32) -> String {
    let mut words: Vec<String> = (0..12)
        .map(|j| format!("w{}", (i * 5 + j * 7 + round) % 17))
        .collect();
    words.push(format!("r{round}x{}", i % 3));
    words.join(" ")
}

#[test]
fn a_merged_live_manifest_is_pinned() {
    let live = LiveIndex::with_config(LiveConfig {
        flush_threshold: 1_000,
        merge_fanin: 4,
        background_merge: false,
    });
    // Two reads between adds leave two view chunks; the flush seals the
    // whole buffer as one segment.
    for i in 0..30u32 {
        live.add_document(&round_text(0, i));
        if i == 9 || i == 19 {
            assert_eq!(live.snapshot().num_segments(), 1 + i as usize / 10);
        }
    }
    live.flush();
    for i in 0..25u32 {
        live.add_document(&round_text(1, i));
    }
    live.flush();
    for node in [3u32, 11, 12, 29, 40] {
        assert!(live.delete_node(ftsl::model::NodeId(node)));
    }
    assert!(live.merge_all());
    assert_eq!(live.segment_count(), 1);
    let image = manifest::encode(&live);
    assert_eq!(
        fnv1a(image.as_slice()),
        MERGED_MANIFEST_FNV,
        "{} bytes",
        image.len()
    );
}
