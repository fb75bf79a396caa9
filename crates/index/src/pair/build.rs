//! The pair build behind every seal, flush and merge: see the module docs
//! of [`crate::pair`], "Building".

use super::{ArenaShape, PairArenaWriter, PairConfig, PairIndex};
use crate::bitpack;
use crate::bitrows::BitRows;
use crate::local::LocalTokens;
use ftsl_model::Document;

impl PairIndex {
    /// [`Self::build`] over the documents' local token ids, with `dfs[i]`
    /// the document frequency of `tokens.used[i]`, for a `vocab`-wide
    /// coverage bitmap. A token the documents never use costs its coverage
    /// bit and its CSR slots, both filled in bulk, and nothing else.
    pub(crate) fn build_local(
        docs: &[Document],
        tokens: LocalTokens,
        dfs: &[u32],
        vocab: usize,
        config: PairConfig,
    ) -> PairIndex {
        if config.window == 0 {
            return PairIndex::default();
        }
        let coverage = Coverage::of(&tokens, dfs, vocab, config.df_cutoff);
        let fields = Fields::of(docs, coverage.ids.len(), config.window);
        if fields.fit(u64::BITS) {
            build_arena::<u64>(docs, tokens, coverage, config, fields)
        } else {
            build_arena::<u128>(docs, tokens, coverage, config, fields)
        }
    }
}

/// A build's covered tokens, numbered densely in token order.
struct Coverage {
    /// The coverage bitmap the index keeps: bit `t` is set iff `df(t)` is
    /// at least the cutoff.
    frequent: BitRows<1>,
    /// Per local id, its token's number among the covered tokens, or
    /// [`NOT_COVERED`].
    number: Vec<u32>,
    /// The covered token ids, ascending: `ids[c]` is number `c`.
    ids: Vec<u32>,
}

/// [`Coverage::number`] of a token below the df cutoff.
const NOT_COVERED: u32 = u32::MAX;

impl Coverage {
    /// The tokens of `tokens` with `dfs[i]` (of `tokens.used[i]`) at least
    /// `cutoff`, over a `vocab`-wide bitmap. A token the documents never
    /// use has df 0, so it is covered iff the cutoff is 0.
    fn of(tokens: &LocalTokens, dfs: &[u32], vocab: usize, cutoff: u32) -> Coverage {
        let mut coverage = Coverage {
            frequent: BitRows::with_capacity([1], vocab),
            number: vec![NOT_COVERED; tokens.len()],
            ids: Vec::new(),
        };
        (coverage.frequent)
            .extend_to(vocab, [u32::from(cutoff == 0)])
            .expect("a flag fits one bit");
        for (&(token, local), &df) in tokens.used.iter().zip(dfs) {
            if df >= cutoff {
                coverage.frequent.set(token as usize, 0, 1);
                coverage.number[local as usize] = coverage.ids.len() as u32;
                coverage.ids.push(token);
            }
        }
        coverage
    }
}

/// [`PairIndex::build_local`] over postings packed into `W` words.
///
/// The document pass ([`DocPass`]) keeps one posting per document and
/// covered key, with the key's minimum gap there, in document order. A
/// posting names its tokens by their [`Coverage`] numbers, which follow
/// token order, so the grouping below costs the covered tokens rather than
/// the vocabulary. Two stable counting passes then group the postings by
/// key: by second token, then by first, adding each key's run to the
/// arena's shape as it closes. Each pass keeps the order it is given, so
/// every key's run comes out in node order and is appended to the arena as
/// it stands. Only two posting buffers are allocated: the document pass's,
/// which the by-first pass refills, and the by-second pass's, sized
/// exactly.
fn build_arena<W: Word>(
    docs: &[Document],
    tokens: LocalTokens,
    coverage: Coverage,
    config: PairConfig,
    fields: Fields,
) -> PairIndex {
    debug_assert!(docs.windows(2).all(|w| w[0].node < w[1].node));
    // `(a, b, gap − 1)` while a posting's node is its document's.
    let in_doc = Layout {
        mid: fields.token,
        lo: fields.gap,
    };
    // `(token, node, gap − 1)` once a token is implied by the bucket.
    let in_bucket = Layout {
        mid: fields.node,
        lo: fields.gap,
    };
    let width = coverage.ids.len();
    let mut pass = DocPass::<W>::new(width, in_doc, config.window);
    for (doc, locals) in tokens.per_doc(docs) {
        pass.document(doc, locals, &coverage.number);
    }
    let DocPass {
        postings,
        doc_ends,
        mut firsts,
        mut seconds,
        ..
    } = pass;
    // The local ids are spent: free them before the grouping buffers peak.
    drop((tokens, coverage.number));

    // By second token; the node comes from the document.
    let mut by_second = vec![W::ZERO; postings.len()];
    bucket_starts(&mut seconds);
    let mut start = 0;
    for &(node, end) in &doc_ends {
        for &posting in &postings[start..end] {
            let (a, b, gap) = posting.unpack(in_doc);
            let slot = &mut seconds[b as usize];
            by_second[*slot as usize] = W::pack(a, node, gap, in_bucket);
            *slot += 1;
        }
        start = end;
    }
    // Documents are in node order: the last with a posting has the largest
    // node of any entry.
    let max_node = doc_ends.last().map_or(0, |&(node, _)| node);
    drop(doc_ends);

    // By first token; the second comes from the bucket. `seconds[b]` is now
    // where bucket `b` ends. A key is a run of one second token inside its
    // first token's bucket: `open[a]` is the run of `a` being filled, which
    // closes when bucket `b` moves on. The pass writes every slot, so the
    // spent postings' buffer holds it: no fresh buffer is allocated and
    // zeroed.
    let mut grouped = postings;
    bucket_starts(&mut firsts);
    let mut shape = ArenaShape {
        max_node,
        ..ArenaShape::default()
    };
    let mut open = vec![OpenRun::default(); width];
    for (b, bucket) in buckets(&by_second, &seconds).enumerate() {
        let b = b as u32 + 1;
        for &posting in bucket {
            let (a, node, gap) = posting.unpack(in_bucket);
            let slot = &mut firsts[a as usize];
            grouped[*slot as usize] = W::pack(b - 1, node, gap, in_bucket);
            *slot += 1;
            let run = &mut open[a as usize];
            if run.second == b {
                run.len += 1;
            } else {
                if run.second != 0 {
                    shape.add(run.len as usize, run.gap + 1);
                }
                *run = OpenRun {
                    second: b,
                    len: 1,
                    gap,
                };
            }
        }
    }
    for run in open.iter().filter(|run| run.second != 0) {
        shape.add(run.len as usize, run.gap + 1);
    }
    drop((open, by_second, seconds));

    // `firsts[a]` is now where bucket `a` ends; inside it, each run of one
    // second token is one key.
    let ids = coverage.ids;
    let mut arena = PairArenaWriter::with_shape(config, coverage.frequent, shape);
    let mut list: Vec<(u32, u32)> = Vec::new();
    for (&a, bucket) in ids.iter().zip(buckets(&grouped, &firsts)) {
        for run in bucket.chunk_by(|x, y| x.unpack(in_bucket).0 == y.unpack(in_bucket).0) {
            list.clear();
            list.extend(run.iter().map(|posting| {
                let (_, node, gap) = posting.unpack(in_bucket);
                (node, gap + 1)
            }));
            let b = run[0].unpack(in_bucket).0;
            arena
                .append(a, ids[b as usize], &list)
                .expect("built lists are non-empty and fit u32 offsets");
        }
    }
    arena
        .finish()
        .expect("the arena holds the shape it was made for")
}

/// The run of one first token being filled by the by-first pass: its
/// second token plus one (0 before any), entries so far and first gap − 1.
#[derive(Clone, Copy, Default)]
struct OpenRun {
    second: u32,
    len: u32,
    gap: u32,
}

/// The per-document half of the build: one posting per document and key,
/// holding the key's minimum gap there, found without hashing.
///
/// A document's occurrences are walked grouped by token: a backward walk
/// links each occurrence of a covered token to the next one (`next`), and
/// ends with `first[c]` on token `c`'s first occurrence, from which a group
/// follows the chain. Inside one group, the other token's slot in `keys` is
/// stamped with the group, so a second occurrence of the same key finds its
/// posting there. Moving on to the next document or group clears nothing.
struct DocPass<W> {
    postings: Vec<W>,
    /// `(node, end)`: the postings of each document that has any.
    doc_ends: Vec<(u32, usize)>,
    /// Postings per first and per second covered number.
    firsts: Vec<u32>,
    seconds: Vec<u32>,
    layout: Layout,
    window: u32,
    /// The current document's covered number per occurrence.
    cover: Vec<u32>,
    /// Per occurrence of the current document, the next occurrence of its
    /// token, or [`NO_NEXT`].
    next: Vec<u32>,
    /// Per covered number, its first occurrence in the document stamped
    /// `doc`.
    first: Vec<Stamped>,
    /// Per covered number as the other token of a key, its posting in the
    /// group stamped `group`.
    keys: Vec<Stamped>,
    doc: u32,
    group: u32,
}

/// [`DocPass::next`] of a token's last occurrence.
const NO_NEXT: u32 = u32::MAX;

/// A slot valid while its stamp is the current one.
#[derive(Clone, Copy, Default)]
struct Stamped {
    stamp: u32,
    at: u32,
}

/// The next stamp after `stamp` for `slots`; on wrapping around to the
/// stamp fresh slots carry, every slot is reset first.
fn next_stamp(stamp: &mut u32, slots: &mut [Stamped]) -> u32 {
    *stamp = stamp.wrapping_add(1);
    if *stamp == 0 {
        slots.fill(Stamped::default());
        *stamp = 1;
    }
    *stamp
}

impl<W: Word> DocPass<W> {
    fn new(width: usize, layout: Layout, window: u32) -> Self {
        DocPass {
            postings: Vec::new(),
            doc_ends: Vec::new(),
            firsts: vec![0; width],
            seconds: vec![0; width],
            layout,
            window,
            cover: Vec::new(),
            next: Vec::new(),
            first: vec![Stamped::default(); width],
            keys: vec![Stamped::default(); width],
            doc: 0,
            group: 0,
        }
    }

    /// Keep the postings of `doc`, with `locals` its local ids and `number`
    /// their covered numbers.
    ///
    /// Each group walks the occurrences of one token, scans forward from
    /// each within the window, and keeps the keys its token is first in.
    fn document(&mut self, doc: &Document, locals: &[u32], number: &[u32]) {
        let toks = &doc.tokens;
        let DocPass {
            postings,
            doc_ends,
            firsts,
            seconds,
            layout,
            window,
            cover,
            next,
            first,
            keys,
            doc: doc_stamp,
            group,
        } = self;
        let start = postings.len();
        cover.clear();
        cover.extend(locals.iter().map(|&l| number[l as usize]));
        let stamp = next_stamp(doc_stamp, first);
        next.clear();
        next.resize(toks.len(), NO_NEXT);
        for (i, &c) in cover.iter().enumerate().rev() {
            if c == NOT_COVERED {
                continue;
            }
            let slot = &mut first[c as usize];
            if slot.stamp == stamp {
                next[i] = slot.at;
            }
            *slot = Stamped {
                stamp,
                at: i as u32,
            };
        }
        for (i, &c) in cover.iter().enumerate() {
            if c == NOT_COVERED || first[c as usize].at != i as u32 {
                continue;
            }
            let g = next_stamp(group, keys);
            let mut j = i;
            loop {
                let pa = toks[j].1.offset;
                for (&(_, pb), &cb) in toks[j + 1..].iter().zip(&cover[j + 1..]) {
                    let gap = pb.offset - pa;
                    if gap > *window {
                        break; // offsets are strictly increasing
                    }
                    if cb == NOT_COVERED {
                        continue;
                    }
                    let posting = W::pack(c, cb, gap - 1, *layout);
                    let slot = &mut keys[cb as usize];
                    if slot.stamp == g {
                        // Same key, so the smaller word holds the smaller gap.
                        let kept = &mut postings[slot.at as usize];
                        *kept = (*kept).min(posting);
                    } else {
                        let at = u32::try_from(postings.len())
                            .expect("pair postings exceed u32 offsets");
                        *slot = Stamped { stamp: g, at };
                        postings.push(posting);
                        firsts[c as usize] += 1;
                        seconds[cb as usize] += 1;
                    }
                }
                if next[j] == NO_NEXT {
                    break;
                }
                j = next[j] as usize;
            }
        }
        if postings.len() > start {
            doc_ends.push((doc.node.0, postings.len()));
        }
    }
}

/// Turn per-token counts into each token's first slot (exclusive prefix
/// sums). Once every posting has been placed, entry `t` is where token
/// `t`'s bucket ends. Tokens here are [`Coverage`] numbers.
fn bucket_starts(counts: &mut [u32]) {
    let mut sum = 0;
    for count in counts {
        let n = *count;
        *count = sum;
        sum += n;
    }
}

/// The buckets of `postings`, one per token, given where each one ends.
fn buckets<'a, W>(postings: &'a [W], ends: &'a [u32]) -> impl Iterator<Item = &'a [W]> + 'a {
    ends.iter().scan(0, move |start, &end| {
        let bucket = &postings[*start as usize..end as usize];
        *start = end;
        Some(bucket)
    })
}

/// Bit widths of the fields a posting is packed into while the build
/// groups it, each that of the largest value this build can hold.
#[derive(Clone, Copy, Debug)]
struct Fields {
    token: u32,
    node: u32,
    /// Of `gap − 1`.
    gap: u32,
}

impl Fields {
    /// The widths for `docs` with `tokens` covered tokens.
    fn of(docs: &[Document], tokens: usize, window: u32) -> Fields {
        let width = |max: u32| u32::from(bitpack::width_for(max));
        // No gap is wider than the widest document.
        let span = docs
            .iter()
            .filter_map(|d| Some(d.tokens.last()?.1.offset - d.tokens.first()?.1.offset))
            .max()
            .unwrap_or(0);
        Fields {
            token: width(u32::try_from(tokens.saturating_sub(1)).unwrap_or(u32::MAX)),
            node: width(docs.iter().map(|d| d.node.0).max().unwrap_or(0)),
            gap: width(window.min(span).saturating_sub(1)),
        }
    }

    /// Whether both layouts fit strictly below the top of a `bits`-wide
    /// word (so no shift is as wide as the word).
    fn fit(self, bits: u32) -> bool {
        self.token + self.token.max(self.node) + self.gap < bits
    }
}

/// Where the two low fields of a [`Word`] sit: `(hi, mid, lo)`, high bits
/// to low, with `mid` and `lo` this many bits wide.
#[derive(Clone, Copy, Debug)]
struct Layout {
    mid: u32,
    lo: u32,
}

/// An unsigned word holding one posting as three packed fields. Two words
/// with equal `hi` and `mid` compare as their `lo` fields do.
trait Word: Copy + Ord {
    const ZERO: Self;
    fn pack(hi: u32, mid: u32, lo: u32, layout: Layout) -> Self;
    fn unpack(self, layout: Layout) -> (u32, u32, u32);
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const ZERO: Self = 0;

            #[inline]
            fn pack(hi: u32, mid: u32, lo: u32, layout: Layout) -> Self {
                (<$t>::from(hi) << (layout.mid + layout.lo))
                    | (<$t>::from(mid) << layout.lo)
                    | <$t>::from(lo)
            }

            #[inline]
            fn unpack(self, layout: Layout) -> (u32, u32, u32) {
                let low = |word: $t, bits: u32| (word & ((1 << bits) - 1)) as u32;
                (
                    (self >> (layout.mid + layout.lo)) as u32,
                    low(self >> layout.lo, layout.mid),
                    low(self, layout.lo),
                )
            }
        }
    )*};
}

impl_word!(u64, u128);

/// [`PairIndex::build`] with `u128` posting words when `wide`, though
/// `u64` ones fit: the check that both words build the same arena.
/// `dfs[t]` is the document frequency of token `t`.
#[cfg(test)]
pub(super) fn build_with_words(
    docs: &[Document],
    dfs: &[u32],
    config: PairConfig,
    wide: bool,
) -> PairIndex {
    let tokens = LocalTokens::of(docs);
    let used: Vec<u32> = tokens.used.iter().map(|&(t, _)| dfs[t as usize]).collect();
    let coverage = Coverage::of(&tokens, &used, dfs.len(), config.df_cutoff);
    let fields = Fields::of(docs, coverage.ids.len(), config.window);
    assert!(fields.fit(u64::BITS));
    if wide {
        build_arena::<u128>(docs, tokens, coverage, config, fields)
    } else {
        build_arena::<u64>(docs, tokens, coverage, config, fields)
    }
}
