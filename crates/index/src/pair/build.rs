//! The pair build behind every seal, flush and merge: see the module docs
//! of [`crate::pair`], "Building".

use super::{is_inline, ArenaShape, Blocks, KeyTables, PairArenaWriter, PairConfig, PairIndex};
use crate::bitpack;
use crate::bitrows::BitRows;
use crate::local::LocalTokens;
use ftsl_model::Document;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Occurrences each range of a build is given at least: a build of fewer
/// than twice this many runs as one range, on the calling thread. A scoped
/// thread costs 40–60 µs to spawn and join on a 2-vCPU virtual machine,
/// and a split build spawns one per range past the first to group, then
/// one to write the arena. Over Zipf documents of 100 words on that
/// machine, two ranges built the pair index of 1 600 occurrences as fast
/// as one range, of 3 200 occurrences 9–15 % faster, and of 4 800
/// occurrences 25–28 % faster.
const RANGE_OCCURRENCES: usize = 2_048;

/// The most ranges a build runs as: two, the only count whose time,
/// allocations and peak have been measured (on 2 vCPUs). Each range
/// allocates a dozen buffers of its own, two of them as wide as the
/// covered tokens, and walks every document, so a machine with more cores
/// must time and size its builds before this grows.
const MAX_RANGES: usize = 2;

/// How many first-token ranges a build of `occurrences` token occurrences
/// runs as: one per core, up to one per [`RANGE_OCCURRENCES`] and to
/// [`MAX_RANGES`]. The cores are counted once, by the first build that
/// could split.
fn ranges_for(occurrences: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let most = occurrences / RANGE_OCCURRENCES;
    if most < 2 {
        return 1;
    }
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    most.min(cores).min(MAX_RANGES)
}

/// Postings each range of a split build makes room for per occurrence of
/// its first tokens, at most: 100-word Zipf documents give about 11 at the
/// default window of 16. Grown by doubling from empty, a range's postings
/// are reallocated some 18 times, and a split build would pay that once
/// per range. A build of one range grows its postings as it goes: making
/// room up front slowed a 32-document seal by 15 %.
const POSTINGS_PER_OCCURRENCE: u32 = 8;

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
        Self::build_in(docs, tokens, dfs, vocab, config, ranges_for)
    }

    /// [`Self::build_local`] as `ranges(occurrences)` first-token ranges.
    fn build_in(
        docs: &[Document],
        tokens: LocalTokens,
        dfs: &[u32],
        vocab: usize,
        config: PairConfig,
        ranges: impl FnOnce(usize) -> usize,
    ) -> PairIndex {
        if config.window == 0 {
            return PairIndex::default();
        }
        let ranges = ranges(tokens.locals.len());
        let coverage = Coverage::of(&tokens, dfs, vocab, config.df_cutoff);
        let fields = Fields::of(docs, coverage.ids.len(), config.window);
        if fields.fit(u64::BITS) {
            build_arena::<u64>(docs, tokens, coverage, config, fields, ranges)
        } else {
            build_arena::<u128>(docs, tokens, coverage, config, fields, ranges)
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

    /// `parts` contiguous ranges of covered numbers, in order, holding
    /// about as many occurrences each, and each one's occurrences: range
    /// `k` ends at the first number with `k + 1` parts in `parts` of the
    /// occurrences before it. One pass over the occurrences; a range may be
    /// empty.
    fn ranges(&self, tokens: &LocalTokens, parts: usize) -> Vec<(Range<u32>, u64)> {
        let width = self.ids.len() as u32;
        if parts == 1 {
            return vec![(0..width, tokens.locals.len() as u64)];
        }
        let mut counts = vec![0u64; self.ids.len()];
        for &local in &tokens.locals {
            if let Some(count) = counts.get_mut(self.number[local as usize] as usize) {
                *count += 1;
            }
        }
        let total = counts.iter().sum::<u64>();
        let mut ranges = Vec::with_capacity(parts);
        // The first number of the open range, and the occurrences before it.
        let (mut start, mut from, mut seen) = (0, 0, 0);
        for (c, &count) in (0..).zip(&counts) {
            while ranges.len() + 1 < parts
                && seen * parts as u64 >= total * (ranges.len() as u64 + 1)
            {
                ranges.push((start..c, seen - from));
                (start, from) = (c, seen);
            }
            seen += count;
        }
        ranges.push((start..width, total - from));
        ranges.resize(parts, (width..width, 0));
        ranges
    }
}

/// Run `work` on every item, on the calling thread and on one scoped
/// thread per other item, each thread taking the next item no thread has
/// taken yet; the results come back in item order. A thread that starts
/// late, when another process holds the other core, finds the work done.
fn on_threads<T: Send, U: Send>(items: Vec<T>, work: impl Fn(T) -> U + Sync) -> Vec<U> {
    fn lock<S>(slot: &Mutex<S>) -> MutexGuard<'_, S> {
        slot.lock().expect("no thread panics holding a slot")
    }
    let slots: Vec<_> = (items.into_iter())
        .map(|item| Mutex::new((Some(item), None)))
        .collect();
    // The items and results pass between threads through their slots'
    // mutexes; the counter only hands out indices.
    let next = AtomicUsize::new(0);
    let take = || {
        while let Some(slot) = slots.get(next.fetch_add(1, Relaxed)) {
            let item = lock(slot).0.take().expect("each item is taken once");
            let done = work(item);
            lock(slot).1 = Some(done);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..slots.len() {
            scope.spawn(take);
        }
        take();
    });
    (slots.into_iter())
        .map(|slot| {
            let (_, done) = slot.into_inner().expect("no thread panics holding a slot");
            done.expect("every item ran")
        })
        .collect()
}

/// [`PairIndex::build_local`] over postings packed into `W` words, as
/// `parts` first-token ranges.
///
/// Each range groups the keys whose first token is in it, which are
/// contiguous in key order, on a thread of its own ([`Grouped::of`]). Its
/// document pass ([`DocPass`]) keeps one posting per document and key, with
/// the key's minimum gap there, in document order. A posting names its
/// tokens by their [`Coverage`] numbers, which follow token order, so the
/// grouping costs the covered tokens rather than the vocabulary. Two stable
/// counting passes then group the range's postings by key: by second token,
/// then by first, adding each key's run to the range's shape as it closes.
/// Each pass keeps the order it is given, so every key's run comes out in
/// node order. Only two posting buffers are allocated per range: the
/// document pass's, which the by-first pass refills, and the by-second
/// pass's, sized exactly.
///
/// The ranges' shapes sum to the arena's, which fixes every row width.
/// The arena's two halves, its key tables and its blocks with their data
/// ([`PairArenaWriter::halves`]), are then filled from the ranges in range
/// order, which is key order, in one walk, or on two threads when the
/// build is split. Either way the arena is the one a single range builds,
/// byte for byte.
fn build_arena<W: Word>(
    docs: &[Document],
    tokens: LocalTokens,
    coverage: Coverage,
    config: PairConfig,
    fields: Fields,
    parts: usize,
) -> PairIndex {
    debug_assert!(docs.windows(2).all(|w| w[0].node < w[1].node));
    let layouts = Layouts {
        // `(a, b, gap − 1)` while a posting's node is its document's, `a`
        // counted from its range's first number.
        in_doc: Layout {
            mid: fields.token,
            lo: fields.gap,
        },
        // `(token, node, gap − 1)` once a token is implied by the bucket.
        in_bucket: Layout {
            mid: fields.node,
            lo: fields.gap,
        },
    };
    let ranges = coverage.ranges(&tokens, parts);
    let Coverage {
        frequent,
        number,
        ids,
    } = coverage;
    let input = Input {
        docs,
        tokens: &tokens,
        number: &number,
        split: parts > 1,
        width: ids.len(),
        window: config.window,
        layouts,
    };
    let grouped = on_threads(ranges, |range| Grouped::<W>::of(&input, range));
    // The local ids are spent: free them before the arena is written.
    drop((tokens, number));

    let shape = (grouped.iter()).fold(ArenaShape::default(), |sum, g| sum.then(g.shape));
    let mut arena = PairArenaWriter::with_shape(config, frequent, shape);
    // A split build fills the two halves on two threads: on 2 vCPUs a
    // 1 024-document build (two ranges) took 52 ms in the median of 24
    // alternating process pairs, against 62 ms writing both halves in one
    // walk on the calling thread, and was faster in 21 of the 24. Each
    // half moves to the thread that fills it: two threads writing fields
    // that shared a cache line were each twice as slow. Filling both
    // halves in one walk is cheaper when there is one range: two walks
    // made a 32-document seal 13 % slower.
    let (keys, blocks) = arena.halves();
    let halves = if parts > 1 {
        vec![(Some(keys), None), (None, Some(blocks))]
    } else {
        vec![(Some(keys), Some(blocks))]
    };
    let fill = |(mut keys, mut blocks): (Option<KeyTables>, Option<Blocks>)| {
        for range in &grouped {
            range.push(keys.as_mut(), blocks.as_mut(), &ids, layouts.in_bucket);
        }
        (keys, blocks)
    };
    let (mut keys, mut blocks) = (None, None);
    for (filled_keys, filled_blocks) in on_threads(halves, fill) {
        keys = keys.or(filled_keys);
        blocks = blocks.or(filled_blocks);
    }
    drop(grouped);
    arena.restore(
        keys.expect("one thread fills the key tables"),
        blocks.expect("one thread fills the blocks"),
    );
    arena
        .finish()
        .expect("the arena holds the shape it was made for")
}

/// What every range of a build reads.
struct Input<'a> {
    docs: &'a [Document],
    tokens: &'a LocalTokens,
    /// Per local id, its covered number.
    number: &'a [u32],
    /// Whether the build runs as more than one range.
    split: bool,
    /// The number of covered tokens.
    width: usize,
    window: u32,
    layouts: Layouts,
}

/// Where the fields of a posting sit while it is grouped.
#[derive(Clone, Copy)]
struct Layouts {
    in_doc: Layout,
    in_bucket: Layout,
}

/// One range's postings, grouped by key.
struct Grouped<W> {
    /// The covered numbers of the range's first tokens.
    range: Range<u32>,
    /// `(b, node, gap − 1)`, bucketed by first token, each bucket's keys
    /// ascending by second token and each key's entries by node.
    postings: Vec<W>,
    /// Where each first token's bucket ends.
    ends: Vec<u32>,
    /// The most entries a key can have: the documents with a posting.
    longest: usize,
    shape: ArenaShape,
}

impl<W: Word> Grouped<W> {
    /// The postings of the keys of `input`'s documents whose first token's
    /// covered number is in `range`, which holds `occurrences` occurrences.
    fn of(input: &Input, (range, occurrences): (Range<u32>, u64)) -> Self {
        let Input {
            docs,
            tokens,
            number,
            split,
            width,
            window,
            layouts: Layouts { in_doc, in_bucket },
        } = *input;
        let mut pass = DocPass::<W>::new(docs, width, range.clone(), in_doc, window);
        if split {
            // Postings are numbered by `u32`, so no more are made room for.
            let room = occurrences * u64::from(window.min(POSTINGS_PER_OCCURRENCE));
            pass.postings
                .reserve(room.min(u64::from(u32::MAX)) as usize);
        }
        for (doc, locals) in tokens.per_doc(docs) {
            pass.document(doc, locals, number);
        }
        let DocPass {
            postings,
            doc_ends,
            mut firsts,
            mut seconds,
            ..
        } = pass;

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
        // Documents are in node order: the last with a posting has the
        // largest node of any entry.
        let max_node = doc_ends.last().map_or(0, |&(node, _)| node);
        let longest = doc_ends.len();
        drop(doc_ends);

        // By first token; the second comes from the bucket. `seconds[b]`
        // is now where bucket `b` ends. A key is a run of one second token
        // inside its first token's bucket: `open[a]` is the run of `a`
        // being filled, which closes when bucket `b` moves on. The pass
        // writes every slot, so the spent postings' buffer holds it: no
        // fresh buffer is allocated and zeroed.
        let mut grouped = postings;
        bucket_starts(&mut firsts);
        let mut shape = ArenaShape {
            max_node,
            ..ArenaShape::default()
        };
        let mut open = vec![OpenRun::default(); firsts.len()];
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
        Grouped {
            range,
            postings: grouped,
            ends: firsts,
            longest,
            shape,
        }
    }

    /// The range's keys in key order, one run of postings each, with the
    /// covered number of its first token.
    fn runs(&self, in_bucket: Layout) -> impl Iterator<Item = (u32, &[W])> {
        let second = move |posting: &W| posting.unpack(in_bucket).0;
        (self.range.clone().zip(buckets(&self.postings, &self.ends))).flat_map(
            move |(a, bucket)| {
                let runs = bucket.chunk_by(move |x, y| second(x) == second(y));
                runs.map(move |run| (a, run))
            },
        )
    }

    /// Append every key of the range to `keys` and the blocks of every key
    /// stored with blocks to `blocks`, those of the two that are given, in
    /// one walk. `ids[c]` is the token of covered number `c`.
    fn push(
        &self,
        mut keys: Option<&mut KeyTables>,
        mut blocks: Option<&mut Blocks>,
        ids: &[u32],
        in_bucket: Layout,
    ) {
        let room = if blocks.is_some() { self.longest } else { 0 };
        let mut list: Vec<(u32, u32)> = Vec::with_capacity(room);
        for (a, run) in self.runs(in_bucket) {
            let (b, node, gap) = run[0].unpack(in_bucket);
            if let Some(keys) = keys.as_deref_mut() {
                let (a, b) = (ids[a as usize], ids[b as usize]);
                keys.push(a, b, run.len(), (node, gap + 1))
                    .expect("built keys fit the shape and u32 offsets");
            }
            let Some(blocks) = blocks.as_deref_mut() else {
                continue;
            };
            if is_inline(run.len(), gap + 1) {
                continue;
            }
            list.clear();
            list.extend(run.iter().map(|posting| {
                let (_, node, gap) = posting.unpack(in_bucket);
                (node, gap + 1)
            }));
            blocks
                .push(&list)
                .expect("built lists are non-empty and fit u32 offsets");
        }
    }
}

/// The run of one first token being filled by the by-first pass: its
/// second token plus one (0 before any), entries so far and first gap − 1.
#[derive(Clone, Copy, Default)]
struct OpenRun {
    second: u32,
    len: u32,
    gap: u32,
}

/// The per-document half of a range's build: one posting per document
/// and key whose first token is in the range, holding the key's minimum gap
/// there, found without hashing.
///
/// A document's occurrences are walked grouped by token: a backward walk
/// links each occurrence of a covered token in the range to the next one
/// (`next`), and ends with `first[a]` on the first occurrence of the
/// range's token `a`, from which a group follows the chain. Inside one group, the other token's slot in `keys` is
/// stamped with the group, so a second occurrence of the same key finds its
/// posting there. Moving on to the next document or group clears nothing.
struct DocPass<W> {
    postings: Vec<W>,
    /// `(node, end)`: the postings of each document that has any.
    doc_ends: Vec<(u32, usize)>,
    /// Postings per first token, counted from the range's first number,
    /// and per second covered number.
    firsts: Vec<u32>,
    seconds: Vec<u32>,
    /// The covered numbers of the range's first tokens.
    range: Range<u32>,
    layout: Layout,
    window: u32,
    /// The current document's covered number per occurrence.
    cover: Vec<u32>,
    /// Per occurrence of the current document, the next occurrence of its
    /// token, or [`NO_NEXT`].
    next: Vec<u32>,
    /// Per first token of the range, its first occurrence in the document
    /// stamped `doc`.
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
    /// A pass over `docs`, of `width` covered tokens, for the first tokens
    /// `range`. Every buffer but the postings' is allocated once.
    fn new(
        docs: &[Document],
        width: usize,
        range: Range<u32>,
        layout: Layout,
        window: u32,
    ) -> Self {
        let firsts = range.len();
        let longest = docs.iter().map(|d| d.tokens.len()).max().unwrap_or(0);
        DocPass {
            postings: Vec::new(),
            doc_ends: Vec::with_capacity(docs.len()),
            firsts: vec![0; firsts],
            seconds: vec![0; width],
            range,
            layout,
            window,
            cover: Vec::with_capacity(longest),
            next: Vec::with_capacity(longest),
            first: vec![Stamped::default(); firsts],
            keys: vec![Stamped::default(); width],
            doc: 0,
            group: 0,
        }
    }

    /// Keep the postings of `doc`, with `locals` its local ids and `number`
    /// their covered numbers.
    ///
    /// Each group walks the occurrences of one token of the range, scans
    /// forward from each within the window, and keeps the keys its token is
    /// first in. A posting's first token is counted from the range's first
    /// number.
    fn document(&mut self, doc: &Document, locals: &[u32], number: &[u32]) {
        let toks = &doc.tokens;
        let DocPass {
            postings,
            doc_ends,
            firsts,
            seconds,
            range,
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
        // The range's number of covered number `c`, which is the range's
        // length or more for a number outside it and for `NOT_COVERED`.
        let (lo, len) = (range.start, range.len() as u32);
        let in_range = |c: u32| c.wrapping_sub(lo);
        for (i, &c) in cover.iter().enumerate().rev() {
            let a = in_range(c);
            if a >= len {
                continue;
            }
            let slot = &mut first[a as usize];
            if slot.stamp == stamp {
                next[i] = slot.at;
            }
            *slot = Stamped {
                stamp,
                at: i as u32,
            };
        }
        for (i, &c) in cover.iter().enumerate() {
            let a = in_range(c);
            if a >= len || first[a as usize].at != i as u32 {
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
                    let posting = W::pack(a, cb, gap - 1, *layout);
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
                        firsts[a as usize] += 1;
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
trait Word: Copy + Ord + Send + Sync {
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

/// [`PairIndex::build`] as `ranges` first-token ranges, however few
/// occurrences the documents hold: the check that every split builds the
/// arena one range builds. `dfs[t]` is the document frequency of token
/// `t`.
#[cfg(test)]
fn build_in_ranges(docs: &[Document], dfs: &[u32], config: PairConfig, ranges: usize) -> PairIndex {
    let tokens = LocalTokens::of(docs);
    let used: Vec<u32> = tokens.used.iter().map(|&(t, _)| dfs[t as usize]).collect();
    PairIndex::build_in(docs, tokens, &used, dfs.len(), config, |_| ranges)
}

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
        build_arena::<u128>(docs, tokens, coverage, config, fields, 1)
    } else {
        build_arena::<u64>(docs, tokens, coverage, config, fields, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsl_model::Corpus;
    use ftsl_testkit::{arb_pair_case, document_frequencies, pair_case_corpus, prop_cases};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(prop_cases(64)))]

        /// Every cut into one to five ranges, down to ranges that hold one
        /// covered token or none, builds the arena one range builds, byte
        /// for byte, and so does [`PairIndex::build`].
        #[test]
        fn every_range_split_builds_the_one_range_arena(
            (window, cutoff, high, docs) in arb_pair_case()
        ) {
            let corpus = pair_case_corpus(high, &docs);
            let df_cutoff = [0, 2, docs.len() as u32 + 1][cutoff];
            let config = PairConfig { window, df_cutoff };
            let dfs = document_frequencies(&corpus);
            let docs = corpus.documents();
            let one = build_in_ranges(docs, &dfs, config, 1);
            prop_assert_eq!(&PairIndex::build(docs, &dfs, config), &one);
            for ranges in 2..=5 {
                let split = build_in_ranges(docs, &dfs, config, ranges);
                prop_assert_eq!(&split, &one, "{} ranges", ranges);
            }
        }
    }

    #[test]
    fn ranges_balance_occurrences_and_may_be_empty_or_single() {
        let corpus = Corpus::from_texts(&["a a a a a a a a b c", "c b"]);
        let docs = corpus.documents();
        let tokens = LocalTokens::of(docs);
        let vocab = corpus.interner().len();
        let coverage = Coverage::of(&tokens, &vec![2; tokens.len()], vocab, 0);
        // Occurrences per covered token: 8, 2 and 2.
        let ranges = |parts| coverage.ranges(&tokens, parts);
        assert_eq!(ranges(1), vec![(0..3, 12)]);
        assert_eq!(ranges(2), vec![(0..1, 8), (1..3, 4)]);
        let five = [(0..1, 8), (1..1, 0), (1..1, 0), (1..2, 2), (2..3, 2)];
        assert_eq!(ranges(5), five);

        let dfs = vec![2; vocab];
        let config = PairConfig {
            window: 4,
            df_cutoff: 0,
        };
        let one = build_in_ranges(docs, &dfs, config, 1);
        assert!(one.num_keys() > 3);
        for parts in 2..=5 {
            assert_eq!(build_in_ranges(docs, &dfs, config, parts), one);
        }
        // One covered token: every range past the first is empty and
        // starts past the vocabulary.
        let only_a: Vec<u32> = (0..vocab).map(|t| if t == 0 { 2 } else { 1 }).collect();
        let config = PairConfig {
            df_cutoff: 2,
            ..config
        };
        let one = build_in_ranges(docs, &only_a, config, 1);
        assert_eq!(one.num_keys(), 1);
        assert_eq!(build_in_ranges(docs, &only_a, config, 3), one);
    }
}
