/**
 * @file
 * Tests of the shared-prefix KV cache radix tree: block-aligned
 * match/insert/release, refcount-protected eviction, LRU ordering,
 * and byte-budget enforcement (including the budget-0 disabled mode
 * and shrink-under-pressure via setBudget), path compression (one
 * edge per unbranched run, splits inside an edge, mid-edge re-walks
 * and budget cut-offs), edges that view the blocks queries are
 * stored in (identity-matched heads, a head/tail boundary inside a
 * block, borrowed queries copied once), one PrefixEvict per eviction
 * burst, plus seeded differential runs (a shallow and a deep prompt
 * pool, queried as borrowed vectors, owned blocks and shared head +
 * tail blocks) against a brute-force per-block full-scan model tree,
 * eviction events included, and a sibling-heavy pool whose children
 * share first tokens.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "kvcache/prefix_tree.h"
#include "kvcache/token_block.h"
#include "kvcache/token_span.h"
#include "obs/trace.h"

namespace specontext {
namespace {

using kv::BlockRef;
using kv::PrefixHandle;
using kv::PrefixMatch;
using kv::PrefixTree;
using kv::PrefixTreeConfig;

constexpr int64_t kPage = 4;
constexpr int64_t kBytesPerToken = 10;
constexpr int64_t kBlockBytes = kPage * kBytesPerToken;

PrefixTreeConfig
cfgWith(int64_t budget_blocks)
{
    PrefixTreeConfig c;
    c.page_size = kPage;
    c.bytes_per_token = kBytesPerToken;
    c.budget_bytes = budget_blocks * kBlockBytes;
    return c;
}

/** n tokens starting at `base` (distinct sequences per base). */
std::vector<int32_t>
seq(int32_t base, int64_t n)
{
    std::vector<int32_t> out;
    out.reserve(n);
    for (int64_t i = 0; i < n; ++i)
        out.push_back(base + static_cast<int32_t>(i));
    return out;
}

/** tokens[from, to) in a new owned block, naming `head` (may be
 *  null). */
BlockRef
ownedBlock(const std::vector<int32_t> &tokens, size_t from, size_t to,
           const kv::TokenBlock *head = nullptr)
{
    kv::TokenBlock *b = kv::TokenBlock::create(to - from, head);
    std::copy(tokens.begin() + static_cast<long>(from),
              tokens.begin() + static_cast<long>(to), b->tokens());
    return BlockRef::adopt(b);
}

/** The query a prompt stored as `tail` reads: its head (if any), then
 *  its own tokens, each piece with its owning block. */
kv::TokenSpan
spanOf(const BlockRef &tail)
{
    const kv::TokenBlock *t = tail.get();
    const kv::TokenPiece own{t->tokens(), t->size(), t};
    if (const kv::TokenBlock *h = t->head())
        return {kv::TokenPiece{h->tokens(), h->size(), h}, own};
    return {own, {}};
}

// ------------------------------------------------------ match/insert

TEST(PrefixTree, EmptyTreeMatchesNothing)
{
    PrefixTree tree(cfgWith(8));
    const PrefixMatch m = tree.match(seq(0, 10));
    EXPECT_EQ(m.hit_tokens, 0);
    EXPECT_EQ(m.reserved_bytes, 0);
    EXPECT_EQ(tree.bytes(), 0);
    EXPECT_EQ(tree.nodeCount(), 0);
}

TEST(PrefixTree, InsertThenMatchIsBlockAligned)
{
    PrefixTree tree(cfgWith(8));
    // 10 tokens at page 4 -> only 2 full blocks (8 tokens) cached.
    PrefixHandle h = tree.insert(seq(0, 10));
    EXPECT_EQ(h.pinnedTokens(), 8);
    EXPECT_EQ(tree.residentTokens(), 8);
    EXPECT_EQ(tree.nodeCount(), 2);
    EXPECT_EQ(tree.insertedTokens(), 8);

    const PrefixMatch full = tree.match(seq(0, 10));
    EXPECT_EQ(full.hit_tokens, 8);
    EXPECT_EQ(full.reserved_bytes, 8 * kBytesPerToken);
    // A shorter probe sharing the first block only.
    std::vector<int32_t> diverges = seq(0, 10);
    diverges[5] = 999; // inside block 1
    EXPECT_EQ(tree.match(diverges).hit_tokens, 4);
    // Probe shorter than one block can never match.
    EXPECT_EQ(tree.match(seq(0, 3)).hit_tokens, 0);
    tree.release(h);
}

TEST(PrefixTree, DivergingSuffixesShareThePrefixPath)
{
    PrefixTree tree(cfgWith(16));
    std::vector<int32_t> a = seq(0, 12);
    std::vector<int32_t> b = seq(0, 12);
    b[8] = 777; // diverge in block 2
    PrefixHandle ha = tree.insert(a);
    PrefixHandle hb = tree.insert(b);
    // Blocks: a = {0,1,2}, b reuses {0,1} and adds its own third.
    EXPECT_EQ(tree.nodeCount(), 4);
    EXPECT_EQ(tree.residentTokens(), 16);
    EXPECT_EQ(tree.match(a).hit_tokens, 12);
    EXPECT_EQ(tree.match(b).hit_tokens, 12);
    tree.release(ha);
    tree.release(hb);
}

TEST(PrefixTree, DisabledTreeIsANoOp)
{
    PrefixTree tree(cfgWith(0));
    EXPECT_FALSE(tree.enabled());
    PrefixHandle h = tree.insert(seq(0, 16));
    EXPECT_EQ(h.pinnedTokens(), 0);
    EXPECT_EQ(tree.bytes(), 0);
    EXPECT_EQ(tree.match(seq(0, 16)).hit_tokens, 0);
    tree.release(h); // harmless
}

// --------------------------------------------------- refcount/release

TEST(PrefixTree, ReleaseIsIdempotentAndDefaultHandleIsSafe)
{
    PrefixTree tree(cfgWith(8));
    PrefixHandle none;
    tree.release(none); // default handle: no-op

    PrefixHandle h = tree.insert(seq(0, 8));
    tree.release(h);
    EXPECT_EQ(h.pinnedTokens(), 0);
    tree.release(h); // cleared handle: no-op, not a double unpin
    EXPECT_EQ(tree.residentTokens(), 8);
}

TEST(PrefixTree, RefcountProtectsPinnedPathsFromEviction)
{
    PrefixTree tree(cfgWith(2)); // room for exactly 2 blocks
    PrefixHandle ha = tree.insert(seq(0, 8));
    EXPECT_EQ(ha.pinnedTokens(), 8);

    // B wants 2 different blocks; A's are pinned, so nothing can be
    // evicted and B's insertion is truncated to nothing.
    PrefixHandle hb = tree.insert(seq(1000, 8));
    EXPECT_EQ(hb.pinnedTokens(), 0);
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 8);
    EXPECT_EQ(tree.match(seq(1000, 8)).hit_tokens, 0);
    tree.release(hb);

    // Once A is released its blocks are evictable and B fits.
    tree.release(ha);
    PrefixHandle hb2 = tree.insert(seq(1000, 8));
    EXPECT_EQ(hb2.pinnedTokens(), 8);
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 0); // A evicted
    EXPECT_EQ(tree.evictedTokens(), 8);
    tree.release(hb2);
}

TEST(PrefixTree, EvictionIsLeastRecentlyReleasedFirst)
{
    PrefixTree tree(cfgWith(2));
    PrefixHandle ha = tree.insert(seq(0, 4));
    PrefixHandle hb = tree.insert(seq(1000, 4));
    tree.release(ha); // A released first...
    tree.release(hb);
    // ...but re-pinning A refreshes its stamp, so B is now the LRU.
    PrefixHandle ha2 = tree.insert(seq(0, 4));
    tree.release(ha2);

    PrefixHandle hc = tree.insert(seq(2000, 4));
    EXPECT_EQ(hc.pinnedTokens(), 4);
    EXPECT_EQ(tree.match(seq(0, 4)).hit_tokens, 4);    // A survives
    EXPECT_EQ(tree.match(seq(1000, 4)).hit_tokens, 0); // B evicted
    tree.release(hc);
}

TEST(PrefixTree, PinnedTokensTrackLiveHandles)
{
    PrefixTree tree(cfgWith(16));
    EXPECT_EQ(tree.pinnedTokens(), 0);
    PrefixHandle ha = tree.insert(seq(0, 8)); // 2 blocks
    EXPECT_EQ(tree.pinnedTokens(), 8);
    PrefixHandle hb = tree.insert(seq(0, 8)); // same path, repinned
    EXPECT_EQ(tree.pinnedTokens(), 8);        // counted once
    PrefixHandle hc = tree.insert(seq(0, 12)); // extends by 1 block
    EXPECT_EQ(tree.pinnedTokens(), 12);
    tree.release(ha);
    EXPECT_EQ(tree.pinnedTokens(), 12); // still pinned by hb/hc
    tree.release(hb);
    tree.release(hc);
    EXPECT_EQ(tree.pinnedTokens(), 0);
    EXPECT_EQ(tree.pinnedBytes(), 0);
    EXPECT_EQ(tree.residentTokens(), 12); // resident but idle
}

TEST(PrefixTree, EvictionExposesAnOlderParentAheadOfANewerLeaf)
{
    PrefixTree tree(cfgWith(3));
    PrefixHandle hx = tree.insert(seq(0, 8)); // parent P + leaf C
    tree.release(hx);                         // P, C stamped 1
    PrefixHandle hy = tree.insert(seq(1000, 4));
    tree.release(hy); // Y stamped 2

    tree.setBudget(2 * kBlockBytes); // evicts C, exposing P (stamp 1)
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 4);
    EXPECT_EQ(tree.match(seq(1000, 4)).hit_tokens, 4);

    // P's older stamp makes it the next victim, ahead of the leaf Y
    // released after it (an append-to-tail LRU list would pick Y).
    PrefixHandle hz = tree.insert(seq(2000, 4));
    EXPECT_EQ(hz.pinnedTokens(), 4);
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 0);
    EXPECT_EQ(tree.match(seq(1000, 4)).hit_tokens, 4);
    EXPECT_EQ(tree.evictedTokens(), 8);
    tree.release(hz);
}

TEST(PrefixTree, RepinnedIdleLeafSurvivesABudgetShrink)
{
    PrefixTree tree(cfgWith(2));
    PrefixHandle ha = tree.insert(seq(0, 4));
    tree.release(ha); // A: idle leaf, the oldest stamp
    PrefixHandle hb = tree.insert(seq(1000, 4));
    tree.release(hb);
    PrefixHandle ha2 = tree.insert(seq(0, 4)); // re-pins A

    tree.setBudget(kBlockBytes); // must take B, never the pinned A
    EXPECT_EQ(tree.residentTokens(), 4);
    EXPECT_EQ(tree.pinnedTokens(), 4);
    EXPECT_EQ(tree.match(seq(0, 4)).hit_tokens, 4);
    EXPECT_EQ(tree.match(seq(1000, 4)).hit_tokens, 0);

    tree.release(ha2);
    tree.setBudget(0);
    EXPECT_EQ(tree.residentTokens(), 0);
}

TEST(PrefixTree, ReleaseRestampsAPinnedAncestorWithoutMakingItEvictable)
{
    PrefixTree tree(cfgWith(4));
    PrefixHandle hq = tree.insert(seq(1000, 4));
    tree.release(hq);                         // Q stamped 1
    PrefixHandle hp = tree.insert(seq(0, 4)); // pins P
    PrefixHandle hy = tree.insert(seq(0, 8)); // P + leaf C
    tree.release(hy); // C and the still-pinned P stamped 2

    // Only Q and C are evictable; P shares C's stamp but is pinned.
    tree.setBudget(kBlockBytes);
    EXPECT_EQ(tree.residentTokens(), 4);
    EXPECT_EQ(tree.nodeCount(), 1);
    EXPECT_EQ(tree.evictedTokens(), 8);
    EXPECT_EQ(tree.match(seq(0, 8)).hit_tokens, 4);
    tree.setBudget(0);
    EXPECT_EQ(tree.residentTokens(), 4); // P survives even budget 0
    EXPECT_EQ(tree.pinnedTokens(), 4);

    tree.release(hp); // now P is an unpinned leaf: evicted at once
    EXPECT_EQ(tree.residentTokens(), 0);
    EXPECT_EQ(tree.nodeCount(), 0);
}

TEST(PrefixTree, ReleaseWithoutPinThrows)
{
    PrefixTree tree(cfgWith(16)); // large enough that nothing is evicted
    PrefixHandle h = tree.insert(seq(0, 8));
    PrefixHandle copy = h;
    tree.release(h);
    EXPECT_EQ(tree.pinnedTokens(), 0);
    EXPECT_THROW(tree.release(copy), std::logic_error);
}

// ------------------------------------------------------------ budget

TEST(PrefixTree, BudgetBoundsResidencyAndTruncatesInsertions)
{
    PrefixTree tree(cfgWith(3));
    PrefixHandle h = tree.insert(seq(0, 40)); // wants 10 blocks
    EXPECT_EQ(h.pinnedTokens(), 12);          // got 3
    EXPECT_LE(tree.bytes(), tree.config().budget_bytes);
    EXPECT_EQ(tree.match(seq(0, 40)).hit_tokens, 12);
    tree.release(h);
    EXPECT_LE(tree.bytes(), tree.config().budget_bytes);
}

TEST(PrefixTree, SetBudgetShrinkEvictsUnreferencedSubtrees)
{
    PrefixTree tree(cfgWith(8));
    PrefixHandle h = tree.insert(seq(0, 32)); // 8 blocks resident
    tree.release(h);
    EXPECT_EQ(tree.residentTokens(), 32);

    tree.setBudget(2 * kBlockBytes);
    EXPECT_EQ(tree.residentTokens(), 8);
    EXPECT_LE(tree.bytes(), 2 * kBlockBytes);
    // Leaves go first, so the surviving blocks are the prefix head —
    // the path is still matchable end to end.
    EXPECT_EQ(tree.match(seq(0, 32)).hit_tokens, 8);

    tree.setBudget(0);
    EXPECT_EQ(tree.residentTokens(), 0);
    EXPECT_FALSE(tree.enabled());
}

TEST(PrefixTree, PinnedBytesMayExceedAShrunkenBudgetUntilRelease)
{
    PrefixTree tree(cfgWith(4));
    PrefixHandle h = tree.insert(seq(0, 16)); // 4 blocks, all pinned
    tree.setBudget(kBlockBytes);              // shrink below residency
    EXPECT_EQ(tree.residentTokens(), 16);     // pinned: nothing evicted
    tree.release(h);                          // now the budget binds
    EXPECT_LE(tree.bytes(), kBlockBytes);
}

// -------------------------------------------------------- validation

TEST(PrefixTree, ConstructorValidatesConfig)
{
    PrefixTreeConfig bad_page = cfgWith(4);
    bad_page.page_size = 0;
    EXPECT_THROW(PrefixTree{bad_page}, std::invalid_argument);

    PrefixTreeConfig bad_budget = cfgWith(4);
    bad_budget.budget_bytes = -1;
    EXPECT_THROW(PrefixTree{bad_budget}, std::invalid_argument);

    PrefixTreeConfig bad_bytes = cfgWith(4);
    bad_bytes.bytes_per_token = 0;
    EXPECT_THROW(PrefixTree{bad_bytes}, std::invalid_argument);
    // ...but bytes_per_token 0 is fine for a disabled cache.
    bad_bytes.budget_bytes = 0;
    EXPECT_NO_THROW(PrefixTree{bad_bytes});

    PrefixTree tree(cfgWith(4));
    EXPECT_THROW(tree.setBudget(-1), std::invalid_argument);
}

// -------------------------------------------------- matchAndPin

/** Drive `combined` through matchAndPin and `legacy` through the
 *  three-walk sequence it fuses (match -> resize -> match -> insert),
 *  applying `new_budget_blocks` inside the resize step of both, and
 *  assert every observable agrees. Returns the two handles. */
std::pair<PrefixHandle, PrefixHandle>
admitBothWays(PrefixTree &combined, PrefixTree &legacy,
              const std::vector<int32_t> &tokens,
              int64_t new_budget_blocks)
{
    // Legacy: walk 1 (estimate), resize, walk 2 (hit), walk 3 (insert).
    const PrefixMatch legacy_estimate = legacy.match(tokens);
    legacy.setBudget(new_budget_blocks * kBlockBytes);
    const PrefixMatch legacy_hit = legacy.match(tokens);
    PrefixHandle legacy_handle = legacy.insert(tokens);

    kv::MatchAndPinResult fused = combined.matchAndPin(
        tokens, [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, legacy_estimate.hit_tokens);
            combined.setBudget(new_budget_blocks * kBlockBytes);
        });
    EXPECT_EQ(fused.estimate.hit_tokens, legacy_estimate.hit_tokens);
    EXPECT_EQ(fused.match.hit_tokens, legacy_hit.hit_tokens);
    EXPECT_EQ(fused.handle.pinnedTokens(),
              legacy_handle.pinnedTokens());
    EXPECT_EQ(combined.bytes(), legacy.bytes());
    EXPECT_EQ(combined.pinnedTokens(), legacy.pinnedTokens());
    EXPECT_EQ(combined.nodeCount(), legacy.nodeCount());
    EXPECT_EQ(combined.insertedTokens(), legacy.insertedTokens());
    EXPECT_EQ(combined.evictedTokens(), legacy.evictedTokens());
    return {std::move(fused.handle), std::move(legacy_handle)};
}

TEST(PrefixTree, MatchAndPinMatchesThreeWalkPath)
{
    // Parity pin: a sequence of admissions (shared prefixes, budget
    // shrinks and regrowth inside the resize callback, releases
    // between) must leave the fused and the three-walk trees in
    // bit-identical states at every step.
    PrefixTree combined(cfgWith(8)), legacy(cfgWith(8));

    auto [c1, l1] = admitBothWays(combined, legacy, seq(0, 12), 8);
    // Same family, longer prompt: hits the cached path.
    auto [c2, l2] = admitBothWays(combined, legacy, seq(0, 20), 8);
    combined.release(c1);
    legacy.release(l1);
    // Budget shrink inside the callback evicts released blocks in
    // both paths (the estimate / post-resize match divergence case).
    auto [c3, l3] = admitBothWays(combined, legacy, seq(100, 16), 2);
    combined.release(c2);
    legacy.release(l2);
    combined.release(c3);
    legacy.release(l3);
    EXPECT_EQ(combined.bytes(), legacy.bytes());
    EXPECT_EQ(combined.evictedTokens(), legacy.evictedTokens());
    // Regrow and re-admit the first family: identical matches again.
    auto [c4, l4] = admitBothWays(combined, legacy, seq(0, 20), 8);
    combined.release(c4);
    legacy.release(l4);
}

TEST(PrefixTree, MatchAndPinResizeEvictionShrinksTheMatch)
{
    // When the resize callback's budget shrink evicts part of the
    // estimated prefix, the pinned match must reflect the post-shrink
    // tree — the exact semantics of the legacy three-walk sequence.
    PrefixTree tree(cfgWith(8));
    PrefixHandle warm = tree.insert(seq(0, 32)); // 8 blocks resident
    tree.release(warm);                          // all evictable

    kv::MatchAndPinResult res = tree.matchAndPin(
        seq(0, 32), [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, 32);
            tree.setBudget(2 * kBlockBytes); // evicts 6 of 8 blocks
        });
    EXPECT_EQ(res.estimate.hit_tokens, 32);
    EXPECT_EQ(res.match.hit_tokens, 2 * kPage);
    // The pin covers only what the post-shrink budget retains.
    EXPECT_EQ(res.handle.pinnedTokens(), 2 * kPage);
    tree.release(res.handle);
}

TEST(PrefixTree, MatchAndPinWithoutResizeEqualsInsert)
{
    PrefixTree a(cfgWith(4)), b(cfgWith(4));
    PrefixHandle ha = a.insert(seq(0, 16));
    kv::MatchAndPinResult rb = b.matchAndPin(seq(0, 16));
    EXPECT_EQ(rb.estimate.hit_tokens, 0);
    EXPECT_EQ(rb.match.hit_tokens, 0);
    EXPECT_EQ(ha.pinnedTokens(), rb.handle.pinnedTokens());
    EXPECT_EQ(a.bytes(), b.bytes());
    a.release(ha);
    b.release(rb.handle);
}

TEST(PrefixTree, MatchAndPinOnDisabledTreeIsANoOp)
{
    PrefixTree tree(cfgWith(0));
    bool resized = false;
    kv::MatchAndPinResult res =
        tree.matchAndPin(seq(0, 16), [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, 0);
            resized = true;
        });
    EXPECT_TRUE(resized); // the callback still runs (budget revival)
    EXPECT_EQ(res.match.hit_tokens, 0);
    EXPECT_EQ(res.handle.pinnedTokens(), 0);
    EXPECT_EQ(tree.bytes(), 0);
    tree.release(res.handle); // default-constructed path: safe no-op
}

// ------------------------------------------------------------ edges

TEST(PrefixTree, LongUnbranchedPromptIsOneEdge)
{
    // Host-independent check that path compression is engaged: a
    // per-block layout would report one edge per block.
    PrefixTree tree(cfgWith(512));
    const std::vector<int32_t> a = seq(0, 256 * kPage);
    PrefixHandle ha = tree.insert(a);
    EXPECT_EQ(tree.nodeCount(), 256);
    EXPECT_EQ(tree.edgeCount(), 1);

    // A variant diverging at block 100 splits the edge there: shared
    // upper part, a's lower part, and the variant's own new edge.
    std::vector<int32_t> b = a;
    for (size_t i = 100 * kPage; i < b.size(); ++i)
        b[i] = -b[i] - 1;
    PrefixHandle hb = tree.insert(b);
    EXPECT_EQ(hb.pinnedTokens(), 256 * kPage);
    EXPECT_EQ(tree.nodeCount(), 256 + 156);
    EXPECT_EQ(tree.edgeCount(), 3);
    EXPECT_EQ(tree.match(a).hit_tokens, 256 * kPage);
    EXPECT_EQ(tree.match(b).hit_tokens, 256 * kPage);

    tree.release(ha);
    tree.release(hb);
    tree.setBudget(0);
    EXPECT_EQ(tree.nodeCount(), 0);
    EXPECT_EQ(tree.edgeCount(), 0);
}

TEST(PrefixTree, ShortHandleInsideAnEdgeOutlivesAnOlderLeaf)
{
    // A short prompt ending inside a longer cached chain splits it, so
    // its release stamps only the shared part: once the long tail is
    // gone, the short prefix (released last) must outlive a leaf
    // released between the two.
    PrefixTree tree(cfgWith(16));
    PrefixHandle hl = tree.insert(seq(0, 8 * kPage));
    PrefixHandle hs = tree.insert(seq(0, 3 * kPage));
    EXPECT_EQ(hs.pinnedTokens(), 3 * kPage);
    EXPECT_EQ(tree.edgeCount(), 2);
    EXPECT_EQ(tree.nodeCount(), 8);
    PrefixHandle hx = tree.insert(seq(1000, 2 * kPage));
    EXPECT_EQ(tree.pinnedTokens(), 10 * kPage);

    tree.release(hl); // oldest: the long tail goes first
    tree.release(hx);
    tree.release(hs); // newest: the shared prefix goes last
    tree.setBudget(5 * kBlockBytes);
    EXPECT_EQ(tree.evictedTokens(), 5 * kPage);
    EXPECT_EQ(tree.match(seq(0, 8 * kPage)).hit_tokens, 3 * kPage);
    EXPECT_EQ(tree.match(seq(1000, 2 * kPage)).hit_tokens, 2 * kPage);
    EXPECT_EQ(tree.edgeCount(), 2);

    tree.setBudget(3 * kBlockBytes);
    EXPECT_EQ(tree.match(seq(1000, 2 * kPage)).hit_tokens, 0);
    EXPECT_EQ(tree.match(seq(0, 3 * kPage)).hit_tokens, 3 * kPage);
    EXPECT_EQ(tree.edgeCount(), 1);
}

TEST(PrefixTree, MismatchInsideAnEdgeStopsAtTheLastEqualBlock)
{
    PrefixTree tree(cfgWith(32));
    const std::vector<int32_t> a = seq(0, 6 * kPage);
    PrefixHandle ha = tree.insert(a);
    ASSERT_EQ(tree.edgeCount(), 1);
    // One differing token anywhere in block 3 stops the match after
    // block 2, whether it is the block's first, middle or last token.
    for (int64_t off : {int64_t{0}, kPage / 2, kPage - 1}) {
        std::vector<int32_t> b = a;
        b[3 * kPage + off] = -1;
        EXPECT_EQ(tree.match(b).hit_tokens, 3 * kPage) << off;
    }
    // A mismatch in the edge's first block matches nothing.
    std::vector<int32_t> c = a;
    c[1] = -1;
    EXPECT_EQ(tree.match(c).hit_tokens, 0);
    EXPECT_EQ(tree.edgeCount(), 1); // match() never splits

    std::vector<int32_t> b = a;
    b[3 * kPage + 1] = -1;
    kv::MatchAndPinResult rb = tree.matchAndPin(b);
    EXPECT_EQ(rb.match.hit_tokens, 3 * kPage);
    EXPECT_EQ(rb.handle.pinnedTokens(), 6 * kPage);
    EXPECT_EQ(tree.edgeCount(), 3);
    EXPECT_EQ(tree.nodeCount(), 9);
    EXPECT_EQ(tree.match(a).hit_tokens, 6 * kPage);
    EXPECT_EQ(tree.match(b).hit_tokens, 6 * kPage);
    tree.release(ha);
    tree.release(rb.handle);
    EXPECT_EQ(tree.pinnedTokens(), 0);
}

TEST(PrefixTree, ResizeEvictingTheHeldEdgeTailRewalksMidEdge)
{
    // The pre-resize match ends inside an 8-block edge; the callback's
    // shrink trims one block off that edge's tail, so the re-walk
    // still stops mid-edge. The split then leaves the 1-block lower
    // part the only evictable edge, and the budget runs out one block
    // into the new edge.
    PrefixTree tree(cfgWith(8));
    PrefixHandle warm = tree.insert(seq(0, 8 * kPage));
    tree.release(warm);
    std::vector<int32_t> q = seq(0, 6 * kPage);
    const std::vector<int32_t> tail = seq(5000, 2 * kPage);
    q.insert(q.end(), tail.begin(), tail.end());

    kv::MatchAndPinResult res =
        tree.matchAndPin(q, [&](const PrefixMatch &estimate) {
            EXPECT_EQ(estimate.hit_tokens, 6 * kPage);
            tree.setBudget(7 * kBlockBytes);
            EXPECT_EQ(tree.evictedTokens(), kPage);
        });
    EXPECT_EQ(res.estimate.hit_tokens, 6 * kPage);
    EXPECT_EQ(res.match.hit_tokens, 6 * kPage);
    EXPECT_EQ(res.handle.pinnedTokens(), 7 * kPage);
    EXPECT_EQ(tree.evictedTokens(), 2 * kPage);
    EXPECT_EQ(tree.nodeCount(), 7);
    EXPECT_EQ(tree.edgeCount(), 2);
    EXPECT_EQ(tree.match(seq(0, 8 * kPage)).hit_tokens, 6 * kPage);
    EXPECT_EQ(tree.match(q).hit_tokens, 7 * kPage);
    tree.release(res.handle);
}

TEST(PrefixTree, BudgetRunningOutPartwayThroughANewEdge)
{
    PrefixTree tree(cfgWith(5));
    PrefixHandle h = tree.insert(seq(0, 8 * kPage));
    EXPECT_EQ(h.pinnedTokens(), 5 * kPage);
    EXPECT_EQ(tree.insertedTokens(), 5 * kPage);
    EXPECT_EQ(tree.nodeCount(), 5);
    EXPECT_EQ(tree.edgeCount(), 1);
    tree.release(h);
    EXPECT_EQ(tree.match(seq(0, 8 * kPage)).hit_tokens, 5 * kPage);

    // Room again: the rest goes into a new child edge of the full
    // match (the handle that ended there keeps its block an edge end).
    tree.setBudget(8 * kBlockBytes);
    PrefixHandle h2 = tree.insert(seq(0, 8 * kPage));
    EXPECT_EQ(h2.pinnedTokens(), 8 * kPage);
    EXPECT_EQ(tree.nodeCount(), 8);
    EXPECT_EQ(tree.edgeCount(), 2);
    tree.release(h2);
}

// ---------------------------------------------------- storage views

TEST(PrefixTree, SharedHeadMatchesByIdentityAndSplitsAtAnUnalignedBoundary)
{
    // A 4090-token head at page 16: the block holding tokens
    // 4080..4095 straddles the head/tail boundary, so it is copied
    // into a tree-owned block; the blocks before it view the head and
    // the blocks after it view the tail.
    PrefixTreeConfig cfg;
    cfg.page_size = 16;
    cfg.bytes_per_token = 1;
    cfg.budget_bytes = 1 << 20;
    PrefixTree tree(cfg);
    const std::vector<int32_t> all = seq(0, 4190);
    const BlockRef head = ownedBlock(all, 0, 4090);
    const BlockRef tail_a = ownedBlock(all, 4090, 4190, head.get());
    std::vector<int32_t> b_tokens = all;
    for (size_t i = 4090; i < b_tokens.size(); ++i)
        b_tokens[i] = -b_tokens[i];
    const BlockRef tail_b = ownedBlock(b_tokens, 4090, 4190, head.get());

    PrefixHandle ha = tree.insert(spanOf(tail_a));
    EXPECT_EQ(ha.pinnedTokens(), 4176);
    EXPECT_EQ(tree.nodeCount(), 261);
    EXPECT_EQ(tree.edgeCount(), 3);

    // The same prompt again: only the copied block is read (10 head
    // tokens and 6 tail tokens), the views match by identity.
    int64_t before = tree.comparedTokens();
    EXPECT_EQ(tree.match(spanOf(tail_a)).hit_tokens, 4176);
    EXPECT_EQ(tree.comparedTokens() - before, 16);

    // Same head, another tail: identity through the head, a mismatch
    // in the straddling block's tail half.
    before = tree.comparedTokens();
    EXPECT_EQ(tree.match(spanOf(tail_b)).hit_tokens, 4080);
    EXPECT_EQ(tree.comparedTokens() - before, 16);

    // A borrowed flat copy is read in full, and matches in full.
    before = tree.comparedTokens();
    EXPECT_EQ(tree.match(all).hit_tokens, 4176);
    EXPECT_EQ(tree.comparedTokens() - before, 4176);

    // Inserting b hangs its own straddling copy and tail view below
    // the shared head view.
    PrefixHandle hb = tree.insert(spanOf(tail_b));
    EXPECT_EQ(hb.pinnedTokens(), 4176);
    EXPECT_EQ(tree.nodeCount(), 261 + 6);
    EXPECT_EQ(tree.edgeCount(), 5);
    EXPECT_EQ(tree.match(b_tokens).hit_tokens, 4176);
    tree.release(ha);
    tree.release(hb);
}

TEST(PrefixTree, BorrowedQueryIsCopiedOnceIntoOneEdge)
{
    PrefixTree tree(cfgWith(64));
    std::vector<int32_t> a = seq(0, 10 * kPage + 2);
    PrefixHandle h = tree.insert(a);
    EXPECT_EQ(tree.edgeCount(), 1);
    // The tree keeps its own copy: changing the caller's vector
    // changes nothing cached.
    const std::vector<int32_t> original = a;
    std::fill(a.begin(), a.end(), -7);
    EXPECT_EQ(tree.match(original).hit_tokens, 10 * kPage);
    EXPECT_EQ(tree.match(a).hit_tokens, 0);
    tree.release(h);
}

TEST(PrefixTree, EvictionIsOneEventPerBurst)
{
    PrefixTree tree(cfgWith(16));
    obs::Trace trace(obs::TraceConfig{64});
    double now = 2.5;
    tree.setObserver({&trace, nullptr, 1, &now});
    PrefixHandle h1 = tree.insert(seq(0, 6 * kPage));
    PrefixHandle h2 = tree.insert(seq(1000, 6 * kPage));
    tree.release(h1);
    tree.release(h2);
    EXPECT_EQ(trace.size(), 0u);

    // 8 new blocks, 4 free: one burst evicts the 4 oldest blocks (the
    // tail of the first edge) before the new edge exists.
    PrefixHandle h3 = tree.insert(seq(2000, 8 * kPage));
    EXPECT_EQ(tree.evictedTokens(), 4 * kPage);
    EXPECT_EQ(tree.match(seq(0, 6 * kPage)).hit_tokens, 2 * kPage);
    EXPECT_EQ(tree.match(seq(1000, 6 * kPage)).hit_tokens, 6 * kPage);
    // A shrink across two edges is one burst as well.
    tree.release(h3);
    tree.setBudget(3 * kBlockBytes);
    EXPECT_EQ(tree.evictedTokens(), 17 * kPage);
    if (SPECONTEXT_OBS_ENABLED) {
        ASSERT_EQ(trace.size(), 2u);
        EXPECT_EQ(trace.at(0).type, obs::EventType::PrefixEvict);
        EXPECT_EQ(trace.at(0).t_seconds, 2.5);
        EXPECT_EQ(trace.at(0).replica, 1);
        EXPECT_EQ(trace.at(0).a, 4 * kPage);
        EXPECT_EQ(trace.at(0).b, 8 * kPage);
        EXPECT_EQ(trace.at(1).a, 13 * kPage);
        EXPECT_EQ(trace.at(1).b, 3 * kPage);
    }
}

// ------------------------------------------------------- differential

/**
 * Brute-force reference tree over a fixed prompt pool: every
 * block-aligned prefix of a pool prompt is one potential node (an
 * index into flat arrays), and the victim is found by scanning every
 * node for the resident, unpinned, childless one with the oldest
 * release stamp — the rule PrefixTree's ordered index must reproduce
 * exactly.
 */
class ModelTree
{
  public:
    ModelTree(const std::vector<std::vector<int32_t>> &pool,
              int64_t budget_blocks)
        : budget_(budget_blocks)
    {
        std::map<std::vector<int32_t>, int> ids;
        for (const std::vector<int32_t> &t : pool) {
            std::vector<int> path;
            std::vector<int32_t> key;
            while (key.size() + kPage <= t.size()) {
                key.insert(key.end(), t.begin() + key.size(),
                           t.begin() + key.size() + kPage);
                const auto [it, fresh] =
                    ids.emplace(key, static_cast<int>(nodes_.size()));
                if (fresh)
                    nodes_.push_back(Node{path.empty() ? -1 : path.back()});
                path.push_back(it->second);
            }
            paths_.push_back(path);
        }
    }

    /** Outcome of one admission; `deepest` is the pinned node (-1 for
     *  none) and stands in for the handle. */
    struct Pin
    {
        int64_t estimate = 0;
        int64_t hit = 0;
        int64_t pinned = 0;
        int deepest = -1;
    };

    int64_t match(size_t prompt) const
    {
        if (budget_ == 0)
            return 0;
        int64_t blocks = 0;
        for (int id : paths_[prompt]) {
            if (!nodes_[id].resident)
                break;
            ++blocks;
        }
        return blocks * kPage;
    }

    /** match -> setBudget(resize_blocks) (if >= 0) -> match -> insert,
     *  making room block by block as each new block is added. */
    Pin matchAndPin(size_t prompt, int64_t resize_blocks)
    {
        Pin p;
        p.estimate = match(prompt);
        if (resize_blocks >= 0)
            setBudget(resize_blocks);
        if (budget_ == 0)
            return p;
        p.hit = match(prompt);
        beginBurst(); // the evictions for this insertion
        const std::vector<int> &path = paths_[prompt];
        size_t blocks = static_cast<size_t>(p.hit / kPage);
        for (size_t b = 0; b < blocks; ++b) {
            if (nodes_[path[b]].refcount++ == 0)
                pinned_ += kPage;
        }
        for (; blocks < path.size(); ++blocks) {
            while (resident_ + kPage > budget_ * kPage && evictOne()) {
            }
            if (resident_ + kPage > budget_ * kPage)
                break;
            Node &n = nodes_[path[blocks]];
            n.resident = true;
            n.refcount = 1;
            if (n.parent >= 0)
                ++nodes_[n.parent].children;
            resident_ += kPage;
            inserted_ += kPage;
            pinned_ += kPage;
        }
        p.pinned = static_cast<int64_t>(blocks) * kPage;
        p.deepest = blocks == 0 ? -1 : path[blocks - 1];
        return p;
    }

    void release(int deepest)
    {
        if (deepest < 0)
            return;
        const uint64_t stamp = ++clock_;
        for (int id = deepest; id >= 0; id = nodes_[id].parent) {
            if (--nodes_[id].refcount == 0)
                pinned_ -= kPage;
            nodes_[id].last_use = stamp;
        }
        enforce();
    }

    void setBudget(int64_t blocks)
    {
        budget_ = blocks;
        enforce();
    }

    int64_t resident() const { return resident_; }
    int64_t pinned() const { return pinned_; }
    int64_t evicted() const { return evicted_; }
    int64_t inserted() const { return inserted_; }
    int64_t nodes() const { return resident_ / kPage; }

    /** One evicted block, in victim order: the burst it belongs to
     *  (one enforce() call or one insertion), the resident tokens when
     *  that burst began, and its own tokens. */
    struct Eviction
    {
        int64_t burst;
        int64_t resident_before_burst;
        int64_t tokens;
    };
    /** Every block evicted since the last clear. */
    std::vector<Eviction> evictions;

    /** (a, b) of each PrefixEvict event the tree should have emitted
     *  for `evictions`: one per burst, a = tokens evicted in it, b =
     *  resident tokens after it — resident when the burst began minus
     *  a, since the tree evicts a whole burst before it adds any of an
     *  insertion's blocks (the model adds them in between). */
    std::vector<std::pair<int64_t, int64_t>> bursts() const
    {
        std::vector<std::pair<int64_t, int64_t>> out;
        for (size_t e = 0; e < evictions.size();) {
            const Eviction &first = evictions[e];
            int64_t a = 0;
            for (; e < evictions.size() && evictions[e].burst == first.burst;
                 ++e)
                a += evictions[e].tokens;
            out.emplace_back(a, first.resident_before_burst - a);
        }
        return out;
    }

  private:
    struct Node
    {
        int parent = -1;
        bool resident = false;
        int64_t refcount = 0;
        uint64_t last_use = 0;
        int64_t children = 0;
    };
    std::vector<Node> nodes_;
    std::vector<std::vector<int>> paths_; ///< node ids of each prompt
    int64_t budget_;
    int64_t resident_ = 0, pinned_ = 0, evicted_ = 0, inserted_ = 0;
    uint64_t clock_ = 0;
    int64_t burst_ = 0;
    int64_t burst_start_ = 0; ///< resident tokens when burst_ began

    void beginBurst()
    {
        ++burst_;
        burst_start_ = resident_;
    }

    void enforce()
    {
        beginBurst();
        while (resident_ > budget_ * kPage && evictOne()) {
        }
    }

    bool evictOne()
    {
        Node *victim = nullptr;
        for (Node &n : nodes_) {
            if (!n.resident || n.refcount > 0 || n.children > 0)
                continue;
            if (victim) {
                EXPECT_NE(n.last_use, victim->last_use)
                    << "two evictable leaves share a release stamp";
            }
            if (!victim || n.last_use < victim->last_use)
                victim = &n;
        }
        if (!victim)
            return false;
        victim->resident = false;
        if (victim->parent >= 0)
            --nodes_[victim->parent].children;
        resident_ -= kPage;
        evicted_ += kPage;
        evictions.push_back({burst_, burst_start_, kPage});
        return true;
    }
};

/** Prompt pool: a few families sharing long prefixes; variant 0 is a
 *  truncation of the shared prefix, the others extend it with
 *  two-symbol suffixes that diverge at different depths (and leave
 *  ragged tails). */
std::vector<std::vector<int32_t>>
promptPool(std::mt19937 &rng)
{
    std::vector<std::vector<int32_t>> pool;
    for (int32_t f = 0; f < 4; ++f) {
        const std::vector<int32_t> shared = seq(10000 * f, (2 + f) * kPage);
        for (int v = 0; v < 5; ++v) {
            std::vector<int32_t> p = shared;
            if (v == 0) {
                p.resize(kPage * (1 + rng() % (2 + f)) + rng() % kPage);
            } else {
                const int64_t extra = kPage * (1 + rng() % 4) + rng() % kPage;
                for (int64_t i = 0; i < extra; ++i)
                    p.push_back(static_cast<int32_t>(rng() % 2));
            }
            pool.push_back(p);
        }
    }
    return pool;
}

/**
 * The storages a pool prompt can reach the tree in: borrowed (the
 * pool's own vector), one owned block per prompt, a shared head block
 * plus an owned tail (heads are prefixes of random pool prompts, most
 * of them not block-aligned, and are shared by every prompt they
 * prefix), or a fresh owned copy per query. The model keys on
 * content, so every storage must give the same answers.
 */
class QueryStore
{
  public:
    static constexpr uint32_t kKinds = 4;

    QueryStore(const std::vector<std::vector<int32_t>> &pool,
               std::mt19937 &rng)
        : pool_(pool)
    {
        std::vector<BlockRef> heads;
        for (int h = 0; h < 8; ++h) {
            const std::vector<int32_t> &src = pool[rng() % pool.size()];
            size_t len = 1 + rng() % (src.size() - 1);
            if (h % 2 == 0 && len >= static_cast<size_t>(kPage))
                len = len / kPage * kPage; // every other one aligned
            heads.push_back(ownedBlock(src, 0, len));
        }
        for (const std::vector<int32_t> &p : pool) {
            flat_.push_back(ownedBlock(p, 0, p.size()));
            std::vector<const kv::TokenBlock *> fits;
            for (const BlockRef &h : heads) {
                const kv::TokenBlock *b = h.get();
                if (b->size() < p.size() &&
                    std::equal(b->tokens(), b->tokens() + b->size(),
                               p.begin()))
                    fits.push_back(b);
            }
            const kv::TokenBlock *head =
                fits.empty() ? nullptr : fits[rng() % fits.size()];
            with_head_.push_back(head ? ownedBlock(p, head->size(),
                                                   p.size(), head)
                                      : BlockRef());
        }
    }

    /** Prompt `i` stored as `kind` % kKinds (a prompt no head fits
     *  falls back to its owned block). Valid until the next call. */
    kv::TokenSpan
    query(size_t i, uint32_t kind)
    {
        switch (kind % kKinds) {
          case 0:
            return pool_[i];
          case 1:
            return spanOf(flat_[i]);
          case 2:
            if (!with_head_[i])
                return spanOf(flat_[i]);
            if (with_head_[i].get()->head()->size() % kPage != 0)
                ++unaligned_head_queries;
            return spanOf(with_head_[i]);
          default:
            fresh_ = ownedBlock(pool_[i], 0, pool_[i].size());
            return spanOf(fresh_);
        }
    }

    /** Head + tail queries whose boundary falls inside a block. */
    int64_t unaligned_head_queries = 0;

  private:
    const std::vector<std::vector<int32_t>> &pool_;
    std::vector<BlockRef> flat_;
    std::vector<BlockRef> with_head_;
    BlockRef fresh_;
};

/**
 * Drive `tree`-vs-ModelTree through `ops` random operations over `pool`
 * (admissions with and without a resize callback, releases, budget
 * changes; at most `max_live` live handles), each query in a random
 * QueryStore storage, and assert after every op that hits on every
 * seen prompt, all accounting and the op's PrefixEvict events (one
 * per burst, checked against the model's per-block victim log summed
 * per burst) agree. At the end the test drops its own references to
 * the owned storages, so the tree's edges keep the blocks alive while
 * the last checks run. `budget` draws a budget in blocks;
 * `deepest_hit` receives the deepest hit seen, in tokens.
 */
void
runAgainstModel(const std::vector<std::vector<int32_t>> &pool,
                std::mt19937 &rng, const std::function<int64_t()> &budget,
                size_t max_live, int ops, int64_t *deepest_hit = nullptr)
{
    const int64_t start = budget();
    PrefixTree tree(cfgWith(start));
    ModelTree model(pool, start);
    auto store = std::make_unique<QueryStore>(pool, rng);
    obs::Trace trace(obs::TraceConfig{1 << 12});
    double now = 0.0; // the op number, as the events' timestamp
    tree.setObserver({&trace, nullptr, 3, &now});
    std::set<size_t> seen;
    std::vector<std::pair<PrefixHandle, int>> live;

    for (int op = 0; op < ops; ++op) {
        now = op;
        const uint32_t r = rng() % 100;
        if (r < 50 && live.size() < max_live) {
            const size_t i = rng() % pool.size();
            seen.insert(i);
            const int64_t resize = rng() % 2 ? budget() : -1;
            const kv::TokenSpan query = store->query(i, rng());
            const ModelTree::Pin want = model.matchAndPin(i, resize);
            kv::MatchAndPinResult got;
            if (resize >= 0) {
                got = tree.matchAndPin(
                    query, [&](const PrefixMatch &estimate) {
                        EXPECT_EQ(estimate.hit_tokens, want.estimate);
                        tree.setBudget(resize * kBlockBytes);
                    });
            } else {
                got = tree.matchAndPin(query);
            }
            EXPECT_EQ(got.estimate.hit_tokens, want.estimate);
            EXPECT_EQ(got.match.hit_tokens, want.hit);
            EXPECT_EQ(got.handle.pinnedTokens(), want.pinned);
            live.emplace_back(std::move(got.handle), want.deepest);
        } else if (r < 85 && !live.empty()) {
            const size_t k = rng() % live.size();
            tree.release(live[k].first);
            model.release(live[k].second);
            live.erase(live.begin() + static_cast<long>(k));
        } else {
            const int64_t b = budget();
            tree.setBudget(b * kBlockBytes);
            model.setBudget(b);
        }

        std::vector<int64_t> got_hits, want_hits;
        for (size_t i : seen) {
            got_hits.push_back(
                tree.match(store->query(i, static_cast<uint32_t>(op + i)))
                    .hit_tokens);
            want_hits.push_back(model.match(i));
        }
        ASSERT_EQ(got_hits, want_hits) << "op " << op;
        ASSERT_EQ(tree.residentTokens(), model.resident()) << "op " << op;
        ASSERT_EQ(tree.pinnedTokens(), model.pinned()) << "op " << op;
        ASSERT_EQ(tree.nodeCount(), model.nodes()) << "op " << op;
        ASSERT_EQ(tree.evictedTokens(), model.evicted()) << "op " << op;
        ASSERT_EQ(tree.insertedTokens(), model.inserted())
            << "op " << op;
        if (SPECONTEXT_OBS_ENABLED) {
            const std::vector<std::pair<int64_t, int64_t>> bursts =
                model.bursts();
            ASSERT_EQ(trace.dropped(), 0u);
            ASSERT_EQ(trace.size(), bursts.size()) << "op " << op;
            for (size_t e = 0; e < trace.size(); ++e) {
                const obs::TraceEvent &ev = trace.at(e);
                ASSERT_EQ(ev.type, obs::EventType::PrefixEvict);
                ASSERT_EQ(ev.t_seconds, now);
                ASSERT_EQ(ev.replica, 3);
                ASSERT_EQ(ev.a, bursts[e].first) << "op " << op;
                ASSERT_EQ(ev.b, bursts[e].second) << "op " << op;
            }
        }
        trace.clear();
        model.evictions.clear();
        if (deepest_hit) {
            for (int64_t hit : got_hits)
                *deepest_hit = std::max(*deepest_hit, hit);
        }
    }
    EXPECT_GT(tree.evictedTokens(), 0);
    EXPECT_GT(store->unaligned_head_queries, 0);
    store.reset(); // the tree's edges now hold the only references
    for (size_t i : seen)
        ASSERT_EQ(tree.match(pool[i]).hit_tokens, model.match(i));
    for (auto &[handle, deepest] : live) {
        tree.release(handle);
        model.release(deepest);
    }
    EXPECT_EQ(tree.pinnedTokens(), 0);
    EXPECT_EQ(tree.residentTokens(), model.resident());
    EXPECT_EQ(tree.evictedTokens(), model.evicted());
}

TEST(PrefixTree, RandomOperationsMatchFullScanModel)
{
    for (uint32_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937 rng(seed);
        const std::vector<std::vector<int32_t>> pool = promptPool(rng);
        runAgainstModel(
            pool, rng,
            [&] {
                return rng() % 16 == 0 ? 0
                                       : static_cast<int64_t>(rng() % 24);
            },
            6, 1500);
    }
}

/** Deep prompt pool: 2-3 families whose shared prefixes are 16-48
 *  blocks long. Each family contributes its full prefix, truncations
 *  that end mid-chain (ragged tails), and variants that leave the
 *  prefix at random depths with two-symbol suffixes (so variants that
 *  diverge at the same depth may share further blocks). */
std::vector<std::vector<int32_t>>
deepPromptPool(std::mt19937 &rng)
{
    std::vector<std::vector<int32_t>> pool;
    const int32_t families = 2 + static_cast<int32_t>(rng() % 2);
    for (int32_t f = 0; f < families; ++f) {
        const int64_t blocks = 16 + rng() % 33;
        const std::vector<int32_t> shared = seq(10000 * f, blocks * kPage);
        pool.push_back(shared);
        for (int v = 0; v < 3; ++v) {
            std::vector<int32_t> p = shared;
            p.resize(kPage * (1 + rng() % (blocks - 1)) + rng() % kPage);
            pool.push_back(p);
        }
        for (int v = 0; v < 5; ++v) {
            const int64_t keep = kPage * (rng() % blocks) + rng() % kPage;
            std::vector<int32_t> p(shared.begin(), shared.begin() + keep);
            const int64_t extra = kPage * (1 + rng() % 8) + rng() % kPage;
            for (int64_t i = 0; i < extra; ++i)
                p.push_back(static_cast<int32_t>(rng() % 2));
            pool.push_back(p);
        }
    }
    return pool;
}

TEST(PrefixTree, DeepChainsMatchFullScanModel)
{
    // Long single-child chains with branch points at many depths and
    // up to 12 live handles: pins that stop at an already-pinned
    // ancestor, releases that unpin a long chain at once, and
    // evictions that walk a chain bottom-up leaf by leaf.
    for (uint32_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937 rng(seed);
        const std::vector<std::vector<int32_t>> pool = deepPromptPool(rng);
        int64_t deepest_hit = 0;
        runAgainstModel(
            pool, rng,
            [&] {
                return rng() % 16 == 0
                           ? 0
                           : static_cast<int64_t>(8 + rng() % 120);
            },
            12, 1500, &deepest_hit);
        EXPECT_GE(deepest_hit, 16 * kPage);
    }
}

/** Sibling-heavy prompt pool over a three-symbol alphabet: at the
 *  root and below shared family prefixes, many children start with the
 *  same token and differ later in their first block, so the child
 *  search must compare blocks among equal first tokens; the short
 *  alphabet also makes later divergences split edges. */
std::vector<std::vector<int32_t>>
siblingPromptPool(std::mt19937 &rng)
{
    std::vector<std::vector<int32_t>> pool;
    const auto appendRandom = [&](std::vector<int32_t> &p, int64_t n) {
        for (int64_t i = 0; i < n; ++i)
            p.push_back(static_cast<int32_t>(rng() % 3));
    };
    for (int v = 0; v < 12; ++v) {
        std::vector<int32_t> p;
        appendRandom(p, kPage * (1 + rng() % 4) + rng() % kPage);
        pool.push_back(p);
    }
    for (int32_t f = 0; f < 2; ++f) {
        const std::vector<int32_t> shared = seq(10000 * (f + 1), 2 * kPage);
        for (int v = 0; v < 6; ++v) {
            std::vector<int32_t> p = shared;
            appendRandom(p, kPage * (1 + rng() % 3) + rng() % kPage);
            pool.push_back(p);
        }
    }
    return pool;
}

/** Parents (block-aligned prefixes) in `pool` with two children whose
 *  first blocks differ but start with the same token, split by whether
 *  the parent is the root. */
std::pair<int, int>
equalFirstTokenParents(const std::vector<std::vector<int32_t>> &pool)
{
    std::map<std::pair<std::vector<int32_t>, int32_t>,
             std::set<std::vector<int32_t>>>
        children;
    for (const std::vector<int32_t> &t : pool)
        for (size_t at = 0; at + kPage <= t.size(); at += kPage)
            children[{std::vector<int32_t>(t.begin(), t.begin() + at),
                      t[at]}]
                .insert(std::vector<int32_t>(t.begin() + at,
                                             t.begin() + at + kPage));
    int root = 0, inner = 0;
    for (const auto &[key, blocks] : children)
        if (blocks.size() > 1)
            ++(key.first.empty() ? root : inner);
    return {root, inner};
}

TEST(PrefixTree, EqualFirstTokenSiblingsMatchFullScanModel)
{
    // The child search binary-searches the first tokens each node
    // keeps with its child links and compares blocks only among
    // children sharing the query's first token; those tokens must
    // follow every insertion, split and eviction. Any child picked other than the one a lower_bound over
    // whole first blocks picks would end a walk short of the model's
    // hit.
    for (uint32_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        std::mt19937 rng(seed);
        const std::vector<std::vector<int32_t>> pool =
            siblingPromptPool(rng);
        const auto [root, inner] = equalFirstTokenParents(pool);
        EXPECT_GT(root, 0);
        EXPECT_GT(inner, 0);
        runAgainstModel(
            pool, rng,
            [&] {
                return rng() % 16 == 0 ? 0
                                       : static_cast<int64_t>(rng() % 40);
            },
            6, 1500);
    }
}

} // namespace
} // namespace specontext
