/**
 * @file
 * Shared-prefix KV cache model: a per-replica radix tree over token-id
 * sequences with block-granular nodes, pin counts and LRU eviction
 * under a byte budget — the memory-side model behind prefix-affinity
 * routing (serving::RouterPolicy::PrefixAffinity).
 *
 * Production traffic is dominated by requests that share long prompt
 * prefixes (system prompts, few-shot templates, multi-turn history).
 * A replica that still holds the KV blocks of a previously served
 * prefix can skip prefill for the matched tokens entirely; what it
 * pays instead is HBM residency for the cached blocks, which competes
 * with live KV headroom. This tree models exactly that trade:
 *
 *  - The cache unit is a page-size-aligned token block (vLLM-style):
 *    only complete blocks are cached, so a match is always
 *    block-aligned and maps one-to-one onto paged KV storage.
 *  - match(tokens) returns the longest cached block-aligned prefix
 *    and the HBM bytes it occupies; it never mutates the tree.
 *  - insert(tokens) pins the cached prefix path and extends it with
 *    the remaining full blocks while the byte budget lasts, returning
 *    a handle the caller releases at retirement. Pinned nodes are
 *    never evicted — they are the KV of an in-flight request and
 *    freeing them would fabricate memory.
 *  - release(handle) unpins the path and stamps the handle's node
 *    with a logical LRU timestamp; unpinned leaves are then
 *    evictable, bottom-up, least-recently-released first. Evictable
 *    leaves sit in an index ordered by stamp, so evicting costs
 *    O(log n) per edge emptied in the number of evictable leaves,
 *    not a tree scan.
 *  - setBudget() re-clamps the budget (the serving layer shrinks it
 *    to the HBM headroom left by live KV reservations, priced through
 *    sim::MemoryModel); shrinking evicts unpinned subtrees
 *    immediately. Budget 0 disables the cache entirely.
 *
 * Layout. The tree is path-compressed (the radix layout of SGLang's
 * RadixAttention): each node is an edge, a run of one or more blocks
 * whose tokens are contiguous. The tree keeps no token copies of its
 * own where it can avoid it: an edge is a view (pointer, length) into
 * an immutable refcounted TokenBlock that the edge holds a reference
 * on, so an insertion or a split moves no tokens. Queries arrive as a
 * TokenSpan of at most two pieces (a serving::PromptTokens' shared
 * head and its tail, or a borrowed std::vector), and a new edge's
 * tokens come from the query:
 *  - a run of whole blocks inside one owned piece is a view of that
 *    piece;
 *  - a run that crosses the head/tail boundary is split there, and
 *    when the boundary falls inside a block, that one straddling block
 *    goes into a tree-owned copy;
 *  - a borrowed piece is copied once into a tree-owned block.
 * These extra edge boundaries are ordinary ones under the split and
 * stamp rules below (an inner edge boundary that ends no handle).
 *
 * Matching compares tokens, with one exact shortcut. A walk costs one
 * compare per edge rather than one node hop per block: at a node with
 * several children a lower_bound on the first block picks the edge
 * (each node keeps its children's first tokens next to their indices,
 * so the search loads only the children that share the query's first
 * token), then kv::equalPrefix() counts the equal leading tokens of as much of
 * the edge as the query has full blocks, floored to a block where the
 * match stops. Where the query's piece points at the very tokens the
 * edge views, that run is equal without reading it: the edge keeps
 * the memory alive and nobody writes a block after it is shared, so
 * equal addresses mean equal tokens. Every other run is compared by
 * content (comparedTokens() counts it), so the answer never depends
 * on where the tokens are stored, only the cost does: a warm family
 * prefix costs one pointer compare per edge instead of a memcmp of
 * its length. Nodes are addressed by int32 index and live in
 * fixed-size chunks (256 nodes each); freed slots go onto a free list
 * and are reused, dropping their block reference. nodeCount() still
 * counts blocks; edgeCount() counts edges.
 *
 * Split rule. Edges split at branch points and wherever a handle
 * ends, so no block inside an edge has ever had a second child or
 * ended a handle. A match that ends inside an edge splits it there:
 * the *upper* part moves to a new slot (stamp 0, no handles, pinned
 * through its one child iff the edge was pinned) and the lower part
 * keeps the old index, so live handles, child links and index entries
 * stay valid. An insertion's new blocks go into a chain of new edges
 * below the match (one, unless the layout rules above cut it), as
 * many blocks as the budget allows. Edges never merge.
 *
 * Pins. An edge counts the live handles that end on its last block
 * and its pinned children; it is pinned iff either count is non-zero.
 * Every block of an edge is pinned exactly when the edge is (inner
 * blocks end no handle and have one child). pin and release walk
 * upward only while an edge flips between unpinned and pinned, adding
 * or subtracting its whole length, so a request whose prefix is
 * already pinned by another touches only its own new edge.
 *
 * Stamps. release stamps only the handle's edge; eviction folds the
 * victim's stamp into its parent (max) before the parent can become
 * an evictable leaf. By then every descendant has been evicted and
 * folded in, so a leaf's stamp is the newest release among the
 * handles that ended in its subtree — the stamp an eager root-path
 * write would have given it. Stamps are unique per release, two
 * evictable leaves have disjoint subtrees, and every evictable leaf
 * has seen a release in its subtree (nodes are born pinned), so no
 * two evictable leaves ever tie: the victim order is total and
 * independent of where nodes live.
 *
 * Eviction is per block, done in bursts. The victim order is exactly
 * per-block LRU: an inner block never ended a handle and its only
 * child was the next block, so when it becomes a leaf its per-block
 * stamp equals the edge's stamp, and per-block eviction of the oldest
 * leaf is "trim the tail of the oldest leaf edge" until the edge is
 * gone (it keeps its index entry, same key, until then; then it is
 * unlinked and its stamp folded into the parent). A burst trims whole
 * runs that way: enforcing the budget evicts what it must in one
 * burst, and an insertion first evicts, in one burst, what its new
 * blocks need (the fewest blocks that let them all fit, or every
 * evictable block when they cannot), then creates its edges. New
 * blocks are pinned and never victims, so this picks exactly the
 * blocks a make-room-per-block loop would. Each burst emits one
 * PrefixEvict event (a = tokens evicted, b = resident tokens after)
 * and one counter add.
 *
 * Everything is deterministic: children are kept in token-content
 * order and LRU stamps come from a logical counter, so identical
 * operation sequences give identical trees, matches and evictions.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "kvcache/token_block.h"
#include "kvcache/token_span.h"
#include "obs/counters.h"
#include "obs/trace.h"

namespace specontext {
namespace kv {

/**
 * Observability hooks of one tree (all optional): eviction events go
 * to `trace` stamped with `*clock` (the owning replica's simulated
 * time — the tree itself has no clock) and the lifetime
 * evicted-token counter publishes into `counters` under
 * `replica<replica>.prefix_evicted_tokens`. Pointers are non-owning
 * and must outlive the tree.
 */
struct PrefixTreeObserver
{
    obs::Trace *trace = nullptr;
    obs::CounterRegistry *counters = nullptr;
    int32_t replica = -1;
    const double *clock = nullptr;
};

/** Construction knobs of one replica's prefix cache. */
struct PrefixTreeConfig
{
    /** Tokens per cached block; matches are aligned to this. */
    int64_t page_size = 16;
    /** HBM bytes one cached token occupies (KV across all layers). */
    int64_t bytes_per_token = 0;
    /** Byte budget for cached blocks; 0 disables the cache. */
    int64_t budget_bytes = 0;
};

/** Outcome of one longest-prefix lookup. */
struct PrefixMatch
{
    int64_t hit_tokens = 0;     ///< cached block-aligned prefix length
    int64_t reserved_bytes = 0; ///< hit_tokens * bytes_per_token
};

/**
 * Pin on an inserted prefix path; obtained from insert(), returned to
 * release(). A default-constructed handle is a no-op to release.
 */
class PrefixHandle
{
  public:
    PrefixHandle() = default;

    /** Tokens of the path this handle pins (block-aligned). */
    int64_t pinnedTokens() const { return pinned_tokens_; }

  private:
    friend class PrefixTree;
    int32_t node_ = -1; ///< edge ending on the deepest pinned block
                        ///< (-1: none)
    int64_t pinned_tokens_ = 0;
};

/**
 * Outcome of one combined match-and-pin traversal — the fused form of
 * the admission sequence that used to take three separate tree walks
 * (new-block estimate, post-resize hit lookup, insert).
 */
struct MatchAndPinResult
{
    /** Cached prefix found *before* the resize callback ran — the
     *  "new-block estimate" of the legacy three-walk admission path
     *  (estimate.hit_tokens tokens of the prompt are already
     *  resident, so only the remaining full blocks are new). */
    PrefixMatch estimate;
    /** Cached prefix actually pinned, re-read after the callback (a
     *  budget shrink inside it may have evicted part of the
     *  estimate); equals `estimate` when no callback evicted. */
    PrefixMatch match;
    /** Pin on the full inserted path (match + newly created blocks);
     *  must be release()d exactly once. */
    PrefixHandle handle;
};

/** Radix tree of cached prompt-prefix KV blocks. */
class PrefixTree
{
  public:
    /**
     * @throws std::invalid_argument on non-positive page_size, a
     * negative budget, or an enabled cache (budget > 0) with
     * non-positive bytes_per_token.
     */
    explicit PrefixTree(PrefixTreeConfig cfg);
    ~PrefixTree();

    PrefixTree(const PrefixTree &) = delete;
    PrefixTree &operator=(const PrefixTree &) = delete;

    const PrefixTreeConfig &config() const { return cfg_; }

    /** False when the budget is 0 — every operation is then a no-op. */
    bool enabled() const { return cfg_.budget_bytes > 0; }

    /** Attach observability hooks (see PrefixTreeObserver); resolves
     *  counter slots once. Call before the first insert/eviction. */
    void setObserver(const PrefixTreeObserver &observer);

    /** Longest cached block-aligned prefix of `tokens`. Read-only. */
    PrefixMatch match(TokenSpan tokens) const;

    /**
     * Pin the cached prefix of `tokens` and insert its remaining full
     * blocks while the budget lasts (evicting unreferenced LRU leaves
     * to make room; pinned nodes are never evicted, so the path may
     * stop short of the full prompt when the budget is exhausted).
     * The returned handle must be release()d exactly once.
     */
    PrefixHandle insert(TokenSpan tokens);

    /**
     * Combined admission traversal: match the cached prefix of
     * `tokens`, hand the pre-resize match to `resize` (the serving
     * layer re-clamps the budget there, which may evict), then pin the
     * surviving prefix and extend it with the remaining full blocks —
     * insert() semantics — all in one walk. Bit-for-bit equivalent to
     * the legacy three-walk sequence match() -> resize -> match() ->
     * insert(): the matched node path is remembered across the
     * callback and re-walked from the root only when the callback
     * actually evicted (so held nodes can never dangle).
     * With the cache disabled after the callback, nothing is pinned
     * and the returned handle is a no-op to release.
     */
    MatchAndPinResult matchAndPin(
        TokenSpan tokens,
        const std::function<void(const PrefixMatch &estimate)> &resize =
            nullptr);

    /** Unpin a handle's path and stamp it least-recently-used; the
     *  budget is re-enforced afterwards. Safe on a default-constructed
     *  handle; the handle is cleared (double release is a no-op). */
    void release(PrefixHandle &handle);

    /**
     * Re-clamp the byte budget (>= 0) and evict unreferenced LRU
     * subtrees down to it. Pinned bytes can keep residency above a
     * shrunken budget until their handles are released; insertions
     * never start new blocks past the budget.
     */
    void setBudget(int64_t budget_bytes);

    // ---- Accounting --------------------------------------------------

    /** Bytes of cached KV currently resident. */
    int64_t bytes() const { return resident_tokens_ * cfg_.bytes_per_token; }

    /** Tokens of cached KV currently resident. */
    int64_t residentTokens() const { return resident_tokens_; }

    /** Tokens of resident blocks pinned by at least one live handle —
     *  the prompt KV of in-flight requests. Callers that already book
     *  that KV elsewhere (admission reservations) can add
     *  pinnedBytes() to the budget so one physical copy is not
     *  charged twice. */
    int64_t pinnedTokens() const { return pinned_tokens_; }

    /** pinnedTokens() priced in bytes. */
    int64_t pinnedBytes() const
    {
        return pinned_tokens_ * cfg_.bytes_per_token;
    }

    /** Cached blocks (root excluded). */
    int64_t nodeCount() const { return node_count_; }

    /** Edges (runs of blocks stored together, root excluded); at most
     *  nodeCount(), and far fewer while cached prompts share long
     *  unbranched runs. */
    int64_t edgeCount() const { return edge_count_; }

    /** Tokens evicted over the tree's lifetime. */
    int64_t evictedTokens() const { return evicted_tokens_; }

    /** Tokens inserted (new blocks created) over the tree's lifetime. */
    int64_t insertedTokens() const { return inserted_tokens_; }

    /** Tokens the walks have read by content over the tree's lifetime
     *  (edge compares, in whole 64-token chunks; a run the query views
     *  in the same memory as the edge costs none, and the child
     *  search's first-block compares are not counted). Host work, not
     *  a simulated quantity: prompts with equal tokens in different
     *  storage give different counts. */
    int64_t comparedTokens() const { return compared_tokens_; }

  private:
    struct Node;

    PrefixTreeConfig cfg_;
    /** Edge slots (root = index 0) in fixed chunks of kChunk. */
    std::vector<std::unique_ptr<Node[]>> nodes_;
    int32_t slots_ = 0;     ///< slots handed out so far
    int32_t free_head_ = -1; ///< recycled slots, linked through parent
    int64_t resident_tokens_ = 0;
    int64_t pinned_tokens_ = 0;
    int64_t node_count_ = 0;
    int64_t edge_count_ = 0;
    int64_t evicted_tokens_ = 0;
    int64_t inserted_tokens_ = 0;
    mutable int64_t compared_tokens_ = 0; ///< bumped by const walks
    uint64_t lru_clock_ = 0; ///< logical time, bumped on release
    /** Exactly the evictable edges — unpinned, childless, non-root —
     *  keyed by (stamp, index); begin()'s last block is the next
     *  victim. */
    std::set<std::pair<uint64_t, int32_t>> evictable_;
    /** Bumped on every eviction burst; matchAndPin() uses it to
     *  detect that an edge held across the resize callback may have
     *  lost its tail or been recycled and must be re-walked. */
    uint64_t eviction_epoch_ = 0;
    PrefixTreeObserver observer_;
    obs::CounterRegistry::Handle evicted_counter_ = 0;

    /** Where a walk stopped: the deepest edge it entered (the root
     *  when nothing matches) and the tokens matched. A depth short of
     *  the edge's depth_tokens means the match ends inside it. */
    struct Walk
    {
        int32_t node;
        int64_t depth;
    };

    Node &node(int32_t i) const;

    /** An unlinked slot, recycled or new; counts one more edge. */
    int32_t newSlot();

    /** A fresh child edge of `parent` viewing `len` tokens from `data`
     *  inside `owner`, linked into the parent's sorted child list. */
    int32_t newEdge(int32_t parent, const int32_t *data, int64_t len,
                    BlockRef owner);

    /** Cache tokens[from, to) (whole blocks) as a chain of fresh edges
     *  below `at`, moving the caller's pin from `at` down to the last
     *  one, which is returned. Accounting is the caller's. */
    int32_t appendRun(int32_t at, TokenSpan tokens, size_t from,
                      size_t to);

    /** Split edge `lower` after the block ending at `depth` tokens:
     *  the part above moves to a new slot, which is returned. */
    int32_t splitAbove(int32_t lower, int64_t depth);

    /** The cached block-aligned prefix of `tokens`. */
    Walk walkMatch(TokenSpan tokens) const;

    /** Add one handle on edge `n`, pinning the ancestors that flip. */
    void pin(int32_t n);

    /** Evict unpinned LRU blocks until bytes() <= budget, in one
     *  burst. */
    void enforceBudget();

    /** One eviction burst: up to `tokens` tokens (whole blocks) in
     *  per-block LRU order, trimming whole runs off the
     *  least-recently-released unpinned leaf edge (the minimum of
     *  evictable_, O(log n) per edge) and then the next. Emits one
     *  PrefixEvict event and one counter add when anything was
     *  evicted (less than asked when everything left is pinned). */
    void evict(int64_t tokens);
};

} // namespace kv
} // namespace specontext
