#include "kvcache/prefix_tree.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace specontext {
namespace kv {

namespace {

constexpr int32_t kChunkShift = 8;
/** Edges per storage chunk: 256 node headers (~20 KiB) — each chunk a
 *  small malloc; the tokens live in each edge's own buffer. */
constexpr int32_t kChunk = int32_t{1} << kChunkShift;
constexpr int32_t kRoot = 0;

/** Lexicographic token order (std::vector's operator<), the order
 *  children are kept in by their first block. */
bool
blockLess(const int32_t *a, const int32_t *b, size_t n)
{
    return std::lexicographical_compare(a, a + n, b, b + n);
}

} // namespace

/** One cached edge: a run of blocks with contiguous tokens. */
struct PrefixTree::Node
{
    /** Parent index (-1 on the root); on a free slot, the next free
     *  slot. */
    int32_t parent = -1;
    int32_t handles = 0;     ///< live handles ending on the last block
    int32_t pinned_kids = 0; ///< children that are pinned
    uint64_t last_use = 0;   ///< newest release stamp seen (see file doc)
    int64_t depth_tokens = 0; ///< tokens from root through the last block
    /** The edge's blocks, page_size tokens each (empty on the root and
     *  on free slots). */
    std::vector<int32_t> tokens;
    /** Child indices, sorted by first block. */
    std::vector<int32_t> kids;

    bool pinned() const { return handles > 0 || pinned_kids > 0; }
};

PrefixTree::PrefixTree(PrefixTreeConfig cfg) : cfg_(cfg)
{
    if (cfg_.page_size <= 0)
        throw std::invalid_argument("PrefixTree: non-positive page_size");
    if (cfg_.budget_bytes < 0)
        throw std::invalid_argument("PrefixTree: negative budget");
    if (cfg_.budget_bytes > 0 && cfg_.bytes_per_token <= 0)
        throw std::invalid_argument(
            "PrefixTree: enabled cache needs positive bytes_per_token");
    nodes_.push_back(std::make_unique<Node[]>(kChunk));
    slots_ = 1; // the root, kRoot
}

PrefixTree::~PrefixTree() = default;

PrefixTree::Node &
PrefixTree::node(int32_t i) const
{
    return nodes_[i >> kChunkShift][i & (kChunk - 1)];
}

int32_t
PrefixTree::newSlot()
{
    int32_t i = free_head_;
    if (i >= 0) {
        free_head_ = node(i).parent;
    } else {
        i = slots_++;
        if ((i & (kChunk - 1)) == 0)
            nodes_.push_back(std::make_unique<Node[]>(kChunk));
    }
    ++edge_count_;
    return i;
}

int32_t
PrefixTree::newEdge(int32_t parent, const int32_t *block, size_t reserve)
{
    const int32_t i = newSlot();
    const size_t page = static_cast<size_t>(cfg_.page_size);
    Node &n = node(i);
    Node &p = node(parent);
    n.parent = parent;
    n.last_use = 0;
    n.depth_tokens = p.depth_tokens + cfg_.page_size;
    n.tokens.reserve(reserve);
    n.tokens.assign(block, block + page);
    std::vector<int32_t> &kids = p.kids;
    kids.insert(std::lower_bound(kids.begin(), kids.end(), block,
                                 [&](int32_t kid, const int32_t *b) {
                                     return blockLess(
                                         node(kid).tokens.data(), b, page);
                                 }),
                i);
    return i;
}

int32_t
PrefixTree::splitAbove(int32_t lower, int64_t depth)
{
    const int32_t upper = newSlot();
    Node &lo = node(lower);
    Node &up = node(upper);
    const size_t keep =
        lo.tokens.size() - static_cast<size_t>(lo.depth_tokens - depth);
    up.parent = lo.parent;
    up.pinned_kids = lo.pinned() ? 1 : 0;
    up.last_use = 0; // no handle ever ended inside the edge
    up.depth_tokens = depth;
    up.tokens.assign(lo.tokens.begin(), lo.tokens.begin() + keep);
    up.kids.assign(1, lower);
    lo.tokens.erase(lo.tokens.begin(), lo.tokens.begin() + keep);
    lo.parent = upper;
    // Same first block, so the parent's child order is unchanged.
    std::vector<int32_t> &siblings = node(up.parent).kids;
    *std::find(siblings.begin(), siblings.end(), lower) = upper;
    return upper;
}

void
PrefixTree::setObserver(const PrefixTreeObserver &observer)
{
    observer_ = observer;
    if (observer_.counters) {
        evicted_counter_ = observer_.counters->counter(
            "replica" + std::to_string(observer_.replica) +
            ".prefix_evicted_tokens");
    }
}

PrefixTree::Walk
PrefixTree::walkMatch(TokenSpan tokens) const
{
    const size_t page = static_cast<size_t>(cfg_.page_size);
    const int32_t *query = tokens.data();
    size_t left = tokens.size() / page * page; // unmatched full blocks
    Walk w{kRoot, 0};
    while (left > 0) {
        const std::vector<int32_t> &kids = node(w.node).kids;
        int32_t next;
        if (kids.size() == 1) {
            next = kids.front();
        } else {
            const auto it = std::lower_bound(
                kids.begin(), kids.end(), query,
                [&](int32_t kid, const int32_t *b) {
                    return blockLess(node(kid).tokens.data(), b, page);
                });
            if (it == kids.end())
                break;
            next = *it;
        }
        const std::vector<int32_t> &edge = node(next).tokens;
        const size_t len = std::min(edge.size(), left);
        if (std::memcmp(edge.data(), query, len * sizeof(int32_t)) != 0) {
            // Stop inside the edge, at the last fully equal block.
            const size_t same = static_cast<size_t>(
                std::mismatch(edge.data(), edge.data() + len, query).first -
                edge.data());
            if (same >= page) {
                w.node = next;
                w.depth += static_cast<int64_t>(same / page * page);
            }
            break;
        }
        w.node = next;
        w.depth += static_cast<int64_t>(len);
        if (len < edge.size())
            break; // the query ends inside the edge
        query += len;
        left -= len;
    }
    return w;
}

PrefixMatch
PrefixTree::match(TokenSpan tokens) const
{
    PrefixMatch m;
    if (!enabled())
        return m;
    m.hit_tokens = walkMatch(tokens).depth;
    m.reserved_bytes = m.hit_tokens * cfg_.bytes_per_token;
    return m;
}

PrefixHandle
PrefixTree::insert(TokenSpan tokens)
{
    return matchAndPin(tokens).handle;
}

MatchAndPinResult
PrefixTree::matchAndPin(
    TokenSpan tokens,
    const std::function<void(const PrefixMatch &estimate)> &resize)
{
    MatchAndPinResult out;

    // Walk 1 (fused): the pre-resize cached prefix, remembered as its
    // deepest edge so the post-callback phases need no second descent.
    Walk w{-1, 0};
    if (enabled()) {
        w = walkMatch(tokens);
        out.estimate.hit_tokens = w.depth;
        out.estimate.reserved_bytes =
            out.estimate.hit_tokens * cfg_.bytes_per_token;
    }

    const uint64_t epoch = eviction_epoch_;
    if (resize)
        resize(out.estimate);
    if (!enabled())
        return out; // budget (still) 0 after the callback: no-op pin

    // Walk 2 (usually skipped): the held edge is stale only when the
    // callback evicted (its tail may be gone or its slot recycled) —
    // or when the cache was disabled at entry so walk 1 never ran (the
    // callback may just have revived it).
    if (w.node < 0 || eviction_epoch_ != epoch)
        w = walkMatch(tokens);
    out.match.hit_tokens = w.depth;
    out.match.reserved_bytes =
        out.match.hit_tokens * cfg_.bytes_per_token;

    // A match that ends inside an edge splits it there, so the handle
    // ends on an edge's last block. Then pin the matched prefix; the
    // pin makes the whole path eviction-proof while it is extended.
    int32_t at = w.node;
    if (w.depth < node(at).depth_tokens)
        at = splitAbove(at, w.depth);
    pin(at);
    const size_t page = static_cast<size_t>(cfg_.page_size);
    const size_t full_tokens = tokens.size() / page * page;
    const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
    int32_t fresh = -1; // the one new edge holding the new blocks
    for (size_t t = static_cast<size_t>(w.depth); t < full_tokens;
         t += page) {
        // New block: make room first.
        while (bytes() + block_bytes > cfg_.budget_bytes) {
            if (!evictOne())
                break;
        }
        if (bytes() + block_bytes > cfg_.budget_bytes)
            break; // budget exhausted; pin what we have
        const int32_t *block = tokens.data() + t;
        if (fresh < 0) {
            // The request's pin moves from the matched edge onto its
            // fresh child; the parent stays pinned through the child.
            fresh = newEdge(at, block, full_tokens - t);
            Node &parent = node(at);
            --parent.handles;
            ++parent.pinned_kids;
            node(fresh).handles = 1;
        } else {
            Node &f = node(fresh);
            f.tokens.insert(f.tokens.end(), block, block + page);
            f.depth_tokens += cfg_.page_size;
        }
        resident_tokens_ += cfg_.page_size;
        inserted_tokens_ += cfg_.page_size;
        pinned_tokens_ += cfg_.page_size;
        ++node_count_;
    }
    if (fresh >= 0)
        at = fresh;
    if (at == kRoot) {
        --node(kRoot).handles; // nothing cached: nothing to hand out
    } else {
        out.handle.node_ = at;
        out.handle.pinned_tokens_ = node(at).depth_tokens;
    }
    return out;
}

void
PrefixTree::pin(int32_t at)
{
    bool was_pinned = node(at).pinned();
    ++node(at).handles;
    while (!was_pinned && at != kRoot) {
        Node &n = node(at);
        pinned_tokens_ += static_cast<int64_t>(n.tokens.size());
        if (n.kids.empty())
            evictable_.erase({n.last_use, at});
        at = n.parent;
        Node &parent = node(at);
        was_pinned = parent.pinned();
        ++parent.pinned_kids;
    }
}

void
PrefixTree::release(PrefixHandle &handle)
{
    int32_t at = handle.node_;
    handle.node_ = -1;
    handle.pinned_tokens_ = 0;
    if (at < 0)
        return;
    Node &held = node(at);
    if (held.handles <= 0)
        throw std::logic_error("PrefixTree: release without pin");
    --held.handles;
    // Only the handle's edge is stamped; ancestors learn the stamp
    // when their descendants are evicted (see evictOne()).
    held.last_use = ++lru_clock_;
    // Unpin upward while edges flip: the first ancestor still pinned
    // by another handle or child stops the walk.
    while (at != kRoot && !node(at).pinned()) {
        Node &n = node(at);
        pinned_tokens_ -= static_cast<int64_t>(n.tokens.size());
        if (n.kids.empty())
            evictable_.emplace(n.last_use, at);
        at = n.parent;
        --node(at).pinned_kids;
    }
    enforceBudget();
}

void
PrefixTree::setBudget(int64_t budget_bytes)
{
    if (budget_bytes < 0)
        throw std::invalid_argument("PrefixTree: negative budget");
    if (budget_bytes > 0 && cfg_.bytes_per_token <= 0)
        throw std::invalid_argument(
            "PrefixTree: enabled cache needs positive bytes_per_token");
    cfg_.budget_bytes = budget_bytes;
    enforceBudget();
}

bool
PrefixTree::evictOne()
{
    // The oldest stamp among evictable leaf edges. Stamps are unique
    // among them (see the file comment), so its last block is exactly
    // the block a full per-block scan for the minimum stamp would pick.
    if (evictable_.empty())
        return false;
    const auto oldest = evictable_.begin();
    const int32_t victim = oldest->second;
    Node &v = node(victim);
    v.tokens.resize(v.tokens.size() - static_cast<size_t>(cfg_.page_size));
    v.depth_tokens -= cfg_.page_size;
    // The edge's new last block inherits its stamp, so a non-empty
    // edge keeps its index entry and stays the next victim.
    if (v.tokens.empty()) {
        auto entry = evictable_.extract(oldest);
        Node &parent = node(v.parent);
        parent.kids.erase(
            std::find(parent.kids.begin(), parent.kids.end(), victim));
        // Fold the victim's stamp in before the parent can become
        // evictable: it then carries the newest release of its subtree.
        parent.last_use = std::max(parent.last_use, v.last_use);
        // An unpinned parent left childless becomes evictable under
        // that stamp, which can be older than edges already listed —
        // so it may be the very next victim (no append-to-tail LRU
        // list). (It reuses the victim's index entry: a chain evicted
        // bottom-up allocates nothing.)
        if (v.parent != kRoot && !parent.pinned() && parent.kids.empty()) {
            entry.value() = {parent.last_use, v.parent};
            evictable_.insert(std::move(entry));
        }
        v.parent = free_head_;
        free_head_ = victim;
        --edge_count_;
    }
    resident_tokens_ -= cfg_.page_size;
    evicted_tokens_ += cfg_.page_size;
    --node_count_;
    ++eviction_epoch_;
    if (observer_.counters)
        observer_.counters->add(evicted_counter_, cfg_.page_size);
    OBS_EVENT(observer_.trace, obs::EventType::PrefixEvict,
              observer_.clock ? *observer_.clock : 0.0,
              observer_.replica, -1, cfg_.page_size, resident_tokens_);
    return true;
}

void
PrefixTree::enforceBudget()
{
    while (bytes() > cfg_.budget_bytes) {
        if (!evictOne())
            break; // everything left is pinned
    }
}

} // namespace kv
} // namespace specontext
