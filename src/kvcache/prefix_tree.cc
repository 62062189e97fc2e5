#include "kvcache/prefix_tree.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

namespace specontext {
namespace kv {

namespace {

constexpr int32_t kChunkShift = 8;
/** Nodes per storage chunk: 256 nodes (~14 KiB) plus their token
 *  slab (16 KiB at page 16) — each chunk a small malloc. */
constexpr int32_t kChunk = int32_t{1} << kChunkShift;
constexpr int32_t kRoot = 0;

/** Lexicographic token order (std::vector's operator<), the order
 *  children are kept in. */
bool
blockLess(const int32_t *a, const int32_t *b, size_t n)
{
    return std::lexicographical_compare(a, a + n, b, b + n);
}

} // namespace

/** One cached block; its tokens live in the tree's token slab. */
struct PrefixTree::Node
{
    /** Parent index (-1 on the root); on a free slot, the next free
     *  slot. */
    int32_t parent = -1;
    int32_t handles = 0;     ///< live handles whose deepest node this is
    int32_t pinned_kids = 0; ///< children that are pinned
    uint64_t last_use = 0;   ///< newest release stamp seen (see file doc)
    int64_t depth_tokens = 0; ///< tokens from root through this block
    /** Child indices, sorted by block content. */
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
    tokens_.push_back(
        std::make_unique<int32_t[]>(kChunk * cfg_.page_size));
    slots_ = 1; // the root, kRoot
}

PrefixTree::~PrefixTree() = default;

PrefixTree::Node &
PrefixTree::node(int32_t i) const
{
    return nodes_[i >> kChunkShift][i & (kChunk - 1)];
}

const int32_t *
PrefixTree::blockTokens(int32_t i) const
{
    return tokens_[i >> kChunkShift].get() +
           (i & (kChunk - 1)) * cfg_.page_size;
}

int32_t
PrefixTree::newNode(int32_t parent, const int32_t *block)
{
    int32_t i = free_head_;
    if (i >= 0) {
        free_head_ = node(i).parent;
    } else {
        i = slots_++;
        if ((i & (kChunk - 1)) == 0) {
            nodes_.push_back(std::make_unique<Node[]>(kChunk));
            tokens_.push_back(
                std::make_unique<int32_t[]>(kChunk * cfg_.page_size));
        }
    }
    const size_t page = static_cast<size_t>(cfg_.page_size);
    std::copy(block, block + page,
              tokens_[i >> kChunkShift].get() + (i & (kChunk - 1)) * page);
    Node &n = node(i);
    Node &p = node(parent);
    n.parent = parent;
    n.last_use = 0;
    n.depth_tokens = p.depth_tokens + cfg_.page_size;
    std::vector<int32_t> &kids = p.kids;
    kids.insert(std::lower_bound(kids.begin(), kids.end(), block,
                                 [&](int32_t kid, const int32_t *b) {
                                     return blockLess(blockTokens(kid), b,
                                                      page);
                                 }),
                i);
    return i;
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

int32_t
PrefixTree::walkMatch(const std::vector<int32_t> &tokens) const
{
    const size_t page = static_cast<size_t>(cfg_.page_size);
    const size_t bytes = page * sizeof(int32_t);
    const int32_t *block = tokens.data();
    const int32_t *const end = block + tokens.size() / page * page;
    int32_t at = kRoot;
    for (; block != end; block += page) {
        const std::vector<int32_t> &kids = node(at).kids;
        int32_t next;
        if (kids.size() == 1) {
            next = kids.front();
        } else {
            const auto it = std::lower_bound(
                kids.begin(), kids.end(), block,
                [&](int32_t kid, const int32_t *b) {
                    return blockLess(blockTokens(kid), b, page);
                });
            if (it == kids.end())
                break;
            next = *it;
        }
        if (std::memcmp(blockTokens(next), block, bytes) != 0)
            break;
        at = next;
    }
    return at;
}

PrefixMatch
PrefixTree::match(const std::vector<int32_t> &tokens) const
{
    PrefixMatch m;
    if (!enabled())
        return m;
    m.hit_tokens = node(walkMatch(tokens)).depth_tokens;
    m.reserved_bytes = m.hit_tokens * cfg_.bytes_per_token;
    return m;
}

PrefixHandle
PrefixTree::insert(const std::vector<int32_t> &tokens)
{
    return matchAndPin(tokens).handle;
}

MatchAndPinResult
PrefixTree::matchAndPin(
    const std::vector<int32_t> &tokens,
    const std::function<void(const PrefixMatch &estimate)> &resize)
{
    MatchAndPinResult out;

    // Walk 1 (fused): the pre-resize cached prefix, remembered as its
    // deepest node so the post-callback phases need no second descent.
    int32_t at = -1;
    if (enabled()) {
        at = walkMatch(tokens);
        out.estimate.hit_tokens = node(at).depth_tokens;
        out.estimate.reserved_bytes =
            out.estimate.hit_tokens * cfg_.bytes_per_token;
    }

    const uint64_t epoch = eviction_epoch_;
    if (resize)
        resize(out.estimate);
    if (!enabled())
        return out; // budget (still) 0 after the callback: no-op pin

    // Walk 2 (usually skipped): the held node is stale only when the
    // callback evicted (its slot may have been recycled) — or when the
    // cache was disabled at entry so walk 1 never ran (the callback
    // may just have revived it).
    if (at < 0 || eviction_epoch_ != epoch)
        at = walkMatch(tokens);
    out.match.hit_tokens = node(at).depth_tokens;
    out.match.reserved_bytes =
        out.match.hit_tokens * cfg_.bytes_per_token;

    // Pin the matched prefix; the pin makes the whole path
    // eviction-proof while it is extended below.
    pin(at);
    const size_t page = static_cast<size_t>(cfg_.page_size);
    const size_t full_blocks = tokens.size() / page;
    const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
    for (size_t b = static_cast<size_t>(node(at).depth_tokens) / page;
         b < full_blocks; ++b) {
        // New block: make room first.
        while (bytes() + block_bytes > cfg_.budget_bytes) {
            if (!evictOne())
                break;
        }
        if (bytes() + block_bytes > cfg_.budget_bytes)
            break; // budget exhausted; pin what we have
        // The request's pin moves from the parent onto its fresh
        // child; the parent stays pinned through its pinned child.
        const int32_t child = newNode(at, tokens.data() + b * page);
        Node &parent = node(at);
        --parent.handles;
        ++parent.pinned_kids;
        node(child).handles = 1;
        at = child;
        resident_tokens_ += cfg_.page_size;
        inserted_tokens_ += cfg_.page_size;
        pinned_tokens_ += cfg_.page_size;
        ++node_count_;
    }
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
        pinned_tokens_ += cfg_.page_size;
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
    // Only the handle's node is stamped; ancestors learn the stamp
    // when their descendants are evicted (see evictOne()).
    held.last_use = ++lru_clock_;
    // Unpin upward while nodes flip: the first ancestor still pinned
    // by another handle or child stops the walk.
    while (at != kRoot && !node(at).pinned()) {
        Node &n = node(at);
        pinned_tokens_ -= cfg_.page_size;
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
    // The oldest stamp among evictable leaves. Stamps are unique among
    // them (see the file comment), so this is exactly the leaf a full
    // scan for the minimum stamp would pick.
    if (evictable_.empty())
        return false;
    auto entry = evictable_.extract(evictable_.begin());
    const int32_t victim = entry.value().second;
    Node &v = node(victim);
    Node &parent = node(v.parent);
    parent.kids.erase(
        std::find(parent.kids.begin(), parent.kids.end(), victim));
    // Fold the victim's stamp in before the parent can become
    // evictable: it then carries the newest release of its subtree.
    parent.last_use = std::max(parent.last_use, v.last_use);
    // An unpinned parent left childless becomes evictable under that
    // stamp, which can be older than leaves already listed — so it
    // may be the very next victim (no append-to-tail LRU list).
    // (It reuses the victim's index entry: a chain evicted bottom-up
    // allocates nothing.)
    if (v.parent != kRoot && !parent.pinned() && parent.kids.empty()) {
        entry.value() = {parent.last_use, v.parent};
        evictable_.insert(std::move(entry));
    }
    v.parent = free_head_;
    free_head_ = victim;
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
