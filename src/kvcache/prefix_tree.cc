#include "kvcache/prefix_tree.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>

namespace specontext {
namespace kv {

namespace {

/** One block of a prompt, borrowed in place: children are looked up
 *  through it so a walk never copies tokens. */
struct BlockView
{
    const int32_t *data;
    size_t size;
};

/** Lexicographic token order — std::vector's own operator< — made
 *  transparent so a map keyed by stored blocks can find a BlockView. */
struct BlockLess
{
    using is_transparent = void;

    static bool less(const int32_t *a, size_t na, const int32_t *b,
                     size_t nb)
    {
        return std::lexicographical_compare(a, a + na, b, b + nb);
    }
    bool operator()(const std::vector<int32_t> &a,
                    const std::vector<int32_t> &b) const
    {
        return a < b;
    }
    bool operator()(const std::vector<int32_t> &a, BlockView b) const
    {
        return less(a.data(), a.size(), b.data, b.size);
    }
    bool operator()(BlockView a, const std::vector<int32_t> &b) const
    {
        return less(a.data, a.size, b.data(), b.size());
    }
};

} // namespace

/**
 * One cached block. Children are keyed by their block's token content
 * (std::map, so traversal order is deterministic); the key doubles as
 * the stored tokens, which a simulator never needs to read back.
 */
struct PrefixTree::Node
{
    using Children = std::map<std::vector<int32_t>, Node *, BlockLess>;

    Node *parent = nullptr;
    /** Raw pointers: node lifetime is owned by the tree's Pool, so
     *  eviction recycles slots instead of freeing them. */
    Children children;
    /** This node's entry in parent->children (unset on the root), so
     *  eviction unlinks without searching the siblings. */
    Children::iterator self;
    int64_t refcount = 0;     ///< in-flight requests pinning this block
    uint64_t last_use = 0;    ///< lru_clock_ at the last release
    int64_t depth_tokens = 0; ///< tokens from root through this block
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
    pool_ = std::make_unique<util::Pool<Node>>();
    root_ = newNode();
}

PrefixTree::~PrefixTree()
{
    // Nodes own heap state (the children map keys), so each must be
    // destroyed through the pool — iteratively, to keep deep chains
    // off the call stack.
    std::vector<Node *> stack = {root_};
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        for (auto &kv_pair : n->children)
            stack.push_back(kv_pair.second);
        freeNode(n);
    }
}

PrefixTree::Node *
PrefixTree::newNode()
{
    return pool_->create();
}

void
PrefixTree::freeNode(Node *n)
{
    pool_->destroy(n);
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

PrefixTree::Node *
PrefixTree::walkMatch(const std::vector<int32_t> &tokens) const
{
    Node *node = root_;
    const size_t page = static_cast<size_t>(cfg_.page_size);
    const size_t full_blocks = tokens.size() / page;
    for (size_t b = 0; b < full_blocks; ++b) {
        const auto it =
            node->children.find(BlockView{tokens.data() + b * page, page});
        if (it == node->children.end())
            break;
        node = it->second;
    }
    return node;
}

PrefixMatch
PrefixTree::match(const std::vector<int32_t> &tokens) const
{
    PrefixMatch m;
    if (!enabled())
        return m;
    m.hit_tokens = walkMatch(tokens)->depth_tokens;
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
    Node *node = nullptr;
    if (enabled()) {
        node = walkMatch(tokens);
        out.estimate.hit_tokens = node->depth_tokens;
        out.estimate.reserved_bytes =
            out.estimate.hit_tokens * cfg_.bytes_per_token;
    }

    const uint64_t epoch = eviction_epoch_;
    if (resize)
        resize(out.estimate);
    if (!enabled())
        return out; // budget (still) 0 after the callback: no-op pin

    // Walk 2 (usually skipped): the held node is stale only when the
    // callback evicted — or when the cache was disabled at entry so
    // walk 1 never ran (the callback may just have revived it).
    if (!node || eviction_epoch_ != epoch)
        node = walkMatch(tokens);
    out.match.hit_tokens = node->depth_tokens;
    out.match.reserved_bytes =
        out.match.hit_tokens * cfg_.bytes_per_token;

    // Pin the matched prefix (insert()'s accounting); an idle leaf
    // among it leaves the evictable index.
    for (Node *n = node; n != root_; n = n->parent) {
        if (n->refcount == 0) {
            pinned_tokens_ += cfg_.page_size;
            if (n->children.empty())
                evictable_.erase({n->last_use, n});
        }
        ++n->refcount;
    }
    // Extend it with the remaining full blocks while the budget lasts.
    const size_t page = static_cast<size_t>(cfg_.page_size);
    const size_t full_blocks = tokens.size() / page;
    const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
    for (size_t b = static_cast<size_t>(node->depth_tokens) / page;
         b < full_blocks; ++b) {
        // New block: make room first. Nodes on the pinned path
        // (including everything this walk already pinned) have
        // refcount > 0 and are eviction-proof.
        while (bytes() + block_bytes > cfg_.budget_bytes) {
            if (!evictOne())
                break;
        }
        if (bytes() + block_bytes > cfg_.budget_bytes)
            break; // budget exhausted; pin what we have
        // The parent is pinned, so it is not (and stays not) evictable.
        const int32_t *begin = tokens.data() + b * page;
        Node *child = newNode();
        child->parent = node;
        child->depth_tokens = node->depth_tokens + cfg_.page_size;
        child->self = node->children.emplace_hint(
            node->children.lower_bound(BlockView{begin, page}),
            std::piecewise_construct,
            std::forward_as_tuple(begin, begin + page),
            std::forward_as_tuple(child));
        node = child;
        resident_tokens_ += cfg_.page_size;
        inserted_tokens_ += cfg_.page_size;
        ++node_count_;
        pinned_tokens_ += cfg_.page_size; // fresh block: refcount 0 -> 1
        ++node->refcount;
    }
    if (node != root_) {
        out.handle.node_ = node;
        out.handle.pinned_tokens_ = node->depth_tokens;
    }
    return out;
}

void
PrefixTree::release(PrefixHandle &handle)
{
    Node *node = static_cast<Node *>(handle.node_);
    handle.node_ = nullptr;
    handle.pinned_tokens_ = 0;
    if (!node)
        return;
    // One stamp per release keeps whole paths ordered: deeper nodes
    // share the stamp, and leaves are evicted before their parents
    // regardless.
    const uint64_t stamp = ++lru_clock_;
    for (; node != root_; node = node->parent) {
        if (node->refcount <= 0)
            throw std::logic_error("PrefixTree: release without pin");
        --node->refcount;
        if (node->refcount == 0)
            pinned_tokens_ -= cfg_.page_size;
        node->last_use = stamp;
        // Only the handle's own node can be a leaf here; an ancestor
        // still pinned by another handle is re-stamped but stays out.
        if (node->refcount == 0 && node->children.empty())
            evictable_.emplace(stamp, node);
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
    // The oldest release stamp among evictable leaves. Stamps are
    // unique among them (see the file comment), so this is exactly
    // the leaf a full scan for the minimum stamp would pick.
    if (evictable_.empty())
        return false;
    Node *victim = evictable_.begin()->second;
    evictable_.erase(evictable_.begin());
    Node *parent = victim->parent;
    parent->children.erase(victim->self);
    // An unpinned parent left childless becomes evictable under its
    // own stamp, which can be older than leaves already listed — so
    // it may be the very next victim (no append-to-tail LRU list).
    if (parent != root_ && parent->refcount == 0 &&
        parent->children.empty())
        evictable_.emplace(parent->last_use, parent);
    freeNode(victim);
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
