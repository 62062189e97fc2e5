#include "kvcache/prefix_tree.h"

#include <stdexcept>
#include <string>

namespace specontext {
namespace kv {

/**
 * One cached block. Children are keyed by their block's token content
 * (std::map, so traversal order is deterministic); the key doubles as
 * the stored tokens, which a simulator never needs to read back.
 */
struct PrefixTree::Node
{
    Node *parent = nullptr;
    /** Raw pointers: node lifetime is owned by the tree's Pool, so
     *  eviction recycles slots instead of freeing them. */
    std::map<std::vector<int32_t>, Node *> children;
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

void
PrefixTree::walkMatch(const std::vector<int32_t> &tokens,
                      std::vector<Node *> &path) const
{
    const Node *node = root_;
    const int64_t full_blocks =
        static_cast<int64_t>(tokens.size()) / cfg_.page_size;
    std::vector<int32_t> block(static_cast<size_t>(cfg_.page_size));
    for (int64_t b = 0; b < full_blocks; ++b) {
        const auto begin = tokens.begin() + b * cfg_.page_size;
        block.assign(begin, begin + cfg_.page_size);
        const auto it = node->children.find(block);
        if (it == node->children.end())
            break;
        node = it->second;
        path.push_back(const_cast<Node *>(node));
    }
}

PrefixMatch
PrefixTree::match(const std::vector<int32_t> &tokens) const
{
    PrefixMatch m;
    if (!enabled())
        return m;
    std::vector<Node *> path;
    walkMatch(tokens, path);
    m.hit_tokens = path.empty() ? 0 : path.back()->depth_tokens;
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

    // Walk 1 (fused): the pre-resize cached prefix, remembered as the
    // node path so the post-callback phases need no second descent.
    std::vector<Node *> path;
    bool walked = false;
    if (enabled()) {
        walkMatch(tokens, path);
        walked = true;
        out.estimate.hit_tokens =
            path.empty() ? 0 : path.back()->depth_tokens;
        out.estimate.reserved_bytes =
            out.estimate.hit_tokens * cfg_.bytes_per_token;
    }

    const uint64_t epoch = eviction_epoch_;
    if (resize)
        resize(out.estimate);
    if (!enabled())
        return out; // budget (still) 0 after the callback: no-op pin

    // Walk 2 (usually skipped): the held path is stale only when the
    // callback evicted — or when the cache was disabled at entry so
    // walk 1 never ran (the callback may just have revived it).
    if (!walked || eviction_epoch_ != epoch) {
        path.clear();
        walkMatch(tokens, path);
    }
    out.match.hit_tokens = path.empty() ? 0 : path.back()->depth_tokens;
    out.match.reserved_bytes =
        out.match.hit_tokens * cfg_.bytes_per_token;

    // Pin the matched prefix (top-down, insert()'s accounting), then
    // extend it with the remaining full blocks while the budget lasts.
    for (Node *n : path) {
        if (n->refcount == 0)
            pinned_tokens_ += cfg_.page_size;
        ++n->refcount;
    }
    Node *node = path.empty() ? root_ : path.back();
    const int64_t matched_blocks =
        static_cast<int64_t>(path.size());
    const int64_t full_blocks =
        static_cast<int64_t>(tokens.size()) / cfg_.page_size;
    const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
    std::vector<int32_t> block(static_cast<size_t>(cfg_.page_size));
    for (int64_t b = matched_blocks; b < full_blocks; ++b) {
        // New block: make room first. Nodes on the pinned path
        // (including everything this walk already pinned) have
        // refcount > 0 and are eviction-proof.
        while (bytes() + block_bytes > cfg_.budget_bytes) {
            if (!evictOne())
                break;
        }
        if (bytes() + block_bytes > cfg_.budget_bytes)
            break; // budget exhausted; pin what we have
        const auto begin = tokens.begin() + b * cfg_.page_size;
        block.assign(begin, begin + cfg_.page_size);
        Node *child = newNode();
        child->parent = node;
        child->depth_tokens = node->depth_tokens + cfg_.page_size;
        node = node->children.emplace(block, child).first->second;
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
    // Deterministic full-tree scan for the unreferenced leaf with the
    // oldest release stamp (strict <, and children are visited in
    // token order, so ties — impossible under the unique stamps, but
    // cheap to make explicit — keep the first visited). O(nodes) per
    // eviction is fine at simulator scale.
    Node *victim = nullptr;
    std::vector<Node *> stack = {root_};
    while (!stack.empty()) {
        Node *n = stack.back();
        stack.pop_back();
        for (auto &kv_pair : n->children)
            stack.push_back(kv_pair.second);
        if (n == root_ || n->refcount > 0 || !n->children.empty())
            continue;
        if (!victim || n->last_use < victim->last_use)
            victim = n;
    }
    if (!victim)
        return false;
    Node *parent = victim->parent;
    for (auto it = parent->children.begin(); it != parent->children.end();
         ++it) {
        if (it->second == victim) {
            parent->children.erase(it);
            break;
        }
    }
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
