#include "kvcache/prefix_tree.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace specontext {
namespace kv {

namespace {

constexpr int32_t kChunkShift = 8;
/** Edges per storage chunk: 256 node headers (~20 KiB) — each chunk a
 *  small malloc; the tokens live in the blocks the edges view. */
constexpr int32_t kChunk = int32_t{1} << kChunkShift;
constexpr int32_t kRoot = 0;

/** Lexicographic token order (std::vector's operator<) of the block
 *  at `a` against s[q, q+n), the order children are kept in by their
 *  first block; the query block may span both pieces of `s`. */
bool
blockLess(const int32_t *a, const TokenSpan &s, size_t q, size_t n)
{
    for (size_t done = 0; done < n;) {
        const TokenPiece run = s.runAt(q + done);
        const size_t k = std::min(run.size, n - done);
        const auto [x, y] = std::mismatch(a + done, a + done + k, run.data);
        if (x != a + done + k)
            return *x < *y;
        done += k;
    }
    return false;
}

/** Whether the run starting a block can be viewed in place: it lies in
 *  an owned piece that holds at least one whole block from there. */
bool
viewable(const TokenPiece &run, size_t page)
{
    return run.owner != nullptr && run.size >= page;
}

/** A child link: the child's index and its first token, so the child
 *  search can binary-search first tokens without loading children. */
struct Kid
{
    int32_t first;
    int32_t node;
};

} // namespace

/** One cached edge: a run of blocks viewed in an immutable block. */
struct PrefixTree::Node
{
    /** Parent index (-1 on the root); on a free slot, the next free
     *  slot. */
    int32_t parent = -1;
    int32_t handles = 0;     ///< live handles ending on the last block
    int32_t pinned_kids = 0; ///< children that are pinned
    uint64_t last_use = 0;   ///< newest release stamp seen (see file doc)
    int64_t depth_tokens = 0; ///< tokens from root through the last block
    /** The edge's tokens, whole blocks of page_size: `len` tokens from
     *  `data`, inside `owner`, which the edge holds a reference on (0,
     *  null and empty on the root and on free slots). */
    const int32_t *data = nullptr;
    int64_t len = 0;
    BlockRef owner;
    /** Children, sorted by first block (so also by first token). */
    std::vector<Kid> kids;

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
PrefixTree::newEdge(int32_t parent, const int32_t *data, int64_t len,
                    BlockRef owner)
{
    const int32_t i = newSlot();
    const size_t page = static_cast<size_t>(cfg_.page_size);
    Node &n = node(i);
    Node &p = node(parent);
    n.parent = parent;
    n.last_use = 0;
    n.depth_tokens = p.depth_tokens + len;
    n.data = data;
    n.len = len;
    n.owner = std::move(owner);
    const TokenSpan first(data, page);
    std::vector<Kid> &kids = p.kids;
    kids.insert(std::lower_bound(kids.begin(), kids.end(), first,
                                 [&](const Kid &kid, const TokenSpan &b) {
                                     return blockLess(node(kid.node).data,
                                                      b, 0, page);
                                 }),
                Kid{*data, i});
    return i;
}

int32_t
PrefixTree::appendRun(int32_t at, TokenSpan tokens, size_t from,
                      size_t to)
{
    const size_t page = static_cast<size_t>(cfg_.page_size);
    for (size_t t = from; t < to;) {
        const TokenPiece run = tokens.runAt(t);
        size_t n = page;
        const int32_t *data;
        BlockRef owner;
        if (viewable(run, page)) {
            n = std::min(run.size, to - t) / page * page;
            data = run.data;
            owner = BlockRef::share(run.owner);
        } else {
            // A borrowed run, or the block that straddles an unaligned
            // head/tail boundary: copied once, up to the next block
            // that can be viewed in place.
            while (t + n < to && !viewable(tokens.runAt(t + n), page))
                n += page;
            TokenBlock *copy = TokenBlock::create(n);
            std::copy(tokens.begin() + static_cast<std::ptrdiff_t>(t),
                      tokens.begin() + static_cast<std::ptrdiff_t>(t + n),
                      copy->tokens());
            data = copy->tokens();
            owner = BlockRef::adopt(copy);
        }
        // The request's pin moves from the edge above onto its fresh
        // child; the parent stays pinned through the child.
        const int32_t child =
            newEdge(at, data, static_cast<int64_t>(n), std::move(owner));
        Node &parent = node(at);
        --parent.handles;
        ++parent.pinned_kids;
        node(child).handles = 1;
        at = child;
        t += n;
    }
    return at;
}

int32_t
PrefixTree::splitAbove(int32_t lower, int64_t depth)
{
    const int32_t upper = newSlot();
    Node &lo = node(lower);
    Node &up = node(upper);
    const int64_t keep = lo.len - (lo.depth_tokens - depth);
    up.parent = lo.parent;
    up.pinned_kids = lo.pinned() ? 1 : 0;
    up.last_use = 0; // no handle ever ended inside the edge
    up.depth_tokens = depth;
    up.data = lo.data;
    up.len = keep;
    up.owner = lo.owner;
    up.kids.assign(1, Kid{lo.data[keep], lower});
    lo.data += keep;
    lo.len -= keep;
    lo.parent = upper;
    // Same first block, so the parent's child order is unchanged.
    std::vector<Kid> &siblings = node(up.parent).kids;
    std::find_if(siblings.begin(), siblings.end(), [&](const Kid &kid) {
        return kid.node == lower;
    })->node = upper;
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
    const size_t full = tokens.size() / page * page;
    size_t q = 0; // tokens matched so far: the query offset
    Walk w{kRoot, 0};
    while (q < full) {
        const std::vector<Kid> &kids = node(w.node).kids;
        int32_t next;
        if (kids.size() == 1) {
            next = kids.front().node;
        } else {
            // Children with a smaller first token all sort before the
            // query's block and those with a larger one after it, so
            // only the run sharing its first token needs a block
            // compare; the lower bound is in that run or just past it.
            const int32_t t = tokens[q];
            const auto lo = std::lower_bound(
                kids.begin(), kids.end(), t,
                [](const Kid &kid, int32_t v) { return kid.first < v; });
            const auto hi = std::upper_bound(
                lo, kids.end(), t,
                [](int32_t v, const Kid &kid) { return v < kid.first; });
            const auto it = std::lower_bound(
                lo, hi, q, [&](const Kid &kid, size_t at) {
                    return blockLess(node(kid.node).data, tokens, at, page);
                });
            if (it == kids.end())
                break;
            next = it->node;
        }
        const Node &edge = node(next);
        const size_t edge_len = static_cast<size_t>(edge.len);
        const size_t len = std::min(edge_len, full - q);
        const size_t same = equalPrefix(
            TokenSpan(TokenPiece{edge.data, len, edge.owner.get()}, {}), 0,
            tokens, q, len, &compared_tokens_);
        if (same < len) {
            // Stop inside the edge, at the last fully equal block.
            if (same >= page) {
                w.node = next;
                w.depth += static_cast<int64_t>(same / page * page);
            }
            break;
        }
        w.node = next;
        w.depth += static_cast<int64_t>(len);
        if (len < edge_len)
            break; // the query ends inside the edge
        q += len;
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
    const int64_t full_tokens =
        static_cast<int64_t>(tokens.size()) / cfg_.page_size *
        cfg_.page_size;
    const int64_t want = full_tokens - w.depth; // tokens of new blocks
    if (want > 0) {
        // Make room in one burst: the fewest LRU blocks that let every
        // new block fit, or all that are evictable when they cannot.
        // Pinned above, the matched path is safe, and the new blocks
        // are never victims, so this evicts exactly the blocks a
        // make-room-per-block loop would.
        const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
        const int64_t excess =
            bytes() + want * cfg_.bytes_per_token - cfg_.budget_bytes;
        if (excess > 0)
            evict((excess + block_bytes - 1) / block_bytes * cfg_.page_size);
        const int64_t room = cfg_.budget_bytes - bytes();
        const int64_t fit =
            std::min(want, std::max<int64_t>(room, 0) / block_bytes *
                               cfg_.page_size);
        if (fit > 0) {
            at = appendRun(at, tokens, static_cast<size_t>(w.depth),
                           static_cast<size_t>(w.depth + fit));
            resident_tokens_ += fit;
            inserted_tokens_ += fit;
            pinned_tokens_ += fit;
            node_count_ += fit / cfg_.page_size;
        }
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
        pinned_tokens_ += n.len;
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
    // when their descendants are evicted (see evict()).
    held.last_use = ++lru_clock_;
    // Unpin upward while edges flip: the first ancestor still pinned
    // by another handle or child stops the walk.
    while (at != kRoot && !node(at).pinned()) {
        Node &n = node(at);
        pinned_tokens_ -= n.len;
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

void
PrefixTree::evict(int64_t tokens)
{
    // Oldest stamp first among evictable leaf edges. Stamps are unique
    // among them (see the file comment), so trimming the oldest edge's
    // tail takes exactly the blocks a per-block scan for the minimum
    // stamp would pick, in the same order.
    int64_t done = 0;
    while (done < tokens && !evictable_.empty()) {
        const auto oldest = evictable_.begin();
        const int32_t victim = oldest->second;
        Node &v = node(victim);
        const int64_t k = std::min(v.len, tokens - done);
        v.len -= k;
        v.depth_tokens -= k;
        done += k;
        // The edge's new last block inherits its stamp, so a non-empty
        // edge keeps its index entry and stays the next victim.
        if (v.len > 0)
            continue;
        auto entry = evictable_.extract(oldest);
        Node &parent = node(v.parent);
        parent.kids.erase(std::find_if(
            parent.kids.begin(), parent.kids.end(),
            [&](const Kid &kid) { return kid.node == victim; }));
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
        v.data = nullptr;
        v.owner.reset();
        v.parent = free_head_;
        free_head_ = victim;
        --edge_count_;
    }
    if (done == 0)
        return;
    resident_tokens_ -= done;
    evicted_tokens_ += done;
    node_count_ -= done / cfg_.page_size;
    ++eviction_epoch_;
    if (observer_.counters)
        observer_.counters->add(evicted_counter_, done);
    OBS_EVENT(observer_.trace, obs::EventType::PrefixEvict,
              observer_.clock ? *observer_.clock : 0.0,
              observer_.replica, -1, done, resident_tokens_);
}

void
PrefixTree::enforceBudget()
{
    const int64_t excess = bytes() - cfg_.budget_bytes;
    if (excess > 0) {
        const int64_t block_bytes = cfg_.page_size * cfg_.bytes_per_token;
        evict((excess + block_bytes - 1) / block_bytes * cfg_.page_size);
    }
}

} // namespace kv
} // namespace specontext
