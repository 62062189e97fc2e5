/**
 * @file
 * Tests of serving::PromptTokens, the shared immutable token storage
 * behind Request::prompt_tokens: content equality, in-place
 * construction, release, O(1) copies — a copied Request points at
 * the same tokens, and copying a whole trace allocates only the
 * vector's own buffer — and head + tail prompts (indexing across the
 * boundary, equality with flat prompts, a head kept alive by a prefix
 * tree edge, nested heads rejected). Also pins that sortByArrival is
 * stable and leaves a sorted trace untouched without allocating, and
 * that Cluster::run leaves the caller's trace exactly as generated. Allocations are
 * counted by
 * replacing the global operator new in this translation unit, as
 * bench/bench_simperf.cc does.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/timing_engine.h"
#include "kvcache/prefix_tree.h"
#include "kvcache/token_span.h"
#include "serving/cluster.h"
#include "serving/prompt_tokens.h"
#include "serving/request.h"
#include "workload/trace.h"

// ---- Allocation counter (this TU defines the global operators) ------
static std::atomic<int64_t> g_allocs{0};

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

// std::stable_sort's temporary buffer comes from the nothrow form; it
// must pair with the free() below too (sanitizers check the pairing).
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace specontext {
namespace {

using serving::PromptTokens;
using serving::Request;

int64_t
allocs()
{
    return g_allocs.load(std::memory_order_relaxed);
}

/** Where piece `k` (0: head or only piece, 1: tail) of `p` lives. */
const int32_t *
pieceData(const PromptTokens &p, size_t k = 0)
{
    return p.span().piece(k).data;
}

std::vector<int32_t>
iota(int32_t first, size_t n)
{
    std::vector<int32_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = first + static_cast<int32_t>(i);
    return v;
}

workload::SharedPrefixTraceConfig
sharedPrefixConfig(int64_t n)
{
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = n;
    pc.base.arrival_rate_per_s = 4.0;
    pc.base.seed = 5;
    pc.num_families = 8;
    pc.prefix_len = 256;
    pc.suffix_lo = 16;
    pc.suffix_hi = 64;
    pc.gen_lo = 8;
    pc.gen_hi = 64;
    return pc;
}

/** Every field a caller can see, compared exactly. */
void
expectSameRequest(const Request &a, const Request &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_seconds, b.arrival_seconds);
    EXPECT_EQ(a.prompt_len, b.prompt_len);
    EXPECT_EQ(a.gen_len, b.gen_len);
    EXPECT_TRUE(a.prompt_tokens == b.prompt_tokens) << "request " << a.id;
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.cached_prompt_len, b.cached_prompt_len);
    EXPECT_EQ(a.prefix_pin_slot, b.prefix_pin_slot);
    EXPECT_EQ(a.admit_seconds, b.admit_seconds);
    EXPECT_EQ(a.last_admit_seconds, b.last_admit_seconds);
    EXPECT_EQ(a.first_token_seconds, b.first_token_seconds);
    EXPECT_EQ(a.finish_seconds, b.finish_seconds);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recompute_tokens, b.recompute_tokens);
}

// -------------------------------------------------------- PromptTokens

TEST(PromptTokens, DefaultIsEmptyAndOwnsNothing)
{
    const int64_t before = allocs();
    const PromptTokens p;
    const PromptTokens copy = p;
    const PromptTokens from_empty{std::vector<int32_t>{}};
    EXPECT_EQ(allocs() - before, 0);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_EQ(pieceData(p), nullptr);
    EXPECT_FALSE(p.hasHead());
    EXPECT_EQ(p.begin(), p.end());
    EXPECT_TRUE(copy.empty());
    EXPECT_TRUE(from_empty.empty());
    EXPECT_TRUE(p == from_empty);
}

TEST(PromptTokens, BuildsFromAVectorInOneAllocation)
{
    const std::vector<int32_t> v = iota(100, 1000);
    const int64_t before = allocs();
    const PromptTokens p(v);
    EXPECT_EQ(allocs() - before, 1);
    ASSERT_EQ(p.size(), v.size());
    EXPECT_NE(pieceData(p), v.data());
    EXPECT_TRUE(std::equal(v.begin(), v.end(), p.begin()));
}

TEST(PromptTokens, FilledWritesEachTokenInPlace)
{
    const int64_t before = allocs();
    const PromptTokens p = PromptTokens::filled(5, [](int32_t *out) {
        for (int32_t i = 0; i < 5; ++i)
            out[i] = 3 * i;
    });
    EXPECT_EQ(allocs() - before, 1);
    EXPECT_TRUE(p == PromptTokens(std::vector<int32_t>{0, 3, 6, 9, 12}));

    bool called = false;
    const PromptTokens none =
        PromptTokens::filled(0, [&](int32_t *) { called = true; });
    EXPECT_FALSE(called);
    EXPECT_TRUE(none.empty());
}

TEST(PromptTokens, EqualityComparesContentsNotStorage)
{
    const PromptTokens a(iota(7, 64));
    const PromptTokens b(iota(7, 64));
    ASSERT_NE(pieceData(a), pieceData(b));
    EXPECT_TRUE(a == b);

    std::vector<int32_t> changed = iota(7, 64);
    changed[63] = -1;
    EXPECT_FALSE(a == PromptTokens(changed));
    EXPECT_FALSE(a == PromptTokens(iota(7, 63))); // a strict prefix
    EXPECT_FALSE(a == PromptTokens());
}

TEST(PromptTokens, CopiesShareOneBlockAndReleaseDropsOneReference)
{
    PromptTokens a(iota(0, 256));
    const int32_t *tokens = pieceData(a);

    const int64_t before = allocs();
    PromptTokens b = a;
    PromptTokens c;
    c = b;
    EXPECT_EQ(allocs() - before, 0);
    EXPECT_EQ(pieceData(b), tokens);
    EXPECT_EQ(pieceData(c), tokens);

    b.reset();
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(pieceData(a), tokens); // the others still hold the block
    EXPECT_EQ(c[255], 255);

    PromptTokens moved = std::move(c);
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(pieceData(moved), tokens);

    a = PromptTokens(iota(1000, 4)); // drops a's reference
    EXPECT_EQ(a[3], 1003);
    EXPECT_EQ(moved[0], 0); // the last reference, still readable
}

TEST(PromptTokens, ViewsAsATokenSpanOverTheSameTokens)
{
    const PromptTokens p(iota(40, 32));
    const kv::TokenSpan span = p;
    EXPECT_EQ(span.piece(0).data, pieceData(p));
    EXPECT_NE(span.piece(0).owner, nullptr);
    EXPECT_EQ(span.piece(1).size, 0u);
    EXPECT_EQ(span.size(), p.size());
    EXPECT_EQ(kv::TokenSpan(PromptTokens()).size(), 0u);
}

/** A head of `head_len` tokens from 0 and a tail continuing the count
 *  to `total`, so the prompt reads 0, 1, ..., total - 1. */
PromptTokens
countingPrompt(const PromptTokens &head, size_t total)
{
    const int32_t from = static_cast<int32_t>(head.size());
    return PromptTokens::withHead(
        head, total - head.size(), [&](int32_t *out) {
            for (size_t i = 0; i < total - head.size(); ++i)
                out[i] = from + static_cast<int32_t>(i);
        });
}

TEST(PromptTokens, HeadPlusTailReadsAcrossTheBoundary)
{
    const PromptTokens head(iota(0, 37));
    const int64_t before = allocs();
    const PromptTokens p = countingPrompt(head, 100);
    EXPECT_EQ(allocs() - before, 1); // the tail block only
    ASSERT_TRUE(p.hasHead());
    ASSERT_EQ(p.size(), 100u);
    for (size_t i = 0; i < p.size(); ++i)
        ASSERT_EQ(p[i], static_cast<int32_t>(i)) << "token " << i;
    EXPECT_TRUE(std::equal(p.begin(), p.end(), iota(0, 100).begin()));
    EXPECT_EQ(p.end() - p.begin(), 100);
    EXPECT_EQ(*(p.begin() + 36), 36);
    EXPECT_EQ(*(p.begin() + 37), 37);

    // The head's block is shared, not copied.
    const kv::TokenSpan span = p;
    EXPECT_EQ(span.piece(0).data, pieceData(head));
    EXPECT_EQ(span.piece(0).size, 37u);
    EXPECT_EQ(span.piece(1).size, 63u);
    EXPECT_NE(span.piece(1).owner, span.piece(0).owner);

    // Degenerate splits: an empty head is a flat prompt, an empty
    // tail is the head itself.
    const PromptTokens flat = countingPrompt(PromptTokens(), 10);
    EXPECT_FALSE(flat.hasHead());
    EXPECT_TRUE(flat == PromptTokens(iota(0, 10)));
    const PromptTokens same = countingPrompt(head, 37);
    EXPECT_FALSE(same.hasHead());
    EXPECT_EQ(pieceData(same), pieceData(head));
}

TEST(PromptTokens, EqualityIgnoresWhereTheHeadEnds)
{
    const PromptTokens flat(iota(0, 300));
    const PromptTokens head64(iota(0, 64));
    const PromptTokens head90(iota(0, 90));
    const PromptTokens a = countingPrompt(head64, 300);
    const PromptTokens b = countingPrompt(head90, 300);
    EXPECT_TRUE(a == flat);
    EXPECT_TRUE(flat == a);
    EXPECT_TRUE(a == b);
    EXPECT_TRUE(b == flat);

    EXPECT_FALSE(a == countingPrompt(head64, 299)); // a strict prefix
    std::vector<int32_t> changed = iota(0, 300);
    changed[80] = -1; // inside a's tail, inside b's head
    EXPECT_FALSE(a == PromptTokens(changed));
    EXPECT_FALSE(b == PromptTokens(changed));
}

TEST(PromptTokens, CopiesShareTheTailBlockAndTheHead)
{
    static_assert(sizeof(PromptTokens) == sizeof(void *),
                  "a prompt is one pointer");
    const PromptTokens head(iota(0, 48));
    const PromptTokens p = countingPrompt(head, 80);
    const int64_t before = allocs();
    const PromptTokens copy = p;
    EXPECT_EQ(allocs() - before, 0);
    EXPECT_EQ(pieceData(copy, 0), pieceData(p, 0));
    EXPECT_EQ(pieceData(copy, 1), pieceData(p, 1));
}

TEST(PromptTokens, HeadOutlivesItsPromptsWhileATreeEdgeViewsIt)
{
    kv::PrefixTreeConfig cfg;
    cfg.page_size = 16;
    cfg.bytes_per_token = 1;
    cfg.budget_bytes = 1 << 20;
    kv::PrefixTree tree(cfg);
    kv::PrefixHandle handle;
    {
        const PromptTokens head(iota(500, 64));
        const PromptTokens p = countingPrompt(head, 128);
        handle = tree.insert(p);
        ASSERT_EQ(handle.pinnedTokens(), 128);
        // The edges view p's own storage, so p matches by identity.
        const int64_t compared = tree.comparedTokens();
        EXPECT_EQ(tree.match(p).hit_tokens, 128);
        EXPECT_EQ(tree.comparedTokens(), compared);
    } // the last PromptTokens naming the head is gone
    // The edges still view the head and the tail: a flat copy of the
    // same tokens matches all of them by content.
    std::vector<int32_t> same = iota(500, 64);
    for (int32_t i = 64; i < 128; ++i)
        same.push_back(i);
    const int64_t compared = tree.comparedTokens();
    EXPECT_EQ(tree.match(same).hit_tokens, 128);
    EXPECT_EQ(tree.comparedTokens() - compared, 128);
    same[70] = -1;
    EXPECT_EQ(tree.match(same).hit_tokens, 64);
    tree.release(handle);
    tree.setBudget(0); // frees the edges, and with them the blocks
    EXPECT_EQ(tree.residentTokens(), 0);
}

TEST(PromptTokens, AHeadWithAHeadIsRejected)
{
    const PromptTokens head(iota(0, 16));
    const PromptTokens p = countingPrompt(head, 32);
    ASSERT_TRUE(p.hasHead());
    bool filled = false;
    EXPECT_THROW(
        PromptTokens::withHead(p, 4, [&](int32_t *) { filled = true; }),
        std::invalid_argument);
    EXPECT_FALSE(filled);
    // Nothing to add is p itself, not a nested head.
    EXPECT_TRUE(PromptTokens::withHead(p, 0, [](int32_t *) {}) == p);
    const kv::TokenBlock *with_head = p.span().piece(1).owner;
    ASSERT_NE(with_head->head(), nullptr);
    EXPECT_THROW(kv::TokenBlock::create(4, with_head),
                 std::invalid_argument);
}

// ------------------------------------------------------------- Request

TEST(Request, CopySharesPromptTokens)
{
    Request r;
    r.prompt_len = 512;
    r.prompt_tokens = PromptTokens(iota(9, 512));
    const Request copy = r;
    EXPECT_EQ(pieceData(copy.prompt_tokens), pieceData(r.prompt_tokens));
    EXPECT_EQ(copy.prompt_tokens.size(), r.prompt_tokens.size());
}

TEST(Request, CopyingASharedPrefixTraceAllocatesOnlyTheVector)
{
    // Host-independent: one allocation for the copy's buffer, whatever
    // the prompt lengths. Deep-copied prompts would add one per
    // request.
    const std::vector<Request> trace =
        workload::sharedPrefixTrace(sharedPrefixConfig(2000));
    ASSERT_EQ(trace.size(), 2000u);

    const int64_t before = allocs();
    const std::vector<Request> copy = trace;
    EXPECT_EQ(allocs() - before, 1);

    for (size_t i = 0; i < trace.size(); ++i) {
        ASSERT_TRUE(trace[i].prompt_tokens.hasHead());
        EXPECT_EQ(pieceData(copy[i].prompt_tokens, 0),
                  pieceData(trace[i].prompt_tokens, 0));
        EXPECT_EQ(pieceData(copy[i].prompt_tokens, 1),
                  pieceData(trace[i].prompt_tokens, 1));
    }
}

/** Requests with the given arrivals, ids 0, 1, ... */
std::vector<Request>
arrivingAt(const std::vector<double> &arrivals)
{
    std::vector<Request> trace;
    for (double t : arrivals) {
        Request r;
        r.id = static_cast<int64_t>(trace.size());
        r.arrival_seconds = t;
        trace.push_back(r);
    }
    return trace;
}

std::vector<int64_t>
idsOf(const std::vector<Request> &trace)
{
    std::vector<int64_t> ids;
    for (const Request &r : trace)
        ids.push_back(r.id);
    return ids;
}

TEST(Request, SortByArrivalIsStable)
{
    std::vector<Request> trace =
        arrivingAt({1.0, 0.5, 1.0, 0.5, 2.0, 1.0});
    serving::sortByArrival(trace);
    EXPECT_EQ(idsOf(trace), (std::vector<int64_t>{1, 3, 0, 2, 5, 4}));
}

TEST(Request, SortByArrivalLeavesASortedTraceUntouched)
{
    // Equal arrivals keep their input order, ids out of order
    // included. Host-independent: the sorted input is detected and
    // not sorted again, so nothing is allocated (a stable sort takes
    // a temporary buffer).
    std::vector<Request> trace = arrivingAt({0.5, 1.0, 1.0, 1.0, 2.0});
    std::swap(trace[1].id, trace[3].id);
    const std::vector<int64_t> ids = idsOf(trace);
    const int64_t before = allocs();
    serving::sortByArrival(trace);
    EXPECT_EQ(allocs() - before, 0);
    EXPECT_EQ(idsOf(trace), ids);
}

TEST(Request, ClusterRunLeavesTheCallersTraceAsGenerated)
{
    const workload::SharedPrefixTraceConfig pc = sharedPrefixConfig(48);
    const std::vector<Request> trace = workload::sharedPrefixTrace(pc);
    std::vector<std::pair<const int32_t *, const int32_t *>> storage;
    for (const Request &r : trace)
        storage.emplace_back(pieceData(r.prompt_tokens, 0),
                             pieceData(r.prompt_tokens, 1));

    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    rc.timing.system = core::SystemRegistry::create("FullAttn(FlashAttn)");
    rc.max_batch = 16;
    rc.prefix_cache.budget_bytes = 1LL << 30;
    rc.prefix_cache.page_size = 16;
    serving::ClusterConfig cc;
    cc.replicas = {rc, rc};
    cc.router.policy = serving::RouterPolicy::PrefixAffinity;
    core::TimingEngine engine;
    const serving::ClusterResult result =
        serving::Cluster(engine, cc).run(trace);
    ASSERT_EQ(result.completed(), static_cast<int64_t>(trace.size()));
    ASSERT_GT(result.fleet.prefix.hit_tokens, 0);

    const std::vector<Request> fresh = workload::sharedPrefixTrace(pc);
    ASSERT_EQ(trace.size(), fresh.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        expectSameRequest(trace[i], fresh[i]);
        EXPECT_EQ(pieceData(trace[i].prompt_tokens, 0), storage[i].first);
        EXPECT_EQ(pieceData(trace[i].prompt_tokens, 1), storage[i].second);
    }
}

} // namespace
} // namespace specontext
