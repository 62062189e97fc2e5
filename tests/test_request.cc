/**
 * @file
 * Tests of serving::PromptTokens, the shared immutable token storage
 * behind Request::prompt_tokens: content equality, in-place
 * construction, release, and O(1) copies — a copied Request points at
 * the same tokens, and copying a whole trace allocates only the
 * vector's own buffer. Also pins that Cluster::run leaves the
 * caller's trace exactly as generated. Allocations are counted by
 * replacing the global operator new in this translation unit, as
 * bench/bench_simperf.cc does.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/timing_engine.h"
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
    EXPECT_EQ(p.data(), nullptr);
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
    EXPECT_NE(p.data(), v.data());
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
    ASSERT_NE(a.data(), b.data());
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
    const int32_t *tokens = a.data();

    const int64_t before = allocs();
    PromptTokens b = a;
    PromptTokens c;
    c = b;
    EXPECT_EQ(allocs() - before, 0);
    EXPECT_EQ(b.data(), tokens);
    EXPECT_EQ(c.data(), tokens);

    b.reset();
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(a.data(), tokens); // the others still hold the block
    EXPECT_EQ(c.data()[255], 255);

    PromptTokens moved = std::move(c);
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(moved.data(), tokens);

    a = PromptTokens(iota(1000, 4)); // drops a's reference
    EXPECT_EQ(a.data()[3], 1003);
    EXPECT_EQ(moved.data()[0], 0); // the last reference, still readable
}

TEST(PromptTokens, ViewsAsATokenSpanOverTheSameTokens)
{
    const PromptTokens p(iota(40, 32));
    const kv::TokenSpan span = p;
    EXPECT_EQ(span.data(), p.data());
    EXPECT_EQ(span.size(), p.size());
    EXPECT_EQ(kv::TokenSpan(PromptTokens()).size(), 0u);
}

// ------------------------------------------------------------- Request

TEST(Request, CopySharesPromptTokens)
{
    Request r;
    r.prompt_len = 512;
    r.prompt_tokens = PromptTokens(iota(9, 512));
    const Request copy = r;
    EXPECT_EQ(copy.prompt_tokens.data(), r.prompt_tokens.data());
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
        ASSERT_FALSE(trace[i].prompt_tokens.empty());
        EXPECT_EQ(copy[i].prompt_tokens.data(),
                  trace[i].prompt_tokens.data());
    }
}

TEST(Request, ClusterRunLeavesTheCallersTraceAsGenerated)
{
    const workload::SharedPrefixTraceConfig pc = sharedPrefixConfig(48);
    const std::vector<Request> trace = workload::sharedPrefixTrace(pc);
    std::vector<const int32_t *> storage;
    for (const Request &r : trace)
        storage.push_back(r.prompt_tokens.data());

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
        EXPECT_EQ(trace[i].prompt_tokens.data(), storage[i]);
    }
}

} // namespace
} // namespace specontext
