/**
 * @file
 * Allocation ceiling of the simulator's default fast path: heap
 * allocations per request inside Cluster::run on a fixed 4-lane
 * Optimistic prefix-affinity fleet (the perfbench prefix-churn shape).
 * Allocation counts do not depend on host speed, so this gate passes
 * or fails the same way on every machine, sanitizer builds included.
 *
 * This binary defines the global operator new to count calls, the
 * way bench/bench_simperf.cc does, so it is a test executable of its
 * own: the replacement would count every other suite's allocations
 * too.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/timing_engine.h"
#include "serving/cluster.h"
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

/** Requests in the gated run: the perfbench prefix-churn length, so
 *  per-run set-up (replica engines, prefix trees, pricer tables) is
 *  amortized the same way. */
constexpr int64_t kRequests = 2000;

/**
 * Ceiling on allocations per request inside Cluster::run, about 1.5x
 * the measured 2.44 (seed 7). The run takes 4.76 ReplicaEngine::step
 * calls per request, so one more allocation per step lands near 7.2
 * and trips it.
 */
constexpr double kCeiling = 3.7;

serving::ReplicaConfig
prefixReplica()
{
    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.allow_full_attention_offload = false;
    opts.prefix_reload_gbps = 200.0;
    rc.timing.system =
        core::SystemRegistry::create("FullAttn(FlashAttn)", opts);
    rc.max_batch = 64;
    rc.prefix_cache.budget_bytes = 8LL << 30;
    rc.prefix_cache.page_size = 16;
    rc.scheduler_mode = serving::SchedulerMode::Optimistic;
    rc.victim_policy = serving::VictimPolicy::LastAdmitted;
    return rc;
}

TEST(Allocations, OptimisticPrefixAffinityFleetStaysUnderItsCeiling)
{
    core::TimingEngine engine;
    serving::ClusterConfig cc;
    for (int i = 0; i < 4; ++i)
        cc.replicas.push_back(prefixReplica());
    cc.router.policy = serving::RouterPolicy::PrefixAffinity;
    const serving::Cluster cluster(engine, cc);

    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = kRequests;
    pc.base.arrival_rate_per_s = 4.0;
    pc.base.seed = 7;
    pc.num_families = 64;
    pc.prefix_len = 4096;
    pc.zipf_s = 1.0;
    std::vector<serving::Request> trace = workload::sharedPrefixTrace(pc);

    const int64_t before = g_allocs.load(std::memory_order_relaxed);
    const serving::ClusterResult result = cluster.run(std::move(trace));
    const int64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;

    ASSERT_EQ(result.completed(), kRequests);
    const double per_request =
        static_cast<double>(allocs) / static_cast<double>(kRequests);
    const double steps_per_request =
        static_cast<double>(result.fleet.steps) /
        static_cast<double>(kRequests);
    std::printf("allocations per request %.2f (ceiling %.1f), "
                "steps per request %.2f\n",
                per_request, kCeiling, steps_per_request);
    EXPECT_LE(per_request, kCeiling);
    // The ceiling catches one more allocation per step only while a
    // request takes more steps than the ceiling's headroom.
    EXPECT_GT(per_request + steps_per_request, kCeiling);
}

} // namespace
} // namespace specontext
