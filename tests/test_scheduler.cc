/**
 * @file
 * Tests of the unified serving::Scheduler: deterministic victim
 * selection (policy keys + the (progress, arrival, id) total-order
 * tie-break), zero-preemption parity of Optimistic with Reserve under
 * light load, preemption firing and full recovery under overload, the
 * current-footprint admission queries, and the prefix-cache reload
 * cost knob.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "serving/cluster.h"
#include "serving/scheduler.h"
#include "serving/server.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using serving::Cluster;
using serving::ClusterConfig;
using serving::ClusterResult;
using serving::ReplicaConfig;
using serving::Request;
using serving::Scheduler;
using serving::SchedulerConfig;
using serving::SchedulerMode;
using serving::VictimPolicy;

core::TimingConfig
cloudTiming(const core::SystemOptions &opts = {})
{
    core::TimingConfig cfg;
    cfg.llm = model::deepseekDistillLlama8bGeometry();
    cfg.hw = sim::HardwareSpec::cloudA800();
    cfg.system = core::SystemRegistry::create("FullAttn(FlashAttn)", opts);
    return cfg;
}

ReplicaConfig
cloudReplica(SchedulerMode mode,
             VictimPolicy victim = VictimPolicy::LastAdmitted,
             int64_t cache_budget = 0,
             const core::SystemOptions &opts = {})
{
    ReplicaConfig rc;
    rc.timing = cloudTiming(opts);
    rc.max_batch = 64;
    rc.prefix_cache.budget_bytes = cache_budget;
    rc.scheduler_mode = mode;
    rc.victim_policy = victim;
    return rc;
}

Request
makeActive(int64_t id, double arrival, double last_admit,
           int64_t generated, int64_t cached = 0)
{
    Request r;
    r.id = id;
    r.arrival_seconds = arrival;
    r.prompt_len = 1024;
    r.gen_len = 4096;
    r.admit_seconds = last_admit;
    r.last_admit_seconds = last_admit;
    r.generated = generated;
    r.cached_prompt_len = cached;
    r.state = serving::RequestState::Decoding;
    return r;
}

/** A burst of growing-context conversations that oversubscribes one
 *  A800's KV headroom — preemption must fire. */
std::vector<Request>
overloadTrace(int64_t sessions = 6)
{
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = sessions;
    mt.base.arrival_rate_per_s = 1.0;
    mt.base.seed = 3;
    mt.turns = 4;
    mt.first_prompt_lo = 2048;
    mt.first_prompt_hi = 8192;
    mt.gen_lo = 4096;
    mt.gen_hi = 16384;
    mt.think_time_mean_s = 10.0;
    return workload::multiTurnTrace(mt);
}

// ------------------------------------------------ victim selection

TEST(Scheduler, VictimTieBreakIsProgressArrivalIdTotalOrder)
{
    // All policy primary keys equal -> the shared tie-break decides:
    // least progress first, then earliest arrival, then lowest id.
    Scheduler sched(cloudTiming(),
                    {SchedulerMode::Optimistic,
                     VictimPolicy::LastAdmitted,
                     serving::QueuePolicy::Fifo, 64});
    std::vector<Request> active;
    active.push_back(makeActive(7, 2.0, 10.0, 5));
    active.push_back(makeActive(3, 1.0, 10.0, 5)); // earlier arrival
    active.push_back(makeActive(9, 1.0, 10.0, 5)); // same arrival, id 9
    active.push_back(makeActive(4, 5.0, 10.0, 2)); // least progress
    EXPECT_EQ(active[sched.selectVictim(active)].id, 4);

    active.erase(active.begin() + 3);
    EXPECT_EQ(active[sched.selectVictim(active)].id, 3);

    active.erase(active.begin() + 1);
    // arrival 1.0 ids {9} vs arrival 2.0 id 7: arrival wins.
    EXPECT_EQ(active[sched.selectVictim(active)].id, 9);
}

TEST(Scheduler, VictimPolicyPrimaryKeys)
{
    std::vector<Request> active;
    active.push_back(makeActive(0, 0.0, 10.0, 8, 256)); // oldest admit
    active.push_back(makeActive(1, 1.0, 30.0, 2, 512)); // latest admit
    active.push_back(makeActive(2, 2.0, 20.0, 1, 128)); // least progress,
                                                        // fewest hits
    auto pick = [&](VictimPolicy p) {
        Scheduler sched(cloudTiming(),
                        {SchedulerMode::Optimistic, p,
                         serving::QueuePolicy::Fifo, 64});
        return active[sched.selectVictim(active)].id;
    };
    EXPECT_EQ(pick(VictimPolicy::LastAdmitted), 1);
    EXPECT_EQ(pick(VictimPolicy::ShortestProgress), 2);
    EXPECT_EQ(pick(VictimPolicy::FewestPrefixHitTokens), 2);
}

TEST(Scheduler, VictimFromEmptyBatchThrows)
{
    Scheduler sched(cloudTiming(),
                    {SchedulerMode::Optimistic,
                     VictimPolicy::LastAdmitted,
                     serving::QueuePolicy::Fifo, 64});
    EXPECT_THROW(sched.selectVictim({}), std::logic_error);
}

// ------------------------------------------- admission disciplines

TEST(Scheduler, OptimisticAdmitsOnCurrentWhereReserveDenies)
{
    // Fill the batch with requests whose final reservations exhaust
    // HBM but whose current contexts are tiny: Reserve must deny the
    // next candidate, Optimistic must admit it.
    const core::TimingConfig timing = cloudTiming();
    Scheduler reserve(timing, {SchedulerMode::Reserve,
                               VictimPolicy::LastAdmitted,
                               serving::QueuePolicy::Fifo, 64});
    Scheduler optimistic(timing, {SchedulerMode::Optimistic,
                                  VictimPolicy::LastAdmitted,
                                  serving::QueuePolicy::Fifo, 64});
    std::vector<Request> active;
    for (int64_t i = 0; i < 14; ++i) {
        Request r = makeActive(i, 0.0, 0.0, 1);
        r.prompt_len = 2048;
        r.gen_len = 32768; // ~35k-token booking each
        active.push_back(r);
    }
    // 15 x ~35k reserved tokens oversubscribe the ~496k-token KV
    // headroom an A800 leaves next to the 8B weights.
    Request cand = makeActive(99, 1.0, -1.0, 0);
    cand.prompt_len = 2048;
    cand.gen_len = 32768;
    EXPECT_FALSE(reserve.admit(active, cand).admit);
    EXPECT_TRUE(optimistic.admit(active, cand).admit);
    // And the decode-fit query agrees the live batch's next token fits.
    EXPECT_EQ(optimistic.decodeFitRounds(active, 1), 1);
}

TEST(Scheduler, OptimisticStillHardRejectsFinalLengthInfeasible)
{
    // A request whose final context cannot fit even alone must deny
    // under both modes (Optimistic would otherwise livelock through
    // preempt/restore cycles).
    Scheduler optimistic(cloudTiming(),
                         {SchedulerMode::Optimistic,
                          VictimPolicy::LastAdmitted,
                          serving::QueuePolicy::Fifo, 64});
    Request huge = makeActive(0, 0.0, -1.0, 0);
    huge.prompt_len = 4096;
    huge.gen_len = 1000000; // ~1M-token final context
    EXPECT_FALSE(optimistic.feasibleAlone(huge));
    EXPECT_FALSE(optimistic.admit({}, huge).admit);
}

TEST(Scheduler, OptimisticGatesOnWorstCaseRestoreFeasibility)
{
    // Eager attention's prefill scratch grows O(S^2) with the
    // prefilled span: a request can be feasible at its prompt shape
    // yet impossible to *restore* (final-context prefill) after a
    // deep preemption. Optimistic must hard-deny it up front instead
    // of stranding it mid-generation; Reserve (which never restores)
    // keeps admitting it.
    core::TimingConfig timing = cloudTiming();
    timing.system = core::SystemRegistry::create("FullAttn(Eager)");
    Scheduler reserve(timing, {SchedulerMode::Reserve,
                               VictimPolicy::LastAdmitted,
                               serving::QueuePolicy::Fifo, 64});
    Scheduler optimistic(timing, {SchedulerMode::Optimistic,
                                  VictimPolicy::LastAdmitted,
                                  serving::QueuePolicy::Fifo, 64});
    Request r = makeActive(0, 0.0, -1.0, 0);
    r.prompt_len = 4096;  // scratch 2*32*4096^2 ~ 1 GB: fine
    r.gen_len = 40000;    // restore scratch 2*32*44096^2 ~ 124 GB: not
    EXPECT_TRUE(reserve.feasibleAlone(r));
    EXPECT_TRUE(reserve.admit({}, r).admit);
    EXPECT_TRUE(optimistic.feasibleAlone(r));
    EXPECT_FALSE(optimistic.restoreFeasibleAlone(r));
    EXPECT_FALSE(optimistic.admit({}, r).admit);
    // FlashAttn has no quadratic scratch: both gates agree there.
    Scheduler flash(cloudTiming(), {SchedulerMode::Optimistic,
                                    VictimPolicy::LastAdmitted,
                                    serving::QueuePolicy::Fifo, 64});
    EXPECT_TRUE(flash.restoreFeasibleAlone(r));
    EXPECT_TRUE(flash.admit({}, r).admit);
}

TEST(Scheduler, QueueTracksFinalAndLiveTokenTotals)
{
    Scheduler sched(cloudTiming(),
                    {SchedulerMode::Optimistic,
                     VictimPolicy::LastAdmitted,
                     serving::QueuePolicy::Fifo, 64});
    Request fresh = makeActive(0, 0.0, -1.0, 0);  // 1024 + 4096
    Request preempted = makeActive(1, 0.0, 2.0, 100); // restore 1124
    sched.enqueue(fresh);
    sched.enqueue(preempted);
    EXPECT_EQ(sched.queuedFinalKvTokens(), 2 * (1024 + 4096));
    EXPECT_EQ(sched.queuedLiveKvTokens(), 1024 + (1024 + 100));
    sched.pop();
    EXPECT_EQ(sched.queuedFinalKvTokens(), 1024 + 4096);
    EXPECT_EQ(sched.queuedLiveKvTokens(), 1024 + 100);
}

// ----------------------------------------------- end-to-end parity

TEST(Scheduler, OptimisticUnderLightLoadEqualsReserve)
{
    // Light load: admission never denies, so the optimistic discipline
    // makes the exact decisions Reserve does and the runs must be
    // bit-for-bit identical — the zero-preemption parity pin.
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = 3;
    mt.base.arrival_rate_per_s = 0.005;
    mt.base.seed = 5;
    mt.turns = 3;
    mt.gen_lo = 512;
    mt.gen_hi = 2048;
    const auto trace = workload::multiTurnTrace(mt);

    core::TimingEngine engine;
    ClusterConfig reserve_cc, optimistic_cc;
    reserve_cc.replicas = {cloudReplica(SchedulerMode::Reserve)};
    optimistic_cc.replicas = {cloudReplica(SchedulerMode::Optimistic)};
    const ClusterResult a = Cluster(engine, reserve_cc).run(trace);
    const ClusterResult b = Cluster(engine, optimistic_cc).run(trace);

    EXPECT_EQ(b.fleet.preempt.preemptions, 0);
    EXPECT_EQ(b.fleet.preempt.restores, 0);
    EXPECT_EQ(b.fleet.preempt.recompute_tokens, 0);
    ASSERT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.fleet.iterations, b.fleet.iterations);
    EXPECT_EQ(a.fleet.makespan_seconds, b.fleet.makespan_seconds);
    for (int64_t i = 0; i < a.completed(); ++i) {
        const auto &ra = a.fleet.metrics.records()[i];
        const auto &rb = b.fleet.metrics.records()[i];
        EXPECT_EQ(ra.id, rb.id);
        EXPECT_EQ(ra.admit_seconds, rb.admit_seconds);
        EXPECT_EQ(ra.first_token_seconds, rb.first_token_seconds);
        EXPECT_EQ(ra.finish_seconds, rb.finish_seconds);
        EXPECT_EQ(rb.preemptions, 0);
    }
    // The summary's preemption fields stay at their zero sentinel.
    const auto sb = b.summary();
    EXPECT_EQ(sb.preempted_completed, 0);
    EXPECT_TRUE(sb.ttft_mean_by_preemptions.empty());
}

TEST(Scheduler, PreemptionFiresAndEveryRequestRecovers)
{
    core::TimingEngine engine;
    ClusterConfig cc;
    cc.replicas = {cloudReplica(SchedulerMode::Optimistic,
                                VictimPolicy::LastAdmitted,
                                8LL << 30)};
    const auto trace = overloadTrace();
    const ClusterResult r = Cluster(engine, cc).run(trace);

    EXPECT_GT(r.fleet.preempt.preemptions, 0);
    EXPECT_GT(r.fleet.preempt.restores, 0);
    EXPECT_GT(r.fleet.preempt.recompute_tokens, 0);
    // At drain every victim has been re-admitted (none rejected
    // below), and each restore charged its re-prefill.
    EXPECT_EQ(r.fleet.preempt.restores, r.fleet.preempt.preemptions);
    EXPECT_GE(r.fleet.preempt.restore_prefill_tokens,
              r.fleet.preempt.recompute_tokens);
    // Preemption must lose no request: everything completes (FIFO is
    // starvation-free and every request here is feasible alone).
    EXPECT_EQ(r.completed(),
              static_cast<int64_t>(trace.size()));
    EXPECT_TRUE(r.fleet.rejected.empty());

    const auto s = r.summary();
    EXPECT_GT(s.preempted_completed, 0);
    EXPECT_EQ(s.preemptions_total, r.fleet.preempt.preemptions);
    EXPECT_EQ(s.recompute_tokens, r.fleet.preempt.recompute_tokens);
    ASSERT_GT(s.ttft_mean_by_preemptions.size(), 1u);

    // Determinism: the same run again is bit-identical.
    const ClusterResult r2 = Cluster(engine, cc).run(trace);
    EXPECT_EQ(r2.fleet.makespan_seconds, r.fleet.makespan_seconds);
    EXPECT_EQ(r2.fleet.preempt.preemptions,
              r.fleet.preempt.preemptions);
}

TEST(Scheduler, OptimisticBeatsReserveGoodputOnOverloadBurst)
{
    // The headline: under a long-generation burst, packing on current
    // footprints (+ preemption) sustains higher goodput and far lower
    // TTFT than final-length booking.
    core::TimingEngine engine;
    const auto trace = overloadTrace();
    auto run = [&](SchedulerMode mode) {
        ClusterConfig cc;
        cc.replicas = {cloudReplica(mode, VictimPolicy::LastAdmitted,
                                    8LL << 30)};
        return Cluster(engine, cc).run(trace);
    };
    const auto reserve = run(SchedulerMode::Reserve).summary();
    const auto optimistic = run(SchedulerMode::Optimistic).summary();
    EXPECT_GT(optimistic.throughput_tokens_per_s,
              reserve.throughput_tokens_per_s);
    EXPECT_LT(optimistic.ttft_p99, reserve.ttft_p99);
}

// ------------------------------------------------ reload-cost knob

TEST(Scheduler, PrefixReloadKnobChargesCacheHits)
{
    // Same shared-prefix trace, same cache: charging hits at a finite
    // bandwidth must strictly lengthen the makespan vs free hits, and
    // leave hit counting itself untouched.
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = 24;
    pc.base.arrival_rate_per_s = 2.0;
    pc.base.seed = 9;
    pc.num_families = 2;
    pc.prefix_len = 2048;
    pc.suffix_lo = 32;
    pc.suffix_hi = 64;
    pc.gen_lo = 32;
    pc.gen_hi = 64;
    const auto trace = workload::sharedPrefixTrace(pc);

    core::TimingEngine engine;
    auto run = [&](double gbps) {
        core::SystemOptions opts;
        opts.prefix_reload_gbps = gbps;
        ClusterConfig cc;
        cc.replicas = {cloudReplica(SchedulerMode::Reserve,
                                    VictimPolicy::LastAdmitted,
                                    4LL << 30, opts)};
        return Cluster(engine, cc).run(trace);
    };
    const ClusterResult free_hits = run(0.0);
    const ClusterResult paid_hits = run(64.0);
    ASSERT_GT(free_hits.fleet.prefix.hit_tokens, 0);
    EXPECT_EQ(paid_hits.fleet.prefix.hit_tokens,
              free_hits.fleet.prefix.hit_tokens);
    EXPECT_GT(paid_hits.fleet.makespan_seconds,
              free_hits.fleet.makespan_seconds);
}

} // namespace
} // namespace specontext
