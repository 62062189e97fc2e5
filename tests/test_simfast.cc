/**
 * @file
 * Tests of the simulator fast path: the SimFastPath switches
 * (skip-ahead decode stepping with era stepping across multi-replica
 * fleets, cached per-lane pricers) must never change a single
 * simulated quantity — only how fast the simulator derives it. Every
 * parity test here runs the reference loop (both switches off) as the
 * oracle and compares full ClusterResults with exact ==, not
 * tolerances: a fast path that is "close" is wrong.
 *
 * Also pinned here because the fast path leans on them:
 *  - SystemPricer bulk windows (round k of a window == a fresh
 *    pricer's decodeSeconds() on the elementwise-grown KV, and
 *    runWindow == a caller-side loop of one-round runWindow() calls,
 *    bit for bit), and every query of one reused pricer == the same
 *    query on a fresh pricer, on a grid of shapes for every
 *    continuous-batching system;
 *  - serving::roundFloorLowerBound(), the admission cap peers' windows
 *    stop at, never above a clock stepped by n rounded additions;
 *  - MemoryModel::allResidentMaxTokens() as the exact integer
 *    inversion of the all-layers-resident fit test, under both of
 *    SpeContext's placement rules;
 *  - the router asking every lane for its own feasibility verdict;
 *  - the event loop's tie-break: lanes booked at the same instant
 *    step lowest slot first, on a fixed fleet and across an elastic
 *    mid-run retirement, under both loops;
 *  - ServingMetrics summary-cache invalidation on merge-into-nonempty
 *    (regression: a polled collector must never serve pre-merge
 *    percentiles);
 *  - the prefix tree and PrefixAffinity routing keying on prompt token
 *    contents, never on where the tokens are stored (the same trace
 *    with every prompt rebuilt into a fresh flat buffer runs
 *    identically), while matching shared family heads by identity
 *    (a gate on the tokens the tree reads by content).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/timing_engine.h"
#include "obs/analysis.h"
#include "obs/obs.h"
#include "serving/cluster.h"
#include "serving/metrics.h"
#include "serving/replica_engine.h"
#include "serving/server.h"
#include "sim/memory_model.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using serving::Cluster;
using serving::ClusterConfig;
using serving::ClusterResult;
using serving::ReplicaConfig;
using serving::Request;
using serving::RequestRecord;
using serving::RouterPolicy;
using serving::SchedulerMode;
using serving::ServingMetrics;
using serving::ServingSummary;

// ------------------------------------------------------------ helpers

ReplicaConfig
speReplica(int64_t budget = 2048)
{
    ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = budget;
    rc.timing.system = core::SystemRegistry::create("SpeContext", opts);
    rc.max_batch = 8;
    return rc;
}

/** Full-attention replica under Optimistic scheduling with offload
 *  forbidden: admission binds on HBM and long generations force
 *  KV-pressure preemptions (the bench_preemption recipe). */
ReplicaConfig
preemptReplica()
{
    ReplicaConfig rc;
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
    rc.scheduler_mode = SchedulerMode::Optimistic;
    return rc;
}

std::vector<Request>
diurnal(int64_t n, uint64_t seed, double rate = 2.0)
{
    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = n;
    dc.base.arrival_rate_per_s = rate;
    dc.base.seed = seed;
    dc.prompt_lo = 256;
    dc.prompt_hi = 2048;
    dc.gen_lo = 64;
    dc.gen_hi = 512;
    return workload::diurnalTrace(dc);
}

/** Overloaded long-generation multi-turn trace — bursts arrive faster
 *  than bookings retire, so Optimistic replicas preempt. */
std::vector<Request>
preemptTrace(uint64_t seed)
{
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = 12;
    mt.base.arrival_rate_per_s = 0.8;
    mt.base.seed = seed;
    mt.turns = 4;
    mt.think_time_mean_s = 15.0;
    mt.first_prompt_lo = 2048;
    mt.first_prompt_hi = 8192;
    mt.followup_lo = 64;
    mt.followup_hi = 256;
    mt.gen_lo = 4096;
    mt.gen_hi = 16384;
    return workload::multiTurnTrace(mt);
}

/** Shared-prefix trace whose 16 families far exceed a 1 GiB
 *  per-replica prefix cache (see prefixChurnFleet). */
std::vector<Request>
prefixChurnTrace(int64_t n = 160, uint64_t seed = 37)
{
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = n;
    pc.base.arrival_rate_per_s = 4.0;
    pc.base.seed = seed;
    pc.num_families = 16;
    pc.prefix_len = 2048;
    pc.gen_lo = 64;
    pc.gen_hi = 512;
    return workload::sharedPrefixTrace(pc);
}

/** Four full-attention replicas under PrefixAffinity routing, each
 *  with a prefix cache far smaller than prefixChurnTrace()'s working
 *  set: LRU eviction, affinity spills and pin churn interleave with
 *  the fast path's windows. */
ClusterConfig
prefixChurnFleet(SchedulerMode mode)
{
    ClusterConfig cc;
    for (int i = 0; i < 4; ++i) {
        cc.replicas.push_back(preemptReplica());
        cc.replicas.back().prefix_cache.budget_bytes = 1LL << 30;
        cc.replicas.back().scheduler_mode = mode;
    }
    cc.router.policy = RouterPolicy::PrefixAffinity;
    return cc;
}

/** SpeContext lanes with a 4-request batch under LeastKvLoad routing;
 *  backloggedTrace() peaks queue work behind their full batches, so
 *  lanes decode with a backlog that cannot be admitted before the
 *  next retirement (or, Optimistic, preemption). */
ClusterConfig
backloggedFleet(SchedulerMode mode, size_t lanes)
{
    ClusterConfig cc;
    for (size_t i = 0; i < lanes; ++i) {
        cc.replicas.push_back(speReplica());
        cc.replicas.back().max_batch = 4;
        cc.replicas.back().scheduler_mode = mode;
    }
    cc.router.policy = RouterPolicy::LeastKvLoad;
    return cc;
}

std::vector<Request>
backloggedTrace(size_t lanes)
{
    return diurnal(400, 19, 2.0 * static_cast<double>(lanes));
}

/** A permanent-eviction replica ("H2O" or "StreamingLLM") under
 *  Optimistic scheduling: a 4096-token budget, so most contexts of
 *  evictionTrace() keep growing into it, and 22 GiB of HBM, room for
 *  ~20.9k resident tokens (about five requests at the budget), so
 *  growth forces preemptions. */
ReplicaConfig
evictionReplica(const char *system)
{
    ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    rc.timing.hw.gpu_mem_bytes = 22LL << 30;
    core::SystemOptions opts;
    opts.budget = 4096;
    rc.timing.system = core::SystemRegistry::create(system, opts);
    rc.scheduler_mode = SchedulerMode::Optimistic;
    return rc;
}

/** Two evictionReplica() lanes under JoinShortestQueue routing. */
ClusterConfig
evictionFleet(const char *system)
{
    ClusterConfig cc;
    cc.replicas = {evictionReplica(system), evictionReplica(system)};
    cc.router.policy = RouterPolicy::JoinShortestQueue;
    return cc;
}

/** Diurnal trace with generations up to 4096 tokens; on
 *  evictionFleet() seed 3 preempts (21 times under H2O, 12 under
 *  StreamingLLM), seed 5 does not. */
std::vector<Request>
evictionTrace(uint64_t seed)
{
    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = 200;
    dc.base.arrival_rate_per_s = 1.0;
    dc.base.seed = seed;
    dc.prompt_lo = 256;
    dc.prompt_hi = 2048;
    dc.gen_lo = 64;
    dc.gen_hi = 4096;
    return workload::diurnalTrace(dc);
}

/** Exact comparison of every simulated quantity two runs expose.
 *  Doubles compare with == on purpose: the fast path promises bit
 *  identity, not closeness. */
void
expectSameSimulation(const ClusterResult &a, const ClusterResult &b)
{
    EXPECT_EQ(a.fleet.makespan_seconds, b.fleet.makespan_seconds);
    EXPECT_EQ(a.fleet.iterations, b.fleet.iterations);
    EXPECT_EQ(a.fleet.peak_in_flight, b.fleet.peak_in_flight);
    EXPECT_EQ(a.fleet.rejected.size(), b.fleet.rejected.size());
    EXPECT_EQ(a.replica_seconds, b.replica_seconds);
    EXPECT_EQ(a.fleet.preempt.preemptions, b.fleet.preempt.preemptions);
    EXPECT_EQ(a.fleet.preempt.restores, b.fleet.preempt.restores);
    EXPECT_EQ(a.fleet.preempt.recompute_tokens,
              b.fleet.preempt.recompute_tokens);

    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (size_t i = 0; i < a.placements.size(); ++i) {
        EXPECT_EQ(a.placements[i].request_id,
                  b.placements[i].request_id);
        EXPECT_EQ(a.placements[i].replica, b.placements[i].replica);
    }

    ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
    for (size_t i = 0; i < a.scale_events.size(); ++i) {
        EXPECT_EQ(a.scale_events[i].t_seconds,
                  b.scale_events[i].t_seconds);
        EXPECT_EQ(a.scale_events[i].action, b.scale_events[i].action);
        EXPECT_EQ(a.scale_events[i].replica, b.scale_events[i].replica);
    }

    // Per-request records, not just aggregates: a compensating pair of
    // per-request errors must not pass.
    const auto &ra = a.fleet.metrics.records();
    const auto &rb = b.fleet.metrics.records();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_EQ(ra[i].replica, rb[i].replica);
        EXPECT_EQ(ra[i].admit_seconds, rb[i].admit_seconds);
        EXPECT_EQ(ra[i].first_token_seconds, rb[i].first_token_seconds);
        EXPECT_EQ(ra[i].finish_seconds, rb[i].finish_seconds);
        EXPECT_EQ(ra[i].preemptions, rb[i].preemptions);
        EXPECT_EQ(ra[i].recompute_tokens, rb[i].recompute_tokens);
    }

    const ServingSummary sa = a.summary();
    const ServingSummary sb = b.summary();
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.total_generated_tokens, sb.total_generated_tokens);
    EXPECT_EQ(sa.ttft_mean, sb.ttft_mean);
    EXPECT_EQ(sa.ttft_p99, sb.ttft_p99);
    EXPECT_EQ(sa.e2e_mean, sb.e2e_mean);
    EXPECT_EQ(sa.e2e_p99, sb.e2e_p99);
    EXPECT_EQ(sa.tpot_mean, sb.tpot_mean);
    EXPECT_EQ(sa.queue_delay_mean, sb.queue_delay_mean);
    EXPECT_EQ(sa.throughput_tokens_per_s, sb.throughput_tokens_per_s);
}

/** Can a batch at these current KV lengths execute one decode round?
 *  The fit test SystemPricer::fitRounds() scans, by its definition:
 *  admit(kv minus its last entry, 1, kv.back()); an empty batch fits. */
core::AdmissionDecision
fitsCurrent(core::SystemPricer &pricer, const std::vector<int64_t> &kv)
{
    if (kv.empty())
        return {true, ""};
    const std::vector<int64_t> rest(kv.begin(), kv.end() - 1);
    return pricer.admit(rest, 1, kv.back());
}

ClusterResult
runFleet(const core::TimingEngine &engine, ClusterConfig cfg,
         const std::vector<Request> &trace, bool skip_ahead,
         bool cache_costs)
{
    cfg.fast_path.skip_ahead = skip_ahead;
    cfg.fast_path.cache_decode_costs = cache_costs;
    return Cluster(engine, cfg).run(trace);
}

// ----------------------------------------- skip-ahead cluster parity

TEST(SimFast, SkipAheadParityReserveFleet)
{
    core::TimingEngine engine;
    for (uint64_t seed : {7u, 23u}) {
        const auto trace = diurnal(96, seed);
        ClusterConfig cc;
        cc.replicas = {speReplica(), speReplica(), speReplica()};
        cc.router.policy = RouterPolicy::LeastKvLoad;
        const ClusterResult slow =
            runFleet(engine, cc, trace, false, false);
        const ClusterResult fast =
            runFleet(engine, cc, trace, true, true);
        ASSERT_GT(slow.completed(), 0);
        expectSameSimulation(slow, fast);
    }
}

TEST(SimFast, SkipAheadParityPreemptionHeavyOptimistic)
{
    // Randomized preemption-heavy property: across seeds, an
    // Optimistic fleet at firm overload (so preempt/restore re-entry
    // interleaves with decode windows) must be bit-identical with
    // skip-ahead on and off. The engine may only skip within
    // pure-decode runs; this pins that it never skips *across* a
    // preemption boundary.
    core::TimingEngine engine;
    int64_t preemptions_seen = 0;
    for (uint64_t seed : {3u, 11u, 29u}) {
        const auto trace = preemptTrace(seed);
        ClusterConfig cc;
        cc.replicas = {preemptReplica(), preemptReplica()};
        cc.router.policy = RouterPolicy::JoinShortestQueue;
        const ClusterResult slow =
            runFleet(engine, cc, trace, false, false);
        const ClusterResult fast =
            runFleet(engine, cc, trace, true, true);
        ASSERT_GT(slow.completed(), 0);
        preemptions_seen += slow.fleet.preempt.preemptions;
        expectSameSimulation(slow, fast);
    }
    // The property is vacuous if no seed ever preempted.
    EXPECT_GT(preemptions_seen, 0);
}

TEST(SimFast, PricerCacheAloneIsBitIdentical)
{
    // cache_decode_costs isolated from skip_ahead: the cached
    // pricer must reproduce the re-derive-per-iteration costs
    // exactly even when every round still goes through the event loop.
    core::TimingEngine engine;
    const auto trace = diurnal(64, 5);
    ClusterConfig cc;
    cc.replicas = {speReplica(), speReplica()};
    cc.router.policy = RouterPolicy::RoundRobin;
    const ClusterResult plain = runFleet(engine, cc, trace, false, false);
    const ClusterResult cached = runFleet(engine, cc, trace, false, true);
    expectSameSimulation(plain, cached);
}

TEST(SimFast, PrefixChurnFleetMatchesReference)
{
    // Era stepping runs on prefix-cache fleets by default: four
    // full-attention replicas under PrefixAffinity routing, with a
    // per-replica cache far smaller than the families' working set,
    // so LRU eviction, affinity spills and pin churn interleave with
    // the fast path's windows. The default fast path must match the
    // reference loop bit for bit, under both admission modes:
    // Optimistic is the prefix-churn shape itself, where each lane's
    // admission cap rides the full-attention pricer's weight-streaming
    // floor; a Reserve lane with nothing queued caps only at its next
    // pending arrival.
    core::TimingEngine engine;
    const auto trace = prefixChurnTrace();
    for (SchedulerMode mode :
         {SchedulerMode::Optimistic, SchedulerMode::Reserve}) {
        SCOPED_TRACE(mode == SchedulerMode::Optimistic ? "Optimistic"
                                                       : "Reserve");
        const ClusterConfig cc = prefixChurnFleet(mode);
        const ClusterResult reference =
            runFleet(engine, cc, trace, false, false);
        const ClusterResult fast =
            runFleet(engine, cc, trace, true, true);
        ASSERT_GT(reference.completed(), 0);
        // The cache really churned, so the case cannot pass vacuously.
        EXPECT_GT(reference.fleet.prefix.evicted_tokens, 0);
        EXPECT_GT(reference.fleet.prefix.hit_tokens, 0);
        expectSameSimulation(reference, fast);
        EXPECT_EQ(reference.fleet.prefix.evicted_tokens,
                  fast.fleet.prefix.evicted_tokens);
        EXPECT_EQ(reference.fleet.prefix.hit_tokens,
                  fast.fleet.prefix.hit_tokens);
        EXPECT_EQ(reference.fleet.prefix.inserted_tokens,
                  fast.fleet.prefix.inserted_tokens);
    }
}

TEST(SimFast, EraLanesStopAtPeerAdmissionCapsOnLargerPrefixChurn)
{
    // Optimistic full-attention lanes publish admission caps a few
    // weight-streaming floors past their clocks, so eras engage on
    // this fleet and every era lane must stop at the uniform barrier
    // (the earliest peer cap), not run on to the routing horizon. The
    // small PrefixChurnFleetMatchesReference trace happens to place
    // identically even when an era lane overruns a peer's cap; this
    // longer, busier one does not.
    core::TimingEngine engine;
    const auto trace = prefixChurnTrace(300, 11);
    const ClusterConfig cc = prefixChurnFleet(SchedulerMode::Optimistic);
    const ClusterResult reference =
        runFleet(engine, cc, trace, false, false);
    const ClusterResult fast = runFleet(engine, cc, trace, true, true);
    ASSERT_GT(reference.completed(), 0);
    EXPECT_GT(reference.fleet.prefix.evicted_tokens, 0);
    expectSameSimulation(reference, fast);
}

TEST(SimFast, BackloggedFleetsMatchReference)
{
    // A lane whose queue is backlogged behind a full batch runs bulk
    // windows to its next retirement (or predicted preemption) and
    // publishes an admission cap that many round floors past its
    // clock, so its peers keep their windows and eras engage. The
    // default fast path must still match the reference loop bit for
    // bit, on one lane and across fleets where peers' caps bound each
    // other's windows.
    core::TimingEngine engine;
    for (SchedulerMode mode :
         {SchedulerMode::Reserve, SchedulerMode::Optimistic}) {
        for (size_t lanes : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(mode == SchedulerMode::Optimistic
                                         ? "Optimistic "
                                         : "Reserve ") +
                         std::to_string(lanes) + " lanes");
            const ClusterConfig cc = backloggedFleet(mode, lanes);
            const auto trace = backloggedTrace(lanes);
            const ClusterResult reference =
                runFleet(engine, cc, trace, false, false);
            const ClusterResult fast =
                runFleet(engine, cc, trace, true, true);
            ASSERT_GT(reference.completed(), 0);
            // Every batch filled and work queued behind them, so the
            // case cannot pass vacuously.
            EXPECT_EQ(reference.fleet.peak_in_flight,
                      4 * static_cast<int64_t>(lanes));
            EXPECT_GT(reference.summary().queue_delay_mean, 0.0);
            expectSameSimulation(reference, fast);
        }
    }
}

TEST(SimFast, BackloggedReserveFleetRunsMultiRoundWindows)
{
    // Host-independent engagement gate: a backlog behind a full batch
    // cannot be admitted before the next retirement, so it must not
    // cut its lane's decode window to one round, nor hold every peer's
    // window to its clock. Counters are never compiled out, so this
    // holds in every build.
    core::TimingEngine engine;
    {
        SCOPED_TRACE("2-lane Reserve fleet");
        obs::CounterRegistry counters;
        ClusterConfig cc = backloggedFleet(SchedulerMode::Reserve, 2);
        cc.obs.counters = &counters;
        const ClusterResult result =
            Cluster(engine, cc).run(backloggedTrace(2));
        ASSERT_GT(result.completed(), 0);
        int64_t decode_iters = 0;
        for (size_t r = 0; r < cc.replicas.size(); ++r)
            decode_iters += counters.valueOf(
                "replica" + std::to_string(r) + ".decode_iterations");
        EXPECT_EQ(decode_iters, result.fleet.iterations);
        const int64_t fires = counters.valueOf("clock.rounds");
        ASSERT_GT(fires, 0);
        EXPECT_GE(decode_iters, 10 * fires)
            << decode_iters << " decode rounds in " << fires << " fires";
    }
    {
        SCOPED_TRACE("1-lane Server");
        obs::CounterRegistry counters;
        const ReplicaConfig rc = speReplica();
        serving::ServerConfig sc;
        sc.timing = rc.timing;
        sc.max_batch = 4;
        sc.obs.counters = &counters;
        const serving::ServeResult result =
            serving::Server(engine, sc).run(backloggedTrace(1));
        ASSERT_GT(result.completed(), 0);
        const int64_t decode_iters =
            counters.valueOf("replica0.decode_iterations");
        EXPECT_EQ(decode_iters, result.iterations);
        const int64_t fires = counters.valueOf("clock.rounds");
        ASSERT_GT(fires, 0);
        EXPECT_GE(decode_iters, 10 * fires)
            << decode_iters << " decode rounds in " << fires << " fires";
    }
}

TEST(SimFast, OptimisticPrefixChurnRunsMultiRoundWindows)
{
    // Host-independent engagement gate: on the Optimistic prefix-churn
    // fleet the default fast path must retire several decode rounds
    // per ReplicaEngine::step() call (lone fires and era lane steps
    // alike). Each lane's admission cap sits a weight-streaming floor
    // per provably preemption-free round past its clock
    // (SystemPricer::minRoundSeconds); a lane with an empty queue
    // leaves out its next retirement, which admits nothing, so peers
    // run past it. This fleet runs 17.3 rounds per step; with the
    // retirement term back in the empty-queue cap it runs 8.9, and
    // with no floor about one; the gate asks for 12. The step count is
    // a plain result field, so this holds in every build.
    core::TimingEngine engine;
    obs::CounterRegistry counters;
    ClusterConfig cc = prefixChurnFleet(SchedulerMode::Optimistic);
    cc.obs.counters = &counters;
    const ClusterResult result =
        Cluster(engine, cc).run(prefixChurnTrace());
    ASSERT_GT(result.completed(), 0);

    int64_t decode_iters = 0, steps = 0;
    for (size_t r = 0; r < cc.replicas.size(); ++r) {
        decode_iters += counters.valueOf(
            "replica" + std::to_string(r) + ".decode_iterations");
        steps += result.per_replica[r].steps;
    }
    EXPECT_EQ(decode_iters, result.fleet.iterations);
    EXPECT_EQ(steps, result.fleet.steps);
    ASSERT_GT(steps, 0);
    // Every step is a lone fire or an era lane step, and every lone
    // fire steps one lane.
    EXPECT_GE(steps, counters.valueOf("clock.rounds"));
    EXPECT_GE(decode_iters, 12 * steps)
        << decode_iters << " decode rounds in " << steps << " steps";
}

TEST(SimFast, OptimisticPrefixChurnQueriesFitOnlyToRefreshItsProof)
{
    // Host-independent gate: the decode-fit query is the KV-pressure
    // check, and a live proof already covers the next round (it held
    // for the batch it was proven for, and every sub-batch of a
    // fitting batch fits), so on the Optimistic prefix-churn fleet,
    // which never preempts, the fast path queries only where a proof
    // is spent: 152 queries in 812 steps. With a query at every window
    // head it makes 942; the gate allows one per four steps. The
    // reference loop holds no proof past its round, so it queries every
    // round, plus once more after each preemption. Both counts are
    // plain result fields, so this holds in every build.
    core::TimingEngine engine;
    const std::vector<Request> trace = prefixChurnTrace();
    const ClusterConfig cc = prefixChurnFleet(SchedulerMode::Optimistic);
    const ClusterResult fast = runFleet(engine, cc, trace, true, true);
    ASSERT_EQ(fast.fleet.preempt.preemptions, 0);
    int64_t queries = 0, steps = 0;
    for (const serving::ServeResult &r : fast.per_replica) {
        queries += r.fit_queries;
        steps += r.steps;
    }
    EXPECT_EQ(queries, fast.fleet.fit_queries);
    EXPECT_EQ(steps, fast.fleet.steps);
    ASSERT_GT(queries, 0);
    EXPECT_LE(4 * queries, steps)
        << queries << " fit queries in " << steps << " steps";

    const ClusterResult reference = runFleet(engine, cc, trace, false, false);
    EXPECT_EQ(reference.fleet.fit_queries,
              reference.fleet.iterations +
                  reference.fleet.preempt.preemptions);
    expectSameSimulation(reference, fast);
}

TEST(SimFast, OptimisticEvictionFleetsMatchReference)
{
    // H2O and StreamingLLM lanes price through the same tabled pricer
    // as every other continuous system, weight-streaming floor
    // included, so their Optimistic admission caps sit past their
    // clocks and their windows stay open across peers. Under
    // preemption pressure the default fast path must still match the
    // reference loop bit for bit.
    core::TimingEngine engine;
    for (const char *system : {"H2O", "StreamingLLM"}) {
        int64_t preemptions = 0;
        for (uint64_t seed : {3u, 5u}) {
            SCOPED_TRACE(std::string(system) + " seed " +
                         std::to_string(seed));
            const ClusterConfig cc = evictionFleet(system);
            const auto trace = evictionTrace(seed);
            const ClusterResult reference =
                runFleet(engine, cc, trace, false, false);
            const ClusterResult fast =
                runFleet(engine, cc, trace, true, true);
            ASSERT_GT(reference.completed(), 0);
            preemptions += reference.fleet.preempt.preemptions;
            // The reference loop asks every round, and again after
            // each preemption.
            EXPECT_EQ(reference.fleet.fit_queries,
                      reference.fleet.iterations +
                          reference.fleet.preempt.preemptions);
            expectSameSimulation(reference, fast);
        }
        // Contexts grew into preemptions, so the case cannot pass
        // vacuously.
        EXPECT_GT(preemptions, 0) << system;
    }
}

TEST(SimFast, RetirementInsideALiveFitProofMatchesReference)
{
    // An Optimistic lane keeps its decode-fit proof across a
    // retirement and spends it on what is left of the batch. One H2O
    // lane admits a short request and six long ones at t = 0. The long
    // prompts sit 100 tokens under the longest uniform length six
    // contexts fit at, so the batch grows into a preemption about 100
    // rounds in; the short request retires at round 64, while the
    // proof probed for all seven is still live (checked below). A
    // proof that kept its rounds through the retirement unspent would
    // overrun that preemption. The default fast path must match the
    // reference loop bit for bit.
    core::TimingEngine engine;
    ClusterConfig cc;
    cc.replicas = {evictionReplica("H2O")};
    auto pricer = engine.makePricer(cc.replicas[0].timing);
    int64_t lo = 1, hi = cc.replicas[0].timing.system->options().budget;
    ASSERT_FALSE(fitsCurrent(*pricer, std::vector<int64_t>(6, hi)).admit);
    while (hi - lo > 1) {
        const int64_t mid = lo + (hi - lo) / 2;
        (fitsCurrent(*pricer, std::vector<int64_t>(6, mid)).admit ? lo
                                                                   : hi) =
            mid;
    }
    const int64_t short_prompt = 16, short_gen = 64;
    const int64_t long_prompt = lo - 100;
    std::vector<Request> trace;
    for (int64_t id = 0; id < 7; ++id) {
        Request r;
        r.id = id;
        r.prompt_len = id == 0 ? short_prompt : long_prompt;
        r.gen_len = id == 0 ? short_gen : 1000;
        trace.push_back(r);
    }
    // Round short_gen - 1, the short request's last, passes the
    // preemption check with all seven contexts, so the proof probed
    // once all seven are admitted covers the retirement.
    std::vector<int64_t> at_retire(7, long_prompt + short_gen);
    at_retire[0] = short_prompt + short_gen;
    ASSERT_TRUE(fitsCurrent(*pricer, at_retire).admit);

    const ClusterResult reference =
        runFleet(engine, cc, trace, false, false);
    const ClusterResult fast = runFleet(engine, cc, trace, true, true);
    ASSERT_EQ(reference.completed(), 7);
    for (const RequestRecord &rec : reference.fleet.metrics.records())
        if (rec.id == 0) {
            EXPECT_EQ(rec.preemptions, 0);
        }
    EXPECT_GT(reference.fleet.preempt.preemptions, 0);
    expectSameSimulation(reference, fast);
}

TEST(SimFast, OptimisticEvictionFleetsRunMultiRoundWindows)
{
    // Host-independent engagement gate: with the weight-streaming floor
    // under every H2O and StreamingLLM round, an Optimistic lane caps
    // its next admission that many floors past its clock, so its peer
    // keeps running multi-round windows. With a floor of 0 every cap
    // is its lane's own clock and the fleet steps about one round per
    // event-loop fire (1.1 rounds per fire on both systems). The seed
    // that preempts runs 13.4 (H2O) and 16.6 (StreamingLLM) rounds per
    // fire; the gate asks for 8. Counters are never compiled out, so
    // this holds in every build.
    core::TimingEngine engine;
    for (const char *system : {"H2O", "StreamingLLM"}) {
        SCOPED_TRACE(system);
        obs::CounterRegistry counters;
        ClusterConfig cc = evictionFleet(system);
        cc.obs.counters = &counters;
        const ClusterResult result =
            Cluster(engine, cc).run(evictionTrace(3));
        ASSERT_GT(result.completed(), 0);
        EXPECT_GT(result.fleet.preempt.preemptions, 0);
        int64_t decode_iters = 0;
        for (size_t r = 0; r < cc.replicas.size(); ++r)
            decode_iters += counters.valueOf(
                "replica" + std::to_string(r) + ".decode_iterations");
        EXPECT_EQ(decode_iters, result.fleet.iterations);
        const int64_t fires = counters.valueOf("clock.rounds");
        ASSERT_GT(fires, 0);
        EXPECT_GE(decode_iters, 8 * fires)
            << decode_iters << " decode rounds in " << fires << " fires";
    }
}

TEST(SimFast, PrefixTreeComparesTokenContentsNotStorage)
{
    // Differential: the prefix tree and the router must key on token
    // contents, never on where a prompt's tokens live. The same trace,
    // once as generated (each family's prefix one shared head block,
    // plus a tail per prompt) and once with every prompt rebuilt flat
    // into its own fresh buffer (equal contents, different addresses,
    // no piece boundary), must give bitwise-equal results on the
    // churning prefix fleet.
    core::TimingEngine engine;
    const ClusterConfig cc = prefixChurnFleet(SchedulerMode::Optimistic);
    const std::vector<Request> trace = prefixChurnTrace();
    std::vector<Request> rebuilt = trace;
    std::set<const int32_t *> heads;
    for (size_t i = 0; i < rebuilt.size(); ++i) {
        const kv::TokenSpan generated = trace[i].prompt_tokens;
        ASSERT_TRUE(trace[i].prompt_tokens.hasHead());
        heads.insert(generated.piece(0).data);
        serving::PromptTokens &p = rebuilt[i].prompt_tokens;
        p = serving::PromptTokens(std::vector<int32_t>(p.begin(), p.end()));
        ASSERT_FALSE(p.hasHead());
        const kv::TokenSpan flat = p;
        ASSERT_NE(flat.piece(0).data, generated.piece(0).data);
        ASSERT_NE(flat.piece(0).data, generated.piece(1).data);
        ASSERT_TRUE(p == trace[i].prompt_tokens);
    }
    // One head per family the trace drew, shared by its members.
    EXPECT_LE(heads.size(), 16u);
    EXPECT_LT(heads.size(), trace.size());

    const ClusterResult a = Cluster(engine, cc).run(trace);
    const ClusterResult b = Cluster(engine, cc).run(rebuilt);
    expectSameSimulation(a, b);
    const serving::PrefixCacheStats &pa = a.fleet.prefix;
    const serving::PrefixCacheStats &pb = b.fleet.prefix;
    EXPECT_EQ(pa.lookups, pb.lookups);
    EXPECT_EQ(pa.hit_requests, pb.hit_requests);
    EXPECT_EQ(pa.hit_tokens, pb.hit_tokens);
    EXPECT_EQ(pa.prompt_tokens, pb.prompt_tokens);
    EXPECT_EQ(pa.inserted_tokens, pb.inserted_tokens);
    EXPECT_EQ(pa.evicted_tokens, pb.evicted_tokens);
    EXPECT_EQ(pa.resident_tokens, pb.resident_tokens);
    EXPECT_EQ(pa.resident_bytes, pb.resident_bytes);
    // The fleet really shares and churns: hits and evictions both.
    EXPECT_GT(pa.hit_tokens, 0);
    EXPECT_GT(pa.evicted_tokens, 0);
    // Flat prompts share no storage with the tree's edges, so every
    // warm prefix is read by content.
    EXPECT_GT(pb.compared_tokens, pb.hit_tokens);
}

TEST(SimFast, PrefixTreeMatchesSharedHeadsByIdentity)
{
    // Host-independent work gate: the tree's edges view the blocks
    // prompts are stored in, so a warm family prefix matches by
    // pointer and only the edges that really differ are read by
    // content. Compared tokens count the router's probes as well as
    // admissions; hit tokens count admissions only. Measured: 40,320
    // compared for 265,680 hit tokens (0.15) with shared heads, and
    // 835,184 (3.1) with the same prompts rebuilt flat, where every
    // warm prefix is read in full (PrefixTreeComparesTokenContents-
    // NotStorage checks that side). The bound, 1/3, leaves a 2.2x
    // margin and fails as soon as warm prefixes are read by content.
    core::TimingEngine engine;
    const ClusterConfig cc = prefixChurnFleet(SchedulerMode::Optimistic);
    const std::vector<Request> trace = prefixChurnTrace();
    const serving::PrefixCacheStats shared =
        Cluster(engine, cc).run(trace).fleet.prefix;
    ASSERT_GT(shared.hit_tokens, 0);
    EXPECT_LE(3 * shared.compared_tokens, shared.hit_tokens)
        << shared.compared_tokens << " tokens compared for "
        << shared.hit_tokens << " hit tokens";
}

TEST(SimFast, ObservedRunMatchesUnobservedSimulation)
{
    // Attaching trace + counters runs the same decode path as an
    // unobserved run (bulk windows, deferred reconciliation and era
    // stepping included): simulated quantities must not move, and the
    // decode-iteration counter must agree with the unobserved
    // iteration count.
    core::TimingEngine engine;
    const auto trace = diurnal(64, 19);
    ClusterConfig cc;
    cc.replicas = {speReplica(), speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    const ClusterResult plain = runFleet(engine, cc, trace, true, true);

    obs::Trace ring{obs::TraceConfig{1 << 18}};
    obs::CounterRegistry counters;
    ClusterConfig oc = cc;
    oc.obs.trace = &ring;
    oc.obs.counters = &counters;
    const ClusterResult observed = runFleet(engine, oc, trace, true, true);
    expectSameSimulation(plain, observed);

    int64_t decode_iters = 0;
    for (const auto &c : counters.snapshot()) {
        if (c.name.find("decode_iterations") != std::string::npos)
            decode_iters += c.value;
    }
    EXPECT_EQ(decode_iters, plain.fleet.iterations);
}

// --------------------------------------------- elastic lanes mid-skip

/** Scale to 3 replicas early, back down to 1 later — attaches and
 *  retires lanes while skip-ahead windows are running on the
 *  surviving lanes. */
class PulseController : public serving::FleetController
{
  public:
    int control(const serving::FleetState &s) override
    {
        const size_t attached = s.live + s.warming;
        if (s.now_seconds < 40.0)
            return static_cast<int>(3 - std::min<size_t>(3, attached));
        return -static_cast<int>(
            std::min<size_t>(attached - 1, attached));
    }
};

TEST(SimFast, ElasticLaneAddRetireParityUnderSkipAhead)
{
    // Elastic control ticks are router-barrier events: they must land
    // *between* eras, never inside one, or a scale decision would see
    // lane state from the future. Pin bit parity of an elastic fleet
    // under the default fast path (era stepping included) against the
    // reference loop, and require that lanes were actually attached
    // and retired mid-run.
    core::TimingEngine engine;
    const auto trace = diurnal(96, 31);
    ClusterConfig cc;
    cc.replicas = {speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    cc.elastic.min_replicas = 1;
    cc.elastic.max_replicas = 3;
    cc.elastic.control_period_seconds = 5.0;

    PulseController slow_ctl, fast_ctl;
    ClusterConfig slow_cfg = cc;
    slow_cfg.elastic.controller = &slow_ctl;
    ClusterConfig fast_cfg = cc;
    fast_cfg.elastic.controller = &fast_ctl;

    const ClusterResult slow =
        runFleet(engine, slow_cfg, trace, false, false);
    const ClusterResult fast =
        runFleet(engine, fast_cfg, trace, true, true);
    // The elastic machinery actually fired: lanes were added and
    // retired mid-run, not just booked.
    ASSERT_FALSE(slow.scale_events.empty());
    bool attached = false, retired = false;
    for (const auto &ev : slow.scale_events) {
        attached |= ev.action == serving::ScaleAction::Attach;
        retired |= ev.action == serving::ScaleAction::Retire;
    }
    EXPECT_TRUE(attached);
    EXPECT_TRUE(retired);
    expectSameSimulation(slow, fast);
}

// ------------------------- observed fast path vs observed reference

/** One observed run: the fleet's result plus the trace ring and
 *  counter registry it recorded into. */
struct ObservedRun
{
    obs::Trace ring{obs::TraceConfig{1 << 20}};
    obs::CounterRegistry counters;
    ClusterResult result;
};

std::unique_ptr<ObservedRun>
runObserved(const core::TimingEngine &engine, ClusterConfig cfg,
            const std::vector<Request> &trace, bool fast)
{
    auto run = std::make_unique<ObservedRun>();
    cfg.obs.trace = &run->ring;
    cfg.obs.counters = &run->counters;
    run->result = runFleet(engine, cfg, trace, fast, fast);
    return run;
}

/** Bitwise equality of two analyzeTrace() timeline sets. */
void
expectSameTimelines(const std::vector<obs::RequestTimeline> &a,
                    const std::vector<obs::RequestTimeline> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(a[i].request));
        EXPECT_EQ(a[i].request, b[i].request);
        EXPECT_EQ(a[i].first_token_seconds, b[i].first_token_seconds);
        EXPECT_EQ(a[i].finish_seconds, b[i].finish_seconds);
        for (size_t p = 0; p < obs::kPhaseCount; ++p) {
            EXPECT_EQ(a[i].phases.seconds[p], b[i].phases.seconds[p]);
            EXPECT_EQ(a[i].ttft_phases.seconds[p],
                      b[i].ttft_phases.seconds[p]);
        }
    }
}

/** Σ DecodeWindow.b per replica, and the number of decode events. */
std::vector<int64_t>
decodeRoundsPerReplica(const obs::Trace &ring, size_t replicas,
                       size_t &decode_events)
{
    std::vector<int64_t> rounds(replicas, 0);
    decode_events = 0;
    for (const obs::TraceEvent &e : ring.snapshot()) {
        if (e.type != obs::EventType::DecodeWindow)
            continue;
        ++decode_events;
        rounds.at(static_cast<size_t>(e.replica)) += e.b;
    }
    return rounds;
}

/** The observed default fast path against the observed reference loop:
 *  same simulation, bitwise-equal timelines, window round counts that
 *  add up to every replica's iterations, and fewer decode events.
 *  Returns the reference result. */
ClusterResult
expectObservedFastMatchesReference(const core::TimingEngine &engine,
                                   const ClusterConfig &cc,
                                   const std::vector<Request> &trace)
{
    const auto ref = runObserved(engine, cc, trace, false);
    const auto fast = runObserved(engine, cc, trace, true);
    EXPECT_GT(ref->result.completed(), 0);
    expectSameSimulation(ref->result, fast->result);

    const obs::TraceAnalysis ra = obs::analyzeTrace(ref->ring);
    const obs::TraceAnalysis fa = obs::analyzeTrace(fast->ring);
    expectSameTimelines(ra.complete, fa.complete);
    expectSameTimelines(ra.incomplete, fa.incomplete);

    const size_t n = cc.replicas.size();
    for (const ObservedRun *run : {ref.get(), fast.get()}) {
        for (size_t r = 0; r < n; ++r)
            EXPECT_EQ(run->counters.valueOf(
                          "replica" + std::to_string(r) +
                          ".decode_iterations"),
                      run->result.per_replica[r].iterations)
                << "replica " << r;
    }
    if (ref->ring.emitted() == 0) // observability compiled out
        return std::move(ref->result);
    EXPECT_EQ(ref->ring.dropped(), 0u);
    EXPECT_EQ(fast->ring.dropped(), 0u);
    EXPECT_FALSE(ra.complete.empty());
    size_t ref_events = 0, fast_events = 0;
    const std::vector<int64_t> ref_rounds =
        decodeRoundsPerReplica(ref->ring, n, ref_events);
    const std::vector<int64_t> fast_rounds =
        decodeRoundsPerReplica(fast->ring, n, fast_events);
    for (size_t r = 0; r < n; ++r) {
        SCOPED_TRACE("replica " + std::to_string(r));
        EXPECT_EQ(ref_rounds[r], ref->result.per_replica[r].iterations);
        EXPECT_EQ(fast_rounds[r],
                  fast->result.per_replica[r].iterations);
    }
    EXPECT_LT(fast_events, ref_events);
    return std::move(ref->result);
}

TEST(SimFastObserved, ReserveSpeContextFleetMatchesReference)
{
    core::TimingEngine engine;
    ClusterConfig cc;
    cc.replicas = {speReplica(), speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    expectObservedFastMatchesReference(engine, cc, diurnal(64, 19));
}

TEST(SimFastObserved, PreemptingOptimisticFleetMatchesReference)
{
    core::TimingEngine engine;
    ClusterConfig cc;
    cc.replicas = {preemptReplica(), preemptReplica()};
    cc.router.policy = RouterPolicy::JoinShortestQueue;
    const ClusterResult ref =
        expectObservedFastMatchesReference(engine, cc, preemptTrace(11));
    EXPECT_GT(ref.fleet.preempt.preemptions, 0);
}

TEST(SimFastObserved, BackloggedReserveFleetMatchesReference)
{
    core::TimingEngine engine;
    const ClusterResult ref = expectObservedFastMatchesReference(
        engine, backloggedFleet(SchedulerMode::Reserve, 2),
        backloggedTrace(2));
    EXPECT_EQ(ref.fleet.peak_in_flight, 8);
}

TEST(SimFastObserved, PrefixChurnFleetMatchesReference)
{
    core::TimingEngine engine;
    const auto trace = prefixChurnTrace();
    for (SchedulerMode mode :
         {SchedulerMode::Optimistic, SchedulerMode::Reserve}) {
        SCOPED_TRACE(mode == SchedulerMode::Optimistic ? "Optimistic"
                                                       : "Reserve");
        expectObservedFastMatchesReference(engine, prefixChurnFleet(mode),
                                           trace);
    }
}

TEST(SimFastObserved, SamplerRowsMatchReferenceUnderEraStepping)
{
    // An elastic fleet with every observability layer attached: era
    // stepping must stop at each sampler crossing, so every row reads
    // what the reference loop left. The clock.* columns count host
    // event-loop work (rounds, lane fires), which the fast path cuts
    // by design, so they are the one exception. The control period is
    // off the 5 s sampler grid, so control ticks alone cannot bound
    // the eras at the crossings.
    core::TimingEngine engine;
    const auto trace = diurnal(96, 31);
    ClusterConfig cc;
    cc.replicas = {speReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    cc.elastic.min_replicas = 1;
    cc.elastic.max_replicas = 3;
    cc.elastic.control_period_seconds = 7.0;

    struct Run
    {
        PulseController ctl;
        obs::Trace ring{obs::TraceConfig{1 << 18}};
        obs::CounterRegistry counters;
        std::unique_ptr<obs::TimeseriesSampler> sampler;
        ClusterResult result;
    };
    auto observe = [&](bool fast) {
        auto run = std::make_unique<Run>();
        run->sampler = std::make_unique<obs::TimeseriesSampler>(
            &run->counters, obs::TimeseriesSamplerConfig{5.0, 1 << 16});
        ClusterConfig c = cc;
        c.elastic.controller = &run->ctl;
        c.obs = {&run->ring, &run->counters, run->sampler.get()};
        run->result = runFleet(engine, c, trace, fast, fast);
        return run;
    };
    const auto ref = observe(false);
    const auto fast = observe(true);
    ASSERT_FALSE(ref->result.scale_events.empty());
    expectSameSimulation(ref->result, fast->result);

    // Compare by column name: lanes register their slots as they
    // attach, so a row may be shorter than the final registry.
    auto column = [](const obs::CounterRegistry &reg,
                     const obs::SamplePoint &row,
                     const std::string &name) -> int64_t {
        const std::vector<std::string> &names = reg.names();
        const size_t i = static_cast<size_t>(
            std::find(names.begin(), names.end(), name) - names.begin());
        return i < row.values.size() ? row.values[i] : 0;
    };
    const auto &rr = ref->sampler->samples();
    const auto &fr = fast->sampler->samples();
    ASSERT_GT(rr.size(), 2u);
    ASSERT_EQ(rr.size(), fr.size());
    std::vector<std::string> names = ref->counters.names();
    std::vector<std::string> fast_names = fast->counters.names();
    std::sort(names.begin(), names.end());
    std::sort(fast_names.begin(), fast_names.end());
    ASSERT_EQ(names, fast_names);
    for (size_t i = 0; i < rr.size(); ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        EXPECT_EQ(rr[i].t_seconds, fr[i].t_seconds);
        for (const std::string &name : names) {
            if (name.rfind("clock.", 0) == 0)
                continue;
            EXPECT_EQ(column(ref->counters, rr[i], name),
                      column(fast->counters, fr[i], name))
                << name;
        }
    }
}

// ------------------------------------------------ equal-instant ties

/** Replica ids of the PrefillStart events stamped at `t`, in ring
 *  order: the order in which lanes booked at `t` stepped. */
std::vector<int32_t>
prefillOrderAt(const obs::Trace &ring, double t)
{
    std::vector<int32_t> order;
    for (const obs::TraceEvent &e : ring.snapshot())
        if (e.type == obs::EventType::PrefillStart && e.t_seconds == t)
            order.push_back(e.replica);
    return order;
}

/** Requests of 1024-token prompts and 32-token generations arriving
 *  at the given instants; each finishes within a second on an idle
 *  speReplica(). */
std::vector<Request>
requestsAt(const std::vector<double> &arrivals)
{
    std::vector<Request> trace;
    for (const double t : arrivals) {
        Request r;
        r.id = static_cast<int64_t>(trace.size());
        r.arrival_seconds = t;
        r.prompt_len = 1024;
        r.gen_len = 32;
        trace.push_back(r);
    }
    return trace;
}

TEST(EventLoopTies, EqualInstantLanesStepLowestSlotFirst)
{
    // The t=0 request moves the round-robin cursor to lane 1, so the
    // t=30 pair routes to lanes 1 then 0: both idle lanes are booked
    // at 30, and lane 0 must step first although it was routed last.
    core::TimingEngine engine;
    ClusterConfig cc;
    cc.replicas = {speReplica(), speReplica()};
    cc.router.policy = RouterPolicy::RoundRobin;
    const auto trace = requestsAt({0.0, 30.0, 30.0});
    const auto ref = runObserved(engine, cc, trace, false);
    const auto fast = runObserved(engine, cc, trace, true);
    expectSameSimulation(ref->result, fast->result);
    ASSERT_EQ(ref->result.placements.size(), 3u);
    EXPECT_EQ(ref->result.placements[1].replica, 1);
    EXPECT_EQ(ref->result.placements[2].replica, 0);
    if (ref->ring.emitted() == 0) // observability compiled out
        return;
    for (const ObservedRun *run : {ref.get(), fast.get()})
        EXPECT_EQ(prefillOrderAt(run->ring, 30.0),
                  (std::vector<int32_t>{0, 1}));
}

/** Grows the fleet to slots 0-2 at t=5, drains slot 2 at t=10 and
 *  attaches slot 3 at t=15, so slot 3 joins after a retirement below
 *  it; holds otherwise. */
class RetireBelowController : public serving::FleetController
{
  public:
    int control(const serving::FleetState &s) override
    {
        if (s.now_seconds == 5.0)
            return 2;
        if (s.now_seconds == 10.0)
            return -1;
        if (s.now_seconds == 15.0)
            return 1;
        return 0;
    }
};

TEST(EventLoopTies, EqualInstantLanesStepLowestSlotFirstAcrossRetirement)
{
    // Retired slots keep their indices: with slot 2 retired between
    // survivors 1 and 3, the three lanes booked at t=30 step 0, 1, 3,
    // and slot 3 (attached after the retirement) loses the tie to
    // every lower survivor. The t=20 request moves the round-robin
    // cursor so the t=30 burst routes to lanes 1, 3, 0 instead.
    core::TimingEngine engine;
    ClusterConfig cc;
    cc.replicas = {speReplica()};
    cc.router.policy = RouterPolicy::RoundRobin;
    cc.elastic.min_replicas = 1;
    cc.elastic.max_replicas = 4;
    cc.elastic.control_period_seconds = 5.0;
    const auto trace = requestsAt({0.0, 20.0, 30.0, 30.0, 30.0});

    RetireBelowController ref_ctl, fast_ctl;
    ClusterConfig ref_cfg = cc;
    ref_cfg.elastic.controller = &ref_ctl;
    ClusterConfig fast_cfg = cc;
    fast_cfg.elastic.controller = &fast_ctl;
    const auto ref = runObserved(engine, ref_cfg, trace, false);
    const auto fast = runObserved(engine, fast_cfg, trace, true);
    expectSameSimulation(ref->result, fast->result);

    using serving::ScaleAction;
    std::vector<std::pair<ScaleAction, int64_t>> log;
    for (const serving::ScaleEvent &ev : ref->result.scale_events)
        log.emplace_back(ev.action, ev.replica);
    const std::vector<std::pair<ScaleAction, int64_t>> want = {
        {ScaleAction::Attach, 1},       {ScaleAction::Attach, 2},
        {ScaleAction::WarmComplete, 1}, {ScaleAction::WarmComplete, 2},
        {ScaleAction::Drain, 2},        {ScaleAction::Retire, 2},
        {ScaleAction::Attach, 3},       {ScaleAction::WarmComplete, 3},
    };
    EXPECT_EQ(log, want);
    ASSERT_EQ(ref->result.placements.size(), 5u);
    EXPECT_EQ(ref->result.placements[2].replica, 1);
    EXPECT_EQ(ref->result.placements[3].replica, 3);
    EXPECT_EQ(ref->result.placements[4].replica, 0);
    if (ref->ring.emitted() == 0) // observability compiled out
        return;
    for (const ObservedRun *run : {ref.get(), fast.get()})
        EXPECT_EQ(prefillOrderAt(run->ring, 30.0),
                  (std::vector<int32_t>{0, 1, 3}));
}

// ------------------------------------------------ SystemPricer windows

core::TimingConfig
timingFor(const char *system, int64_t budget = 2048)
{
    core::TimingConfig cfg;
    cfg.llm = model::deepseekDistillLlama8bGeometry();
    cfg.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = budget;
    cfg.system = core::SystemRegistry::create(system, opts);
    return cfg;
}

/** Every registered system the continuous batcher can drive. */
std::vector<std::string>
continuousSystems()
{
    std::vector<std::string> out;
    for (const std::string &name : core::SystemRegistry::names())
        if (core::SystemRegistry::create(name)
                ->supportsContinuousBatching())
            out.push_back(name);
    return out;
}

/** FullAttn(FlashInfer) on the cloud 8B at 24 GiB of HBM with complete
 *  offloading allowed: a batch holding more than spillLimitTokens()
 *  pays the full-KV PCIe transfer every decode round. */
core::TimingConfig
offloadingFullAttn()
{
    core::TimingConfig cfg = timingFor("FullAttn(FlashInfer)");
    core::SystemOptions opts;
    opts.allow_full_attention_offload = true;
    cfg.system = core::SystemRegistry::create("FullAttn(FlashInfer)", opts);
    cfg.hw.gpu_mem_bytes = 24LL << 30;
    return cfg;
}

/** Largest total KV tokens a full-attention batch keeps resident on
 *  `cfg`; one token more and the batch spills. */
int64_t
spillLimitTokens(const core::TimingConfig &cfg)
{
    return (cfg.hw.gpu_mem_bytes - core::weightFootprintBytes(cfg.llm)) /
           (core::kvBytesPerTokenPerLayer(cfg.llm) * cfg.llm.layers);
}

/** Runs one round of `pricer`'s open window from `now` (runWindow
 *  with a one-round cap and nothing due); returns the advanced clock. */
double
runOneRound(core::SystemPricer &pricer, double now)
{
    const double inf = std::numeric_limits<double>::infinity();
    int64_t rounds = 0;
    double first_now = 0.0;
    const double t = pricer.runWindow(1, now, inf, inf, rounds, first_now);
    EXPECT_EQ(rounds, 1);
    EXPECT_EQ(first_now, t);
    return t;
}

/** Opens a window on `kv` and checks `rounds` single rounds of it
 *  against decodeSeconds() on kv, kv+1, ..., exactly: on one reused
 *  pricer and on a fresh pricer per round. Returns the window's
 *  per-round prices. */
std::vector<double>
expectWindowMatches(const core::TimingEngine &engine,
                    const core::TimingConfig &cfg,
                    core::SystemPricer &window, std::vector<int64_t> kv,
                    int rounds)
{
    auto oracle = engine.makePricer(cfg);
    std::vector<double> prices;
    window.beginWindow(kv);
    for (int round = 0; round < rounds; ++round) {
        const double got = runOneRound(window, 0.0);
        if (got != oracle->decodeSeconds(kv) ||
            got != engine.makePricer(cfg)->decodeSeconds(kv)) {
            ADD_FAILURE() << cfg.system->name() << " diverged at round "
                          << round;
            break;
        }
        prices.push_back(got);
        for (int64_t &s : kv)
            ++s;
    }
    return prices;
}

TEST(DecodeWindow, MatchesRepeatedSecondsBitForBit)
{
    // Rounds 0..k-1 of a window opened on kv == k decodeSeconds()
    // calls on kv, kv+1, ..., kv+(k-1), exactly. The KV mix is chosen so the
    // window crosses both interesting lines mid-run: short contexts
    // pass the attention budget (attended-token growth stops) and the
    // batch eventually spills past the all-resident fit limit.
    core::TimingEngine engine;
    for (const std::string &system : continuousSystems()) {
        const core::TimingConfig cfg = timingFor(system.c_str(), 512);
        auto window = engine.makePricer(cfg);
        expectWindowMatches(engine, cfg, *window,
                            {100, 500, 505, 2048, 9000, 40000}, 64);
        // Re-beginning resets cleanly (the batch changed shape).
        expectWindowMatches(engine, cfg, *window, {1, 511, 512, 513}, 8);
    }

    // Complete offloading inside a window: five contexts whose total
    // sits 20 rounds of growth under the spill limit, so rounds 0-20
    // stay resident and rounds 21-63 pay the full-KV transfer — the
    // window's per-round spill test must flip exactly there.
    const core::TimingConfig spill = offloadingFullAttn();
    std::vector<int64_t> kv = {100, 2048, 9000, 40};
    int64_t total = 0;
    for (int64_t s : kv)
        total += s;
    const int64_t R = 5;
    kv.push_back(spillLimitTokens(spill) - total - 20 * R);

    auto window = engine.makePricer(spill);
    const std::vector<double> prices =
        expectWindowMatches(engine, spill, *window, kv, 64);
    ASSERT_EQ(prices.size(), 64u);

    // The same lengths priced without offloading: equal while
    // resident, strictly cheaper once the spill charge applies.
    core::TimingConfig resident = spill;
    resident.system = core::SystemRegistry::create("FullAttn(FlashInfer)");
    int64_t spilled_rounds = 0;
    for (int round = 0; round < 64; ++round) {
        const double no_spill =
            engine.makePricer(resident)->decodeSeconds(kv);
        if (round <= 20) {
            EXPECT_EQ(prices[round], no_spill) << "round " << round;
        } else {
            EXPECT_GT(prices[round], no_spill) << "round " << round;
            ++spilled_rounds;
        }
        for (int64_t &s : kv)
            ++s;
    }
    EXPECT_EQ(spilled_rounds, 43);
}

TEST(DecodeWindow, EmptyBatchWindowIsZero)
{
    core::TimingEngine engine;
    auto ev = engine.makePricer(timingFor("SpeContext"));
    ev->beginWindow({});
    EXPECT_EQ(runOneRound(*ev, 0.0), 0.0);
    EXPECT_EQ(runOneRound(*ev, 1.5), 1.5);
    // Zero-cost rounds never reach a horizon; the round cap stops it.
    const double inf = std::numeric_limits<double>::infinity();
    int64_t rounds = 0;
    double first_now = -1.0;
    EXPECT_EQ(ev->runWindow(7, 2.0, inf, inf, rounds, first_now), 2.0);
    EXPECT_EQ(rounds, 7);
    EXPECT_EQ(first_now, 2.0);
}

/** The loop runWindow() fuses, driven from the caller's side one
 *  round at a time. */
double
callerSideWindow(core::SystemPricer &pricer, int64_t max_rounds, double now,
                 double horizon, double t_pending, int64_t &rounds,
                 double &first_now)
{
    rounds = 0;
    for (;;) {
        now = runOneRound(pricer, now);
        if (++rounds == 1)
            first_now = now;
        if (rounds >= max_rounds || !(now < horizon) || t_pending <= now)
            break;
    }
    return now;
}

TEST(DecodeWindow, RunWindowMatchesACallerSideLoopBitForBit)
{
    // runWindow() on one pricer against a caller-side loop of
    // one-round windows on a second: the advanced clock, the round
    // count and the clock after the first round, bit for bit, for a
    // window stopped by each of its three conditions. Both must follow
    // the clock a fresh pricer's decodeSeconds() steps on the grown
    // lengths. The KV mix crosses the 512-token attend cap
    // mid-window, and a clock at 1e4 s makes every addition round.
    core::TimingEngine engine;
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<int64_t> kv = {100, 500, 505, 2048, 9000};
    const double now = 1e4 + 0.1;
    for (const std::string &system : continuousSystems()) {
        SCOPED_TRACE(system);
        const core::TimingConfig cfg = timingFor(system.c_str(), 512);
        // The clock after each round of an uncapped window.
        std::vector<double> clock;
        {
            std::vector<int64_t> grown = kv;
            double t = now;
            for (int round = 0; round < 64; ++round) {
                t += engine.makePricer(cfg)->decodeSeconds(grown);
                clock.push_back(t);
                for (int64_t &s : grown)
                    ++s;
            }
        }
        struct Stop
        {
            const char *why;
            int64_t max_rounds;
            double horizon;
            double t_pending;
            int64_t rounds; ///< rounds the window must run
        };
        const Stop stops[] = {
            {"round cap", 37, inf, inf, 37},
            {"one-round cap", 1, inf, inf, 1},
            {"horizon between rounds", 64, (clock[18] + clock[19]) / 2, inf,
             20},
            {"horizon on a round", 64, clock[9], inf, 10},
            {"pending arrival on a round", 64, inf, clock[12], 13},
            {"pending arrival already due", 64, inf, now, 1},
        };
        for (const Stop &stop : stops) {
            SCOPED_TRACE(stop.why);
            auto fused = engine.makePricer(cfg);
            auto loop = engine.makePricer(cfg);
            fused->beginWindow(kv);
            loop->beginWindow(kv);
            int64_t fused_rounds = -1, loop_rounds = -2;
            double fused_first = -1.0, loop_first = -2.0;
            const double got =
                fused->runWindow(stop.max_rounds, now, stop.horizon,
                                 stop.t_pending, fused_rounds, fused_first);
            const double want = callerSideWindow(
                *loop, stop.max_rounds, now, stop.horizon, stop.t_pending,
                loop_rounds, loop_first);
            EXPECT_EQ(got, want);
            EXPECT_EQ(fused_rounds, loop_rounds);
            EXPECT_EQ(fused_first, loop_first);
            EXPECT_EQ(fused_rounds, stop.rounds);
            EXPECT_EQ(got, clock[stop.rounds - 1]);
            EXPECT_EQ(fused_first, clock[0]);
            // The window stays open: a second call continues from the
            // round the first one stopped at.
            const double got_next = fused->runWindow(
                5, got, inf, inf, fused_rounds, fused_first);
            const double want_next = callerSideWindow(
                *loop, 5, want, inf, inf, loop_rounds, loop_first);
            EXPECT_EQ(got_next, want_next);
            EXPECT_EQ(fused_first, loop_first);
            EXPECT_EQ(got_next, clock[stop.rounds + 4]);
        }
    }
}

/** The shapes the reused-vs-fresh pricer grid runs on: the cloud 8B
 *  default, the same at 24 GiB of HBM (SpeContext offloads), and the
 *  edge 1B — plus, for FullAttn(FlashInfer), offloadingFullAttn(), so
 *  the grid reaches the complete-offloading spill charge. */
std::vector<core::TimingConfig>
pricerShapes(const std::string &system)
{
    core::TimingConfig cloud = timingFor(system.c_str());
    core::TimingConfig small_hbm = cloud;
    small_hbm.hw.gpu_mem_bytes = 24LL << 30;
    core::TimingConfig edge = cloud;
    edge.hw = sim::HardwareSpec::edge4060();
    edge.llm = model::reasoningLlama32_1bGeometry();
    if (system == "FullAttn(FlashInfer)")
        return {cloud, small_hbm, edge, offloadingFullAttn()};
    return {cloud, small_hbm, edge};
}

/** Decode batches the pricer grids run on, from empty to 32 long
 *  contexts. */
const std::vector<std::vector<int64_t>> &
pricerBatches()
{
    static const std::vector<std::vector<int64_t>> batches = {
        {},
        {4096},
        {2048, 8192, 32768},
        std::vector<int64_t>(8, 65536),
        std::vector<int64_t>(32, 131072),
    };
    return batches;
}

/** fitsCurrent() on a fresh pricer. */
core::AdmissionDecision
freshFitsCurrent(const core::TimingConfig &cfg,
                 const std::vector<int64_t> &kv)
{
    return fitsCurrent(*core::TimingEngine().makePricer(cfg), kv);
}

TEST(SystemPricer, EveryQueryMatchesAFreshPricerBitForBit)
{
    // A pricer caches per-(config, batch size) derivations; each query
    // of one pricer reused across the whole grid (the fast path) must
    // still equal the same query on a fresh pricer (the reference
    // loop) exactly — on doubles, and on admission decision plus
    // reason.
    core::TimingEngine engine;
    const std::vector<std::string> systems = continuousSystems();
    ASSERT_GE(systems.size(), 6u); // SpeContext, 3x FullAttn, H2O, SLLM
    const int64_t prompts[] = {1, 512, 4096, 32768};
    const int64_t in_flights[] = {0, 1, 3, 15};
    const int64_t residents[] = {0, 30000, 500000};
    int64_t spe_offloading_prefills = 0;
    int64_t full_attn_spilling_batches = 0;
    for (const std::string &system : systems) {
        int64_t admitted = 0, denied = 0;
        for (const core::TimingConfig &cfg : pricerShapes(system)) {
            const core::SystemModel &sys = *cfg.system;
            const bool offload = sys.options().allow_full_attention_offload;
            SCOPED_TRACE(system + " on " + cfg.hw.name + " / " +
                         cfg.llm.name + " @ " +
                         std::to_string(cfg.hw.gpu_mem_bytes >> 30) +
                         " GiB" + (offload ? " (offload)" : ""));
            auto pricer = engine.makePricer(cfg);
            for (int64_t prompt : prompts)
                for (int64_t in_flight : in_flights)
                    for (int64_t resident : residents) {
                        EXPECT_EQ(pricer->prefillSeconds(prompt, in_flight,
                                                         resident),
                                  engine.makePricer(cfg)->prefillSeconds(
                                      prompt, in_flight, resident));
                        if (system != "SpeContext")
                            continue;
                        // The joined batch's uniformized shape parks
                        // KV in DRAM exactly when the prefill pays an
                        // eviction.
                        const int64_t r = in_flight + 1;
                        const int64_t s = std::max(
                            prompt, (resident + prompt) / r);
                        if (sys.dramFootprintBytes(cfg, r, s) > 0)
                            ++spe_offloading_prefills;
                    }
            for (const std::vector<int64_t> &batch : pricerBatches()) {
                EXPECT_EQ(pricer->decodeSeconds(batch),
                          engine.makePricer(cfg)->decodeSeconds(batch));
                int64_t total = 0;
                for (int64_t s : batch)
                    total += s;
                if (offload && total > spillLimitTokens(cfg))
                    ++full_attn_spilling_batches;
                const core::AdmissionDecision fit =
                    fitsCurrent(*pricer, batch);
                const core::AdmissionDecision fit_ref =
                    freshFitsCurrent(cfg, batch);
                EXPECT_EQ(fit.admit, fit_ref.admit);
                EXPECT_STREQ(fit.reason, fit_ref.reason);
                EXPECT_EQ(pricer->fitRounds(batch, 1), fit_ref.admit ? 1 : 0);
                for (int64_t prompt : prompts)
                    for (int64_t gen : {int64_t{1}, int64_t{16384}}) {
                        const core::AdmissionDecision got =
                            pricer->admit(batch, prompt, prompt + gen);
                        const core::AdmissionDecision want =
                            engine.makePricer(cfg)->admit(batch, prompt,
                                                          prompt + gen);
                        EXPECT_EQ(got.admit, want.admit);
                        EXPECT_STREQ(got.reason, want.reason);
                        ++(want.admit ? admitted : denied);
                    }
            }
            // Straddle the fit frontier: the longest uniform length n
            // contexts fit at (fresh-pricer oracle, bisected), and one
            // token past it — where an off-by-one in the pricer's
            // reductions would flip the verdict.
            for (int64_t n : {1, 4, 16}) {
                const auto fitsAt = [&](int64_t len) {
                    return freshFitsCurrent(cfg,
                                            std::vector<int64_t>(n, len))
                        .admit;
                };
                int64_t lo = 1, hi = int64_t{1} << 26;
                if (!fitsAt(lo) || fitsAt(hi))
                    continue; // no frontier in range
                while (hi - lo > 1) {
                    const int64_t mid = lo + (hi - lo) / 2;
                    (fitsAt(mid) ? lo : hi) = mid;
                }
                for (int64_t len : {lo, hi}) {
                    const std::vector<int64_t> kv(n, len);
                    const std::vector<int64_t> rest(n - 1, len);
                    EXPECT_EQ(fitsCurrent(*pricer, kv).admit, len == lo);
                    EXPECT_STREQ(fitsCurrent(*pricer, kv).reason,
                                 freshFitsCurrent(cfg, kv).reason);
                    EXPECT_EQ(pricer->fitRounds(kv, 1), len == lo ? 1 : 0);
                    const core::AdmissionDecision got =
                        pricer->admit(rest, len, len);
                    const core::AdmissionDecision want =
                        engine.makePricer(cfg)->admit(rest, len, len);
                    EXPECT_EQ(got.admit, want.admit);
                    EXPECT_STREQ(got.reason, want.reason);
                }
            }
        }
        // Both admission outcomes are exercised for every system.
        EXPECT_GT(admitted, 0) << system;
        EXPECT_GT(denied, 0) << system;
    }
    // The grid reaches SpeContext's offloading prefill branch and the
    // full-attention decode spill charge.
    EXPECT_GT(spe_offloading_prefills, 0);
    EXPECT_GT(full_attn_spilling_batches, 0);
}

TEST(SystemPricer, EverySubBatchOfAFittingBatchFits)
{
    // An Optimistic lane keeps its decode-fit proof across retirements
    // (ReplicaEngine::opt_fit_rounds_), which is sound only if the fit
    // test is monotone under removal: when fitsCurrent(lens) admits,
    // every sub-multiset of lens admits too. Random batches sit at and
    // around each fit frontier — in length (the longest uniform length
    // n contexts fit at, n = 2..8), in count (the most 128k-token
    // contexts that fit; budget-bounded systems only meet a frontier
    // this way) and, for complete offloading, around the
    // full-attention spill limit. Every sub-multiset of an admitted
    // batch of up to ten contexts is checked; a larger one checks each
    // leave-one-out sub-batch and 32 random ones.
    core::TimingEngine engine;
    std::mt19937_64 rng(20261019);
    const auto draw = [&](int64_t lo, int64_t hi) {
        return lo + static_cast<int64_t>(
                        rng() % static_cast<uint64_t>(hi - lo + 1));
    };
    // Largest x in [lo, hi) with fits(x), when fits(lo) && !fits(hi).
    const auto frontier = [](int64_t lo, int64_t hi, const auto &fits) {
        if (!fits(lo) || fits(hi))
            return int64_t{-1};
        while (hi - lo > 1) {
            const int64_t mid = lo + (hi - lo) / 2;
            (fits(mid) ? lo : hi) = mid;
        }
        return lo;
    };
    for (const std::string &system : continuousSystems()) {
        int64_t fitting = 0, failing = 0;
        for (const core::TimingConfig &cfg : pricerShapes(system)) {
            SCOPED_TRACE(system + " on " + cfg.hw.name + " @ " +
                         std::to_string(cfg.hw.gpu_mem_bytes >> 30) +
                         " GiB");
            auto pricer = engine.makePricer(cfg);
            const auto fits = [&](const std::vector<int64_t> &lens) {
                return fitsCurrent(*pricer, lens).admit;
            };
            // (batch-size range, length centre) around each frontier.
            struct Centre
            {
                int64_t n_lo, n_hi, len;
            };
            std::vector<Centre> centres;
            for (int64_t n = 2; n <= 8; ++n) {
                const int64_t len =
                    frontier(1, int64_t{1} << 26, [&](int64_t l) {
                        return fits(std::vector<int64_t>(n, l));
                    });
                if (len > 0)
                    centres.push_back({2, n, len});
            }
            const int64_t long_ctx = int64_t{1} << 17;
            const int64_t count = frontier(1, 4096, [&](int64_t n) {
                return fits(std::vector<int64_t>(n, long_ctx));
            });
            if (count > 0)
                centres.push_back({std::max<int64_t>(2, count / 2),
                                   count + count / 2 + 1, long_ctx});
            if (cfg.system->options().allow_full_attention_offload)
                for (int64_t n = 2; n <= 8; ++n)
                    centres.push_back({n, n, spillLimitTokens(cfg) / n});
            for (const Centre &c : centres) {
                for (int trial = 0; trial < 24; ++trial) {
                    std::vector<int64_t> lens(
                        static_cast<size_t>(draw(c.n_lo, c.n_hi)));
                    for (int64_t &s : lens)
                        s = draw(std::max<int64_t>(1, c.len / 2),
                                 c.len + c.len / 2);
                    if (!fits(lens)) {
                        ++failing;
                        continue;
                    }
                    ++fitting;
                    // keep[i]: lens[i] is in the sub-batch.
                    const size_t m = lens.size();
                    const auto expectSubFits =
                        [&](const std::vector<bool> &keep) {
                            std::vector<int64_t> sub;
                            for (size_t i = 0; i < m; ++i)
                                if (keep[i])
                                    sub.push_back(lens[i]);
                            EXPECT_TRUE(fits(sub))
                                << sub.size() << " of " << m
                                << " fitting contexts do not fit";
                        };
                    std::vector<bool> keep(m);
                    if (m <= 10) {
                        for (uint32_t mask = 0; mask + 1 < (1u << m);
                             ++mask) {
                            for (size_t i = 0; i < m; ++i)
                                keep[i] = (mask >> i) & 1u;
                            expectSubFits(keep);
                        }
                        continue;
                    }
                    for (size_t out = 0; out < m; ++out) {
                        for (size_t i = 0; i < m; ++i)
                            keep[i] = i != out;
                        expectSubFits(keep);
                    }
                    for (int r = 0; r < 32; ++r) {
                        for (size_t i = 0; i < m; ++i)
                            keep[i] = rng() & 1u;
                        expectSubFits(keep);
                    }
                }
            }
        }
        // Both sides of the frontiers were drawn.
        EXPECT_GT(fitting, 0) << system;
        EXPECT_GT(failing, 0) << system;
    }
}

/** The decode-fit horizon by its definition, the oracle of
 *  SystemPricer::fitRounds(): gallop out from round 0, then bisect to
 *  the first j at which fitsCurrent(kv + j) fails, on a length vector
 *  rebuilt for every probe. */
int64_t
gallopFitRounds(core::SystemPricer &pricer, const std::vector<int64_t> &kv,
                int64_t max_rounds)
{
    if (max_rounds <= 0)
        return 0;
    if (kv.empty())
        return max_rounds;
    std::vector<int64_t> probe;
    const auto pass = [&](int64_t j) {
        probe.clear();
        for (int64_t s : kv)
            probe.push_back(s + j);
        return fitsCurrent(pricer, probe).admit;
    };
    if (!pass(0))
        return 0;
    int64_t t = 0, f = -1;
    for (int64_t step = 1; t < max_rounds - 1; step *= 2) {
        const int64_t p = std::min(t + step, max_rounds - 1);
        if (!pass(p)) {
            f = p;
            break;
        }
        t = p;
    }
    if (f < 0)
        return max_rounds;
    while (f - t > 1) {
        const int64_t mid = t + (f - t) / 2;
        (pass(mid) ? t : f) = mid;
    }
    return f;
}

TEST(SystemPricer, FitRoundsMatchesTheGallop)
{
    // SystemPricer::fitRounds() answers from the reduced admission
    // integers what the gallop above answers by probing fitsCurrent()
    // on grown length vectors; both must agree for every continuous
    // system. Random batches sit at and around each threshold the fit
    // test or its reduction turns on: the longest uniform length n
    // contexts fit at (n = 1..8), the most 128k-token contexts that
    // fit, the full-attention spill limit (complete offloading), and
    // the per-request budget, where an eviction system's reservation
    // stops growing. Each batch is asked for 0, 1, its longest
    // remaining generation and a large number of rounds. An
    // Optimistic scheduler's decodeFitRounds() (lengths kvLen() + 1)
    // must agree as well; a Reserve one answers every round.
    core::TimingEngine engine;
    std::mt19937_64 rng(20261020);
    const auto draw = [&](int64_t lo, int64_t hi) {
        return lo + static_cast<int64_t>(
                        rng() % static_cast<uint64_t>(hi - lo + 1));
    };
    const auto frontier = [](int64_t lo, int64_t hi, const auto &fits) {
        if (!fits(lo) || fits(hi))
            return int64_t{-1};
        while (hi - lo > 1) {
            const int64_t mid = lo + (hi - lo) / 2;
            (fits(mid) ? lo : hi) = mid;
        }
        return lo;
    };
    for (const std::string &system : continuousSystems()) {
        // Horizons strictly inside the asked window, and ones that
        // fail at once or outlast it.
        int64_t inside = 0, none = 0, all = 0;
        for (const core::TimingConfig &cfg : pricerShapes(system)) {
            SCOPED_TRACE(system + " on " + cfg.hw.name + " @ " +
                         std::to_string(cfg.hw.gpu_mem_bytes >> 30) +
                         " GiB");
            auto pricer = engine.makePricer(cfg);
            const serving::Scheduler optimistic(
                cfg, {SchedulerMode::Optimistic,
                      serving::VictimPolicy::LastAdmitted,
                      serving::QueuePolicy::Fifo, 64});
            const serving::Scheduler reserve(cfg, {});
            const auto fits = [&](const std::vector<int64_t> &lens) {
                return fitsCurrent(*pricer, lens).admit;
            };
            struct Centre
            {
                int64_t n_lo, n_hi, len;
            };
            std::vector<Centre> centres;
            for (int64_t n = 1; n <= 8; ++n) {
                const int64_t len =
                    frontier(1, int64_t{1} << 26, [&](int64_t l) {
                        return fits(std::vector<int64_t>(n, l));
                    });
                if (len > 0)
                    centres.push_back({1, n, len});
            }
            const int64_t long_ctx = int64_t{1} << 17;
            const int64_t count = frontier(1, 4096, [&](int64_t n) {
                return fits(std::vector<int64_t>(n, long_ctx));
            });
            if (count > 0)
                centres.push_back({std::max<int64_t>(1, count / 2),
                                   count + count / 2 + 1, long_ctx});
            if (cfg.system->options().allow_full_attention_offload)
                for (int64_t n = 1; n <= 8; ++n)
                    centres.push_back({n, n, spillLimitTokens(cfg) / n});
            // Around the budget at the count frontier: contexts under
            // it grow an eviction system's reservation until they reach
            // it.
            const int64_t budget = cfg.system->options().budget;
            const int64_t at_budget = frontier(1, 4096, [&](int64_t n) {
                return fits(std::vector<int64_t>(n, budget));
            });
            centres.push_back(
                {std::max<int64_t>(1, at_budget / 2),
                 at_budget > 0 ? at_budget + at_budget / 2 + 1 : 64,
                 budget});
            for (const Centre &c : centres) {
                for (int trial = 0; trial < 16; ++trial) {
                    std::vector<int64_t> kv(
                        static_cast<size_t>(draw(c.n_lo, c.n_hi)));
                    // Half the batches straddle the centre; the rest
                    // sit within a few rounds of it.
                    const int64_t spread =
                        trial % 2 ? std::max<int64_t>(1, c.len / 2) : 8;
                    for (int64_t &s : kv)
                        s = std::max<int64_t>(
                            2, draw(c.len - spread, c.len + spread));
                    std::vector<Request> batch;
                    for (int64_t s : kv) {
                        Request q;
                        q.prompt_len = s - 1; // kvLen() + 1 == s
                        q.gen_len = 1;
                        batch.push_back(q);
                    }
                    for (int64_t max_rounds :
                         {int64_t{0}, int64_t{1}, draw(2, 4096),
                          int64_t{1} << 30}) {
                        const int64_t want =
                            gallopFitRounds(*pricer, kv, max_rounds);
                        EXPECT_EQ(pricer->fitRounds(kv, max_rounds), want)
                            << kv.size() << " contexts around "
                            << c.len << ", max_rounds " << max_rounds;
                        EXPECT_EQ(optimistic.decodeFitRounds(batch,
                                                             max_rounds),
                                  want);
                        EXPECT_EQ(reserve.decodeFitRounds(batch, max_rounds),
                                  max_rounds);
                        if (max_rounds <= 0)
                            continue;
                        ++(want == 0 ? none
                                     : want == max_rounds ? all : inside);
                    }
                }
            }
            EXPECT_EQ(pricer->fitRounds({}, 7), 7);
            EXPECT_EQ(pricer->fitRounds({}, 0), 0);
        }
        EXPECT_GT(inside, 0) << system;
        EXPECT_GT(none, 0) << system;
        EXPECT_GT(all, 0) << system;
    }
}

TEST(SystemPricer, MinRoundSecondsLowerBoundsEveryRound)
{
    // A fleet driver multiplies minRoundSeconds() by a count of rounds
    // proven to run uninterrupted to cap how soon a lane could next
    // admit (ReplicaEngine::nextPossibleAdmissionSeconds), so the
    // floor must hold for every round of every batch: single queries
    // and every round of a window opened on the batch.
    core::TimingEngine engine;
    for (const std::string &system : continuousSystems()) {
        for (const core::TimingConfig &cfg : pricerShapes(system)) {
            SCOPED_TRACE(system + " on " + cfg.hw.name + " @ " +
                         std::to_string(cfg.hw.gpu_mem_bytes >> 30) +
                         " GiB");
            auto pricer = engine.makePricer(cfg);
            const double floor_s = pricer->minRoundSeconds();
            // Every continuous system reports its weight-streaming
            // floor, so Optimistic lanes publish caps past their clocks.
            EXPECT_GT(floor_s, 0.0);
            for (const std::vector<int64_t> &batch : pricerBatches()) {
                if (batch.empty())
                    continue; // no round to price
                EXPECT_GE(pricer->decodeSeconds(batch), floor_s);
                pricer->beginWindow(batch);
                for (int round = 0; round < 64; ++round)
                    ASSERT_GE(runOneRound(*pricer, 0.0), floor_s)
                        << "round " << round;
            }
        }
    }
}

TEST(AdmissionCap, RoundFloorLowerBoundNeverOvershootsTheSteppedClock)
{
    // A lane's clock after n floor-priced rounds is n rounded
    // additions, while now + n * floor is one multiply-add. Pick a
    // floor whose fraction of the clock's ulp is 0.4, so every
    // addition rounds down: the plain multiply-add then overshoots
    // the stepped clock, and the bound a peer lane's window stops at
    // must not.
    const double now = 1e4;
    const double ulp = std::nextafter(now, 2 * now) - now;
    const double floor_s = (std::floor(0.01 / ulp) + 0.4) * ulp;
    const int64_t n = 512;
    double clock = now;
    for (int64_t i = 0; i < n; ++i)
        clock += floor_s;
    ASSERT_GT(now + static_cast<double>(n) * floor_s, clock)
        << "the case is not adversarial";
    const double bound = serving::roundFloorLowerBound(now, n, floor_s);
    EXPECT_LE(bound, clock);
    EXPECT_GT(bound, now); // still a cap past the clock

    // Deterministic sweep over magnitudes, round counts and ulp
    // fractions of the floor.
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto unit = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    };
    int64_t naive_overshoots = 0;
    for (int c = 0; c < 4000; ++c) {
        const double t0 = std::pow(10.0, 6.0 * unit() - 1.0);
        const double u0 = std::nextafter(t0, 2 * t0) - t0;
        const double f =
            (std::floor(std::pow(10.0, -5.0 + 4.0 * unit()) / u0) +
             unit()) *
            u0;
        const int64_t rounds = 1 + static_cast<int64_t>(unit() * 2048);
        double t = t0;
        for (int64_t i = 0; i < rounds; ++i)
            t += f;
        naive_overshoots += t0 + static_cast<double>(rounds) * f > t;
        ASSERT_LE(serving::roundFloorLowerBound(t0, rounds, f), t)
            << "now " << t0 << " floor " << f << " rounds " << rounds;
    }
    EXPECT_GT(naive_overshoots, 0);

    // No rounds or no floor: the clock itself.
    EXPECT_EQ(serving::roundFloorLowerBound(now, 0, floor_s), now);
    EXPECT_EQ(serving::roundFloorLowerBound(now, n, 0.0), now);
}

TEST(SystemPricer, OpenWindowSurvivesTableGrowth)
{
    // A prefill or admission query between window rounds may grow the
    // pricer's per-batch-size table; the open window must keep pricing
    // exactly what decodeSeconds() prices on the grown lengths.
    core::TimingEngine engine;
    for (const std::string &system : continuousSystems()) {
        for (const core::TimingConfig &cfg : pricerShapes(system)) {
            SCOPED_TRACE(system + " on " + cfg.hw.name);
            auto pricer = engine.makePricer(cfg);
            std::vector<int64_t> kv = {100, 2047, 9000};
            pricer->beginWindow(kv);
            for (int round = 0; round < 24; ++round) {
                if (round == 8) {
                    // Larger R than the window's: grows the table.
                    EXPECT_EQ(pricer->prefillSeconds(4096, 63, 200000),
                              engine.makePricer(cfg)->prefillSeconds(
                                  4096, 63, 200000));
                    (void)pricer->admit(
                        std::vector<int64_t>(127, 1024), 512, 1024);
                }
                ASSERT_EQ(runOneRound(*pricer, 0.0),
                          engine.makePricer(cfg)->decodeSeconds(kv))
                    << "round " << round;
                for (int64_t &s : kv)
                    ++s;
            }
        }
    }
}

// ----------------------------------------- all-resident fit shortcut

TEST(MemoryModelFast, AllResidentMaxTokensIsTheExactThreshold)
{
    // SpeContext's round tail prices a batch of R requests whose
    // longest context is s as fully resident (l_cpu = 0), skipping the
    // placement rule, whenever s <= allResidentMaxTokens() of its
    // batch-size entry's model (memoryInputs(cfg, R)). Every pricer
    // takes that shortcut, so this test is its only check: the limit
    // must be the exact threshold of both placement rules at every R,
    // with equality tight on both sides of the boundary:
    //  - adaptive (C3): s <= limit iff maxGpuLayers(s) == layers;
    //  - static (C3 off): s <= limit iff mAllBytesFor(R, s) fits.
    // Pairings where the weights fit:
    struct Case
    {
        sim::HardwareSpec hw;
        model::ModelConfig llm;
    };
    sim::HardwareSpec small_hbm = sim::HardwareSpec::cloudA800();
    small_hbm.gpu_mem_bytes = 24LL << 30;
    const Case cases[] = {
        {sim::HardwareSpec::cloudA800(),
         model::deepseekDistillLlama8bGeometry()},
        {small_hbm, model::deepseekDistillLlama8bGeometry()},
        {sim::HardwareSpec::edge4060(),
         model::reasoningLlama32_1bGeometry()},
    };
    for (const Case &c : cases) {
        core::TimingConfig cfg = timingFor("SpeContext");
        cfg.hw = c.hw;
        cfg.llm = c.llm;
        for (int64_t r : {1, 8, 64}) {
            SCOPED_TRACE(cfg.hw.name + " @ " +
                         std::to_string(cfg.hw.gpu_mem_bytes >> 30) +
                         " GiB, R = " + std::to_string(r));
            const sim::MemoryModel mm(cfg.system->memoryInputs(cfg, r));
            const int64_t limit = mm.allResidentMaxTokens();
            ASSERT_GT(limit, 1);
            const auto staticFits = [&](int64_t s) {
                return mm.mAllBytesFor(r, s) <= cfg.hw.gpu_mem_bytes;
            };
            for (int64_t s : {int64_t{1}, limit - 1, limit}) {
                EXPECT_EQ(mm.maxGpuLayers(s), cfg.llm.layers) << s;
                EXPECT_TRUE(staticFits(s)) << s;
            }
            for (int64_t s : {limit + 1, limit + 2, 2 * limit}) {
                EXPECT_LT(mm.maxGpuLayers(s), cfg.llm.layers) << s;
                EXPECT_FALSE(staticFits(s)) << s;
            }
        }
    }

    // 8B weights alone overflow the 4060: the sentinel is -1, matching
    // maxGpuLayers never reaching the full-resident count and the
    // static rule never fitting.
    core::TimingConfig big = timingFor("SpeContext");
    big.hw = sim::HardwareSpec::edge4060();
    for (int64_t r : {1, 8, 64}) {
        const sim::MemoryModel overflow(big.system->memoryInputs(big, r));
        EXPECT_EQ(overflow.allResidentMaxTokens(), -1);
        EXPECT_LT(overflow.maxGpuLayers(1), big.llm.layers);
        EXPECT_GT(overflow.mAllBytesFor(r, 1), big.hw.gpu_mem_bytes);
    }
}

// ----------------------------------------- router feasibility verdicts

TEST(RouterFeasibility, LanesThatDifferInOneAdmissionInputGetTheirOwnVerdicts)
{
    // The router asks every routable lane whether it could serve the
    // request even alone. Two lanes that differ in one input the
    // admission test reads (the KV budget, the HBM size or the system)
    // can disagree, and under every policy the request must land on
    // the lane that can serve it, on either side of the fleet. A
    // verdict shared between the lanes would send it to the other one,
    // or (both judged infeasible) let the policy pick from the whole
    // fleet.
    core::TimingEngine engine;
    struct Variant
    {
        const char *input;
        core::TimingConfig a, b;
    };
    core::TimingConfig small_hbm = timingFor("FullAttn(FlashInfer)");
    small_hbm.hw.gpu_mem_bytes = 40LL << 30;
    const std::vector<Variant> variants = {
        {"budget", timingFor("H2O", 2048), timingFor("H2O", 1 << 20)},
        {"hbm", timingFor("FullAttn(FlashInfer)"), small_hbm},
        {"system", timingFor("SpeContext"),
         timingFor("FullAttn(FlashInfer)")},
    };
    for (const Variant &v : variants) {
        SCOPED_TRACE(v.input);
        const serving::Scheduler sa(v.a, {}), sb(v.b, {});
        // The shortest power-of-two prompt exactly one lane can serve.
        Request r;
        r.gen_len = 512;
        r.prompt_len = 1024;
        while (r.prompt_len < (int64_t{1} << 24) &&
               sa.feasibleAlone(r) == sb.feasibleAlone(r))
            r.prompt_len *= 2;
        const bool a_serves = sa.feasibleAlone(r);
        ASSERT_NE(a_serves, sb.feasibleAlone(r));
        for (bool a_first : {true, false}) {
            ReplicaConfig first, second;
            first.timing = a_first ? v.a : v.b;
            second.timing = a_first ? v.b : v.a;
            second.id = 1;
            std::vector<std::unique_ptr<serving::ReplicaEngine>> fleet;
            fleet.push_back(
                std::make_unique<serving::ReplicaEngine>(engine, first));
            fleet.push_back(
                std::make_unique<serving::ReplicaEngine>(engine, second));
            const size_t want = a_serves == a_first ? 0 : 1;
            for (RouterPolicy policy :
                 {RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue,
                  RouterPolicy::LeastKvLoad, RouterPolicy::TwoTier,
                  RouterPolicy::PrefixAffinity}) {
                serving::Router router({policy, 8192});
                for (int k = 0; k < 3; ++k)
                    EXPECT_EQ(router.route(r, fleet), want)
                        << serving::routerPolicyName(policy)
                        << (a_first ? ", a first" : ", b first");
            }
        }
    }
}

// ------------------------------------------- ServingMetrics cache

Request
finished(int64_t id, double arrival, double admit, double first,
         double finish, int64_t gen = 4)
{
    Request r;
    r.id = id;
    r.prompt_len = 16;
    r.gen_len = gen;
    r.arrival_seconds = arrival;
    r.admit_seconds = admit;
    r.first_token_seconds = first;
    r.finish_seconds = finish;
    r.state = serving::RequestState::Finished;
    return r;
}

TEST(ServingMetricsCache, MergeIntoNonEmptyInvalidatesEveryScope)
{
    // Regression: summarize()/summarizeReplica() memoize their sorted
    // percentile series. Priming the memo on a non-empty collector and
    // then merge()-ing another collector in must invalidate the fleet
    // scope AND every per-replica scope — stale memos would keep
    // reporting pre-merge percentiles forever.
    ServingMetrics a;
    for (int i = 0; i < 8; ++i)
        a.record(finished(i, 0.0, 0.1, 1.0 + i, 10.0 + i), i % 2);
    // Prime the fleet memo and both replica memos.
    const ServingSummary before = a.summarize(100.0);
    (void)a.summarizeReplica(0, 100.0);
    (void)a.summarizeReplica(1, 100.0);

    ServingMetrics b;
    for (int i = 8; i < 16; ++i)
        b.record(finished(i, 0.0, 0.2, 100.0 + i, 200.0 + i), i % 2);
    a.merge(b);

    // Oracle: a fresh collector fed the concatenation, no memo to go
    // stale.
    ServingMetrics fresh;
    for (const RequestRecord &r : a.records()) {
        Request rr = finished(r.id, r.arrival_seconds, r.admit_seconds,
                              r.first_token_seconds, r.finish_seconds,
                              r.gen_len);
        fresh.record(rr, r.replica);
    }

    const ServingSummary merged = a.summarize(100.0);
    const ServingSummary oracle = fresh.summarize(100.0);
    EXPECT_EQ(merged.completed, oracle.completed);
    EXPECT_EQ(merged.ttft_p50, oracle.ttft_p50);
    EXPECT_EQ(merged.ttft_p99, oracle.ttft_p99);
    EXPECT_EQ(merged.e2e_p50, oracle.e2e_p50);
    EXPECT_EQ(merged.e2e_p99, oracle.e2e_p99);
    // The merge visibly moved the tail (the B records are much slower),
    // so a stale memo could not have passed the checks above.
    EXPECT_GT(merged.ttft_p99, before.ttft_p99);

    for (int64_t rep : {0, 1}) {
        const ServingSummary mr = a.summarizeReplica(rep, 100.0);
        const ServingSummary fr = fresh.summarizeReplica(rep, 100.0);
        EXPECT_EQ(mr.completed, fr.completed);
        EXPECT_EQ(mr.ttft_p99, fr.ttft_p99);
        EXPECT_EQ(mr.e2e_p99, fr.e2e_p99);
    }
}

} // namespace
} // namespace specontext
