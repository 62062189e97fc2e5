/**
 * @file
 * Tests of the multi-replica cluster layer: router-policy placement on
 * crafted fleets, bit-for-bit parity of a single-replica Cluster with
 * the Server facade, determinism of heterogeneous fleet runs, fleet
 * aggregation consistency, trace splitting/merging, and the headline
 * routing result (load-aware routing beats round-robin on p99 TTFT on
 * a mixed A800 + RTX 4060 fleet).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/counters.h"
#include "serving/cluster.h"
#include "serving/server.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using serving::Cluster;
using serving::ClusterConfig;
using serving::ClusterResult;
using serving::PromptTokens;
using serving::ReplicaConfig;
using serving::ReplicaEngine;
using serving::Request;
using serving::Router;
using serving::RouterConfig;
using serving::RouterPolicy;
using serving::Server;
using serving::ServerConfig;

ReplicaConfig
cloudReplica(const std::string &sys = "SpeContext")
{
    ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    rc.timing.system = core::SystemRegistry::create(sys);
    rc.max_batch = 64;
    return rc;
}

ReplicaConfig
edgeReplica()
{
    ReplicaConfig rc;
    rc.timing.llm = model::reasoningLlama32_1bGeometry();
    rc.timing.hw = sim::HardwareSpec::edge4060();
    rc.timing.system = core::SystemRegistry::create("SpeContext");
    rc.max_batch = 16;
    return rc;
}

Request
makeRequest(int64_t id, double arrival, int64_t prompt, int64_t gen)
{
    Request r;
    r.id = id;
    r.arrival_seconds = arrival;
    r.prompt_len = prompt;
    r.gen_len = gen;
    return r;
}

/** Fleet of live ReplicaEngines for direct Router unit tests. */
std::vector<std::unique_ptr<ReplicaEngine>>
makeFleet(const core::TimingEngine &engine,
          std::vector<ReplicaConfig> cfgs)
{
    std::vector<std::unique_ptr<ReplicaEngine>> fleet;
    for (size_t i = 0; i < cfgs.size(); ++i) {
        cfgs[i].id = static_cast<int64_t>(i);
        fleet.push_back(
            std::make_unique<ReplicaEngine>(engine, cfgs[i]));
    }
    return fleet;
}

// --------------------------------------------------------------- router

TEST(Router, RoundRobinCyclesThroughTheFleet)
{
    core::TimingEngine e;
    const auto fleet =
        makeFleet(e, {cloudReplica(), cloudReplica(), cloudReplica()});
    Router router({RouterPolicy::RoundRobin, 8192});
    const Request r = makeRequest(0, 0.0, 2048, 256);
    EXPECT_EQ(router.route(r, fleet), 0u);
    EXPECT_EQ(router.route(r, fleet), 1u);
    EXPECT_EQ(router.route(r, fleet), 2u);
    EXPECT_EQ(router.route(r, fleet), 0u);
}

TEST(Router, RoundRobinSkipsReplicasThatCanNeverServeTheRequest)
{
    core::TimingEngine e;
    const auto fleet = makeFleet(e, {edgeReplica(), cloudReplica()});
    Router router({RouterPolicy::RoundRobin, 8192});
    // ~2M-token context: KV exceeds the edge box's 24 GB DRAM but fits
    // the cloud host's 1 TB, so only replica 1 is feasible.
    const Request huge = makeRequest(0, 0.0, 2'000'000, 512);
    ASSERT_FALSE(fleet[0]->scheduler().feasibleAlone(huge));
    ASSERT_TRUE(fleet[1]->scheduler().feasibleAlone(huge));
    EXPECT_EQ(router.route(huge, fleet), 1u);
    EXPECT_EQ(router.route(huge, fleet), 1u);
}

TEST(Router, JoinShortestQueuePicksTheLeastLoadedReplica)
{
    core::TimingEngine e;
    const auto fleet =
        makeFleet(e, {cloudReplica(), cloudReplica(), cloudReplica()});
    fleet[0]->deliver(makeRequest(0, 5.0, 2048, 256));
    fleet[0]->deliver(makeRequest(1, 6.0, 2048, 256));
    fleet[1]->deliver(makeRequest(2, 5.0, 2048, 256));
    Router router({RouterPolicy::JoinShortestQueue, 8192});
    EXPECT_EQ(router.route(makeRequest(3, 7.0, 2048, 256), fleet), 2u);
    // Ties break toward the lowest index: even out the fleet at two
    // outstanding requests each.
    fleet[1]->deliver(makeRequest(3, 7.0, 2048, 256));
    fleet[2]->deliver(makeRequest(4, 7.0, 2048, 256));
    fleet[2]->deliver(makeRequest(5, 7.0, 2048, 256));
    EXPECT_EQ(fleet[0]->outstanding(), 2);
    EXPECT_EQ(fleet[1]->outstanding(), 2);
    EXPECT_EQ(fleet[2]->outstanding(), 2);
    EXPECT_EQ(router.route(makeRequest(6, 8.0, 2048, 256), fleet), 0u);
}

TEST(Router, LeastKvLoadComparesFractionalMemoryPressure)
{
    core::TimingEngine e;
    // Identical replicas: the one with the big outstanding reservation
    // loses.
    auto fleet = makeFleet(e, {cloudReplica(), cloudReplica()});
    fleet[0]->deliver(makeRequest(0, 1.0, 32768, 4096));
    Router router({RouterPolicy::LeastKvLoad, 8192});
    EXPECT_EQ(router.route(makeRequest(1, 2.0, 2048, 256), fleet), 1u);

    // Heterogeneous idle replicas: the same reservation is a larger
    // *fraction* of the edge box's KV capacity, so the cloud replica
    // wins even from the higher index.
    auto hetero = makeFleet(e, {edgeReplica(), cloudReplica()});
    EXPECT_GT(hetero[0]->kvLoadFraction(4096),
              hetero[1]->kvLoadFraction(4096));
    EXPECT_EQ(router.route(makeRequest(2, 0.0, 2048, 2048), hetero),
              1u);
}

TEST(Router, TwoTierSendsLongPromptsToBigHbmReplicas)
{
    core::TimingEngine e;
    const auto fleet = makeFleet(e, {edgeReplica(), cloudReplica()});
    Router router({RouterPolicy::TwoTier, 8192});
    // Long prompt -> big-HBM tier (the A800), short -> edge tier.
    EXPECT_EQ(router.route(makeRequest(0, 0.0, 16384, 512), fleet), 1u);
    EXPECT_EQ(router.route(makeRequest(1, 0.0, 2048, 512), fleet), 0u);
    // At the threshold the prompt counts as long.
    EXPECT_EQ(router.route(makeRequest(2, 0.0, 8192, 512), fleet), 1u);
}

TEST(Router, EmptyFleetThrows)
{
    Router router;
    const std::vector<std::unique_ptr<ReplicaEngine>> none;
    EXPECT_THROW(router.route(makeRequest(0, 0.0, 16, 16), none),
                 std::invalid_argument);
}

/** The message `fn` throws as std::invalid_argument ("" if none). */
template <typename Fn>
std::string
invalidArgumentMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(Router, RejectsOutOfRangeKnobsNamingTheField)
{
    RouterConfig bad_policy;
    bad_policy.policy = static_cast<RouterPolicy>(99);
    EXPECT_NE(invalidArgumentMessage([&] { Router r(bad_policy); })
                  .find("policy"),
              std::string::npos);

    RouterConfig bad_slack;
    bad_slack.policy = RouterPolicy::PrefixAffinity;
    bad_slack.affinity_spill_slack = -1;
    EXPECT_NE(invalidArgumentMessage([&] { Router r(bad_slack); })
                  .find("affinity_spill_slack"),
              std::string::npos);

    // The boundary value is a valid knob: spill on any excess load.
    bad_slack.affinity_spill_slack = 0;
    EXPECT_NO_THROW(Router r(bad_slack));
}

TEST(Cluster, RejectsAnInvalidRouterConfigAtConstruction)
{
    // Regression: an out-of-range policy used to build a Cluster, then
    // throw std::logic_error at the first routed arrival (or never, on
    // an empty trace), and a negative spill slack was accepted.
    core::TimingEngine e;
    ClusterConfig cc;
    cc.replicas = {cloudReplica(), cloudReplica()};
    cc.router.policy = static_cast<RouterPolicy>(-1);
    EXPECT_NE(invalidArgumentMessage([&] { Cluster c(e, cc); })
                  .find("policy"),
              std::string::npos);

    cc.router.policy = RouterPolicy::PrefixAffinity;
    cc.router.affinity_spill_slack = -3;
    EXPECT_NE(invalidArgumentMessage([&] { Cluster c(e, cc); })
                  .find("affinity_spill_slack"),
              std::string::npos);
}

// --------------------------------------------------- server parity

/** Per-request timestamp equality of two serve results. */
void
expectBitIdentical(const serving::ServeResult &cluster_fleet,
                   const serving::ServeResult &server)
{
    EXPECT_EQ(cluster_fleet.makespan_seconds, server.makespan_seconds);
    EXPECT_EQ(cluster_fleet.iterations, server.iterations);
    EXPECT_EQ(cluster_fleet.peak_in_flight, server.peak_in_flight);
    ASSERT_EQ(cluster_fleet.metrics.count(), server.metrics.count());
    const auto &cr = cluster_fleet.metrics.records();
    const auto &sr = server.metrics.records();
    for (size_t i = 0; i < sr.size(); ++i) {
        EXPECT_EQ(cr[i].id, sr[i].id);
        EXPECT_EQ(cr[i].admit_seconds, sr[i].admit_seconds);
        EXPECT_EQ(cr[i].first_token_seconds, sr[i].first_token_seconds);
        EXPECT_EQ(cr[i].finish_seconds, sr[i].finish_seconds);
    }
}

TEST(Cluster, ZeroBudgetPrefixCacheKeepsServerParity)
{
    // The acceptance pin of the prefix-cache subsystem: with the cache
    // disabled (budget 0, the default), a 1-replica Cluster over a
    // trace that *does* carry prompt tokens is bit-for-bit the
    // cache-free Server — the cache branches must be pure no-ops.
    core::TimingEngine e;
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = 16;
    pc.base.arrival_rate_per_s = 1.0;
    pc.base.seed = 13;
    pc.num_families = 4;
    pc.prefix_len = 2048;
    pc.gen_lo = 16;
    pc.gen_hi = 64;
    const auto trace = workload::sharedPrefixTrace(pc);

    ServerConfig sc;
    sc.timing = cloudReplica().timing;
    sc.max_batch = 16;
    const serving::ServeResult server = Server(e, sc).run(trace);

    ClusterConfig cc;
    cc.replicas = {cloudReplica()};
    cc.replicas[0].max_batch = 16;
    cc.replicas[0].prefix_cache.budget_bytes = 0; // explicit: disabled
    const ClusterResult cluster = Cluster(e, cc).run(trace);

    expectBitIdentical(cluster.fleet, server);
    EXPECT_EQ(cluster.fleet.prefix.lookups, 0);
    EXPECT_EQ(cluster.fleet.prefix.hit_tokens, 0);
    EXPECT_EQ(cluster.fleet.prefix.resident_bytes, 0);
}

TEST(Cluster, SingleReplicaMatchesServerBitForBit)
{
    core::TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 24;
    tc.arrival_rate_per_s = 1.0;
    tc.seed = 3;
    const auto trace = workload::mixedLengthTrace(tc);

    for (const char *sys : {"FullAttn(FlashInfer)", "SpeContext"}) {
        ServerConfig sc;
        sc.timing = cloudReplica(sys).timing;
        sc.max_batch = 16;
        const serving::ServeResult server =
            Server(e, sc).run(trace);

        ClusterConfig cc;
        cc.replicas = {cloudReplica(sys)};
        cc.replicas[0].max_batch = 16;
        const ClusterResult cluster = Cluster(e, cc).run(trace);

        // Bit-for-bit: same makespan, iteration count and per-request
        // timestamps — the facade and the event loop drive the same
        // ReplicaEngine arithmetic in the same order.
        EXPECT_EQ(cluster.fleet.makespan_seconds,
                  server.makespan_seconds)
            << sys;
        EXPECT_EQ(cluster.fleet.iterations, server.iterations) << sys;
        EXPECT_EQ(cluster.fleet.peak_in_flight, server.peak_in_flight)
            << sys;
        ASSERT_EQ(cluster.completed(), server.completed()) << sys;
        const auto &cr = cluster.fleet.metrics.records();
        const auto &sr = server.metrics.records();
        for (size_t i = 0; i < sr.size(); ++i) {
            EXPECT_EQ(cr[i].id, sr[i].id);
            EXPECT_EQ(cr[i].admit_seconds, sr[i].admit_seconds);
            EXPECT_EQ(cr[i].first_token_seconds,
                      sr[i].first_token_seconds);
            EXPECT_EQ(cr[i].finish_seconds, sr[i].finish_seconds);
        }
    }
}

TEST(Cluster, RoundRobinOnUniformFleetEqualsStaticSplit)
{
    // On identical replicas, round-robin routing is exactly the
    // i % N static partition — and replicas are independent, so the
    // routed cluster must reproduce per-shard single-replica runs
    // bit-for-bit.
    core::TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 32;
    tc.arrival_rate_per_s = 2.0;
    tc.seed = 11;
    const auto trace = workload::mixedLengthTrace(tc);

    ClusterConfig cc;
    cc.replicas = {cloudReplica(), cloudReplica()};
    cc.router.policy = RouterPolicy::RoundRobin;
    const ClusterResult routed = Cluster(e, cc).run(trace);

    const auto shards = workload::splitTrace(trace, 2);
    for (size_t k = 0; k < 2; ++k) {
        ClusterConfig solo;
        solo.replicas = {cloudReplica()};
        const ClusterResult alone =
            Cluster(e, solo).run(shards[k]);
        EXPECT_EQ(routed.per_replica[k].makespan_seconds,
                  alone.fleet.makespan_seconds);
        EXPECT_EQ(routed.per_replica[k].iterations,
                  alone.fleet.iterations);
        EXPECT_EQ(routed.per_replica[k].completed(),
                  alone.completed());
    }
}

// ----------------------------------------------------- determinism

TEST(Cluster, HeterogeneousRunsAreBitReproducible)
{
    core::TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 32;
    tc.arrival_rate_per_s = 1.0;
    tc.seed = 7;
    const auto trace = workload::mixedLengthTrace(tc);

    ClusterConfig cc;
    cc.replicas = {cloudReplica(), cloudReplica(), edgeReplica(),
                   edgeReplica()};
    cc.router.policy = RouterPolicy::LeastKvLoad;
    cc.replicas[0].queue_policy =
        serving::QueuePolicy::ShortestPromptFirst;
    const Cluster cluster(e, cc);

    const ClusterResult a = cluster.run(trace);
    const ClusterResult b = cluster.run(trace);
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (size_t i = 0; i < a.placements.size(); ++i) {
        EXPECT_EQ(a.placements[i].request_id,
                  b.placements[i].request_id);
        EXPECT_EQ(a.placements[i].replica, b.placements[i].replica);
    }
    const auto sa = a.summary();
    const auto sb = b.summary();
    // The exact doubles the bench would print into BENCH_cluster.json.
    EXPECT_EQ(sa.throughput_tokens_per_s, sb.throughput_tokens_per_s);
    EXPECT_EQ(sa.ttft_mean, sb.ttft_mean);
    EXPECT_EQ(sa.ttft_p99, sb.ttft_p99);
    EXPECT_EQ(sa.e2e_p99, sb.e2e_p99);
    EXPECT_EQ(sa.tpot_mean, sb.tpot_mean);
    EXPECT_EQ(a.fleet.makespan_seconds, b.fleet.makespan_seconds);
    EXPECT_EQ(a.fleet.iterations, b.fleet.iterations);
}

// ----------------------------------------------------- aggregation

TEST(Cluster, FleetAggregationIsConsistentWithPerReplicaResults)
{
    core::TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 24;
    tc.arrival_rate_per_s = 1.0;
    tc.seed = 5;
    const auto trace = workload::mixedLengthTrace(tc);

    ClusterConfig cc;
    cc.replicas = {cloudReplica(), edgeReplica()};
    cc.router.policy = RouterPolicy::TwoTier;
    const ClusterResult r = Cluster(e, cc).run(trace);

    ASSERT_EQ(r.per_replica.size(), 2u);
    ASSERT_EQ(r.replica_names.size(), 2u);
    EXPECT_NE(r.replica_names[0], r.replica_names[1]);

    int64_t completed = 0, iterations = 0, peak = 0;
    double makespan = 0.0;
    for (const auto &pr : r.per_replica) {
        completed += pr.completed();
        iterations += pr.iterations;
        peak += pr.peak_in_flight;
        makespan = std::max(makespan, pr.makespan_seconds);
    }
    EXPECT_EQ(r.completed(), completed);
    EXPECT_EQ(r.fleet.iterations, iterations);
    EXPECT_EQ(r.fleet.peak_in_flight, peak);
    EXPECT_EQ(r.fleet.makespan_seconds, makespan);
    EXPECT_EQ(static_cast<int64_t>(r.placements.size()),
              completed +
                  static_cast<int64_t>(r.fleet.rejected.size()));

    // Per-replica breakdown of the merged metrics matches each
    // replica's own collector.
    for (int64_t id : r.fleet.metrics.replicaIds()) {
        const auto fleet_view = r.fleet.metrics.summarizeReplica(
            id, r.per_replica[id].makespan_seconds);
        const auto own = r.per_replica[id].summary();
        EXPECT_EQ(fleet_view.completed, own.completed);
        EXPECT_EQ(fleet_view.ttft_mean, own.ttft_mean);
        EXPECT_EQ(fleet_view.ttft_p99, own.ttft_p99);
        EXPECT_EQ(fleet_view.total_generated_tokens,
                  own.total_generated_tokens);
    }
}

// -------------------------------------------------- routing quality

TEST(Cluster, LoadAwareRoutingBeatsRoundRobinP99TtftOnMixedFleet)
{
    // The acceptance headline: on a heterogeneous A800 + RTX 4060
    // fleet under mixed-length Poisson load, least-KV-load routing
    // must beat oblivious round-robin on p99 TTFT (round-robin keeps
    // handing long prompts to the slow edge prefill).
    core::TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 96;
    tc.arrival_rate_per_s = 1.0;
    tc.seed = 7;
    const auto trace = workload::mixedLengthTrace(tc);

    auto p99 = [&](RouterPolicy policy) {
        ClusterConfig cc;
        cc.replicas = {cloudReplica(), cloudReplica(), edgeReplica(),
                       edgeReplica()};
        cc.router.policy = policy;
        const ClusterResult r = Cluster(e, cc).run(trace);
        EXPECT_EQ(r.completed(),
                  static_cast<int64_t>(trace.size()));
        return r.summary().ttft_p99;
    };
    EXPECT_LT(p99(RouterPolicy::LeastKvLoad),
              p99(RouterPolicy::RoundRobin));
}

// ------------------------------------------- prefix cache & affinity

/** Cloud replica with an enabled prefix cache. */
ReplicaConfig
cachedCloudReplica(int64_t budget_gib = 8)
{
    ReplicaConfig rc = cloudReplica();
    rc.prefix_cache.budget_bytes = budget_gib << 30;
    rc.prefix_cache.page_size = 16;
    return rc;
}

workload::SharedPrefixTraceConfig
smallSharedPrefixConfig()
{
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = 24;
    pc.base.arrival_rate_per_s = 2.0;
    pc.base.seed = 17;
    pc.num_families = 2;
    pc.prefix_len = 2048;
    pc.suffix_lo = 64;
    pc.suffix_hi = 128;
    pc.gen_lo = 16;
    pc.gen_hi = 48;
    return pc;
}

TEST(PrefixCache, SkipsPrefillWorkAndReportsHits)
{
    core::TimingEngine e;
    const auto trace =
        workload::sharedPrefixTrace(smallSharedPrefixConfig());

    auto runWithBudget = [&](int64_t budget_bytes) {
        ClusterConfig cc;
        cc.replicas = {cloudReplica()};
        cc.replicas[0].prefix_cache.budget_bytes = budget_bytes;
        return Cluster(e, cc).run(trace);
    };
    const ClusterResult cold = runWithBudget(0);
    const ClusterResult warm = runWithBudget(8LL << 30);

    // Same requests complete either way; the cache only removes
    // prefill work, it never changes what is served.
    EXPECT_EQ(warm.completed(), cold.completed());
    EXPECT_EQ(warm.completed(),
              static_cast<int64_t>(trace.size()));

    // Two families, 24 requests: everything after the two cold
    // prompts hits, so most prefill tokens are saved...
    const serving::PrefixCacheStats &ps = warm.fleet.prefix;
    EXPECT_EQ(ps.lookups, static_cast<int64_t>(trace.size()));
    EXPECT_GT(ps.hit_requests, 0);
    EXPECT_GT(ps.hit_tokens, 0);
    EXPECT_GT(ps.hitRate(), 0.5);
    EXPECT_GT(ps.resident_tokens, 0);
    // ...and the saved work shows up as lower latency.
    EXPECT_LT(warm.summary().ttft_mean, cold.summary().ttft_mean);
    EXPECT_LE(warm.fleet.makespan_seconds, cold.fleet.makespan_seconds);

    // Per-request accounting: cached_prompt_len is block-aligned-ish
    // (capped at prompt_len - 1) and never exceeds the prompt.
    const ClusterResult again = runWithBudget(8LL << 30);
    EXPECT_EQ(again.summary().ttft_mean, warm.summary().ttft_mean);
    EXPECT_EQ(again.fleet.prefix.hit_tokens, ps.hit_tokens);
}

TEST(PrefixCache, MismatchedPromptTokensAreRejectedAtDelivery)
{
    core::TimingEngine e;
    ReplicaEngine rep(e, cachedCloudReplica());
    Request r = makeRequest(0, 0.0, 128, 8);
    // size != prompt_len
    r.prompt_tokens = PromptTokens(std::vector<int32_t>(64, 7));
    EXPECT_THROW(rep.deliver(std::move(r)), std::invalid_argument);
}

TEST(PrefixCache, MismatchedPromptTokensAreRejectedBeforeTheRun)
{
    // The API boundary checks the whole trace up front: a bad third
    // request throws, naming its id, before any replica is built (a
    // built replica would have registered its counters).
    core::TimingEngine e;
    auto trace = workload::sharedPrefixTrace(smallSharedPrefixConfig());
    ASSERT_GE(trace.size(), 3u);
    trace[2].id = 4242;
    trace[2].prompt_len += 1;

    obs::CounterRegistry counters;
    ClusterConfig cc;
    cc.replicas = {cachedCloudReplica(), cachedCloudReplica()};
    cc.obs.counters = &counters;
    try {
        Cluster(e, cc).run(trace);
        ADD_FAILURE() << "Cluster::run accepted a mismatched prompt";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("4242"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_TRUE(counters.snapshot().empty());

    ServerConfig sc;
    sc.timing = cloudReplica().timing;
    try {
        Server(e, sc).run(trace);
        ADD_FAILURE() << "Server::run accepted a mismatched prompt";
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("4242"),
                  std::string::npos)
            << err.what();
    }
}

/** Run four requests on two SpeContext replicas (and on a Server),
 *  the third with id 4242 arriving at `arrival`: both entry points must
 *  throw, naming the id, before any replica is built. */
void
expectArrivalRejectedBeforeTheRun(double arrival)
{
    core::TimingEngine e;
    std::vector<Request> trace;
    for (int64_t id = 0; id < 4; ++id)
        trace.push_back(makeRequest(id, 0.5 * double(id), 2048, 64));
    trace[2].id = 4242;
    trace[2].arrival_seconds = arrival;

    obs::CounterRegistry counters;
    ClusterConfig cc;
    cc.replicas = {cloudReplica(), cloudReplica()};
    cc.obs.counters = &counters;
    try {
        Cluster(e, cc).run(trace);
        ADD_FAILURE() << "Cluster::run accepted arrival " << arrival;
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("4242"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_TRUE(counters.snapshot().empty());

    ServerConfig sc;
    sc.timing = cloudReplica().timing;
    try {
        Server(e, sc).run(trace);
        ADD_FAILURE() << "Server::run accepted arrival " << arrival;
    } catch (const std::invalid_argument &err) {
        EXPECT_NE(std::string(err.what()).find("4242"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Cluster, NonFiniteArrivalIsRejectedAtDelivery)
{
    // Delivered straight to an engine, a NaN arrival would never come
    // due, and the replica would step forever without going idle.
    core::TimingEngine e;
    ReplicaEngine rep(e, cloudReplica());
    for (double t : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()})
        EXPECT_THROW(rep.deliver(makeRequest(0, t, 2048, 8)),
                     std::invalid_argument);
    EXPECT_TRUE(rep.idle());
}

TEST(Cluster, NanArrivalIsRejectedBeforeTheRun)
{
    // A NaN would break the arrival sort, and requests would vanish.
    expectArrivalRejectedBeforeTheRun(
        std::numeric_limits<double>::quiet_NaN());
}

TEST(Cluster, InfiniteArrivalIsRejectedBeforeTheRun)
{
    // An arrival that never comes due would vanish.
    expectArrivalRejectedBeforeTheRun(
        std::numeric_limits<double>::infinity());
}

TEST(Cluster, NegativeArrivalIsRejectedBeforeTheRun)
{
    // Unchecked, it would throw mid-run, blaming the delivery order.
    expectArrivalRejectedBeforeTheRun(-5.0);
}

TEST(PrefixCache, DuplicateRequestIdsKeepIndependentPins)
{
    // Pins are keyed per admission, not per request id: two in-flight
    // requests sharing an id must not cross-release each other's
    // prefix pins (which would make a decoding request's KV
    // evictable, or throw on the second release).
    core::TimingEngine e;
    ReplicaEngine rep(e, cachedCloudReplica());
    Request a = makeRequest(7, 0.0, 256, 64);
    a.prompt_tokens = PromptTokens(std::vector<int32_t>(256, 21));
    Request b = makeRequest(7, 0.1, 256, 64); // same id, in flight too
    b.prompt_tokens = PromptTokens(std::vector<int32_t>(256, 22));
    rep.deliver(a);
    rep.deliver(b);
    while (!rep.idle())
        rep.step();
    const serving::ServeResult r = rep.takeResult();
    EXPECT_EQ(r.completed(), 2);
    EXPECT_EQ(r.prefix.lookups, 2);
    EXPECT_GT(r.prefix.resident_tokens, 0); // both paths survive
}

TEST(Router, PrefixAffinityPrefersTheWarmestReplica)
{
    core::TimingEngine e;
    auto fleet = makeFleet(
        e, {cachedCloudReplica(), cachedCloudReplica(),
            cachedCloudReplica()});
    Router router({RouterPolicy::PrefixAffinity, 8192});

    // Warm replica 1 by actually serving a family member there.
    std::vector<int32_t> family(256);
    for (size_t i = 0; i < family.size(); ++i)
        family[i] = static_cast<int32_t>(100 + i);
    Request seedr = makeRequest(0, 0.0, 256, 1);
    seedr.prompt_tokens = PromptTokens(family);
    fleet[1]->deliver(seedr);
    while (!fleet[1]->idle())
        fleet[1]->step();
    ASSERT_GT(fleet[1]->prefixHitTokens(seedr), 0);

    // A same-family request routes to the warm replica even though
    // colder replicas are equally idle...
    Request again = makeRequest(1, 1.0, 256, 8);
    again.prompt_tokens = PromptTokens(family);
    EXPECT_EQ(router.route(again, fleet), 1u);
    // ...and keeps routing there when replica 1 carries load.
    fleet[1]->deliver(makeRequest(2, 1.0, 4096, 256));
    EXPECT_EQ(router.route(again, fleet), 1u);
}

TEST(Router, PrefixAffinityColdPromptsGetAStickyHashedHome)
{
    core::TimingEngine e;
    auto fleet = makeFleet(
        e, {cachedCloudReplica(), cachedCloudReplica(),
            cachedCloudReplica(), cachedCloudReplica()});
    Router router({RouterPolicy::PrefixAffinity, 8192});

    Request a = makeRequest(0, 0.0, 256, 8);
    a.prompt_tokens = PromptTokens(std::vector<int32_t>(256, 11));
    const size_t home = router.route(a, fleet);
    // Same family -> same home, regardless of load skew, before any
    // cache state exists (one fleet-wide cold prefill per family).
    fleet[home]->deliver(makeRequest(9, 0.0, 16384, 512));
    EXPECT_EQ(router.route(a, fleet), home);

    // No prompt tokens -> least-kv-load fallback (ties -> index 0).
    Request plain = makeRequest(1, 0.0, 256, 8);
    EXPECT_EQ(router.route(plain, fleet),
              Router({RouterPolicy::LeastKvLoad, 8192})
                  .route(plain, fleet));
}

TEST(PrefixCache, RevivesAfterTransientLiveKvPressure)
{
    // A huge admission squeezes the tree's working budget to 0 (live
    // KV always wins the headroom); once it retires, the cache must
    // come back — the squeeze is transient, not a permanent off
    // switch.
    core::TimingEngine e;
    ClusterConfig cc;
    cc.replicas = {cachedCloudReplica(8)};
    const Cluster cluster(e, cc);

    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = 2;
    pc.base.arrival_rate_per_s = 1.0;
    pc.num_families = 1;
    pc.prefix_len = 2048;
    pc.suffix_lo = 16;
    pc.suffix_hi = 32;
    pc.gen_lo = 2;
    pc.gen_hi = 4;
    auto family = workload::sharedPrefixTrace(pc);

    std::vector<Request> trace;
    trace.push_back(family[0]); // caches the family
    // ~470K-token reservation ~= 59 GB of KV: eats the whole A800
    // headroom next to the weights while outstanding.
    Request huge = makeRequest(50, 10.0, 470'000, 2);
    huge.prompt_tokens = PromptTokens(std::vector<int32_t>(470'000, 9));
    trace.push_back(huge);
    // Same family again, long after the pressure has drained.
    Request back = family[1];
    back.id = 51;
    back.arrival_seconds = 1e7;
    trace.push_back(back);
    Request back2 = family[1];
    back2.id = 52;
    back2.arrival_seconds = 2e7;
    trace.push_back(back2);

    const ClusterResult r = cluster.run(trace);
    ASSERT_EQ(r.completed(), 4);
    const serving::PrefixCacheStats &ps = r.fleet.prefix;
    // Every token-carrying admission consulted the cache — including
    // the ones arriving after the squeeze.
    EXPECT_EQ(ps.lookups, 4);
    // The squeeze wiped the family, so `back` re-seeded it and
    // `back2` hit the revived cache.
    EXPECT_GE(ps.hit_requests, 1);
    EXPECT_GT(ps.resident_tokens, 0);
}

TEST(Router, PrefixAffinityHashesColdFamiliesOntoCachedReplicasOnly)
{
    // Mixed fleet: a cache-less replica can never warm up, so hashing
    // a cold family onto it would strand the family on full prefill
    // forever. The sticky home must come from the cached subset.
    core::TimingEngine e;
    auto fleet = makeFleet(e, {cloudReplica(), cachedCloudReplica()});
    ASSERT_FALSE(fleet[0]->prefixCacheEnabled());
    ASSERT_TRUE(fleet[1]->prefixCacheEnabled());
    Router router({RouterPolicy::PrefixAffinity, 8192});
    for (int32_t fam = 0; fam < 8; ++fam) {
        Request r = makeRequest(fam, 0.0, 256, 8);
        r.prompt_tokens = PromptTokens(std::vector<int32_t>(256, 1000 + fam));
        EXPECT_EQ(router.route(r, fleet), 1u) << "family " << fam;
    }
}

TEST(Router, PrefixAffinityWithoutCachesDegradesToLeastKvLoad)
{
    core::TimingEngine e;
    auto fleet = makeFleet(e, {cloudReplica(), cloudReplica()});
    fleet[0]->deliver(makeRequest(0, 1.0, 32768, 4096));
    Router affinity({RouterPolicy::PrefixAffinity, 8192});
    Router least({RouterPolicy::LeastKvLoad, 8192});
    Request r = makeRequest(1, 2.0, 2048, 256);
    r.prompt_tokens = PromptTokens(std::vector<int32_t>(2048, 3));
    EXPECT_EQ(affinity.route(r, fleet), least.route(r, fleet));
    EXPECT_EQ(affinity.route(r, fleet), 1u);
}

// Satellite: every policy must degrade deterministically (not crash)
// when no replica can serve a request even alone.
TEST(Router, AllInfeasibleFleetFallsBackDeterministically)
{
    core::TimingEngine e;
    auto fleet = makeFleet(e, {edgeReplica(), edgeReplica()});
    // ~2M-token context: KV exceeds the edge box's DRAM on both.
    Request huge = makeRequest(0, 0.0, 2'000'000, 512);
    huge.prompt_tokens = PromptTokens(std::vector<int32_t>(2'000'000, 5));
    ASSERT_FALSE(fleet[0]->scheduler().feasibleAlone(huge));
    ASSERT_FALSE(fleet[1]->scheduler().feasibleAlone(huge));

    for (auto policy : {RouterPolicy::LeastKvLoad,
                        RouterPolicy::PrefixAffinity}) {
        Router router({policy, 8192});
        const size_t first = router.route(huge, fleet);
        EXPECT_LT(first, fleet.size());
        EXPECT_EQ(router.route(huge, fleet), first)
            << serving::routerPolicyName(policy);
    }
}

TEST(Cluster, InfeasibleRequestIsRejectedUnderEveryPolicy)
{
    core::TimingEngine e;
    workload::SharedPrefixTraceConfig pc = smallSharedPrefixConfig();
    pc.base.num_requests = 6;
    auto trace = workload::sharedPrefixTrace(pc);
    Request huge = makeRequest(100, 0.5, 2'000'000, 64);
    trace.push_back(huge);

    for (auto policy : {RouterPolicy::LeastKvLoad,
                        RouterPolicy::PrefixAffinity}) {
        ClusterConfig cc;
        cc.replicas = {edgeReplica(), edgeReplica()};
        cc.router.policy = policy;
        const ClusterResult r = Cluster(e, cc).run(trace);
        ASSERT_EQ(r.fleet.rejected.size(), 1u)
            << serving::routerPolicyName(policy);
        EXPECT_EQ(r.fleet.rejected[0].id, 100);
        EXPECT_EQ(r.completed(), 6);
    }
}

// The acceptance headline: prefix-affinity routing must beat
// join-shortest-queue on p99 TTFT on a shared-prefix trace, because
// JSQ scatters each family over the fleet (every replica pays the
// family's cold prefill and the per-replica budget thrashes across
// all families) while affinity gives each family one warm home.
TEST(Cluster, PrefixAffinityBeatsJsqOnSharedPrefixTrace)
{
    core::TimingEngine e;
    workload::SharedPrefixTraceConfig pc;
    // The bench's contended configuration: 16 families against a
    // 4-family-per-replica budget, heavy enough that prefill work
    // queues. JSQ pays each family's cold prefill once per replica
    // (and re-pays it on LRU thrash), and those stalls cascade into
    // the tail; 192 requests keep p99 a tail statistic rather than
    // the single worst cold prefill.
    pc.base.num_requests = 192;
    pc.base.arrival_rate_per_s = 4.0;
    pc.base.seed = 7;
    pc.num_families = 16;
    pc.prefix_len = 4096;
    pc.suffix_lo = 64;
    pc.suffix_hi = 256;
    pc.gen_lo = 32;
    pc.gen_hi = 128;
    const auto trace = workload::sharedPrefixTrace(pc);

    auto run = [&](RouterPolicy policy) {
        ClusterConfig cc;
        // Budget 2 GiB ~= 4 cached family prefixes per replica: the
        // whole family set fits fleet-wide only if routing keeps
        // families apart.
        cc.replicas = {cachedCloudReplica(2), cachedCloudReplica(2),
                       cachedCloudReplica(2), cachedCloudReplica(2)};
        cc.router.policy = policy;
        const ClusterResult r = Cluster(e, cc).run(trace);
        EXPECT_EQ(r.completed(), static_cast<int64_t>(trace.size()))
            << serving::routerPolicyName(policy);
        return r;
    };
    const ClusterResult affinity = run(RouterPolicy::PrefixAffinity);
    const ClusterResult jsq = run(RouterPolicy::JoinShortestQueue);

    EXPECT_GT(affinity.fleet.prefix.hit_tokens, 0);
    EXPECT_GT(affinity.fleet.prefix.hitRate(),
              jsq.fleet.prefix.hitRate());
    EXPECT_LT(affinity.summary().ttft_p99, jsq.summary().ttft_p99);
}

// ----------------------------------------------------- construction

TEST(Cluster, RejectsEmptyOrInvalidFleets)
{
    core::TimingEngine e;
    EXPECT_THROW(Cluster(e, ClusterConfig{}), std::invalid_argument);

    ClusterConfig wave;
    wave.replicas = {cloudReplica("Quest")}; // wave-only system
    EXPECT_THROW(Cluster(e, wave), std::invalid_argument);

    ClusterConfig bad;
    bad.replicas = {cloudReplica()};
    bad.replicas[0].max_batch = 0;
    EXPECT_THROW(Cluster(e, bad), std::invalid_argument);

    // Invalid hardware fails at construction. (Regression: a zero rate
    // priced every round at +inf, so requests never reached a terminal
    // state, and a NaN one threw from deep inside run().)
    const auto badHw = [](void (*mutate)(sim::HardwareSpec &)) {
        ClusterConfig cc;
        cc.replicas = {cloudReplica()};
        mutate(cc.replicas[0].timing.hw);
        return cc;
    };
    EXPECT_THROW(Cluster(e, badHw([](sim::HardwareSpec &hw) {
                     hw.hbm_bw_gbps = 0.0;
                 })),
                 std::invalid_argument);
    EXPECT_THROW(Cluster(e, badHw([](sim::HardwareSpec &hw) {
                     hw.gpu_tflops_fp16 = 0.0;
                 })),
                 std::invalid_argument);
    EXPECT_THROW(Cluster(e, badHw([](sim::HardwareSpec &hw) {
                     hw.hbm_bw_gbps =
                         std::numeric_limits<double>::quiet_NaN();
                 })),
                 std::invalid_argument);
}

TEST(ReplicaEngine, StepOnIdleReplicaThrows)
{
    core::TimingEngine e;
    ReplicaEngine rep(e, cloudReplica());
    EXPECT_TRUE(rep.idle());
    EXPECT_THROW(rep.step(), std::logic_error);
    rep.deliver(makeRequest(0, 4.0, 2048, 4));
    EXPECT_FALSE(rep.idle());
    EXPECT_DOUBLE_EQ(rep.nextEventSeconds(), 4.0);
    rep.step(); // clock jumps to the arrival, admits, decodes once
    EXPECT_GT(rep.now(), 4.0);
    EXPECT_EQ(rep.inFlight(), 1);
    EXPECT_THROW(
        rep.deliver(makeRequest(1, 3.0, 2048, 4)), // out of order
        std::invalid_argument);
}

// ------------------------------------------------- trace utilities

TEST(Trace, SplitRoundRobinsAndMergeRoundTrips)
{
    workload::TraceConfig tc;
    tc.num_requests = 25;
    tc.arrival_rate_per_s = 2.0;
    tc.seed = 9;
    auto trace = workload::mixedLengthTrace(tc);

    const auto shards = workload::splitTrace(trace, 3);
    ASSERT_EQ(shards.size(), 3u);
    EXPECT_EQ(shards[0].size(), 9u);
    EXPECT_EQ(shards[1].size(), 8u);
    EXPECT_EQ(shards[2].size(), 8u);
    for (const auto &shard : shards) {
        for (size_t i = 1; i < shard.size(); ++i)
            EXPECT_GE(shard[i].arrival_seconds,
                      shard[i - 1].arrival_seconds);
    }
    // Request i of the arrival-sorted trace lands in shard i % 3.
    EXPECT_EQ(shards[0][0].id, trace[0].id);
    EXPECT_EQ(shards[1][0].id, trace[1].id);
    EXPECT_EQ(shards[2][0].id, trace[2].id);

    const auto merged = workload::mergeTraces(shards);
    ASSERT_EQ(merged.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(merged[i].id, trace[i].id);
        EXPECT_DOUBLE_EQ(merged[i].arrival_seconds,
                         trace[i].arrival_seconds);
    }
    EXPECT_THROW(workload::splitTrace(trace, 0),
                 std::invalid_argument);
}

TEST(Trace, MergeRestoresTheInterleaveAcrossEqualArrivals)
{
    // A run of identical arrival instants wraps around the fleet; the
    // merge must restore the original round-robin interleave, not
    // drain shard 0 first.
    std::vector<Request> trace;
    for (int64_t id : {10, 11, 12, 13, 14})
        trace.push_back(makeRequest(id, 0.0, 1024, 64));
    const auto shards = workload::splitTrace(trace, 2);
    const auto merged = workload::mergeTraces(shards);
    ASSERT_EQ(merged.size(), trace.size());
    for (size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(merged[i].id, trace[i].id) << i;
}

} // namespace
} // namespace specontext
