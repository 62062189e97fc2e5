/**
 * @file
 * Tests of the continuous-batching serving subsystem: request queue
 * policies, latency metrics, Poisson trace generation, memory-model
 * admission control (serving::Scheduler's Reserve test), the Server
 * loop's lifecycle invariants, and the
 * continuous-vs-wave throughput ordering.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "serving/server.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using core::SystemOptions;
using core::SystemRegistry;
using core::TimingConfig;
using core::TimingEngine;
using serving::QueuePolicy;
using serving::Request;
using serving::RequestQueue;
using serving::RequestState;
using serving::Scheduler;
using serving::ServerConfig;
using serving::ServingMetrics;

TimingConfig
cloudConfig(const std::string &sys)
{
    TimingConfig c;
    c.llm = model::deepseekDistillLlama8bGeometry();
    c.hw = sim::HardwareSpec::cloudA800();
    c.system = SystemRegistry::create(sys);
    return c;
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

// ---------------------------------------------------------------- queue

TEST(RequestQueue, FifoPopsInArrivalOrder)
{
    RequestQueue q(QueuePolicy::Fifo);
    q.push(makeRequest(0, 0.0, 4096, 256));
    q.push(makeRequest(1, 1.0, 1024, 256));
    q.push(makeRequest(2, 2.0, 8192, 256));
    EXPECT_EQ(q.pop().id, 0);
    EXPECT_EQ(q.pop().id, 1);
    EXPECT_EQ(q.pop().id, 2);
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, ShortestPromptFirstPrefersSmallFootprint)
{
    RequestQueue q(QueuePolicy::ShortestPromptFirst);
    q.push(makeRequest(0, 0.0, 4096, 256));
    q.push(makeRequest(1, 1.0, 1024, 256));
    q.push(makeRequest(2, 2.0, 1024, 512)); // tie -> FIFO (id 1 first)
    EXPECT_EQ(q.peek().id, 1);
    EXPECT_EQ(q.pop().id, 1);
    EXPECT_EQ(q.pop().id, 2);
    EXPECT_EQ(q.pop().id, 0);
}

TEST(RequestQueue, ShortestPromptFirstTiesAreATotalOrder)
{
    // Equal prompt lengths pushed out of both arrival and id order:
    // the candidate order must be (prompt_len, arrival, id) regardless
    // of insertion order, so cluster runs are bit-reproducible even
    // when a router interleaves deliveries.
    RequestQueue q(QueuePolicy::ShortestPromptFirst);
    q.push(makeRequest(7, 3.0, 1024, 256));
    q.push(makeRequest(2, 1.0, 1024, 256));
    q.push(makeRequest(9, 1.0, 1024, 256)); // same arrival as id 2
    q.push(makeRequest(4, 2.0, 1024, 256));
    EXPECT_EQ(q.pop().id, 2); // earliest arrival, lowest id
    EXPECT_EQ(q.pop().id, 9); // same arrival, higher id
    EXPECT_EQ(q.pop().id, 4);
    EXPECT_EQ(q.pop().id, 7);
}

// -------------------------------------------------------------- metrics

TEST(ServingMetrics, NearestRankPercentiles)
{
    const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(ServingMetrics::percentile(v, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(ServingMetrics::percentile(v, 95.0), 5.0);
    EXPECT_DOUBLE_EQ(ServingMetrics::percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(ServingMetrics::percentile(v, 100.0), 5.0);
    EXPECT_DOUBLE_EQ(ServingMetrics::percentile({}, 50.0), 0.0);
    EXPECT_THROW(ServingMetrics::percentile(v, 101.0),
                 std::invalid_argument);
}

TEST(ServingMetrics, RecordsDeriveLatencies)
{
    Request r = makeRequest(3, 10.0, 2048, 5);
    r.admit_seconds = 12.0;
    r.first_token_seconds = 14.0;
    r.finish_seconds = 22.0;
    r.generated = 5;
    r.state = RequestState::Finished;

    ServingMetrics m;
    m.record(r);
    ASSERT_EQ(m.count(), 1);
    const serving::RequestRecord &rec = m.records()[0];
    EXPECT_DOUBLE_EQ(rec.ttft(), 4.0);
    EXPECT_DOUBLE_EQ(rec.e2e(), 12.0);
    EXPECT_DOUBLE_EQ(rec.queueDelay(), 2.0);
    EXPECT_DOUBLE_EQ(rec.tpot(), 2.0); // (22-14)/(5-1)

    const serving::ServingSummary s = m.summarize(22.0);
    EXPECT_EQ(s.completed, 1);
    EXPECT_EQ(s.total_generated_tokens, 5);
    EXPECT_NEAR(s.throughput_tokens_per_s, 5.0 / 22.0, 1e-12);

    Request unfinished = makeRequest(4, 0.0, 16, 4);
    EXPECT_THROW(m.record(unfinished), std::invalid_argument);
}

TEST(ServingMetrics, SortedPercentileReadsMatchTheCopyingPath)
{
    // summarize() sorts each series once and reads all quantiles from
    // it; the values must equal the copy-and-sort-per-call helper.
    std::vector<double> v{9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0};
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(ServingMetrics::percentileSorted(sorted, p),
                         ServingMetrics::percentile(v, p));
    }
    EXPECT_DOUBLE_EQ(ServingMetrics::percentileSorted({}, 50.0), 0.0);
    EXPECT_THROW(ServingMetrics::percentileSorted(sorted, -1.0),
                 std::invalid_argument);
}

TEST(ServingMetrics, MergeKeepsReplicaIdsForPerReplicaBreakdowns)
{
    auto finished = [&](int64_t id, double finish) {
        Request r = makeRequest(id, 0.0, 128, 4);
        r.admit_seconds = 1.0;
        r.first_token_seconds = 2.0;
        r.finish_seconds = finish;
        r.generated = r.gen_len;
        r.state = RequestState::Finished;
        return r;
    };
    ServingMetrics a, b;
    a.record(finished(0, 4.0), 0);
    a.record(finished(1, 6.0), 0);
    b.record(finished(2, 8.0), 1);

    ServingMetrics fleet = a;
    fleet.merge(b);
    ASSERT_EQ(fleet.count(), 3);
    EXPECT_EQ(fleet.replicaIds(), (std::vector<int64_t>{0, 1}));
    EXPECT_EQ(fleet.summarize(8.0).completed, 3);
    const auto r0 = fleet.summarizeReplica(0, 6.0);
    const auto r1 = fleet.summarizeReplica(1, 8.0);
    EXPECT_EQ(r0.completed, 2);
    EXPECT_EQ(r1.completed, 1);
    EXPECT_DOUBLE_EQ(r1.e2e_mean, 8.0);
    EXPECT_EQ(fleet.summarizeReplica(7, 1.0).completed, 0);
}

// Satellite pin: percentile summaries over empty series return the
// defined all-zero sentinel — never uninitialized values or NaN — and
// argument validation still fires on empty input.
TEST(ServingMetrics, EmptySeriesSummarizeToTheZeroSentinel)
{
    const ServingMetrics empty;
    const auto s = empty.summarize(10.0);
    EXPECT_EQ(s.completed, 0);
    EXPECT_EQ(s.total_generated_tokens, 0);
    EXPECT_DOUBLE_EQ(s.throughput_tokens_per_s, 0.0);
    for (double v : {s.ttft_mean, s.ttft_p50, s.ttft_p95, s.ttft_p99,
                     s.tpot_mean, s.e2e_mean, s.e2e_p50, s.e2e_p95,
                     s.e2e_p99, s.queue_delay_mean}) {
        EXPECT_FALSE(std::isnan(v));
        EXPECT_DOUBLE_EQ(v, 0.0);
    }

    // A replica that served zero requests, read out of a non-empty
    // fleet collector, gets the same sentinel.
    Request done = makeRequest(0, 0.0, 128, 4);
    done.admit_seconds = 1.0;
    done.first_token_seconds = 2.0;
    done.finish_seconds = 3.0;
    done.generated = done.gen_len;
    done.state = RequestState::Finished;
    ServingMetrics fleet;
    fleet.record(done, 0);
    const auto idle_replica = fleet.summarizeReplica(42, 5.0);
    EXPECT_EQ(idle_replica.completed, 0);
    EXPECT_DOUBLE_EQ(idle_replica.ttft_p99, 0.0);
    EXPECT_FALSE(std::isnan(idle_replica.tpot_mean));

    // Percentiles of an empty series: sentinel 0.0, but a bad p still
    // throws (the empty set is not a validation bypass).
    EXPECT_DOUBLE_EQ(ServingMetrics::percentile({}, 99.0), 0.0);
    EXPECT_DOUBLE_EQ(ServingMetrics::percentileSorted({}, 50.0), 0.0);
    EXPECT_THROW(ServingMetrics::percentile({}, 101.0),
                 std::invalid_argument);
    EXPECT_THROW(ServingMetrics::percentileSorted({}, -1.0),
                 std::invalid_argument);
}

// --------------------------------------------------------------- traces

TEST(Trace, PoissonIsDeterministicAndSorted)
{
    workload::TraceConfig tc;
    tc.num_requests = 200;
    tc.arrival_rate_per_s = 2.0;
    tc.seed = 11;
    const auto a = workload::paperMixTrace(tc);
    const auto b = workload::paperMixTrace(tc);
    ASSERT_EQ(a.size(), 200u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
        }
    }
    // Mean inter-arrival gap of a Poisson process is 1/rate.
    const double mean_gap =
        a.back().arrival_seconds / static_cast<double>(a.size());
    EXPECT_NEAR(mean_gap, 0.5, 0.15);
}

TEST(Trace, MixedLengthStaysInRangeAndVaries)
{
    workload::TraceConfig tc;
    tc.num_requests = 100;
    tc.arrival_rate_per_s = 1.0;
    const auto t = workload::mixedLengthTrace(tc);
    int64_t min_p = t[0].prompt_len, max_p = t[0].prompt_len;
    for (const Request &r : t) {
        EXPECT_GE(r.prompt_len, 1024);
        EXPECT_LE(r.prompt_len, 32768);
        EXPECT_GE(r.gen_len, 256);
        EXPECT_LE(r.gen_len, 8192);
        min_p = std::min(min_p, r.prompt_len);
        max_p = std::max(max_p, r.prompt_len);
    }
    EXPECT_GT(max_p, 2 * min_p); // genuinely mixed lengths
    EXPECT_THROW(workload::poissonTrace(tc, {}), std::invalid_argument);
}

// Satellite pin: every generator validates the shared TraceConfig
// knobs up front with a clear error, via validateTraceConfig().
TEST(Trace, ConfigValidationRejectsDegenerateKnobs)
{
    workload::TraceConfig ok;
    EXPECT_NO_THROW(workload::validateTraceConfig(ok));

    workload::TraceConfig no_requests = ok;
    no_requests.num_requests = 0;
    EXPECT_THROW(workload::validateTraceConfig(no_requests),
                 std::invalid_argument);
    workload::TraceConfig negative = ok;
    negative.num_requests = -4;
    EXPECT_THROW(workload::validateTraceConfig(negative),
                 std::invalid_argument);
    workload::TraceConfig no_rate = ok;
    no_rate.arrival_rate_per_s = 0.0;
    EXPECT_THROW(workload::validateTraceConfig(no_rate),
                 std::invalid_argument);
    workload::TraceConfig nan_rate = ok;
    nan_rate.arrival_rate_per_s =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(workload::validateTraceConfig(nan_rate),
                 std::invalid_argument);

    // Every generator goes through the same validation.
    EXPECT_THROW(workload::paperMixTrace(no_requests),
                 std::invalid_argument);
    EXPECT_THROW(workload::mixedLengthTrace(no_rate),
                 std::invalid_argument);
    workload::SharedPrefixTraceConfig pc;
    pc.base = no_rate;
    EXPECT_THROW(workload::sharedPrefixTrace(pc),
                 std::invalid_argument);
}

TEST(Trace, MultiTurnPromptsReplayTheConversationHistory)
{
    // One session, several turns: every turn's prompt must extend the
    // previous one (history + synthesized reply + fresh user message),
    // creating the growing-context shape preemption feeds on.
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = 1;
    mt.base.arrival_rate_per_s = 1.0;
    mt.base.seed = 17;
    mt.turns = 4;
    const auto trace = workload::multiTurnTrace(mt);
    ASSERT_EQ(trace.size(), 4u);
    for (size_t t = 0; t < trace.size(); ++t) {
        const auto &r = trace[t];
        EXPECT_EQ(r.id, static_cast<int64_t>(t));
        EXPECT_EQ(static_cast<int64_t>(r.prompt_tokens.size()),
                  r.prompt_len);
        EXPECT_GE(r.gen_len, mt.gen_lo);
        EXPECT_LE(r.gen_len, mt.gen_hi);
        if (t == 0)
            continue;
        const auto &prev = trace[t - 1];
        EXPECT_GT(r.arrival_seconds, prev.arrival_seconds);
        // Prompt grows by exactly the previous reply plus a bounded
        // user message...
        const int64_t growth =
            r.prompt_len - (prev.prompt_len + prev.gen_len);
        EXPECT_GE(growth, mt.followup_lo);
        EXPECT_LE(growth, mt.followup_hi);
        // ...and replays the previous prompt verbatim as its prefix.
        EXPECT_TRUE(std::equal(prev.prompt_tokens.begin(),
                               prev.prompt_tokens.end(),
                               r.prompt_tokens.begin()));
    }
}

TEST(Trace, MultiTurnSessionsInterleaveSortedWithSequentialIds)
{
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = 6;
    mt.base.arrival_rate_per_s = 0.5;
    mt.base.seed = 21;
    mt.turns = 3;
    const auto trace = workload::multiTurnTrace(mt);
    ASSERT_EQ(trace.size(), 18u);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].id, static_cast<int64_t>(i));
        if (i > 0) {
            EXPECT_GE(trace[i].arrival_seconds,
                      trace[i - 1].arrival_seconds);
        }
    }
    // Deterministic in the seed.
    const auto again = workload::multiTurnTrace(mt);
    for (size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].prompt_len, again[i].prompt_len);
        EXPECT_EQ(trace[i].arrival_seconds, again[i].arrival_seconds);
        EXPECT_EQ(trace[i].prompt_tokens, again[i].prompt_tokens);
    }
}

TEST(Trace, MultiTurnValidationRejectsDegenerateKnobs)
{
    workload::MultiTurnTraceConfig ok;
    ok.base.num_requests = 2;
    EXPECT_NO_THROW(workload::multiTurnTrace(ok));

    auto bad = ok;
    bad.turns = 0;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
    bad = ok;
    bad.first_prompt_hi = bad.first_prompt_lo - 1;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
    bad = ok;
    bad.followup_lo = 0;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
    bad = ok;
    bad.gen_lo = -1;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
    bad = ok;
    bad.think_time_mean_s = 0.0;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
    bad = ok;
    bad.vocab = 2;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
    bad = ok;
    bad.base.arrival_rate_per_s = 0.0;
    EXPECT_THROW(workload::multiTurnTrace(bad), std::invalid_argument);
}

TEST(Trace, SharedPrefixFamiliesShareTokensExactly)
{
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = 60;
    pc.base.arrival_rate_per_s = 2.0;
    pc.base.seed = 5;
    pc.num_families = 3;
    pc.prefix_len = 64;
    pc.suffix_lo = 8;
    pc.suffix_hi = 32;
    const auto t = workload::sharedPrefixTrace(pc);
    const auto t2 = workload::sharedPrefixTrace(pc);
    ASSERT_EQ(t.size(), 60u);

    // Group by the shared prefix; every request must carry exactly
    // prompt_len tokens, prefix_len of which are its family's.
    std::vector<std::vector<int32_t>> families;
    for (size_t i = 0; i < t.size(); ++i) {
        const Request &r = t[i];
        ASSERT_EQ(static_cast<int64_t>(r.prompt_tokens.size()),
                  r.prompt_len);
        EXPECT_GE(r.prompt_len, pc.prefix_len + pc.suffix_lo);
        EXPECT_LE(r.prompt_len, pc.prefix_len + pc.suffix_hi);
        // Deterministic in the seed.
        EXPECT_EQ(r.prompt_tokens, t2[i].prompt_tokens);
        EXPECT_DOUBLE_EQ(r.arrival_seconds, t2[i].arrival_seconds);
        if (i > 0) {
            EXPECT_GE(r.arrival_seconds, t[i - 1].arrival_seconds);
        }

        const std::vector<int32_t> prefix(
            r.prompt_tokens.begin(),
            r.prompt_tokens.begin() + pc.prefix_len);
        bool known = false;
        for (const auto &f : families)
            known = known || f == prefix;
        if (!known)
            families.push_back(prefix);
    }
    // All three families appear and no request invented a fourth.
    EXPECT_EQ(families.size(), 3u);
}

TEST(Trace, SharedPrefixZipfSkewsPopularityTowardRankZero)
{
    workload::SharedPrefixTraceConfig pc;
    pc.base.num_requests = 400;
    pc.base.arrival_rate_per_s = 2.0;
    pc.num_families = 8;
    pc.prefix_len = 32;
    pc.zipf_s = 1.2;
    const auto t = workload::sharedPrefixTrace(pc);

    // Count family occupancy by matching each request's prefix to the
    // rank-0 family (family streams are seed-derived, so rank 0 is
    // the first distinct prefix observed... identified by counting).
    std::map<std::vector<int32_t>, int64_t> counts;
    for (const Request &r : t) {
        const std::vector<int32_t> prefix(
            r.prompt_tokens.begin(),
            r.prompt_tokens.begin() + pc.prefix_len);
        ++counts[prefix];
    }
    EXPECT_LE(counts.size(), 8u);
    int64_t max_count = 0;
    for (const auto &kv_pair : counts)
        max_count = std::max(max_count, kv_pair.second);
    // Rank 0 carries weight 1/H(8,1.2) ~ 0.42 of the traffic; uniform
    // would be 50. Loose bound: the hottest family clearly dominates.
    EXPECT_GT(max_count, 400 / 4);

    workload::SharedPrefixTraceConfig bad = pc;
    bad.num_families = 0;
    EXPECT_THROW(workload::sharedPrefixTrace(bad),
                 std::invalid_argument);
    bad = pc;
    bad.prefix_len = 0;
    EXPECT_THROW(workload::sharedPrefixTrace(bad),
                 std::invalid_argument);
    bad = pc;
    bad.suffix_hi = bad.suffix_lo - 1;
    EXPECT_THROW(workload::sharedPrefixTrace(bad),
                 std::invalid_argument);
    bad = pc;
    bad.gen_lo = 0;
    EXPECT_THROW(workload::sharedPrefixTrace(bad),
                 std::invalid_argument);
    bad = pc;
    bad.zipf_s = -0.5;
    EXPECT_THROW(workload::sharedPrefixTrace(bad),
                 std::invalid_argument);
    bad = pc;
    bad.vocab = 2;
    EXPECT_THROW(workload::sharedPrefixTrace(bad),
                 std::invalid_argument);
}

// ------------------------------------------------------------ admission

TEST(Trace, DiurnalRateSwingsBetweenTroughAndPeak)
{
    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = 1200;
    dc.base.arrival_rate_per_s = 2.0; // mean rate over a period
    dc.base.seed = 5;
    dc.period_seconds = 400.0;
    dc.peak_to_trough = 4.0;
    const auto a = workload::diurnalTrace(dc);
    const auto b = workload::diurnalTrace(dc);
    ASSERT_EQ(a.size(), 1200u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        EXPECT_GE(a[i].prompt_len, dc.prompt_lo);
        EXPECT_LE(a[i].prompt_len, dc.prompt_hi);
        EXPECT_GE(a[i].gen_len, dc.gen_lo);
        EXPECT_LE(a[i].gen_len, dc.gen_hi);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
        }
    }
    // Count arrivals in the trough quarter (period edges) vs the peak
    // quarter (mid-period), folding every period together. With ratio
    // 4 the peak quarter must see far more traffic.
    int64_t trough_arrivals = 0, peak_arrivals = 0;
    for (const Request &r : a) {
        const double phase =
            std::fmod(r.arrival_seconds, dc.period_seconds) /
            dc.period_seconds;
        if (phase < 0.125 || phase >= 0.875)
            ++trough_arrivals;
        else if (phase >= 0.375 && phase < 0.625)
            ++peak_arrivals;
    }
    EXPECT_GT(peak_arrivals, 2 * trough_arrivals);
}

TEST(Trace, FlashCrowdConcentratesArrivalsInsideTheBurstWindow)
{
    workload::FlashCrowdTraceConfig fc;
    fc.base.num_requests = 600;
    fc.base.arrival_rate_per_s = 1.0; // baseline
    fc.base.seed = 9;
    fc.burst_start_seconds = 100.0;
    fc.burst_duration_seconds = 50.0;
    fc.burst_multiplier = 8.0;
    const auto a = workload::flashCrowdTrace(fc);
    const auto b = workload::flashCrowdTrace(fc);
    ASSERT_EQ(a.size(), 600u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
        }
    }
    // The 50 s burst window must be ~8x denser than an equally long
    // pre-burst baseline window ([50, 100)).
    int64_t in_burst = 0, before_burst = 0;
    for (const Request &r : a) {
        if (r.arrival_seconds >= 100.0 && r.arrival_seconds < 150.0)
            ++in_burst;
        else if (r.arrival_seconds >= 50.0 && r.arrival_seconds < 100.0)
            ++before_burst;
    }
    EXPECT_GT(in_burst, 4 * before_burst);
    EXPECT_GT(before_burst, 0);
}

// Satellite pin: the non-stationary generators validate their knobs
// through validateTraceConfig overloads — non-negative rates, ordered
// burst windows, sane length bounds — with clear errors.
TEST(Trace, DiurnalValidationRejectsDegenerateKnobs)
{
    workload::DiurnalTraceConfig ok;
    EXPECT_NO_THROW(workload::validateTraceConfig(ok));

    workload::DiurnalTraceConfig bad_base = ok;
    bad_base.base.arrival_rate_per_s = 0.0;
    EXPECT_THROW(workload::validateTraceConfig(bad_base),
                 std::invalid_argument);
    workload::DiurnalTraceConfig no_period = ok;
    no_period.period_seconds = 0.0;
    EXPECT_THROW(workload::validateTraceConfig(no_period),
                 std::invalid_argument);
    workload::DiurnalTraceConfig inf_period = ok;
    inf_period.period_seconds =
        std::numeric_limits<double>::infinity();
    EXPECT_THROW(workload::validateTraceConfig(inf_period),
                 std::invalid_argument);
    // Ratio below 1 would drive the trough rate negative.
    workload::DiurnalTraceConfig bad_ratio = ok;
    bad_ratio.peak_to_trough = 0.5;
    EXPECT_THROW(workload::validateTraceConfig(bad_ratio),
                 std::invalid_argument);
    workload::DiurnalTraceConfig bad_prompt = ok;
    bad_prompt.prompt_hi = bad_prompt.prompt_lo - 1;
    EXPECT_THROW(workload::validateTraceConfig(bad_prompt),
                 std::invalid_argument);
    workload::DiurnalTraceConfig bad_gen = ok;
    bad_gen.gen_lo = 0;
    EXPECT_THROW(workload::validateTraceConfig(bad_gen),
                 std::invalid_argument);
    // The generator itself goes through the same validation.
    EXPECT_THROW(workload::diurnalTrace(no_period),
                 std::invalid_argument);
}

TEST(Trace, FlashCrowdValidationRejectsDegenerateKnobs)
{
    workload::FlashCrowdTraceConfig ok;
    EXPECT_NO_THROW(workload::validateTraceConfig(ok));

    workload::FlashCrowdTraceConfig bad_base = ok;
    bad_base.base.num_requests = 0;
    EXPECT_THROW(workload::validateTraceConfig(bad_base),
                 std::invalid_argument);
    workload::FlashCrowdTraceConfig neg_start = ok;
    neg_start.burst_start_seconds = -1.0;
    EXPECT_THROW(workload::validateTraceConfig(neg_start),
                 std::invalid_argument);
    // Window ordering: a non-positive duration means start >= end.
    workload::FlashCrowdTraceConfig empty_window = ok;
    empty_window.burst_duration_seconds = 0.0;
    EXPECT_THROW(workload::validateTraceConfig(empty_window),
                 std::invalid_argument);
    workload::FlashCrowdTraceConfig nan_duration = ok;
    nan_duration.burst_duration_seconds =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(workload::validateTraceConfig(nan_duration),
                 std::invalid_argument);
    // Multiplier below 1 would make the "burst" a dip with a wrong
    // thinning envelope.
    workload::FlashCrowdTraceConfig bad_mult = ok;
    bad_mult.burst_multiplier = 0.25;
    EXPECT_THROW(workload::validateTraceConfig(bad_mult),
                 std::invalid_argument);
    workload::FlashCrowdTraceConfig bad_gen = ok;
    bad_gen.gen_hi = bad_gen.gen_lo - 1;
    EXPECT_THROW(workload::validateTraceConfig(bad_gen),
                 std::invalid_argument);
    EXPECT_THROW(workload::flashCrowdTrace(empty_window),
                 std::invalid_argument);
}

TEST(Trace, RagSpikeIsHugePromptTinyGenAndUncacheable)
{
    workload::RagSpikeTraceConfig rs;
    rs.base.num_requests = 300;
    rs.base.arrival_rate_per_s = 0.5;
    rs.base.seed = 13;
    const auto a = workload::ragSpikeTrace(rs);
    const auto b = workload::ragSpikeTrace(rs);
    ASSERT_EQ(a.size(), 300u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        if (i > 0) {
            EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
        }
        EXPECT_GE(a[i].prompt_len, rs.prompt_lo);
        EXPECT_LE(a[i].prompt_len, rs.prompt_hi);
        EXPECT_GE(a[i].gen_len, rs.gen_lo);
        EXPECT_LE(a[i].gen_len, rs.gen_hi);
        // The defining spike shape: every request's retrieved context
        // dwarfs its answer.
        EXPECT_GT(a[i].prompt_len, 16 * a[i].gen_len);
        // Unique retrieved contexts: no token ids are materialized, so
        // the prefix cache sees nothing shareable — by design.
        EXPECT_TRUE(a[i].prompt_tokens.empty());
    }
}

TEST(Trace, AgenticLoopGrowsContextAndReplaysItAsPrefix)
{
    workload::AgenticLoopTraceConfig al;
    al.base.num_requests = 6; // sessions
    al.base.arrival_rate_per_s = 0.2;
    al.base.seed = 17;
    al.steps = 5;
    const auto a = workload::agenticLoopTrace(al);
    const auto b = workload::agenticLoopTrace(al);
    ASSERT_EQ(a.size(), 30u); // sessions x steps
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
        EXPECT_EQ(a[i].prompt_tokens, b[i].prompt_tokens);
        EXPECT_EQ(a[i].id, static_cast<int64_t>(i));
        if (i > 0) {
            EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
        }
        EXPECT_EQ(a[i].prompt_len,
                  static_cast<int64_t>(a[i].prompt_tokens.size()));
        EXPECT_GE(a[i].gen_len, al.gen_lo);
        EXPECT_LE(a[i].gen_len, al.gen_hi);
    }
    // Reconstruct each session by grouping the (interleaved) requests
    // on their shortest-prefix chain: steps of one session replay the
    // previous step's whole context as a strict prefix, growing by at
    // least the tool output (plus the synthesized prior tool call).
    std::vector<std::vector<const Request *>> sessions;
    std::vector<const Request *> sorted;
    for (const Request &r : a)
        sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const Request *x, const Request *y) {
                  return x->prompt_len < y->prompt_len;
              });
    for (const Request *r : sorted) {
        bool placed = false;
        for (auto &chain : sessions) {
            const Request *tail = chain.back();
            if (tail->prompt_len < r->prompt_len &&
                std::equal(tail->prompt_tokens.begin(),
                           tail->prompt_tokens.end(),
                           r->prompt_tokens.begin())) {
                chain.push_back(r);
                placed = true;
                break;
            }
        }
        if (!placed)
            sessions.push_back({r});
    }
    ASSERT_EQ(sessions.size(), 6u);
    for (const auto &chain : sessions) {
        ASSERT_EQ(chain.size(), 5u);
        for (size_t s = 1; s < chain.size(); ++s) {
            EXPECT_LT(chain[s - 1]->arrival_seconds,
                      chain[s]->arrival_seconds);
            // Growth per step: prior tool call (prev gen_len) + tool
            // output of at least tool_output_lo.
            EXPECT_GE(chain[s]->prompt_len,
                      chain[s - 1]->prompt_len +
                          chain[s - 1]->gen_len + al.tool_output_lo);
        }
    }
}

TEST(Trace, RagSpikeValidationRejectsDegenerateKnobs)
{
    workload::RagSpikeTraceConfig ok;
    EXPECT_NO_THROW(workload::validateTraceConfig(ok));
    workload::RagSpikeTraceConfig bad_base = ok;
    bad_base.base.arrival_rate_per_s = -1.0;
    EXPECT_THROW(workload::validateTraceConfig(bad_base),
                 std::invalid_argument);
    workload::RagSpikeTraceConfig bad_prompt = ok;
    bad_prompt.prompt_lo = 0;
    EXPECT_THROW(workload::validateTraceConfig(bad_prompt),
                 std::invalid_argument);
    workload::RagSpikeTraceConfig bad_gen = ok;
    bad_gen.gen_hi = bad_gen.gen_lo - 1;
    EXPECT_THROW(workload::validateTraceConfig(bad_gen),
                 std::invalid_argument);
    EXPECT_THROW(workload::ragSpikeTrace(bad_prompt),
                 std::invalid_argument);
}

TEST(Trace, AgenticLoopValidationRejectsDegenerateKnobs)
{
    workload::AgenticLoopTraceConfig ok;
    EXPECT_NO_THROW(workload::validateTraceConfig(ok));
    workload::AgenticLoopTraceConfig bad_steps = ok;
    bad_steps.steps = 0;
    EXPECT_THROW(workload::validateTraceConfig(bad_steps),
                 std::invalid_argument);
    workload::AgenticLoopTraceConfig bad_task = ok;
    bad_task.task_prompt_hi = bad_task.task_prompt_lo - 1;
    EXPECT_THROW(workload::validateTraceConfig(bad_task),
                 std::invalid_argument);
    workload::AgenticLoopTraceConfig bad_tool = ok;
    bad_tool.tool_output_lo = 0;
    EXPECT_THROW(workload::validateTraceConfig(bad_tool),
                 std::invalid_argument);
    workload::AgenticLoopTraceConfig bad_latency = ok;
    bad_latency.tool_latency_mean_s = 0.0;
    EXPECT_THROW(workload::validateTraceConfig(bad_latency),
                 std::invalid_argument);
    workload::AgenticLoopTraceConfig nan_latency = ok;
    nan_latency.tool_latency_mean_s =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(workload::validateTraceConfig(nan_latency),
                 std::invalid_argument);
    workload::AgenticLoopTraceConfig bad_vocab = ok;
    bad_vocab.vocab = 2;
    EXPECT_THROW(workload::validateTraceConfig(bad_vocab),
                 std::invalid_argument);
    EXPECT_THROW(workload::agenticLoopTrace(bad_steps),
                 std::invalid_argument);
}

TEST(Admission, RejectsWaveOnlySystems)
{
    EXPECT_THROW(Scheduler(cloudConfig("Quest"), {}),
                 std::invalid_argument);
    EXPECT_THROW(Scheduler(cloudConfig("ShadowKV"), {}),
                 std::invalid_argument);
}

TEST(Admission, SpeContextAdmitImpliesMemoryModelHeadroom)
{
    // A default (Reserve) scheduler books every request at its final
    // length.
    const TimingConfig cfg = cloudConfig("SpeContext");
    const Scheduler sched(cfg, {});
    const sim::MemoryModel mm(cfg.system->memoryInputs(cfg, 1));
    std::vector<Request> in_flight;
    const Request cand = makeRequest(0, 0.0, 32768, 2048);
    // Grow the batch until admission denies; every admitted state must
    // satisfy the Eq. 7 offload-feasibility invariant.
    while (sched.admit(in_flight, cand).admit) {
        in_flight.push_back(cand);
        const auto r = static_cast<int64_t>(in_flight.size());
        EXPECT_TRUE(mm.fitsWithOffload(r, cand.finalLen()));
        ASSERT_LT(r, 4096) << "admission never saturated";
    }
    // The denial is the memory model's edge, not an arbitrary cap.
    const auto r = static_cast<int64_t>(in_flight.size()) + 1;
    const int64_t kvb = core::kvBytesPerTokenPerLayer(cfg.llm);
    const bool gpu_fits = mm.fitsWithOffload(r, cand.finalLen());
    const bool cpu_fits = r * cand.finalLen() * kvb * cfg.llm.layers <=
                          cfg.hw.cpu_mem_bytes;
    EXPECT_FALSE(gpu_fits && cpu_fits);
}

TEST(Admission, FullAttentionDeniesWhenKvExceedsHbm)
{
    const TimingConfig cfg = cloudConfig("FullAttn(FlashInfer)");
    const Scheduler sched(cfg, {});
    const Request cand = makeRequest(0, 0.0, 16384, 2048);
    std::vector<Request> in_flight;
    while (sched.admit(in_flight, cand).admit) {
        in_flight.push_back(cand);
        ASSERT_LT(in_flight.size(), 4096u);
    }
    // Check the denial against the exact byte arithmetic.
    const model::ModelConfig &m = cfg.llm;
    const int64_t kvb = core::kvBytesPerTokenPerLayer(m);
    const int64_t weights =
        static_cast<int64_t>(1.3 * m.parameterBytesFp16());
    const auto r = static_cast<int64_t>(in_flight.size());
    EXPECT_LE(weights + r * cand.finalLen() * kvb * m.layers,
              cfg.hw.gpu_mem_bytes);
    EXPECT_GT(weights + (r + 1) * cand.finalLen() * kvb * m.layers,
              cfg.hw.gpu_mem_bytes);
}

TEST(Admission, MemoryModelHeadroomQueriesAreConsistent)
{
    sim::MemoryModelInputs in;
    in.llm = model::deepseekDistillLlama8bGeometry();
    in.dlm = model::dlmGeometryFor(in.llm);
    in.budget = 2048;
    in.gpu_mem_bytes = sim::HardwareSpec::cloudA800().gpu_mem_bytes;
    const sim::MemoryModel mm(in);

    const int64_t s = 34816; // [32k, 2k] final length
    EXPECT_EQ(mm.mAllBytesFor(1, s), mm.mAllBytes(s));
    EXPECT_EQ(mm.mPartBytesFor(1, s, 0), mm.mPartBytes(s, 0));
    EXPECT_EQ(mm.headroomBytes(1, s),
              in.gpu_mem_bytes - mm.mAllBytes(s));

    const int64_t r_all = mm.maxConcurrentRequests(s, false);
    const int64_t r_off = mm.maxConcurrentRequests(s, true);
    EXPECT_GE(r_off, r_all); // offload can only admit more
    EXPECT_GT(r_off, 0);
    EXPECT_LE(mm.mAllBytesFor(std::max<int64_t>(r_all, 1), s),
              in.gpu_mem_bytes);
    if (r_all > 0) {
        EXPECT_GT(mm.mAllBytesFor(r_all + 1, s), in.gpu_mem_bytes);
    }
    EXPECT_TRUE(mm.fitsWithOffload(r_off, s));
    EXPECT_FALSE(mm.fitsWithOffload(r_off + 1, s));
}

// --------------------------------------------------------------- engine

TEST(PricerStepping, UniformIterationMatchesBatchedStep)
{
    TimingEngine e;
    const TimingConfig cfg = cloudConfig("FullAttn(FlashInfer)");
    const sim::CostModel cost(cfg.hw, cfg.system->backend());
    const std::vector<int64_t> kv(8, 4096);
    const double iter = e.makePricer(cfg)->decodeSeconds(kv);
    const double batched =
        cost.decodeStepBreakdown(cfg.llm, 8, 4096).total;
    EXPECT_NEAR(iter, batched, 1e-9 + 0.01 * batched);
}

TEST(PricerStepping, ValidatesInputs)
{
    TimingEngine e;
    const auto pricer = e.makePricer(cloudConfig("FullAttn(FlashInfer)"));
    EXPECT_EQ(pricer->decodeSeconds({}), 0.0);
    EXPECT_THROW(pricer->decodeSeconds({1024, 0}), std::invalid_argument);
    EXPECT_THROW(pricer->prefillSeconds(0, 0, 0), std::invalid_argument);
    EXPECT_THROW(pricer->prefillSeconds(-1, 0, 0), std::invalid_argument);
    EXPECT_THROW(pricer->prefillSeconds(1024, -1, 0),
                 std::invalid_argument);
    EXPECT_THROW(pricer->prefillSeconds(1024, 0, -1),
                 std::invalid_argument);
    EXPECT_GT(pricer->prefillSeconds(1, 0, 0), 0.0);
    // Wave-only systems have no pricer.
    EXPECT_THROW(e.makePricer(cloudConfig("Quest")), std::invalid_argument);
    EXPECT_FALSE(SystemRegistry::create("ClusterKV")
                     ->supportsContinuousBatching());
    EXPECT_TRUE(SystemRegistry::create("SpeContext")
                    ->supportsContinuousBatching());
}

TEST(PricerStepping, SpeContextBudgetCapsAttendedContext)
{
    TimingEngine e;
    const auto sparse = e.makePricer(cloudConfig("SpeContext"));
    // Far beyond the budget, iteration cost grows only with the
    // retrieval head's scoring scan, not with attended KV — so doubling
    // the context costs much less than it does under full attention.
    const double sparse_short = sparse->decodeSeconds({8192, 8192});
    const double sparse_long = sparse->decodeSeconds({65536, 65536});
    const auto fa = e.makePricer(cloudConfig("FullAttn(FlashInfer)"));
    const double full_short = fa->decodeSeconds({8192, 8192});
    const double full_long = fa->decodeSeconds({65536, 65536});
    EXPECT_LT(sparse_long / sparse_short, full_long / full_short);
}

// --------------------------------------------------------------- server

TEST(Server, AllAdmittedRequestsFinishUnderFifo)
{
    TimingEngine e;
    ServerConfig cfg;
    cfg.timing = cloudConfig("FullAttn(FlashInfer)");
    cfg.queue_policy = QueuePolicy::Fifo;
    cfg.max_batch = 16;

    workload::TraceConfig tc;
    tc.num_requests = 24;
    tc.arrival_rate_per_s = 1.0;
    tc.seed = 3;
    auto trace = workload::mixedLengthTrace(tc);

    const serving::ServeResult r =
        serving::Server(e, cfg).run(trace);
    EXPECT_EQ(r.completed(), 24);
    EXPECT_TRUE(r.rejected.empty());
    EXPECT_GT(r.iterations, 0);
    EXPECT_LE(r.peak_in_flight, cfg.max_batch);
    for (const serving::RequestRecord &rec : r.metrics.records()) {
        EXPECT_GE(rec.admit_seconds, rec.arrival_seconds);
        EXPECT_GT(rec.first_token_seconds, rec.admit_seconds);
        EXPECT_GE(rec.finish_seconds, rec.first_token_seconds);
        EXPECT_LE(rec.finish_seconds, r.makespan_seconds + 1e-9);
    }
}

TEST(Server, PeakInFlightRespectsUniformMemoryBound)
{
    // Uniform trace: the memory model's maxConcurrentRequests at the
    // common final length is an exact ceiling on in-flight batch size.
    TimingEngine e;
    ServerConfig cfg;
    cfg.timing = cloudConfig("FullAttn(FlashInfer)");
    cfg.max_batch = 1024; // memory must bind, not the table cap

    const serving::Workload w{16384, 2048};
    workload::TraceConfig tc;
    tc.num_requests = 48;
    tc.arrival_rate_per_s = 10.0; // everyone piles into the queue
    const auto trace = workload::poissonTrace(tc, {w});

    const serving::ServeResult r = serving::Server(e, cfg).run(trace);
    EXPECT_EQ(r.completed(), 48);

    const model::ModelConfig &m = cfg.timing.llm;
    const int64_t kvb = core::kvBytesPerTokenPerLayer(m);
    const int64_t weights =
        static_cast<int64_t>(1.3 * m.parameterBytesFp16());
    const int64_t cap =
        (cfg.timing.hw.gpu_mem_bytes - weights) /
        ((w.prompt_len + w.gen_len) * kvb * m.layers);
    EXPECT_GT(r.peak_in_flight, 1);
    EXPECT_LE(r.peak_in_flight, cap);
}

TEST(Server, InfeasibleRequestIsRejectedOthersComplete)
{
    TimingEngine e;
    ServerConfig cfg;
    cfg.timing = cloudConfig("SpeContext");
    std::vector<Request> trace;
    trace.push_back(makeRequest(0, 0.0, 2048, 512));
    // ~50M-token context: KV exceeds even CPU DRAM, can never be served.
    trace.push_back(makeRequest(1, 1.0, 50'000'000, 512));
    trace.push_back(makeRequest(2, 2.0, 2048, 512));

    const serving::ServeResult r = serving::Server(e, cfg).run(trace);
    EXPECT_EQ(r.completed(), 2);
    ASSERT_EQ(r.rejected.size(), 1u);
    EXPECT_EQ(r.rejected[0].id, 1);
    EXPECT_EQ(r.rejected[0].state, RequestState::Rejected);
    EXPECT_FALSE(Scheduler(cfg.timing, {}).feasibleAlone(r.rejected[0]));
}

TEST(Server, ContinuousBatchingBeatsWavesOnMixedPoissonTrace)
{
    TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 32;
    tc.arrival_rate_per_s = 0.5;
    tc.seed = 7;
    const auto trace = workload::mixedLengthTrace(tc);

    for (const char *sys : {"FullAttn(FlashInfer)", "SpeContext"}) {
        ServerConfig cfg;
        cfg.timing = cloudConfig(sys);
        cfg.max_batch = 32;
        const auto cont = serving::Server(e, cfg).run(trace);
        const auto wave = serving::serveWaves(e, cfg, trace);
        ASSERT_EQ(cont.completed(), 32);
        ASSERT_EQ(wave.completed(), 32);
        const auto cs = cont.summary();
        const auto ws = wave.summary();
        EXPECT_GE(cs.throughput_tokens_per_s,
                  ws.throughput_tokens_per_s)
            << sys;
        EXPECT_LE(cs.ttft_p95, ws.ttft_p95) << sys;
    }
}

TEST(Server, ShortestPromptFirstCompletesAndLowersShortTtft)
{
    TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 24;
    tc.arrival_rate_per_s = 2.0; // deep queue so ordering matters
    tc.seed = 5;
    const auto trace = workload::mixedLengthTrace(tc);

    auto meanShortTtft = [](const serving::ServeResult &r) {
        double acc = 0.0;
        int64_t n = 0;
        for (const auto &rec : r.metrics.records()) {
            if (rec.prompt_len <= 4096) {
                acc += rec.ttft();
                ++n;
            }
        }
        return n > 0 ? acc / static_cast<double>(n) : 0.0;
    };

    ServerConfig fifo;
    fifo.timing = cloudConfig("FullAttn(FlashInfer)");
    fifo.max_batch = 8;
    ServerConfig spf = fifo;
    spf.queue_policy = QueuePolicy::ShortestPromptFirst;

    const auto rf = serving::Server(e, fifo).run(trace);
    const auto rs = serving::Server(e, spf).run(trace);
    EXPECT_EQ(rf.completed(), 24);
    EXPECT_EQ(rs.completed(), 24); // finite trace: no permanent starvation
    EXPECT_LE(meanShortTtft(rs), meanShortTtft(rf));
}

TEST(Server, WaveSchedulingRejectsUnsupportedSystems)
{
    TimingEngine e;
    ServerConfig cfg;
    cfg.timing = cloudConfig("ClusterKV");
    EXPECT_THROW(serving::Server(e, cfg), std::invalid_argument);
    cfg.timing = cloudConfig("FullAttn(FlashInfer)");
    cfg.max_batch = 0;
    EXPECT_THROW(serving::Server(e, cfg), std::invalid_argument);
}

} // namespace
} // namespace specontext
