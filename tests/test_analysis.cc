/**
 * @file
 * Tests of the analysis engine over the obs feed: per-request phase
 * attribution (the bitwise accounting identity on a preemption-heavy
 * run), blame tables (differential against a sort-per-bucket oracle,
 * bitwise, on the run and on synthetic ties), ring-wrap truncation flagging (tiny ring, never
 * silently dropped, wrap marker in the Chrome trace), regime
 * classification (priority ladder pinned on hand-built signals,
 * determinism across identical runs, CSV export), the purity
 * contract: analyzing a run leaves the simulation bit-identical, and
 * differential checks of analyzeTrace / classifyRegimes against the
 * plain reference versions in analysis_oracle.h, bitwise.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis_oracle.h"
#include "autoscale/controller.h"
#include "autoscale/policy.h"
#include "obs/analysis.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/regime.h"
#include "serving/cluster.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using obs::BlameMetric;
using obs::BlameRow;
using obs::BlameTable;
using obs::kPhaseCount;
using obs::kRegimeCount;
using obs::Phase;
using obs::PhaseBreakdown;
using obs::Regime;
using obs::RegimeConfig;
using obs::RegimeSignals;
using obs::RegimeTimeline;
using obs::RequestTimeline;
using obs::TraceAnalysis;

serving::ReplicaConfig
preemptingReplica()
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

std::vector<serving::Request>
overloadTrace()
{
    // bench_preemption's load=8.0 overload point (the test_obs
    // workload): known to preempt, so the preempt-stall and
    // restore-recompute phases are exercised, not vacuous.
    workload::MultiTurnTraceConfig mt;
    mt.base.num_requests = 12;
    mt.base.arrival_rate_per_s = 0.8;
    mt.base.seed = 11;
    mt.turns = 4;
    mt.first_prompt_lo = 2048;
    mt.first_prompt_hi = 8192;
    mt.followup_lo = 64;
    mt.followup_hi = 256;
    mt.gen_lo = 4096;
    mt.gen_hi = 16384;
    mt.think_time_mean_s = 15.0;
    return workload::multiTurnTrace(mt);
}

struct AnalyzedRun
{
    obs::Trace trace{obs::TraceConfig{1 << 18}};
    obs::CounterRegistry counters;
    obs::TimeseriesSampler sampler{&counters,
                                   obs::TimeseriesSamplerConfig{
                                       10.0, 1 << 14}};
    serving::ClusterResult baseline;
    serving::ClusterResult observed;
    TraceAnalysis analysis;
};

/** One overloaded 2-replica Optimistic run, unobserved and observed
 *  on identical inputs, analyzed once (shared across tests). */
const AnalyzedRun &
analyzedRun()
{
    static AnalyzedRun *run = [] {
        auto *r = new AnalyzedRun;
        const core::TimingEngine engine;
        const auto trace = overloadTrace();
        serving::ClusterConfig cc;
        cc.replicas = {preemptingReplica(), preemptingReplica()};
        cc.router.policy = serving::RouterPolicy::LeastKvLoad;
        r->baseline = serving::Cluster(engine, cc).run(trace);
        cc.obs = {&r->trace, &r->counters, &r->sampler};
        r->observed = serving::Cluster(engine, cc).run(trace);
        r->analysis = obs::analyzeTrace(r->trace);
        return r;
    }();
    return *run;
}

/** True when OBS_EVENT compiles to a no-op (nothing to analyze). */
bool
obsDisabled()
{
    return analyzedRun().trace.emitted() == 0;
}

// ---------------------------------------------------------------------
// Accounting identity
// ---------------------------------------------------------------------

TEST(AnalysisIdentity, ClosesBitwiseOnPreemptionHeavyRun)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    // The run must actually preempt, or the stall/recompute phases of
    // the identity go untested.
    ASSERT_GT(run.observed.fleet.preempt.preemptions, 0);
    ASSERT_FALSE(run.analysis.complete.empty());
    EXPECT_EQ(run.analysis.dropped_events, 0u);
    EXPECT_FALSE(run.analysis.truncated());

    bool saw_preempted_timeline = false;
    for (const RequestTimeline &tl : run.analysis.complete) {
        // Bitwise (EXPECT_EQ on doubles, not NEAR): the decode phase
        // is the exact residual under the fixed fold, so the identity
        // holds to the last ulp or the timeline is not complete.
        EXPECT_EQ(tl.phases.phaseSum(), tl.e2eSeconds())
            << "request " << tl.request;
        EXPECT_EQ(tl.ttft_phases.phaseSum(), tl.ttftSeconds())
            << "request " << tl.request;
        if (tl.preemptions > 0) {
            saw_preempted_timeline = true;
            EXPECT_GT(tl.phases[Phase::PreemptStall], 0.0)
                << "request " << tl.request;
        }
    }
    EXPECT_TRUE(saw_preempted_timeline);
}

TEST(AnalysisIdentity, TimelineFieldsAreOrderedAndConsistent)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    int64_t total_preemptions = 0;
    for (const RequestTimeline &tl : run.analysis.complete) {
        EXPECT_TRUE(tl.complete);
        EXPECT_TRUE(tl.incomplete_reason.empty());
        EXPECT_LE(tl.arrival_seconds, tl.enqueue_seconds);
        EXPECT_LE(tl.enqueue_seconds, tl.admit_seconds);
        EXPECT_LT(tl.admit_seconds, tl.first_token_seconds);
        EXPECT_LE(tl.first_token_seconds, tl.finish_seconds);
        EXPECT_GT(tl.prompt_len, 0);
        EXPECT_GT(tl.gen_len, 0);
        EXPECT_LE(tl.first_hit_tokens, tl.prefix_hit_tokens);
        // Every phase but the decode residual is a direct interval
        // measurement and can never be negative.
        for (size_t p = 0; p + 1 < kPhaseCount; ++p)
            EXPECT_GE(tl.phases.seconds[p], 0.0)
                << "request " << tl.request << " phase " << p;
        total_preemptions += tl.preemptions;
    }
    // Complete timelines account for every preemption the fleet saw
    // (nothing wrapped in this run).
    EXPECT_EQ(total_preemptions,
              run.observed.fleet.preempt.preemptions);
    // And every completed request got a timeline.
    EXPECT_EQ(static_cast<int64_t>(run.analysis.complete.size()),
              run.observed.summary().completed);
}

TEST(AnalysisIdentity, AnalyzedRunIsBitIdenticalToUnobserved)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    const serving::ServingSummary a = run.baseline.summary();
    const serving::ServingSummary b = run.observed.summary();
    // analyzeTrace already ran over the observed ring by the time
    // this compares: attaching + analyzing must not have perturbed
    // one bit of the serving outcome.
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
    EXPECT_EQ(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    EXPECT_EQ(a.ttft_mean, b.ttft_mean);
    EXPECT_EQ(a.ttft_p99, b.ttft_p99);
    EXPECT_EQ(a.e2e_p99, b.e2e_p99);
    EXPECT_EQ(a.tpot_mean, b.tpot_mean);
    EXPECT_EQ(run.baseline.fleet.preempt.preemptions,
              run.observed.fleet.preempt.preemptions);
}

// ---------------------------------------------------------------------
// Blame tables
// ---------------------------------------------------------------------

TEST(AnalysisBlame, AllBucketFirstSharesSumToOneBucketsPartition)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    for (const BlameMetric metric :
         {BlameMetric::E2E, BlameMetric::TTFT}) {
        const BlameTable table =
            obs::blameTable(run.analysis.complete, metric);
        ASSERT_FALSE(table.rows.empty());
        EXPECT_EQ(table.metric, metric);
        EXPECT_EQ(table.rows[0].bucket, "all");
        EXPECT_EQ(table.rows[0].count, run.analysis.complete.size());

        size_t preempt_total = 0;
        size_t prefix_total = 0;
        for (const BlameRow &row : table.rows) {
            EXPECT_GT(row.count, 0u) << row.bucket;
            EXPECT_LE(row.p50_seconds, row.p99_seconds) << row.bucket;
            double share_sum = 0.0;
            for (size_t p = 0; p < kPhaseCount; ++p)
                share_sum += row.mean_share[p];
            EXPECT_NEAR(share_sum, 1.0, 1e-9) << row.bucket;
            if (row.bucket.rfind("preempt=", 0) == 0 ||
                row.bucket.rfind("preempt>", 0) == 0)
                preempt_total += row.count;
            if (row.bucket.rfind("prefix=", 0) == 0)
                prefix_total += row.count;
        }
        // The preempt= and prefix= bucket families each partition the
        // complete set.
        EXPECT_EQ(preempt_total, run.analysis.complete.size());
        EXPECT_EQ(prefix_total, run.analysis.complete.size());
    }
}

TEST(AnalysisBlame, PercentileIsNearestRank)
{
    EXPECT_EQ(obs::percentileSeconds({}, 99.0), 0.0);
    EXPECT_EQ(obs::percentileSeconds({5.0}, 50.0), 5.0);
    // Nearest-rank over {1,2,3,4}: rank = ceil(p/100 * 4).
    EXPECT_EQ(obs::percentileSeconds({4.0, 2.0, 1.0, 3.0}, 50.0), 2.0);
    EXPECT_EQ(obs::percentileSeconds({4.0, 2.0, 1.0, 3.0}, 75.0), 3.0);
    EXPECT_EQ(obs::percentileSeconds({4.0, 2.0, 1.0, 3.0}, 99.0), 4.0);
    EXPECT_EQ(obs::percentileSeconds({4.0, 2.0, 1.0, 3.0}, 0.0), 1.0);
}

TEST(AnalysisBlame, PhaseShareSignatureIsPhaseCountWide)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    const std::vector<double> sig = obs::phaseShareSignature(
        run.analysis.complete, BlameMetric::E2E);
    ASSERT_EQ(sig.size(), kPhaseCount);
    double sum = 0.0;
    for (const double s : sig) {
        EXPECT_GE(s, 0.0);
        sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_EQ(obs::phaseShareSignature({}, BlameMetric::E2E).size(),
              kPhaseCount);
}

/**
 * Reference blame table: one filtered copy and one sort per bucket,
 * then nearest-rank picks and share sums over each bucket's own
 * sorted order. blameTable() sorts once and must give bitwise the
 * same rows.
 */
BlameRow
oracleRow(const std::string &bucket,
          std::vector<const RequestTimeline *> members, BlameMetric m)
{
    auto metricOf = [m](const RequestTimeline &tl) {
        return m == BlameMetric::E2E ? tl.e2eSeconds() : tl.ttftSeconds();
    };
    auto breakdownOf = [m](const RequestTimeline &tl)
        -> const PhaseBreakdown & {
        return m == BlameMetric::E2E ? tl.phases : tl.ttft_phases;
    };
    BlameRow row;
    row.bucket = bucket;
    row.count = members.size();
    if (members.empty())
        return row;
    std::sort(members.begin(), members.end(),
              [&](const RequestTimeline *a, const RequestTimeline *b) {
                  const double ma = metricOf(*a);
                  const double mb = metricOf(*b);
                  if (ma != mb)
                      return ma < mb;
                  return a->request < b->request;
              });
    auto atPct = [&](double pct) -> const RequestTimeline & {
        const double rank = std::ceil(
            pct / 100.0 * static_cast<double>(members.size()));
        const size_t idx = static_cast<size_t>(std::max(
            1.0, std::min(rank, static_cast<double>(members.size()))));
        return *members[idx - 1];
    };
    const RequestTimeline &p50 = atPct(50.0);
    const RequestTimeline &p99 = atPct(99.0);
    row.p50_seconds = metricOf(p50);
    row.p99_seconds = metricOf(p99);
    row.dominant_p50 = breakdownOf(p50).dominant();
    row.dominant_p99 = breakdownOf(p99).dominant();
    for (const RequestTimeline *tl : members) {
        const double total = metricOf(*tl);
        if (!(total > 0.0))
            continue;
        const PhaseBreakdown &p = breakdownOf(*tl);
        for (size_t i = 0; i < kPhaseCount; ++i)
            row.mean_share[i] += p.seconds[i] / total;
    }
    for (size_t i = 0; i < kPhaseCount; ++i)
        row.mean_share[i] /= static_cast<double>(members.size());
    return row;
}

BlameTable
oracleBlameTable(const std::vector<RequestTimeline> &timelines,
                 BlameMetric metric)
{
    BlameTable table;
    table.metric = metric;
    std::vector<const RequestTimeline *> all;
    for (const RequestTimeline &tl : timelines)
        all.push_back(&tl);
    table.rows.push_back(oracleRow("all", all, metric));
    const std::pair<const char *,
                    std::function<bool(const RequestTimeline &)>>
        buckets[] = {
            {"preempt=0", [](auto &t) { return t.preemptions == 0; }},
            {"preempt=1", [](auto &t) { return t.preemptions == 1; }},
            {"preempt>=2", [](auto &t) { return t.preemptions >= 2; }},
            {"prefix=none",
             [](auto &t) { return t.first_hit_tokens == 0; }},
            {"prefix=low",
             [](auto &t) {
                 return t.first_hit_tokens > 0 &&
                        t.first_hit_tokens * 2 < t.prompt_len;
             }},
            {"prefix=high",
             [](auto &t) {
                 return t.first_hit_tokens > 0 &&
                        t.first_hit_tokens * 2 >= t.prompt_len;
             }},
        };
    for (const auto &[name, match] : buckets) {
        std::vector<const RequestTimeline *> members;
        for (const RequestTimeline &tl : timelines)
            if (match(tl))
                members.push_back(&tl);
        if (!members.empty())
            table.rows.push_back(oracleRow(name, std::move(members), metric));
    }
    return table;
}

/** blameTable() equals the oracle bitwise, row by row, for both
 *  metrics. */
void
expectBlameMatchesOracle(const std::vector<RequestTimeline> &timelines)
{
    for (const BlameMetric metric :
         {BlameMetric::E2E, BlameMetric::TTFT}) {
        SCOPED_TRACE(obs::blameMetricName(metric));
        const BlameTable got = obs::blameTable(timelines, metric);
        const BlameTable want = oracleBlameTable(timelines, metric);
        EXPECT_EQ(got.metric, want.metric);
        ASSERT_EQ(got.rows.size(), want.rows.size());
        for (size_t r = 0; r < want.rows.size(); ++r) {
            const BlameRow &g = got.rows[r];
            const BlameRow &w = want.rows[r];
            SCOPED_TRACE(w.bucket);
            EXPECT_EQ(g.bucket, w.bucket);
            EXPECT_EQ(g.count, w.count);
            EXPECT_EQ(std::memcmp(&g.p50_seconds, &w.p50_seconds,
                                  sizeof(double)),
                      0);
            EXPECT_EQ(std::memcmp(&g.p99_seconds, &w.p99_seconds,
                                  sizeof(double)),
                      0);
            EXPECT_EQ(g.dominant_p50, w.dominant_p50);
            EXPECT_EQ(g.dominant_p99, w.dominant_p99);
            EXPECT_EQ(std::memcmp(g.mean_share, w.mean_share,
                                  sizeof(w.mean_share)),
                      0);
        }
    }
}

TEST(AnalysisBlame, OneSortTableEqualsPerBucketSortsOnPreemptingRun)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    ASSERT_FALSE(run.analysis.complete.empty());
    expectBlameMatchesOracle(run.analysis.complete);
}

TEST(AnalysisBlame, OneSortTableEqualsPerBucketSortsOnSyntheticTies)
{
    // Hand-made timelines filling all seven buckets, with many metric
    // ties (broken by request id, listed out of id order) and a few
    // zero-length ones (skipped by the share sums).
    std::mt19937 rng(5);
    std::vector<RequestTimeline> timelines;
    for (int64_t i = 0; i < 400; ++i) {
        RequestTimeline tl;
        tl.request = (i * 7919) % 400; // a permutation of 0..399
        tl.complete = true;
        tl.arrival_seconds = 0.25 * static_cast<double>(rng() % 4);
        tl.finish_seconds = tl.arrival_seconds +
                            (rng() % 10 == 0 ? 0.0
                                             : 0.5 * double(rng() % 6));
        tl.first_token_seconds =
            tl.arrival_seconds + 0.125 * static_cast<double>(rng() % 3);
        tl.prompt_len = 64 + static_cast<int64_t>(rng() % 64);
        tl.preemptions = static_cast<int64_t>(rng() % 4);
        switch (rng() % 3) {
        case 0:
            tl.first_hit_tokens = 0;
            break;
        case 1: // low: under half the prompt
            tl.first_hit_tokens = 1 + int64_t(rng() % (tl.prompt_len / 2));
            break;
        default: // high: half or more
            tl.first_hit_tokens =
                tl.prompt_len / 2 +
                int64_t(rng() % (tl.prompt_len / 2 + 1));
            break;
        }
        for (size_t p = 0; p < kPhaseCount; ++p) {
            tl.phases.seconds[p] = 0.001 * double(rng() % 1000);
            tl.ttft_phases.seconds[p] = 0.001 * double(rng() % 1000);
        }
        timelines.push_back(tl);
    }
    for (const BlameMetric metric :
         {BlameMetric::E2E, BlameMetric::TTFT}) {
        EXPECT_EQ(obs::blameTable(timelines, metric).rows.size(), 7u);
    }
    expectBlameMatchesOracle(timelines);
    expectBlameMatchesOracle({});
    expectBlameMatchesOracle({timelines.front()});
}

// ---------------------------------------------------------------------
// Ring-wrap truncation
// ---------------------------------------------------------------------

TEST(AnalysisTruncation, TinyRingFlagsIncompleteNeverSilentlyTrims)
{
    obs::Trace ring({256});
    obs::CounterRegistry counters;
    const core::TimingEngine engine;
    serving::ClusterConfig cc;
    cc.replicas = {preemptingReplica(), preemptingReplica()};
    cc.router.policy = serving::RouterPolicy::LeastKvLoad;
    cc.obs = {&ring, &counters, nullptr};
    const serving::ClusterResult result =
        serving::Cluster(engine, cc).run(overloadTrace());
    if (ring.emitted() == 0)
        GTEST_SKIP() << "observability compiled out";
    ASSERT_GT(ring.dropped(), 0u);

    const TraceAnalysis analysis = obs::analyzeTrace(ring);
    EXPECT_TRUE(analysis.truncated());
    EXPECT_EQ(analysis.dropped_events, ring.dropped());
    // The wrapped lifecycles surface as incomplete with a reason —
    // they must not be silently dropped nor rendered as complete.
    EXPECT_FALSE(analysis.incomplete.empty());
    for (const RequestTimeline &tl : analysis.incomplete) {
        EXPECT_FALSE(tl.complete);
        EXPECT_FALSE(tl.incomplete_reason.empty())
            << "request " << tl.request;
    }
    // Fewer complete timelines than completed requests: the ring only
    // retained a suffix of the run.
    EXPECT_LT(static_cast<int64_t>(analysis.complete.size()),
              result.summary().completed);
    // Whatever did survive whole still closes the identity bitwise.
    for (const RequestTimeline &tl : analysis.complete) {
        EXPECT_EQ(tl.phases.phaseSum(), tl.e2eSeconds());
        EXPECT_EQ(tl.ttft_phases.phaseSum(), tl.ttftSeconds());
    }

    // The Chrome trace of a wrapped ring carries the explicit marker.
    const std::string path = "test_analysis_wrapped_trace.json";
    ASSERT_TRUE(obs::writeChromeTrace(ring, path, {"r0", "r1"}));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    obs::JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::jsonParse(buf.str(), doc, &err)) << err;
    bool saw_marker = false;
    for (const obs::JsonValue &e : doc.find("traceEvents")->array) {
        const obs::JsonValue *name = e.find("name");
        if (name && name->string.rfind("ring wrapped", 0) == 0) {
            saw_marker = true;
            const obs::JsonValue *args = e.find("args");
            ASSERT_TRUE(args);
            const obs::JsonValue *lost = args->find("events_lost");
            ASSERT_TRUE(lost);
            EXPECT_EQ(lost->number,
                      static_cast<double>(ring.dropped()));
        }
    }
    EXPECT_TRUE(saw_marker);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Differential: analyzeTrace / classifyRegimes vs the reference versions
// ---------------------------------------------------------------------

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectSameTimeline(const RequestTimeline &g, const RequestTimeline &w)
{
    SCOPED_TRACE("request " + std::to_string(w.request));
    EXPECT_EQ(g.request, w.request);
    EXPECT_EQ(g.replica, w.replica);
    EXPECT_EQ(g.complete, w.complete);
    EXPECT_EQ(g.incomplete_reason, w.incomplete_reason);
    EXPECT_TRUE(sameBits(g.arrival_seconds, w.arrival_seconds));
    EXPECT_TRUE(sameBits(g.enqueue_seconds, w.enqueue_seconds));
    EXPECT_TRUE(sameBits(g.admit_seconds, w.admit_seconds));
    EXPECT_TRUE(sameBits(g.first_token_seconds, w.first_token_seconds));
    EXPECT_TRUE(sameBits(g.finish_seconds, w.finish_seconds));
    EXPECT_EQ(g.prompt_len, w.prompt_len);
    EXPECT_EQ(g.gen_len, w.gen_len);
    EXPECT_EQ(g.preemptions, w.preemptions);
    EXPECT_EQ(g.prefix_hit_tokens, w.prefix_hit_tokens);
    EXPECT_EQ(g.first_hit_tokens, w.first_hit_tokens);
    EXPECT_EQ(std::memcmp(g.phases.seconds, w.phases.seconds,
                          sizeof w.phases.seconds),
              0);
    EXPECT_EQ(std::memcmp(g.ttft_phases.seconds, w.ttft_phases.seconds,
                          sizeof w.ttft_phases.seconds),
              0);
}

/** analyzeTrace() equals the reference replay on `ring`: every field
 *  of every timeline, list order, rejected and dropped counts. */
void
expectAnalysisMatchesOracle(const obs::Trace &ring)
{
    const TraceAnalysis got = obs::analyzeTrace(ring);
    const TraceAnalysis want = oracle::analyzeTrace(ring);
    EXPECT_EQ(got.rejected, want.rejected);
    EXPECT_EQ(got.dropped_events, want.dropped_events);
    ASSERT_EQ(got.complete.size(), want.complete.size());
    ASSERT_EQ(got.incomplete.size(), want.incomplete.size());
    for (size_t i = 0; i < want.complete.size(); ++i)
        expectSameTimeline(got.complete[i], want.complete[i]);
    for (size_t i = 0; i < want.incomplete.size(); ++i)
        expectSameTimeline(got.incomplete[i], want.incomplete[i]);
}

/** classifyRegimes() equals the two-sum reference, bitwise. */
void
expectRegimesMatchOracle(const obs::TimeseriesSampler &sampler)
{
    const RegimeTimeline got = obs::classifyRegimes(sampler);
    const RegimeTimeline want = oracle::classifyRegimes(sampler);
    ASSERT_EQ(got.windows.size(), want.windows.size());
    for (size_t i = 0; i < want.windows.size(); ++i) {
        const obs::RegimeWindow &g = got.windows[i];
        const obs::RegimeWindow &w = want.windows[i];
        SCOPED_TRACE("window " + std::to_string(i));
        EXPECT_TRUE(sameBits(g.t_start_seconds, w.t_start_seconds));
        EXPECT_TRUE(sameBits(g.t_end_seconds, w.t_end_seconds));
        EXPECT_EQ(g.regime, w.regime);
        EXPECT_EQ(g.signals.preemptions, w.signals.preemptions);
        EXPECT_EQ(g.signals.prefill_tokens, w.signals.prefill_tokens);
        EXPECT_EQ(g.signals.generated_tokens, w.signals.generated_tokens);
        EXPECT_EQ(g.signals.prefix_hit_tokens,
                  w.signals.prefix_hit_tokens);
        EXPECT_EQ(g.signals.queue_depth, w.signals.queue_depth);
        EXPECT_EQ(g.signals.in_flight, w.signals.in_flight);
        EXPECT_EQ(g.signals.warming_replicas, w.signals.warming_replicas);
    }
    EXPECT_EQ(std::memcmp(got.occupancy, want.occupancy,
                          sizeof want.occupancy),
              0);
    EXPECT_TRUE(sameBits(got.total_seconds, want.total_seconds));
}

TEST(AnalysisOracle, PreemptionHeavyRunMatchesReference)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    expectAnalysisMatchesOracle(run.trace);
    expectRegimesMatchOracle(run.sampler);
}

TEST(AnalysisOracle, WrappedTinyRingMatchesReference)
{
    obs::Trace ring({256});
    obs::CounterRegistry counters;
    const core::TimingEngine engine;
    serving::ClusterConfig cc;
    cc.replicas = {preemptingReplica(), preemptingReplica()};
    cc.router.policy = serving::RouterPolicy::LeastKvLoad;
    cc.obs = {&ring, &counters, nullptr};
    serving::Cluster(engine, cc).run(overloadTrace());
    if (ring.emitted() == 0)
        GTEST_SKIP() << "observability compiled out";
    ASSERT_GT(ring.dropped(), 0u);
    const TraceAnalysis analysis = obs::analyzeTrace(ring);
    ASSERT_FALSE(analysis.incomplete.empty());
    expectAnalysisMatchesOracle(ring);
}

TEST(AnalysisOracle, AutoscaledSpeContextFleetMatchesReference)
{
    // An observed elastic SpeContext fleet that grows under a diurnal
    // peak and drains back: retired slots, ragged sampler rows and a
    // warming-replica column, all recorded through one run.
    obs::Trace ring({1 << 20});
    obs::CounterRegistry counters;
    obs::TimeseriesSampler sampler(
        &counters, obs::TimeseriesSamplerConfig{5.0, 1 << 14});
    autoscale::ThresholdPolicy policy({/*consecutive_low_ticks=*/3, 1});
    autoscale::ControllerConfig ctl;
    ctl.slo.ttft_p99_target_seconds = 25.0;
    ctl.slo.queue_depth_high = 4.0;
    ctl.slo.queue_depth_low = 0.5;
    ctl.policy = &policy;
    ctl.counters = &counters;
    ctl.sampler = &sampler;
    autoscale::Controller controller(ctl);

    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = 2048;
    rc.timing.system = core::SystemRegistry::create("SpeContext", opts);
    rc.max_batch = 8;
    serving::ClusterConfig cc;
    cc.replicas = {rc};
    cc.obs = {&ring, &counters, &sampler};
    cc.elastic.controller = &controller;
    cc.elastic.min_replicas = 1;
    cc.elastic.max_replicas = 6;
    cc.elastic.control_period_seconds = 5.0;
    cc.elastic.provision_seconds = 15.0;

    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = 1500;
    dc.base.arrival_rate_per_s = 2.0;
    dc.base.seed = 3;
    dc.period_seconds = 300.0;
    const core::TimingEngine engine;
    const serving::ClusterResult result =
        serving::Cluster(engine, cc).run(workload::diurnalTrace(dc));
    if (ring.emitted() == 0)
        GTEST_SKIP() << "observability compiled out";
    size_t downs = 0;
    for (const serving::ScaleEvent &e : result.scale_events)
        downs += e.action == serving::ScaleAction::Retire ||
                 e.action == serving::ScaleAction::CancelWarming;
    ASSERT_GT(downs, 0u) << "the fleet must shrink as well as grow";
    EXPECT_EQ(ring.dropped(), 0u);
    expectAnalysisMatchesOracle(ring);
    expectRegimesMatchOracle(sampler);
}

TEST(AnalysisOracle, HandBuiltRingWithOddIdsMatchesReference)
{
    // Sparse, duplicate and very large request ids (ids that share
    // their low bits, and the int64 extremes), a Reject, orphans
    // (lifecycles whose head is missing), an unfinished request, a
    // preempted-and-restored one and decode windows on three replicas
    // with a negative one among them.
    using obs::EventType;
    obs::Trace ring({4096});
    const int64_t big = std::numeric_limits<int64_t>::max();
    const int64_t ids[] = {0,       7,         1 << 20, 2 << 20,
                           3 << 20, int64_t{1} << 40, big - 1, big,
                           5,       4096};
    double t = 0.0;
    auto emit = [&](EventType type, int32_t replica, int64_t id,
                    int64_t a = 0, int64_t b = 0) {
        t += 0.125;
        ring.emit(type, t, replica, id, a, b);
    };
    int32_t replica = 0;
    for (const int64_t id : ids) {
        replica = replica == 2 ? -1 : replica + 1;
        emit(EventType::RouterPlace, replica, id, 512);
        emit(EventType::Enqueue, replica, id, 512, 64);
        emit(EventType::Admit, replica, id, id % 3 == 0 ? 128 : 0, 512);
        emit(EventType::PrefillStart, replica, id, 512, 1);
        emit(EventType::PrefillEnd, replica, id, 512, 2);
        emit(EventType::DecodeWindow, replica, -1, 2, 4);
    }
    // Preempt and restore one, then re-prefill it.
    emit(EventType::Preempt, 1, 7, 10, 1);
    emit(EventType::Restore, 1, 7, 10, 32);
    emit(EventType::PrefillStart, 1, 7, 522, 1);
    emit(EventType::PrefillEnd, 1, 7, 522, 2);
    emit(EventType::DecodeWindow, 1, -1, 2, 8);
    // A duplicate lifecycle for an id already seen, and a rejection.
    emit(EventType::Enqueue, 0, 5, 256, 32);
    emit(EventType::Reject, 0, 4096, 512, 64);
    // Orphans: mid-lifecycle events for ids never enqueued.
    emit(EventType::Admit, 2, 99, 0, 512);
    emit(EventType::Complete, 2, 98, 64, 0);
    // Most requests complete; id 3 << 20 stays in flight.
    for (const int64_t id : ids) {
        if (id == (3 << 20) || id == 4096)
            continue;
        emit(EventType::Complete, 0, id, 64, id == 7 ? 1 : 0);
    }
    const TraceAnalysis analysis = obs::analyzeTrace(ring);
    EXPECT_EQ(analysis.rejected, 1);
    EXPECT_FALSE(analysis.complete.empty());
    EXPECT_FALSE(analysis.incomplete.empty());
    expectAnalysisMatchesOracle(ring);

    // The same events through a ring that wraps: orphans everywhere.
    obs::Trace small({37});
    for (size_t i = 0; i < ring.size(); ++i) {
        const obs::TraceEvent &e = ring.at(i);
        small.emit(e.type, e.t_seconds, e.replica, e.request, e.a, e.b);
    }
    ASSERT_GT(small.dropped(), 0u);
    expectAnalysisMatchesOracle(small);
}

// ---------------------------------------------------------------------
// Regime classification
// ---------------------------------------------------------------------

TEST(RegimeClassifier, PriorityLadderPinnedOnHandBuiltSignals)
{
    const RegimeConfig cfg; // defaults: 4.0 / 0.5 / 1.0
    RegimeSignals s;
    // All quiet -> idle.
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::Idle);
    // A warming replica outranks everything, even preemptions.
    s.warming_replicas = 1;
    s.preemptions = 3;
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::WarmupBound);
    // A preemption is proof of KV pressure however the window looked.
    s.warming_replicas = 0;
    s.prefix_hit_tokens = 10000;
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::KvBound);
    s.preemptions = 0;
    // Hits at >= cache_hit_share of admitted context -> cache-bound.
    s.prefill_tokens = 10000; // hits == prefill: share exactly 0.5
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::CacheBound);
    // Below the share threshold the prefill test runs next.
    s.prefix_hit_tokens = 0;
    s.generated_tokens = 1000; // 10000 > 4.0 * 1000
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::PrefillBound);
    s.generated_tokens = 2500; // 10000 == 4.0 * 2500: strict, not prefill
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::DecodeBound);
    // Backlog beyond in-flight -> scheduler-bound.
    s.queue_depth = 65;
    s.in_flight = 64;
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::SchedulerBound);
    s.queue_depth = 64; // == backlog * in_flight: strict, not scheduler
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::DecodeBound);
    // Thresholds live in the config, not the ladder.
    RegimeConfig strict = cfg;
    strict.prefill_dominance = 16.0;
    s.queue_depth = 0;
    s.generated_tokens = 1000; // 10x: prefill at 4.0, decode at 16.0
    EXPECT_EQ(obs::classifyWindow(s, cfg), Regime::PrefillBound);
    EXPECT_EQ(obs::classifyWindow(s, strict), Regime::DecodeBound);
}

TEST(RegimeClassifier, DeterministicAcrossIdenticalRuns)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const core::TimingEngine engine;
    const auto trace = overloadTrace();
    auto classify = [&] {
        obs::Trace ring({1 << 18});
        obs::CounterRegistry counters;
        obs::TimeseriesSampler sampler(
            &counters, obs::TimeseriesSamplerConfig{10.0, 1 << 14});
        serving::ClusterConfig cc;
        cc.replicas = {preemptingReplica(), preemptingReplica()};
        cc.router.policy = serving::RouterPolicy::LeastKvLoad;
        cc.obs = {&ring, &counters, &sampler};
        serving::Cluster(engine, cc).run(trace);
        return obs::classifyRegimes(sampler);
    };
    const RegimeTimeline a = classify();
    const RegimeTimeline b = classify();
    ASSERT_FALSE(a.windows.empty());
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].regime, b.windows[i].regime) << i;
        EXPECT_EQ(a.windows[i].t_start_seconds,
                  b.windows[i].t_start_seconds);
        EXPECT_EQ(a.windows[i].t_end_seconds,
                  b.windows[i].t_end_seconds);
        EXPECT_EQ(a.windows[i].signals.preemptions,
                  b.windows[i].signals.preemptions);
        EXPECT_EQ(a.windows[i].signals.prefill_tokens,
                  b.windows[i].signals.prefill_tokens);
    }
    for (size_t r = 0; r < kRegimeCount; ++r)
        EXPECT_EQ(a.occupancy[r], b.occupancy[r]) << r;
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    // The overload run must classify some windows KV-bound, and the
    // occupancy vector is a distribution.
    EXPECT_GT(a.occupancy[size_t(Regime::KvBound)], 0.0);
    double sum = 0.0;
    for (size_t r = 0; r < kRegimeCount; ++r)
        sum += a.occupancy[r];
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RegimeClassifier, FewerThanTwoRowsYieldEmptyTimeline)
{
    obs::CounterRegistry counters;
    obs::TimeseriesSampler sampler(
        &counters, obs::TimeseriesSamplerConfig{1.0, 100});
    EXPECT_TRUE(obs::classifyRegimes(sampler).windows.empty());
    sampler.sample(0.0);
    const RegimeTimeline one = obs::classifyRegimes(sampler);
    EXPECT_TRUE(one.windows.empty());
    EXPECT_EQ(one.total_seconds, 0.0);
    EXPECT_EQ(one.dominantRegime(), Regime::Idle);
}

TEST(RegimeCsv, WritesHeaderAndOneRowPerWindow)
{
    if (obsDisabled())
        GTEST_SKIP() << "observability compiled out";
    const AnalyzedRun &run = analyzedRun();
    const RegimeTimeline timeline = obs::classifyRegimes(run.sampler);
    ASSERT_FALSE(timeline.windows.empty());
    const std::string path = "test_analysis_regimes.csv";
    ASSERT_TRUE(obs::writeRegimeCsv(timeline, path));
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("t_start_seconds,t_end_seconds,regime,", 0),
              0u);
    size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, timeline.windows.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace specontext
