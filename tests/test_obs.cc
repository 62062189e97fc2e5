/**
 * @file
 * Tests of the observability layer: trace ring semantics (wrap,
 * dropped accounting, snapshot order, and a differential run of the
 * chunked ring against a plain vector model across chunk-boundary
 * capacities), the OBS_EVENT no-op guarantees,
 * counter registry semantics, sampler cadence and bounds, the JSON
 * utilities (escape / row builder / parser round-trips), exporter
 * output re-parsed through the repo's own parser, the metrics
 * sorted-series cache, and the headline invariant: a Cluster run with
 * every observability hook attached is bit-identical to the unobserved
 * run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "serving/cluster.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using obs::CounterRegistry;
using obs::EventType;
using obs::JsonValue;
using obs::Trace;
using obs::TraceEvent;
using obs::TimeseriesSampler;

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

TEST(ObsTrace, RetainsEventsInEmitOrderBelowCapacity)
{
    Trace t({8});
    t.emit(EventType::Enqueue, 1.0, 0, 100, 7, 9);
    t.emit(EventType::Admit, 2.0, 1, 100, 0, 16);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.emitted(), 2u);
    EXPECT_EQ(t.dropped(), 0u);
    const auto snap = t.snapshot();
    EXPECT_EQ(snap[0].type, EventType::Enqueue);
    EXPECT_DOUBLE_EQ(snap[0].t_seconds, 1.0);
    EXPECT_EQ(snap[0].replica, 0);
    EXPECT_EQ(snap[0].request, 100);
    EXPECT_EQ(snap[0].a, 7);
    EXPECT_EQ(snap[0].b, 9);
    EXPECT_EQ(snap[1].type, EventType::Admit);
}

TEST(ObsTrace, WrapsKeepingMostRecentAndCountsDropped)
{
    Trace t({4});
    for (int64_t i = 0; i < 7; ++i)
        t.emit(EventType::DecodeWindow, static_cast<double>(i), 0, -1, i);
    EXPECT_EQ(t.size(), 4u);
    EXPECT_EQ(t.emitted(), 7u);
    EXPECT_EQ(t.dropped(), 3u);
    const auto snap = t.snapshot();
    ASSERT_EQ(snap.size(), 4u);
    // Oldest-first linearization: events 3, 4, 5, 6 survive.
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_EQ(snap[static_cast<size_t>(i)].a, i + 3);
}

TEST(ObsTrace, ClearResetsRetainedAndLifetimeCounters)
{
    Trace t({2});
    t.emit(EventType::Complete, 1.0, 0, 1);
    t.emit(EventType::Complete, 2.0, 0, 2);
    t.emit(EventType::Complete, 3.0, 0, 3);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.emitted(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    t.emit(EventType::Complete, 4.0, 0, 4);
    EXPECT_EQ(t.snapshot()[0].request, 4);
}

/** Field-wise event equality (TraceEvent has padding bytes). */
bool
sameEvent(const TraceEvent &x, const TraceEvent &y)
{
    return x.t_seconds == y.t_seconds && x.request == y.request &&
           x.a == y.a && x.b == y.b && x.replica == y.replica &&
           x.type == y.type;
}

/** Emit `steps` seeded events into `t`, checking it after every emit
 *  against the trivial model: the retained events are the last
 *  min(emitted, capacity) of everything emitted, oldest first. */
void
emitAndCheck(Trace &t, std::vector<TraceEvent> &model, size_t steps,
             std::mt19937_64 &rng)
{
    const size_t cap = t.config().capacity;
    for (size_t s = 0; s < steps; ++s) {
        TraceEvent e;
        e.type = static_cast<EventType>(rng() % 15);
        e.t_seconds = static_cast<double>(model.size()) * 0.5;
        e.replica = static_cast<int32_t>(rng() % 9) - 1;
        e.request = static_cast<int64_t>(rng() % 1000) - 1;
        e.a = static_cast<int64_t>(model.size());
        e.b = static_cast<int64_t>(rng());
        t.emit(e.type, e.t_seconds, e.replica, e.request, e.a, e.b);
        model.push_back(e);

        const size_t n = model.size();
        const size_t kept = std::min(n, cap);
        ASSERT_EQ(t.size(), kept);
        ASSERT_EQ(t.emitted(), n);
        ASSERT_EQ(t.dropped(), n - kept);
        // One assertion per step (the first mismatching index, or
        // kept): a per-event assertion would dominate the run time.
        const TraceEvent *want = model.data() + (n - kept);
        size_t bad = 0;
        while (bad < kept && sameEvent(t.at(bad), want[bad]))
            ++bad;
        ASSERT_EQ(bad, kept) << "step " << n << ": at(" << bad << ")";
        const std::vector<TraceEvent> snap = t.snapshot();
        ASSERT_EQ(snap.size(), kept);
        bad = 0;
        while (bad < kept && sameEvent(snap[bad], want[bad]))
            ++bad;
        ASSERT_EQ(bad, kept) << "step " << n << ": snapshot[" << bad
                             << "]";
    }
}

TEST(ObsTrace, ChunkedRingMatchesVectorModelAcrossChunkBoundaries)
{
    // Capacities around the 2048-event chunk: one event, one short of
    // a chunk, exactly one, one past, and a partial fourth chunk. Each
    // runs to 4x capacity (three full wraps), then is cleared and
    // refilled past one wrap.
    for (const size_t cap :
         {size_t{1}, size_t{2047}, size_t{2048}, size_t{2049},
          size_t{3 * 2048 + 5}}) {
        SCOPED_TRACE("capacity " + std::to_string(cap));
        std::mt19937_64 rng(cap);
        Trace t({cap});
        std::vector<TraceEvent> model;
        emitAndCheck(t, model, 4 * cap, rng);
        if (HasFatalFailure())
            return;
        t.clear();
        EXPECT_EQ(t.size(), 0u);
        EXPECT_EQ(t.emitted(), 0u);
        EXPECT_EQ(t.dropped(), 0u);
        EXPECT_TRUE(t.snapshot().empty());
        model.clear();
        emitAndCheck(t, model, cap + 3, rng);
        if (HasFatalFailure())
            return;
    }
}

TEST(ObsTrace, ZeroCapacityThrows)
{
    EXPECT_THROW(Trace({0}), std::invalid_argument);
}

// Components keep a pointer to the ring, and a moved-from chunked
// ring would keep its size with no chunks: it is neither copied nor
// moved.
static_assert(!std::is_copy_constructible_v<Trace> &&
                  !std::is_move_constructible_v<Trace> &&
                  !std::is_move_assignable_v<Trace>,
              "Trace must stay where it was made");

TEST(ObsTrace, EventStaysWithinByteBudget)
{
    // The static_assert in trace.h pins this at compile time; restate
    // it here so the budget shows up in test output when it moves.
    EXPECT_LE(sizeof(TraceEvent), 40u);
}

TEST(ObsTrace, ObsEventMacroIsNullSafe)
{
    Trace *none = nullptr;
    // Must not crash and must not evaluate into anything observable.
    OBS_EVENT(none, EventType::Admit, 1.0, 0, 1, 2, 3);
    Trace t({2});
    Trace *some = &t;
    OBS_EVENT(some, EventType::Admit, 1.0, 0, 1, 2, 3);
    (void)none;
    (void)some; // unused when the macro is compiled out
#if SPECONTEXT_OBS_ENABLED
    EXPECT_EQ(t.emitted(), 1u);
#else
    EXPECT_EQ(t.emitted(), 0u);
#endif
}

// ---------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------

TEST(ObsCounters, GetOrCreateReturnsStableHandles)
{
    CounterRegistry reg;
    const auto h1 = reg.counter("replica0.completed");
    const auto h2 = reg.counter("replica0.completed");
    EXPECT_EQ(h1, h2);
    reg.add(h1, 3);
    reg.add(h2, 2);
    EXPECT_EQ(reg.value(h1), 5);
    EXPECT_EQ(reg.valueOf("replica0.completed"), 5);
    EXPECT_EQ(reg.valueOf("never.registered"), 0);
}

TEST(ObsCounters, GaugesSetToLevelAndKindMismatchThrows)
{
    CounterRegistry reg;
    const auto g = reg.gauge("replica0.queue_depth");
    reg.set(g, 7);
    reg.set(g, 4);
    EXPECT_EQ(reg.value(g), 4);
    EXPECT_TRUE(reg.isGauge(g));
    EXPECT_THROW(reg.counter("replica0.queue_depth"),
                 std::invalid_argument);
    reg.counter("replica0.admitted");
    EXPECT_THROW(reg.gauge("replica0.admitted"), std::invalid_argument);
}

TEST(ObsCounters, GaugeReadAccessorPollsByHandle)
{
    // The autoscale controller's polling path: resolve the handle
    // once, then read the live level with gauge(h) — no snapshot or
    // name lookup per tick.
    CounterRegistry reg;
    const auto g = reg.gauge("replica0.queue_depth");
    EXPECT_EQ(reg.gauge(g), 0); // never-set gauge reads 0
    reg.set(g, 11);
    EXPECT_EQ(reg.gauge(g), 11);
    reg.set(g, 3);
    EXPECT_EQ(reg.gauge(g), 3);
    // Type and range safety: counter handles and stale handles are
    // rejected rather than silently misread.
    const auto c = reg.counter("replica0.completed");
    EXPECT_THROW(reg.gauge(c), std::invalid_argument);
    EXPECT_THROW(reg.gauge(static_cast<CounterRegistry::Handle>(99)),
                 std::out_of_range);
}

TEST(ObsCounters, SnapshotIsNameSortedAndCoherent)
{
    CounterRegistry reg;
    reg.add(reg.counter("zeta"), 1);
    reg.add(reg.counter("alpha"), 2);
    reg.set(reg.gauge("mid"), 3);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "alpha");
    EXPECT_EQ(snap[1].name, "mid");
    EXPECT_EQ(snap[2].name, "zeta");
    EXPECT_EQ(snap[0].value, 2);
    EXPECT_TRUE(snap[1].is_gauge);
    EXPECT_FALSE(snap[2].is_gauge);
}

// ---------------------------------------------------------------------
// Time-series sampler
// ---------------------------------------------------------------------

TEST(ObsSampler, RecordsOneRowPerCadenceCrossing)
{
    CounterRegistry reg;
    const auto c = reg.counter("ticks");
    TimeseriesSampler s(&reg, {1.0, 100});
    s.sample(0.0); // first row at trace start
    reg.add(c, 1);
    s.sample(0.5); // no crossing yet
    reg.add(c, 1);
    s.sample(2.5); // crossings at 1.0 and 2.0
    ASSERT_EQ(s.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(s.samples()[0].t_seconds, 0.0);
    EXPECT_DOUBLE_EQ(s.samples()[1].t_seconds, 1.0);
    EXPECT_DOUBLE_EQ(s.samples()[2].t_seconds, 2.0);
    EXPECT_EQ(s.samples()[0].values[0], 0);
    // Both crossings see the value carried since the last event.
    EXPECT_EQ(s.samples()[1].values[0], 2);
    EXPECT_EQ(s.samples()[2].values[0], 2);
    // Idempotent for non-advancing time.
    s.sample(2.5);
    EXPECT_EQ(s.samples().size(), 3u);
}

TEST(ObsSampler, FlushRecordsFinalPartialRowWithoutShiftingCadence)
{
    CounterRegistry reg;
    const auto c = reg.counter("ticks");
    TimeseriesSampler s(&reg, {1.0, 100});
    s.sample(0.0);
    reg.add(c, 3);
    // A run ending mid-interval: flush stamps the partial window at
    // the end instant itself, so the last 0.4s of activity is not
    // silently absent from the CSV.
    s.flush(2.4); // crossings at 1.0, 2.0 + partial row at 2.4
    ASSERT_EQ(s.samples().size(), 4u);
    EXPECT_DOUBLE_EQ(s.samples()[2].t_seconds, 2.0);
    EXPECT_DOUBLE_EQ(s.samples()[3].t_seconds, 2.4);
    EXPECT_EQ(s.samples()[3].values[0], 3);
    // Idempotent: a second flush at the same instant records nothing.
    s.flush(2.4);
    EXPECT_EQ(s.samples().size(), 4u);
    // The cadence grid did not shift: the next regular row still cuts
    // at 3.0, not 3.4.
    EXPECT_DOUBLE_EQ(s.nextSampleSeconds(), 3.0);
    s.sample(3.1);
    ASSERT_EQ(s.samples().size(), 5u);
    EXPECT_DOUBLE_EQ(s.samples()[4].t_seconds, 3.0);
}

TEST(ObsSampler, FlushOnCadenceInstantAddsNothingExtra)
{
    CounterRegistry reg;
    reg.counter("x");
    TimeseriesSampler s(&reg, {1.0, 100});
    s.flush(2.0); // crossings at 0, 1, 2 — 2.0 is itself a crossing
    EXPECT_EQ(s.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(s.samples().back().t_seconds, 2.0);
    // A short run ending inside its first interval still yields the
    // trace-start row plus the partial row.
    TimeseriesSampler t(&reg, {10.0, 100});
    t.flush(0.25);
    ASSERT_EQ(t.samples().size(), 2u);
    EXPECT_DOUBLE_EQ(t.samples()[0].t_seconds, 0.0);
    EXPECT_DOUBLE_EQ(t.samples()[1].t_seconds, 0.25);
}

TEST(ObsSampler, FlushRespectsMaxSamplesCap)
{
    CounterRegistry reg;
    reg.counter("x");
    TimeseriesSampler s(&reg, {1.0, 3});
    s.flush(5.5); // crossings 0..5 = 6 rows + 1 partial, 3 stored
    EXPECT_EQ(s.samples().size(), 3u);
    EXPECT_EQ(s.droppedSamples(), 4u);
}

TEST(ObsSampler, CapsStoredRowsAndCountsTheRest)
{
    CounterRegistry reg;
    reg.counter("x");
    TimeseriesSampler s(&reg, {1.0, 4});
    s.sample(10.0); // crossings at 0..10 = 11 rows, 4 stored
    EXPECT_EQ(s.samples().size(), 4u);
    EXPECT_EQ(s.droppedSamples(), 7u);
}

TEST(ObsSampler, LateRegisteredSlotsGiveRaggedEarlyRows)
{
    CounterRegistry reg;
    reg.counter("first");
    TimeseriesSampler s(&reg, {1.0, 100});
    s.sample(0.0);
    reg.counter("second");
    s.sample(1.0);
    ASSERT_EQ(s.samples().size(), 2u);
    EXPECT_EQ(s.samples()[0].values.size(), 1u);
    EXPECT_EQ(s.samples()[1].values.size(), 2u);
}

TEST(ObsSampler, RejectsNullRegistryAndBadInterval)
{
    CounterRegistry reg;
    EXPECT_THROW(TimeseriesSampler(nullptr, {1.0, 10}),
                 std::invalid_argument);
    EXPECT_THROW(TimeseriesSampler(&reg, {0.0, 10}),
                 std::invalid_argument);
    EXPECT_THROW(TimeseriesSampler(&reg, {-2.0, 10}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// JSON utilities
// ---------------------------------------------------------------------

TEST(ObsJson, EscapeCoversQuotesBackslashesAndControls)
{
    EXPECT_EQ(obs::jsonEscape("plain"), "plain");
    EXPECT_EQ(obs::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(obs::jsonEscape(std::string("a\x01") + "b"),
              "a\\u0001b");
}

TEST(ObsJson, RowBuilderPreservesInsertionOrderAndFormats)
{
    obs::JsonRow row;
    row.str("mode", "opt")
        .num("load", 0.05, "%.2f")
        .num("n", static_cast<int64_t>(4))
        .boolean("ok", true)
        .raw("series", "[1, 2]");
    EXPECT_EQ(row.render(), "{\"mode\": \"opt\", \"load\": 0.05, "
                            "\"n\": 4, \"ok\": true, "
                            "\"series\": [1, 2]}");
}

TEST(ObsJson, NumberArrays)
{
    EXPECT_EQ(obs::jsonNumberArray(std::vector<int64_t>{3, 1, 4}),
              "[3, 1, 4]");
    EXPECT_EQ(obs::jsonNumberArray(std::vector<double>{0.5, 1.25},
                                   "%.2f"),
              "[0.50, 1.25]");
    EXPECT_EQ(obs::jsonNumberArray(std::vector<int64_t>{}), "[]");
}

TEST(ObsJson, ParserRoundTripsBuilderOutput)
{
    obs::JsonRow row;
    row.str("name", "a\"b\\c")
        .num("count", static_cast<int64_t>(42))
        .num("ratio", 0.125, "%.3f")
        .boolean("flag", false)
        .raw("nothing", "null")
        .raw("arr", "[1, 2.5, \"s\", true, null]");
    JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::jsonParse(row.render(), v, &err)) << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("name")->string, "a\"b\\c");
    EXPECT_DOUBLE_EQ(v.find("count")->number, 42.0);
    EXPECT_DOUBLE_EQ(v.find("ratio")->number, 0.125);
    EXPECT_FALSE(v.find("flag")->boolean);
    EXPECT_TRUE(v.find("nothing")->isNull());
    const JsonValue *arr = v.find("arr");
    ASSERT_TRUE(arr && arr->isArray());
    ASSERT_EQ(arr->array.size(), 5u);
    EXPECT_DOUBLE_EQ(arr->array[1].number, 2.5);
    EXPECT_EQ(arr->array[2].string, "s");
    EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(ObsJson, ParserRejectsMalformedDocuments)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(obs::jsonParse("{\"a\": 1,}", v, &err));
    EXPECT_FALSE(obs::jsonParse("[1, 2] trailing", v, &err));
    EXPECT_FALSE(obs::jsonParse("{\"a\" 1}", v, &err));
    EXPECT_FALSE(obs::jsonParse("nul", v, &err));
    EXPECT_FALSE(obs::jsonParse("", v, &err));
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------
// Full-stack: observed run bit-identical, exporters parse back
// ---------------------------------------------------------------------

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
    workload::MultiTurnTraceConfig mt;
    // bench_preemption's load=8.0 overload point: known to preempt
    // (BENCH_preempt.json pins nonzero preemptions at this shape).
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

struct ObservedRun
{
    obs::Trace trace{obs::TraceConfig{1 << 18}};
    obs::CounterRegistry counters;
    obs::TimeseriesSampler sampler{&counters,
                                   obs::TimeseriesSamplerConfig{
                                       10.0, 1 << 14}};
    serving::ClusterResult baseline;
    serving::ClusterResult observed;
};

/** One overloaded 2-replica Optimistic run, unobserved and observed
 *  on identical inputs (shared across the full-stack tests). */
const ObservedRun &
observedRun()
{
    static ObservedRun *run = [] {
        auto *r = new ObservedRun;
        const core::TimingEngine engine;
        const auto trace = overloadTrace();
        serving::ClusterConfig cc;
        cc.replicas = {preemptingReplica(), preemptingReplica()};
        cc.router.policy = serving::RouterPolicy::LeastKvLoad;
        r->baseline = serving::Cluster(engine, cc).run(trace);
        cc.obs = {&r->trace, &r->counters, &r->sampler};
        r->observed = serving::Cluster(engine, cc).run(trace);
        return r;
    }();
    return *run;
}

TEST(ObsFullStack, ObservedRunIsBitIdenticalToUnobserved)
{
    const ObservedRun &run = observedRun();
    const serving::ServingSummary a = run.baseline.summary();
    const serving::ServingSummary b = run.observed.summary();
    // Bitwise (==, not NEAR): instrumentation must never perturb the
    // simulation, only record it.
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.total_generated_tokens, b.total_generated_tokens);
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
    EXPECT_EQ(a.throughput_tokens_per_s, b.throughput_tokens_per_s);
    EXPECT_EQ(a.ttft_mean, b.ttft_mean);
    EXPECT_EQ(a.ttft_p99, b.ttft_p99);
    EXPECT_EQ(a.e2e_p99, b.e2e_p99);
    EXPECT_EQ(a.tpot_mean, b.tpot_mean);
    EXPECT_EQ(a.queue_delay_mean, b.queue_delay_mean);
    EXPECT_EQ(run.baseline.fleet.preempt.preemptions,
              run.observed.fleet.preempt.preemptions);
    EXPECT_EQ(run.baseline.fleet.preempt.recompute_tokens,
              run.observed.fleet.preempt.recompute_tokens);
    ASSERT_EQ(run.baseline.placements.size(),
              run.observed.placements.size());
    for (size_t i = 0; i < run.baseline.placements.size(); ++i) {
        EXPECT_EQ(run.baseline.placements[i].request_id,
                  run.observed.placements[i].request_id);
        EXPECT_EQ(run.baseline.placements[i].replica,
                  run.observed.placements[i].replica);
    }
    // The workload must actually exercise the preemption path, or the
    // trace-content assertions below are vacuous.
    EXPECT_GT(run.observed.fleet.preempt.preemptions, 0);
}

TEST(ObsFullStack, CountersAgreeWithServingResults)
{
    const ObservedRun &run = observedRun();
    const obs::CounterRegistry &c = run.counters;
    EXPECT_EQ(c.valueOf("replica0.completed_requests") +
                  c.valueOf("replica1.completed_requests"),
              run.observed.summary().completed);
    EXPECT_EQ(c.valueOf("replica0.preemptions") +
                  c.valueOf("replica1.preemptions"),
              run.observed.fleet.preempt.preemptions);
    EXPECT_EQ(c.valueOf("router.placements"),
              static_cast<int64_t>(run.observed.placements.size()));
    EXPECT_EQ(c.valueOf("router.to_replica0") +
                  c.valueOf("router.to_replica1"),
              c.valueOf("router.placements"));
    EXPECT_GT(c.valueOf("clock.rounds"), 0);
}

TEST(ObsFullStack, ChromeTraceExportParsesWithSpansOnReplicaLanes)
{
    const ObservedRun &run = observedRun();
    const std::string path = "test_obs_chrome_trace.json";
    ASSERT_TRUE(obs::writeChromeTrace(
        run.trace, path, {"replica0", "replica1"}));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::jsonParse(buf.str(), doc, &err)) << err;

    const JsonValue *events = doc.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());
#if !SPECONTEXT_OBS_ENABLED
    // OBS_EVENT compiles to ((void)0): the exporter must still write
    // a valid (empty) document, but there is no content to check.
    EXPECT_TRUE(events->array.empty());
    std::remove(path.c_str());
    return;
#endif
    ASSERT_FALSE(events->array.empty());

    std::set<std::string> instant_names;
    std::set<double> admit_lanes;
    size_t slices = 0;
    for (const JsonValue &e : events->array) {
        const JsonValue *ph = e.find("ph");
        ASSERT_TRUE(ph);
        if (ph->string == "i") {
            instant_names.insert(e.find("name")->string);
            if (e.find("name")->string == "Admit")
                admit_lanes.insert(e.find("tid")->number);
        } else if (ph->string == "X") {
            ++slices;
            EXPECT_GE(e.find("dur")->number, 0.0);
            EXPECT_TRUE(e.find("args") != nullptr);
        }
    }
    // The overload run must land the headline lifecycle markers.
    for (const char *name :
         {"Admit", "Preempt", "Restore", "Complete", "DecodeWindow"})
        EXPECT_TRUE(instant_names.count(name))
            << name << " missing from trace";
    // Admissions happen on both replica lanes (distinct tids).
    EXPECT_TRUE(admit_lanes.count(0.0));
    EXPECT_TRUE(admit_lanes.count(1.0));
    EXPECT_GT(slices, 0u);
    std::remove(path.c_str());
}

TEST(ObsFullStack, CountersJsonExportParsesNameSorted)
{
    const ObservedRun &run = observedRun();
    const std::string path = "test_obs_counters.json";
    ASSERT_TRUE(obs::writeCountersJson(run.counters, path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(obs::jsonParse(buf.str(), doc, &err)) << err;
    const JsonValue *counters = doc.find("counters");
    ASSERT_TRUE(counters && counters->isArray());
    ASSERT_EQ(counters->array.size(), run.counters.size());
    std::string prev;
    for (const JsonValue &e : counters->array) {
        const std::string name = e.find("name")->string;
        EXPECT_LE(prev, name); // name-sorted
        const std::string kind = e.find("kind")->string;
        EXPECT_TRUE(kind == "counter" || kind == "gauge");
        ASSERT_TRUE(e.find("value") != nullptr);
        prev = name;
    }
    std::remove(path.c_str());
}

TEST(ObsFullStack, TimeseriesCsvHasHeaderAndOneRowPerSample)
{
    const ObservedRun &run = observedRun();
    const std::string path = "test_obs_timeseries.csv";
    ASSERT_TRUE(obs::writeTimeseriesCsv(run.sampler, path));
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("t_seconds,", 0), 0u);
    size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, run.sampler.samples().size());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Metrics sorted-series cache (satellite of this layer)
// ---------------------------------------------------------------------

serving::Request
finishedRequest(int64_t id, double arrival, double ttft, double e2e)
{
    serving::Request r;
    r.id = id;
    r.arrival_seconds = arrival;
    r.prompt_len = 128;
    r.gen_len = 32;
    r.generated = 32;
    r.state = serving::RequestState::Finished;
    r.admit_seconds = arrival;
    r.last_admit_seconds = arrival;
    r.first_token_seconds = arrival + ttft;
    r.finish_seconds = arrival + e2e;
    return r;
}

TEST(ObsMetricsCache, RepeatedSummarizeIsStableAndInvalidatesOnRecord)
{
    serving::ServingMetrics m;
    m.record(finishedRequest(1, 0.0, 0.5, 2.0));
    m.record(finishedRequest(2, 1.0, 1.5, 4.0));
    m.record(finishedRequest(3, 2.0, 1.0, 3.0));

    const serving::ServingSummary s1 = m.summarize(10.0);
    const serving::ServingSummary s2 = m.summarize(10.0);
    EXPECT_EQ(s1.ttft_p50, s2.ttft_p50);
    EXPECT_EQ(s1.ttft_p99, s2.ttft_p99);
    EXPECT_EQ(s1.e2e_p99, s2.e2e_p99);
    EXPECT_DOUBLE_EQ(s1.ttft_p50, 1.0);

    // A new record must invalidate the cached sorted series.
    m.record(finishedRequest(4, 3.0, 9.0, 12.0));
    const serving::ServingSummary s3 = m.summarize(10.0);
    EXPECT_GT(s3.ttft_p99, s1.ttft_p99);
    EXPECT_EQ(s3.completed, 4);

    // merge() invalidates too.
    serving::ServingMetrics other;
    other.record(finishedRequest(5, 0.0, 20.0, 30.0), 1);
    m.merge(other);
    const serving::ServingSummary s4 = m.summarize(40.0);
    EXPECT_EQ(s4.completed, 5);
    EXPECT_GT(s4.ttft_p99, s3.ttft_p99);
    // Per-replica scope caches independently of the fleet scope.
    const serving::ServingSummary rep1 = m.summarizeReplica(1, 40.0);
    EXPECT_EQ(rep1.completed, 1);
    EXPECT_DOUBLE_EQ(rep1.ttft_mean, 20.0);
}

} // namespace
} // namespace specontext
