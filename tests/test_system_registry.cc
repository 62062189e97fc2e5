/**
 * @file
 * Tests of the pluggable SystemModel registry: name round-trips, the
 * unknown-name error path, plugin registration, capability flags, and
 * — critically — parity of the new polymorphic simulate()/stepping
 * paths with the old SystemKind enum dispatch. The golden numbers were
 * captured from the pre-registry enum implementation (PR 1 tree) with
 * "%.17g" formatting, so EXPECT_EQ pins bit-for-bit agreement. (The
 * deprecated SystemKind shim itself was deleted; the seven legacy
 * systems are addressed by their registry names.)
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "core/timing_engine.h"

namespace specontext {
namespace {

using core::SystemOptions;
using core::SystemRegistry;
using core::TimingConfig;
using core::TimingEngine;

const std::vector<const char *> kLegacyNames = {
    "FullAttn(Eager)", "FullAttn(FlashAttn)", "FullAttn(FlashInfer)",
    "Quest",           "ClusterKV",           "ShadowKV",
    "SpeContext",
};

TimingConfig
cloudShape(int64_t batch, int64_t in, int64_t out)
{
    TimingConfig c;
    c.llm = model::deepseekDistillLlama8bGeometry();
    c.hw = sim::HardwareSpec::cloudA800();
    c.batch = batch;
    c.prompt_len = in;
    c.gen_len = out;
    return c;
}

// ----------------------------------------------------------- registry

TEST(SystemRegistry, ListsAllBuiltinSystems)
{
    const auto names = SystemRegistry::names();
    EXPECT_GE(names.size(), 9u);
    for (const char *expect :
         {"FullAttn(Eager)", "FullAttn(FlashAttn)", "FullAttn(FlashInfer)",
          "Quest", "ClusterKV", "ShadowKV", "SpeContext", "H2O",
          "StreamingLLM"}) {
        EXPECT_TRUE(SystemRegistry::contains(expect)) << expect;
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SystemRegistry, UnknownNameThrowsListingKnownSystems)
{
    try {
        SystemRegistry::create("NoSuchSystem");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown system 'NoSuchSystem'"),
                  std::string::npos);
        EXPECT_NE(msg.find("SpeContext"), std::string::npos);
    }
}

TEST(SystemRegistry, NameRoundTripForEveryFactory)
{
    for (const auto &name : SystemRegistry::names()) {
        const auto sys = SystemRegistry::create(name);
        ASSERT_NE(sys, nullptr) << name;
        EXPECT_EQ(sys->name(), name);
    }
}

TEST(SystemRegistry, DuplicateRegistrationThrows)
{
    EXPECT_THROW(SystemRegistry::registerSystem(
                     "SpeContext",
                     [](const SystemOptions &) {
                         return std::shared_ptr<const core::SystemModel>();
                     }),
                 std::invalid_argument);
}

TEST(SystemRegistry, OptionsReachTheConstructedSystem)
{
    SystemOptions o;
    o.budget = 4096;
    const auto sys = SystemRegistry::create("SpeContext", o);
    EXPECT_EQ(sys->options().budget, 4096);
    const TimingConfig cfg = [&] {
        TimingConfig c = cloudShape(1, 2048, 2048);
        c.system = sys;
        return c;
    }();
    EXPECT_EQ(sys->memoryInputs(cfg, 3).budget, 4096);
    EXPECT_EQ(sys->memoryInputs(cfg, 3).requests, 3);
}

TEST(SystemRegistry, CreateRejectsOutOfRangeOptions)
{
    // Options are checked at the API boundary, before any factory
    // runs, with an error naming the field. Each case flips one field
    // of the defaults.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    struct Bad
    {
        const char *field;
        std::function<void(SystemOptions &)> set;
    };
    const std::vector<Bad> bad = {
        {"budget", [](SystemOptions &o) { o.budget = 0; }},
        {"budget", [](SystemOptions &o) { o.budget = -64; }},
        {"page_size", [](SystemOptions &o) { o.page_size = 0; }},
        {"avg_cluster_size", [](SystemOptions &o) { o.avg_cluster_size = 0; }},
        {"cluster_iterations",
         [](SystemOptions &o) { o.cluster_iterations = 0; }},
        {"recent_window", [](SystemOptions &o) { o.recent_window = -1; }},
        {"elastic_overlap", [&](SystemOptions &o) { o.elastic_overlap = nan; }},
        {"elastic_overlap", [](SystemOptions &o) { o.elastic_overlap = -0.1; }},
        {"elastic_overlap", [](SystemOptions &o) { o.elastic_overlap = 1.5; }},
        {"elastic_overlap", [&](SystemOptions &o) { o.elastic_overlap = inf; }},
        {"prefix_reload_gbps",
         [](SystemOptions &o) { o.prefix_reload_gbps = -1.0; }},
        {"prefix_reload_gbps",
         [&](SystemOptions &o) { o.prefix_reload_gbps = nan; }},
        {"prefix_reload_gbps",
         [&](SystemOptions &o) { o.prefix_reload_gbps = inf; }},
    };
    for (const std::string &name : SystemRegistry::names()) {
        for (const Bad &b : bad) {
            SystemOptions o;
            b.set(o);
            try {
                SystemRegistry::create(name, o);
                ADD_FAILURE() << name << ": bad " << b.field << " accepted";
            } catch (const std::invalid_argument &e) {
                EXPECT_NE(std::string(e.what()).find(b.field),
                          std::string::npos)
                    << e.what();
            }
        }
        // The defaults and every value the tree passes are accepted.
        EXPECT_NO_THROW(SystemRegistry::create(name)) << name;
        for (int64_t budget : {1, 512, 1024, 2048, 4096, 8192}) {
            SystemOptions o;
            o.budget = budget;
            EXPECT_NO_THROW(SystemRegistry::create(name, o)) << budget;
        }
        for (double overlap : {0.0, 0.3, 0.85, 0.9, 1.0}) {
            SystemOptions o;
            o.elastic_overlap = overlap;
            EXPECT_NO_THROW(SystemRegistry::create(name, o)) << overlap;
        }
        for (double gbps : {0.0, 64.0, 200.0}) {
            SystemOptions o;
            o.prefix_reload_gbps = gbps;
            EXPECT_NO_THROW(SystemRegistry::create(name, o)) << gbps;
        }
        SystemOptions edge;
        edge.recent_window = 0;
        edge.allow_full_attention_offload = true;
        edge.features = {true, false, false};
        EXPECT_NO_THROW(SystemRegistry::create(name, edge)) << name;
    }
}

// ----------------------------------------------------- legacy names

TEST(LegacySystems, AllSevenResolveThroughRegistry)
{
    for (const char *name : kLegacyNames) {
        EXPECT_TRUE(SystemRegistry::contains(name)) << name;
        EXPECT_STREQ(SystemRegistry::create(name)->name(), name);
    }
}

// ---------------------------------------------------------- capability

TEST(SystemModel, ContinuousBatchingCapabilityMatchesPaper)
{
    for (const char *cb : {"FullAttn(Eager)", "FullAttn(FlashAttn)",
                           "FullAttn(FlashInfer)", "SpeContext", "H2O",
                           "StreamingLLM"}) {
        EXPECT_TRUE(
            SystemRegistry::create(cb)->supportsContinuousBatching())
            << cb;
    }
    for (const char *wave : {"Quest", "ClusterKV", "ShadowKV"}) {
        EXPECT_FALSE(
            SystemRegistry::create(wave)->supportsContinuousBatching())
            << wave;
    }
}

TEST(SystemModel, DataflowRowsMatchFigure7)
{
    using core::DataflowKind;
    EXPECT_EQ(SystemRegistry::create("FullAttn(Eager)")->dataflow(),
              DataflowKind::PrefetchFullKV);
    EXPECT_EQ(SystemRegistry::create("Quest")->dataflow(),
              DataflowKind::FetchSparseKV);
    EXPECT_EQ(SystemRegistry::create("ShadowKV")->dataflow(),
              DataflowKind::PrefetchSparseV);
    EXPECT_EQ(SystemRegistry::create("SpeContext")->dataflow(),
              DataflowKind::SpeContextElastic);
    EXPECT_EQ(SystemRegistry::create("H2O")->dataflow(),
              DataflowKind::ResidentKV);
}

TEST(SystemModel, TokenDataflowSchedulesOnTwoStreams)
{
    TimingConfig cfg = cloudShape(1, 2048, 2048);
    cfg.hw.gpu_mem_bytes = 24LL << 30; // force SpeContext offloading
    cfg.system = SystemRegistry::create("SpeContext");
    const auto ours = cfg.system->tokenDataflow(cfg, 32768);
    EXPECT_GT(ours.copy_busy, 0.0); // elastic diffs on the copy stream

    cfg.system = SystemRegistry::create("Quest");
    const auto quest = cfg.system->tokenDataflow(cfg, 32768);
    cfg.system = SystemRegistry::create("StreamingLLM");
    const auto stream = cfg.system->tokenDataflow(cfg, 32768);
    EXPECT_DOUBLE_EQ(stream.copy_busy, 0.0); // resident KV: no copies
    // No per-layer retrieve-fetch-sync serialization either.
    EXPECT_LT(stream.token_seconds, quest.token_seconds);
}

// ---------------------------------------------------- memory footprint

TEST(SystemModel, FootprintsOrderAsExpected)
{
    // Prompt-dominated shape: ShadowKV's 8x prompt-K quantization is
    // what separates it from full residency (retained generated KV is
    // kept in full by both).
    TimingConfig cfg = cloudShape(4, 16384, 2048);
    const int64_t s = cfg.prompt_len + cfg.gen_len;

    cfg.system = SystemRegistry::create("FullAttn(FlashInfer)");
    const int64_t full = cfg.system->hbmFootprintBytes(cfg, 4, s);
    cfg.system = SystemRegistry::create("StreamingLLM");
    const int64_t evict = cfg.system->hbmFootprintBytes(cfg, 4, s);
    cfg.system = SystemRegistry::create("ShadowKV");
    const int64_t shadow = cfg.system->hbmFootprintBytes(cfg, 4, s);

    // Bounded eviction < quantized-K ShadowKV < fully resident.
    EXPECT_LT(evict, shadow);
    EXPECT_LT(shadow, full);
    EXPECT_EQ(cfg.system->dramFootprintBytes(cfg, 4, s),
              4 * s * core::kvBytesPerTokenPerLayer(cfg.llm) *
                  cfg.llm.layers);
}

// ------------------------------------------------- parity (bit-for-bit)

struct GoldenRun
{
    const char *system;
    bool oom;
    double prefill_seconds;
    double decode_seconds;
    double throughput;
    double decode_throughput;
    int64_t final_gpu_layers;
};

/** Captured from the enum-dispatch implementation (seed tree) on the
 *  cloud A800 / DeepSeek-8B config: batch 4 (batch 1 for the
 *  single-request systems), [2k, 2k], budget 2048. */
const GoldenRun kCloudGolden[] = {
    {"FullAttn(Eager)", false, 1.0879448901490267, 33.164035858623514,
     239.16865013108972, 247.01456827878403, 32},
    {"FullAttn(FlashAttn)", false, 0.69251613290690894,
     20.985806855142513, 377.88900942734324, 390.35906775214477, 32},
    {"FullAttn(FlashInfer)", false, 0.63484943914243341,
     18.757917695497788, 422.42553335088968, 436.72224886487351, 32},
    {"Quest", false, 0.17351628171972047, 19.912263818690562,
     101.96268154694009, 102.85118852622139, 32},
    {"ClusterKV", false, 0.17411619429184169, 19.912263818690562,
     101.95963626478833, 102.85118852622139, 32},
    {"ShadowKV", false, 0.71490326871371546, 39.363673526778598,
     204.39847556965557, 208.11065802654542, 32},
    {"SpeContext", false, 0.63668489525183514, 18.178711706306114,
     435.38811184674614, 450.63699410328576, 32},
};

/** Same capture on the edge 4060 (4 GB) / Reasoning-1B config with
 *  full-attention offload enabled: batch 1, [2k, 8k]. */
const GoldenRun kEdgeGolden[] = {
    {"FullAttn(Eager)", false, 0.55537877083532472, 147.50401058133278,
     55.329148903315001, 55.537472965746808, 16},
    {"SpeContext", false, 0.3264532953721212, 87.7156133998933,
     93.046430047518811, 93.392723170650086, 16},
};

TEST(SystemParity, CloudSimulateMatchesLegacyEnumPathBitForBit)
{
    TimingEngine e;
    for (const GoldenRun &g : kCloudGolden) {
        const bool single = std::string(g.system) == "Quest" ||
                            std::string(g.system) == "ClusterKV";
        TimingConfig cfg = cloudShape(single ? 1 : 4, 2048, 2048);
        cfg.system = SystemRegistry::create(g.system);
        const auto r = e.simulate(cfg);
        ASSERT_EQ(r.oom, g.oom) << g.system;
        EXPECT_EQ(r.prefill_seconds, g.prefill_seconds) << g.system;
        EXPECT_EQ(r.decode_seconds, g.decode_seconds) << g.system;
        EXPECT_EQ(r.throughput, g.throughput) << g.system;
        EXPECT_EQ(r.decode_throughput, g.decode_throughput) << g.system;
        EXPECT_EQ(r.final_gpu_layers, g.final_gpu_layers) << g.system;
    }
}

TEST(SystemParity, EdgeSimulateMatchesLegacyEnumPathBitForBit)
{
    TimingEngine e;
    for (const GoldenRun &g : kEdgeGolden) {
        SystemOptions o;
        o.allow_full_attention_offload = true;
        TimingConfig cfg;
        cfg.llm = model::reasoningLlama32_1bGeometry();
        cfg.hw = sim::HardwareSpec::edge4060Capped4G();
        cfg.system = SystemRegistry::create(g.system, o);
        cfg.batch = 1;
        cfg.prompt_len = 2048;
        cfg.gen_len = 8192;
        const auto r = e.simulate(cfg);
        ASSERT_EQ(r.oom, g.oom) << g.system;
        EXPECT_EQ(r.prefill_seconds, g.prefill_seconds) << g.system;
        EXPECT_EQ(r.decode_seconds, g.decode_seconds) << g.system;
        EXPECT_EQ(r.throughput, g.throughput) << g.system;
        EXPECT_EQ(r.decode_throughput, g.decode_throughput) << g.system;
        EXPECT_EQ(r.final_gpu_layers, g.final_gpu_layers) << g.system;
    }
}

TEST(SystemParity, SteppingHooksMatchLegacyEnumPathBitForBit)
{
    // The prefill of 4096 tokens joining 3 requests / 30000 resident
    // KV tokens and one decode round over {2048, 8192, 32768},
    // captured from the enum implementation; checked through a fresh
    // pricer per query (the reference loop) and through one pricer
    // reused across queries (the serving fast path).
    struct StepGolden
    {
        const char *system;
        double prefill;
        double decode_iter;
    };
    const StepGolden golden[] = {
        {"FullAttn(FlashInfer)", 0.32942915307648818,
         0.011625046756253065},
        {"SpeContext", 0.33034688113118904, 0.0087128732009184983},
    };
    TimingEngine e;
    for (const StepGolden &g : golden) {
        TimingConfig cfg = cloudShape(1, 2048, 2048);
        cfg.system = SystemRegistry::create(g.system);
        EXPECT_EQ(e.makePricer(cfg)->prefillSeconds(4096, 3, 30000),
                  g.prefill)
            << g.system;
        EXPECT_EQ(e.makePricer(cfg)->decodeSeconds({2048, 8192, 32768}),
                  g.decode_iter)
            << g.system;
        auto pricer = e.makePricer(cfg);
        // Tables the R = 4 entry the prefill then reads.
        (void)pricer->decodeSeconds(std::vector<int64_t>(4, 1024));
        EXPECT_EQ(pricer->prefillSeconds(4096, 3, 30000), g.prefill)
            << g.system;
        EXPECT_EQ(pricer->decodeSeconds({2048, 8192, 32768}),
                  g.decode_iter)
            << g.system;
    }
}

TEST(SystemParity, RepeatedCreateIsDeterministic)
{
    // Two independently created instances of the same system must
    // price identically — no hidden per-instance state.
    TimingEngine e;
    for (const char *name : kLegacyNames) {
        const bool single = std::string(name) == "Quest" ||
                            std::string(name) == "ClusterKV";
        TimingConfig first = cloudShape(single ? 1 : 4, 2048, 2048);
        first.system = SystemRegistry::create(name);
        TimingConfig second = first;
        second.system = SystemRegistry::create(name);
        const auto a = e.simulate(first);
        const auto b = e.simulate(second);
        EXPECT_EQ(a.oom, b.oom);
        EXPECT_EQ(a.prefill_seconds, b.prefill_seconds);
        EXPECT_EQ(a.decode_seconds, b.decode_seconds);
        EXPECT_EQ(a.throughput, b.throughput);
    }
}

// ------------------------------------------------------- plugin story

class TestOnlySystem final : public core::SystemModel
{
  public:
    using SystemModel::SystemModel;
    const char *name() const override { return "TestOnly"; }
    sim::KernelBackend backend() const override
    {
        return sim::KernelBackend::Eager;
    }
    core::DataflowKind dataflow() const override
    {
        return core::DataflowKind::ResidentKV;
    }
    core::TimingResult simulate(const TimingConfig &) const override
    {
        core::TimingResult r;
        r.throughput = 1.0;
        return r;
    }
};

TEST(SystemRegistry, PluginRegistrationIsFirstClass)
{
    // The registry is process-global with no unregister path, so under
    // --gtest_repeat the factory is already there — that's fine.
    if (!SystemRegistry::contains("TestOnly")) {
        SystemRegistry::registerSystem(
            "TestOnly", [](const SystemOptions &o) {
                return std::make_shared<TestOnlySystem>(o);
            });
    }
    EXPECT_TRUE(SystemRegistry::contains("TestOnly"));
    const auto names = SystemRegistry::names();
    EXPECT_NE(std::find(names.begin(), names.end(), "TestOnly"),
              names.end());
    TimingConfig cfg = cloudShape(1, 16, 16);
    cfg.system = SystemRegistry::create("TestOnly");
    EXPECT_EQ(core::TimingEngine().simulate(cfg).throughput, 1.0);
    // Wave-only default: no pricer, so no stepping and no admission,
    // through the façade and the base class alike.
    EXPECT_FALSE(cfg.system->supportsContinuousBatching());
    EXPECT_THROW(core::TimingEngine().makePricer(cfg),
                 std::invalid_argument);
    EXPECT_THROW(cfg.system->makePricer(cfg), std::invalid_argument);
}

// --------------------------------------------------- geometry presets

TEST(GeometryPresets, TableIsTheSingleSource)
{
    const auto names = model::geometryPresetNames();
    ASSERT_EQ(names.size(), 4u);
    for (const auto &name : names)
        EXPECT_EQ(model::geometryPreset(name).name, name);
    EXPECT_THROW(model::geometryPreset("GPT-5"), std::invalid_argument);
}

} // namespace
} // namespace specontext
