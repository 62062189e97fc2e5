/**
 * @file
 * Tests of the analytical timing engine: OOM modes, system orderings
 * the paper reports, and the ablation staircase (Fig. 11). Systems are
 * constructed through the SystemRegistry (core/system_model.h).
 */
#include <gtest/gtest.h>

#include "core/timing_engine.h"

namespace specontext {
namespace {

using core::SystemOptions;
using core::SystemRegistry;
using core::TimingConfig;
using core::TimingEngine;

TimingConfig
cloudConfig(const std::string &sys, int64_t batch, int64_t in,
            int64_t out, const SystemOptions &opts = {})
{
    TimingConfig c;
    c.llm = model::deepseekDistillLlama8bGeometry();
    c.hw = sim::HardwareSpec::cloudA800();
    c.system = SystemRegistry::create(sys, opts);
    c.batch = batch;
    c.prompt_len = in;
    c.gen_len = out;
    return c;
}

TEST(TimingEngine, BackendMapping)
{
    EXPECT_EQ(SystemRegistry::create("FullAttn(Eager)")->backend(),
              sim::KernelBackend::Eager);
    EXPECT_EQ(SystemRegistry::create("SpeContext")->backend(),
              sim::KernelBackend::FlashInfer);
}

TEST(TimingEngine, KvBytesPerTokenPerLayer)
{
    // Llama-8B GQA: 2 * 2 * 8 * 128 bytes = 4 KiB per token per layer.
    EXPECT_EQ(core::kvBytesPerTokenPerLayer(
                  model::llama31_8bGeometry()),
              4096);
}

TEST(TimingEngine, NullSystemThrows)
{
    TimingEngine e;
    TimingConfig c;
    c.llm = model::deepseekDistillLlama8bGeometry();
    c.hw = sim::HardwareSpec::cloudA800();
    EXPECT_THROW(e.simulate(c), std::invalid_argument);
}

TEST(TimingEngine, EagerOomsOnLongPromptScratch)
{
    // Table 3: eager OOMs at [16k, 2k] and [32k, 2k] because it
    // materializes the S x S attention matrix during prefill.
    TimingEngine e;
    const auto r = e.simulate(cloudConfig("FullAttn(Eager)", 4,
                                          16384, 2048));
    EXPECT_TRUE(r.oom);
    const auto ok = e.simulate(cloudConfig("FullAttn(Eager)", 4,
                                           2048, 16384));
    EXPECT_FALSE(ok.oom);
}

TEST(TimingEngine, FlashVariantsSurviveLongPrompts)
{
    TimingEngine e;
    EXPECT_FALSE(e.simulate(cloudConfig("FullAttn(FlashAttn)", 4,
                                        32768, 2048))
                     .oom);
    EXPECT_FALSE(e.simulate(cloudConfig("FullAttn(FlashInfer)", 4,
                                        32768, 2048))
                     .oom);
}

TEST(TimingEngine, FullAttentionBackendOrdering)
{
    // Eager < FlashAttention < FlashInfer in throughput (Table 3
    // columns, every row).
    TimingEngine e;
    const double eager =
        e.simulate(cloudConfig("FullAttn(Eager)", 4, 2048, 16384))
            .throughput;
    const double flash =
        e.simulate(
             cloudConfig("FullAttn(FlashAttn)", 4, 2048, 16384))
            .throughput;
    const double fi =
        e.simulate(cloudConfig("FullAttn(FlashInfer)", 4, 2048, 16384))
            .throughput;
    EXPECT_LT(eager, flash);
    EXPECT_LT(flash, fi);
}

TEST(TimingEngine, SpeContextBeatsFlashInferInReasoning)
{
    // The headline long-context-reasoning result at batch scale.
    TimingEngine e;
    const double fi =
        e.simulate(cloudConfig("FullAttn(FlashInfer)", 16, 2048, 16384))
            .throughput;
    const double ours =
        e.simulate(cloudConfig("SpeContext", 16, 2048, 16384))
            .throughput;
    EXPECT_GT(ours, fi);
}

TEST(TimingEngine, QuestClusterKvSingleRequestOnly)
{
    TimingEngine e;
    EXPECT_TRUE(
        e.simulate(cloudConfig("Quest", 2, 2048, 2048)).oom);
    EXPECT_FALSE(
        e.simulate(cloudConfig("Quest", 1, 2048, 2048)).oom);
    EXPECT_TRUE(
        e.simulate(cloudConfig("ClusterKV", 4, 2048, 2048)).oom);
}

TEST(TimingEngine, LayerwiseBaselinesPayRetrievalPerLayer)
{
    TimingEngine e;
    const auto r =
        e.simulate(cloudConfig("Quest", 1, 16384, 2048));
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.breakdown.at("retrieval"), 0.0);
}

TEST(TimingEngine, BaselineRetrievalWorseThanFlashInferInReasoning)
{
    // Fig. 1(b)/Fig. 10(a): with long generation, prompt-preprocessing
    // baselines fall behind full-attention FlashInfer because of
    // per-layer retrieval sync plus retained new KV.
    TimingEngine e;
    const double quest =
        e.simulate(cloudConfig("Quest", 1, 2048, 16384)).throughput;
    const double fi =
        e.simulate(cloudConfig("FullAttn(FlashInfer)", 1, 2048, 16384))
            .throughput;
    EXPECT_LT(quest, fi);
}

TEST(TimingEngine, SpeContextSlightlySlowerThanFlashInferOnInputScenario)
{
    // §7.3.1: in the long-context *input* scenario at single request,
    // ours is not faster than FlashInfer (retrieval head overhead, no
    // KV growth to save) — within 2x either way.
    TimingEngine e;
    const double fi =
        e.simulate(cloudConfig("FullAttn(FlashInfer)", 1, 32768, 2048))
            .throughput;
    const double ours =
        e.simulate(cloudConfig("SpeContext", 1, 32768, 2048))
            .throughput;
    EXPECT_GT(ours, 0.5 * fi);
    EXPECT_LT(ours, 2.5 * fi);
}

TEST(TimingEngine, AblationStaircase)
{
    // Fig. 11: HF < +C1 < +C1+C2 < +C1+C2+C3 on an
    // offload-constrained workload.
    TimingEngine e;
    SystemOptions o;

    o.features = {true, false, false};
    const double c1 =
        e.simulate(cloudConfig("SpeContext", 32, 2048, 16384, o))
            .throughput;
    o.features = {true, true, false};
    const double c12 =
        e.simulate(cloudConfig("SpeContext", 32, 2048, 16384, o))
            .throughput;
    o.features = {true, true, true};
    const double c123 =
        e.simulate(cloudConfig("SpeContext", 32, 2048, 16384, o))
            .throughput;

    const double hf =
        e.simulate(cloudConfig("FullAttn(Eager)", 32, 2048, 16384))
            .throughput;

    EXPECT_GT(c1, hf);
    EXPECT_GE(c12, c1);
    EXPECT_GE(c123, c12);
}

TEST(TimingEngine, ElasticOverlapReducesDecodeTime)
{
    TimingEngine e;
    // Edge setting where the budget transfer exceeds per-step compute
    // so the reuse fraction is on the critical path. (With small
    // budgets the async stream hides the transfer entirely and the
    // overlap knob is — correctly — irrelevant.)
    TimingConfig c;
    c.llm = model::reasoningLlama32_1bGeometry();
    c.hw = sim::HardwareSpec::edge4060Capped4G();
    c.batch = 1;
    c.prompt_len = 2048;
    c.gen_len = 32768;
    SystemOptions o;
    o.budget = 8192;
    o.features = {true, true, false}; // static placement: all offloaded

    o.elastic_overlap = 0.0;
    c.system = SystemRegistry::create("SpeContext", o);
    const double slow = e.simulate(c).decode_seconds;
    o.elastic_overlap = 0.9;
    c.system = SystemRegistry::create("SpeContext", o);
    const double fast = e.simulate(c).decode_seconds;
    EXPECT_LT(fast, slow);
}

TEST(TimingEngine, AdaptiveBeatsStaticOnGrowingSequence)
{
    // Challenge-3: a static policy that must pick all-CPU up front
    // loses to adaptive placement that keeps layers resident early.
    TimingEngine e;
    TimingConfig c;
    c.llm = model::reasoningLlama32_1bGeometry();
    c.hw = sim::HardwareSpec::edge4060Capped4G();
    c.batch = 1;
    c.prompt_len = 2048;
    c.gen_len = 32768;
    SystemOptions o;
    o.budget = 8192;         // transfers on the critical path
    o.elastic_overlap = 0.3; // low reuse: diffs stay expensive

    o.features = {true, true, true};
    c.system = SystemRegistry::create("SpeContext", o);
    const double adaptive = e.simulate(c).throughput;
    o.features = {true, true, false};
    c.system = SystemRegistry::create("SpeContext", o);
    const double static_tp = e.simulate(c).throughput;
    EXPECT_GE(adaptive, static_tp);
}

TEST(TimingEngine, CpuCapacityOomDetected)
{
    TimingEngine e;
    TimingConfig c = cloudConfig("SpeContext", 64, 32768, 32768);
    c.hw.cpu_mem_bytes = 8LL << 30; // shrink host memory
    const auto r = e.simulate(c);
    EXPECT_TRUE(r.oom);
    EXPECT_FALSE(r.oom_reason.empty());
}

TEST(TimingEngine, ThroughputCountsGeneratedTokens)
{
    TimingEngine e;
    const auto r =
        e.simulate(cloudConfig("FullAttn(FlashInfer)", 4, 2048, 4096));
    ASSERT_FALSE(r.oom);
    const double expect =
        4.0 * 4096 / (r.prefill_seconds + r.decode_seconds);
    EXPECT_NEAR(r.throughput, expect, 1e-6);
    EXPECT_GT(r.decode_throughput, r.throughput);
}

// ------------------------------------------ eviction systems (new)

TEST(TimingEngine, EvictionSystemsNeverPayTransfers)
{
    // H2O and StreamingLLM hold a budget-bounded cache in HBM: no
    // retrieval fetch, no PCIe, no OOM even at [32k, 32k] batch 64.
    TimingEngine e;
    for (const char *sys : {"H2O", "StreamingLLM"}) {
        const auto r = e.simulate(cloudConfig(sys, 64, 32768, 32768));
        ASSERT_FALSE(r.oom) << sys;
        EXPECT_EQ(r.breakdown.count("transfer"), 0u) << sys;
        EXPECT_EQ(r.breakdown.count("retrieval"), 0u) << sys;
        EXPECT_EQ(r.final_gpu_layers, 32); // everything stays resident
    }
}

TEST(TimingEngine, StreamingLlmFasterThanH2OFasterThanShadowKV)
{
    // Decreasing per-step overhead: ShadowKV pays per-layer retrieval
    // + V fetch, H2O a cheap on-GPU eviction scan, StreamingLLM
    // nothing.
    TimingEngine e;
    const double shadow =
        e.simulate(cloudConfig("ShadowKV", 4, 2048, 16384)).throughput;
    const double h2o =
        e.simulate(cloudConfig("H2O", 4, 2048, 16384)).throughput;
    const double stream =
        e.simulate(cloudConfig("StreamingLLM", 4, 2048, 16384))
            .throughput;
    EXPECT_GT(h2o, shadow);
    EXPECT_GE(stream, h2o);
}

TEST(TimingEngine, H2OPaysEvictionUpkeep)
{
    TimingEngine e;
    const auto r = e.simulate(cloudConfig("H2O", 4, 2048, 4096));
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.breakdown.at("evict"), 0.0);
    EXPECT_GT(r.breakdown.at("preprocess"), 0.0);
}

} // namespace
} // namespace specontext
