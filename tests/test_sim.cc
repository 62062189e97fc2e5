/**
 * @file
 * Tests of the hardware cost model and the two-stream timeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "model/config.h"
#include "sim/cost.h"
#include "sim/hardware.h"
#include "sim/timeline.h"

namespace specontext {
namespace {

using sim::CostModel;
using sim::HardwareSpec;
using sim::KernelBackend;

TEST(Hardware, PresetsMatchTable2)
{
    const auto cloud = HardwareSpec::cloudA800();
    EXPECT_EQ(cloud.gpu_mem_bytes, 80LL << 30);
    EXPECT_EQ(cloud.cpu_mem_bytes, 1008LL << 30);

    const auto edge = HardwareSpec::edge4060();
    EXPECT_EQ(edge.gpu_mem_bytes, 8LL << 30);
    EXPECT_EQ(edge.cpu_mem_bytes, 24LL << 30);

    EXPECT_EQ(HardwareSpec::edge4060Capped4G().gpu_mem_bytes,
              4LL << 30);
}

TEST(Hardware, BackendEfficiencyOrdering)
{
    const auto e = sim::BackendEfficiency::of(KernelBackend::Eager);
    const auto f =
        sim::BackendEfficiency::of(KernelBackend::FlashAttention);
    const auto fi = sim::BackendEfficiency::of(KernelBackend::FlashInfer);
    EXPECT_LT(e.attn_bw, f.attn_bw);
    EXPECT_LT(f.attn_bw, fi.attn_bw);
    EXPECT_GT(e.launches_per_layer, fi.launches_per_layer);
}

TEST(CostModel, GemmScalesWithFlops)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    const double t1 = c.gemmSeconds(1024, 1024, 1024);
    const double t2 = c.gemmSeconds(2048, 1024, 1024);
    EXPECT_NEAR(t2 / t1, 2.0, 0.3);
}

TEST(CostModel, SmallGemmIsMemoryBound)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    // A (1 x k) * (k x n) is dominated by streaming B.
    const double t = c.gemmSeconds(1, 4096, 4096);
    const double bytes = 2.0 * (4096.0 + 4096.0 * 4096.0 + 4096.0);
    const double mem_floor = bytes / (2039.0 * 1e9);
    EXPECT_GE(t, mem_floor * 0.99);
}

TEST(CostModel, AttentionDecodeMemoryBound)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    const double t1 = c.attentionDecodeSeconds(1, 32, 8, 128, 16384);
    const double t2 = c.attentionDecodeSeconds(1, 32, 8, 128, 32768);
    EXPECT_NEAR(t2 / t1, 2.0, 0.1); // linear in KV length
}

TEST(CostModel, EagerSlowerThanFlashInferOnAttention)
{
    CostModel eager(HardwareSpec::cloudA800(), KernelBackend::Eager);
    CostModel fi(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    EXPECT_GT(eager.attentionDecodeSeconds(4, 32, 8, 128, 16384),
              3.0 * fi.attentionDecodeSeconds(4, 32, 8, 128, 16384));
}

TEST(CostModel, DecodeStepHasWeightStreamingFloor)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    const auto m = model::llama31_8bGeometry();
    const double t = c.decodeStepSeconds(m, 1, 128);
    const double floor =
        static_cast<double>(m.parameterBytesFp16()) / (2039.0 * 1e9);
    EXPECT_GE(t, floor * 0.99);
}

TEST(CostModel, DecodeBreakdownSumsConsistently)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    const auto m = model::llama31_8bGeometry();
    const auto b = c.decodeStepBreakdown(m, 8, 16384);
    EXPECT_GE(b.total, b.attn);
    EXPECT_GE(b.total + 1e-12,
              std::max(b.gemm + b.attn + b.launch + b.lm_head,
                       0.0) * 0.999);
}

TEST(CostModel, PcieTransferLinearInBytes)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    const double t1 = c.pcieSeconds(1LL << 30);
    const double t2 = c.pcieSeconds(2LL << 30);
    EXPECT_GT(t2, t1 * 1.8);
    EXPECT_EQ(c.pcieSeconds(0), 0.0);
}

TEST(CostModel, PrefillScalesSuperlinearlyInPromptLength)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    const auto m = model::llama31_8bGeometry();
    const double t1 = c.prefillSeconds(m, 1, 8192);
    const double t2 = c.prefillSeconds(m, 1, 16384);
    EXPECT_GT(t2 / t1, 2.0); // quadratic attention term present
}

TEST(CostModel, RetrievalIncludesLaunchOverhead)
{
    CostModel c(HardwareSpec::cloudA800(), KernelBackend::FlashInfer);
    EXPECT_GE(c.retrievalSeconds(0.0, 0), c.launchSeconds());
}

TEST(Timeline, SingleStreamAccumulates)
{
    sim::Timeline tl;
    tl.enqueue(sim::StreamId::Compute, 1.0, "a");
    tl.enqueue(sim::StreamId::Compute, 2.0, "a");
    EXPECT_DOUBLE_EQ(tl.now(sim::StreamId::Compute), 3.0);
    EXPECT_DOUBLE_EQ(tl.tagSeconds("a"), 3.0);
}

TEST(Timeline, StreamsRunConcurrently)
{
    sim::Timeline tl;
    tl.enqueue(sim::StreamId::Compute, 5.0, "c");
    tl.enqueue(sim::StreamId::Copy, 3.0, "x");
    EXPECT_DOUBLE_EQ(tl.makespan(), 5.0); // overlapped, not 8
}

TEST(Timeline, WaitEventSerializes)
{
    sim::Timeline tl;
    auto e = tl.enqueue(sim::StreamId::Copy, 4.0, "x");
    tl.waitEvent(sim::StreamId::Compute, e);
    tl.enqueue(sim::StreamId::Compute, 1.0, "c");
    EXPECT_DOUBLE_EQ(tl.makespan(), 5.0);
}

TEST(Timeline, WaitEventNoopWhenAlreadyPast)
{
    sim::Timeline tl;
    tl.enqueue(sim::StreamId::Compute, 10.0, "c");
    auto e = tl.enqueue(sim::StreamId::Copy, 1.0, "x");
    tl.waitEvent(sim::StreamId::Compute, e);
    EXPECT_DOUBLE_EQ(tl.now(sim::StreamId::Compute), 10.0);
}

TEST(Timeline, BarrierAlignsStreams)
{
    sim::Timeline tl;
    tl.enqueue(sim::StreamId::Compute, 2.0, "c");
    tl.enqueue(sim::StreamId::Copy, 7.0, "x");
    tl.barrier();
    EXPECT_DOUBLE_EQ(tl.now(sim::StreamId::Compute), 7.0);
}

TEST(Timeline, RejectsNegativeDuration)
{
    sim::Timeline tl;
    EXPECT_THROW(tl.enqueue(sim::StreamId::Compute, -1.0, "bad"),
                 std::invalid_argument);
}

TEST(Timeline, ResetClears)
{
    sim::Timeline tl;
    tl.enqueue(sim::StreamId::Compute, 2.0, "c");
    tl.reset();
    EXPECT_DOUBLE_EQ(tl.makespan(), 0.0);
    EXPECT_DOUBLE_EQ(tl.tagSeconds("c"), 0.0);
}

} // namespace
} // namespace specontext
