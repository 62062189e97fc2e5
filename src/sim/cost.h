/**
 * @file
 * Analytical kernel cost model: maps operation shapes to seconds on a
 * HardwareSpec under a KernelBackend.
 *
 * Decode-phase LLM inference is memory-bound: per token, the GPU must
 * stream the model weights once per batch and each request's attended
 * KV cache once. Cost = max(compute time, memory time) + launch
 * overheads, the standard roofline treatment. All paper systems are
 * priced through this one model so comparisons stay apples-to-apples.
 */
#pragma once

#include <algorithm>
#include <cstdint>

#include "model/config.h"
#include "sim/hardware.h"

namespace specontext {
namespace sim {

/** Component times of one decode step (seconds). */
struct DecodeBreakdown
{
    double gemm = 0.0;    ///< projections + FFN GEMMs, all layers
    double attn = 0.0;    ///< KV-cache attention, all layers
    double launch = 0.0;  ///< kernel launch overheads
    double lm_head = 0.0; ///< final vocabulary projection
    double total = 0.0;   ///< max(sum, weight-streaming floor)
    /** gemm + launch + lm_head, pre-added in that order: the
     *  attention-independent part of a step, so per-round pricing
     *  adds one term instead of re-summing three. */
    double compute_fixed = 0.0;
};

/** Cost calculator bound to one hardware platform and kernel backend. */
class CostModel
{
  public:
    CostModel(HardwareSpec hw, KernelBackend backend);

    const HardwareSpec &hardware() const { return hw_; }
    KernelBackend backend() const { return backend_; }

    /** Seconds for a dense (m x k) * (k x n) FP16 GEMM. */
    double gemmSeconds(int64_t m, int64_t n, int64_t k) const;

    /**
     * Seconds of `flops` of GEMM-shaped compute at this backend's GEMM
     * efficiency, with no memory floor — the one conversion rule
     * shared by the systems' prompt-preprocessing passes.
     */
    double gemmFlopsSeconds(double flops) const;

    /**
     * Seconds of decode attention for one layer: `batch` requests each
     * reading `kv_len` cached tokens of kv_heads*head_dim K plus V at
     * FP16 (memory-bound path) with q_heads scoring compute.
     */
    double attentionDecodeSeconds(int64_t batch, int64_t q_heads,
                                  int64_t kv_heads, int64_t head_dim,
                                  int64_t kv_len) const;

    /**
     * Seconds of one full decode step (all layers) for a model
     * geometry: weight streaming + FFN/projection compute + attention
     * over per-request kv_len + per-layer launch overhead.
     */
    double decodeStepSeconds(const model::ModelConfig &cfg, int64_t batch,
                             int64_t kv_len) const;

    /** Same as decodeStepSeconds but with per-component detail. */
    DecodeBreakdown decodeStepBreakdown(const model::ModelConfig &cfg,
                                        int64_t batch,
                                        int64_t kv_len) const;

    /**
     * Seconds of prefill for prompt_len tokens (compute-bound GEMMs;
     * chunked, so launch overhead is amortized).
     */
    double prefillSeconds(const model::ModelConfig &cfg, int64_t batch,
                          int64_t prompt_len) const;

    /** Seconds to move bytes across PCIe (CPU DRAM <-> GPU HBM). */
    double pcieSeconds(int64_t bytes) const;

    /**
     * Seconds of an importance-scoring pass: score_flops of dot
     * products plus a Top-K over n candidates, per retrieval call.
     */
    double retrievalSeconds(double score_flops, int64_t topk_n) const;

    /** Per-layer synchronization penalty of serialized dataflows. */
    double syncSeconds() const { return sync_s_; }

    /** Per-kernel launch latency. */
    double launchSeconds() const { return launch_s_; }

  private:
    HardwareSpec hw_;
    KernelBackend backend_;
    BackendEfficiency eff_;
    // Denominator products and fixed latencies, derived once at
    // construction with the same expressions (and evaluation order)
    // the per-call sites used to spell out, so every quotient is the
    // bit-identical double — this model prices tens of millions of
    // decode rounds per simulation and the re-multiplication was pure
    // overhead.
    double gemm_flops_denom_ = 1.0; ///< tflops * 1e12 * eff.gemm
    double attn_mem_denom_ = 1.0;   ///< hbm GB/s * 1e9 * eff.attn_bw
    double hbm_denom_ = 1.0;        ///< hbm GB/s * 1e9
    double pcie_denom_ = 1.0;       ///< pcie GB/s * 1e9
    double launch_s_ = 0.0;         ///< kernel_launch_us * 1e-6
    double sync_s_ = 0.0;           ///< sync_us * 1e-6
};

// Per-round pricing bodies live in the header so the systems' decode
// tails (other translation units, priced hundreds of millions of times
// per run) inline them instead of paying a call per term. Same
// expressions, same evaluation order as ever — inlining relocates the
// arithmetic, it does not reassociate it.

inline double
CostModel::gemmSeconds(int64_t m, int64_t n, int64_t k) const
{
    const double flops = 2.0 * m * n * k;
    const double compute = flops / gemm_flops_denom_;
    // Memory floor: stream A, B, C once at FP16.
    const double bytes = 2.0 * (double(m) * k + double(k) * n +
                                double(m) * n);
    const double memory = bytes / hbm_denom_;
    return std::max(compute, memory);
}

inline double
CostModel::gemmFlopsSeconds(double flops) const
{
    return flops / gemm_flops_denom_;
}

inline double
CostModel::attentionDecodeSeconds(int64_t batch, int64_t q_heads,
                                  int64_t kv_heads, int64_t head_dim,
                                  int64_t kv_len) const
{
    // Memory: each request reads K and V of kv_len tokens at FP16.
    const double kv_bytes =
        2.0 * 2.0 * batch * kv_len * kv_heads * head_dim;
    const double memory = kv_bytes / attn_mem_denom_;
    // Compute: QK^T and PV, 2 * 2*q_heads*head_dim flops per position.
    const double flops = 4.0 * batch * q_heads * head_dim * double(kv_len);
    const double compute = flops / gemm_flops_denom_;
    return std::max(memory, compute);
}

inline double
CostModel::pcieSeconds(int64_t bytes) const
{
    if (bytes <= 0)
        return 0.0;
    return double(bytes) / pcie_denom_ + launch_s_;
}

inline double
CostModel::retrievalSeconds(double score_flops, int64_t topk_n) const
{
    const double score = score_flops / gemm_flops_denom_;
    // Top-K is bandwidth bound over the score array (4-byte scores),
    // with a small fixed kernel cost.
    const double topk =
        4.0 * double(topk_n) / hbm_denom_ + launch_s_;
    return score + topk + launch_s_;
}

} // namespace sim
} // namespace specontext
