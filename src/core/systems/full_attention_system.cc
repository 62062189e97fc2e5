/**
 * @file
 * Full-attention baselines: HuggingFace eager, FlashAttention, and
 * FlashInfer. They differ only in kernel efficiency and in the eager
 * backend's materialized attention scratch (its OOM mode); when the KV
 * cache outgrows the GPU they fall back to complete offloading
 * (per-step full KV transfer), HF-Accelerate style, when
 * SystemOptions::allow_full_attention_offload permits. Full attention
 * reads every cached token, so its attend cap is unbounded and a decode
 * window's attended total grows by exactly R per round.
 */
#include "core/systems/registration.h"
#include "core/tabled_pricer.h"

#include <limits>

namespace specontext {
namespace core {
namespace {

class FullAttentionSystem final : public TabledSystem<FullAttentionSystem>
{
  public:
    FullAttentionSystem(const SystemOptions &opts, const char *name,
                        sim::KernelBackend backend, bool eager_scratch)
        : TabledSystem(opts), name_(name), backend_(backend),
          eager_scratch_(eager_scratch)
    {
    }

    const char *name() const override { return name_; }
    sim::KernelBackend backend() const override { return backend_; }
    DataflowKind dataflow() const override
    {
        return DataflowKind::PrefetchFullKV;
    }

    TimingResult simulate(const TimingConfig &cfg) const override;
    int64_t hbmFootprintBytes(const TimingConfig &cfg, int64_t requests,
                              int64_t s) const override;
    int64_t dramFootprintBytes(const TimingConfig &cfg, int64_t requests,
                               int64_t s) const override;

    // ---- TabledSystem hooks (see core/tabled_pricer.h) --------------

    /** cost.decodeStepBreakdown(llm, R, 0). */
    using PerR = sim::DecodeBreakdown;
    PerR tableEntry(const TimingConfig &cfg, const PriceContext &c,
                    int64_t R) const
    {
        return c.cost.decodeStepBreakdown(cfg.llm, R, 0);
    }

    /** Every cached token of every request is read. */
    int64_t attendCap() const { return std::numeric_limits<int64_t>::max(); }

    /** Step compute plus the complete-offloading spill charge. */
    double roundSeconds(const TimingConfig &cfg, const PriceContext &c,
                        const PerR &base, int64_t R, int64_t attended_total,
                        int64_t s_max) const;

    /** Admission prefill of one `prompt_len` request joining a batch
     *  holding `resident_kv_tokens`. */
    double prefillWith(const TimingConfig &cfg, const PriceContext &c,
                       const PerR &joined, int64_t prompt_len,
                       int64_t in_flight_requests,
                       int64_t resident_kv_tokens) const;

    /** Every token of a reservation is held. */
    int64_t admitCap() const { return std::numeric_limits<int64_t>::max(); }

    /** Admission verdict on the summed reservations `kv_tokens`. */
    AdmissionDecision admitReduced(const TimingConfig &cfg,
                                   const PriceContext &c, const PerR &one,
                                   int64_t r, int64_t kv_tokens,
                                   int64_t s_max,
                                   int64_t candidate_prompt_len) const;

  private:
    /** Prefill attention scratch: eager materializes the (S x S)
     *  attention matrix per head — its distinctive OOM mode. */
    int64_t scratchBytes(const model::ModelConfig &m, int64_t requests,
                         int64_t prompt_len) const
    {
        return eager_scratch_
                   ? 2 * requests * m.q_heads * prompt_len * prompt_len
                   : 0;
    }

    const char *name_;
    sim::KernelBackend backend_;
    bool eager_scratch_;
};

TimingResult
FullAttentionSystem::simulate(const TimingConfig &cfg) const
{
    TimingResult r;
    const sim::CostModel cost(cfg.hw, backend_);
    const model::ModelConfig &m = cfg.llm;
    const int64_t R = cfg.batch;
    const int64_t s_final = cfg.prompt_len + cfg.gen_len;
    const int64_t kvb = kvBytesPerTokenPerLayer(m);
    const int64_t weights = weightFootprintBytes(m);

    const int64_t scratch = scratchBytes(m, R, cfg.prompt_len);
    if (weights + scratch > cfg.hw.gpu_mem_bytes) {
        r.oom = true;
        r.oom_reason = "prefill attention scratch exceeds GPU memory";
        return r;
    }

    const int64_t kv_total = R * s_final * kvb * m.layers;
    const bool offload =
        weights + scratch + kv_total > cfg.hw.gpu_mem_bytes;
    if (offload && !opts_.allow_full_attention_offload) {
        r.oom = true;
        r.oom_reason = "KV cache exceeds GPU memory (no offload)";
        return r;
    }
    if (offload && kv_total > cfg.hw.cpu_mem_bytes) {
        r.oom = true;
        r.oom_reason = "KV cache exceeds CPU memory";
        return r;
    }

    r.prefill_seconds = cost.prefillSeconds(m, R, cfg.prompt_len);
    if (offload) {
        // Initial KV eviction of the prompt.
        r.prefill_seconds +=
            cost.pcieSeconds(R * cfg.prompt_len * kvb * m.layers);
    }

    for (int64_t t = 0; t < cfg.gen_len; ++t) {
        const int64_t s = cfg.prompt_len + t;
        const sim::DecodeBreakdown b = cost.decodeStepBreakdown(m, R, s);
        double dt = b.total;
        r.breakdown["attn"] += b.attn;
        r.breakdown["gemm"] += b.gemm + b.lm_head;
        r.breakdown["launch"] += b.launch;
        if (offload) {
            // Complete offloading: the entire KV cache crosses PCIe
            // every step, layer by layer, serialized with compute.
            const double xfer =
                cost.pcieSeconds(R * s * kvb * m.layers);
            r.breakdown["transfer"] += xfer;
            dt += xfer;
        }
        r.decode_seconds += dt;
    }

    const double total = r.prefill_seconds + r.decode_seconds;
    r.throughput = R * cfg.gen_len / total;
    r.decode_throughput = R * cfg.gen_len / r.decode_seconds;
    r.final_gpu_layers = offload ? 0 : m.layers;
    return r;
}

double
FullAttentionSystem::prefillWith(const TimingConfig &cfg,
                                 const PriceContext &c, const PerR &joined,
                                 int64_t prompt_len,
                                 int64_t in_flight_requests,
                                 int64_t resident_kv_tokens) const
{
    (void)joined;
    (void)in_flight_requests;
    const model::ModelConfig &m = cfg.llm;
    double t = c.cost.prefillSeconds(m, 1, prompt_len);

    // Complete-offloading spill: when the batch's KV (including the
    // new prompt) no longer fits, the prompt's KV is evicted right
    // after prefill — same charge as simulate().
    if (opts_.allow_full_attention_offload &&
        c.weights + (resident_kv_tokens + prompt_len) * c.kvb * m.layers >
            cfg.hw.gpu_mem_bytes) {
        t += c.cost.pcieSeconds(prompt_len * c.kvb * m.layers);
    }
    return t;
}

// inline: the round tail is the body of the pricer's fused window loop.
inline double
FullAttentionSystem::roundSeconds(const TimingConfig &cfg,
                                  const PriceContext &c, const PerR &base,
                                  int64_t R, int64_t attended_total,
                                  int64_t s_max) const
{
    (void)R;
    (void)s_max;
    const double step_compute =
        c.stepCompute(cfg.llm, base, attended_total);

    double extra = 0.0;
    if (opts_.allow_full_attention_offload) {
        // Complete-offloading spill (HF-Accelerate style): once the
        // live KV outgrows HBM the whole cache crosses PCIe each
        // iteration, serialized with compute — same rule as simulate().
        const int64_t kv_bytes = attended_total * c.kvb * cfg.llm.layers;
        if (c.weights + kv_bytes > cfg.hw.gpu_mem_bytes)
            extra = c.cost.pcieSeconds(kv_bytes);
    }
    return step_compute + extra;
}

AdmissionDecision
FullAttentionSystem::admitReduced(const TimingConfig &cfg,
                                  const PriceContext &c, const PerR &one,
                                  int64_t r, int64_t kv_tokens,
                                  int64_t s_max,
                                  int64_t candidate_prompt_len) const
{
    (void)one;
    (void)r;
    (void)s_max;
    const model::ModelConfig &m = cfg.llm;
    const int64_t kv_total = kv_tokens * c.kvb * m.layers;
    const int64_t gpu = cfg.hw.gpu_mem_bytes;

    // Eager materializes the (S x S) attention matrix while prefilling
    // the joining request (one request at a time in this server).
    const int64_t scratch = scratchBytes(m, 1, candidate_prompt_len);
    const int64_t need = c.weights + scratch + kv_total;
    if (need <= gpu)
        return {true, ""};
    if (opts_.allow_full_attention_offload) {
        if (c.weights + scratch > gpu)
            return {false, "weights + prefill scratch exceed GPU memory"};
        if (kv_total > cfg.hw.cpu_mem_bytes)
            return {false, "spilled KV would exceed CPU DRAM"};
        return {true, ""};
    }
    return {false, "reserved KV exceeds GPU memory (no offload)"};
}

int64_t
FullAttentionSystem::hbmFootprintBytes(const TimingConfig &cfg,
                                       int64_t requests, int64_t s) const
{
    const int64_t resident = SystemModel::hbmFootprintBytes(cfg, requests, s);
    if (resident <= cfg.hw.gpu_mem_bytes ||
        !opts_.allow_full_attention_offload)
        return resident;
    // Spilled: only weights + runtime buffers stay on the device.
    return weightFootprintBytes(cfg.llm);
}

int64_t
FullAttentionSystem::dramFootprintBytes(const TimingConfig &cfg,
                                        int64_t requests, int64_t s) const
{
    if (!opts_.allow_full_attention_offload)
        return 0;
    const int64_t resident = SystemModel::hbmFootprintBytes(cfg, requests, s);
    if (resident <= cfg.hw.gpu_mem_bytes)
        return 0;
    return requests * s * kvBytesPerTokenPerLayer(cfg.llm) *
           cfg.llm.layers;
}

} // namespace

namespace detail {

void
registerFullAttentionSystems()
{
    addBuiltinSystem("FullAttn(Eager)", [](const SystemOptions &o) {
        return std::make_shared<FullAttentionSystem>(
            o, "FullAttn(Eager)", sim::KernelBackend::Eager, true);
    });
    addBuiltinSystem("FullAttn(FlashAttn)", [](const SystemOptions &o) {
        return std::make_shared<FullAttentionSystem>(
            o, "FullAttn(FlashAttn)", sim::KernelBackend::FlashAttention,
            false);
    });
    addBuiltinSystem("FullAttn(FlashInfer)", [](const SystemOptions &o) {
        // FlashInfer: fused + batch-scheduled kernels.
        return std::make_shared<FullAttentionSystem>(
            o, "FullAttn(FlashInfer)", sim::KernelBackend::FlashInfer,
            false);
    });
}

} // namespace detail
} // namespace core
} // namespace specontext
