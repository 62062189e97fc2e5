/**
 * @file
 * Full-attention baselines: HuggingFace eager, FlashAttention, and
 * FlashInfer. They differ only in kernel efficiency and in the eager
 * backend's materialized attention scratch (its OOM mode); when the KV
 * cache outgrows the GPU they fall back to complete offloading
 * (per-step full KV transfer), HF-Accelerate style, when
 * SystemOptions::allow_full_attention_offload permits. The serving loop
 * prices them through FullAttentionPricer, whose weight-streaming
 * minRoundSeconds() floor lets Optimistic fleets step multi-round
 * decode windows and eras.
 */
#include "core/systems/registration.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace specontext {
namespace core {
namespace {

class FullAttentionSystem final : public SystemModel
{
  public:
    FullAttentionSystem(const SystemOptions &opts, const char *name,
                        sim::KernelBackend backend, bool eager_scratch)
        : SystemModel(opts), name_(name), backend_(backend),
          eager_scratch_(eager_scratch)
    {
    }

    const char *name() const override { return name_; }
    sim::KernelBackend backend() const override { return backend_; }
    DataflowKind dataflow() const override
    {
        return DataflowKind::PrefetchFullKV;
    }
    bool supportsContinuousBatching() const override { return true; }

    TimingResult simulate(const TimingConfig &cfg) const override;
    double requestPrefillSeconds(const TimingConfig &cfg,
                                 int64_t prompt_len,
                                 int64_t in_flight_requests,
                                 int64_t resident_kv_tokens) const override;
    double decodeIterationSeconds(
        const TimingConfig &cfg,
        const std::vector<int64_t> &kv_lens) const override;
    std::unique_ptr<SystemPricer> makePricer(
        const TimingConfig &cfg) const override;
    AdmissionDecision admit(const TimingConfig &cfg,
                            const std::vector<int64_t> &in_flight_final_lens,
                            int64_t candidate_prompt_len,
                            int64_t candidate_final_len) const override;
    int64_t hbmFootprintBytes(const TimingConfig &cfg, int64_t requests,
                              int64_t s) const override;
    int64_t dramFootprintBytes(const TimingConfig &cfg, int64_t requests,
                               int64_t s) const override;

    // The one copy of each formula, parameterized on the pure
    // per-config derivations so the per-call methods and the caching
    // FullAttentionPricer run literally the same arithmetic: `kvb` must
    // equal kvBytesPerTokenPerLayer(llm), `weights`
    // weightFootprintBytes(llm), and `cost` a CostModel over
    // (cfg.hw, backend()).

    /**
     * Decode iteration past the KV-length reduction: step compute at
     * `attended_total` tokens floored by `weight_stream` (which must
     * equal parameterBytesFp16 / (hbm_bw_gbps * 1e9)), plus the
     * complete-offloading spill charge. `base` must equal
     * cost.decodeStepBreakdown(llm, R, 0).
     */
    double decodeTail(const TimingConfig &cfg, const sim::CostModel &cost,
                      const sim::DecodeBreakdown &base,
                      int64_t attended_total, double weight_stream,
                      int64_t kvb, int64_t weights) const;

    /** Admission prefill of one `prompt_len` request joining a batch
     *  holding `resident_kv_tokens`. */
    double prefillWith(const sim::CostModel &cost, const TimingConfig &cfg,
                       int64_t prompt_len, int64_t resident_kv_tokens,
                       int64_t kvb, int64_t weights) const;

    /** Admission verdict once the reservations are summed: `kv_tokens`
     *  is the candidate's final length plus every in-flight one. */
    AdmissionDecision admitTokens(const TimingConfig &cfg, int64_t kv_tokens,
                                  int64_t candidate_prompt_len, int64_t kvb,
                                  int64_t weights) const;

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

/** Σ kv_lens — full attention reads every cached token of every
 *  request. Throws on a non-positive length, as stepComputeSeconds. */
int64_t
attendedTotal(const std::vector<int64_t> &kv_lens)
{
    int64_t total = 0;
    for (int64_t s : kv_lens) {
        if (s <= 0)
            throw std::invalid_argument(
                "decodeIterationSeconds: non-positive KV length");
        total += s;
    }
    return total;
}

double
FullAttentionSystem::prefillWith(const sim::CostModel &cost,
                                 const TimingConfig &cfg, int64_t prompt_len,
                                 int64_t resident_kv_tokens, int64_t kvb,
                                 int64_t weights) const
{
    const model::ModelConfig &m = cfg.llm;
    double t = cost.prefillSeconds(m, 1, prompt_len);

    // Complete-offloading spill: when the batch's KV (including the
    // new prompt) no longer fits, the prompt's KV is evicted right
    // after prefill — same charge as simulate().
    if (opts_.allow_full_attention_offload &&
        weights + (resident_kv_tokens + prompt_len) * kvb * m.layers >
            cfg.hw.gpu_mem_bytes) {
        t += cost.pcieSeconds(prompt_len * kvb * m.layers);
    }
    return t;
}

double
FullAttentionSystem::requestPrefillSeconds(const TimingConfig &cfg,
                                           int64_t prompt_len,
                                           int64_t in_flight_requests,
                                           int64_t resident_kv_tokens) const
{
    (void)in_flight_requests;
    const sim::CostModel cost(cfg.hw, backend_);
    return prefillWith(cost, cfg, prompt_len, resident_kv_tokens,
                       kvBytesPerTokenPerLayer(cfg.llm),
                       weightFootprintBytes(cfg.llm));
}

double
FullAttentionSystem::decodeTail(const TimingConfig &cfg,
                                const sim::CostModel &cost,
                                const sim::DecodeBreakdown &base,
                                int64_t attended_total, double weight_stream,
                                int64_t kvb, int64_t weights) const
{
    const model::ModelConfig &m = cfg.llm;
    const double step_compute = stepComputeFromTotals(
        cfg, cost, base, attended_total, weight_stream);

    double extra = 0.0;
    if (opts_.allow_full_attention_offload) {
        // Complete-offloading spill (HF-Accelerate style): once the
        // live KV outgrows HBM the whole cache crosses PCIe each
        // iteration, serialized with compute — same rule as simulate().
        const int64_t kv_bytes = attended_total * kvb * m.layers;
        if (weights + kv_bytes > cfg.hw.gpu_mem_bytes)
            extra = cost.pcieSeconds(kv_bytes);
    }
    return step_compute + extra;
}

double
FullAttentionSystem::decodeIterationSeconds(
    const TimingConfig &cfg, const std::vector<int64_t> &kv_lens) const
{
    if (kv_lens.empty())
        return 0.0;
    const sim::CostModel cost(cfg.hw, backend_);
    const model::ModelConfig &m = cfg.llm;
    const int64_t R = static_cast<int64_t>(kv_lens.size());
    const int64_t attended_total = attendedTotal(kv_lens);
    const double weight_stream =
        double(m.parameterBytesFp16()) / (cfg.hw.hbm_bw_gbps * 1e9);
    return decodeTail(cfg, cost, cost.decodeStepBreakdown(m, R, 0),
                      attended_total, weight_stream,
                      kvBytesPerTokenPerLayer(m), weightFootprintBytes(m));
}

AdmissionDecision
FullAttentionSystem::admitTokens(const TimingConfig &cfg, int64_t kv_tokens,
                                 int64_t candidate_prompt_len, int64_t kvb,
                                 int64_t weights) const
{
    const model::ModelConfig &m = cfg.llm;
    const int64_t kv_total = kv_tokens * kvb * m.layers;

    // Eager materializes the (S x S) attention matrix while prefilling
    // the joining request (one request at a time in this server).
    const int64_t scratch = scratchBytes(m, 1, candidate_prompt_len);
    const int64_t need = weights + scratch + kv_total;
    if (need <= cfg.hw.gpu_mem_bytes)
        return {true, ""};
    if (opts_.allow_full_attention_offload) {
        if (weights + scratch > cfg.hw.gpu_mem_bytes)
            return {false, "weights + prefill scratch exceed GPU memory"};
        if (kv_total > cfg.hw.cpu_mem_bytes)
            return {false, "spilled KV would exceed CPU DRAM"};
        return {true, ""};
    }
    return {false, "reserved KV exceeds GPU memory (no offload)"};
}

AdmissionDecision
FullAttentionSystem::admit(const TimingConfig &cfg,
                           const std::vector<int64_t> &in_flight_final_lens,
                           int64_t candidate_prompt_len,
                           int64_t candidate_final_len) const
{
    int64_t kv_tokens = candidate_final_len;
    for (int64_t fl : in_flight_final_lens)
        kv_tokens += fl;
    return admitTokens(cfg, kv_tokens, candidate_prompt_len,
                       kvBytesPerTokenPerLayer(cfg.llm),
                       weightFootprintBytes(cfg.llm));
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

/**
 * Caching pricer: the CostModel, KV byte width, weight footprint and
 * weight-streaming floor are bound once, and the step breakdown per
 * batch size R is derived lazily and reused. Every query then runs the
 * same decodeTail / prefillWith / admitTokens arithmetic, on the same
 * values, as the per-call methods, so every result is bit-identical.
 */
class FullAttentionPricer final : public SystemPricer
{
  public:
    FullAttentionPricer(const FullAttentionSystem &sys,
                        const TimingConfig &cfg)
        : sys_(sys), cfg_(cfg), cost_(cfg_.hw, sys.backend()),
          kvb_(kvBytesPerTokenPerLayer(cfg_.llm)),
          weights_(weightFootprintBytes(cfg_.llm)),
          weight_stream_(double(cfg_.llm.parameterBytesFp16()) /
                         (cfg_.hw.hbm_bw_gbps * 1e9))
    {
    }

    double decodeSeconds(const std::vector<int64_t> &kv_lens) override
    {
        if (kv_lens.empty())
            return 0.0;
        const int64_t attended_total = attendedTotal(kv_lens);
        return sys_.decodeTail(cfg_, cost_, base(kv_lens.size()),
                               attended_total, weight_stream_, kvb_,
                               weights_);
    }

    double prefillSeconds(int64_t prompt_len, int64_t in_flight_requests,
                          int64_t resident_kv_tokens) override
    {
        (void)in_flight_requests;
        return sys_.prefillWith(cost_, cfg_, prompt_len, resident_kv_tokens,
                                kvb_, weights_);
    }

    AdmissionDecision admit(const std::vector<int64_t> &in_flight_final_lens,
                            int64_t candidate_prompt_len,
                            int64_t candidate_final_len) override
    {
        int64_t kv_tokens = candidate_final_len;
        for (int64_t fl : in_flight_final_lens)
            kv_tokens += fl;
        return sys_.admitTokens(cfg_, kv_tokens, candidate_prompt_len, kvb_,
                                weights_);
    }

    AdmissionDecision fitsCurrent(const std::vector<int64_t> &kv_lens) override
    {
        if (kv_lens.empty())
            return {true, ""};
        // The base-class fitsCurrent calls admit(rest, 1, back): the
        // same token sum, taken in place instead of over a copy.
        int64_t kv_tokens = 0;
        for (int64_t s : kv_lens)
            kv_tokens += s;
        return sys_.admitTokens(cfg_, kv_tokens, 1, kvb_, weights_);
    }

    /**
     * Incremental window (see SystemPricer::beginWindow): full
     * attention reads every cached token, so the one reduced integer a
     * round needs grows by exactly R per round. The window holds its
     * own copy of the R breakdown, so a prefill or admission query
     * that grows the table cannot disturb it; the spill test in
     * decodeTail runs every round on the grown total.
     */
    void beginWindow(const std::vector<int64_t> &kv_lens) override
    {
        win_r_ = static_cast<int64_t>(kv_lens.size());
        // One round's growth pre-subtracted: roundPrice() adds it back
        // before pricing, so round 0 prices the window-base lengths.
        win_attended_ = attendedTotal(kv_lens) - win_r_;
        if (win_r_ > 0)
            win_base_ = base(kv_lens.size());
    }

    double nextRoundSeconds() override
    {
        if (win_r_ == 0)
            return 0.0;
        return roundPrice();
    }

    /** The fused window loop: identical break logic and accumulation
     *  order to the base-class loop, with the round price inlined. */
    double runWindow(int64_t max_rounds, double now, double horizon,
                     double t_pending, int64_t &rounds,
                     double &first_now) override
    {
        if (win_r_ == 0)
            return SystemPricer::runWindow(max_rounds, now, horizon,
                                           t_pending, rounds, first_now);
        rounds = 0;
        for (;;) {
            now += roundPrice();
            if (++rounds == 1)
                first_now = now;
            if (rounds >= max_rounds || !(now < horizon) ||
                t_pending <= now)
                break;
        }
        return now;
    }

    /** decodeTail() takes max(..., weight_stream) and the spill charge
     *  only adds, so weight_stream_ lower-bounds any round at any
     *  shape. */
    double minRoundSeconds() const override { return weight_stream_; }

  private:
    /** One window round over lengths grown by one token each. Requires
     *  an open window with win_r_ > 0. */
    double roundPrice()
    {
        win_attended_ += win_r_;
        return sys_.decodeTail(cfg_, cost_, win_base_, win_attended_,
                               weight_stream_, kvb_, weights_);
    }

    /** cost_.decodeStepBreakdown(llm, R, 0), lazily tabled by R. */
    const sim::DecodeBreakdown &base(size_t r)
    {
        if (r >= per_r_.size())
            per_r_.resize(r + 1);
        std::optional<sim::DecodeBreakdown> &b = per_r_[r];
        if (!b)
            b = cost_.decodeStepBreakdown(cfg_.llm,
                                          static_cast<int64_t>(r), 0);
        return *b;
    }

    const FullAttentionSystem &sys_;
    TimingConfig cfg_; ///< owns the system keepalive (shared_ptr inside)
    sim::CostModel cost_;
    int64_t kvb_;          ///< kvBytesPerTokenPerLayer(llm)
    int64_t weights_;      ///< weightFootprintBytes(llm)
    double weight_stream_; ///< R-independent weight-streaming floor
    /** Indexed by batch size R, lazily filled. */
    std::vector<std::optional<sim::DecodeBreakdown>> per_r_;

    // ---- Bulk-window state (see beginWindow) ------------------------
    int64_t win_r_ = 0;        ///< batch size of the open window
    int64_t win_attended_ = 0; ///< Σ (s_i + rounds priced so far)
    sim::DecodeBreakdown win_base_; ///< the window's own R breakdown
};

std::unique_ptr<SystemPricer>
FullAttentionSystem::makePricer(const TimingConfig &cfg) const
{
    return std::make_unique<FullAttentionPricer>(*this, cfg);
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
