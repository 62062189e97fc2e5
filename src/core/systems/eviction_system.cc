/**
 * @file
 * Permanent-eviction systems: H2O (heavy-hitter accumulated-attention
 * eviction, Zhang et al. NeurIPS'23) and StreamingLLM (attention sink
 * + sliding window, Xiao et al. ICLR'24) — the §2.2 baselines whose
 * live retrievers already existed in src/retrieval/ but could not be
 * simulated or served before the SystemModel registry.
 *
 * Pricing model: both hold a *bounded* resident KV cache — at most
 * `budget` tokens per request per layer survive eviction — entirely in
 * HBM, so there is no retrieval fetch, no PCIe traffic and no per-layer
 * sync; attention reads min(budget, context) tokens. The cost of that
 * compactness is irreversible information loss (§3.1), visible as
 * accuracy degradation in the Fig. 1 Pareto bench's live runs.
 *  - StreamingLLM's selection is input-agnostic (sink + window), so
 *    eviction upkeep is free.
 *  - H2O updates a per-(layer, head) accumulated-attention mass table
 *    and evicts the arg-min each step: one cheap on-GPU scan + top-k
 *    over the tracked set per layer, priced via retrievalSeconds.
 * Both evict during chunked prefill as well, so the resident cache
 * never materializes beyond the budget (no eager-style scratch OOM).
 *
 * This file doubles as the registry's worked "adding a new system"
 * example (README.md): one TabledSystem subclass that supplies a
 * per-batch-size entry, an attend cap, a round tail and its admission
 * hooks, plus one factory registration per name — no edits anywhere
 * else in the tree. The pricer (makePricer()) comes with the base.
 */
#include "core/systems/registration.h"
#include "core/tabled_pricer.h"

#include <algorithm>

namespace specontext {
namespace core {
namespace {

/** Budget-bounded permanent eviction; `h2o` adds H2O's attention-mass
 *  upkeep, StreamingLLM's sink + window selection needs none. */
class EvictionSystem final : public TabledSystem<EvictionSystem>
{
  public:
    EvictionSystem(const SystemOptions &opts, const char *name, bool h2o)
        : TabledSystem(opts), name_(name), h2o_(h2o)
    {
    }

    const char *name() const override { return name_; }
    sim::KernelBackend backend() const override
    {
        return sim::KernelBackend::FlashAttention;
    }
    DataflowKind dataflow() const override
    {
        return DataflowKind::ResidentKV;
    }

    TimingResult simulate(const TimingConfig &cfg) const override;
    int64_t hbmFootprintBytes(const TimingConfig &cfg, int64_t requests,
                              int64_t s) const override;

    // ---- TabledSystem hooks (see core/tabled_pricer.h) --------------

    /** cost.decodeStepBreakdown(llm, R, 0). */
    using PerR = sim::DecodeBreakdown;
    PerR tableEntry(const TimingConfig &cfg, const PriceContext &c,
                    int64_t R) const
    {
        return c.cost.decodeStepBreakdown(cfg.llm, R, 0);
    }

    /** Attention reads the budget-bounded resident set per request. */
    int64_t attendCap() const { return opts_.budget; }

    double roundSeconds(const TimingConfig &cfg, const PriceContext &c,
                        const PerR &base, int64_t R, int64_t attended_total,
                        int64_t s_max) const
    {
        (void)s_max;
        return c.stepCompute(cfg.llm, base, attended_total) +
               evictionSeconds(cfg, c.cost, R, attended_total);
    }

    double prefillWith(const TimingConfig &cfg, const PriceContext &c,
                       const PerR &joined, int64_t prompt_len,
                       int64_t in_flight_requests,
                       int64_t resident_kv_tokens) const
    {
        (void)joined;
        (void)in_flight_requests;
        (void)resident_kv_tokens; // eviction frees KV, nothing spills
        return c.cost.prefillSeconds(cfg.llm, 1, prompt_len) +
               preprocessSeconds(cfg, c.cost, 1, prompt_len);
    }

    /** Each request reserves min(final_len, budget) resident tokens;
     *  eviction bounds prefill residency too. */
    int64_t admitCap() const { return opts_.budget; }

    /** Admission verdict on the budget-bounded total `kv_tokens`. */
    AdmissionDecision admitReduced(const TimingConfig &cfg,
                                   const PriceContext &c, const PerR &one,
                                   int64_t r, int64_t kv_tokens,
                                   int64_t s_max,
                                   int64_t candidate_prompt_len) const;

  private:
    /** Resident KV tokens of one request at context length s. */
    int64_t residentTokens(int64_t s) const
    {
        return std::min(s, admitCap());
    }

    /** One-time scoring pass over the prompt: H2O's accumulated
     *  attention-mass pass over the prompt keys (the retriever's
     *  onPrefillComplete scan); seconds, added to prefill. */
    double preprocessSeconds(const TimingConfig &cfg,
                             const sim::CostModel &cost, int64_t requests,
                             int64_t prompt_len) const
    {
        if (!h2o_)
            return 0.0;
        const model::ModelConfig &m = cfg.llm;
        return cost.gemmFlopsSeconds(2.0 * requests * m.layers *
                                     m.kv_heads * prompt_len * m.head_dim);
    }

    /** Per-step eviction upkeep across all layers; seconds, added to
     *  every decode iteration. H2O, per layer: accumulate this step's
     *  attention mass into the tracked set and evict the arg-min
     *  outside each request's protected recent window — an on-GPU scan
     *  + top-k over at most `budget` candidates per request, no PCIe
     *  and no host sync. attended_total is batch-aggregate, so the
     *  exclusion is too. */
    double evictionSeconds(const TimingConfig &cfg,
                           const sim::CostModel &cost, int64_t requests,
                           int64_t attended_total) const
    {
        if (!h2o_)
            return 0.0;
        const int64_t candidates = std::max<int64_t>(
            attended_total - requests * opts_.recent_window, 1);
        return cfg.llm.layers *
               cost.retrievalSeconds(2.0 * cfg.llm.kv_heads * candidates,
                                     candidates);
    }

    const char *name_;
    bool h2o_;
};

TimingResult
EvictionSystem::simulate(const TimingConfig &cfg) const
{
    TimingResult r;
    const sim::CostModel cost(cfg.hw, backend());
    const model::ModelConfig &m = cfg.llm;
    const int64_t R = cfg.batch;
    const int64_t s_final = cfg.prompt_len + cfg.gen_len;
    const int64_t kvb = kvBytesPerTokenPerLayer(m);

    // Bounded residency: eviction runs during chunked prefill too, so
    // the cache never exceeds budget tokens per request per layer.
    const int64_t gpu_kv =
        R * residentTokens(s_final) * kvb * m.layers;
    if (weightFootprintBytes(m) + gpu_kv > cfg.hw.gpu_mem_bytes) {
        r.oom = true;
        r.oom_reason = "budget-bounded KV exceeds GPU memory";
        return r;
    }

    // --- Prefill (full prompt pass; evicted KV is freed, not moved) --
    r.prefill_seconds = cost.prefillSeconds(m, R, cfg.prompt_len);
    const double preprocess =
        preprocessSeconds(cfg, cost, R, cfg.prompt_len);
    r.prefill_seconds += preprocess;
    if (preprocess > 0.0)
        r.breakdown["preprocess"] += preprocess;

    // --- Decode: attention over the bounded resident set -------------
    for (int64_t t = 0; t < cfg.gen_len; ++t) {
        const int64_t attended = residentTokens(cfg.prompt_len + t);
        const sim::DecodeBreakdown b =
            cost.decodeStepBreakdown(m, R, attended);
        double dt = b.total;
        r.breakdown["attn"] += b.attn;
        r.breakdown["gemm"] += b.gemm + b.lm_head;
        r.breakdown["launch"] += b.launch;
        const double evict = evictionSeconds(cfg, cost, R, R * attended);
        if (evict > 0.0) {
            r.breakdown["evict"] += evict;
            dt += evict;
        }
        r.decode_seconds += dt;
    }

    const double total = r.prefill_seconds + r.decode_seconds;
    r.throughput = R * cfg.gen_len / total;
    r.decode_throughput = R * cfg.gen_len / r.decode_seconds;
    r.final_gpu_layers = m.layers;
    return r;
}

AdmissionDecision
EvictionSystem::admitReduced(const TimingConfig &cfg,
                             const PriceContext &c, const PerR &one,
                             int64_t r, int64_t kv_tokens, int64_t s_max,
                             int64_t candidate_prompt_len) const
{
    (void)one;
    (void)r;
    (void)s_max;
    (void)candidate_prompt_len;
    if (c.weights + kv_tokens * c.kvb * cfg.llm.layers >
        cfg.hw.gpu_mem_bytes)
        return {false, "budget-bounded KV reservations exceed GPU memory"};
    return {true, ""};
}

int64_t
EvictionSystem::hbmFootprintBytes(const TimingConfig &cfg,
                                  int64_t requests, int64_t s) const
{
    return weightFootprintBytes(cfg.llm) +
           requests * residentTokens(s) *
               kvBytesPerTokenPerLayer(cfg.llm) * cfg.llm.layers;
}

} // namespace

namespace detail {

void
registerEvictionSystems()
{
    addBuiltinSystem("H2O", [](const SystemOptions &o) {
        return std::make_shared<EvictionSystem>(o, "H2O", true);
    });
    // Sink + sliding window is input-agnostic: no preprocessing, no
    // per-step upkeep — the cheapest dataflow of the whole registry.
    addBuiltinSystem("StreamingLLM", [](const SystemOptions &o) {
        return std::make_shared<EvictionSystem>(o, "StreamingLLM", false);
    });
}

} // namespace detail
} // namespace core
} // namespace specontext
