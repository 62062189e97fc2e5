/**
 * @file
 * SpeContext: the paper's system. Runs the pruned retrieval head once
 * per step, attends a fixed budget in every layer, prefetches KV diffs
 * on the copy stream (C2), and drives placement with Algorithm 2 (C3).
 * The three feature flags reproduce the paper's ablation (Fig. 11).
 * Built on the FlashInfer framework (§7.5.1).
 */
#include "core/systems/registration.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace specontext {
namespace core {
namespace {

/** Width of the retrieval head's fused QK projection. */
int64_t
headProjDim(const model::ModelConfig &m)
{
    const int64_t kv_dim = m.attention == model::AttentionKind::MLA
                               ? m.mla_latent_dim
                               : m.kv_heads * m.head_dim;
    return m.q_heads * m.head_dim + kv_dim;
}

class SpeContextSystem final : public SystemModel
{
  public:
    using SystemModel::SystemModel;

    const char *name() const override { return "SpeContext"; }
    sim::KernelBackend backend() const override
    {
        return sim::KernelBackend::FlashInfer;
    }
    DataflowKind dataflow() const override
    {
        return DataflowKind::SpeContextElastic;
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

    /**
     * The one decode-iteration formula, parameterized on its pure
     * per-(config, batch-size) derivations so the per-call path and
     * the caching SpeContextPricer run literally the same arithmetic:
     * `base` must equal cost.decodeStepBreakdown(llm, R, 0),
     * `head_gemm` cost.gemmSeconds(R, headProjDim(llm), hidden),
     * `weight_stream` parameterBytesFp16 / (hbm_bw_gbps * 1e9), and
     * `mm` a MemoryModel over memoryInputs(cfg, R).
     */
    double decodeIterImpl(const TimingConfig &cfg,
                          const std::vector<int64_t> &kv_lens,
                          const sim::CostModel &cost,
                          const sim::DecodeBreakdown &base,
                          double head_gemm, double weight_stream,
                          const sim::MemoryModel &mm) const;

    /**
     * decodeIterImpl past the KV-length reduction: the arithmetic that
     * turns (R, attended_total, s_max) into seconds. The bulk-window
     * pricer maintains the two reduced integers incrementally and
     * enters here directly; the vector path funnels through after its
     * scan, so both run the identical tail. `all_resident_limit` is
     * mm.allResidentMaxTokens() (or -1 to disable the shortcut): while
     * s_max stays at or below it the Eq. 8 placement is exactly
     * all-resident and the per-round descent is skipped.
     */
    double decodeIterTail(const TimingConfig &cfg, int64_t R,
                          int64_t attended_total, int64_t s_max,
                          const sim::CostModel &cost,
                          const sim::DecodeBreakdown &base,
                          double head_gemm, double weight_stream,
                          const sim::MemoryModel &mm,
                          int64_t all_resident_limit) const;

    /**
     * The one admission-prefill formula: `cost` must be a CostModel
     * over (cfg.hw, backend()) and `mm` a MemoryModel over
     * memoryInputs(cfg, in_flight_requests + 1) — the joined batch.
     */
    double prefillWith(const sim::CostModel &cost,
                       const sim::MemoryModel &mm, const TimingConfig &cfg,
                       int64_t prompt_len, int64_t in_flight_requests,
                       int64_t resident_kv_tokens) const;

    /**
     * The one admission test: can a request of `candidate_final_len`
     * final tokens join the `n` in-flight reservations at `lens`? `mm`
     * must be a MemoryModel over memoryInputs(cfg, 1) (its headroom
     * queries take explicit request counts).
     */
    AdmissionDecision admitWith(const sim::MemoryModel &mm,
                                const TimingConfig &cfg,
                                const int64_t *lens, size_t n,
                                int64_t candidate_final_len) const;

    /** Attention budget (tokens attended per request per layer). */
    int64_t attentionBudget() const { return opts_.budget; }

    /** cpuLayers() against a caller-held MemoryModel (which must wrap
     *  memoryInputs(cfg, requests)). */
    int64_t cpuLayersWith(const sim::MemoryModel &mm,
                          const TimingConfig &cfg, int64_t requests,
                          int64_t s) const;

  private:
    /** KV layers resident in CPU DRAM for `requests` uniform requests
     *  of length s, honoring features.adaptive_memory (static
     *  all-or-nothing placement when C3 is off). */
    int64_t cpuLayers(const TimingConfig &cfg, int64_t requests,
                      int64_t s) const;
};

int64_t
SpeContextSystem::cpuLayers(const TimingConfig &cfg, int64_t requests,
                            int64_t s) const
{
    // Per-call MemoryModel construction is two validate() calls plus a
    // geometry derivation. The one-shot paths (simulate, footprints)
    // tolerate it; the serving loop goes through makePricer(), which
    // caches the model per batch size and calls cpuLayersWith()
    // directly.
    const sim::MemoryModel mm(memoryInputs(cfg, requests));
    return cpuLayersWith(mm, cfg, requests, s);
}

int64_t
SpeContextSystem::cpuLayersWith(const sim::MemoryModel &mm,
                                const TimingConfig &cfg,
                                int64_t requests, int64_t s) const
{
    if (!opts_.features.adaptive_memory) {
        // Static pre-inference decision (no C3): everything resident
        // when Eq. 6 fits at this shape, else full offload — the same
        // all-or-nothing rule simulate() applies.
        return mm.mAllBytesFor(requests, s) <= cfg.hw.gpu_mem_bytes
                   ? 0
                   : cfg.llm.layers;
    }
    const int64_t max_gpu = mm.maxGpuLayers(s);
    return max_gpu < 0 ? cfg.llm.layers : cfg.llm.layers - max_gpu;
}

TimingResult
SpeContextSystem::simulate(const TimingConfig &cfg) const
{
    TimingResult r;
    const sim::CostModel cost(cfg.hw, backend());
    const model::ModelConfig &m = cfg.llm;
    const int64_t R = cfg.batch;
    const int64_t s_final = cfg.prompt_len + cfg.gen_len;
    const int64_t kvb = kvBytesPerTokenPerLayer(m);
    const int64_t qk_dim = headProjDim(m);

    const sim::MemoryModel mm(memoryInputs(cfg, R));

    if (R * s_final * kvb * m.layers > cfg.hw.cpu_mem_bytes) {
        r.oom = true;
        r.oom_reason = "KV cache exceeds CPU memory";
        return r;
    }
    if (mm.maxGpuLayers(s_final) < 0) {
        r.oom = true;
        r.oom_reason = "weights + staging buffers exceed GPU memory";
        return r;
    }

    // Placement: static decision before inference (no C3) or
    // threshold-driven adaptive (C3, Algorithm 2).
    const std::vector<int64_t> th = mm.thresholds();
    int64_t l_cpu_static = 0;
    if (!opts_.features.adaptive_memory)
        l_cpu_static = mm.allFitsOnGpu(s_final) ? 0 : m.layers;

    auto cpuLayersAt = [&](int64_t s) -> int64_t {
        if (!opts_.features.adaptive_memory)
            return l_cpu_static;
        int64_t l_cpu = 0;
        while (l_cpu < m.layers && s >= th[l_cpu])
            ++l_cpu;
        return l_cpu;
    };

    // --- Prefill ------------------------------------------------------
    r.prefill_seconds = cost.prefillSeconds(m, R, cfg.prompt_len);
    // Retrieval head builds its K cache over the prompt: one fused
    // QK-projection GEMM over all prompt tokens.
    const double head_prefill = cost.gemmSeconds(
        R * cfg.prompt_len, qk_dim, m.hidden);
    r.prefill_seconds += head_prefill;
    r.breakdown["head"] += head_prefill;
    int64_t l_cpu = cpuLayersAt(cfg.prompt_len);
    if (l_cpu > 0) {
        const double evict = cost.pcieSeconds(
            R * cfg.prompt_len * kvb * l_cpu);
        // Prompt KV eviction overlaps with prefill compute when the
        // async dataflow exists.
        const double exposed = opts_.features.async_elastic ? 0.2 : 1.0;
        r.prefill_seconds += exposed * evict;
        r.breakdown["offload"] += exposed * evict;
    }

    // --- Decode -------------------------------------------------------
    const double reuse =
        opts_.features.async_elastic
            ? std::clamp(opts_.elastic_overlap, 0.0, 1.0)
            : 0.0;
    for (int64_t t = 0; t < cfg.gen_len; ++t) {
        const int64_t s = cfg.prompt_len + t;

        // C3: progressive layer offload when thresholds are crossed.
        const int64_t l_cpu_now = cpuLayersAt(s);
        double dt = 0.0;
        if (l_cpu_now > l_cpu) {
            for (int64_t i = l_cpu; i < l_cpu_now; ++i) {
                const double evict = cost.pcieSeconds(R * s * kvb);
                const double exposed =
                    opts_.features.async_elastic ? 0.3 : 1.0;
                dt += exposed * evict;
                r.breakdown["offload"] += exposed * evict;
            }
            l_cpu = l_cpu_now;
        }

        // Retrieval head: once per step, before the LLM (not per layer).
        const int64_t b_eff = std::min<int64_t>(opts_.budget, s);
        const double head =
            cost.gemmSeconds(R, qk_dim, m.hidden) +
            cost.retrievalSeconds(
                2.0 * R * m.q_heads * m.head_dim * s, s);
        r.breakdown["head"] += head;

        const sim::DecodeBreakdown b =
            cost.decodeStepBreakdown(m, R, b_eff);
        r.breakdown["attn"] += b.attn;
        r.breakdown["gemm"] += b.gemm + b.lm_head;
        r.breakdown["launch"] += b.launch;

        const int64_t diff_tokens = static_cast<int64_t>(
            (1.0 - reuse) * static_cast<double>(b_eff));
        const double xfer =
            l_cpu > 0 ? cost.pcieSeconds(R * diff_tokens * kvb * l_cpu)
                      : 0.0;
        if (opts_.features.async_elastic) {
            // C2: prefetch on the copy stream; only the excess beyond
            // compute is exposed, plus one event sync.
            const double exposed =
                std::max(0.0, xfer - b.total) + cost.syncSeconds();
            r.breakdown["transfer"] += exposed;
            dt += head + b.total + exposed;
        } else {
            // C1 only: synchronous full-budget load per offloaded layer.
            const double sync_xfer =
                l_cpu > 0
                    ? l_cpu * cost.pcieSeconds(R * b_eff * kvb)
                    : 0.0;
            r.breakdown["transfer"] += sync_xfer;
            dt += head + b.total + sync_xfer;
        }
        r.decode_seconds += dt;
    }

    const double total = r.prefill_seconds + r.decode_seconds;
    r.throughput = R * cfg.gen_len / total;
    r.decode_throughput = R * cfg.gen_len / r.decode_seconds;
    r.final_gpu_layers = m.layers - l_cpu;
    return r;
}

double
SpeContextSystem::requestPrefillSeconds(const TimingConfig &cfg,
                                        int64_t prompt_len,
                                        int64_t in_flight_requests,
                                        int64_t resident_kv_tokens) const
{
    const sim::CostModel cost(cfg.hw, backend());
    const sim::MemoryModel mm(memoryInputs(cfg, in_flight_requests + 1));
    return prefillWith(cost, mm, cfg, prompt_len, in_flight_requests,
                       resident_kv_tokens);
}

double
SpeContextSystem::prefillWith(const sim::CostModel &cost,
                              const sim::MemoryModel &mm,
                              const TimingConfig &cfg, int64_t prompt_len,
                              int64_t in_flight_requests,
                              int64_t resident_kv_tokens) const
{
    const model::ModelConfig &m = cfg.llm;
    const int64_t kvb = kvBytesPerTokenPerLayer(m);
    double t = cost.prefillSeconds(m, 1, prompt_len);

    // Retrieval head builds its K cache over the joining prompt
    // (one fused QK-projection GEMM, as in simulate()).
    t += cost.gemmSeconds(prompt_len, headProjDim(m), m.hidden);

    // Prompt-KV eviction for the layers the placement keeps in CPU
    // DRAM at the *joined batch's* shape: Eq. 7 prices uniform-length
    // requests, so the heterogeneous batch is uniformized to its mean
    // resident length (total KV conserved) — a short prompt joining an
    // oversubscribed batch still pays its eviction. Overlap with
    // prefill compute follows simulate()'s exposure rule.
    const int64_t r_joined = in_flight_requests + 1;
    const int64_t s_uniform = std::max(
        prompt_len, (resident_kv_tokens + prompt_len) / r_joined);
    const int64_t l_cpu = cpuLayersWith(mm, cfg, r_joined, s_uniform);
    if (l_cpu > 0) {
        const double evict =
            cost.pcieSeconds(prompt_len * kvb * l_cpu);
        const double exposed = opts_.features.async_elastic ? 0.2 : 1.0;
        t += exposed * evict;
    }
    return t;
}

double
SpeContextSystem::decodeIterImpl(const TimingConfig &cfg,
                                 const std::vector<int64_t> &kv_lens,
                                 const sim::CostModel &cost,
                                 const sim::DecodeBreakdown &base,
                                 double head_gemm, double weight_stream,
                                 const sim::MemoryModel &mm) const
{
    const int64_t R = static_cast<int64_t>(kv_lens.size());

    // Attention reads at most `budget` tokens per request. The
    // reduction is inlined (rather than routed through
    // stepComputeSeconds' std::function callback) because this runs
    // once per simulated decode iteration; the arithmetic tail is the
    // shared stepComputeFromTotals, so the result is identical.
    int64_t attended_total = 0;
    int64_t s_max = 0;
    for (int64_t s : kv_lens) {
        if (s <= 0)
            throw std::invalid_argument(
                "decodeIterationSeconds: non-positive KV length");
        attended_total += std::min<int64_t>(opts_.budget, s);
        s_max = std::max(s_max, s);
    }
    return decodeIterTail(cfg, R, attended_total, s_max, cost, base,
                          head_gemm, weight_stream, mm, -1);
}

double
SpeContextSystem::decodeIterTail(const TimingConfig &cfg, int64_t R,
                                 int64_t attended_total, int64_t s_max,
                                 const sim::CostModel &cost,
                                 const sim::DecodeBreakdown &base,
                                 double head_gemm, double weight_stream,
                                 const sim::MemoryModel &mm,
                                 int64_t all_resident_limit) const
{
    const model::ModelConfig &m = cfg.llm;
    const double step_compute = stepComputeFromTotals(
        cfg, cost, base, attended_total, weight_stream);

    // Retrieval head once per iteration over the whole batch (scoring
    // scans each request's context, bounded by the longest in-flight
    // one), then the offloaded-layer KV movement of simulate() — Eq. 8
    // placement at the current batch shape decides how many layers
    // live in CPU DRAM.
    const double head =
        head_gemm +
        cost.retrievalSeconds(2.0 * R * m.q_heads * m.head_dim * s_max,
                              s_max);

    // Both placement modes (static Eq. 6 and adaptive Eq. 8) reduce to
    // the same all-resident fit test while s_max is under the limit,
    // so the shortcut yields the exact l_cpu = 0 either would.
    const int64_t l_cpu = s_max <= all_resident_limit
                              ? 0
                              : cpuLayersWith(mm, cfg, R, s_max);

    if (opts_.features.async_elastic) {
        // C2: prefetch the selection diff on the copy stream; only the
        // excess beyond compute is exposed, plus one event sync.
        const double reuse =
            std::clamp(opts_.elastic_overlap, 0.0, 1.0);
        const int64_t diff_tokens = static_cast<int64_t>(
            (1.0 - reuse) * static_cast<double>(attended_total));
        // The per-token KV byte width only prices offloaded layers, so
        // the fully-resident round (the hot case) never derives it.
        const double xfer =
            l_cpu > 0 ? cost.pcieSeconds(diff_tokens *
                                         kvBytesPerTokenPerLayer(m) *
                                         l_cpu)
                      : 0.0;
        return step_compute + head +
               std::max(0.0, xfer - step_compute) + cost.syncSeconds();
    }
    // C1 only: synchronous full-budget load per offloaded layer.
    const double sync_xfer =
        l_cpu > 0 ? l_cpu * cost.pcieSeconds(
                                attended_total *
                                kvBytesPerTokenPerLayer(m))
                  : 0.0;
    return step_compute + head + sync_xfer;
}

double
SpeContextSystem::decodeIterationSeconds(
    const TimingConfig &cfg, const std::vector<int64_t> &kv_lens) const
{
    if (kv_lens.empty())
        return 0.0;
    const sim::CostModel cost(cfg.hw, backend());
    const model::ModelConfig &m = cfg.llm;
    const int64_t R = static_cast<int64_t>(kv_lens.size());
    const sim::MemoryModel mm(memoryInputs(cfg, R));
    const double weight_stream =
        double(m.parameterBytesFp16()) / (cfg.hw.hbm_bw_gbps * 1e9);
    return decodeIterImpl(cfg, kv_lens, cost,
                          cost.decodeStepBreakdown(m, R, 0),
                          cost.gemmSeconds(R, headProjDim(m), m.hidden),
                          weight_stream, mm);
}

/**
 * Caching pricer: the CostModel, weight-streaming floor, and per batch
 * size R the step breakdown, retrieval-head GEMM price and MemoryModel
 * are pure functions of the bound config, derived once and reused.
 * Decode reads the table at R = batch, admission prefill at R =
 * in-flight + 1, and the admission probes at R = 1; each query then
 * runs the same decodeIterImpl / prefillWith / admitWith arithmetic,
 * in the same order, on the same values as the per-call path, so every
 * result is bit-identical.
 */
class SpeContextPricer final : public SystemPricer
{
  public:
    SpeContextPricer(const SpeContextSystem &sys, const TimingConfig &cfg)
        : sys_(sys), cfg_(cfg), cost_(cfg_.hw, sys.backend()),
          weight_stream_(double(cfg_.llm.parameterBytesFp16()) /
                         (cfg_.hw.hbm_bw_gbps * 1e9))
    {
        // The admission entry up front: a config its MemoryModel
        // rejects throws here, at construction, not at the first probe.
        perR(1);
    }

    double decodeSeconds(const std::vector<int64_t> &kv_lens) override
    {
        if (kv_lens.empty())
            return 0.0;
        const PerR &p = perR(kv_lens.size());
        return sys_.decodeIterImpl(cfg_, kv_lens, cost_, p.base,
                                   p.head_gemm, weight_stream_, p.mm);
    }

    double prefillSeconds(int64_t prompt_len, int64_t in_flight_requests,
                          int64_t resident_kv_tokens) override
    {
        const PerR &p = perR(static_cast<size_t>(in_flight_requests + 1));
        return sys_.prefillWith(cost_, p.mm, cfg_, prompt_len,
                                in_flight_requests, resident_kv_tokens);
    }

    AdmissionDecision admit(const std::vector<int64_t> &in_flight_final_lens,
                            int64_t candidate_prompt_len,
                            int64_t candidate_final_len) override
    {
        (void)candidate_prompt_len;
        return sys_.admitWith(perR(1).mm, cfg_, in_flight_final_lens.data(),
                              in_flight_final_lens.size(),
                              candidate_final_len);
    }

    AdmissionDecision fitsCurrent(const std::vector<int64_t> &kv_lens) override
    {
        if (kv_lens.empty())
            return {true, ""};
        // The base-class fitsCurrent splits [rest..., back] and calls
        // admit(rest, 1, back); pass the split as a span, no copy.
        return sys_.admitWith(perR(1).mm, cfg_, kv_lens.data(),
                              kv_lens.size() - 1, kv_lens.back());
    }

    /**
     * Incremental window (see SystemPricer::beginWindow): the two
     * reduced integers a round needs — attended_total (Σ min(budget,
     * s_i)) and s_max — evolve predictably under uniform +1 growth:
     * s_max gains one every round, and attended_total gains one per
     * context still under the attention budget. A context stops
     * contributing at a round index known at window start (budget -
     * s_i), so a growing-context count plus the next crossing index
     * replace the O(R) rescan; windows are typically far shorter than
     * the distance to the nearest crossing, so the recount is rare.
     * The seconds come from the same decodeIterTail the vector path
     * funnels into, on the same integers, so every round is
     * bit-identical to a decodeSeconds() call on the grown vector.
     */
    void beginWindow(const std::vector<int64_t> &kv_lens) override
    {
        win_r_ = static_cast<int64_t>(kv_lens.size());
        win_p_ = win_r_ > 0 ? &perR(kv_lens.size()) : nullptr;
        win_attended_ = 0;
        win_smax_ = 0;
        win_round_ = 0;
        win_grow_ = 0;
        win_next_cross_ = std::numeric_limits<int64_t>::max();
        win_base_.assign(kv_lens.begin(), kv_lens.end());
        const int64_t budget = sys_.attentionBudget();
        for (int64_t s : kv_lens) {
            if (s <= 0)
                throw std::invalid_argument(
                    "decodeIterationSeconds: non-positive KV length");
            win_attended_ += std::min<int64_t>(budget, s);
            win_smax_ = std::max(win_smax_, s);
            if (s < budget) {
                ++win_grow_;
                win_next_cross_ =
                    std::min(win_next_cross_, budget - s);
            }
        }
        win_limit_ = win_p_ ? win_p_->all_resident_limit : -1;
    }

    double nextRoundSeconds() override
    {
        if (win_r_ == 0)
            return 0.0;
        return roundPrice();
    }

    /** The fused window loop: identical break logic and accumulation
     *  order to the base-class loop, but the per-round price inlines
     *  into the loop body (roundPrice() and decodeIterTail live in
     *  this translation unit), so a window costs one virtual dispatch
     *  total instead of one per round. */
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

    /** Every SpeContext round is floored by the weight-streaming time:
     *  stepComputeFromTotals() takes max(..., weight_stream) and
     *  decodeIterTail() only adds non-negative head/transfer terms on
     *  top, so weight_stream_ lower-bounds any round at any shape. */
    double minRoundSeconds() const override { return weight_stream_; }

  private:
    /** Pure per-(config, R) derivations. Held behind unique_ptr so the
     *  open window's pointer survives the table growing under a
     *  prefill or admission query. */
    struct PerR
    {
        sim::DecodeBreakdown base; ///< cost.decodeStepBreakdown(llm, R, 0)
        double head_gemm;          ///< retrieval-head GEMM at R
        sim::MemoryModel mm;       ///< over memoryInputs(cfg, R)
        int64_t all_resident_limit; ///< mm.allResidentMaxTokens()
    };

    /** One window round: advance the reduced integers, price them.
     *  Requires an open window with win_r_ > 0. */
    double roundPrice()
    {
        if (win_round_ > 0) {
            // Round index r evaluates lengths s_i + r: attended grows
            // by the count of contexts with budget - s_i >= r. The
            // count only changes when r passes a crossing; recount
            // from the window-base lengths then.
            if (win_next_cross_ < win_round_) {
                const int64_t budget = sys_.attentionBudget();
                win_grow_ = 0;
                win_next_cross_ =
                    std::numeric_limits<int64_t>::max();
                for (int64_t s : win_base_) {
                    const int64_t c = budget - s;
                    if (c >= win_round_) {
                        ++win_grow_;
                        win_next_cross_ = std::min(win_next_cross_, c);
                    }
                }
            }
            win_attended_ += win_grow_;
            ++win_smax_;
        }
        ++win_round_;
        return sys_.decodeIterTail(cfg_, win_r_, win_attended_,
                                   win_smax_, cost_, win_p_->base,
                                   win_p_->head_gemm, weight_stream_,
                                   win_p_->mm, win_limit_);
    }

    const PerR &perR(size_t r)
    {
        if (r >= per_r_.size())
            per_r_.resize(r + 1);
        std::unique_ptr<PerR> &p = per_r_[r];
        if (!p) {
            const model::ModelConfig &m = cfg_.llm;
            const int64_t R = static_cast<int64_t>(r);
            sim::MemoryModel mm(sys_.memoryInputs(cfg_, R));
            const int64_t limit = mm.allResidentMaxTokens();
            p.reset(new PerR{cost_.decodeStepBreakdown(m, R, 0),
                             cost_.gemmSeconds(R, headProjDim(m), m.hidden),
                             std::move(mm), limit});
        }
        return *p;
    }

    const SpeContextSystem &sys_;
    TimingConfig cfg_; ///< owns the system keepalive (shared_ptr inside)
    sim::CostModel cost_;
    double weight_stream_; ///< R-independent weight-streaming floor
    /** Indexed by batch size R, lazily filled. */
    std::vector<std::unique_ptr<PerR>> per_r_;

    // ---- Bulk-window state (see beginWindow) ------------------------
    int64_t win_r_ = 0;        ///< batch size of the open window
    const PerR *win_p_ = nullptr;
    int64_t win_attended_ = 0; ///< Σ min(budget, s_i + round)
    int64_t win_smax_ = 0;     ///< max s_i + round
    int64_t win_round_ = 0;    ///< rounds evaluated so far
    int64_t win_limit_ = -1;   ///< all-resident shortcut bound
    int64_t win_grow_ = 0;     ///< contexts still under budget
    int64_t win_next_cross_ = 0; ///< earliest budget-crossing round
    std::vector<int64_t> win_base_; ///< window-base lengths (recounts)
};

std::unique_ptr<SystemPricer>
SpeContextSystem::makePricer(const TimingConfig &cfg) const
{
    return std::make_unique<SpeContextPricer>(*this, cfg);
}

AdmissionDecision
SpeContextSystem::admit(const TimingConfig &cfg,
                        const std::vector<int64_t> &in_flight_final_lens,
                        int64_t candidate_prompt_len,
                        int64_t candidate_final_len) const
{
    (void)candidate_prompt_len;
    const sim::MemoryModel mm(memoryInputs(cfg, 1));
    return admitWith(mm, cfg, in_flight_final_lens.data(),
                     in_flight_final_lens.size(), candidate_final_len);
}

AdmissionDecision
SpeContextSystem::admitWith(const sim::MemoryModel &mm,
                            const TimingConfig &cfg, const int64_t *lens,
                            size_t n, int64_t candidate_final_len) const
{
    const int64_t r = static_cast<int64_t>(n) + 1;
    // Eq. 7 prices R uniform-length requests; bound the heterogeneous
    // batch by its longest final reservation (conservative).
    int64_t s_max = candidate_final_len;
    int64_t kv_tokens = candidate_final_len;
    for (size_t i = 0; i < n; ++i) {
        s_max = std::max(s_max, lens[i]);
        kv_tokens += lens[i];
    }
    if (!mm.fitsWithOffload(r, s_max))
        return {false, "no offload level fits (Eq. 7 headroom exhausted)"};
    // Offloaded layers land in CPU DRAM; the full KV cache must fit
    // there in the worst (all-offloaded) placement. Exact per-request
    // sum — DRAM capacity is not a uniform-length bound.
    const int64_t kvb = kvBytesPerTokenPerLayer(cfg.llm);
    if (kv_tokens * kvb * cfg.llm.layers > cfg.hw.cpu_mem_bytes)
        return {false, "offloaded KV would exceed CPU DRAM"};
    return {true, ""};
}

int64_t
SpeContextSystem::hbmFootprintBytes(const TimingConfig &cfg,
                                    int64_t requests, int64_t s) const
{
    const sim::MemoryModel mm(memoryInputs(cfg, requests));
    const int64_t l_cpu = cpuLayersWith(mm, cfg, requests, s);
    return mm.mPartBytesFor(requests, s, cfg.llm.layers - l_cpu);
}

int64_t
SpeContextSystem::dramFootprintBytes(const TimingConfig &cfg,
                                     int64_t requests, int64_t s) const
{
    const int64_t l_cpu = cpuLayers(cfg, requests, s);
    return requests * s * kvBytesPerTokenPerLayer(cfg.llm) * l_cpu;
}

} // namespace

namespace detail {

void
registerSpeContextSystem()
{
    addBuiltinSystem("SpeContext", [](const SystemOptions &o) {
        return std::make_shared<SpeContextSystem>(o);
    });
}

} // namespace detail
} // namespace core
} // namespace specontext
