/**
 * @file
 * SpeContext: the paper's system. Runs the pruned retrieval head once
 * per step, attends a fixed budget in every layer, prefetches KV diffs
 * on the copy stream (C2), and drives placement with Algorithm 2 (C3).
 * The three feature flags reproduce the paper's ablation (Fig. 11).
 * Built on the FlashInfer framework (§7.5.1).
 */
#include "core/systems/registration.h"
#include "core/tabled_pricer.h"

#include <algorithm>
#include <limits>

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

class SpeContextSystem final : public TabledSystem<SpeContextSystem>
{
  public:
    using TabledSystem::TabledSystem;

    const char *name() const override { return "SpeContext"; }
    sim::KernelBackend backend() const override
    {
        return sim::KernelBackend::FlashInfer;
    }
    DataflowKind dataflow() const override
    {
        return DataflowKind::SpeContextElastic;
    }

    TimingResult simulate(const TimingConfig &cfg) const override;
    int64_t hbmFootprintBytes(const TimingConfig &cfg, int64_t requests,
                              int64_t s) const override;
    int64_t dramFootprintBytes(const TimingConfig &cfg, int64_t requests,
                               int64_t s) const override;

    // ---- TabledSystem hooks (see core/tabled_pricer.h) --------------

    /** Pure per-(config, R) terms. */
    struct PerR
    {
        sim::DecodeBreakdown base; ///< cost.decodeStepBreakdown(llm, R, 0)
        double head_gemm;          ///< retrieval-head GEMM at R
        sim::MemoryModel mm;       ///< over memoryInputs(cfg, R)
        int64_t all_resident_limit; ///< mm.allResidentMaxTokens()
    };
    PerR tableEntry(const TimingConfig &cfg, const PriceContext &c,
                    int64_t R) const;

    /** Attention reads at most `budget` tokens per request. */
    int64_t attendCap() const { return opts_.budget; }

    /** Step compute, retrieval head (C1), then the offloaded-layer KV
     *  movement at the Eq. 8 placement of the current batch shape. */
    double roundSeconds(const TimingConfig &cfg, const PriceContext &c,
                        const PerR &p, int64_t R, int64_t attended_total,
                        int64_t s_max) const;

    /** Admission prefill; `joined` is the entry at in-flight + 1. */
    double prefillWith(const TimingConfig &cfg, const PriceContext &c,
                       const PerR &joined, int64_t prompt_len,
                       int64_t in_flight_requests,
                       int64_t resident_kv_tokens) const;

    /** Every token of a reservation is held (GPU or DRAM). */
    int64_t admitCap() const { return std::numeric_limits<int64_t>::max(); }

    /** Can `r` reservations totalling `kv_tokens`, the longest
     *  `s_max`, run? `one` is the entry at R = 1 (its headroom queries
     *  take explicit request counts). */
    AdmissionDecision admitReduced(const TimingConfig &cfg,
                                   const PriceContext &c, const PerR &one,
                                   int64_t r, int64_t kv_tokens,
                                   int64_t s_max,
                                   int64_t candidate_prompt_len) const;

  private:
    /** KV layers resident in CPU DRAM for `requests` uniform requests
     *  of length s, honoring features.adaptive_memory (static
     *  all-or-nothing placement when C3 is off). `mm` must wrap
     *  memoryInputs(cfg, requests). */
    int64_t cpuLayersWith(const sim::MemoryModel &mm,
                          const TimingConfig &cfg, int64_t requests,
                          int64_t s) const;
};

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
        opts_.features.async_elastic ? opts_.elastic_overlap : 0.0;
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

SpeContextSystem::PerR
SpeContextSystem::tableEntry(const TimingConfig &cfg, const PriceContext &c,
                             int64_t R) const
{
    const model::ModelConfig &m = cfg.llm;
    sim::MemoryModel mm(memoryInputs(cfg, R));
    const int64_t limit = mm.allResidentMaxTokens();
    return {c.cost.decodeStepBreakdown(m, R, 0),
            c.cost.gemmSeconds(R, headProjDim(m), m.hidden), std::move(mm),
            limit};
}

double
SpeContextSystem::prefillWith(const TimingConfig &cfg, const PriceContext &c,
                              const PerR &joined, int64_t prompt_len,
                              int64_t in_flight_requests,
                              int64_t resident_kv_tokens) const
{
    const model::ModelConfig &m = cfg.llm;
    double t = c.cost.prefillSeconds(m, 1, prompt_len);

    // Retrieval head builds its K cache over the joining prompt
    // (one fused QK-projection GEMM, as in simulate()).
    t += c.cost.gemmSeconds(prompt_len, headProjDim(m), m.hidden);

    // Prompt-KV eviction for the layers the placement keeps in CPU
    // DRAM at the *joined batch's* shape: Eq. 7 prices uniform-length
    // requests, so the heterogeneous batch is uniformized to its mean
    // resident length (total KV conserved) — a short prompt joining an
    // oversubscribed batch still pays its eviction. Overlap with
    // prefill compute follows simulate()'s exposure rule.
    const int64_t r_joined = in_flight_requests + 1;
    const int64_t s_uniform = std::max(
        prompt_len, (resident_kv_tokens + prompt_len) / r_joined);
    const int64_t l_cpu = cpuLayersWith(joined.mm, cfg, r_joined, s_uniform);
    if (l_cpu > 0) {
        const double evict = c.cost.pcieSeconds(prompt_len * c.kvb * l_cpu);
        const double exposed = opts_.features.async_elastic ? 0.2 : 1.0;
        t += exposed * evict;
    }
    return t;
}

// inline: the round tail is the body of the pricer's fused window loop.
inline double
SpeContextSystem::roundSeconds(const TimingConfig &cfg, const PriceContext &c,
                               const PerR &p, int64_t R,
                               int64_t attended_total, int64_t s_max) const
{
    const model::ModelConfig &m = cfg.llm;
    const double step_compute = c.stepCompute(m, p.base, attended_total);

    // Retrieval head once per iteration over the whole batch (scoring
    // scans each request's context, bounded by the longest in-flight
    // one), then the offloaded-layer KV movement of simulate() — Eq. 8
    // placement at the current batch shape decides how many layers
    // live in CPU DRAM.
    const double head =
        p.head_gemm +
        c.cost.retrievalSeconds(2.0 * R * m.q_heads * m.head_dim * s_max,
                                s_max);

    // Both placement modes (static Eq. 6 and adaptive Eq. 8) reduce to
    // the same all-resident fit test while s_max is under the limit,
    // so the shortcut yields the exact l_cpu = 0 either would
    // (MemoryModelFast.AllResidentMaxTokensIsTheExactThreshold pins
    // both equivalences).
    const int64_t l_cpu = s_max <= p.all_resident_limit
                              ? 0
                              : cpuLayersWith(p.mm, cfg, R, s_max);

    if (opts_.features.async_elastic) {
        // C2: prefetch the selection diff on the copy stream; only the
        // excess beyond compute is exposed, plus one event sync.
        const int64_t diff_tokens = static_cast<int64_t>(
            (1.0 - opts_.elastic_overlap) *
            static_cast<double>(attended_total));
        const double xfer =
            l_cpu > 0 ? c.cost.pcieSeconds(diff_tokens * c.kvb * l_cpu)
                      : 0.0;
        return step_compute + head +
               std::max(0.0, xfer - step_compute) + c.cost.syncSeconds();
    }
    // C1 only: synchronous full-budget load per offloaded layer.
    const double sync_xfer =
        l_cpu > 0 ? l_cpu * c.cost.pcieSeconds(attended_total * c.kvb)
                  : 0.0;
    return step_compute + head + sync_xfer;
}

AdmissionDecision
SpeContextSystem::admitReduced(const TimingConfig &cfg,
                               const PriceContext &c, const PerR &one,
                               int64_t r, int64_t kv_tokens, int64_t s_max,
                               int64_t candidate_prompt_len) const
{
    (void)candidate_prompt_len;
    // Eq. 7 prices R uniform-length requests; bound the heterogeneous
    // batch by its longest final reservation (conservative).
    if (!one.mm.fitsWithOffload(r, s_max))
        return {false, "no offload level fits (Eq. 7 headroom exhausted)"};
    // Offloaded layers land in CPU DRAM; the full KV cache must fit
    // there in the worst (all-offloaded) placement. Exact per-request
    // sum — DRAM capacity is not a uniform-length bound.
    if (kv_tokens * c.kvb * cfg.llm.layers > cfg.hw.cpu_mem_bytes)
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
    const sim::MemoryModel mm(memoryInputs(cfg, requests));
    const int64_t l_cpu = cpuLayersWith(mm, cfg, requests, s);
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
