/**
 * @file
 * The one pricing engine of every continuous-batching system.
 *
 * A continuous system prices a decode round from two reduced integers,
 * the attended total Σ min(cap, s_i) and the longest context max s_i,
 * plus terms that depend only on the config and the batch size R. A
 * system that derives from `TabledSystem<Sys>` supplies only those
 * pieces, as plain (non-virtual) members:
 *
 *  - `struct PerR` and `PerR tableEntry(cfg, ctx, R)`: the pure
 *    per-(config, R) terms;
 *  - `int64_t attendCap()`: tokens one request attends at most
 *    (INT64_MAX for full attention);
 *  - `double roundSeconds(cfg, ctx, entry, R, attended_total, s_max)`:
 *    the round tail that turns the reduced integers into seconds;
 *  - `prefillWith(cfg, ctx, entry at in-flight + 1, ...)`: the
 *    admission prefill;
 *  - `int64_t admitCap()` and `admitReduced(cfg, ctx, entry at R = 1,
 *    R, kv_tokens, s_max, candidate_prompt_len)`: the memory test. It
 *    reads only R, the reserved total Σ min(admitCap, s_i) and the
 *    longest context max s_i (candidate included), and must only
 *    tighten as any of them grows.
 *
 * In return it gets `TabledPricer<Sys>`, the only SystemPricer: it
 * binds the context once, tables the entries by R and runs the
 * incremental decode window. Since the tail is a non-virtual member of
 * `Sys`, it inlines into the fused window loop.
 *
 * Every hook takes the bound TimingConfig and its PriceContext as two
 * arguments; the pricer passes its own member config, so an inlined
 * tail reads the geometry at a fixed offset.
 *
 * Since the memory test reads reduced integers only, the pricer also
 * answers fitRounds() (how many upcoming decode rounds still fit) by
 * probing those integers a number of rounds ahead: no probe rebuilds a
 * length vector or makes a virtual call.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/system_model.h"

namespace specontext {
namespace core {

/**
 * The pure per-config derivations every continuous system prices from,
 * over one TimingConfig. A pricer binds one for its lifetime.
 */
struct PriceContext
{
    PriceContext(const TimingConfig &cfg, sim::KernelBackend backend)
        : cost(cfg.hw, backend), kvb(kvBytesPerTokenPerLayer(cfg.llm)),
          weights(weightFootprintBytes(cfg.llm)),
          weight_stream(double(cfg.llm.parameterBytesFp16()) /
                        (cfg.hw.hbm_bw_gbps * 1e9))
    {
    }

    /**
     * One round's step compute: the batch-wide GEMMs, launches and LM
     * head of `base` (which must equal cost.decodeStepBreakdown(llm, R,
     * 0)) plus attention over `attended_total` tokens, floored by
     * weight streaming. attentionDecodeSeconds is linear in batch *
     * kv_len, so one call at the total equals the per-request sum.
     */
    double stepCompute(const model::ModelConfig &m,
                       const sim::DecodeBreakdown &base,
                       int64_t attended_total) const
    {
        const double attn =
            m.layers *
            cost.attentionDecodeSeconds(
                1, m.q_heads,
                m.attention == model::AttentionKind::MLA ? m.q_heads
                                                         : m.kv_heads,
                m.head_dim, attended_total);
        // compute_fixed pre-adds (gemm + launch) + lm_head.
        return std::max(base.compute_fixed + attn, weight_stream);
    }

    sim::CostModel cost;  ///< over (cfg.hw, the system's backend)
    int64_t kvb;          ///< kvBytesPerTokenPerLayer(llm)
    int64_t weights;      ///< weightFootprintBytes(llm)
    double weight_stream; ///< weight-streaming time, every round's floor
};

/** Throws on a non-positive KV length. */
inline void
requirePositive(int64_t s)
{
    if (s <= 0)
        throw std::invalid_argument(
            "SystemPricer: non-positive KV length");
}

/**
 * The SystemPricer of every continuous system: binds the config, its
 * PriceContext and a lazily filled per-R table of Sys::PerR entries,
 * and runs the decode window.
 *
 * The window keeps the two reduced integers incrementally. Under
 * uniform +1 growth s_max gains one every round, and attended_total
 * gains one per context still under `cap`. A context stops growing at
 * a round index known at window start (cap - s_i), so a growing count
 * plus the next crossing index replace the O(R) rescan; when a round
 * passes a crossing the count is redone from the window-base lengths.
 * Windows are usually far shorter than the distance to the nearest
 * crossing, and full attention (cap = INT64_MAX) never crosses.
 */
template <class Sys>
class TabledPricer final : public SystemPricer
{
  public:
    using PerR = typename Sys::PerR;

    /** Builds the admission entry (R = 1) up front: a config the
     *  entry builder rejects throws here, at construction, not at the
     *  first probe. */
    TabledPricer(const Sys &sys, const TimingConfig &cfg)
        : sys_(sys), cfg_(cfg), ctx_(cfg_, sys.backend()),
          cap_(sys.attendCap()), admit_cap_(sys.admitCap()),
          one_(sys.tableEntry(cfg_, ctx_, 1))
    {
    }

    double decodeSeconds(const std::vector<int64_t> &kv_lens) override
    {
        if (kv_lens.empty())
            return 0.0;
        // The one per-round reduction: Σ min(cap, s) and max s.
        int64_t attended_total = 0;
        int64_t s_max = 0;
        for (int64_t s : kv_lens) {
            requirePositive(s);
            attended_total += std::min(cap_, s);
            s_max = std::max(s_max, s);
        }
        const int64_t r = static_cast<int64_t>(kv_lens.size());
        return sys_.roundSeconds(cfg_, ctx_, entry(r), r, attended_total,
                                 s_max);
    }

    void beginWindow(const std::vector<int64_t> &kv_lens) override
    {
        Window w;
        w.r = static_cast<int64_t>(kv_lens.size());
        w.p = w.r > 0 ? &entry(w.r) : nullptr;
        if (cap_ == std::numeric_limits<int64_t>::max()) {
            // Nothing crosses an unbounded cap: every context grows
            // and no recount ever reads the base lengths.
            for (int64_t s : kv_lens) {
                requirePositive(s);
                w.attended += s;
                w.smax = std::max(w.smax, s);
            }
            w.grow = w.r;
        } else {
            // The longest context under the cap crosses it first.
            int64_t under_max = 0;
            for (int64_t s : kv_lens) {
                requirePositive(s);
                const bool under = s < cap_;
                w.attended += std::min(cap_, s);
                w.smax = std::max(w.smax, s);
                w.grow += under;
                under_max = std::max(under_max, under ? s : int64_t{0});
            }
            if (w.grow > 0) {
                w.next_cross = cap_ - under_max;
                win_base_.assign(kv_lens.begin(), kv_lens.end());
            }
        }
        // Pre-subtract one round's growth: every round, round 0
        // included, adds it back before pricing.
        w.attended -= w.grow;
        --w.smax;
        win_ = w;
    }

    /** The fused window loop: the per-round price inlines into the
     *  loop body, so a window costs one virtual dispatch in total. The
     *  window state and the round count live in locals for the loop's
     *  duration, so no round stores them to memory. */
    double runWindow(int64_t max_rounds, double now, double horizon,
                     double t_pending, int64_t &rounds,
                     double &first_now) override
    {
        Window w = win_;
        int64_t n = 0;
        for (;;) {
            now += w.r > 0 ? roundPrice(w) : 0.0;
            if (++n == 1)
                first_now = now;
            if (n >= max_rounds || !(now < horizon) || t_pending <= now)
                break;
        }
        win_ = w;
        rounds = n;
        return now;
    }

    /** Every tail takes the step compute, floored by weight streaming,
     *  and only adds non-negative terms to it. */
    double minRoundSeconds() const override { return ctx_.weight_stream; }

    double prefillSeconds(int64_t prompt_len, int64_t in_flight_requests,
                          int64_t resident_kv_tokens) override
    {
        if (prompt_len <= 0)
            throw std::invalid_argument(
                "prefillSeconds: non-positive prompt");
        if (in_flight_requests < 0 || resident_kv_tokens < 0)
            throw std::invalid_argument(
                "prefillSeconds: negative batch state");
        return sys_.prefillWith(cfg_, ctx_, entry(in_flight_requests + 1),
                                prompt_len, in_flight_requests,
                                resident_kv_tokens);
    }

    /** Reduce, then ask the system. */
    AdmissionDecision admit(const std::vector<int64_t> &in_flight_final_lens,
                            int64_t candidate_prompt_len,
                            int64_t candidate_final_len) override
    {
        int64_t kv = std::min(admit_cap_, candidate_final_len);
        int64_t s_max = candidate_final_len;
        for (int64_t s : in_flight_final_lens) {
            kv += std::min(admit_cap_, s);
            s_max = std::max(s_max, s);
        }
        const int64_t r =
            static_cast<int64_t>(in_flight_final_lens.size()) + 1;
        return sys_.admitReduced(cfg_, ctx_, one_, r, kv, s_max,
                                 candidate_prompt_len);
    }

    /** Round j's fit test, admit(rest, 1, back) on kv_lens + j, is the
     *  memory test on R, Σ min(admit cap, s_i + j) and max s_i + j,
     *  with a 1-token prompt: one reduction, then a gallop and
     *  bisection over j whose probes read only those integers (under
     *  an unbounded cap the total is Σ + R j; under a bounded one it
     *  is re-summed from kv_lens). */
    int64_t fitRounds(const std::vector<int64_t> &kv_lens,
                      int64_t max_rounds) override
    {
        if (max_rounds <= 0)
            return 0;
        if (kv_lens.empty())
            return max_rounds;
        const int64_t r = static_cast<int64_t>(kv_lens.size());
        int64_t total = 0;
        int64_t s_max = 0;
        for (int64_t s : kv_lens) {
            total += std::min(admit_cap_, s);
            s_max = std::max(s_max, s);
        }
        const bool bounded =
            admit_cap_ != std::numeric_limits<int64_t>::max();
        const auto pass = [&](int64_t j) {
            int64_t kv = total + r * j;
            if (bounded) {
                kv = 0;
                for (int64_t s : kv_lens)
                    kv += std::min(admit_cap_, s + j);
            }
            return sys_.admitReduced(cfg_, ctx_, one_, r, kv, s_max + j, 1)
                .admit;
        };
        if (!pass(0))
            return 0;
        // Gallop out from the known-true probe, then bisect to the
        // first failure; the test only tightens as the integers grow,
        // so the frontier is one threshold. Galloping keeps the probed
        // lengths within twice the frontier.
        int64_t t = 0;  // highest probe known to pass
        int64_t f = -1; // lowest probe known to fail (-1: none yet)
        for (int64_t step = 1; t < max_rounds - 1; step *= 2) {
            const int64_t p = std::min(t + step, max_rounds - 1);
            if (!pass(p)) {
                f = p;
                break;
            }
            t = p;
        }
        if (f < 0)
            return max_rounds;
        while (f - t > 1) {
            const int64_t mid = t + (f - t) / 2;
            (pass(mid) ? t : f) = mid;
        }
        return f;
    }

  private:
    /** An open window's reduced integers (see the class comment). */
    struct Window
    {
        int64_t r = 0;              ///< batch size
        const PerR *p = nullptr;    ///< its entry
        int64_t attended = 0;       ///< Σ min(cap, s_i + round - 1)
        int64_t smax = 0;           ///< max s_i + round - 1
        int64_t round = 0;          ///< rounds evaluated so far
        int64_t grow = 0;           ///< contexts still under cap
        int64_t next_cross = std::numeric_limits<int64_t>::max();
                                    ///< earliest cap-crossing round
    };

    /** One round of `w` (r > 0): advance the reduced integers, price
     *  them. */
    double roundPrice(Window &w) const
    {
        // Round index r evaluates lengths s_i + r: attended grows by the
        // count of contexts with cap - s_i >= r. Round 0 never crosses
        // (every growing context has cap - s_i >= 1).
        if (w.next_cross < w.round) {
            w.grow = 0;
            w.next_cross = std::numeric_limits<int64_t>::max();
            for (int64_t s : win_base_) {
                const int64_t c = cap_ - s;
                if (c >= w.round) {
                    ++w.grow;
                    w.next_cross = std::min(w.next_cross, c);
                }
            }
        }
        w.attended += w.grow;
        ++w.smax;
        ++w.round;
        return sys_.roundSeconds(cfg_, ctx_, *w.p, w.r, w.attended,
                                 w.smax);
    }

    /** The entry at batch size r, built on first use. Held behind
     *  unique_ptr so an open window's pointer survives table growth;
     *  the admission entry is a member, so a pricer that only prices
     *  R = 1 (or is used once) allocates no table. */
    const PerR &entry(int64_t r)
    {
        if (r == 1)
            return one_;
        const size_t i = static_cast<size_t>(r);
        if (i >= per_r_.size())
            per_r_.resize(i + 1);
        if (!per_r_[i])
            per_r_[i] =
                std::make_unique<PerR>(sys_.tableEntry(cfg_, ctx_, r));
        return *per_r_[i];
    }

    const Sys &sys_;
    TimingConfig cfg_;  ///< owns the system keepalive (shared_ptr inside)
    PriceContext ctx_;  ///< over cfg_
    int64_t cap_;       ///< sys_.attendCap()
    int64_t admit_cap_; ///< sys_.admitCap()
    PerR one_;          ///< the entry at R = 1
    std::vector<std::unique_ptr<PerR>> per_r_; ///< indexed by R >= 2

    Window win_; ///< the open window
    /** Its base lengths, kept while a context is under a bounded cap
     *  (only a crossing's recount reads them). */
    std::vector<int64_t> win_base_;
};

/**
 * CRTP base of a continuous system (see the file comment for the hooks
 * `Sys` supplies): makePricer() returns a TabledPricer<Sys>.
 */
template <class Sys>
class TabledSystem : public SystemModel
{
  public:
    using SystemModel::SystemModel;

    bool supportsContinuousBatching() const final { return true; }

    std::unique_ptr<SystemPricer> makePricer(
        const TimingConfig &cfg) const final
    {
        return std::make_unique<TabledPricer<Sys>>(
            static_cast<const Sys &>(*this), cfg);
    }
};

} // namespace core
} // namespace specontext
