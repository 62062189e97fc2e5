/**
 * @file
 * Unified iteration-level scheduler of the continuous-batching engine:
 * one policy object that owns a replica's admission test, its waiting
 * queue's candidate ordering and its preemption policy, with two
 * scheduling modes:
 *
 *  - Reserve (the default): pessimistic final-length booking. A
 *    request joins only when its KV reservation at *final* length fits
 *    next to every in-flight reservation — vLLM's classic discipline,
 *    deadlock-free by construction (admitting on current lengths
 *    would deadlock: every in-flight request grows each iteration and
 *    none can be evicted) and bit-for-bit identical to the
 *    pre-Scheduler engine (BENCH_serving/cluster/prefix.json are
 *    pinned against it).
 *
 *  - Optimistic: admit on the *current* KV footprint (the candidate's
 *    prompt plus any generated tokens it must recompute, in-flight
 *    requests at their live contexts). Contexts grow every decode
 *    iteration, so a step can oversubscribe the memory model; when
 *    decodeFitRounds() says not even the next token fits, the engine
 *    preempts victims chosen by selectVictim() — releasing their KV
 *    and PrefixTree pins and re-enqueueing them for recompute — until
 *    the survivors fit. A preempted request's prompt usually restores
 *    through the prefix cache; only its generated history is
 *    re-prefilled (counted as recompute tokens).
 *
 * Every memory question goes to the lane's one core::SystemPricer
 * (core::TimingEngine::makePricer), so each system brings its own
 * discipline: SpeContext admits through sim::MemoryModel's Eq. 7
 * headroom (some offload level 0..L must fit, Algorithm 1/2's
 * invariant) plus the CPU-DRAM ceiling on offloaded KV; full-attention
 * systems admit iff 1.3x weights + total KV fit in HBM (plus eager's
 * prefill scratch), with the optional CPU spill of
 * SystemOptions::allow_full_attention_offload; permanent-eviction
 * systems (H2O, StreamingLLM) reserve min(length, budget) tokens per
 * request. The scheduler only turns requests into length vectors.
 *
 * Victim selection is policy-driven (last-admitted, shortest-progress,
 * fewest-prefix-hit-tokens) and deterministic: equal-pressure ties
 * resolve through the (progress, arrival, id) total order, mirroring
 * the ShortestPromptFirst queue tie-break, so runs are
 * bit-reproducible however the batch happened to be assembled.
 *
 * (The wave/batch-sweep helpers that historically owned this header's
 * name live in serving/batch_sweep.h.)
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/timing_engine.h"
#include "obs/obs.h"
#include "serving/request.h"
#include "serving/request_queue.h"

namespace specontext {
namespace serving {

/** Outcome of one admission test. */
using AdmissionDecision = core::AdmissionDecision;

/** Admission discipline of the scheduler. */
enum class SchedulerMode {
    /** Book KV at final length up front (pessimistic, no preemption). */
    Reserve,
    /** Admit on current footprint; preempt under decode-step pressure. */
    Optimistic,
};

const char *schedulerModeName(SchedulerMode m);

/** Which in-flight request is evicted first under KV pressure. */
enum class VictimPolicy {
    /** Latest admission first (vLLM's recompute default — the request
     *  that joined last loses the least sunk batching benefit). */
    LastAdmitted,
    /** Fewest generated tokens first (least decode progress thrown
     *  away per preemption). */
    ShortestProgress,
    /** Fewest prefix-cache-hit tokens at the last admission first. */
    FewestPrefixHitTokens,
};

const char *victimPolicyName(VictimPolicy p);

/** Scheduler knobs of one replica. */
struct SchedulerConfig
{
    SchedulerMode mode = SchedulerMode::Reserve;
    VictimPolicy victim_policy = VictimPolicy::LastAdmitted;
    QueuePolicy queue_policy = QueuePolicy::Fifo;
    /** Hard cap on in-flight requests (scheduler table size); memory
     *  admission usually binds first. */
    int64_t max_batch = 64;
};

/** Preemption counters of one replica (or a fleet roll-up). */
struct PreemptionStats
{
    /** Victim evictions (a request preempted twice counts twice). */
    int64_t preemptions = 0;
    /** Re-admissions of previously preempted requests (equals
     *  preemptions once a trace drains — every victim is either
     *  restored or rejected). */
    int64_t restores = 0;
    /** Generated tokens re-prefilled across all restores — the decode
     *  work preemption discarded and prefill recomputed. */
    int64_t recompute_tokens = 0;
    /** All tokens actually charged through prefill at restores (the
     *  victim's live context minus what its prompt rode the prefix
     *  cache for). Makes admit-then-preempt churn visible: a victim
     *  evicted before its first decode step contributes its whole
     *  re-prefilled prompt here while adding 0 recompute_tokens. */
    int64_t restore_prefill_tokens = 0;

    /** Fleet aggregation: counters sum. */
    void merge(const PreemptionStats &other);
};

/**
 * One replica's admission + preemption policy object. Owns the waiting
 * queue and the lane's one pricer; the ReplicaEngine asks it what to
 * admit, how many decode rounds still fit, and whom to evict when not
 * even the next one does. Pure policy — the engine keeps the clock,
 * the in-flight batch and the prefix cache.
 */
class Scheduler
{
  public:
    /**
     * @throws std::invalid_argument when cfg.max_batch is non-positive,
     * or as core::TimingEngine::makePricer does: timing.system is null
     * or cannot be continuously batched, or timing.llm / timing.hw is
     * invalid.
     */
    Scheduler(const core::TimingConfig &timing, SchedulerConfig cfg);

    const SchedulerConfig &config() const { return cfg_; }

    /** The lane's one pricer, bound to the scheduler's TimingConfig:
     *  every admission probe here, and the engine's fast-path prefills
     *  and decode windows. Admission probes never touch its window
     *  state, so the two uses do not interfere. */
    core::SystemPricer &pricer() const { return *pricer_; }

    bool optimistic() const
    {
        return cfg_.mode == SchedulerMode::Optimistic;
    }

    /**
     * Publish this scheduler's policy-decision counters into `obs`
     * under the `replica<id>.` prefix: admit_checks / admit_denials
     * (how often the discipline said no — the queue-pressure signal)
     * and victim_selections. No-op when obs carries no registry;
     * call once, before the first admit().
     */
    void attachObservability(const obs::Observability &obs,
                             int64_t replica_id);

    // ---- Waiting queue facade ---------------------------------------

    bool queueEmpty() const { return queue_.empty(); }
    int64_t queueSize() const { return queue_.size(); }

    /** Enqueue an arrival (or re-enqueue a preempted request). */
    void enqueue(Request r);

    /** Next admission candidate under the queue policy. */
    const Request &peek() const { return queue_.peek(); }

    /** Remove and return the admission candidate. */
    Request pop();

    /** Final-length KV tokens of every queued request — the booked
     *  load signal Reserve-mode routing reads. */
    int64_t queuedFinalKvTokens() const { return queued_final_tokens_; }

    /** Current (restore-length) KV tokens of every queued request —
     *  the live-occupancy signal Optimistic-mode routing reads. */
    int64_t queuedLiveKvTokens() const { return queued_live_tokens_; }

    // ---- Admission ---------------------------------------------------

    /** Room for one more in-flight request under max_batch? */
    bool hasBatchSlot(const std::vector<Request> &active) const
    {
        return static_cast<int64_t>(active.size()) < cfg_.max_batch;
    }

    /**
     * Mode-aware admission test: Reserve prices the batch at booked
     * final lengths; Optimistic prices it at current footprints but
     * still hard-gates on the final-length-alone feasibility (a
     * request whose completed context could never fit even alone must
     * reject, not livelock through preempt/restore cycles).
     */
    AdmissionDecision admit(const std::vector<Request> &active,
                            const Request &candidate) const;

    /** Mode-independent hard-reject test: does the candidate's final
     *  length fit on an otherwise idle replica? A false here means the
     *  request can never be served — the same gate Router policies
     *  filter candidates with. */
    bool feasibleAlone(const Request &candidate) const;

    /** Would the candidate's *worst-case restore* fit alone — a
     *  prefill of its full final context (prompt + every generated
     *  token recomputed at once)? Distinct from feasibleAlone() only
     *  for systems whose prefill cost grows with the prefilled span
     *  (eager attention's O(S^2) scratch); Optimistic admission gates
     *  on it so a preempted request can always be restored rather than
     *  silently dropped mid-generation. */
    bool restoreFeasibleAlone(const Request &candidate) const;

    // ---- Preemption --------------------------------------------------

    /**
     * Rounds of decode-fit headroom from the current state, capped at
     * `max_rounds`: the count of consecutive future decode rounds that
     * fit while no request joins the batch (requests may leave it).
     * Round j prices every context at kvLen() + 1 + j, so 0 means not
     * even the next token fits — the Optimistic preemption trigger —
     * and an answer n < max_rounds predicts round n as the first
     * failure. Reserve mode returns max_rounds (reservations cover all
     * growth); Optimistic is one length pass plus
     * core::SystemPricer::fitRounds(), which needs the fit test to
     * only tighten as the batch size, Σ s and max s grow. Every
     * registry system satisfies this, and for the same reason a proof
     * holds for every sub-batch too: requests that retire never void
     * the rounds proven for the rest. Returns max_rounds for an empty
     * batch.
     */
    int64_t decodeFitRounds(const std::vector<Request> &active,
                            int64_t max_rounds) const;

    /**
     * Index into `active` of the next preemption victim under the
     * victim policy. Equal-pressure ties resolve through the
     * (progress, arrival, id) total order, so selection is
     * deterministic for any batch content.
     * @throws std::logic_error on an empty batch.
     */
    size_t selectVictim(const std::vector<Request> &active) const;

  private:
    /** The admission test proper; admit() wraps it with counting. */
    AdmissionDecision
    admitUncounted(const std::vector<Request> &active,
                   const Request &candidate) const;

    SchedulerConfig cfg_;
    /** See pricer(). Probes are logically const, so the const admission
     *  queries call it; not thread-safe, like the pricer. */
    std::unique_ptr<core::SystemPricer> pricer_;
    /** Reused length buffer of every probe (the serving loop asks
     *  millions of times; none allocates in steady state). */
    mutable std::vector<int64_t> lens_;
    RequestQueue queue_;
    int64_t queued_final_tokens_ = 0;
    int64_t queued_live_tokens_ = 0;

    /** Always-on decision counters (null = observability off). The
     *  registry outlives the scheduler (caller-owned); slots are
     *  resolved once in attachObservability(). */
    obs::CounterRegistry *counters_ = nullptr;
    obs::CounterRegistry::Handle admit_checks_ = 0;
    obs::CounterRegistry::Handle admit_denials_ = 0;
    obs::CounterRegistry::Handle victim_selections_ = 0;
};

} // namespace serving
} // namespace specontext
