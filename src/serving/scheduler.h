/**
 * @file
 * Unified iteration-level scheduler of the continuous-batching engine:
 * one policy object behind which the three previously separate
 * admission mechanisms — the AdmissionController's memory test, the
 * RequestQueue's candidate ordering, and the admit loop that lived
 * inside ReplicaEngine — now sit, with two scheduling modes:
 *
 *  - Reserve (the default): pessimistic final-length booking. A
 *    request joins only when its KV reservation at *final* length fits
 *    next to every in-flight reservation — vLLM's classic discipline,
 *    deadlock-free by construction and bit-for-bit identical to the
 *    pre-Scheduler engine (BENCH_serving/cluster/prefix.json are
 *    pinned against it).
 *
 *  - Optimistic: admit on the *current* KV footprint (the candidate's
 *    prompt plus any generated tokens it must recompute, in-flight
 *    requests at their live contexts). Contexts grow every decode
 *    iteration, so a step can oversubscribe the sim::MemoryModel
 *    headroom; when nextDecodeTokenFits() says the next token does not
 *    fit, the engine preempts victims chosen by selectVictim() —
 *    releasing their KV and PrefixTree pins and re-enqueueing them for
 *    recompute — until the survivors fit. A preempted request's prompt
 *    usually restores through the prefix cache; only its generated
 *    history is re-prefilled (counted as recompute tokens).
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
#include <vector>

#include "obs/obs.h"
#include "serving/admission.h"
#include "serving/request.h"
#include "serving/request_queue.h"

namespace specontext {
namespace serving {

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
 * queue and the memory-model admission test; the ReplicaEngine asks it
 * what to admit, whether the next decode token fits, and whom to evict
 * when it does not. Pure policy — the engine keeps the clock, the
 * in-flight batch and the prefix cache.
 */
class Scheduler
{
  public:
    /**
     * @throws std::invalid_argument when timing.system is null or
     * cannot be continuously batched, or cfg.max_batch is
     * non-positive.
     */
    Scheduler(core::TimingConfig timing, SchedulerConfig cfg);

    const SchedulerConfig &config() const { return cfg_; }
    const AdmissionController &admission() const { return admission_; }
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

    /** Mode-independent hard-reject test (final length, idle server) —
     *  the same gate Router policies filter candidates with. */
    bool feasibleAlone(const Request &candidate) const
    {
        return admission_.feasibleAlone(candidate);
    }

    // ---- Preemption --------------------------------------------------

    /** True when every in-flight request can grow one more decode
     *  token. Always true in Reserve mode (reservations guarantee
     *  it); Optimistic delegates to the system's current-footprint
     *  query (AdmissionController::decodeStepFits, which asks the
     *  bound core::SystemPricer::fitsCurrent). */
    bool nextDecodeTokenFits(const std::vector<Request> &active) const;

    /**
     * Rounds of decode-fit headroom from the current state, capped at
     * `max_rounds`: the count of consecutive future rounds whose
     * nextDecodeTokenFits() check is guaranteed to pass while no
     * request joins the batch (requests may leave it). Reserve mode
     * returns max_rounds (reservations cover all growth); Optimistic
     * delegates to AdmissionController::decodeFitRounds() (one length
     * pass plus core::SystemPricer::fitRounds()), whose contract
     * (round indexing, monotonicity requirement, first-failure
     * semantics) this facade inherits. A live answer also proves
     * every nextDecodeTokenFits() check inside it, so the engine skips
     * those checks while a proof lasts.
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
    AdmissionController admission_;
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
