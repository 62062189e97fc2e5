/**
 * @file
 * Admission control for the continuous-batching server.
 *
 * Before a waiting request joins the in-flight batch, its KV-cache
 * reservation — the footprint it will have grown to at its *final*
 * length, not its current one — must fit alongside every other
 * in-flight reservation. Admitting on current lengths would deadlock:
 * all in-flight requests grow every iteration and none can be evicted,
 * so the controller books capacity pessimistically up front, the same
 * discipline vLLM-style servers apply.
 *
 * The capacity test itself is polymorphic: the controller delegates to
 * the admit() of a core::SystemPricer bound to its config, so every
 * system brings its own memory discipline —
 *  - SpeContext admits through sim::MemoryModel's Eq. 7 headroom
 *    queries (some offload level 0..L must fit, Algorithm 1/2's
 *    invariant) plus the CPU-DRAM ceiling on offloaded KV;
 *  - full-attention systems admit iff 1.3x weights + total reserved KV
 *    fit in HBM (plus eager's prefill attention scratch), with the
 *    optional HF-Accelerate CPU spill gated by
 *    SystemOptions::allow_full_attention_offload;
 *  - permanent-eviction systems (H2O, StreamingLLM) reserve only
 *    min(final length, budget) tokens per request.
 */
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "core/timing_engine.h"
#include "serving/request.h"

namespace specontext {
namespace serving {

/** Outcome of one admission test. */
using AdmissionDecision = core::AdmissionDecision;

/** Memory-model-driven admission policy. */
class AdmissionController
{
  public:
    /**
     * @throws std::invalid_argument when cfg.system is null or cannot
     * be continuously batched (per-layer retrieve-then-load baselines),
     * or when cfg.llm / cfg.hw is invalid (ModelConfig::validate,
     * HardwareSpec::validate).
     */
    explicit AdmissionController(core::TimingConfig cfg);

    const core::TimingConfig &config() const { return cfg_; }

    /**
     * True when `o` is guaranteed to decide every admission question
     * exactly as this controller: the same SystemModel instance over a
     * fieldwise-equal TimingConfig. Every input any system's admit()
     * can read is covered, so a router pricing one candidate against a
     * homogeneous fleet may reuse the first lane's verdict for the
     * rest instead of re-deriving it per lane.
     */
    bool sameAdmissionShape(const AdmissionController &o) const
    {
        const core::SystemModel *a = cfg_.system.get();
        const core::SystemModel *b = o.cfg_.system.get();
        // Distinct instances still decide identically when they were
        // created under the same registry key with equal options —
        // systems are stateless pure functions of their options, and
        // fleets commonly create one instance per replica.
        // name() pointers compare equal across instances of one class
        // (same string literal); strcmp only breaks the rare tie.
        const bool same_system =
            a == b || ((a->name() == b->name() ||
                        std::strcmp(a->name(), b->name()) == 0) &&
                       a->options() == b->options());
        return same_system && cfg_.llm == o.cfg_.llm &&
               cfg_.hw == o.cfg_.hw && cfg_.batch == o.cfg_.batch &&
               cfg_.prompt_len == o.cfg_.prompt_len &&
               cfg_.gen_len == o.cfg_.gen_len;
    }

    /** Eq. 6-8 memory-model instance over this config (requests = 1;
     *  headroom queries take explicit request counts). Built on
     *  demand — only the SpeContext admission path prices through it,
     *  via SystemPricer::admit(); exposed so tests can cross-check
     *  admission decisions against the raw Eq. 7 queries. */
    sim::MemoryModel memoryModel() const
    {
        return sim::MemoryModel(cfg_.system->memoryInputs(cfg_, 1));
    }

    /** Can `candidate` join `in_flight` without oversubscribing?
     *  Pessimistic (Reserve) discipline: every request is priced at
     *  its final-length reservation. */
    AdmissionDecision admit(const std::vector<Request> &in_flight,
                            const Request &candidate) const;

    /**
     * Optimistic sibling of admit(): price the batch at *current* KV
     * lengths — in-flight requests at kvLen(), the candidate at its
     * restore length (prompt plus any generated tokens it must
     * recompute after a preemption). Admitting this way can
     * oversubscribe later as contexts grow; the serving::Scheduler
     * pairs it with decodeStepFits() + preemption to stay sound.
     */
    AdmissionDecision admitCurrent(const std::vector<Request> &in_flight,
                                   const Request &candidate) const;

    /** Can every in-flight request grow one more decode token (each at
     *  kvLen() + 1) under the system's memory discipline? The
     *  preemption trigger of Optimistic scheduling; delegates to
     *  core::SystemPricer::fitsCurrent(). */
    AdmissionDecision decodeStepFits(
        const std::vector<Request> &in_flight) const;

    /**
     * How many consecutive future decode rounds are guaranteed to pass
     * decodeStepFits() from the current state, assuming the batch
     * composition does not change? Round j (0-based) prices every
     * context at kvLen() + 1 + j — the exact decodeStepFits() compare
     * the scheduler would run at that round's entry — so the returned
     * count n means rounds 0..n-1 are preemption-free and round n (if
     * n < max_rounds) is the predicted first failure; the caller must
     * still re-run the genuine per-round check there. One pass over
     * the batch's lengths, then core::SystemPricer::fitRounds(), which
     * searches the system's reduced admission integers. That needs the
     * fit test to be monotone under uniform growth — once a length
     * vector fails, every elementwise-larger one fails too. Every
     * registry system satisfies this (their admit() tests only tighten
     * as r, s_max and total KV grow), and for the same reason a proof
     * holds for every sub-batch too: requests that retire never void
     * the rounds proven for the rest. Returns max_rounds for an empty
     * batch (vacuously fits).
     */
    int64_t decodeFitRounds(const std::vector<Request> &in_flight,
                            int64_t max_rounds) const;

    /** Does the candidate fit with an otherwise idle server? A false
     *  here means the request can never be served (hard reject). */
    bool feasibleAlone(const Request &candidate) const;

    /** Would the candidate's *worst-case restore* fit alone — a
     *  prefill of its full final context (prompt + every generated
     *  token recomputed at once)? Distinct from feasibleAlone() only
     *  for systems whose prefill cost grows with the prefilled span
     *  (eager attention's O(S^2) scratch); Optimistic scheduling
     *  gates admission on it so a preempted request can always be
     *  restored rather than silently dropped mid-generation. */
    bool restoreFeasibleAlone(const Request &candidate) const;

  private:
    core::TimingConfig cfg_;
    /** Pricer from SystemModel::makePricer(), bound to cfg_: every
     *  probe goes through its admit()/fitsCurrent(), with per-config
     *  setup (memory-model construction) done once. Mutable: probes
     *  are logically const but the pricer may cache. Not thread-safe,
     *  like the pricer. */
    mutable std::unique_ptr<core::SystemPricer> pricer_;
    /** Reused length buffer for probe vectors (amortizes the per-call
     *  allocation the serving loop used to pay millions of times). */
    mutable std::vector<int64_t> lens_scratch_;
};

} // namespace serving
} // namespace specontext
