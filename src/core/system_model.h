/**
 * @file
 * Pluggable inference-system API: string-keyed, factory-registered
 * system models (the polymorphic replacement of the long-gone
 * `SystemKind` enum-switch dispatch).
 *
 * A `SystemModel` encapsulates everything one simulated inference
 * system knows about itself:
 *  - identity: display name and kernel backend;
 *  - memory: HBM/DRAM footprint at a batch shape (wrapping the paper's
 *    Eq. 6-8 `sim::MemoryModel` where applicable);
 *  - timing: whole-run `simulate()`, plus the two incremental quanta
 *    the continuous-batching server needs (per-request prefill and
 *    one heterogeneous-batch decode iteration);
 *  - serving: the admission test deciding whether a request's KV
 *    reservation fits next to the in-flight batch;
 *  - pricing: `makePricer()` binds one `SystemPricer` to a config —
 *    the serving loop's cached view of the decode, prefill and
 *    admission queries above, bit-identical to the per-call methods
 *    (which stay the reference the pricer is tested against). Every
 *    continuous system gets both from core::TabledSystem
 *    (core/tabled_pricer.h) by supplying a per-batch-size table entry,
 *    a round tail and its admission hooks;
 *  - dataflow: which Fig. 7 row it schedules on the two-stream
 *    `sim::Timeline`.
 *
 * Systems are constructed through the string-keyed `SystemRegistry`:
 *
 *     auto sys = core::SystemRegistry::create("SpeContext", opts);
 *     core::TimingConfig cfg{llm, hw, sys, batch, in, out};
 *     core::TimingEngine().simulate(cfg);
 *
 * Adding a new system is a self-contained plugin: subclass
 * `SystemModel` (wave-only) or `TabledSystem` (continuous) in one
 * translation unit and register a factory (see
 * src/core/systems/eviction_system.cc — the H2O worked example — and
 * the how-to in README.md). Nothing else in the repository needs to
 * change; registered systems automatically appear in the Pareto and
 * Table-3 sweeps, the serving benches, and the registry tests.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dataflow.h"
#include "model/config.h"
#include "sim/cost.h"
#include "sim/hardware.h"
#include "sim/memory_model.h"

namespace specontext {
namespace core {

class SystemModel;

/** Ablation switches of SpeContext (paper Fig. 11). */
struct SpeContextFeatures
{
    bool retrieval_head = true; ///< C1: sparse attention via DLM head
    bool async_elastic = true;  ///< C2: async prefetch + elastic loading
    bool adaptive_memory = true;///< C3: Algorithm 1/2 placement

    bool operator==(const SpeContextFeatures &o) const
    {
        return retrieval_head == o.retrieval_head &&
               async_elastic == o.async_elastic &&
               adaptive_memory == o.adaptive_memory;
    }
};

/**
 * Knobs a system is constructed with — the single options block that
 * replaces the old ad-hoc plumbing of per-system fields through
 * TimingConfig. Systems read only the fields they care about.
 */
struct SystemOptions
{
    int64_t budget = 2048;      ///< B: sparse-attention KV budget
    int64_t page_size = 16;     ///< Quest page granularity
    int64_t avg_cluster_size = 16; ///< ClusterKV mean cluster size
    int64_t cluster_iterations = 4;///< ClusterKV k-means iterations
    /**
     * Adjacent-step selection overlap used by elastic loading, in
     * [0, 1]. A paper-calibrated constant: the default matches the
     * >80 % the paper measures on trained LLMs (Fig. 6(b)). No bench
     * feeds it from live runs; bench_fig06 measures 0.062 / 0.230 /
     * 0.782 on the tiny live stack (320-token context) at budgets
     * 16 / 64 / 256.
     */
    double elastic_overlap = 0.85;
    SpeContextFeatures features;
    /**
     * Let full-attention systems spill KV to CPU DRAM when it does not
     * fit (HF-Accelerate style, per-step full-KV transfer). The paper
     * enables this in the edge evaluation (§7.3.2) but reports OOM for
     * full attention in the cloud tables, so it defaults off.
     */
    bool allow_full_attention_offload = false;
    /**
     * H2O's always-protected trailing tokens, excluded from eviction
     * scoring. (StreamingLLM's sink/window split needs no knob here:
     * sink + window always total `budget`, so the simulated cost is
     * split-independent; the live retriever takes its own sink size.)
     */
    int64_t recent_window = 8;
    /**
     * Bandwidth (GB/s) at which prefix-cache-matched KV blocks are
     * re-loaded into the compute working set at admission. 0 (the
     * default) keeps matched prefixes free — the historical behavior
     * BENCH_prefix.json is pinned to; a positive value charges
     * hit_tokens * kv_bytes_per_token / (gbps * 1e9) seconds per
     * admission, so cache hits skip prefill *compute* but still pay a
     * cheap KV re-load (NVLink/PCIe-class) instead of being free.
     */
    double prefix_reload_gbps = 0.0;

    /** Throws std::invalid_argument naming the first field out of
     *  range: budget, page_size, avg_cluster_size and
     *  cluster_iterations must be >= 1, recent_window >= 0,
     *  elastic_overlap finite in [0, 1], prefix_reload_gbps finite
     *  and >= 0. SystemRegistry::create() calls it before any
     *  factory runs. */
    void validate() const;

    /** Exact fieldwise equality: two systems created under the same
     *  registry key with equal options are behaviorally identical
     *  (systems are stateless pure functions of their options). */
    bool operator==(const SystemOptions &o) const
    {
        return budget == o.budget && page_size == o.page_size &&
               avg_cluster_size == o.avg_cluster_size &&
               cluster_iterations == o.cluster_iterations &&
               elastic_overlap == o.elastic_overlap &&
               features == o.features &&
               allow_full_attention_offload ==
                   o.allow_full_attention_offload &&
               recent_window == o.recent_window &&
               prefix_reload_gbps == o.prefix_reload_gbps;
    }
};

/** One simulated run: geometry, hardware, system, and batch shape. */
struct TimingConfig
{
    model::ModelConfig llm;     ///< geometry preset
    sim::HardwareSpec hw;
    /** System under simulation, from SystemRegistry::create(). */
    std::shared_ptr<const SystemModel> system;
    int64_t batch = 1;          ///< R
    int64_t prompt_len = 2048;  ///< input tokens per request
    int64_t gen_len = 2048;     ///< output tokens per request
};

/** Simulated outcome. */
struct TimingResult
{
    bool oom = false;
    std::string oom_reason;
    double prefill_seconds = 0.0;
    double decode_seconds = 0.0;
    /** batch * gen_len / (prefill + decode). */
    double throughput = 0.0;
    /** batch * gen_len / decode only. */
    double decode_throughput = 0.0;
    /** seconds by component tag (attn, gemm, retrieval, transfer...). */
    std::map<std::string, double> breakdown;
    int64_t final_gpu_layers = 0; ///< KV layers resident at the end
};

/** Outcome of one admission test (continuous-batching serving). */
struct AdmissionDecision
{
    bool admit = false;
    std::string reason; ///< denial diagnostic, empty on admit
};

/**
 * Reusable pricer bound to one (TimingConfig, system) pair: every cost
 * and capacity question the continuous batcher asks of a replica —
 * decode rounds, admission prefills, and the admission/fit probes —
 * answered bit-for-bit as the per-call SystemModel methods answer them
 * on the bound config. A pricer only hoists work that is a pure
 * function of the config and the batch size (cost-model construction,
 * memory-model geometry, per-batch-size breakdowns) out of the
 * per-call path, so a serving loop that prices millions of rounds and
 * probes against one fixed config stops re-deriving the same models
 * every call. Obtain one from SystemModel::makePricer() (or the
 * TimingEngine façade, which also validates the config); the pricer
 * keeps the bound config (and through it the system) alive. Not
 * thread-safe: one pricer per replica lane. core::TabledPricer
 * (core/tabled_pricer.h) is the one implementation.
 */
class SystemPricer
{
  public:
    virtual ~SystemPricer() = default;

    // ---- Decode ----------------------------------------------------

    /** Seconds of one decode iteration over `kv_lens` — bit-identical
     *  to SystemModel::decodeIterationSeconds(bound_cfg, kv_lens). */
    virtual double decodeSeconds(const std::vector<int64_t> &kv_lens) = 0;

    /**
     * Bulk decode window. Between batch-composition changes
     * (admission, retirement, preemption) a continuous batcher grows
     * every in-flight context by exactly one token per round, so the
     * round-over-round evolution of the KV lengths is known in
     * advance. beginWindow(kv) followed by k nextRoundSeconds() calls
     * returns bit-for-bit what k decodeSeconds() calls would on kv,
     * kv+1, ..., kv+(k-1) (elementwise) — the window only replaces the
     * per-round O(R) reduction with incremental bookkeeping, never the
     * arithmetic that turns the reduced values into seconds. The
     * caller must re-begin the window whenever the batch changes shape
     * for any other reason; prefill and admission calls in between do
     * not disturb it.
     */
    virtual void beginWindow(const std::vector<int64_t> &kv_lens) = 0;

    /** Next round of the current window (see beginWindow()). */
    virtual double nextRoundSeconds() = 0;

    /**
     * Drive an entire bulk window in one call: starting from `now`,
     * repeatedly add nextRoundSeconds() until `max_rounds` rounds have
     * run, `now` reaches `horizon`, or `t_pending` falls due — the
     * exact break conditions (and the exact per-round arithmetic, in
     * the same accumulation order) a caller-side loop over
     * nextRoundSeconds() would apply. Returns the advanced clock;
     * `rounds` gets the count run and `first_now` the clock after the
     * first round. One virtual dispatch per window instead of one per
     * round.
     */
    virtual double runWindow(int64_t max_rounds, double now,
                             double horizon, double t_pending,
                             int64_t &rounds, double &first_now) = 0;

    /**
     * Conservative lower bound on the duration of ANY decode round
     * this pricer can price (every batch shape, every KV length).
     * A fleet driver may multiply it by a count of rounds proven to
     * run uninterrupted to bound how soon a lane could next interact
     * — the bound only widens skip-ahead windows, it never feeds the
     * simulated arithmetic, so any value that truly lower-bounds the
     * rounds is bit-safe. ReplicaEngine::nextPossibleAdmissionSeconds
     * uses it that way: an Optimistic lane caps its next admission at
     * now + n * floor, and with a floor of 0 that cap is the lane's own
     * clock, which holds every peer's window to about one round.
     * TabledPricer returns the weight-streaming time, the max() floor
     * of every round of every continuous system.
     */
    virtual double minRoundSeconds() const = 0;

    // ---- Prefill and admission -------------------------------------

    /** Bit-identical to SystemModel::requestPrefillSeconds(bound_cfg,
     *  prompt_len, in_flight_requests, resident_kv_tokens). */
    virtual double prefillSeconds(int64_t prompt_len,
                                  int64_t in_flight_requests,
                                  int64_t resident_kv_tokens) = 0;

    /** Bit-identical to SystemModel::admit(bound_cfg, ...). */
    virtual AdmissionDecision admit(
        const std::vector<int64_t> &in_flight_final_lens,
        int64_t candidate_prompt_len, int64_t candidate_final_len) = 0;

    /** Bit-identical to SystemModel::fitsCurrent(bound_cfg, ...). */
    virtual AdmissionDecision fitsCurrent(
        const std::vector<int64_t> &kv_lens) = 0;
};

/** Bytes of KV cache per token per layer per request at FP16. */
int64_t kvBytesPerTokenPerLayer(const model::ModelConfig &m);

/** Weight + runtime-buffer bytes: 1.3x FP16 parameters (Eq. 6's
 *  coefficient); the single copy of the rule shared by every system's
 *  footprint math and the serving layer's admission control. */
int64_t weightFootprintBytes(const model::ModelConfig &m);

/** Abstract simulated inference system. */
class SystemModel
{
  public:
    explicit SystemModel(const SystemOptions &opts) : opts_(opts) {}
    virtual ~SystemModel() = default;

    /** Display name; equals the registry key it was created under. */
    virtual const char *name() const = 0;

    /** Kernel backend the system builds on. */
    virtual sim::KernelBackend backend() const = 0;

    /** Fig. 7 row this system schedules on the two-stream timeline. */
    virtual DataflowKind dataflow() const = 0;

    /** True for systems the continuous batcher can drive; wave-only
     *  systems (per-layer retrieve-then-load baselines) return false. */
    virtual bool supportsContinuousBatching() const { return false; }

    /** Largest request count simulate() supports — 1 for the
     *  single-request baselines (§7.3.1), unbounded otherwise. */
    virtual int64_t maxSimulatedBatch() const;

    const SystemOptions &options() const { return opts_; }

    // ---- Timing ----------------------------------------------------
    //
    // Input validation lives in the TimingEngine façade (the public
    // entry point): cfg.llm is validated and the stepping guards run
    // there, so implementations can assume a well-formed config and
    // plugins do not re-implement the checks.

    /** Price a whole closed [prompt, gen] run. */
    virtual TimingResult simulate(const TimingConfig &cfg) const = 0;

    /**
     * Seconds to prefill one request of `prompt_len` tokens joining the
     * running batch (chunked prefill iteration, including any
     * system-specific prompt preprocessing and KV spill transfers).
     * `in_flight_requests` and `resident_kv_tokens` describe the batch
     * being joined. Base implementation throws for wave-only systems.
     * @throws std::invalid_argument for unsupported systems.
     */
    virtual double requestPrefillSeconds(const TimingConfig &cfg,
                                         int64_t prompt_len,
                                         int64_t in_flight_requests,
                                         int64_t resident_kv_tokens) const;

    /**
     * Seconds of one decode iteration over the in-flight batch;
     * kv_lens[i] is request i's current context. Base implementation
     * throws for wave-only systems.
     * @throws std::invalid_argument for unsupported systems.
     */
    virtual double decodeIterationSeconds(
        const TimingConfig &cfg, const std::vector<int64_t> &kv_lens) const;

    /**
     * Build a SystemPricer bound to `cfg` (which must name this
     * system). Continuous systems derive from core::TabledSystem
     * (core/tabled_pricer.h), which returns a TabledPricer whose every
     * query is bit-for-bit the per-call method's. The base
     * implementation throws.
     * @throws std::invalid_argument for systems without a pricer.
     */
    virtual std::unique_ptr<SystemPricer> makePricer(
        const TimingConfig &cfg) const;

    // ---- Memory footprint ------------------------------------------

    /** Memory-model inputs (the {LLM, DLM, budget, GPU capacity} block
     *  of Eq. 6-8) for `requests` concurrent requests. */
    sim::MemoryModelInputs memoryInputs(const TimingConfig &cfg,
                                        int64_t requests) const;

    /**
     * Peak HBM bytes for `requests` uniform requests at context length
     * s: weights + runtime buffers + this system's resident KV. Base
     * implementation prices a fully resident FP16 KV cache.
     */
    virtual int64_t hbmFootprintBytes(const TimingConfig &cfg,
                                      int64_t requests, int64_t s) const;

    /** CPU-DRAM bytes the system parks at the same shape (offloaded or
     *  spilled KV); 0 for fully resident systems. */
    virtual int64_t dramFootprintBytes(const TimingConfig &cfg,
                                       int64_t requests, int64_t s) const;

    // ---- Serving ---------------------------------------------------

    /**
     * Admission test: can a request of `candidate_final_len` final
     * tokens (prompt `candidate_prompt_len`) join a batch whose members
     * have the given final-length reservations without oversubscribing
     * memory? Base implementation rejects wave-only systems.
     */
    virtual AdmissionDecision admit(
        const TimingConfig &cfg,
        const std::vector<int64_t> &in_flight_final_lens,
        int64_t candidate_prompt_len, int64_t candidate_final_len) const;

    /**
     * Current-footprint sibling of admit() — the query optimistic
     * (preemptive) serving schedules against. Where admit() prices the
     * batch at its booked final-length *reservations*, this prices it
     * at explicit *current* KV lengths (`kv_lens[i]` tokens live right
     * now, no candidate, no prefill scratch): can the batch execute one
     * decode iteration at these lengths under this system's memory
     * discipline? The serving::Scheduler calls it with every length
     * one past the live context to decide whether the next decode
     * token fits or victims must be preempted.
     *
     * Base implementation reuses admit() with the last length playing
     * the candidate at a 1-token prompt (so eager's prefill-scratch
     * term stays negligible); admits trivially on an empty batch.
     * Override when a system distinguishes reserved from live
     * footprints more finely.
     */
    virtual AdmissionDecision fitsCurrent(
        const TimingConfig &cfg,
        const std::vector<int64_t> &kv_lens) const;

    // ---- Dataflow --------------------------------------------------

    /** One decode token's two-stream timeline at context `seq_len`
     *  under this system's dataflow() row and options. */
    DataflowResult tokenDataflow(const TimingConfig &cfg,
                                 int64_t seq_len) const;

  protected:
    SystemOptions opts_;
};

/**
 * String-keyed factory registry of every simulatable system. The seven
 * paper systems plus H2O and StreamingLLM are built in; plugins add
 * themselves with registerSystem().
 */
class SystemRegistry
{
  public:
    using Factory = std::function<std::shared_ptr<const SystemModel>(
        const SystemOptions &)>;

    /** Register a factory under a unique display name.
     *  @throws std::invalid_argument when the name is taken or empty. */
    static void registerSystem(const std::string &name, Factory factory);

    /** Instantiate a system by name.
     *  @throws std::invalid_argument for unknown names (the message
     *  lists every registered name) and for options that fail
     *  SystemOptions::validate(). */
    static std::shared_ptr<const SystemModel>
    create(const std::string &name, const SystemOptions &opts = {});

    /** Sorted names of every registered system. */
    static std::vector<std::string> names();

    static bool contains(const std::string &name);
};

} // namespace core
} // namespace specontext
