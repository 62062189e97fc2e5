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
 *  - timing: whole-run `simulate()` of a closed [prompt, gen] wave;
 *  - pricing: `makePricer()` binds one `SystemPricer` to a config — the
 *    one way to price the continuous batcher's quanta (per-request
 *    prefill, one heterogeneous-batch decode round, and the admission
 *    and fit probes). Every continuous system gets it from
 *    core::TabledSystem (core/tabled_pricer.h) by supplying a
 *    per-batch-size table entry, a round tail and its admission hooks;
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
    /** Denial diagnostic, "" on admit: a string literal, so a probe
     *  builds nothing. */
    const char *reason = "";
};

/**
 * Pricer bound to one (TimingConfig, system) pair: every cost and
 * capacity question the continuous batcher asks of a replica — decode
 * rounds, admission prefills, and the admission/fit probes. It is the
 * only pricing API of a continuous system. Obtain one from
 * SystemModel::makePricer() or, with the config validated first, from
 * TimingEngine::makePricer(); the pricer keeps the bound config (and
 * through it the system) alive.
 *
 * A pricer derives what is a pure function of the config once (cost
 * model, memory-model geometry) and what is a pure function of the
 * config and the batch size once per batch size, on first use. Every
 * answer is therefore the same whether a pricer is fresh or has served
 * millions of queries: the serving fast path holds one per replica
 * lane, and the reference loop (SimFastPath::cache_decode_costs off)
 * prices every prefill and round on a fresh one. Not thread-safe: one
 * pricer per replica lane. core::TabledPricer (core/tabled_pricer.h)
 * is the one implementation.
 */
class SystemPricer
{
  public:
    virtual ~SystemPricer() = default;

    // ---- Decode ----------------------------------------------------

    /**
     * Seconds of one decode iteration over the in-flight batch;
     * kv_lens[i] is request i's current context (prompt + generated so
     * far). The bound config's batch/prompt_len/gen_len are ignored —
     * the batch is whatever kv_lens says. Returns 0 for an empty batch.
     * @throws std::invalid_argument on a non-positive length.
     */
    virtual double decodeSeconds(const std::vector<int64_t> &kv_lens) = 0;

    /**
     * Open a bulk decode window on `kv_lens`. Between batch-composition
     * changes (admission, retirement, preemption) a continuous batcher
     * grows every in-flight context by exactly one token per round, so
     * the round-over-round evolution of the KV lengths is known in
     * advance: round k of the window prices bit-for-bit what
     * decodeSeconds() prices on kv + k (elementwise). The window only
     * replaces the per-round O(R) reduction with incremental
     * bookkeeping, never the arithmetic that turns the reduced values
     * into seconds. The caller must re-begin the window whenever the
     * batch changes shape for any other reason; prefill and admission
     * calls in between do not disturb it. An empty batch's rounds
     * cost 0.
     * @throws std::invalid_argument on a non-positive length.
     */
    virtual void beginWindow(const std::vector<int64_t> &kv_lens) = 0;

    /**
     * Run the open window: starting from `now`, add one round's
     * seconds at a time until `max_rounds` rounds have run, `now`
     * reaches `horizon`, or `t_pending` falls due (at least one round
     * always runs). Returns the advanced clock; `rounds` gets the
     * count run and `first_now` the clock after the first round. The
     * window stays open, so a second call continues with the next
     * round. One virtual dispatch per window instead of one per round.
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

    /**
     * Seconds to prefill one request of `prompt_len` tokens joining the
     * running batch (chunked prefill iteration; includes the system's
     * prompt preprocessing and the prompt-KV eviction/spill transfers
     * simulate() charges when the cache oversubscribes HBM).
     * `in_flight_requests` and `resident_kv_tokens` describe the batch
     * being joined — they decide whether the new prompt's KV must move
     * off-device.
     * @throws std::invalid_argument on a non-positive prompt or a
     * negative in-flight or resident count.
     */
    virtual double prefillSeconds(int64_t prompt_len,
                                  int64_t in_flight_requests,
                                  int64_t resident_kv_tokens) = 0;

    /**
     * Admission test: can a request of `candidate_final_len` final
     * tokens (prompt `candidate_prompt_len`) join a batch whose members
     * have the given final-length reservations without oversubscribing
     * memory?
     */
    virtual AdmissionDecision admit(
        const std::vector<int64_t> &in_flight_final_lens,
        int64_t candidate_prompt_len, int64_t candidate_final_len) = 0;

    /**
     * How many upcoming decode rounds still fit — the query optimistic
     * (preemptive) serving schedules against. Where admit() prices a
     * batch at its booked final-length *reservations*, this prices it
     * at explicit *current* KV lengths: round j fits when the batch
     * can execute one decode iteration at kv_lens + j (elementwise)
     * under this system's memory discipline, i.e. when
     * admit(kv_lens + j minus its last entry, 1, its last entry)
     * admits — the last length plays the candidate at a 1-token
     * prompt, so eager's prefill-scratch term stays negligible.
     * Returns the first failing j, capped at max_rounds: 0 when
     * max_rounds <= 0 or round 0 already fails (the serving::Scheduler
     * passes every length one past the live context, so 0 means the
     * next decode token does not fit and victims must be preempted);
     * max_rounds for an empty batch. Relies on the fit test only
     * tightening as the batch size, Σ min(admit cap, s) and max s
     * grow, which every continuous system satisfies; under it the
     * answer equals a round-by-round scan of that admit() test.
     * TabledPricer probes the system's reduced admission integers, so
     * no probe refills a length vector or makes a virtual call.
     */
    virtual int64_t fitRounds(const std::vector<int64_t> &kv_lens,
                              int64_t max_rounds) = 0;
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
    // entry point): cfg.llm and cfg.hw are validated there, and the
    // pricer checks its own arguments, so implementations can assume a
    // well-formed config and plugins do not re-implement the checks.

    /** Price a whole closed [prompt, gen] run. */
    virtual TimingResult simulate(const TimingConfig &cfg) const = 0;

    /**
     * Build a SystemPricer bound to `cfg` (which must name this
     * system): the only pricing API of a continuous system. Continuous
     * systems derive from core::TabledSystem (core/tabled_pricer.h),
     * which returns a TabledPricer. The base implementation throws.
     * @throws std::invalid_argument for systems without a pricer.
     */
    virtual std::unique_ptr<SystemPricer> makePricer(
        const TimingConfig &cfg) const;

    // ---- Memory footprint ------------------------------------------

    /** Memory-model inputs (the {LLM, DLM, budget, GPU capacity} block
     *  of Eq. 6-8) for `requests` concurrent requests. Both geometries
     *  carry the default name (ModelConfig::unnamed()), so building
     *  the inputs allocates nothing. */
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
