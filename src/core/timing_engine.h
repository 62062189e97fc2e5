/**
 * @file
 * Simulated end-to-end timing of every registered system, at
 * paper-scale model geometry, on the analytical cost model and
 * two-stream timeline.
 *
 * The engine is a thin façade: the per-system dataflows (full
 * attention with complete offloading, layer-wise retrieve-then-load,
 * SpeContext's speculative sparsity, permanent eviction, ...) live in
 * `core::SystemModel` subclasses constructed through the
 * `core::SystemRegistry` (system_model.h); TimingConfig carries the
 * system instance and the engine validates inputs and delegates.
 * Systems are addressed by registry name only (the deprecated
 * `SystemKind` enum shim has been removed).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/system_model.h"

namespace specontext {
namespace core {

/** Analytical simulator over the pluggable system API. */
class TimingEngine
{
  public:
    /** Price a whole closed [prompt, gen] run of cfg.system.
     *  @throws std::invalid_argument when cfg.system is null or
     *  cfg.llm / cfg.hw is invalid (ModelConfig::validate,
     *  HardwareSpec::validate). */
    TimingResult simulate(const TimingConfig &cfg) const;

    // ---- Incremental stepping (continuous batching) -----------------
    //
    // simulate() prices a whole closed [prompt, gen] run at once, which
    // forces wave barriers onto the serving layer. serving::Server
    // instead advances all in-flight requests one decode iteration at a
    // time, so the engine also exposes the two quanta it needs: the
    // cost of prefilling a single joining request, and the cost of one
    // decode iteration over a *heterogeneous* batch (each request at
    // its own KV length). Only systems whose
    // SystemModel::supportsContinuousBatching() is true can be driven
    // this way — the per-layer retrieve-then-load baselines
    // (Quest/ClusterKV/ShadowKV) are wave-scheduled in the paper and
    // keep that restriction here.

    /**
     * Seconds to prefill one request of `prompt_len` tokens joining the
     * running batch (chunked prefill iteration; includes the system's
     * prompt preprocessing and the prompt-KV eviction/spill transfers
     * simulate() charges when the cache oversubscribes HBM).
     * `in_flight_requests` and `resident_kv_tokens` describe the batch
     * being joined — they decide whether the new prompt's KV must move
     * off-device.
     * @throws std::invalid_argument for unsupported systems or an
     * invalid cfg.llm / cfg.hw.
     */
    double requestPrefillSeconds(const TimingConfig &cfg,
                                 int64_t prompt_len,
                                 int64_t in_flight_requests = 0,
                                 int64_t resident_kv_tokens = 0) const;

    /**
     * Seconds of one decode iteration over the in-flight batch;
     * kv_lens[i] is request i's current context (prompt + generated so
     * far). cfg.batch/prompt_len/gen_len are ignored — the batch is
     * whatever kv_lens says. Returns 0 for an empty batch.
     * @throws std::invalid_argument for unsupported systems or an
     * invalid cfg.llm / cfg.hw.
     */
    double decodeIterationSeconds(const TimingConfig &cfg,
                                  const std::vector<int64_t> &kv_lens)
        const;

    /**
     * Build a reusable pricer bound to `cfg` (see core::SystemPricer):
     * input validation and the system's pure per-config/per-batch-size
     * derivations run once here instead of on every call, and its
     * decode, prefill and admission queries then return bit-for-bit
     * what the per-call methods would. The serving fast path holds one
     * per replica lane.
     * @throws std::invalid_argument for unsupported systems or an
     * invalid cfg.llm / cfg.hw.
     */
    std::unique_ptr<SystemPricer> makePricer(const TimingConfig &cfg) const;

    /** Bytes of KV cache per token per layer per request at FP16
     *  (delegates to core::kvBytesPerTokenPerLayer). */
    static int64_t kvBytesPerTokenPerLayer(const model::ModelConfig &m);

    /** Weight + runtime-buffer bytes: 1.3x FP16 parameters (Eq. 6's
     *  coefficient; delegates to core::weightFootprintBytes). */
    static int64_t weightFootprintBytes(const model::ModelConfig &m);

    /** Memory-model inputs for `requests` concurrent requests of this
     *  config (delegates to cfg.system->memoryInputs()). */
    static sim::MemoryModelInputs memoryInputsFor(
        const TimingConfig &cfg, int64_t requests);
};

} // namespace core
} // namespace specontext
