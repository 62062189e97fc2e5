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

#include <memory>

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

    /**
     * Build a pricer bound to `cfg` (see core::SystemPricer), the only
     * way to price a continuous system's prefills, decode rounds and
     * admission probes. simulate() prices a whole closed [prompt, gen]
     * run at once, which forces wave barriers onto the serving layer;
     * a pricer instead prices the quanta continuous batching needs.
     * Only systems whose SystemModel::supportsContinuousBatching() is
     * true have one — the per-layer retrieve-then-load baselines
     * (Quest/ClusterKV/ShadowKV) are wave-scheduled in the paper and
     * keep that restriction here.
     * @throws std::invalid_argument for unsupported systems, a null
     * cfg.system or an invalid cfg.llm / cfg.hw.
     */
    std::unique_ptr<SystemPricer> makePricer(const TimingConfig &cfg) const;
};

} // namespace core
} // namespace specontext
