#include "core/timing_engine.h"

#include <stdexcept>

namespace specontext {
namespace core {

namespace {

const SystemModel &
requireSystem(const TimingConfig &cfg)
{
    if (!cfg.system)
        throw std::invalid_argument(
            "TimingConfig.system is null - construct one with "
            "SystemRegistry::create()");
    return *cfg.system;
}

} // namespace

int64_t
TimingEngine::kvBytesPerTokenPerLayer(const model::ModelConfig &m)
{
    return core::kvBytesPerTokenPerLayer(m);
}

int64_t
TimingEngine::weightFootprintBytes(const model::ModelConfig &m)
{
    return core::weightFootprintBytes(m);
}

sim::MemoryModelInputs
TimingEngine::memoryInputsFor(const TimingConfig &cfg, int64_t requests)
{
    return requireSystem(cfg).memoryInputs(cfg, requests);
}

TimingResult
TimingEngine::simulate(const TimingConfig &cfg) const
{
    cfg.llm.validate();
    cfg.hw.validate();
    const SystemModel &sys = requireSystem(cfg);
    if (cfg.batch > sys.maxSimulatedBatch()) {
        // The one enforcement point of the capability — systems
        // declare their cap, the façade refuses past it.
        TimingResult r;
        r.oom = true;
        r.oom_reason = sys.maxSimulatedBatch() == 1
                           ? "single-request system"
                           : "batch exceeds the system's supported "
                             "maximum";
        return r;
    }
    return sys.simulate(cfg);
}

double
TimingEngine::requestPrefillSeconds(const TimingConfig &cfg,
                                    int64_t prompt_len,
                                    int64_t in_flight_requests,
                                    int64_t resident_kv_tokens) const
{
    cfg.llm.validate();
    cfg.hw.validate();
    const SystemModel &sys = requireSystem(cfg);
    if (!sys.supportsContinuousBatching())
        throw std::invalid_argument(
            "requestPrefillSeconds: system is wave-scheduled only");
    if (prompt_len <= 0)
        throw std::invalid_argument(
            "requestPrefillSeconds: non-positive prompt");
    if (in_flight_requests < 0 || resident_kv_tokens < 0)
        throw std::invalid_argument(
            "requestPrefillSeconds: negative batch state");
    return sys.requestPrefillSeconds(cfg, prompt_len, in_flight_requests,
                                     resident_kv_tokens);
}

double
TimingEngine::decodeIterationSeconds(
    const TimingConfig &cfg, const std::vector<int64_t> &kv_lens) const
{
    cfg.llm.validate();
    cfg.hw.validate();
    const SystemModel &sys = requireSystem(cfg);
    if (!sys.supportsContinuousBatching())
        throw std::invalid_argument(
            "decodeIterationSeconds: system is wave-scheduled only");
    return sys.decodeIterationSeconds(cfg, kv_lens);
}

std::unique_ptr<SystemPricer>
TimingEngine::makePricer(const TimingConfig &cfg) const
{
    cfg.llm.validate();
    cfg.hw.validate();
    const SystemModel &sys = requireSystem(cfg);
    if (!sys.supportsContinuousBatching())
        throw std::invalid_argument(
            "makePricer: system is wave-scheduled only");
    return sys.makePricer(cfg);
}

} // namespace core
} // namespace specontext
