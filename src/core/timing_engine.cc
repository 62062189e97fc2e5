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
