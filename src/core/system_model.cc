#include "core/system_model.h"

#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "core/systems/registration.h"

namespace specontext {
namespace core {

int64_t
kvBytesPerTokenPerLayer(const model::ModelConfig &m)
{
    return 2 * m.kvFloatsPerTokenPerLayer(); // FP16
}

int64_t
weightFootprintBytes(const model::ModelConfig &m)
{
    // 1.3x weight bytes (runtime buffer rule of Eq. 6).
    return static_cast<int64_t>(1.3 * m.parameterBytesFp16());
}

void
SystemOptions::validate() const
{
    const auto require = [](bool ok, const char *what) {
        if (!ok)
            throw std::invalid_argument(std::string("SystemOptions: ") +
                                        what);
    };
    require(budget >= 1, "budget must be >= 1");
    require(page_size >= 1, "page_size must be >= 1");
    require(avg_cluster_size >= 1, "avg_cluster_size must be >= 1");
    require(cluster_iterations >= 1, "cluster_iterations must be >= 1");
    require(recent_window >= 0, "recent_window must be >= 0");
    // Every comparison with NaN is false, so NaN fails the range test.
    require(elastic_overlap >= 0.0 && elastic_overlap <= 1.0,
            "elastic_overlap must be finite and in [0, 1]");
    require(std::isfinite(prefix_reload_gbps) && prefix_reload_gbps >= 0.0,
            "prefix_reload_gbps must be finite and >= 0");
}

// ------------------------------------------------------------- SystemModel

std::unique_ptr<SystemPricer>
SystemModel::makePricer(const TimingConfig &) const
{
    throw std::invalid_argument(
        "makePricer: system has no pricer (wave-scheduled only)");
}

int64_t
SystemModel::maxSimulatedBatch() const
{
    return std::numeric_limits<int64_t>::max();
}

sim::MemoryModelInputs
SystemModel::memoryInputs(const TimingConfig &cfg, int64_t requests) const
{
    sim::MemoryModelInputs mmin;
    // No memory query reads a model name, and the pricers build these
    // inputs for every batch size they table: copy no names.
    mmin.llm = cfg.llm.unnamed();
    mmin.dlm = model::unnamedDlmGeometryFor(cfg.llm);
    mmin.requests = requests;
    mmin.budget = opts_.budget;
    mmin.gpu_mem_bytes = cfg.hw.gpu_mem_bytes;
    return mmin;
}

int64_t
SystemModel::hbmFootprintBytes(const TimingConfig &cfg, int64_t requests,
                               int64_t s) const
{
    return weightFootprintBytes(cfg.llm) +
           requests * s * kvBytesPerTokenPerLayer(cfg.llm) *
               cfg.llm.layers;
}

int64_t
SystemModel::dramFootprintBytes(const TimingConfig &, int64_t,
                                int64_t) const
{
    return 0;
}

DataflowResult
SystemModel::tokenDataflow(const TimingConfig &cfg, int64_t seq_len) const
{
    DataflowParams p;
    p.llm = cfg.llm;
    p.hw = cfg.hw;
    p.backend = backend();
    p.batch = cfg.batch;
    p.seq_len = seq_len;
    p.budget = opts_.budget;
    p.elastic_overlap = opts_.elastic_overlap;
    return simulateTokenDataflow(dataflow(), p);
}

// ---------------------------------------------------------- SystemRegistry

namespace {

using FactoryMap = std::map<std::string, SystemRegistry::Factory>;

std::mutex &
registryMutex()
{
    static std::mutex mu;
    return mu;
}

FactoryMap &
rawFactories()
{
    static FactoryMap factories;
    return factories;
}

void
addFactory(const std::string &name, SystemRegistry::Factory factory)
{
    if (name.empty())
        throw std::invalid_argument("SystemRegistry: empty system name");
    if (!factory)
        throw std::invalid_argument("SystemRegistry: null factory for '" +
                                    name + "'");
    std::lock_guard<std::mutex> lock(registryMutex());
    if (!rawFactories().emplace(name, std::move(factory)).second)
        throw std::invalid_argument(
            "SystemRegistry: duplicate system name '" + name + "'");
}

void
ensureBuiltins()
{
    static std::once_flag once;
    std::call_once(once, [] {
        detail::registerFullAttentionSystems();
        detail::registerLayerwiseBaselineSystems();
        detail::registerSpeContextSystem();
        detail::registerEvictionSystems();
    });
}

} // namespace

namespace detail {

void
addBuiltinSystem(const std::string &name, SystemRegistry::Factory factory)
{
    addFactory(name, std::move(factory));
}

} // namespace detail

void
SystemRegistry::registerSystem(const std::string &name, Factory factory)
{
    ensureBuiltins();
    addFactory(name, std::move(factory));
}

std::shared_ptr<const SystemModel>
SystemRegistry::create(const std::string &name, const SystemOptions &opts)
{
    ensureBuiltins();
    opts.validate();
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(registryMutex());
        const auto it = rawFactories().find(name);
        if (it == rawFactories().end()) {
            std::string known;
            for (const auto &[n, f] : rawFactories()) {
                (void)f;
                known += known.empty() ? n : ", " + n;
            }
            throw std::invalid_argument("SystemRegistry: unknown system '" +
                                        name + "' (known: " + known + ")");
        }
        factory = it->second;
    }
    auto sys = factory(opts);
    if (!sys)
        throw std::logic_error("SystemRegistry: factory for '" + name +
                               "' returned null");
    return sys;
}

std::vector<std::string>
SystemRegistry::names()
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> out;
    out.reserve(rawFactories().size());
    for (const auto &[name, factory] : rawFactories()) {
        (void)factory;
        out.push_back(name);
    }
    return out; // std::map iterates sorted
}

bool
SystemRegistry::contains(const std::string &name)
{
    ensureBuiltins();
    std::lock_guard<std::mutex> lock(registryMutex());
    return rawFactories().count(name) > 0;
}

} // namespace core
} // namespace specontext
