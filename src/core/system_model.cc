#include "core/system_model.h"

#include <algorithm>
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

// ------------------------------------------------------------- SystemModel

double
SystemModel::requestPrefillSeconds(const TimingConfig &, int64_t, int64_t,
                                   int64_t) const
{
    throw std::invalid_argument(
        "requestPrefillSeconds: system is wave-scheduled only");
}

double
SystemModel::decodeIterationSeconds(const TimingConfig &,
                                    const std::vector<int64_t> &) const
{
    throw std::invalid_argument(
        "decodeIterationSeconds: system is wave-scheduled only");
}

namespace {

/** Fallback pricer: per-call delegation, no caching. Bit-identity with
 *  the per-call methods is trivial — it IS the per-call methods. */
class DelegatingPricer final : public SystemPricer
{
  public:
    explicit DelegatingPricer(TimingConfig cfg) : cfg_(std::move(cfg)) {}

    double decodeSeconds(const std::vector<int64_t> &kv_lens) override
    {
        return cfg_.system->decodeIterationSeconds(cfg_, kv_lens);
    }

    double prefillSeconds(int64_t prompt_len, int64_t in_flight_requests,
                          int64_t resident_kv_tokens) override
    {
        return cfg_.system->requestPrefillSeconds(
            cfg_, prompt_len, in_flight_requests, resident_kv_tokens);
    }

    AdmissionDecision admit(const std::vector<int64_t> &in_flight_final_lens,
                            int64_t candidate_prompt_len,
                            int64_t candidate_final_len) override
    {
        return cfg_.system->admit(cfg_, in_flight_final_lens,
                                  candidate_prompt_len, candidate_final_len);
    }

    AdmissionDecision fitsCurrent(const std::vector<int64_t> &kv_lens) override
    {
        return cfg_.system->fitsCurrent(cfg_, kv_lens);
    }

  private:
    TimingConfig cfg_; ///< owns the system keepalive (shared_ptr inside)
};

} // namespace

std::unique_ptr<SystemPricer>
SystemModel::makePricer(const TimingConfig &cfg) const
{
    return std::make_unique<DelegatingPricer>(cfg);
}

AdmissionDecision
SystemModel::admit(const TimingConfig &, const std::vector<int64_t> &,
                   int64_t, int64_t) const
{
    return {false, "system is wave-scheduled only (no admission path)"};
}

AdmissionDecision
SystemModel::fitsCurrent(const TimingConfig &cfg,
                         const std::vector<int64_t> &kv_lens) const
{
    if (kv_lens.empty())
        return {true, ""};
    // Reuse the admission discipline at the *current* lengths: the
    // last entry plays the joining candidate (1-token prompt, so no
    // meaningful prefill-scratch term), the rest the in-flight batch.
    std::vector<int64_t> rest(kv_lens.begin(), kv_lens.end() - 1);
    return admit(cfg, rest, 1, kv_lens.back());
}

int64_t
SystemModel::maxSimulatedBatch() const
{
    return std::numeric_limits<int64_t>::max();
}

double
SystemModel::stepComputeSeconds(
    const TimingConfig &cfg, const sim::CostModel &cost,
    const std::vector<int64_t> &kv_lens,
    const std::function<int64_t(int64_t)> &attended,
    int64_t *attended_total_out, int64_t *s_max_out,
    const sim::DecodeBreakdown *base_hint) const
{
    const model::ModelConfig &m = cfg.llm;
    const int64_t R = static_cast<int64_t>(kv_lens.size());
    const sim::DecodeBreakdown base =
        base_hint ? *base_hint : cost.decodeStepBreakdown(m, R, 0);

    int64_t attended_total = 0;
    int64_t s_max = 0;
    for (int64_t s : kv_lens) {
        if (s <= 0)
            throw std::invalid_argument(
                "decodeIterationSeconds: non-positive KV length");
        attended_total += attended(s);
        s_max = std::max(s_max, s);
    }
    const double weight_stream =
        double(m.parameterBytesFp16()) / (cfg.hw.hbm_bw_gbps * 1e9);
    if (attended_total_out)
        *attended_total_out = attended_total;
    if (s_max_out)
        *s_max_out = s_max;
    return stepComputeFromTotals(cfg, cost, base, attended_total,
                                 weight_stream);
}

sim::MemoryModelInputs
SystemModel::memoryInputs(const TimingConfig &cfg, int64_t requests) const
{
    sim::MemoryModelInputs mmin;
    mmin.llm = cfg.llm;
    mmin.dlm = model::dlmGeometryFor(cfg.llm);
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
