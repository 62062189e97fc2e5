#include "obs/regime.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "obs/counters.h"
#include "obs/sampler.h"

namespace specontext {
namespace obs {

const char *
regimeName(Regime r)
{
    switch (r) {
      case Regime::Idle: return "idle";
      case Regime::WarmupBound: return "warmup-bound";
      case Regime::KvBound: return "kv-bound";
      case Regime::PrefillBound: return "prefill-bound";
      case Regime::CacheBound: return "cache-bound";
      case Regime::SchedulerBound: return "scheduler-bound";
      case Regime::DecodeBound: return "decode-bound";
    }
    return "unknown";
}

Regime
RegimeTimeline::dominantRegime() const
{
    size_t best = 0;
    for (size_t i = 1; i < kRegimeCount; ++i)
        if (occupancy[i] > occupancy[best])
            best = i;
    return static_cast<Regime>(best);
}

Regime
classifyWindow(const RegimeSignals &s, const RegimeConfig &cfg)
{
    // Priority ladder, most-diagnostic signal first: a preemption is
    // proof of KV pressure however the rest of the window looked, a
    // warming replica explains degraded capacity before anything
    // else, and the work-composition tests only run on windows that
    // did work.
    if (s.warming_replicas > 0)
        return Regime::WarmupBound;
    if (s.preemptions > 0)
        return Regime::KvBound;
    const int64_t admitted = s.prefill_tokens + s.prefix_hit_tokens;
    if (admitted == 0 && s.generated_tokens == 0 &&
        s.queue_depth == 0 && s.in_flight == 0)
        return Regime::Idle;
    if (admitted > 0 &&
        static_cast<double>(s.prefix_hit_tokens) >=
            cfg.cache_hit_share * static_cast<double>(admitted))
        return Regime::CacheBound;
    if (static_cast<double>(s.prefill_tokens) >
        cfg.prefill_dominance * static_cast<double>(s.generated_tokens))
        return Regime::PrefillBound;
    if (s.queue_depth > 0 &&
        static_cast<double>(s.queue_depth) >
            cfg.scheduler_backlog *
                static_cast<double>(std::max<int64_t>(s.in_flight, 1)))
        return Regime::SchedulerBound;
    return Regime::DecodeBound;
}

namespace {

/** The per-window signals a sampler column feeds, in RegimeSignals
 *  order. */
enum Role : uint8_t {
    Preemptions,
    PrefillTokens,
    GeneratedTokens,
    PrefixHitTokens,
    QueueDepth,
    InFlight,
    Warming,
    kRoleCount,
};

/** Suffix of the per-replica `replica<N>.<suffix>` slots of each role
 *  but Warming, which is the one `cluster.warming_replicas` column. */
constexpr const char *kReplicaSuffix[] = {
    "preemptions",       "admitted_prefill_tokens", "generated_tokens",
    "prefix_hit_tokens", "queue_depth",             "in_flight",
};

/** One column that feeds a role. */
struct RoleColumn
{
    size_t col;
    Role role;
};

/** Every column that feeds a role, ascending by column. */
std::vector<RoleColumn>
roleColumns(const std::vector<std::string> &names)
{
    std::vector<RoleColumn> cols;
    for (size_t i = 0; i < names.size(); ++i) {
        const std::string &n = names[i];
        if (n == "cluster.warming_replicas") {
            cols.push_back({i, Warming});
            continue;
        }
        if (n.rfind("replica", 0) != 0)
            continue;
        const size_t dot = n.find('.');
        if (dot == std::string::npos)
            continue;
        for (uint8_t r = 0; r < Warming; ++r) {
            if (n.compare(dot + 1, std::string::npos, kReplicaSuffix[r]) ==
                0) {
                cols.push_back({i, static_cast<Role>(r)});
                break;
            }
        }
    }
    return cols;
}

/** Per-role sums of one row in one ascending-column pass; columns the
 *  row predates (registered after it was cut) read as 0. */
void
rowSums(const SamplePoint &row, const std::vector<RoleColumn> &cols,
        int64_t (&sums)[kRoleCount])
{
    std::fill(std::begin(sums), std::end(sums), 0);
    for (const RoleColumn &c : cols) {
        if (c.col >= row.values.size())
            break;
        sums[c.role] += row.values[c.col];
    }
}

} // namespace

RegimeTimeline
classifyRegimes(const TimeseriesSampler &sampler,
                const RegimeConfig &cfg)
{
    RegimeTimeline out;
    const std::vector<SamplePoint> &rows = sampler.samples();
    if (rows.size() < 2)
        return out;

    const std::vector<RoleColumn> cols =
        roleColumns(sampler.registry().names());
    int64_t lo[kRoleCount], hi[kRoleCount];
    rowSums(rows[0], cols, lo);

    out.windows.reserve(rows.size() - 1);
    for (size_t i = 0; i + 1 < rows.size(); ++i) {
        rowSums(rows[i + 1], cols, hi);
        RegimeWindow w;
        w.t_start_seconds = rows[i].t_seconds;
        w.t_end_seconds = rows[i + 1].t_seconds;
        w.signals.preemptions = hi[Preemptions] - lo[Preemptions];
        w.signals.prefill_tokens = hi[PrefillTokens] - lo[PrefillTokens];
        w.signals.generated_tokens =
            hi[GeneratedTokens] - lo[GeneratedTokens];
        w.signals.prefix_hit_tokens =
            hi[PrefixHitTokens] - lo[PrefixHitTokens];
        w.signals.queue_depth = hi[QueueDepth];
        w.signals.in_flight = hi[InFlight];
        w.signals.warming_replicas = hi[Warming];
        w.regime = classifyWindow(w.signals, cfg);
        const double span = w.t_end_seconds - w.t_start_seconds;
        out.occupancy[size_t(w.regime)] += span;
        out.total_seconds += span;
        out.windows.push_back(w);
        std::copy(std::begin(hi), std::end(hi), std::begin(lo));
    }
    if (out.total_seconds > 0.0)
        for (size_t i = 0; i < kRegimeCount; ++i)
            out.occupancy[i] /= out.total_seconds;
    return out;
}

bool
writeRegimeCsv(const RegimeTimeline &timeline, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::printf("cannot write %s\n", path.c_str());
        return false;
    }
    std::fputs(
        "t_start_seconds,t_end_seconds,regime,preemptions,"
        "prefill_tokens,generated_tokens,prefix_hit_tokens,"
        "queue_depth,in_flight,warming_replicas\n",
        f);
    for (const RegimeWindow &w : timeline.windows) {
        std::fprintf(
            f, "%.6f,%.6f,%s,%lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
            w.t_start_seconds, w.t_end_seconds, regimeName(w.regime),
            static_cast<long long>(w.signals.preemptions),
            static_cast<long long>(w.signals.prefill_tokens),
            static_cast<long long>(w.signals.generated_tokens),
            static_cast<long long>(w.signals.prefix_hit_tokens),
            static_cast<long long>(w.signals.queue_depth),
            static_cast<long long>(w.signals.in_flight),
            static_cast<long long>(w.signals.warming_replicas));
    }
    std::fclose(f);
    std::printf("wrote %s (%zu windows)\n", path.c_str(),
                timeline.windows.size());
    return true;
}

} // namespace obs
} // namespace specontext
