#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/rng.h"
#include "workload/tasks.h"

namespace specontext {
namespace workload {

void
validateTraceConfig(const TraceConfig &cfg)
{
    if (cfg.num_requests <= 0)
        throw std::invalid_argument("trace: non-positive num_requests");
    if (!(cfg.arrival_rate_per_s > 0.0) ||
        !std::isfinite(cfg.arrival_rate_per_s))
        throw std::invalid_argument(
            "trace: arrival_rate_per_s must be positive and finite");
}

namespace {

/** Exponential inter-arrival gap of a Poisson process at `rate`. */
double
expGap(Rng &rng, double rate)
{
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - rng.uniform()) / rate;
}

/** Log-uniform integer in [lo, hi]. */
int64_t
logUniform(Rng &rng, int64_t lo, int64_t hi)
{
    const double u = rng.uniform();
    const double v = std::exp(std::log(double(lo)) +
                              u * (std::log(double(hi)) -
                                   std::log(double(lo))));
    return std::min<int64_t>(hi, std::max<int64_t>(lo,
        static_cast<int64_t>(std::llround(v))));
}

} // namespace

std::vector<serving::Request>
poissonTrace(const TraceConfig &cfg,
             const std::vector<serving::Workload> &mix)
{
    validateTraceConfig(cfg);
    if (mix.empty())
        throw std::invalid_argument("poissonTrace: empty workload mix");
    Rng rng(cfg.seed);
    std::vector<serving::Request> trace;
    trace.reserve(cfg.num_requests);
    double t = 0.0;
    for (int64_t i = 0; i < cfg.num_requests; ++i) {
        t += expGap(rng, cfg.arrival_rate_per_s);
        const serving::Workload &w =
            mix[rng.uniformInt(static_cast<uint64_t>(mix.size()))];
        serving::Request r;
        r.id = i;
        r.arrival_seconds = t;
        r.prompt_len = w.prompt_len;
        r.gen_len = w.gen_len;
        trace.push_back(r);
    }
    return trace;
}

std::vector<serving::Request>
paperMixTrace(const TraceConfig &cfg)
{
    return poissonTrace(cfg, serving::paperWorkloads());
}

std::vector<std::vector<serving::Request>>
splitTrace(std::vector<serving::Request> trace, size_t shards)
{
    if (shards == 0)
        throw std::invalid_argument("splitTrace: zero shards");
    serving::sortByArrival(trace);
    std::vector<std::vector<serving::Request>> out(shards);
    for (size_t i = 0; i < trace.size(); ++i)
        out[i % shards].push_back(trace[i]);
    return out;
}

std::vector<serving::Request>
mergeTraces(const std::vector<std::vector<serving::Request>> &shards)
{
    // K-way merge by arrival time. Equal arrivals break on the
    // smallest cursor position, then the lowest shard index: a
    // round-robin split puts shard k's element j at trace position
    // j * N + k, so this order restores the original interleave even
    // when a run of identical arrival instants wraps around the fleet
    // (split-then-merge round-trips exactly).
    std::vector<size_t> cursor(shards.size(), 0);
    size_t total = 0;
    for (const auto &s : shards)
        total += s.size();
    std::vector<serving::Request> out;
    out.reserve(total);
    while (out.size() < total) {
        size_t best = shards.size();
        for (size_t k = 0; k < shards.size(); ++k) {
            if (cursor[k] >= shards[k].size())
                continue;
            if (best == shards.size()) {
                best = k;
                continue;
            }
            const double a = shards[k][cursor[k]].arrival_seconds;
            const double b = shards[best][cursor[best]].arrival_seconds;
            if (a < b || (a == b && cursor[k] < cursor[best]))
                best = k;
        }
        out.push_back(shards[best][cursor[best]]);
        ++cursor[best];
    }
    return out;
}

namespace {

void
validateSharedPrefixConfig(const SharedPrefixTraceConfig &cfg)
{
    validateTraceConfig(cfg.base);
    if (cfg.num_families <= 0)
        throw std::invalid_argument(
            "sharedPrefixTrace: non-positive num_families");
    if (cfg.prefix_len <= 0)
        throw std::invalid_argument(
            "sharedPrefixTrace: non-positive prefix_len");
    if (cfg.suffix_lo <= 0 || cfg.suffix_hi < cfg.suffix_lo)
        throw std::invalid_argument(
            "sharedPrefixTrace: suffix bounds must satisfy "
            "0 < lo <= hi");
    if (cfg.gen_lo <= 0 || cfg.gen_hi < cfg.gen_lo)
        throw std::invalid_argument(
            "sharedPrefixTrace: gen bounds must satisfy 0 < lo <= hi");
    if (cfg.zipf_s < 0.0 || !std::isfinite(cfg.zipf_s))
        throw std::invalid_argument(
            "sharedPrefixTrace: zipf_s must be finite and >= 0");
    if (cfg.vocab < 3)
        throw std::invalid_argument("sharedPrefixTrace: vocab < 3");
}

} // namespace

std::vector<serving::Request>
sharedPrefixTrace(const SharedPrefixTraceConfig &cfg)
{
    validateSharedPrefixConfig(cfg);
    Rng rng(cfg.base.seed);

    // Each family's prefix is drawn from its own seed-derived stream
    // (so family contents are stable however many requests the trace
    // has) into one shared head block, made when the family is first
    // drawn; every member's prompt is that head plus its own tail.
    std::vector<serving::PromptTokens> family_prefix(
        static_cast<size_t>(cfg.num_families));

    // Zipf popularity CDF over family ranks: weight 1/(f+1)^zipf_s.
    std::vector<double> cdf(static_cast<size_t>(cfg.num_families));
    double total = 0.0;
    for (int64_t f = 0; f < cfg.num_families; ++f) {
        total += 1.0 / std::pow(static_cast<double>(f + 1), cfg.zipf_s);
        cdf[static_cast<size_t>(f)] = total;
    }

    std::vector<serving::Request> trace;
    trace.reserve(cfg.base.num_requests);
    double t = 0.0;
    for (int64_t i = 0; i < cfg.base.num_requests; ++i) {
        t += expGap(rng, cfg.base.arrival_rate_per_s);
        const double u = rng.uniform() * total;
        size_t family = 0;
        while (family + 1 < cdf.size() && cdf[family] < u)
            ++family;
        const int64_t suffix =
            logUniform(rng, cfg.suffix_lo, cfg.suffix_hi);

        serving::Request r;
        r.id = i;
        r.arrival_seconds = t;
        r.prompt_len = cfg.prefix_len + suffix;
        r.gen_len = logUniform(rng, cfg.gen_lo, cfg.gen_hi);
        serving::PromptTokens &head = family_prefix[family];
        if (head.empty()) {
            Rng frng(cfg.base.seed * 1000003ull +
                     static_cast<uint64_t>(family) + 1);
            head = serving::PromptTokens::filled(
                static_cast<size_t>(cfg.prefix_len), [&](int32_t *out) {
                    for (int64_t k = 0; k < cfg.prefix_len; ++k)
                        out[k] = randomTokenId(frng, cfg.vocab);
                });
        }
        r.prompt_tokens = serving::PromptTokens::withHead(
            head, static_cast<size_t>(suffix), [&](int32_t *out) {
                for (int64_t k = 0; k < suffix; ++k)
                    out[k] = randomTokenId(rng, cfg.vocab);
            });
        trace.push_back(std::move(r));
    }
    return trace;
}

namespace {

void
validateMultiTurnConfig(const MultiTurnTraceConfig &cfg)
{
    validateTraceConfig(cfg.base);
    if (cfg.turns <= 0)
        throw std::invalid_argument(
            "multiTurnTrace: non-positive turns");
    if (cfg.first_prompt_lo <= 0 ||
        cfg.first_prompt_hi < cfg.first_prompt_lo)
        throw std::invalid_argument(
            "multiTurnTrace: first-prompt bounds must satisfy "
            "0 < lo <= hi");
    if (cfg.followup_lo <= 0 || cfg.followup_hi < cfg.followup_lo)
        throw std::invalid_argument(
            "multiTurnTrace: follow-up bounds must satisfy "
            "0 < lo <= hi");
    if (cfg.gen_lo <= 0 || cfg.gen_hi < cfg.gen_lo)
        throw std::invalid_argument(
            "multiTurnTrace: gen bounds must satisfy 0 < lo <= hi");
    if (!(cfg.think_time_mean_s > 0.0) ||
        !std::isfinite(cfg.think_time_mean_s))
        throw std::invalid_argument(
            "multiTurnTrace: think_time_mean_s must be positive and "
            "finite");
    if (cfg.vocab < 3)
        throw std::invalid_argument("multiTurnTrace: vocab < 3");
}

} // namespace

std::vector<serving::Request>
multiTurnTrace(const MultiTurnTraceConfig &cfg)
{
    validateMultiTurnConfig(cfg);
    Rng rng(cfg.base.seed);
    std::vector<serving::Request> trace;
    trace.reserve(
        static_cast<size_t>(cfg.base.num_requests * cfg.turns));

    double session_start = 0.0;
    for (int64_t s = 0; s < cfg.base.num_requests; ++s) {
        session_start += expGap(rng, cfg.base.arrival_rate_per_s);
        // Per-session stream so one session's content is stable
        // however many sessions the trace has.
        Rng srng(cfg.base.seed * 9176203ull +
                 static_cast<uint64_t>(s) + 1);

        // The conversation so far: every turn appends the previous
        // turn's synthesized assistant reply and a fresh user
        // message, then replays the whole history as its prompt.
        std::vector<int32_t> history;
        double t = session_start;
        int64_t prev_gen = 0;
        for (int64_t turn = 0; turn < cfg.turns; ++turn) {
            if (turn > 0) {
                t += expGap(srng, 1.0 / cfg.think_time_mean_s);
                // The previous assistant reply enters the context as
                // deterministic stand-in token ids (the simulator
                // never materializes real ones).
                for (int64_t k = 0; k < prev_gen; ++k)
                    history.push_back(randomTokenId(srng, cfg.vocab));
            }
            const int64_t user_len =
                turn == 0 ? logUniform(srng, cfg.first_prompt_lo,
                                       cfg.first_prompt_hi)
                          : logUniform(srng, cfg.followup_lo,
                                       cfg.followup_hi);
            for (int64_t k = 0; k < user_len; ++k)
                history.push_back(randomTokenId(srng, cfg.vocab));

            serving::Request r;
            r.arrival_seconds = t;
            r.prompt_len = static_cast<int64_t>(history.size());
            r.gen_len = logUniform(srng, cfg.gen_lo, cfg.gen_hi);
            r.prompt_tokens = serving::PromptTokens(history);
            prev_gen = r.gen_len;
            trace.push_back(std::move(r));
        }
    }

    // Sessions interleave; ids are sequential in global arrival order
    // (the convention every generator here follows).
    serving::sortByArrival(trace);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = static_cast<int64_t>(i);
    return trace;
}

namespace {

void
validateLengthBounds(const char *what, int64_t prompt_lo,
                     int64_t prompt_hi, int64_t gen_lo, int64_t gen_hi)
{
    if (prompt_lo <= 0 || prompt_hi < prompt_lo)
        throw std::invalid_argument(
            std::string(what) +
            ": prompt bounds must satisfy 0 < lo <= hi");
    if (gen_lo <= 0 || gen_hi < gen_lo)
        throw std::invalid_argument(
            std::string(what) + ": gen bounds must satisfy 0 < lo <= hi");
}

/**
 * Non-homogeneous Poisson arrivals by Lewis-Shedler thinning: draw
 * candidate gaps at the envelope `rate_max`, keep a candidate at t
 * with probability rate(t) / rate_max. Candidates and acceptance draws
 * come from one stream, lengths from the same stream only on accept,
 * so the trace is deterministic in the seed and two generators with
 * the same seed but different rate curves still agree on the envelope
 * skeleton.
 */
template <typename RateFn>
std::vector<serving::Request>
thinnedTrace(const TraceConfig &base, double rate_max,
             const RateFn &rate, int64_t prompt_lo, int64_t prompt_hi,
             int64_t gen_lo, int64_t gen_hi)
{
    Rng rng(base.seed);
    std::vector<serving::Request> trace;
    trace.reserve(base.num_requests);
    double t = 0.0;
    int64_t id = 0;
    while (id < base.num_requests) {
        t += expGap(rng, rate_max);
        if (rng.uniform() * rate_max > rate(t))
            continue; // thinned: the instantaneous rate is below the envelope
        serving::Request r;
        r.id = id++;
        r.arrival_seconds = t;
        r.prompt_len = logUniform(rng, prompt_lo, prompt_hi);
        r.gen_len = logUniform(rng, gen_lo, gen_hi);
        trace.push_back(r);
    }
    return trace;
}

} // namespace

void
validateTraceConfig(const DiurnalTraceConfig &cfg)
{
    validateTraceConfig(cfg.base);
    if (!(cfg.period_seconds > 0.0) || !std::isfinite(cfg.period_seconds))
        throw std::invalid_argument(
            "diurnalTrace: period_seconds must be positive and finite");
    if (!(cfg.peak_to_trough >= 1.0) || !std::isfinite(cfg.peak_to_trough))
        throw std::invalid_argument(
            "diurnalTrace: peak_to_trough must be finite and >= 1 "
            "(rates must stay non-negative)");
    validateLengthBounds("diurnalTrace", cfg.prompt_lo, cfg.prompt_hi,
                         cfg.gen_lo, cfg.gen_hi);
}

std::vector<serving::Request>
diurnalTrace(const DiurnalTraceConfig &cfg)
{
    validateTraceConfig(cfg);
    // Mean rate m and ratio r = peak/trough pin the curve's extremes
    // at trough = 2m/(1+r), peak = 2m*r/(1+r): the cosine's average is
    // the configured mean, so total volume matches a plain Poisson
    // trace at the same base rate.
    const double mean = cfg.base.arrival_rate_per_s;
    const double trough = 2.0 * mean / (1.0 + cfg.peak_to_trough);
    const double peak = trough * cfg.peak_to_trough;
    const double two_pi = 2.0 * 3.14159265358979323846;
    const auto rate = [&](double t) {
        const double phase = two_pi * t / cfg.period_seconds;
        return trough +
               (peak - trough) * 0.5 * (1.0 - std::cos(phase));
    };
    return thinnedTrace(cfg.base, peak, rate, cfg.prompt_lo,
                        cfg.prompt_hi, cfg.gen_lo, cfg.gen_hi);
}

void
validateTraceConfig(const FlashCrowdTraceConfig &cfg)
{
    validateTraceConfig(cfg.base);
    if (cfg.burst_start_seconds < 0.0 ||
        !std::isfinite(cfg.burst_start_seconds))
        throw std::invalid_argument(
            "flashCrowdTrace: burst_start_seconds must be finite and "
            ">= 0");
    if (!(cfg.burst_duration_seconds > 0.0) ||
        !std::isfinite(cfg.burst_duration_seconds))
        throw std::invalid_argument(
            "flashCrowdTrace: burst_duration_seconds must be positive "
            "and finite (the window must be ordered)");
    if (!(cfg.burst_multiplier >= 1.0) ||
        !std::isfinite(cfg.burst_multiplier))
        throw std::invalid_argument(
            "flashCrowdTrace: burst_multiplier must be finite and >= 1");
    validateLengthBounds("flashCrowdTrace", cfg.prompt_lo,
                         cfg.prompt_hi, cfg.gen_lo, cfg.gen_hi);
}

std::vector<serving::Request>
flashCrowdTrace(const FlashCrowdTraceConfig &cfg)
{
    validateTraceConfig(cfg);
    const double baseline = cfg.base.arrival_rate_per_s;
    const double burst_end =
        cfg.burst_start_seconds + cfg.burst_duration_seconds;
    const auto rate = [&](double t) {
        const bool in_burst =
            t >= cfg.burst_start_seconds && t < burst_end;
        return in_burst ? baseline * cfg.burst_multiplier : baseline;
    };
    return thinnedTrace(cfg.base, baseline * cfg.burst_multiplier,
                        rate, cfg.prompt_lo, cfg.prompt_hi, cfg.gen_lo,
                        cfg.gen_hi);
}

void
validateTraceConfig(const RagSpikeTraceConfig &cfg)
{
    validateTraceConfig(cfg.base);
    validateLengthBounds("ragSpikeTrace", cfg.prompt_lo, cfg.prompt_hi,
                         cfg.gen_lo, cfg.gen_hi);
}

std::vector<serving::Request>
ragSpikeTrace(const RagSpikeTraceConfig &cfg)
{
    validateTraceConfig(cfg);
    Rng rng(cfg.base.seed);
    std::vector<serving::Request> trace;
    trace.reserve(cfg.base.num_requests);
    double t = 0.0;
    for (int64_t i = 0; i < cfg.base.num_requests; ++i) {
        t += expGap(rng, cfg.base.arrival_rate_per_s);
        serving::Request r;
        r.id = i;
        r.arrival_seconds = t;
        // Each prompt is a unique retrieved context; no token ids are
        // materialized, so the prefix cache (keyed on concrete token
        // prefixes) sees nothing shareable — by design.
        r.prompt_len = logUniform(rng, cfg.prompt_lo, cfg.prompt_hi);
        r.gen_len = logUniform(rng, cfg.gen_lo, cfg.gen_hi);
        trace.push_back(r);
    }
    return trace;
}

void
validateTraceConfig(const AgenticLoopTraceConfig &cfg)
{
    validateTraceConfig(cfg.base);
    if (cfg.steps <= 0)
        throw std::invalid_argument(
            "agenticLoopTrace: non-positive steps");
    if (cfg.task_prompt_lo <= 0 ||
        cfg.task_prompt_hi < cfg.task_prompt_lo)
        throw std::invalid_argument(
            "agenticLoopTrace: task-prompt bounds must satisfy "
            "0 < lo <= hi");
    if (cfg.tool_output_lo <= 0 ||
        cfg.tool_output_hi < cfg.tool_output_lo)
        throw std::invalid_argument(
            "agenticLoopTrace: tool-output bounds must satisfy "
            "0 < lo <= hi");
    if (cfg.gen_lo <= 0 || cfg.gen_hi < cfg.gen_lo)
        throw std::invalid_argument(
            "agenticLoopTrace: gen bounds must satisfy 0 < lo <= hi");
    if (!(cfg.tool_latency_mean_s > 0.0) ||
        !std::isfinite(cfg.tool_latency_mean_s))
        throw std::invalid_argument(
            "agenticLoopTrace: tool_latency_mean_s must be positive "
            "and finite");
    if (cfg.vocab < 3)
        throw std::invalid_argument("agenticLoopTrace: vocab < 3");
}

std::vector<serving::Request>
agenticLoopTrace(const AgenticLoopTraceConfig &cfg)
{
    validateTraceConfig(cfg);
    Rng rng(cfg.base.seed);
    std::vector<serving::Request> trace;
    trace.reserve(
        static_cast<size_t>(cfg.base.num_requests * cfg.steps));

    double session_start = 0.0;
    for (int64_t s = 0; s < cfg.base.num_requests; ++s) {
        session_start += expGap(rng, cfg.base.arrival_rate_per_s);
        // Per-session stream so one session's content is stable
        // however many sessions the trace has (the multi-turn
        // generator's convention).
        Rng srng(cfg.base.seed * 7368787ull +
                 static_cast<uint64_t>(s) + 1);

        // The agent's context: the task prompt, then per step the
        // model's previous tool-call tokens (synthesized stand-ins —
        // the simulator never materializes real ones) and the tool's
        // output; every step replays the whole context as its prompt.
        std::vector<int32_t> context;
        double t = session_start;
        int64_t prev_gen = 0;
        for (int64_t step = 0; step < cfg.steps; ++step) {
            if (step > 0) {
                t += expGap(srng, 1.0 / cfg.tool_latency_mean_s);
                for (int64_t k = 0; k < prev_gen; ++k)
                    context.push_back(randomTokenId(srng, cfg.vocab));
                const int64_t tool_len = logUniform(
                    srng, cfg.tool_output_lo, cfg.tool_output_hi);
                for (int64_t k = 0; k < tool_len; ++k)
                    context.push_back(randomTokenId(srng, cfg.vocab));
            } else {
                const int64_t task_len = logUniform(
                    srng, cfg.task_prompt_lo, cfg.task_prompt_hi);
                for (int64_t k = 0; k < task_len; ++k)
                    context.push_back(randomTokenId(srng, cfg.vocab));
            }

            serving::Request r;
            r.arrival_seconds = t;
            r.prompt_len = static_cast<int64_t>(context.size());
            r.gen_len = logUniform(srng, cfg.gen_lo, cfg.gen_hi);
            r.prompt_tokens = serving::PromptTokens(context);
            prev_gen = r.gen_len;
            trace.push_back(std::move(r));
        }
    }

    // Sessions interleave; ids are sequential in global arrival order
    // (the convention every generator here follows).
    serving::sortByArrival(trace);
    for (size_t i = 0; i < trace.size(); ++i)
        trace[i].id = static_cast<int64_t>(i);
    return trace;
}

std::vector<serving::Request>
mixedLengthTrace(const TraceConfig &cfg)
{
    validateTraceConfig(cfg);
    Rng rng(cfg.seed);
    std::vector<serving::Request> trace;
    trace.reserve(cfg.num_requests);
    double t = 0.0;
    for (int64_t i = 0; i < cfg.num_requests; ++i) {
        t += expGap(rng, cfg.arrival_rate_per_s);
        serving::Request r;
        r.id = i;
        r.arrival_seconds = t;
        r.prompt_len = logUniform(rng, 1024, 32768);
        r.gen_len = logUniform(rng, 256, 8192);
        trace.push_back(r);
    }
    return trace;
}

} // namespace workload
} // namespace specontext
