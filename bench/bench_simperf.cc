/**
 * @file
 * Simulator self-benchmark: how fast does the simulator itself run,
 * and does the fast path change a single simulated result?
 *
 * One 16-replica fleet (A800 8B SpeContext, LeastKvLoad routing)
 * serves diurnal traces (mean 8 req/s, 4:1 peak:trough) at two
 * scales — the base sweep (default 100k requests) and a 10x
 * million-request sweep — in two engine modes:
 *
 *   legacy — the reference loop (skip_ahead and cache_decode_costs
 *            off): one scheduling round per event-loop iteration and
 *            per-iteration cost-model re-derivation;
 *   fast   — the defaults: each fired replica runs its whole
 *            pure-decode window in one step() call, and era stepping
 *            walks every eligible pure-decode lane through its window
 *            per booking scan.
 *
 * Each row is the median of kReps interleaved reps (legacy, fast,
 * legacy, fast, ...), so both modes see the same machine drift; the
 * row's noise_floor_pct is its rep spread, (max - min) / median, and a
 * gap between rows smaller than that is noise. Every rep's simulated
 * outputs (placements, iteration count, makespan, latency summary,
 * replica-seconds) are asserted bitwise identical to the first legacy
 * rep before any rate is reported — a fast result that differs from
 * the reference is a wrong result, so the bench fails instead of
 * printing it.
 *
 * Reported per row: wall seconds, simulated-seconds per wall-second
 * (the headline), decode iterations simulated per wall-second, heap
 * allocations per request (operator new interposed in this TU), and
 * speedup vs legacy. Writes BENCH_simperf.json.
 *
 * Regression gates (exit 1):
 *  - any bitwise mismatch against legacy at either scale;
 *  - the base sweep's fast median below the optional sim-s/wall-s
 *    floor (argv[3]);
 *  - per-mode allocations/request above hard ceilings (large runs
 *    only — short traces are dominated by fixed setup costs).
 *
 * argv: [1] output json (default BENCH_simperf.json)
 *       [2] num_requests for the base sweep (default 100000); the
 *           big sweep always runs 10x this
 *       [3] optional floor on the base-sweep fast mode's
 *           simulated-seconds per wall-second; exits 1 below it (CI
 *           regression gate).
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "serving/cluster.h"
#include "workload/trace.h"

// ---- Allocation counter (this TU defines the global operators) ------
static std::atomic<int64_t> g_allocs{0};

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace specontext;

namespace {

/** Interleaved timed reps per mode and scale; rows report medians. */
constexpr int kReps = 3;

/** Per-request allocation count below which gated runs are too short
 *  for stable ratios. */
constexpr int64_t kGateMinRequests = 20000;

/** Hard per-mode ceilings on allocations per request. Legacy prices
 *  every round on a fresh pricer (~3.3 allocations a round over ~204
 *  rounds a request, ~665 a request), so one more allocation per
 *  round trips its ceiling; fast runs ~0.02 against 12, so a
 *  reintroduced per-request allocation trips it. */
double
allocCeiling(const std::string &mode)
{
    return mode == "legacy" ? 800.0 : 12.0;
}

serving::ReplicaConfig
cloudReplica()
{
    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.budget = 2048;
    rc.timing.system = core::SystemRegistry::create("SpeContext", opts);
    rc.max_batch = 8;
    return rc;
}

/** One mode at one scale: its fleet plus the reps measured so far. */
struct ModeRow
{
    ModeRow(std::string m, serving::Cluster c, int64_t n)
        : mode(std::move(m)), cluster(std::move(c)), requests(n)
    {
    }

    std::string mode;
    serving::Cluster cluster;
    int64_t requests = 0;
    std::vector<double> wall_reps;
    int64_t allocs = 0; ///< max over reps
    double sim_s = 0.0;
    int64_t iterations = 0;
    int64_t completed = 0;
};

ModeRow
makeMode(const core::TimingEngine &engine, const std::string &mode,
         bool fast, int64_t requests)
{
    serving::ClusterConfig cc;
    for (int i = 0; i < 16; ++i)
        cc.replicas.push_back(cloudReplica());
    cc.router.policy = serving::RouterPolicy::LeastKvLoad;
    // Legacy turns the whole fast path off — the reference loop this
    // bench reports speedups against.
    cc.fast_path.skip_ahead = fast;
    cc.fast_path.cache_decode_costs = fast;
    return ModeRow(mode, serving::Cluster(engine, cc), requests);
}

/** Median wall seconds over a row's reps (mean of the middle two for
 *  even counts). */
double
medianWall(const ModeRow &m)
{
    std::vector<double> v = m.wall_reps;
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/** Rep spread of a row, (max - min) / median, in percent. */
double
noiseFloorPct(const ModeRow &m)
{
    const double mid = medianWall(m);
    if (mid <= 0.0)
        return 0.0;
    const auto [lo, hi] =
        std::minmax_element(m.wall_reps.begin(), m.wall_reps.end());
    return (*hi - *lo) / mid * 100.0;
}

double
rate(const ModeRow &m)
{
    const double wall = medianWall(m);
    return wall > 0.0 ? m.sim_s / wall : 0.0;
}

double
speedup(const ModeRow &m, const ModeRow &legacy)
{
    const double wall = medianWall(m);
    return wall > 0.0 ? medianWall(legacy) / wall : 0.0;
}

/** Exit loudly on the first simulated output that differs — a faster
 *  wrong answer must never make it into a report. */
int g_mismatches = 0;

void
check(bool same, const char *what, const std::string &mode)
{
    if (same)
        return;
    std::printf("MISMATCH: %s differs between legacy and %s\n", what,
                mode.c_str());
    ++g_mismatches;
}

void
compareToLegacy(const serving::ClusterResult &a,
                const serving::ClusterResult &b, const std::string &mode)
{
    check(a.fleet.makespan_seconds == b.fleet.makespan_seconds,
          "makespan", mode);
    check(a.fleet.iterations == b.fleet.iterations, "iterations", mode);
    check(a.replica_seconds == b.replica_seconds, "replica_seconds",
          mode);
    check(a.placements.size() == b.placements.size(),
          "placement count", mode);
    for (size_t i = 0;
         i < a.placements.size() && i < b.placements.size(); ++i) {
        if (a.placements[i].request_id != b.placements[i].request_id ||
            a.placements[i].replica != b.placements[i].replica) {
            check(false, "placements", mode);
            break;
        }
    }
    const serving::ServingSummary sa = a.summary();
    const serving::ServingSummary sb = b.summary();
    check(sa.completed == sb.completed, "completed", mode);
    check(sa.total_generated_tokens == sb.total_generated_tokens,
          "generated tokens", mode);
    check(sa.ttft_mean == sb.ttft_mean, "ttft_mean", mode);
    check(sa.ttft_p99 == sb.ttft_p99, "ttft_p99", mode);
    check(sa.e2e_mean == sb.e2e_mean, "e2e_mean", mode);
    check(sa.e2e_p99 == sb.e2e_p99, "e2e_p99", mode);
    check(sa.tpot_mean == sb.tpot_mean, "tpot_mean", mode);
    check(sa.queue_delay_mean == sb.queue_delay_mean,
          "queue_delay_mean", mode);
    check(sa.throughput_tokens_per_s == sb.throughput_tokens_per_s,
          "throughput", mode);
}

/** One timed rep of `m` on `trace`; returns its result. */
serving::ClusterResult
timedRep(ModeRow &m, const std::vector<serving::Request> &trace)
{
    const int64_t allocs_before =
        g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    serving::ClusterResult result = m.cluster.run(trace);
    const auto t1 = std::chrono::steady_clock::now();
    m.allocs = std::max(
        m.allocs, g_allocs.load(std::memory_order_relaxed) - allocs_before);
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    m.wall_reps.push_back(wall);
    m.sim_s = result.fleet.makespan_seconds;
    m.iterations = result.fleet.iterations;
    m.completed = result.completed();
    std::printf("  %-6s rep %zu: wall %7.2f s, sim %10.1f s, "
                "%12.0f sim-s/wall-s\n",
                m.mode.c_str(), m.wall_reps.size(), wall, m.sim_s,
                wall > 0.0 ? m.sim_s / wall : 0.0);
    return result;
}

/** Interleaved legacy/fast reps on one trace, every rep checked
 *  against the first legacy rep. */
void
sweep(ModeRow &legacy, ModeRow &fast,
      const std::vector<serving::Request> &trace)
{
    const serving::ClusterResult oracle = timedRep(legacy, trace);
    for (int rep = 0; rep < kReps; ++rep) {
        if (rep > 0)
            compareToLegacy(oracle, timedRep(legacy, trace), "legacy");
        compareToLegacy(oracle, timedRep(fast, trace), "fast");
    }
}

std::vector<serving::Request>
diurnal(int64_t num_requests)
{
    // Mean 8 req/s across a 16-replica fleet: the peak (~12.8 req/s)
    // keeps most lanes decoding, the trough (~3.2) leaves long
    // pure-decode windows — the regime million-request sweeps live in.
    workload::DiurnalTraceConfig dc;
    dc.base.num_requests = num_requests;
    dc.base.arrival_rate_per_s = 8.0;
    dc.base.seed = 17;
    return workload::diurnalTrace(dc);
}

void
jsonRow(std::vector<std::string> &json, const ModeRow &m,
        const ModeRow &legacy)
{
    const double wall = medianWall(m);
    const double events_per_s =
        wall > 0.0 ? static_cast<double>(m.iterations) / wall : 0.0;
    const double allocs_per_req =
        m.requests > 0 ? static_cast<double>(m.allocs) /
                             static_cast<double>(m.requests)
                       : 0.0;
    obs::JsonRow row;
    row.str("mode", m.mode)
        .num("requests", m.requests)
        .num("completed", m.completed)
        .num("reps", static_cast<int64_t>(m.wall_reps.size()))
        .num("sim_seconds", m.sim_s, "%.3f")
        .num("wall_seconds", wall, "%.3f")
        .num("noise_floor_pct", noiseFloorPct(m), "%.2f")
        .num("sim_s_per_wall_s", rate(m), "%.1f")
        .num("decode_iterations", m.iterations)
        .num("iterations_per_wall_s", events_per_s, "%.0f")
        .num("allocs_total", m.allocs)
        .num("allocs_per_request", allocs_per_req, "%.2f")
        .num("speedup_vs_legacy", speedup(m, legacy), "%.2f")
        .num("bitwise_identical_to_legacy", int64_t{1});
    json.push_back(row.render());
}

/** Allocation regression gate (large runs only). */
int
checkAllocs(const ModeRow &m)
{
    if (m.requests < kGateMinRequests)
        return 0;
    const double per_req = static_cast<double>(m.allocs) /
                           static_cast<double>(m.requests);
    if (per_req <= allocCeiling(m.mode))
        return 0;
    std::printf("FAIL: %s mode allocates %.2f/request "
                "(ceiling %.0f)\n",
                m.mode.c_str(), per_req, allocCeiling(m.mode));
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_simperf.json";
    const int64_t num_requests =
        argc > 2 ? std::atoll(argv[2]) : 100000;
    const double floor_sim_per_wall =
        argc > 3 ? std::atof(argv[3]) : 0.0;
    core::TimingEngine engine;

    bench::section("Simulator fast path: simulated seconds per "
                   "wall-clock second");

    std::printf("  fleet: 16x cloudA800 8B SpeContext, LeastKvLoad; "
                "trace: %lld diurnal requests, %d reps per mode\n",
                static_cast<long long>(num_requests), kReps);
    const auto trace = diurnal(num_requests);
    ModeRow legacy = makeMode(engine, "legacy", false, num_requests);
    ModeRow fast = makeMode(engine, "fast", true, num_requests);
    sweep(legacy, fast, trace);

    // Big sweep: 10x the base trace (a million requests at the
    // default), the scale-out row the headline quotes.
    const int64_t big_requests = num_requests * 10;
    std::printf("\n  big sweep: %lld diurnal requests\n",
                static_cast<long long>(big_requests));
    const auto big_trace = diurnal(big_requests);
    ModeRow big_legacy = makeMode(engine, "legacy", false, big_requests);
    ModeRow big_fast = makeMode(engine, "fast", true, big_requests);
    sweep(big_legacy, big_fast, big_trace);

    if (g_mismatches > 0) {
        std::printf("FAIL: fast path changed simulated results\n");
        return 1;
    }
    std::printf("  all simulated outputs bitwise identical across "
                "modes and reps at both scales\n");

    std::vector<std::string> json;
    jsonRow(json, legacy, legacy);
    jsonRow(json, fast, legacy);
    jsonRow(json, big_legacy, big_legacy);
    jsonRow(json, big_fast, big_legacy);
    bench::writeBenchJson(out_path, "simperf", "host-cpu", json);

    int failures = 0;
    for (const ModeRow *m : {&legacy, &fast, &big_legacy, &big_fast})
        failures += checkAllocs(*m);

    std::printf("\nmedian of %d: fast %.0f sim-s/wall-s (noise floor "
                "%.1f%%), %.2fx legacy; big sweep: fast %.0f "
                "sim-s/wall-s (noise floor %.1f%%), %.2fx legacy\n",
                kReps, rate(fast), noiseFloorPct(fast),
                speedup(fast, legacy), rate(big_fast),
                noiseFloorPct(big_fast), speedup(big_fast, big_legacy));
    if (floor_sim_per_wall > 0.0 && rate(fast) < floor_sim_per_wall) {
        std::printf("FAIL: fast mode below floor (%.1f < %.1f "
                    "sim-s/wall-s)\n",
                    rate(fast), floor_sim_per_wall);
        ++failures;
    }
    return failures > 0 ? 1 : 0;
}
