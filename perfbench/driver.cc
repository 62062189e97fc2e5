/**
 * @file
 * The repo benchmark driver: runs one named workload through the
 * library's public API, checks every simulated output against a
 * committed reference digest, and prints one JSON result line.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --golden FILE [--spans FILE] [--perturb-bit]
 *   perfbench_driver --workload W --seed N --reference-digest
 *
 * Inputs come from seed N mod 100, the seeds whose reference digests
 * are committed, so every run is checked against a committed digest.
 *
 * --trace 0 measures the end-to-end metrics: set-up is repeated (at
 * least 5 times and 1 s, median reported), then the workload is run back
 * to back for --seconds and host times are medians over those reps.
 * --trace 1 interleaves untraced reps with traced ones (counters and
 * the event ring attached, benchmark spans around every call into a
 * layer) and reports the per-layer metrics; the spans go to --spans.
 *
 * Correctness: every rep's digest (per-request records, placements,
 * makespan) must equal the digest committed in --golden for this
 * workload and input seed, made with the reference loop (skip_ahead and
 * cache_decode_costs off). Any mismatch prints "correct": false and
 * exits 1. --perturb-bit flips one bit of one record before hashing, so
 * a run with it must fail the check.
 *
 * --reference-digest prints the reference loop's digest (the line
 * make_golden.py commits) and exits.
 *
 * GLOSSARY.md lists each workload's configuration and each metric's
 * definition, unit and time base.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "autoscale/controller.h"
#include "autoscale/policy.h"
#include "core/elastic_loader.h"
#include "core/live_engine.h"
#include "model/distiller.h"
#include "obs/analysis.h"
#include "obs/regime.h"
#include "retrieval/retrieval_head.h"
#include "serving/cluster.h"
#include "tensor/rng.h"
#include "workload/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

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

using Clock = std::chrono::steady_clock;

/** The serving SLO the sim_slo_attainment / goodput metrics score. */
constexpr double kSloTtftSeconds = 2.0;
constexpr double kSloTpotSeconds = 0.050;

/** Elastic workload: provisioning ahead of every scale-up's weight
 *  load (bench_autoscale's value). */
constexpr double kProvisionSeconds = 15.0;

/** Seeds 0..kCommittedSeeds-1 have committed reference digests; --seed
 *  is folded into that range. */
constexpr uint64_t kCommittedSeeds = 100;

/** Live probe: prompt length and teacher-forced steps, long enough that
 *  decode, not prefill, takes most of a run. */
constexpr int64_t kLivePrompt = 512;
constexpr int64_t kLiveSteps = 1024;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- spans

/** One timed call into a layer: name, host interval, the span that
 *  caused it, and the request id (-1: every call the benchmark makes
 *  covers a whole run, none a single request). */
struct Span
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    int64_t request = -1;
};

/** In-memory span recorder; written out once the run ends. */
class SpanLog
{
  public:
    int32_t open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.start_ns = nowNs();
        spans_.push_back(s);
        stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void close(int32_t idx)
    {
        spans_[idx].end_ns = nowNs();
        stack_.pop_back();
    }

    bool write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": "
                         "%" PRId64 ", \"end_ns\": %" PRId64
                         ", \"parent\": %d, \"request\": %" PRId64 "}\n",
                         i, s.name, s.start_ns - origin_, s.end_ns - origin_,
                         s.parent, s.request);
        }
        return std::fclose(f) == 0;
    }

  private:
    static int64_t nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
    int64_t origin_ = nowNs();
};

/** RAII span; a null log records nothing (the untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name)
        : log_(log), idx_(log ? log->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int32_t idx_;
};

/** Counts and times every control() call of the wrapped controller
 *  (the autoscale layer seen from outside the cluster). */
class TimedController final : public serving::FleetController
{
  public:
    TimedController(serving::FleetController &inner, SpanLog *log)
        : inner_(inner), log_(log)
    {
    }

    int control(const serving::FleetState &state) override
    {
        ScopedSpan span(log_, "autoscale.control");
        const auto t0 = Clock::now();
        const int delta = inner_.control(state);
        seconds_ += secondsSince(t0);
        ++calls_;
        return delta;
    }

    int64_t calls() const { return calls_; }
    double seconds() const { return seconds_; }

  private:
    serving::FleetController &inner_;
    SpanLog *log_;
    int64_t calls_ = 0;
    double seconds_ = 0.0;
};

// ------------------------------------------------------------ workloads

serving::ReplicaConfig
speContextReplica()
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

serving::ReplicaConfig
prefixReplica()
{
    serving::ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    core::SystemOptions opts;
    opts.allow_full_attention_offload = false;
    opts.prefix_reload_gbps = 200.0;
    rc.timing.system =
        core::SystemRegistry::create("FullAttn(FlashAttn)", opts);
    rc.max_batch = 64;
    rc.prefix_cache.budget_bytes = 8LL << 30;
    rc.prefix_cache.page_size = 16;
    rc.scheduler_mode = serving::SchedulerMode::Optimistic;
    rc.victim_policy = serving::VictimPolicy::LastAdmitted;
    return rc;
}

/** Everything set-up produces: the generated trace and the fleet
 *  shape (elastic/obs hooks are wired per rep, since the controller
 *  and the recorders are per-run state). */
struct Workload
{
    std::vector<serving::Request> trace;
    serving::ClusterConfig cc;
    bool elastic = false;
    double gen_s = 0.0; ///< host seconds of trace generation
};

std::vector<serving::Request>
generateTrace(const std::string &name, uint64_t seed)
{
    if (name == "prefix-churn") {
        workload::SharedPrefixTraceConfig pc;
        pc.base.num_requests = 2000;
        pc.base.arrival_rate_per_s = 4.0;
        pc.base.seed = seed;
        pc.num_families = 64;
        pc.prefix_len = 4096;
        pc.zipf_s = 1.0;
        return workload::sharedPrefixTrace(pc);
    }
    if (name == "elastic-observed") {
        // ~17 diurnal periods: fewer leave the attach count (and so
        // host time) and the SLO metrics swinging from seed to seed.
        workload::DiurnalTraceConfig dc;
        dc.base.num_requests = 20000;
        dc.base.arrival_rate_per_s = 2.0;
        dc.base.seed = seed;
        return workload::diurnalTrace(dc);
    }
    throw std::invalid_argument("unknown workload: " + name);
}

/** Set-up: trace generation plus fleet construction. */
Workload
setUp(const std::string &name, uint64_t seed,
      const core::TimingEngine &engine, SpanLog *spans)
{
    Workload w;
    {
        ScopedSpan span(spans, "workload.gen");
        const auto t0 = Clock::now();
        w.trace = generateTrace(name, seed);
        w.gen_s = secondsSince(t0);
    }
    ScopedSpan span(spans, "cluster.construct");
    if (name == "prefix-churn") {
        for (int i = 0; i < 4; ++i)
            w.cc.replicas.push_back(prefixReplica());
        w.cc.router.policy = serving::RouterPolicy::PrefixAffinity;
    } else {
        w.elastic = true;
        w.cc.replicas = {speContextReplica()};
        w.cc.elastic.min_replicas = 1;
        w.cc.elastic.max_replicas = 8;
        w.cc.elastic.control_period_seconds = 5.0;
        w.cc.elastic.provision_seconds = kProvisionSeconds;
    }
    // Validates the fleet exactly as every rep will.
    const serving::Cluster check(engine, w.cc);
    return w;
}

// ----------------------------------------------------------------- reps

/** One rep's outputs: the simulated result plus host measurements. */
struct Rep
{
    serving::ClusterResult result;
    double run_s = 0.0;      ///< Cluster::run (+ analysis when elastic)
    double analysis_s = 0.0; ///< post-run obs analysis (elastic)
    int64_t allocs = 0;      ///< operator new calls inside run_s
    int64_t control_calls = 0;
    double control_s = 0.0;
    std::map<std::string, int64_t> counters; ///< summed by metric suffix
    int64_t events = 0;
    int64_t events_dropped = 0;
    int64_t sampler_rows = 0;
    double timelines_complete_share = 0.0;
};

/** Sum registry slots by their metric suffix: replica<N>.x -> x, the
 *  rest keep their full name. */
std::map<std::string, int64_t>
sumCounters(const obs::CounterRegistry &reg)
{
    std::map<std::string, int64_t> out;
    for (const auto &e : reg.snapshot()) {
        std::string key = e.name;
        if (key.rfind("replica", 0) == 0) {
            const size_t dot = key.find('.');
            if (dot != std::string::npos)
                key = key.substr(dot + 1);
        }
        out[key] += e.value;
    }
    return out;
}

/**
 * Run the workload once. `traced` attaches the counter registry and
 * the event ring (the elastic workload always carries its own) and
 * records spans into `spans`; `reference` selects the reference loop.
 */
Rep
runOnce(const Workload &w, const core::TimingEngine &engine, bool traced,
        bool reference, SpanLog *spans)
{
    ScopedSpan rep_span(spans, "rep");
    serving::ClusterConfig cc = w.cc;
    if (reference) {
        cc.fast_path.skip_ahead = false;
        cc.fast_path.cache_decode_costs = false;
    }

    // Observability: the elastic workload observes by design (the
    // controller reads the registry; analysis reads the ring and the
    // sampler); the others attach registry + ring only when traced.
    std::unique_ptr<obs::CounterRegistry> counters;
    std::unique_ptr<obs::TimeseriesSampler> sampler;
    std::unique_ptr<obs::Trace> ring;
    std::unique_ptr<autoscale::ThresholdPolicy> policy;
    std::unique_ptr<autoscale::Controller> controller;
    std::unique_ptr<TimedController> timed;
    if (w.elastic || traced) {
        counters = std::make_unique<obs::CounterRegistry>();
        obs::TraceConfig tc;
        // Sized so the elastic run drops nothing (its analysis needs
        // whole lifecycles); the ring grows only as events arrive.
        tc.capacity = w.elastic ? (size_t{1} << 25) : (size_t{1} << 16);
        ring = std::make_unique<obs::Trace>(tc);
        cc.obs.counters = counters.get();
        cc.obs.trace = ring.get();
    }
    if (w.elastic) {
        obs::TimeseriesSamplerConfig sc;
        sc.interval_seconds = 5.0;
        sampler = std::make_unique<obs::TimeseriesSampler>(counters.get(),
                                                           sc);
        cc.obs.sampler = sampler.get();
        autoscale::ThresholdPolicyConfig pc;
        pc.consecutive_low_ticks = 12;
        policy = std::make_unique<autoscale::ThresholdPolicy>(pc);
        autoscale::ControllerConfig ctl;
        ctl.slo.ttft_p99_target_seconds = 25.0;
        ctl.slo.queue_depth_high = 4.0;
        ctl.slo.queue_depth_low = 0.5;
        ctl.policy = policy.get();
        ctl.counters = counters.get();
        ctl.sampler = sampler.get();
        controller = std::make_unique<autoscale::Controller>(ctl);
        if (traced) {
            timed = std::make_unique<TimedController>(*controller, spans);
            cc.elastic.controller = timed.get();
        } else {
            cc.elastic.controller = controller.get();
        }
    }
    const serving::Cluster cluster(engine, cc);

    Rep rep;
    const int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    {
        ScopedSpan span(spans, "cluster.run");
        rep.result = cluster.run(w.trace);
    }
    rep.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    if (w.elastic) {
        ScopedSpan span(spans, "obs.analysis");
        const auto ta = Clock::now();
        obs::TraceAnalysis an;
        {
            ScopedSpan s(spans, "obs.analyzeTrace");
            an = obs::analyzeTrace(*ring);
        }
        {
            ScopedSpan s(spans, "obs.blameTable");
            const obs::BlameTable e2e =
                obs::blameTable(an.complete, obs::BlameMetric::E2E);
            const obs::BlameTable ttft =
                obs::blameTable(an.complete, obs::BlameMetric::TTFT);
            if (e2e.rows.empty() || ttft.rows.empty())
                throw std::runtime_error("empty blame table");
        }
        {
            ScopedSpan s(spans, "obs.classifyRegimes");
            const obs::RegimeTimeline regimes =
                obs::classifyRegimes(*sampler);
            if (regimes.windows.empty())
                throw std::runtime_error("no regime windows");
        }
        rep.analysis_s = secondsSince(ta);
        const size_t total = an.complete.size() + an.incomplete.size();
        rep.timelines_complete_share =
            total ? static_cast<double>(an.complete.size()) /
                        static_cast<double>(total)
                  : 0.0;
    }
    rep.run_s = secondsSince(t0);

    if (timed) {
        rep.control_calls = timed->calls();
        rep.control_s = timed->seconds();
    }
    if (counters)
        rep.counters = sumCounters(*counters);
    if (ring) {
        rep.events = static_cast<int64_t>(ring->emitted());
        rep.events_dropped = static_cast<int64_t>(ring->dropped());
    }
    if (sampler)
        rep.sampler_rows = static_cast<int64_t>(sampler->samples().size());
    return rep;
}

// ----------------------------------------------------------- live probe

/** Host timings of the real CPU kernels (model, tensor, retrieval). */
struct LiveProbe
{
    double prefill_s = 0.0;
    double head_observe_s = 0.0;
    double head_step_us = 0.0;     ///< median over steps
    double loader_update_us = 0.0; ///< median over steps
    double decode_step_us = 0.0;   ///< median over steps
    double tokens_loaded_share = 0.0;
    double tok_per_s = 0.0;
    double top1_agreement = 0.0;
};

/**
 * One SpeContext decode on a benchConfig(GQA) LLM and its distilled
 * DLM (retrieval budget prompt/8), driven call by call so each kernel
 * is timed, then one whole teacher-forced runWithSpeContext against a
 * full-attention reference.
 */
LiveProbe
probeLive(uint64_t seed, SpanLog *spans)
{
    const model::ModelConfig cfg =
        model::benchConfig(model::AttentionKind::GQA);
    const model::Transformer llm = model::Transformer::randomInit(cfg, seed);
    const model::Transformer dlm = model::distill(llm);
    const core::LiveEngine engine(llm);
    Rng rng(seed);
    std::vector<int32_t> prompt(kLivePrompt);
    for (int32_t &t : prompt)
        t = static_cast<int32_t>(2 + rng.uniformInt(cfg.vocab - 2));
    core::Reference ref;
    {
        ScopedSpan span(spans, "live.buildReference");
        ref = engine.buildReference(prompt, kLiveSteps);
    }
    const retrieval::RetrievalHeadOptions head_opts{kLivePrompt / 8};

    LiveProbe p;
    kv::KVCacheSet cache(cfg);
    retrieval::RetrievalHead head(dlm, head_opts);
    core::ElasticLoader loader;
    {
        ScopedSpan span(spans, "model.prefill");
        const auto t0 = Clock::now();
        llm.prefill(prompt, cache);
        p.prefill_s = secondsSince(t0);
    }
    {
        ScopedSpan span(spans, "retrieval.observe");
        const auto t0 = Clock::now();
        head.observe(prompt);
        p.head_observe_s = secondsSince(t0);
    }
    std::vector<double> step_us, update_us, decode_us;
    for (const int32_t tok : ref.tokens) {
        model::LayerSelection sel;
        {
            ScopedSpan span(spans, "retrieval.step");
            const auto t0 = Clock::now();
            sel = head.step(tok);
            step_us.push_back(1e6 * secondsSince(t0));
        }
        {
            ScopedSpan span(spans, "core.ElasticLoader.update");
            const auto t0 = Clock::now();
            loader.update(sel);
            update_us.push_back(1e6 * secondsSince(t0));
        }
        const model::LayerSelector selector =
            [&sel](int64_t, const Tensor &) { return sel; };
        ScopedSpan span(spans, "model.decodeStep");
        const auto t0 = Clock::now();
        llm.decodeStep(tok, cache, &selector);
        decode_us.push_back(1e6 * secondsSince(t0));
    }
    p.head_step_us = median(step_us);
    p.loader_update_us = median(update_us);
    p.decode_step_us = median(decode_us);
    p.tokens_loaded_share =
        loader.totalFullBudget() > 0
            ? static_cast<double>(loader.totalLoaded()) /
                  static_cast<double>(loader.totalFullBudget())
            : 0.0;

    retrieval::RetrievalHead run_head(dlm, head_opts);
    ScopedSpan span(spans, "live.runWithSpeContext");
    const auto t0 = Clock::now();
    const core::LiveGenResult r = engine.runWithSpeContext(ref, run_head);
    p.tok_per_s = static_cast<double>(kLiveSteps) / secondsSince(t0);
    p.top1_agreement = r.top1_agreement;
    return p;
}

// --------------------------------------------------------------- digest

/** FNV-1a over 64-bit words (byte order fixed: little end first). */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ULL;

    void word(uint64_t w)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void i64(int64_t v) { word(static_cast<uint64_t>(v)); }
    void f64(double d)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        word(bits);
    }
};

/**
 * Digest of every simulated output the benchmark checks: per-request
 * records in id order (id, replica, bit patterns of admit, first-token
 * and finish times, preemptions), rejected ids, placements in routed
 * order, and the makespan's bit pattern. `perturb` flips the lowest
 * bit of the first record's finish time (the self-test).
 */
uint64_t
digest(const serving::ClusterResult &r, bool perturb)
{
    std::vector<serving::RequestRecord> recs = r.fleet.metrics.records();
    std::sort(recs.begin(), recs.end(),
              [](const serving::RequestRecord &a,
                 const serving::RequestRecord &b) { return a.id < b.id; });
    if (perturb && !recs.empty()) {
        uint64_t bits = 0;
        std::memcpy(&bits, &recs[0].finish_seconds, sizeof bits);
        bits ^= 1;
        std::memcpy(&recs[0].finish_seconds, &bits, sizeof bits);
    }
    Fnv f;
    f.i64(static_cast<int64_t>(recs.size()));
    for (const serving::RequestRecord &rec : recs) {
        f.i64(rec.id);
        f.i64(rec.replica);
        f.f64(rec.admit_seconds);
        f.f64(rec.first_token_seconds);
        f.f64(rec.finish_seconds);
        f.i64(rec.preemptions);
    }
    f.i64(static_cast<int64_t>(r.fleet.rejected.size()));
    for (const serving::Request &q : r.fleet.rejected)
        f.i64(q.id);
    f.i64(static_cast<int64_t>(r.placements.size()));
    for (const serving::Placement &p : r.placements) {
        f.i64(p.request_id);
        f.i64(p.replica);
    }
    f.f64(r.fleet.makespan_seconds);
    return f.h;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Committed digest of (workload, seed), or "" when not committed.
 *  File format: one "workload seed digest" triple per line; '#'
 *  starts a comment. */
std::string
goldenDigest(const std::string &path, const std::string &workload,
             uint64_t seed)
{
    if (path.empty())
        return "";
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden file " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, d;
        uint64_t s = 0;
        if ((ls >> w >> s >> d) && w == workload && s == seed)
            return d;
    }
    return "";
}

// -------------------------------------------------------------- metrics

/** Simulated serving outcome of one run (deterministic per seed). */
struct SimOutcome
{
    int64_t attempted = 0;
    int64_t failed = 0;
    double makespan_s = 0.0;
    double ttft_p50_s = 0.0;
    double ttft_p99_s = 0.0;
    double tpot_p99_ms = 0.0;
    double slo_attainment = 0.0;
    double goodput_tok_per_replica_s = 0.0;
    double queue_wait_p50_s = 0.0;
    double queue_wait_p99_s = 0.0;
    int64_t generated_tokens = 0;
};

SimOutcome
outcome(const Workload &w, const serving::ClusterResult &r)
{
    SimOutcome o;
    o.attempted = static_cast<int64_t>(w.trace.size());
    o.failed = o.attempted - r.completed();
    o.makespan_s = r.fleet.makespan_seconds;
    std::vector<double> ttft, tpot, wait;
    int64_t met = 0, good_tokens = 0;
    for (const serving::RequestRecord &rec : r.fleet.metrics.records()) {
        ttft.push_back(rec.ttft());
        wait.push_back(rec.queueDelay());
        if (rec.gen_len > 1)
            tpot.push_back(rec.tpot());
        o.generated_tokens += rec.gen_len;
        if (rec.ttft() <= kSloTtftSeconds && rec.tpot() <= kSloTpotSeconds) {
            ++met;
            good_tokens += rec.gen_len;
        }
    }
    using SM = serving::ServingMetrics;
    o.ttft_p50_s = SM::percentile(ttft, 50.0);
    o.ttft_p99_s = SM::percentile(ttft, 99.0);
    o.tpot_p99_ms = 1e3 * SM::percentile(tpot, 99.0);
    o.queue_wait_p50_s = SM::percentile(wait, 50.0);
    o.queue_wait_p99_s = SM::percentile(wait, 99.0);
    o.slo_attainment = o.attempted
                           ? static_cast<double>(met) /
                                 static_cast<double>(o.attempted)
                           : 0.0;
    o.goodput_tok_per_replica_s =
        r.replica_seconds > 0.0
            ? static_cast<double>(good_tokens) / r.replica_seconds
            : 0.0;
    return o;
}

/** Ordered name -> (value, unit) list rendered as the result line. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        items_.push_back({name, value, unit});
    }

    std::string render() const
    {
        std::string out = "{";
        char buf[64];
        for (size_t i = 0; i < items_.size(); ++i) {
            const double v =
                std::isfinite(items_[i].value) ? items_[i].value : 0.0;
            std::snprintf(buf, sizeof buf, "%.17g", v);
            out += (i ? ", \"" : "\"") + items_[i].name +
                   "\": {\"value\": " + buf + ", \"unit\": \"" +
                   items_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Item> items_;
};

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ----------------------------------------------------------------- main

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string golden;
    std::string spans_out;
    bool reference_digest = false;
    bool perturb = false;
};

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed")
            o.seed = std::stoull(next());
        else if (a == "--seconds")
            o.seconds = std::stod(next());
        else if (a == "--trace")
            o.trace = next() != "0";
        else if (a == "--golden")
            o.golden = next();
        else if (a == "--spans")
            o.spans_out = next();
        else if (a == "--reference-digest")
            o.reference_digest = true;
        else if (a == "--perturb-bit")
            o.perturb = true;
        else
            throw std::invalid_argument("unknown argument " + a);
    }
    if (o.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (!(o.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    if (!o.reference_digest && o.golden.empty())
        throw std::invalid_argument("--golden is required");
    return o;
}

int
run(const Options &opt)
{
    const core::TimingEngine engine;
    const uint64_t input_seed = opt.seed % kCommittedSeeds;

    if (opt.reference_digest) {
        const Workload w = setUp(opt.workload, input_seed, engine, nullptr);
        const Rep rep = runOnce(w, engine, false, true, nullptr);
        std::printf("%s %" PRIu64 " %s\n", opt.workload.c_str(), input_seed,
                    hex(digest(rep.result, false)).c_str());
        return 0;
    }
    const std::string want =
        goldenDigest(opt.golden, opt.workload, input_seed);
    if (want.empty())
        throw std::runtime_error("no committed digest for " + opt.workload +
                                 " seed " + std::to_string(input_seed) +
                                 " in " + opt.golden);

    // ---- Set-up, repeated (at least 5 times and 1 s, at most 200
    // times) so its median is steady; the last one is kept. -----------
    SpanLog span_log;
    SpanLog *spans = opt.trace ? &span_log : nullptr;
    std::vector<double> setup_s, gen_s;
    Workload w;
    double setup_total = 0.0;
    while (setup_s.size() < 200 &&
           (setup_s.size() < 5 || setup_total < 1.0)) {
        const auto t0 = Clock::now();
        w = setUp(opt.workload, input_seed, engine,
                  setup_s.empty() ? spans : nullptr);
        setup_s.push_back(secondsSince(t0));
        setup_total += setup_s.back();
        gen_s.push_back(w.gen_s);
    }

    // ---- Timed reps. -------------------------------------------------
    // Traced runs alternate untraced and traced reps so drift on the
    // host hits both sides alike.
    // Each rep is hashed as it ends; only the first rep of each kind
    // keeps its outputs, so memory does not grow with the rep count.
    std::vector<Rep> plain, traced;
    std::vector<std::string> digests;
    auto keep = [&](std::vector<Rep> &reps, Rep r) {
        digests.push_back(hex(digest(r.result, opt.perturb)));
        if (!reps.empty())
            r.result = serving::ClusterResult();
        reps.push_back(std::move(r));
    };
    const auto start = Clock::now();
    do {
        keep(plain, runOnce(w, engine, false, false, nullptr));
        if (opt.trace)
            keep(traced, runOnce(w, engine, true, false, spans));
    } while (secondsSince(start) < opt.seconds || plain.size() < 3);
    const double peak_rss_mb = peakRssMb();

    // ---- Correctness: every rep against the committed digest. -------
    bool correct = true;
    for (const std::string &got : digests) {
        if (got != want) {
            std::fprintf(stderr,
                         "DIGEST MISMATCH: %s seed %" PRIu64
                         ": got %s, committed reference %s\n",
                         opt.workload.c_str(), input_seed, got.c_str(),
                         want.c_str());
            correct = false;
        }
    }

    const SimOutcome sim = outcome(w, plain.front().result);
    std::vector<double> run_s;
    for (const Rep &r : plain)
        run_s.push_back(r.run_s);
    const double run_med = median(run_s);

    Metrics m;
    if (!opt.trace) {
        m.add("setup_s", median(setup_s), "s");
        m.add("host_sim_s_per_s", ratio(sim.makespan_s, run_med), "s/s");
        m.add("host_peak_rss_mb", peak_rss_mb, "MB");
        m.add("sim_ttft_p50_s", sim.ttft_p50_s, "s");
        m.add("sim_tpot_p99_ms", sim.tpot_p99_ms, "ms");
        m.add("sim_slo_attainment", sim.slo_attainment, "share");
        m.add("sim_goodput_tok_per_replica_s",
              sim.goodput_tok_per_replica_s, "tok/replica-s");
    } else {
        const serving::ClusterResult &res = traced.front().result;
        auto tmed = [&](auto field) {
            std::vector<double> v;
            for (const Rep &r : traced)
                v.push_back(static_cast<double>(field(r)));
            return median(v);
        };
        const double traced_run =
            tmed([](const Rep &r) { return r.run_s; });
        const double control_s =
            tmed([](const Rep &r) { return r.control_s; });
        const double analysis_s =
            tmed([](const Rep &r) { return r.analysis_s; });
        const std::map<std::string, int64_t> &c = traced.front().counters;
        auto counter = [&](const char *k) -> double {
            const auto it = c.find(k);
            return it == c.end() ? 0.0 : static_cast<double>(it->second);
        };

        int64_t attaches = 0;
        for (const serving::ScaleEvent &e : res.scale_events)
            attaches += e.action == serving::ScaleAction::Attach;
        double warmup_price_s = 0.0;
        if (w.elastic) {
            // The public warmup pricer, timed on the template replica.
            std::vector<double> v;
            for (int i = 0; i < 5; ++i) {
                ScopedSpan span(spans, "serving.replicaWarmupSeconds");
                const auto t0 = Clock::now();
                const double sim_warm = serving::replicaWarmupSeconds(
                    w.cc.replicas[w.cc.elastic.template_replica],
                    w.cc.elastic.provision_seconds);
                v.push_back(secondsSince(t0));
                if (!(sim_warm > 0.0))
                    throw std::runtime_error("non-positive warmup");
            }
            warmup_price_s = median(v);
        }
        // The live kernels have no simulated fleet, so they ride on the
        // traced run of the SpeContext workload (see GLOSSARY.md).
        LiveProbe live;
        if (w.elastic)
            live = probeLive(input_seed, spans);
        const double warm_total =
            static_cast<double>(attaches) * warmup_price_s;
        const double cluster_run =
            tmed([](const Rep &r) { return r.run_s - r.analysis_s; });

        const serving::PrefixCacheStats &px = res.fleet.prefix;
        std::vector<double> allocs;
        for (const Rep &r : plain)
            allocs.push_back(static_cast<double>(r.allocs));

        m.add("workload.gen_s", median(gen_s), "s");
        m.add("cluster.run_s", cluster_run, "s");
        m.add("cluster.decode_iterations",
              static_cast<double>(res.fleet.iterations), "count");
        m.add("cluster.host_ns_per_iteration",
              ratio(1e9 * median([&] {
                        std::vector<double> v;
                        for (const Rep &r : plain)
                            v.push_back(r.run_s - r.analysis_s);
                        return v;
                    }()),
                    static_cast<double>(res.fleet.iterations)),
              "ns");
        m.add("cluster.allocs_per_request",
              ratio(median(allocs), static_cast<double>(sim.attempted)),
              "count");
        m.add("cluster.replica_seconds", res.replica_seconds, "s");
        m.add("cluster.unattributed_s",
              cluster_run - control_s - warm_total, "s");
        m.add("router.placements", counter("router.placements"), "count");
        m.add("router.affinity_spills", counter("router.affinity_spills"),
              "count");
        m.add("router.prefix_hit_request_share",
              ratio(static_cast<double>(px.hit_requests),
                    static_cast<double>(px.lookups)),
              "share");
        m.add("sched.admit_checks", counter("admit_checks"), "count");
        m.add("sched.admit_denial_share",
              ratio(counter("admit_denials"), counter("admit_checks")),
              "share");
        m.add("sim.ttft_p99_s", sim.ttft_p99_s, "s");
        m.add("sched.queue_wait_p50_s", sim.queue_wait_p50_s, "s");
        m.add("sched.queue_wait_p99_s", sim.queue_wait_p99_s, "s");
        m.add("sched.batch_mean",
              ratio(static_cast<double>(sim.generated_tokens),
                    static_cast<double>(res.fleet.iterations)),
              "tok/iter");
        m.add("sched.preemptions",
              static_cast<double>(res.fleet.preempt.preemptions), "count");
        m.add("sched.recompute_tokens",
              static_cast<double>(res.fleet.preempt.recompute_tokens),
              "count");
        m.add("prefix.hit_rate", px.hitRate(), "share");
        m.add("prefix.inserted_tokens",
              static_cast<double>(px.inserted_tokens), "count");
        m.add("prefix.evicted_tokens",
              static_cast<double>(px.evicted_tokens), "count");
        m.add("prefix.evict_per_insert",
              ratio(static_cast<double>(px.evicted_tokens),
                    static_cast<double>(px.inserted_tokens)),
              "share");
        m.add("autoscale.control_calls",
              static_cast<double>(traced.front().control_calls), "count");
        m.add("autoscale.control_s", control_s, "s");
        m.add("elastic.attaches", static_cast<double>(attaches), "count");
        m.add("elastic.warmup_price_s", warmup_price_s, "s");
        m.add("elastic.warmup_share_of_run", ratio(warm_total, cluster_run),
              "share");
        m.add("obs.events", static_cast<double>(traced.front().events),
              "count");
        m.add("obs.events_dropped",
              static_cast<double>(traced.front().events_dropped), "count");
        m.add("obs.sampler_rows",
              static_cast<double>(traced.front().sampler_rows), "count");
        m.add("obs.analysis_s", analysis_s, "s");
        m.add("obs.timelines_complete_share",
              traced.front().timelines_complete_share, "share");
        m.add("obs.trace_overhead_frac", ratio(traced_run, run_med) - 1.0,
              "share");
        m.add("live.prefill_s", live.prefill_s, "s");
        m.add("live.head_observe_s", live.head_observe_s, "s");
        m.add("live.head_step_us", live.head_step_us, "us");
        m.add("live.loader_update_us", live.loader_update_us, "us");
        m.add("live.decode_step_us", live.decode_step_us, "us");
        m.add("live.tokens_loaded_share", live.tokens_loaded_share, "share");
        m.add("live.tok_per_s", live.tok_per_s, "tok/s");
        m.add("live.top1_agreement", live.top1_agreement, "share");
        if (!opt.spans_out.empty() && !span_log.write(opt.spans_out)) {
            std::fprintf(stderr, "cannot write spans to %s\n",
                         opt.spans_out.c_str());
            return 1;
        }
    }

    std::string rep_list;
    for (double s : run_s) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.6f", rep_list.empty() ? "" : ", ",
                      s);
        rep_list += buf;
    }
    std::printf("{\"provenance\": {\"build_type\": \"%s\", \"compiler\": "
                "\"%s\", \"nproc\": %ld, \"workload\": \"%s\", \"seed\": "
                "%" PRIu64 ", \"input_seed\": %" PRIu64 ", \"reps\": %zu, "
                "\"traced_reps\": %zu, \"setups\": %zu, \"run_seconds\": "
                "%.17g, \"rep_seconds\": [%s], \"digest\": \"%s\"}}\n",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
                sysconf(_SC_NPROCESSORS_ONLN), opt.workload.c_str(),
                opt.seed, input_seed, plain.size(), traced.size(),
                setup_s.size(), opt.seconds, rep_list.c_str(), want.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", sim.attempted, sim.failed,
                m.render().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 2;
    }
}
