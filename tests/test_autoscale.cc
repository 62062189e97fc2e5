/**
 * @file
 * Tests of the autoscaling control plane: warmup pricing (checked
 * against a cold core::ElasticLoader oracle), SLO validation, the
 * three scaling policies as pure decision rules, the obs-polling
 * Controller's signal digestion, and the elastic serving::Cluster
 * machinery — above all the parity pin that a never-scaled elastic
 * fleet is bit-for-bit the fixed fleet, so the elastic code path can
 * never drift from the pinned serving arithmetic.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "autoscale/controller.h"
#include "autoscale/policy.h"
#include "autoscale/slo.h"
#include "core/elastic_loader.h"
#include "core/timing_engine.h"
#include "obs/counters.h"
#include "obs/sampler.h"
#include "serving/cluster.h"
#include "workload/trace.h"

namespace specontext {
namespace {

using autoscale::Controller;
using autoscale::ControllerConfig;
using autoscale::PredictivePolicy;
using autoscale::ScalePolicy;
using autoscale::Signals;
using autoscale::SloConfig;
using autoscale::TargetUtilizationPolicy;
using autoscale::ThresholdPolicy;
using serving::Cluster;
using serving::ClusterConfig;
using serving::ClusterResult;
using serving::FleetState;
using serving::ReplicaConfig;
using serving::Request;
using serving::RouterPolicy;
using serving::ScaleAction;
using serving::ScaleEvent;

ReplicaConfig
cloudReplica(const std::string &sys = "SpeContext")
{
    ReplicaConfig rc;
    rc.timing.llm = model::deepseekDistillLlama8bGeometry();
    rc.timing.hw = sim::HardwareSpec::cloudA800();
    rc.timing.system = core::SystemRegistry::create(sys);
    rc.max_batch = 64;
    return rc;
}

Request
makeRequest(int64_t id, double arrival, int64_t prompt, int64_t gen)
{
    Request r;
    r.id = id;
    r.arrival_seconds = arrival;
    r.prompt_len = prompt;
    r.gen_len = gen;
    return r;
}

/** FleetController that never scales — the parity pin's instrument. */
class HoldController final : public serving::FleetController
{
  public:
    int control(const FleetState &) override
    {
        ++ticks;
        return 0;
    }
    int ticks = 0;
};

// ------------------------------------------------------ warmup pricing

/**
 * Reference warmup price: the weight footprint expressed as a
 * selection of KV-token-equivalents and billed through a cold
 * ElasticLoader, whose empty resident sets report the whole selection
 * as to-load — the same set-difference machinery that prices elastic
 * KV movement.
 */
double
coldLoaderWarmupSeconds(const ReplicaConfig &rc, double provision_seconds)
{
    const int64_t weight_bytes =
        core::weightFootprintBytes(rc.timing.llm);
    const int64_t bytes_per_token =
        core::kvBytesPerTokenPerLayer(rc.timing.llm);
    const int64_t token_equiv =
        (weight_bytes + bytes_per_token - 1) / bytes_per_token;
    model::LayerSelection sel;
    sel.per_head.emplace_back();
    sel.per_head.back().reserve(static_cast<size_t>(token_equiv));
    for (int64_t p = 0; p < token_equiv; ++p)
        sel.per_head.back().push_back(p);
    core::ElasticLoader cold;
    const core::LoadPlan plan = cold.update(sel);
    const double load_bytes =
        static_cast<double>(plan.tokens_to_load) *
        static_cast<double>(bytes_per_token);
    return provision_seconds +
           load_bytes / (rc.timing.hw.pcie_bw_gbps * 1e9);
}

TEST(Autoscale, WarmupPricesWeightLoadThroughColdLoader)
{
    const ReplicaConfig cloud = cloudReplica();
    ReplicaConfig edge = cloud;
    edge.timing.llm = model::reasoningLlama32_1bGeometry();
    edge.timing.hw = sim::HardwareSpec::edge4060();
    ReplicaConfig mla = edge;
    mla.timing.llm.attention = model::AttentionKind::MLA;
    mla.timing.llm.mla_latent_dim = 512;
    for (const ReplicaConfig &rc : {cloud, edge, mla}) {
        SCOPED_TRACE(rc.timing.llm.name + " " +
                     model::attentionKindName(rc.timing.llm.attention) +
                     " on " + rc.timing.hw.name);
        // Bitwise: the closed form is exactly the cold loader's bill,
        // rounding to whole KV-token units included.
        for (double provision : {0.0, 7.5})
            EXPECT_EQ(serving::replicaWarmupSeconds(rc, provision),
                      coldLoaderWarmupSeconds(rc, provision));
        // The rounding adds at most one token's bytes to the footprint.
        const double w = serving::replicaWarmupSeconds(rc);
        const double unrounded =
            static_cast<double>(
                core::weightFootprintBytes(rc.timing.llm)) /
            (rc.timing.hw.pcie_bw_gbps * 1e9);
        EXPECT_GE(w, unrounded);
        EXPECT_NEAR(w, unrounded, 1e-3);
    }
    EXPECT_THROW(serving::replicaWarmupSeconds(cloud, -1.0),
                 std::invalid_argument);
    EXPECT_THROW(
        serving::replicaWarmupSeconds(
            cloud, std::numeric_limits<double>::infinity()),
        std::invalid_argument);
    ReplicaConfig no_link = cloud;
    no_link.timing.hw.pcie_bw_gbps = 0.0;
    EXPECT_THROW(serving::replicaWarmupSeconds(no_link),
                 std::invalid_argument);
    // A zero-width KV token must be rejected, not divided by.
    ReplicaConfig no_kv_heads = cloud;
    no_kv_heads.timing.llm.kv_heads = 0;
    EXPECT_THROW(serving::replicaWarmupSeconds(no_kv_heads),
                 std::invalid_argument);
}

// ------------------------------------------------------- slo validation

TEST(Autoscale, SloValidationRejectsDegenerateKnobs)
{
    SloConfig ok;
    EXPECT_NO_THROW(autoscale::validateSloConfig(ok));

    SloConfig bad_ttft = ok;
    bad_ttft.ttft_p99_target_seconds = 0.0;
    EXPECT_THROW(autoscale::validateSloConfig(bad_ttft),
                 std::invalid_argument);
    SloConfig bad_high = ok;
    bad_high.queue_depth_high = -1.0;
    EXPECT_THROW(autoscale::validateSloConfig(bad_high),
                 std::invalid_argument);
    SloConfig bad_low = ok;
    bad_low.queue_depth_low = -0.5;
    EXPECT_THROW(autoscale::validateSloConfig(bad_low),
                 std::invalid_argument);
    // No hysteresis band: low >= high must be rejected.
    SloConfig inverted = ok;
    inverted.queue_depth_low = inverted.queue_depth_high;
    EXPECT_THROW(autoscale::validateSloConfig(inverted),
                 std::invalid_argument);
}

// ------------------------------------------------------------- policies

Signals
baseSignals()
{
    Signals s;
    s.live = 2;
    s.min_replicas = 1;
    s.max_replicas = 8;
    return s;
}

TEST(Autoscale, ThresholdScalesUpOnPressureAndHoldsWhileWarming)
{
    ThresholdPolicy p;
    const SloConfig slo; // high = 4 per live replica
    Signals hot = baseSignals();
    hot.queued = 10; // 5 per live > 4
    EXPECT_EQ(p.desiredDelta(hot, slo), 1);
    // Capacity already on order suppresses a re-order.
    hot.warming = 1;
    EXPECT_EQ(p.desiredDelta(hot, slo), 0);
}

TEST(Autoscale, ThresholdScaleDownNeedsSustainedIdle)
{
    ThresholdPolicy p({/*consecutive_low_ticks=*/3, /*up_step=*/1});
    const SloConfig slo;
    Signals idle = baseSignals();
    idle.queued = 0;
    EXPECT_EQ(p.desiredDelta(idle, slo), 0); // streak 1
    EXPECT_EQ(p.desiredDelta(idle, slo), 0); // streak 2
    EXPECT_EQ(p.desiredDelta(idle, slo), -1); // streak 3: release
    // The streak restarts after a release...
    EXPECT_EQ(p.desiredDelta(idle, slo), 0);
    EXPECT_EQ(p.desiredDelta(idle, slo), 0);
    // ...and is broken by any tick inside the hysteresis band.
    Signals band = baseSignals();
    band.queued = 4; // 2 per live: between low (1) and high (4)
    EXPECT_EQ(p.desiredDelta(band, slo), 0);
    EXPECT_EQ(p.desiredDelta(idle, slo), 0); // streak back to 1
}

TEST(Autoscale, TargetUtilizationSizesFleetToOfferedLoad)
{
    TargetUtilizationPolicy p({/*target_utilization=*/0.5,
                               /*ewma_alpha=*/1.0});
    const SloConfig slo;
    Signals s = baseSignals();
    s.live = 1;
    s.in_flight = 1;
    s.completion_rate_per_s = 1.0; // mu = 1 req/s per replica
    s.arrival_rate_per_s = 2.0;
    // want = ceil(2 / (1 * 0.5)) = 4 replicas; 1 exists.
    EXPECT_EQ(p.desiredDelta(s, slo), 3);
    // Load gone: the same rule sheds capacity.
    Signals cold = s;
    cold.live = 4;
    cold.arrival_rate_per_s = 0.4;
    cold.completion_rate_per_s = 4.0; // mu stays 1 with alpha=1
    // want = ceil(0.4 / 0.5) = 1; 4 exist.
    EXPECT_EQ(p.desiredDelta(cold, slo), -3);
}

TEST(Autoscale, PredictiveOrdersAheadOfTheTrend)
{
    PredictivePolicy p({/*lookahead_seconds=*/30.0,
                        /*consecutive_low_ticks=*/2});
    const SloConfig slo; // high watermark 4
    Signals s = baseSignals();
    s.live = 1;
    s.queued = 2; // calm right now (2 per live <= 4)...
    s.queue_trend_per_s = 1.0; // ...but growing a request a second
    // Projected queue = 2 + 30 = 32 -> ceil(32/4) = 8 wanted, 1 held.
    EXPECT_EQ(p.desiredDelta(s, slo), 7);
    // Without the trend the same instant is a hold.
    Signals flat = s;
    flat.queue_trend_per_s = 0.0;
    PredictivePolicy q;
    EXPECT_EQ(q.desiredDelta(flat, slo), 0);
}

// ----------------------------------------------------------- controller

TEST(Autoscale, ControllerDigestsSignalsFromTheRegistry)
{
    obs::CounterRegistry reg;
    const auto q0 = reg.gauge("replica0.queue_depth");
    const auto f0 = reg.gauge("replica0.in_flight");
    const auto k0 = reg.gauge("replica0.live_kv_bytes");
    const auto e0 = reg.counter("replica0.enqueued_requests");
    const auto d0 = reg.counter("replica0.completed_requests");
    reg.set(q0, 6);
    reg.set(f0, 3);
    reg.set(k0, 1 << 20);
    reg.add(e0, 10);
    reg.add(d0, 4);

    ThresholdPolicy policy;
    Controller ctl({SloConfig{}, &policy, &reg, nullptr, 60.0});
    FleetState fs;
    fs.now_seconds = 5.0;
    fs.live = 1;
    fs.min_replicas = 1;
    fs.max_replicas = 4;
    ctl.control(fs);
    ASSERT_EQ(ctl.decisions().size(), 1u);
    const Signals &first = ctl.decisions()[0].signals;
    EXPECT_EQ(first.queued, 6);
    EXPECT_EQ(first.in_flight, 3);
    EXPECT_EQ(first.live_kv_bytes, 1 << 20);
    // First tick has no baseline: rates are 0, wait is pessimistic.
    EXPECT_DOUBLE_EQ(first.arrival_rate_per_s, 0.0);
    EXPECT_TRUE(std::isinf(first.est_wait_seconds));

    // Second tick: counter deltas over dt become rates, and a slot
    // registered mid-run (a scaled-up replica) is discovered.
    reg.add(e0, 20);
    reg.add(d0, 10);
    const auto q1 = reg.gauge("replica1.queue_depth");
    reg.set(q1, 2);
    fs.now_seconds = 15.0;
    ctl.control(fs);
    ASSERT_EQ(ctl.decisions().size(), 2u);
    const Signals &second = ctl.decisions()[1].signals;
    EXPECT_DOUBLE_EQ(second.arrival_rate_per_s, 2.0); // 20 over 10 s
    EXPECT_DOUBLE_EQ(second.completion_rate_per_s, 1.0);
    EXPECT_EQ(second.queued, 8); // replica0 (6) + replica1 (2)
    EXPECT_DOUBLE_EQ(second.est_wait_seconds, 8.0);

    // reset() forgets baselines and the log for a fresh run.
    ctl.reset();
    EXPECT_TRUE(ctl.decisions().empty());

    EXPECT_THROW(Controller({SloConfig{}, nullptr, &reg}),
                 std::invalid_argument);
    EXPECT_THROW(Controller({SloConfig{}, &policy, nullptr}),
                 std::invalid_argument);
}

// --------------------------------------------------- elastic machinery

TEST(Autoscale, NeverScaledElasticClusterMatchesFixedBitForBit)
{
    core::TimingEngine e;
    workload::TraceConfig tc;
    tc.num_requests = 48;
    tc.arrival_rate_per_s = 0.4;
    tc.seed = 11;
    const auto trace = workload::mixedLengthTrace(tc);

    ClusterConfig fixed_cfg;
    fixed_cfg.replicas = {cloudReplica(), cloudReplica()};
    fixed_cfg.router.policy = RouterPolicy::LeastKvLoad;
    const ClusterResult fixed = Cluster(e, fixed_cfg).run(trace);

    HoldController hold;
    ClusterConfig elastic_cfg = fixed_cfg;
    elastic_cfg.elastic.controller = &hold;
    elastic_cfg.elastic.min_replicas = 1;
    elastic_cfg.elastic.max_replicas = 4;
    elastic_cfg.elastic.control_period_seconds = 2.5;
    const ClusterResult elastic = Cluster(e, elastic_cfg).run(trace);

    // The controller ran — and the run is still bit-for-bit the fixed
    // fleet's: same placements, same per-request arithmetic.
    EXPECT_GT(hold.ticks, 0);
    EXPECT_TRUE(elastic.scale_events.empty());
    ASSERT_EQ(elastic.placements.size(), fixed.placements.size());
    for (size_t i = 0; i < fixed.placements.size(); ++i) {
        EXPECT_EQ(elastic.placements[i].request_id,
                  fixed.placements[i].request_id);
        EXPECT_EQ(elastic.placements[i].replica,
                  fixed.placements[i].replica);
    }
    EXPECT_EQ(elastic.completed(), fixed.completed());
    EXPECT_DOUBLE_EQ(elastic.fleet.makespan_seconds,
                     fixed.fleet.makespan_seconds);
    const auto sf = fixed.summary();
    const auto se = elastic.summary();
    EXPECT_DOUBLE_EQ(se.ttft_p99, sf.ttft_p99);
    EXPECT_DOUBLE_EQ(se.e2e_p99, sf.e2e_p99);
    EXPECT_DOUBLE_EQ(se.throughput_tokens_per_s,
                     sf.throughput_tokens_per_s);
    // Fixed fleets bill every slot for the whole run.
    EXPECT_DOUBLE_EQ(fixed.replica_seconds,
                     2.0 * fixed.fleet.makespan_seconds);
    EXPECT_DOUBLE_EQ(elastic.replica_seconds, fixed.replica_seconds);
}

TEST(Autoscale, ElasticClusterValidatesItsKnobs)
{
    core::TimingEngine e;
    HoldController hold;
    ClusterConfig cfg;
    cfg.replicas = {cloudReplica()};
    cfg.elastic.controller = &hold;

    ClusterConfig bad_min = cfg;
    bad_min.elastic.min_replicas = 0;
    EXPECT_THROW(Cluster(e, bad_min), std::invalid_argument);
    ClusterConfig bad_max = cfg;
    bad_max.elastic.min_replicas = 3;
    bad_max.elastic.max_replicas = 2;
    EXPECT_THROW(Cluster(e, bad_max), std::invalid_argument);
    ClusterConfig outside = cfg;
    outside.elastic.min_replicas = 2; // initial fleet of 1 is below min
    EXPECT_THROW(Cluster(e, outside), std::invalid_argument);
    ClusterConfig bad_period = cfg;
    bad_period.elastic.control_period_seconds = 0.0;
    EXPECT_THROW(Cluster(e, bad_period), std::invalid_argument);
    ClusterConfig bad_template = cfg;
    bad_template.elastic.template_replica = 5;
    EXPECT_THROW(Cluster(e, bad_template), std::invalid_argument);
}

/** Burst-then-tail trace: floods the fleet so scale-up must fire,
 *  then trickles so sustained-idle scale-down can fire too. */
std::vector<Request>
burstThenTailTrace()
{
    std::vector<Request> t;
    int64_t id = 0;
    for (int i = 0; i < 24; ++i)
        t.push_back(makeRequest(id++, 0.1 * i, 2048, 256));
    for (int i = 0; i < 6; ++i)
        t.push_back(makeRequest(id++, 40.0 + 25.0 * i, 1024, 128));
    return t;
}

TEST(Autoscale, EndToEndScaleUpServeAndDrainDown)
{
    core::TimingEngine e;
    obs::CounterRegistry reg;
    ThresholdPolicy policy({/*consecutive_low_ticks=*/2, 1});
    SloConfig slo;
    slo.queue_depth_high = 2.0;
    slo.queue_depth_low = 0.5;
    Controller ctl({slo, &policy, &reg, nullptr, 60.0});

    ClusterConfig cfg;
    cfg.replicas = {cloudReplica()};
    // Small batch cap: the burst must *queue* (pressure the gauges the
    // controller polls), not disappear into one replica's batch.
    cfg.replicas[0].max_batch = 4;
    cfg.obs.counters = &reg;
    cfg.elastic.controller = &ctl;
    cfg.elastic.min_replicas = 1;
    cfg.elastic.max_replicas = 3;
    cfg.elastic.control_period_seconds = 2.0;
    cfg.elastic.provision_seconds = 3.25;

    const auto trace = burstThenTailTrace();
    const ClusterResult res = Cluster(e, cfg).run(trace);

    // Everything served, decisions were logged, and the fleet both
    // grew and shrank.
    EXPECT_EQ(res.completed() +
                  static_cast<int64_t>(res.fleet.rejected.size()),
              static_cast<int64_t>(trace.size()));
    EXPECT_FALSE(ctl.decisions().empty());
    ASSERT_FALSE(res.scale_events.empty());

    // Every attached slot warms for exactly the public warmup price.
    const double warmup = serving::replicaWarmupSeconds(
        cfg.replicas[0], cfg.elastic.provision_seconds);
    std::vector<double> attach_t;
    bool saw_attach = false, saw_warm = false, saw_down = false,
         saw_retire = false;
    size_t peak_live = 0;
    for (const ScaleEvent &ev : res.scale_events) {
        peak_live = std::max(peak_live, ev.live_after);
        const size_t slot = static_cast<size_t>(ev.replica);
        switch (ev.action) {
          case ScaleAction::Attach:
            saw_attach = true;
            attach_t.resize(std::max(attach_t.size(), slot + 1), -1.0);
            attach_t[slot] = ev.t_seconds;
            break;
          case ScaleAction::WarmComplete:
            saw_warm = true;
            ASSERT_LT(slot, attach_t.size());
            ASSERT_GE(attach_t[slot], 0.0);
            EXPECT_EQ(ev.t_seconds, attach_t[slot] + warmup);
            break;
          case ScaleAction::Drain:
          case ScaleAction::CancelWarming: saw_down = true; break;
          case ScaleAction::Retire: saw_retire = true; break;
        }
        EXPECT_LE(ev.live_after, cfg.elastic.max_replicas);
    }
    EXPECT_TRUE(saw_attach);
    EXPECT_TRUE(saw_warm);
    EXPECT_TRUE(saw_down);
    EXPECT_TRUE(saw_retire);
    EXPECT_GT(peak_live, 1u);

    // Events arrive in simulated-time order, and a retire never
    // precedes its drain/cancel (drain-before-retire).
    for (size_t i = 1; i < res.scale_events.size(); ++i)
        EXPECT_GE(res.scale_events[i].t_seconds,
                  res.scale_events[i - 1].t_seconds);
    for (const ScaleEvent &ev : res.scale_events) {
        if (ev.action != ScaleAction::Retire)
            continue;
        const bool preceded = std::any_of(
            res.scale_events.begin(), res.scale_events.end(),
            [&](const ScaleEvent &d) {
                return d.replica == ev.replica &&
                       d.t_seconds <= ev.t_seconds &&
                       (d.action == ScaleAction::Drain ||
                        d.action == ScaleAction::CancelWarming);
            });
        EXPECT_TRUE(preceded);
    }

    // An elastic fleet that shrank back costs less than holding its
    // peak for the whole run.
    EXPECT_LT(res.replica_seconds,
              static_cast<double>(peak_live) *
                  res.fleet.makespan_seconds);

    // The fleet-shape gauges the controller's world is made of exist
    // and settled back to the floor.
    EXPECT_EQ(reg.valueOf("cluster.live_replicas"),
              static_cast<int64_t>(
                  res.scale_events.back().live_after));
    EXPECT_GT(reg.valueOf("cluster.scale_ups"), 0);
    EXPECT_GT(reg.valueOf("cluster.scale_downs"), 0);
}

TEST(Autoscale, ElasticRunsAreDeterministic)
{
    core::TimingEngine e;
    const auto trace = burstThenTailTrace();

    auto runOnce = [&](ClusterResult &out) {
        obs::CounterRegistry reg;
        ThresholdPolicy policy({2, 1});
        SloConfig slo;
        slo.queue_depth_high = 2.0;
        slo.queue_depth_low = 0.5;
        Controller ctl({slo, &policy, &reg, nullptr, 60.0});
        ClusterConfig cfg;
        cfg.replicas = {cloudReplica()};
        cfg.replicas[0].max_batch = 4;
        cfg.obs.counters = &reg;
        cfg.elastic.controller = &ctl;
        cfg.elastic.max_replicas = 3;
        cfg.elastic.control_period_seconds = 2.0;
        out = Cluster(e, cfg).run(trace);
    };
    ClusterResult a, b;
    runOnce(a);
    runOnce(b);
    ASSERT_EQ(a.scale_events.size(), b.scale_events.size());
    for (size_t i = 0; i < a.scale_events.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.scale_events[i].t_seconds,
                         b.scale_events[i].t_seconds);
        EXPECT_EQ(static_cast<int>(a.scale_events[i].action),
                  static_cast<int>(b.scale_events[i].action));
        EXPECT_EQ(a.scale_events[i].replica, b.scale_events[i].replica);
    }
    ASSERT_EQ(a.placements.size(), b.placements.size());
    for (size_t i = 0; i < a.placements.size(); ++i)
        EXPECT_EQ(a.placements[i].replica, b.placements[i].replica);
    EXPECT_DOUBLE_EQ(a.replica_seconds, b.replica_seconds);
    EXPECT_DOUBLE_EQ(a.fleet.makespan_seconds,
                     b.fleet.makespan_seconds);
}

} // namespace
} // namespace specontext
