#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <utility>

#include "obs/counters.h"
#include "obs/json.h"
#include "obs/regime.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace specontext {
namespace obs {

namespace {

/** Semantic names of the a/b payload fields (trace viewers show them
 *  in the args pane; "a"/"b" would be unreadable there). */
void
eventArgNames(EventType t, const char *&a, const char *&b)
{
    switch (t) {
      case EventType::Enqueue:
      case EventType::Reject:
        a = "prompt_len";
        b = "gen_len";
        return;
      case EventType::Admit:
        a = "cached_tokens";
        b = "context_tokens";
        return;
      case EventType::PrefillStart:
      case EventType::PrefillEnd:
        a = "prefill_tokens";
        b = "batch_size";
        return;
      case EventType::DecodeWindow:
        a = "batch_size";
        b = "rounds";
        return;
      case EventType::Preempt:
        a = "generated";
        b = "preemptions";
        return;
      case EventType::Restore:
        a = "recompute_tokens";
        b = "cached_tokens";
        return;
      case EventType::Complete:
        a = "gen_len";
        b = "preemptions";
        return;
      case EventType::RouterPlace:
        a = "prompt_len";
        b = "policy";
        return;
      case EventType::PrefixHit:
        a = "hit_tokens";
        b = "prompt_len";
        return;
      case EventType::PrefixInsert:
      case EventType::PrefixEvict:
        a = "tokens";
        b = "resident_tokens";
        return;
      case EventType::KvClamp:
        a = "working_budget_bytes";
        b = "configured_budget_bytes";
        return;
      case EventType::FleetScale:
        a = "scale_action";
        b = "live_replicas";
        return;
    }
    a = "a";
    b = "b";
}

/** Lane (Chrome tid) of an event; component-level events with no
 *  replica share one out-of-band "fleet" lane. */
int64_t
laneOf(const TraceEvent &e)
{
    return e.replica >= 0 ? e.replica : -1;
}

std::string
argsJson(const TraceEvent &e)
{
    const char *an = "a";
    const char *bn = "b";
    eventArgNames(e.type, an, bn);
    JsonRow args;
    if (e.request >= 0)
        args.num("request", e.request);
    args.num(an, e.a).num(bn, e.b);
    return args.render();
}

bool
writeLines(const std::string &path, const std::string &head,
           const std::vector<std::string> &lines,
           const std::string &tail)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::printf("cannot write %s\n", path.c_str());
        return false;
    }
    std::fputs(head.c_str(), f);
    for (size_t i = 0; i < lines.size(); ++i) {
        std::fprintf(f, "    %s%s\n", lines[i].c_str(),
                     i + 1 < lines.size() ? "," : "");
    }
    std::fputs(tail.c_str(), f);
    std::fclose(f);
    return true;
}

} // namespace

bool
writeChromeTrace(const Trace &trace, const std::string &path,
                 const std::vector<std::string> &lane_names,
                 const RegimeTimeline *regimes)
{
    const std::vector<TraceEvent> events = trace.snapshot();
    std::vector<std::string> lines;
    lines.reserve(events.size() * 2 + 8);

    // Lane metadata: name every replica lane that appears (Perfetto
    // sorts lanes by tid, so replica order is preserved). The ring-
    // wrap marker needs the fleet lane even when no fleet-level event
    // survived; the regime overlay gets its own out-of-band lane.
    std::set<int64_t> lanes;
    for (const TraceEvent &e : events)
        lanes.insert(laneOf(e));
    if (trace.dropped() > 0)
        lanes.insert(-1);
    if (regimes && !regimes->windows.empty())
        lanes.insert(-2);
    for (const int64_t lane : lanes) {
        std::string label;
        if (lane == -2) {
            label = "fleet regime";
        } else if (lane < 0) {
            label = "fleet";
        } else if (static_cast<size_t>(lane) < lane_names.size()) {
            label = lane_names[static_cast<size_t>(lane)];
        } else {
            label = "replica" + std::to_string(lane);
        }
        JsonRow name_args;
        name_args.str("name", label);
        JsonRow meta;
        meta.str("name", "thread_name").str("ph", "M");
        meta.num("pid", static_cast<int64_t>(0)).num("tid", lane);
        meta.raw("args", name_args.render());
        lines.push_back(meta.render());
    }

    // Ring-wrap marker: the overwritten events all precede the
    // earliest retained one (the ring drops oldest-first), so the
    // truncated range is [0, min retained t]. Rendering it as an
    // explicit slice keeps a wrapped export from looking complete.
    if (trace.dropped() > 0) {
        double min_t = 0.0;
        for (size_t i = 0; i < events.size(); ++i)
            min_t = i == 0 ? events[i].t_seconds
                           : std::min(min_t, events[i].t_seconds);
        JsonRow args;
        args.num("events_lost", static_cast<int64_t>(trace.dropped()));
        JsonRow row;
        row.str("name",
                "ring wrapped, " + std::to_string(trace.dropped()) +
                    " events lost")
            .str("cat", "truncated")
            .str("ph", "X");
        row.num("ts", 0.0, "%.3f");
        row.num("dur", min_t * 1e6, "%.3f");
        row.num("pid", static_cast<int64_t>(0))
            .num("tid", static_cast<int64_t>(-1));
        row.raw("args", args.render());
        lines.push_back(row.render());
    }

    // Regime overlay lane: one slice per run of consecutive equal-
    // regime windows (counter deltas summed over the run, gauges from
    // its closing window).
    if (regimes) {
        const std::vector<RegimeWindow> &ws = regimes->windows;
        for (size_t i = 0; i < ws.size();) {
            size_t j = i;
            RegimeSignals agg = ws[i].signals;
            while (j + 1 < ws.size() &&
                   ws[j + 1].regime == ws[i].regime) {
                ++j;
                agg.preemptions += ws[j].signals.preemptions;
                agg.prefill_tokens += ws[j].signals.prefill_tokens;
                agg.generated_tokens += ws[j].signals.generated_tokens;
                agg.prefix_hit_tokens +=
                    ws[j].signals.prefix_hit_tokens;
                agg.queue_depth = ws[j].signals.queue_depth;
                agg.in_flight = ws[j].signals.in_flight;
                agg.warming_replicas = ws[j].signals.warming_replicas;
            }
            JsonRow args;
            args.num("preemptions", agg.preemptions)
                .num("prefill_tokens", agg.prefill_tokens)
                .num("generated_tokens", agg.generated_tokens)
                .num("prefix_hit_tokens", agg.prefix_hit_tokens)
                .num("queue_depth", agg.queue_depth)
                .num("in_flight", agg.in_flight)
                .num("warming_replicas", agg.warming_replicas);
            JsonRow row;
            row.str("name", regimeName(ws[i].regime))
                .str("cat", "regime")
                .str("ph", "X");
            row.num("ts", ws[i].t_start_seconds * 1e6, "%.3f");
            row.num("dur",
                    (ws[j].t_end_seconds - ws[i].t_start_seconds) * 1e6,
                    "%.3f");
            row.num("pid", static_cast<int64_t>(0))
                .num("tid", static_cast<int64_t>(-2));
            row.raw("args", args.render());
            lines.push_back(row.render());
            i = j + 1;
        }
    }

    // Duration reconstruction: request residency (Admit/Restore ->
    // Preempt/Complete) and prefill (PrefillStart -> PrefillEnd),
    // keyed per lane + request. Ring wrap-around can orphan an
    // endpoint; orphans are skipped rather than guessed at.
    using SpanKey = std::pair<int64_t, int64_t>; // lane, request
    std::map<SpanKey, double> open_run, open_prefill;
    auto emitSlice = [&](const std::string &name, const char *cat,
                         double start, double end, int64_t tid,
                         const TraceEvent &close) {
        JsonRow row;
        row.str("name", name).str("cat", cat).str("ph", "X");
        row.num("ts", start * 1e6, "%.3f");
        row.num("dur", (end - start) * 1e6, "%.3f");
        row.num("pid", static_cast<int64_t>(0)).num("tid", tid);
        row.raw("args", argsJson(close));
        lines.push_back(row.render());
    };

    for (const TraceEvent &e : events) {
        const int64_t lane = laneOf(e);
        const SpanKey key{lane, e.request};
        switch (e.type) {
          case EventType::Admit:
          case EventType::Restore:
            open_run[key] = e.t_seconds;
            break;
          case EventType::Preempt:
          case EventType::Complete: {
            const auto it = open_run.find(key);
            if (it != open_run.end()) {
                emitSlice("req " + std::to_string(e.request),
                          e.type == EventType::Preempt ? "preempted"
                                                       : "run",
                          it->second, e.t_seconds, lane, e);
                open_run.erase(it);
            }
            break;
          }
          case EventType::PrefillStart:
            open_prefill[key] = e.t_seconds;
            break;
          case EventType::PrefillEnd: {
            const auto it = open_prefill.find(key);
            if (it != open_prefill.end()) {
                emitSlice("prefill req " + std::to_string(e.request),
                          "prefill", it->second, e.t_seconds, lane, e);
                open_prefill.erase(it);
            }
            break;
          }
          default: break;
        }
        // Every event also lands as an instant marker, so the raw
        // stream is visible (and greppable by name) alongside the
        // reconstructed slices.
        JsonRow row;
        row.str("name", eventTypeName(e.type)).str("ph", "i");
        row.str("s", "t");
        row.num("ts", e.t_seconds * 1e6, "%.3f");
        row.num("pid", static_cast<int64_t>(0)).num("tid", lane);
        row.raw("args", argsJson(e));
        lines.push_back(row.render());
    }

    JsonRow summary;
    summary.num("emitted", static_cast<int64_t>(trace.emitted()));
    summary.num("dropped", static_cast<int64_t>(trace.dropped()));
    const bool ok = writeLines(
        path,
        "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": " +
            summary.render() + ",\n  \"traceEvents\": [\n",
        lines, "  ]\n}\n");
    if (ok)
        std::printf("wrote %s (%zu events, %llu dropped)\n",
                    path.c_str(), events.size(),
                    static_cast<unsigned long long>(trace.dropped()));
    return ok;
}

bool
writeCountersJson(const CounterRegistry &registry,
                  const std::string &path)
{
    std::vector<std::string> lines;
    for (const CounterRegistry::Entry &e : registry.snapshot()) {
        JsonRow row;
        row.str("name", e.name)
            .str("kind", e.is_gauge ? "gauge" : "counter")
            .num("value", e.value);
        lines.push_back(row.render());
    }
    const bool ok =
        writeLines(path, "{\n  \"counters\": [\n", lines, "  ]\n}\n");
    if (ok)
        std::printf("wrote %s (%zu slots)\n", path.c_str(),
                    registry.size());
    return ok;
}

bool
writeTimeseriesCsv(const TimeseriesSampler &sampler,
                   const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::printf("cannot write %s\n", path.c_str());
        return false;
    }
    const std::vector<std::string> &names =
        sampler.registry().names();
    std::fputs("t_seconds", f);
    for (const std::string &n : names)
        std::fprintf(f, ",%s", n.c_str());
    std::fputc('\n', f);
    for (const SamplePoint &p : sampler.samples()) {
        std::fprintf(f, "%.6f", p.t_seconds);
        for (size_t i = 0; i < names.size(); ++i) {
            const int64_t v =
                i < p.values.size() ? p.values[i] : 0;
            std::fprintf(f, ",%lld", static_cast<long long>(v));
        }
        std::fputc('\n', f);
    }
    std::fclose(f);
    std::printf("wrote %s (%zu rows x %zu columns)\n", path.c_str(),
                sampler.samples().size(), names.size());
    return true;
}

} // namespace obs
} // namespace specontext
