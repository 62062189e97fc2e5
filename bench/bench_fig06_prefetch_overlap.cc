/**
 * @file
 * Figure 6: (a) KV prefetch latency vs a single LLM layer's inference
 * latency across budgets (the imbalance motivating elastic loading);
 * (b) overlap rate of selected tokens between adjacent generations vs
 * budget, measured live, plus the resulting transfer reduction.
 */
#include "bench/bench_util.h"
#include "core/timing_engine.h"
#include "sim/cost.h"

using namespace specontext;

int
main()
{
    // ---- (a): simulated at paper scale ------------------------------
    bench::section("Fig 6(a): prefetch vs single-layer latency (A800, "
                   "8B, batch 4)");
    const sim::CostModel cost(sim::HardwareSpec::cloudA800(),
                              sim::KernelBackend::FlashInfer);
    const auto m = model::llama31_8bGeometry();
    const int64_t kvb = core::kvBytesPerTokenPerLayer(m);
    const auto layer =
        cost.decodeStepBreakdown(m, 4, 2048);
    const double layer_ms = 1e3 * layer.total / m.layers;
    std::printf("%-8s %16s %18s\n", "budget", "prefetch-ms/layer",
                "LLM-layer-ms");
    for (int64_t budget : {32, 64, 128, 256, 512, 1024, 2048}) {
        const double prefetch_ms =
            1e3 * cost.pcieSeconds(4 * budget * kvb);
        std::printf("%-8ld %16.3f %18.3f\n", budget, prefetch_ms,
                    layer_ms);
    }
    std::printf("(paper: transfer of large budgets far exceeds layer "
                "compute -> naive prefetch cannot hide)\n");

    // ---- (b): measured live ------------------------------------------
    bench::section("Fig 6(b): adjacent-generation selection overlap vs "
                   "budget (live, 320-token context)");
    bench::LiveStack stack;
    const auto prompt =
        bench::coherentPrompt(320, stack.cfg.vocab, 606);
    const auto ref = stack.engine.buildReference(prompt, 24);

    std::printf("%-8s %10s %14s %16s\n", "budget", "overlap",
                "loaded-tokens", "full-reload");
    for (int64_t budget : {16, 32, 64, 128, 192, 256}) {
        retrieval::RetrievalHead head(stack.dlm, {budget});
        auto run = stack.engine.runWithSpeContext(ref, head, true);
        std::printf("%-8ld %10.3f %14ld %16ld\n", budget,
                    bench::meanOf(run.step_overlap), run.tokens_loaded,
                    run.tokens_full_budget);
    }
    std::printf(
        "(paper: overlap rises with budget to >0.8 on trained LLMs; the "
        "synthetic model\nreproduces the rising shape at lower absolute "
        "values — see EXPERIMENTS.md)\n");
    return 0;
}
