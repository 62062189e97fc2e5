#include "sim/cost.h"

#include <algorithm>
#include <cmath>

namespace specontext {
namespace sim {

namespace {

constexpr double kGiga = 1e9;
constexpr double kTera = 1e12;

} // namespace

CostModel::CostModel(HardwareSpec hw, KernelBackend backend)
    : hw_(std::move(hw)), backend_(backend),
      eff_(BackendEfficiency::of(backend))
{
    gemm_flops_denom_ = hw_.gpu_tflops_fp16 * kTera * eff_.gemm;
    attn_mem_denom_ = hw_.hbm_bw_gbps * kGiga * eff_.attn_bw;
    hbm_denom_ = hw_.hbm_bw_gbps * kGiga;
    pcie_denom_ = hw_.pcie_bw_gbps * kGiga;
    launch_s_ = hw_.kernel_launch_us * 1e-6;
    sync_s_ = hw_.sync_us * 1e-6;
}

double
CostModel::decodeStepSeconds(const model::ModelConfig &cfg, int64_t batch,
                             int64_t kv_len) const
{
    return decodeStepBreakdown(cfg, batch, kv_len).total;
}

DecodeBreakdown
CostModel::decodeStepBreakdown(const model::ModelConfig &cfg,
                               int64_t batch, int64_t kv_len) const
{
    const int64_t q_dim = cfg.q_heads * cfg.head_dim;
    const int64_t kv_dim =
        cfg.attention == model::AttentionKind::MLA
            ? cfg.mla_latent_dim
            : cfg.kv_heads * cfg.head_dim;

    // GEMMs per layer: q/k/v/o projections + SwiGLU (gate/up/down).
    double gemm = 0.0;
    gemm += gemmSeconds(batch, q_dim, cfg.hidden);        // Wq
    gemm += 2.0 * gemmSeconds(batch, kv_dim, cfg.hidden); // Wk, Wv
    gemm += gemmSeconds(batch, cfg.hidden, q_dim);        // Wo
    gemm += 2.0 * gemmSeconds(batch, cfg.ffn_hidden, cfg.hidden);
    gemm += gemmSeconds(batch, cfg.hidden, cfg.ffn_hidden);

    const double attn = attentionDecodeSeconds(
        batch, cfg.q_heads,
        cfg.attention == model::AttentionKind::MLA ? cfg.q_heads
                                                   : cfg.kv_heads,
        cfg.head_dim, kv_len);

    const double launches = eff_.launches_per_layer * launchSeconds();

    DecodeBreakdown b;
    b.gemm = cfg.layers * gemm;
    b.attn = cfg.layers * attn;
    b.launch = cfg.layers * launches;
    // LM head GEMM + weight streaming floor across the whole model
    // (weights are read once per step regardless of batch).
    b.lm_head = gemmSeconds(batch, cfg.vocab, cfg.hidden);
    const double weight_stream =
        double(cfg.parameterBytesFp16()) / (hw_.hbm_bw_gbps * kGiga);
    b.total = std::max(b.gemm + b.attn + b.launch + b.lm_head,
                       weight_stream);
    b.compute_fixed = b.gemm + b.launch + b.lm_head;
    return b;
}

double
CostModel::prefillSeconds(const model::ModelConfig &cfg, int64_t batch,
                          int64_t prompt_len) const
{
    const int64_t tokens = batch * prompt_len;
    const int64_t q_dim = cfg.q_heads * cfg.head_dim;
    const int64_t kv_dim =
        cfg.attention == model::AttentionKind::MLA
            ? cfg.mla_latent_dim
            : cfg.kv_heads * cfg.head_dim;

    double gemm = 0.0;
    gemm += gemmSeconds(tokens, q_dim, cfg.hidden);
    gemm += 2.0 * gemmSeconds(tokens, kv_dim, cfg.hidden);
    gemm += gemmSeconds(tokens, cfg.hidden, q_dim);
    gemm += 2.0 * gemmSeconds(tokens, cfg.ffn_hidden, cfg.hidden);
    gemm += gemmSeconds(tokens, cfg.hidden, cfg.ffn_hidden);

    // Causal attention: ~0.5 * S^2 positions per head.
    const double attn_flops = 4.0 * batch * cfg.q_heads * cfg.head_dim *
                              0.5 * double(prompt_len) * prompt_len;
    const double attn =
        attn_flops / (hw_.gpu_tflops_fp16 * kTera * eff_.gemm);

    return cfg.layers * (gemm + attn) +
           gemmSeconds(batch, cfg.vocab, cfg.hidden);
}

} // namespace sim
} // namespace specontext
