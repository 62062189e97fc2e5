#include "model/config.h"

#include <stdexcept>
#include <utility>

namespace specontext {
namespace model {

const char *
attentionKindName(AttentionKind kind)
{
    switch (kind) {
      case AttentionKind::MHA: return "MHA";
      case AttentionKind::GQA: return "GQA";
      case AttentionKind::MQA: return "MQA";
      case AttentionKind::MLA: return "MLA";
    }
    return "?";
}

int64_t
ModelConfig::groups() const
{
    if (attention == AttentionKind::MLA)
        return 1;
    return q_heads / kv_heads;
}

int64_t
ModelConfig::kvFloatsPerTokenPerLayer() const
{
    if (attention == AttentionKind::MLA)
        return mla_latent_dim;
    return 2 * kv_heads * head_dim; // K and V
}

int64_t
ModelConfig::parameterCount() const
{
    const int64_t q_dim = q_heads * head_dim;
    int64_t attn;
    if (attention == AttentionKind::MLA) {
        // q proj + down proj to latent + per-head K/V up-projections
        // + output proj.
        attn = hidden * q_dim            // W_q
             + hidden * mla_latent_dim   // W_dkv
             + mla_latent_dim * q_dim    // W_uk
             + mla_latent_dim * q_dim    // W_uv
             + q_dim * hidden;           // W_o
    } else {
        const int64_t kv_dim = kv_heads * head_dim;
        attn = hidden * q_dim + 2 * hidden * kv_dim + q_dim * hidden;
    }
    const int64_t ffn = 3 * hidden * ffn_hidden; // gate, up, down
    const int64_t norms = 2 * hidden;
    const int64_t per_layer = attn + ffn + norms;
    const int64_t embed = vocab * hidden;
    const int64_t lm_head = tied_embeddings ? 0 : vocab * hidden;
    const int64_t final_norm = hidden;
    return layers * per_layer + embed + lm_head + final_norm;
}

int64_t
ModelConfig::parameterBytesFp16() const
{
    return 2 * parameterCount();
}

int64_t
ModelConfig::kvBytesPerToken() const
{
    return 2 * layers * kvFloatsPerTokenPerLayer();
}

void
ModelConfig::validate() const
{
    if (layers <= 0 || q_heads <= 0 || head_dim <= 0 || hidden <= 0 ||
        ffn_hidden <= 0 || vocab <= 0) {
        throw std::invalid_argument("ModelConfig: non-positive dimension");
    }
    if (head_dim % 2 != 0)
        throw std::invalid_argument("ModelConfig: head_dim must be even");
    switch (attention) {
      case AttentionKind::MHA:
        if (kv_heads != q_heads)
            throw std::invalid_argument("MHA requires kv_heads == q_heads");
        break;
      case AttentionKind::GQA:
        if (kv_heads <= 0 || q_heads % kv_heads != 0)
            throw std::invalid_argument("GQA requires q_heads % kv_heads == 0");
        break;
      case AttentionKind::MQA:
        if (kv_heads != 1)
            throw std::invalid_argument("MQA requires kv_heads == 1");
        break;
      case AttentionKind::MLA:
        if (mla_latent_dim <= 0)
            throw std::invalid_argument("MLA requires mla_latent_dim > 0");
        break;
    }
}

ModelConfig
tinyConfig(AttentionKind kind)
{
    ModelConfig c;
    c.name = std::string("tiny-") + attentionKindName(kind);
    c.attention = kind;
    c.layers = 4;
    c.q_heads = 4;
    c.head_dim = 16;
    c.hidden = 64;
    c.ffn_hidden = 128;
    c.vocab = 256;
    switch (kind) {
      case AttentionKind::MHA: c.kv_heads = 4; break;
      case AttentionKind::GQA: c.kv_heads = 2; break;
      case AttentionKind::MQA: c.kv_heads = 1; break;
      case AttentionKind::MLA:
        c.kv_heads = 4;
        c.mla_latent_dim = 32;
        break;
    }
    return c;
}

ModelConfig
benchConfig(AttentionKind kind)
{
    ModelConfig c = tinyConfig(kind);
    c.name = std::string("bench-") + attentionKindName(kind);
    c.layers = 8;
    c.q_heads = 8;
    c.kv_heads = (kind == AttentionKind::MHA)   ? 8
                 : (kind == AttentionKind::GQA) ? 4
                 : (kind == AttentionKind::MQA) ? 1
                                                : 8;
    c.hidden = 128;
    c.ffn_hidden = 256;
    c.vocab = 512;
    if (kind == AttentionKind::MLA)
        c.mla_latent_dim = 64;
    return c;
}

ModelConfig
llama31_8bGeometry()
{
    ModelConfig c;
    c.name = "Llama3.1-8B";
    c.attention = AttentionKind::GQA;
    c.layers = 32;
    c.q_heads = 32;
    c.kv_heads = 8;
    c.head_dim = 128;
    c.hidden = 4096;
    c.ffn_hidden = 14336;
    c.vocab = 128256;
    c.rope_theta = 500000.0f;
    return c;
}

ModelConfig
deepseekDistillLlama8bGeometry()
{
    ModelConfig c = llama31_8bGeometry();
    c.name = "DeepSeek-Distill-Llama-8B";
    return c;
}

ModelConfig
qwen3_8bGeometry()
{
    ModelConfig c;
    c.name = "Qwen3-8B";
    c.attention = AttentionKind::GQA;
    c.layers = 36;
    c.q_heads = 32;
    c.kv_heads = 8;
    c.head_dim = 128;
    c.hidden = 4096;
    c.ffn_hidden = 12288;
    c.vocab = 151936;
    c.rope_theta = 1000000.0f;
    return c;
}

ModelConfig
reasoningLlama32_1bGeometry()
{
    ModelConfig c;
    c.name = "Reasoning-Llama-3.2-1B";
    c.attention = AttentionKind::GQA;
    c.layers = 16;
    c.q_heads = 32;
    c.kv_heads = 8;
    c.head_dim = 64;
    c.hidden = 2048;
    c.ffn_hidden = 8192;
    c.vocab = 128256;
    c.rope_theta = 500000.0f;
    c.tied_embeddings = true; // Llama3.2-1B ties its LM head
    return c;
}

namespace {

/** The one name -> preset table (paper §7.1's model list). */
const std::vector<std::pair<std::string, ModelConfig (*)()>> &
geometryTable()
{
    static const std::vector<std::pair<std::string, ModelConfig (*)()>>
        table = {
            {"Llama3.1-8B", &llama31_8bGeometry},
            {"DeepSeek-Distill-Llama-8B",
             &deepseekDistillLlama8bGeometry},
            {"Qwen3-8B", &qwen3_8bGeometry},
            {"Reasoning-Llama-3.2-1B", &reasoningLlama32_1bGeometry},
        };
    return table;
}

} // namespace

std::vector<std::string>
geometryPresetNames()
{
    std::vector<std::string> names;
    names.reserve(geometryTable().size());
    for (const auto &[name, fn] : geometryTable()) {
        (void)fn;
        names.push_back(name);
    }
    return names;
}

ModelConfig
geometryPreset(const std::string &name)
{
    for (const auto &[preset, fn] : geometryTable()) {
        if (preset == name)
            return fn();
    }
    throw std::invalid_argument("geometryPreset: unknown preset '" +
                                name + "'");
}

int64_t
prunedRetrievalHeadParams(const ModelConfig &base)
{
    const int64_t q_dim = base.q_heads * base.head_dim;
    if (base.attention == AttentionKind::MLA) {
        return base.hidden * q_dim +                 // W_q
               base.hidden * base.mla_latent_dim +   // W_dkv
               base.mla_latent_dim * q_dim +         // W_uk
               base.hidden;                          // norm
    }
    const int64_t kv_dim = base.kv_heads * base.head_dim;
    return base.hidden * (q_dim + kv_dim) + base.hidden;
}

ModelConfig
dlmGeometryFor(const ModelConfig &base)
{
    ModelConfig c = unnamedDlmGeometryFor(base);
    c.name.reserve(base.name.size() + 4);
    c.name.assign(base.name).append("-DLM");
    return c;
}

ModelConfig
unnamedDlmGeometryFor(const ModelConfig &base)
{
    ModelConfig c = base.unnamed();
    c.layers = 1;
    // EAGLE-3 drafts train with a native 2K window; the retrieval head
    // stretches it with YaRN to cover the base model's context (§4.3).
    c.yarn_scale = 16.0f;
    return c;
}

} // namespace model
} // namespace specontext
