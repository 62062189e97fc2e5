/**
 * @file
 * Model architecture configuration and the geometry presets used by the
 * paper's evaluation (Section 7.1).
 *
 * Two kinds of configs exist:
 *  - *live* configs: small dimensions that this repository actually runs
 *    forward passes with (accuracy experiments);
 *  - *geometry* presets mirroring the paper's models (Llama3.1-8B,
 *    DeepSeek-R1-Distill-Llama-8B, Qwen3-8B, Reasoning-Llama-3.2-1B):
 *    their layer/head/dim/vocab shapes feed the analytical cost and
 *    memory models (Sections 5-7) without running real 8B compute.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace specontext {
namespace model {

/** Attention mechanism variants supported by the retrieval head (§4.3). */
enum class AttentionKind {
    MHA, ///< multi-head attention: kv_heads == q_heads
    GQA, ///< grouped-query attention: kv_heads < q_heads
    MQA, ///< multi-query attention: kv_heads == 1
    MLA, ///< multi-head latent attention: cache stores latent c vectors
};

/** Printable name of an attention kind. */
const char *attentionKindName(AttentionKind kind);

/** Full architectural description of a transformer LM. */
struct ModelConfig
{
    std::string name = "unnamed";
    AttentionKind attention = AttentionKind::GQA;
    int64_t layers = 4;
    int64_t q_heads = 4;
    int64_t kv_heads = 2;       ///< ignored for MLA (latent cache)
    int64_t head_dim = 16;
    int64_t hidden = 64;        ///< residual stream width
    int64_t ffn_hidden = 128;   ///< SwiGLU intermediate width
    int64_t vocab = 512;
    int64_t mla_latent_dim = 0; ///< latent width; only used when MLA
    float rope_theta = 10000.0f;
    /**
     * YaRN positional scale: positions are divided by this factor before
     * RoPE, the training-free context-extension trick the paper applies
     * to the 2K-context DLM (Section 4.3).
     */
    float yarn_scale = 1.0f;
    /** LM head shares the embedding table (Llama3.2-1B style). */
    bool tied_embeddings = false;

    /** Query heads per KV head (the alpha group count of Table 1). */
    int64_t groups() const;

    /** Per-token KV cache floats for one layer. */
    int64_t kvFloatsPerTokenPerLayer() const;

    /** Total parameter count of the dense model. */
    int64_t parameterCount() const;

    /** Parameter memory in bytes at FP16 (paper stores weights in FP16). */
    int64_t parameterBytesFp16() const;

    /**
     * KV cache bytes for one token across all layers at FP16
     * (the 2-byte K + 2-byte V "coefficient 4" of Eq. 6).
     */
    int64_t kvBytesPerToken() const;

    /** Throws std::invalid_argument when fields are inconsistent. */
    void validate() const;

    /** This geometry under the default name: every field but the name,
     *  copied without allocating, for consumers that read no name
     *  (sim::MemoryModel). */
    ModelConfig unnamed() const
    {
        ModelConfig c;
        c.attention = attention;
        c.layers = layers;
        c.q_heads = q_heads;
        c.kv_heads = kv_heads;
        c.head_dim = head_dim;
        c.hidden = hidden;
        c.ffn_hidden = ffn_hidden;
        c.vocab = vocab;
        c.mla_latent_dim = mla_latent_dim;
        c.rope_theta = rope_theta;
        c.yarn_scale = yarn_scale;
        c.tied_embeddings = tied_embeddings;
        return c;
    }
};

/** Small live config used by tests/examples; runs real forward passes. */
ModelConfig tinyConfig(AttentionKind kind = AttentionKind::GQA);

/** Live config sized for the accuracy benches (a bit larger than tiny). */
ModelConfig benchConfig(AttentionKind kind = AttentionKind::GQA);

/** Geometry of Llama3.1-8B (32 layers, GQA 32/8, 4096 hidden, 128K vocab). */
ModelConfig llama31_8bGeometry();

/** Geometry of DeepSeek-R1-Distill-Llama-8B (same skeleton as Llama3-8B). */
ModelConfig deepseekDistillLlama8bGeometry();

/** Geometry of Qwen3-8B (36 layers, GQA 32/8, 151K vocab). */
ModelConfig qwen3_8bGeometry();

/** Geometry of Reasoning-Llama-3.2-1B (16 layers, GQA 32/8, 2048 hidden). */
ModelConfig reasoningLlama32_1bGeometry();

/**
 * Geometry of the EAGLE-3 style DLM for a given base model: one decoder
 * layer, same head layout, same vocab (~0.5B params for an 8B base).
 */
ModelConfig dlmGeometryFor(const ModelConfig &base);

/** dlmGeometryFor(base) under the default name, built without
 *  allocating. */
ModelConfig unnamedDlmGeometryFor(const ModelConfig &base);

/**
 * Names of the paper-scale geometry presets, in the paper's evaluation
 * order — the single source benches iterate instead of hardcoding
 * preset lists.
 */
std::vector<std::string> geometryPresetNames();

/** Look up a geometry preset by its ModelConfig::name.
 *  @throws std::invalid_argument for unknown names. */
ModelConfig geometryPreset(const std::string &name);

/**
 * Parameters of the pruned retrieval head for a base model: input norm
 * plus the DLM layer's Q/K projections only (the embedding is shared
 * with the LLM). ~0.03B (~60 MB FP16) for an 8B base — the deployed
 * footprint of SpeContext's C1 (paper §7.4).
 */
int64_t prunedRetrievalHeadParams(const ModelConfig &base);

} // namespace model
} // namespace specontext
