/**
 * @file
 * Hardware platform descriptions (paper Table 2) and kernel backends.
 *
 * No physical GPU exists in this environment, so these specs feed an
 * analytical cost model instead of real execution. The numbers are the
 * public datasheet values of the paper's two platforms; only *relative*
 * behaviour (who wins, where crossovers fall) is claimed downstream.
 */
#pragma once

#include <cstdint>
#include <string>

namespace specontext {
namespace sim {

/** Attention/GEMM kernel implementation families used as baselines. */
enum class KernelBackend {
    Eager,          ///< HuggingFace eager: unfused ops, many launches
    FlashAttention, ///< fused attention kernel
    FlashInfer,     ///< fused + batch-scheduled attention engine
};

const char *kernelBackendName(KernelBackend b);

/** One machine: GPU + host, with link bandwidths and capacities. */
struct HardwareSpec
{
    std::string name;
    double gpu_tflops_fp16 = 0.0;   ///< peak dense FP16 TFLOP/s
    double hbm_bw_gbps = 0.0;       ///< GPU memory bandwidth, GB/s
    double pcie_bw_gbps = 0.0;      ///< effective host<->device GB/s
    double cpu_dram_bw_gbps = 0.0;  ///< host memory bandwidth, GB/s
    int64_t gpu_mem_bytes = 0;      ///< usable HBM
    int64_t cpu_mem_bytes = 0;      ///< usable host DRAM
    double kernel_launch_us = 5.0;  ///< per-kernel launch latency
    double sync_us = 15.0;          ///< stream/device sync latency

    /**
     * Cloud platform of Table 2: A800 80GB (312 TFLOPS FP16, ~2 TB/s
     * HBM, PCIe 4.0 x16) + Xeon 8358 with 1008 GB DRAM.
     */
    static HardwareSpec cloudA800();

    /**
     * Edge platform of Table 2: RTX 4060 Laptop 8GB (~22 TFLOPS FP16,
     * 256 GB/s GDDR6, PCIe 4.0 x8) + i7-13650HX with 24 GB DRAM.
     */
    static HardwareSpec edge4060();

    /** Edge platform with the 4 GB cap used in §7.3.2. */
    static HardwareSpec edge4060Capped4G();

    /**
     * Throws std::invalid_argument unless every rate the cost model
     * divides by (FP16 TFLOPS, HBM, PCIe and DRAM bandwidth) is
     * positive and finite, both memory capacities are positive, and
     * the launch/sync latencies are finite and non-negative.
     */
    void validate() const;
};

/**
 * Fraction of peak a backend achieves, per operation class. These
 * constants encode the documented relative efficiency of the paper's
 * full-attention baselines; sources in hardware.cc.
 */
struct BackendEfficiency
{
    double gemm = 0.5;          ///< projection/FFN GEMM efficiency
    double attn_bw = 0.5;       ///< fraction of HBM bw for KV reads
    double launches_per_layer = 4.0; ///< kernel launches per layer

    static BackendEfficiency of(KernelBackend b);
};

} // namespace sim
} // namespace specontext
