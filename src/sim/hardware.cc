#include "sim/hardware.h"

#include <cmath>
#include <stdexcept>

namespace specontext {
namespace sim {

const char *
kernelBackendName(KernelBackend b)
{
    switch (b) {
      case KernelBackend::Eager: return "Eager";
      case KernelBackend::FlashAttention: return "FlashAttention";
      case KernelBackend::FlashInfer: return "FlashInfer";
    }
    return "?";
}

HardwareSpec
HardwareSpec::cloudA800()
{
    HardwareSpec hw;
    hw.name = "A800-80GB";
    hw.gpu_tflops_fp16 = 312.0;   // A100/A800 dense FP16 tensor peak
    hw.hbm_bw_gbps = 2039.0;      // HBM2e
    hw.pcie_bw_gbps = 24.0;       // PCIe 4.0 x16, effective
    hw.cpu_dram_bw_gbps = 200.0;  // 8-channel DDR4-3200
    hw.gpu_mem_bytes = 80LL << 30;
    hw.cpu_mem_bytes = 1008LL << 30;
    return hw;
}

HardwareSpec
HardwareSpec::edge4060()
{
    HardwareSpec hw;
    hw.name = "RTX4060-Laptop-8GB";
    hw.gpu_tflops_fp16 = 22.0;    // Ada laptop, sustained FP16
    hw.hbm_bw_gbps = 256.0;       // 128-bit GDDR6
    hw.pcie_bw_gbps = 12.0;       // PCIe 4.0 x8, effective
    hw.cpu_dram_bw_gbps = 60.0;   // dual-channel DDR5
    hw.gpu_mem_bytes = 8LL << 30;
    hw.cpu_mem_bytes = 24LL << 30;
    hw.kernel_launch_us = 8.0;    // consumer driver stack
    hw.sync_us = 20.0;
    return hw;
}

HardwareSpec
HardwareSpec::edge4060Capped4G()
{
    HardwareSpec hw = edge4060();
    hw.name = "RTX4060-Laptop-4GB-cap";
    hw.gpu_mem_bytes = 4LL << 30; // §7.3.2 limits usage to 4 GB
    return hw;
}

void
HardwareSpec::validate() const
{
    const auto rate = [&](double v, const char *what) {
        if (!(v > 0.0) || !std::isfinite(v))
            throw std::invalid_argument(
                "HardwareSpec '" + name + "': " + what +
                " must be positive and finite");
    };
    rate(gpu_tflops_fp16, "gpu_tflops_fp16");
    rate(hbm_bw_gbps, "hbm_bw_gbps");
    rate(pcie_bw_gbps, "pcie_bw_gbps");
    rate(cpu_dram_bw_gbps, "cpu_dram_bw_gbps");
    if (gpu_mem_bytes <= 0 || cpu_mem_bytes <= 0)
        throw std::invalid_argument("HardwareSpec '" + name +
                                    "': non-positive memory size");
    const auto latency = [&](double v, const char *what) {
        if (!(v >= 0.0) || !std::isfinite(v))
            throw std::invalid_argument(
                "HardwareSpec '" + name + "': " + what +
                " must be finite and non-negative");
    };
    latency(kernel_launch_us, "kernel_launch_us");
    latency(sync_us, "sync_us");
}

BackendEfficiency
BackendEfficiency::of(KernelBackend b)
{
    BackendEfficiency e;
    switch (b) {
      case KernelBackend::Eager:
        // Unfused PyTorch ops: materialized attention matrix, separate
        // softmax/matmul kernels, low effective bandwidth.
        e.gemm = 0.35;
        e.attn_bw = 0.12;
        e.launches_per_layer = 14.0;
        break;
      case KernelBackend::FlashAttention:
        e.gemm = 0.55;
        e.attn_bw = 0.45;
        e.launches_per_layer = 7.0;
        break;
      case KernelBackend::FlashInfer:
        // Fused decode attention with batched scheduling.
        e.gemm = 0.60;
        e.attn_bw = 0.80;
        e.launches_per_layer = 5.0;
        break;
    }
    return e;
}

} // namespace sim
} // namespace specontext
