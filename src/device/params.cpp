#include "device/params.hpp"

namespace mw::device {

DeviceParams i7_8700_params() {
    DeviceParams p;
    p.name = "i7-8700";
    p.kind = DeviceKind::kCpu;
    // 6 cores x 3.7 GHz x 16 SP FLOPs/cycle (AVX2 FMA) ~= 355 GFLOPs peak.
    p.peak_gflops = 355.0;
    p.compute_efficiency = 0.55;
    p.mem_bandwidth_gbps = 41.6;
    p.act_cache_factor = 0.5;
    // 12 hardware threads x 8 SIMD lanes; the big 4096-item work-groups of
    // §IV-B saturate this almost immediately.
    p.parallel_width = 96.0;
    // Per-node loop/call/index overhead of the thread-per-node kernels: with
    // this, the Simple/Iris model tops out near the paper's ~15 Gbit/s.
    p.flops_per_item_overhead = 100.0;
    // Work-group geometry: 12 hardware threads, heavyweight per-group
    // dispatch -> the 4096-item groups §IV-B finds optimal.
    p.compute_units = 3.0;
    p.group_dispatch_item_cost = 512.0;
    p.max_efficient_group = 4096.0;
    p.kernel_launch_overhead_s = 2.0e-6;
    p.dispatch_overhead_s = 6.0e-6;
    p.over_pcie = false;
    // 12 MiB shared LLC; fused intermediates beyond it spill to DDR4.
    p.scratchpad_bytes = 12.0 * 1024 * 1024;
    p.memory_domain = 0;           // shares DDR4 + LLC with the iGPU
    p.contention_slowdown = 0.30;
    p.idle_clock_ratio = 1.0;  // no measurable boost-state effect on the CPU
    p.idle_power_w = 8.0;
    p.max_power_w = 95.0;
    p.host_assist_power_w = 0.0;
    return p;
}

DeviceParams uhd630_params() {
    DeviceParams p;
    p.name = "uhd630";
    p.kind = DeviceKind::kIntegratedGpu;
    // 24 EUs, 460.8 GFLOPs @ 1.2 GHz; shares the DDR4 controller with the
    // CPU cores (effective share ~20 GB/s).
    p.peak_gflops = 460.8;
    p.compute_efficiency = 0.45;
    p.mem_bandwidth_gbps = 14.0;
    p.act_cache_factor = 0.3;
    p.parallel_width = 4096.0;
    p.flops_per_item_overhead = 150.0;
    p.compute_units = 24.0;
    p.group_dispatch_item_cost = 48.0;
    p.max_efficient_group = 512.0;
    p.kernel_launch_overhead_s = 4.0e-6;
    p.dispatch_overhead_s = 10.0e-6;
    p.over_pcie = false;  // zero-copy via clEnqueueMapBuffer
    // The iGPU's slice of the shared LLC (~half of the CPU's 12 MiB).
    p.scratchpad_bytes = 6.0 * 1024 * 1024;
    p.memory_domain = 0;  // same package as the CPU cores
    p.contention_slowdown = 0.45;
    p.idle_clock_ratio = 0.7;  // mild: 350 MHz base -> 1.2 GHz, fast ramp
    p.clock_ramp_tau_s = 2.0e-3;
    p.clock_decay_tau_s = 0.5;
    p.idle_power_w = 1.0;
    p.max_power_w = 20.0;
    p.host_assist_power_w = 10.0;
    return p;
}

DeviceParams gtx1080ti_params() {
    DeviceParams p;
    p.name = "gtx1080ti";
    p.kind = DeviceKind::kDiscreteGpu;
    p.peak_gflops = 10600.0;
    p.compute_efficiency = 0.22;
    // Effective GDDR5X streaming rate for the row-major float4 layout the
    // kernels use (§IV-B: transposing for coalescing did not pay off).
    p.mem_bandwidth_gbps = 30.0;
    p.act_cache_factor = 0.2;
    // ~3584 cores with shallow latency hiding under thread-per-node kernels:
    // the device saturates around 64K resident work-items.
    p.parallel_width = 63488.0;
    p.flops_per_item_overhead = 100.0;
    // 28 SMs; 256-item groups maximise registers per item (§IV-B).
    p.compute_units = 28.0;
    p.group_dispatch_item_cost = 32.0;
    p.max_efficient_group = 256.0;
    p.kernel_launch_overhead_s = 1.5e-6;  // enqueued kernels pipeline
    p.dispatch_overhead_s = 5.0e-6;
    p.over_pcie = true;
    // Effective PCIe 3.0 x16 rate including driver bookkeeping per chunk.
    p.pcie_bandwidth_gbps = 6.0;
    p.pcie_latency_s = 3.0e-6;
    // 11 GiB on-board GDDR5X is the fast tier; spilling means PCIe.
    p.scratchpad_bytes = 11.0 * 1024 * 1024 * 1024;
    // GPU Boost 3.0: cold clocks deliver ~1/7 of warmed-up throughput; the
    // ramp constant is expressed in accumulated-work time, calibrated so the
    // idle/warm gap closes around the 64K-sample runs of Fig. 3(b).
    p.idle_clock_ratio = 0.14;
    p.clock_ramp_tau_s = 40.0e-3;
    p.clock_decay_tau_s = 4.0;
    p.idle_power_w = 50.0;
    p.max_power_w = 250.0;
    p.host_assist_power_w = 18.0;
    return p;
}

}  // namespace mw::device
