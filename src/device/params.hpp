// Device parameter sets for the analytic execution model.
//
// The presets below describe the paper's testbed (§III-A): an Intel Core
// i7-8700 (6C/12T, AVX2), its integrated UHD Graphics 630, and a discrete
// NVIDIA GTX 1080 Ti on PCIe 3.0 x16. Public spec numbers seed the models;
// the efficiency/overhead knobs are calibrated against the crossover points
// the paper reports in §IV-C (see tests/test_characterization.cpp).
#pragma once

#include <string>

namespace mw::device {

enum class DeviceKind { kCpu, kIntegratedGpu, kDiscreteGpu, kAccelerator };

/// Everything the execution model needs to price a workload on a device.
struct DeviceParams {
    std::string name;
    DeviceKind kind = DeviceKind::kCpu;

    // --- compute roofline ---
    double peak_gflops = 0.0;          ///< at boost clock
    double compute_efficiency = 0.3;   ///< kernel efficiency vs peak (large kernels)
    double mem_bandwidth_gbps = 0.0;   ///< device-visible memory bandwidth (GB/s)

    // --- parallelism / occupancy ---
    double parallel_width = 1.0;       ///< work-items the device keeps in flight
    double flops_per_item_overhead = 0.0;  ///< fixed per-work-item cost, flop-equivalents

    // --- work-group geometry (§IV-B of the paper) ---
    double compute_units = 1.0;            ///< schedulable units (cores/SMs/EUs)
    double group_dispatch_item_cost = 0.0; ///< per-group fixed cost, item-equivalents
    double max_efficient_group = 1e9;      ///< register/resource sweet spot

    /// Fraction of activation bytes that actually reach DRAM (the rest hit
    /// the on-chip cache/RF); weight matrices always stream from memory.
    double act_cache_factor = 1.0;

    // --- dispatch ---
    double kernel_launch_overhead_s = 0.0;  ///< per kernel (per layer)
    double dispatch_overhead_s = 0.0;       ///< per batch submission

    // --- interconnect (discrete devices only) ---
    bool over_pcie = false;
    double pcie_bandwidth_gbps = 0.0;
    double pcie_latency_s = 0.0;

    // --- two-level memory (the DAG tier, src/graph) ---
    // Fast local memory a fused subgraph's working set must fit in: the LLC
    // for CPU/iGPU, the on-board GDDR for discrete GPUs. 0 = unlimited
    // (legacy whole-model scheduling is unaffected by this field).
    double scratchpad_bytes = 0.0;
    // Bandwidth of the link to the spill home (shared host DRAM). Discrete
    // devices spill over PCIe instead (over_pcie); 0 = mem_bandwidth_gbps.
    double spill_bandwidth_gbps = 0.0;

    // --- clock / DVFS (GPU Boost model) ---
    double idle_clock_ratio = 1.0;  ///< effective perf fraction when cold
    double clock_ramp_tau_s = 0.0;  ///< exponential warm-up time constant
    double clock_decay_tau_s = 0.0; ///< cool-down time constant while idle

    // --- shared-memory domain (§II: the iGPU shares the LLC and memory
    // controller with the CPU cores) ---
    int memory_domain = -1;           ///< devices with equal ids contend; -1 = private
    double contention_slowdown = 0.0; ///< fractional bandwidth loss per busy peer

    // --- power ---
    double idle_power_w = 0.0;        ///< device selected but not computing
    double max_power_w = 0.0;         ///< full utilisation at boost clock
    double host_assist_power_w = 0.0; ///< extra CPU package draw while feeding it
};

/// Intel Core i7-8700 (6C/12T @ 3.7-4.3 GHz, AVX2, 41.6 GB/s DDR4-2666).
DeviceParams i7_8700_params();

/// Intel UHD Graphics 630 (24 EU @ 1.2 GHz, 460.8 GFLOPs, shared DRAM).
DeviceParams uhd630_params();

/// NVIDIA GTX 1080 Ti (3584 cores, 10.6 TFLOPs, 484 GB/s GDDR5X, PCIe 3.0).
DeviceParams gtx1080ti_params();

}  // namespace mw::device
