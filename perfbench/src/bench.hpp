// Shared vocabulary of the benchmark binary: command-line arguments, the
// host clock, the allocation counter, metric output and the small statistics
// the workloads report. Everything here belongs to the benchmark; the
// runtime under test is reached only through its public headers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;    ///< run only the output-check self-test
    std::string out_dir = ".bench_out";
};

/// Host monotonic time in seconds. The only clock the benchmark reads for
/// measured figures; modeled figures never touch it.
double host_now();

/// Heap allocations made by this process so far (counted by the binary's own
/// replacement of operator new).
std::uint64_t allocations();

/// p-th percentile (0..100) by linear interpolation between order
/// statistics; NaN for an empty sample. Sorts `xs` in place.
double percentile(std::vector<double>& xs, double p);

/// Metric values by name. Their units and output order live in
/// BENCHMARK.json only; run.py applies them to the binary's output.
using MetricValues = std::map<std::string, double>;

/// What one workload run reports back to main().
struct RunResult {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;  ///< why `correct` is false
    MetricValues end_to_end;            ///< every end-to-end metric but setup_s / peak_rss_mb
    MetricValues per_layer;             ///< filled by traced runs
    std::string trace_json;             ///< layer summary written to the trace file

    void fail_check(const std::string& why) {
        correct = false;
        if (problems.size() < 20) problems.push_back(why);
    }
};

/// Minimal JSON string escaping for names and messages.
std::string json_escape(const std::string& s);

/// Resident-set high-water mark of this process in MB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
