// mw-perfbench: one benchmark binary for the whole stack.
//
//   mw-perfbench --workload adaptive|spine|overload|dag --seed N --seconds S
//                --trace 0|1 [--out-dir DIR]
//   mw-perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: value}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer values the workload measured, and DIR/trace-<workload>-<seed>.json
// receives the layer summary that layer_table.py prints. run.py gives every
// metric its unit from BENCHMARK.json. Human-readable notes go to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "testbed.hpp"
#include "workloads.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every heap allocation of the process goes through here.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, size)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace perfbench {

double host_now() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

double percentile(std::vector<double>& xs, double p) {
    if (xs.empty()) return std::nan("");
    std::sort(xs.begin(), xs.end());
    const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench

namespace {

using namespace perfbench;

/// Set-ups timed per run; the median is reported as setup_s.
constexpr int kSetups = 5;

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload adaptive|spine|overload|dag --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n       %s --selftest\n",
                 argv0, argv0);
    return 2;
}

bool parse(int argc, char** argv, Args& args) {
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        try {
            if (key == "--workload") {
                args.workload = value;
            } else if (key == "--seed") {
                args.seed = std::stoull(value);
            } else if (key == "--seconds") {
                args.seconds = std::stod(value);
            } else if (key == "--trace") {
                args.trace = std::stoi(value) != 0;
            } else if (key == "--out-dir") {
                args.out_dir = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return args.selftest || (!args.workload.empty() && args.seconds > 0.0);
}

std::string metrics_json(const MetricValues& metrics) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.10g", first ? "" : ", ",
                      json_escape(name).c_str(), std::isfinite(value) ? value : 0.0);
        out += buf;
        first = false;
    }
    return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse(argc, argv, args)) return usage(argv[0]);
    const WorkloadFn run = args.selftest ? nullptr : find_workload(args.workload);
    if (!args.selftest && run == nullptr) {
        std::fprintf(stderr, "unknown workload `%s`\n", args.workload.c_str());
        return usage(argv[0]);
    }

    try {
        if (args.selftest) {
            Testbed tb(args.seed);
            bool ok = true;
            for (const std::string& line : run_selftest(tb)) {
                std::printf("%s\n", line.c_str());
                ok = ok && line.rfind("ok", 0) == 0;
            }
            return ok ? 0 : 1;
        }

        // The set-up is the same for every workload; it is repeated so its
        // time is a median, and the last one serves the run.
        std::vector<double> setup_times;
        std::unique_ptr<Testbed> tb;
        for (int i = 0; i < kSetups; ++i) {
            tb.reset();
            const double t0 = host_now();
            tb = std::make_unique<Testbed>(args.seed);
            setup_times.push_back(host_now() - t0);
        }
        const double setup_s = percentile(setup_times, 50.0);

        RunResult result = run(*tb, args);
        for (const std::string& line : run_selftest(*tb)) {
            if (line.rfind("ok", 0) != 0) result.fail_check("self-test: " + line);
        }

        MetricValues out;
        if (args.trace) {
            out = result.per_layer;
            std::filesystem::create_directories(args.out_dir);
            const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                                     std::to_string(args.seed) + ".json";
            std::ofstream file(path);
            file << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
                 << ", \"seconds\": " << args.seconds << ", \"metrics\": "
                 << metrics_json(result.per_layer) << ", " << result.trace_json << "}\n";
            std::fprintf(stderr, "trace summary written to %s\n", path.c_str());
        } else {
            out = result.end_to_end;
            out["setup_s"] = setup_s;
            out["peak_rss_mb"] = peak_rss_mb();
        }
        for (const std::string& p : result.problems) std::fprintf(stderr, "CHECK: %s\n", p.c_str());
        for (const auto& [name, value] : out) {
            std::fprintf(stderr, "  %-34s %14.6g\n", name.c_str(), value);
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                    result.correct ? "true" : "false",
                    static_cast<unsigned long long>(result.attempted),
                    static_cast<unsigned long long>(result.failed), metrics_json(out).c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mw-perfbench: %s\n", e.what());
        return 1;
    }
}
