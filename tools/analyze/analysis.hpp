// mw-analyze: program loading, lock-graph construction, and every check:
// lock order (rank + cycle), blocking-under-lock, atomic discipline
// (raw-atomic, relaxed-order-justified) and the declarative identifier bans
// of AnalyzerConfig::confinement (clock-confinement, lock-free-confinement,
// naked-thread, raw-sync-primitive, raw-assert, raw-abort,
// time-arith-confined), plus the list of ambiguous calls under a guard.
#pragma once

#include <string>
#include <vector>

#include "model.hpp"

namespace mwa {

struct EdgeInfo {
    std::string from;   // held rank
    std::string to;     // acquired rank
    std::string chain;  // witness acquisition chain (human-readable)
};

struct AnalysisResult {
    std::vector<Finding> findings;  // sorted by (file, line, check)
    // Calls under a live guard that resolve to none of several same-named
    // candidates (ambiguous-call-under-lock): listed, sorted like findings,
    // but they do not fail the run.
    std::vector<Finding> ambiguous;
    std::size_t suppressed = 0;     // findings silenced by mw-analyze: allow(...)
    std::size_t edges = 0;          // distinct held-while-acquiring rank edges
    std::vector<EdgeInfo> edge_list;  // one witness per distinct (from, to)
};

/// Lex + scan every C++ source under `root` (preferring `root/src` when it
/// exists). Paths in the Program are root-relative with '/' separators.
/// Returns an empty program and sets *error on I/O failure.
Program load_program(const std::string& root, const AnalyzerConfig& cfg, std::string* error);

/// Run every check. Resolves guard ranks in place (hence non-const Program).
AnalysisResult analyze(Program& prog, const AnalyzerConfig& cfg);

/// Machine-readable findings + summary (one JSON object).
std::string to_json(const Program& prog, const AnalysisResult& res);

}  // namespace mwa
