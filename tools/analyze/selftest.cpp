#include "selftest.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <tuple>
#include <vector>

#include "analysis.hpp"

namespace mwa {
namespace {

namespace fs = std::filesystem;

using Expectation = std::tuple<std::string, int, std::string>;  // file, line, check

std::set<Expectation> expected_findings(const Program& prog) {
    std::set<Expectation> out;
    for (const LexedFile& f : prog.files) {
        for (const auto& [line, text] : f.comments) {
            std::size_t pos = 0;
            while ((pos = text.find("expect(", pos)) != std::string::npos) {
                const std::size_t end = text.find(')', pos);
                if (end == std::string::npos) break;
                out.insert({f.path, line, text.substr(pos + 7, end - pos - 7)});
                pos = end;
            }
        }
    }
    return out;
}

}  // namespace

int run_self_test(const std::string& fixtures_dir) {
    std::vector<fs::path> dirs;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(fixtures_dir, ec)) {
        if (entry.is_directory()) dirs.push_back(entry.path());
    }
    if (ec || dirs.empty()) {
        std::fprintf(stderr, "mw-analyze: no fixtures found under %s\n", fixtures_dir.c_str());
        return 1;
    }
    std::sort(dirs.begin(), dirs.end());
    int failures = 0;
    for (const fs::path& dir : dirs) {
        const std::string name = dir.filename().string();
        std::string err;
        AnalyzerConfig cfg = default_config();
        Program prog = load_program(dir.string(), cfg, &err);
        if (!err.empty()) {
            std::fprintf(stderr, "FAIL %-24s %s\n", name.c_str(), err.c_str());
            ++failures;
            continue;
        }
        const AnalysisResult res = analyze(prog, cfg);
        const std::set<Expectation> expected = expected_findings(prog);
        // Listed ambiguous calls are matched like findings.
        std::vector<Finding> reported = res.findings;
        reported.insert(reported.end(), res.ambiguous.begin(), res.ambiguous.end());
        std::set<Expectation> got;
        for (const Finding& f : reported) got.insert({f.file, f.line, f.check});
        bool ok = true;
        for (const Expectation& e : expected) {
            if (got.count(e) == 0) {
                std::fprintf(stderr, "FAIL %-24s missing finding %s:%d [%s]\n", name.c_str(),
                             std::get<0>(e).c_str(), std::get<1>(e), std::get<2>(e).c_str());
                ok = false;
            }
        }
        for (const Finding& f : reported) {
            if (expected.count({f.file, f.line, f.check}) == 0) {
                std::fprintf(stderr, "FAIL %-24s unexpected finding %s:%d [%s] %s\n",
                             name.c_str(), f.file.c_str(), f.line, f.check.c_str(),
                             f.message.c_str());
                ok = false;
            }
        }
        if (ok) {
            std::printf("ok   %-24s %zu expected finding(s), %zu suppressed\n", name.c_str(),
                        expected.size(), res.suppressed);
        } else {
            ++failures;
        }
    }
    if (failures == 0) {
        std::printf("mw-analyze --self-test: %zu fixture(s) ok\n", dirs.size());
        return 0;
    }
    std::fprintf(stderr, "mw-analyze --self-test: %d fixture(s) FAILED\n", failures);
    return 1;
}

}  // namespace mwa
