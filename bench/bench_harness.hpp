// Shared "aaltune-bench/v1" JSON emission (schema in docs/PERF.md,
// validated by scripts/validate_bench.py) for the baseline-vs-optimized
// harnesses: micro_kernels, transfer_warm and template_native.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "support/thread_pool.hpp"

namespace aal::bench {

struct BenchEntry {
  std::string name;
  std::vector<std::pair<std::string, long long>> params;
  double median_ms = 0.0;
  double baseline_median_ms = 0.0;  // > 0: emit baseline + speedup
};

/// Writes `entries` as one suite document to `path`, or to stdout when
/// `path` is empty. Returns a main() exit code: 0, or 1 after reporting a
/// file that cannot be opened.
inline int write_json(const std::string& path, const std::string& suite,
                      const std::string& scale, int repeats,
                      const std::vector<BenchEntry>& entries) {
  std::FILE* out = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot open %s\n", suite.c_str(), path.c_str());
    return 1;
  }
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"aaltune-bench/v1\",\n");
  std::fprintf(out, "  \"suite\": \"%s\",\n", suite.c_str());
  std::fprintf(out, "  \"scale\": \"%s\",\n", scale.c_str());
  std::fprintf(out, "  \"build\": \"%s\",\n", build);
  std::fprintf(out, "  \"repeats\": %d,\n", repeats);
  std::fprintf(out, "  \"threads\": %zu,\n", ThreadPool::shared().size());
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    std::fprintf(out, "    {\"name\": \"%s\", \"params\": {", e.name.c_str());
    for (std::size_t p = 0; p < e.params.size(); ++p) {
      std::fprintf(out, "%s\"%s\": %lld", p ? ", " : "",
                   e.params[p].first.c_str(), e.params[p].second);
    }
    std::fprintf(out, "}, \"median_ms\": %.6f", e.median_ms);
    if (e.baseline_median_ms > 0.0) {
      std::fprintf(out, ", \"baseline_median_ms\": %.6f, \"speedup\": %.3f",
                   e.baseline_median_ms,
                   e.baseline_median_ms / std::max(e.median_ms, 1e-12));
    }
    std::fprintf(out, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace aal::bench
