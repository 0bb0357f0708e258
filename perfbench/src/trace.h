#pragma once
// trace.h — In-memory spans recorded around the benchmark's own calls into
// the library's layers.  Spans carry a name, start, end, parent span and
// request id; they stay in memory and are written out when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::uint64_t request = 0;
  double startMs = 0;  ///< since the tracer was created
  double endMs = 0;

  double ms() const { return endMs - startMs; }
};

/// Per-name totals over recorded spans.
struct LayerTotals {
  std::size_t count = 0;
  double totalMs = 0;
  double selfMs = 0;  ///< total minus what child spans cover
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  double nowMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - epoch_)
        .count();
  }
  std::uint64_t newId() { return nextId_.fetch_add(1) + 1; }

  void record(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// The request span that work on other threads (grid workers) should
  /// hang under.  One closed-loop client means at most one is open.
  void setCurrent(std::uint64_t span, std::uint64_t request) {
    currentRequest_.store(request);
    currentSpan_.store(span);
  }
  std::uint64_t currentSpan() const { return currentSpan_.load(); }
  std::uint64_t currentRequest() const { return currentRequest_.load(); }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every span name: each span's duration minus the union
  /// of its direct children.
  std::map<std::string, LayerTotals> layerTotals() const {
    const auto all = spans();
    std::map<std::uint64_t, std::vector<Interval>> children;
    for (const auto& s : all)
      if (s.parent != 0) children[s.parent].push_back({s.startMs, s.endMs});
    std::map<std::string, LayerTotals> out;
    for (const auto& s : all) {
      auto& t = out[s.name];
      ++t.count;
      t.totalMs += s.ms();
      const auto it = children.find(s.id);
      t.selfMs += it == children.end()
                      ? s.ms()
                      : selfTime({s.startMs, s.endMs}, it->second);
    }
    return out;
  }

  /// One JSON object per line.  Returns false when the file cannot be
  /// written.
  bool writeJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (const auto& s : spans()) {
      out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"start_ms\": " << s.startMs << ", \"end_ms\": " << s.endMs
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> nextId_{0};
  std::atomic<std::uint64_t> currentSpan_{0};
  std::atomic<std::uint64_t> currentRequest_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
