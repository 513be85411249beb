// In-memory span recorder for the traced run.
//
// A span is one call into a layer, timed from the benchmark's side:
// name, start, end, the enclosing span and the job it served.  Spans are
// kept in memory and written out once, when the run ends, so recording
// costs two clock reads and a vector append per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoJob = -1;

struct Span {
  const char* name;       ///< static string: "layer.call"
  std::int64_t start_ns;  ///< since the tracer's epoch
  std::int64_t end_ns;
  std::int64_t parent;    ///< index of the enclosing span, -1 at the root
  std::int64_t job;       ///< job index, kNoJob outside a job
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span.
  std::size_t open(const char* name, std::int64_t job) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, now_ns(), 0, parent, job});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time (duration minus the direct children's durations) summed
  /// by span name, over the spans whose outermost ancestor is named
  /// `root`.  Also returns how many such roots there are.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      const std::string& root, std::size_t* roots = nullptr) const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, double> out;
    std::size_t count = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      std::size_t top = i;
      while (spans_[top].parent >= 0) {
        top = static_cast<std::size_t>(spans_[top].parent);
      }
      if (root != spans_[top].name) continue;
      if (top == i) ++count;
      const Span& s = spans_[i];
      out[s.name] +=
          (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) * 1e-9;
    }
    if (roots != nullptr) *roots = count;
    return out;
  }

  /// One JSON object per line: name, start_ns, end_ns, parent, job.
  void write_jsonl(std::ostream& out) const {
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"job\":" << s.job << "}\n";
    }
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// Scoped span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, std::int64_t job = kNoJob)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name, job);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
