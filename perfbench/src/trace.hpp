// Spans around the benchmark's own calls into each layer's public
// functions. A span records name, start, end, parent span and request id;
// spans stay in memory and are written at exit in Chrome trace_event JSON.
// A span's layer is its name up to the first '.', so "engine.insert_edges"
// charges the engine layer.
//
// Self time is a span's duration minus the part of it its children cover.
// Children may overlap each other (a cut task's gathers on one thread while
// the submitting thread waits in another child), so the covered part is
// the UNION of the children's intervals clipped to the parent.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRec {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< 0 while open
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  /// Use the caller thread's innermost open span as the parent.
  static constexpr std::uint32_t kInherit = 0xFFFFFFFFu;

  bool enabled() const { return enabled_; }
  /// Not thread-safe: flip only while no traced thread runs.
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t begin(const char* name, std::uint64_t request,
                      std::uint32_t parent = kInherit);
  void end(std::uint32_t id);

  /// Closed spans recorded so far (copies under the lock).
  std::vector<SpanRec> spans() const;
  std::size_t size() const;
  /// Writes every closed span as Chrome trace_event JSON; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<SpanRec> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t request = 0,
       std::uint32_t parent = Tracer::kInherit)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.begin(name, request, parent) : 0) {}
  ~Span() {
    if (id_ != 0) tracer_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

/// Layer of a span name: the text before the first '.'.
std::string layer_of(const std::string& name);

/// Σ self time per layer, in seconds (children's interval union subtracted).
std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRec>& spans);

}  // namespace perfbench
