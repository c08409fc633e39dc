// Open-loop accounting for the serve workload. Requests are due on a fixed
// schedule whatever the system does; latency runs from the DUE time, so a
// stall also charges the requests it delayed, and the generator's own
// lateness (sent - due) is reported to show the run was valid.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Request k of a step at `rate_hz` is due at start + k / rate.
inline std::int64_t due_ns(std::int64_t start_ns, double rate_hz, std::uint64_t k) {
  return start_ns + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / rate_hz);
}

struct RequestTiming {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;  ///< when the generator actually submitted
  std::int64_t done_ns = 0;  ///< when the collector saw the answer
};

inline double latency_ms(const RequestTiming& r) {
  return static_cast<double>(r.done_ns - r.due_ns) * 1e-6;
}

/// How late the generator ran for this request (never negative).
inline double lateness_ms(const RequestTiming& r) {
  return static_cast<double>(std::max<std::int64_t>(0, r.sent_ns - r.due_ns)) * 1e-6;
}

struct StepLatency {
  std::size_t samples = 0;
  double p50_ms = 0.0;
  Tail tail;
  Tail late;  ///< generator lateness tail
  /// Latency kept climbing through the step: the median of its last
  /// quarter exceeds the first quarter's median by more than a quarter of
  /// the latency limit. A system keeping up holds latency flat (a stall
  /// that clears lifts a minority of a quarter, not its median); one
  /// falling behind queues more and more work, so late requests wait
  /// longer than early ones.
  bool backlog_grew = false;
};

/// Summarizes requests in due order against a tail latency limit.
inline StepLatency summarize(const std::vector<RequestTiming>& reqs, double limit_ms) {
  StepLatency s;
  s.samples = reqs.size();
  if (reqs.empty()) return s;
  std::vector<double> lat, late;
  lat.reserve(reqs.size());
  late.reserve(reqs.size());
  for (const RequestTiming& r : reqs) {
    lat.push_back(latency_ms(r));
    late.push_back(lateness_ms(r));
  }
  s.p50_ms = median(lat);
  s.tail = tail_of(lat);
  s.late = tail_of(late);
  const std::size_t q = reqs.size() / 4;
  if (q > 0) {
    const double first = median({lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(q)});
    const double last = median({lat.end() - static_cast<std::ptrdiff_t>(q), lat.end()});
    s.backlog_grew = last > first + 0.25 * limit_ms;
  }
  return s;
}

}  // namespace perfbench
