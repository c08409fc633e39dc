// Shared pieces of the perfbench benchmark: seeded input generation, the
// percentile rules every latency metric uses, process accounting, the box
// fingerprint, and the result record each workload fills in.
//
// Nothing here includes the library: inputs are generated on the benchmark
// side from --seed, and the library only ever sees the generated vectors.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- time ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) * 1e-9;
}

// ---- seeded generation ------------------------------------------------------

/// splitmix64: the whole benchmark's randomness flows from --seed through
/// this, so the same seed yields the same inputs on any box.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint32_t below(std::uint32_t bound) {
    return static_cast<std::uint32_t>((next() >> 32) * bound >> 32);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed for one purpose of one run.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed ^ (purpose * 0xD1B54A32D192ED03ULL));
  return r.next();
}

/// One power-law (R-MAT, Graph500 a/b/c = 0.57/0.19/0.19) directed edge over
/// 2^scale_bits vertices, self-loops re-drawn. Vertex ids are scrambled by
/// a fixed odd multiplier so hubs are not all small ids.
struct RmatGen {
  static constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
  std::uint32_t scale_bits;
  std::uint32_t operator()(Rng& rng, std::uint32_t* dst) const {
    std::uint32_t u = 0, v = 0;
    do {
      u = v = 0;
      for (std::uint32_t bit = 0; bit < scale_bits; ++bit) {
        // Quadrants in order a (0,0), b (0,1), c (1,0), d (1,1).
        const double r = rng.unit();
        const bool src_bit = r >= kA + kB;
        const bool dst_bit = (r >= kA && r < kA + kB) || r >= kA + kB + kC;
        u = (u << 1) | (src_bit ? 1u : 0u);
        v = (v << 1) | (dst_bit ? 1u : 0u);
      }
      u = scramble(u);
      v = scramble(v);
    } while (u == v);
    *dst = v;
    return u;
  }
  std::uint32_t num_vertices() const { return 1u << scale_bits; }

 private:
  std::uint32_t scramble(std::uint32_t x) const {
    const std::uint32_t mask = (1u << scale_bits) - 1;
    return (x * 0x9E3779B1u + 0x7F4A7C15u) & mask;
  }
};

inline std::uint64_t edge_key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

// ---- percentiles --------------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted sample (p in [0, 100]).
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  // The epsilon keeps 0.999 * 10000 from rounding up past rank 9990.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()) - 1e-9);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[idx];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail a sample supports: the highest percentile of the ladder
/// 99.99 / 99.9 / 99 / 90 / 50 that still leaves at least ten samples
/// strictly beyond it. A sample too small for even p50 reports p50 with
/// the (short) count it has, so the output never hides its sample size.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly above `value`
  std::size_t samples = 0;
};

inline Tail tail_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    const double value = percentile_sorted(v, p);
    const std::size_t beyond = static_cast<std::size_t>(
        v.end() - std::upper_bound(v.begin(), v.end(), value));
    t = Tail{p, value, beyond, v.size()};
    if (beyond >= 10) break;
  }
  return t;
}

// ---- process accounting --------------------------------------------------------

double peak_rss_mib();      ///< getrusage ru_maxrss, MiB
double process_cpu_s();     ///< user + system CPU seconds of the process

/// Box fingerprint + run parameters, printed as the reproducibility header.
struct BoxInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  std::uint64_t l3_bytes = 0;
};
BoxInfo box_info();

// ---- results ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation reports. `e2e` holds the end-to-end metrics
/// of an untraced pass, `layer` the per-layer metrics of a traced pass;
/// `header` collects the reproducibility header and the named detail
/// metrics (tails, per-workload rates) as already-formatted JSON values.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< refused + errored + wrong-answer operations
  std::vector<std::string> mismatches;  ///< first few wrong answers, for the log
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> header;

  void fail(const std::string& what) {
    ++failed;
    if (mismatches.size() < 8) mismatches.push_back(what);
  }
};

std::string json_escape(const std::string& s);
std::string json_number(double v);
std::string json_array(const std::vector<double>& v);

}  // namespace perfbench
