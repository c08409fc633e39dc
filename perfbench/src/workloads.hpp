// The three workloads. Each drives the library only through its public
// API, checks every answer against a reference from oracle.hpp, and fills
// a Result. A pass measures for `seconds`; the end-to-end metrics are the
// same names on every workload (see README.md for what each means where).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Library thread-pool width, pinned for every run and recorded in the
/// header: the box has 4 vCPUs.
inline constexpr unsigned kPoolWidth = 4;

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string tmpdir;  ///< scratch space for the serve journals
};

Result run_ingest(const RunArgs& args, Tracer& tracer);
Result run_window(const RunArgs& args, Tracer& tracer);
Result run_serve(const RunArgs& args, Tracer& tracer);

}  // namespace perfbench
