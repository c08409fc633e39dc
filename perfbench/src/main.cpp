// perfbench — one benchmark binary, three workloads.
//
//   perfbench --workload ingest|window|serve --seed N --seconds S --trace 0|1
//             [--tmpdir DIR] [--trace-out FILE]
//
// Prints a reproducibility header line, then as its LAST line one JSON
// object {correct, attempted, failed, metrics}. With --trace 0 the metrics
// are the end-to-end set; with --trace 1 the run makes an untraced pass and
// a traced pass of S/2 seconds each and reports the per-layer metrics the
// workload measures (plus the tracing overhead: traced vs untraced p50),
// writing the traced pass's spans as Chrome trace_event JSON to
// --trace-out. BENCHMARK.json alone lists the metric set; run.py reports
// a per-layer metric this workload does not measure as 0.
// Exit status: 0 when every answer matched the reference, 1 otherwise,
// 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "src/simt/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|window|serve "
               "--seed N --seconds S --trace 0|1 [--tmpdir DIR] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Result run_workload(const std::string& name, const RunArgs& args, Tracer& tracer) {
  if (name == "ingest") return run_ingest(args, tracer);
  if (name == "window") return run_window(args, tracer);
  return run_serve(args, tracer);
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += json_escape(name) + ": {\"value\": " + json_number(metric.value) +
           ", \"unit\": " + json_escape(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, trace_out;
  RunArgs args;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") { args.seed = std::stoull(value); have_seed = true; }
      else if (flag == "--seconds") { args.seconds = std::stod(value); have_seconds = true; }
      else if (flag == "--trace") trace = std::stoi(value);
      else if (flag == "--tmpdir") args.tmpdir = value;
      else if (flag == "--trace-out") trace_out = value;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (workload != "ingest" && workload != "window" && workload != "serve") {
    usage("--workload must be ingest, window or serve");
  }
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1) ||
      !(args.seconds > 0)) {
    usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  if (workload == "serve" && args.tmpdir.empty()) usage("serve needs --tmpdir");

  sg::simt::ThreadPool::instance().resize(kPoolWidth);
  Tracer tracer;
  Result res;
  try {
    if (trace == 0) {
      res = run_workload(workload, args, tracer);
    } else {
      RunArgs half = args;
      half.seconds = args.seconds / 2;
      const Result plain = run_workload(workload, half, tracer);
      tracer.set_enabled(true);
      res = run_workload(workload, half, tracer);
      tracer.set_enabled(false);
      res.attempted += plain.attempted;
      res.failed += plain.failed;
      res.mismatches.insert(res.mismatches.end(), plain.mismatches.begin(),
                            plain.mismatches.end());
      for (const auto& [layer, secs] : self_seconds_by_layer(tracer.spans())) {
        res.layer["layer." + layer + ".self_s"] = {secs, "s"};
      }
      res.layer["trace.overhead_frac"] = {
          res.e2e.at("p50_ms").value / plain.e2e.at("p50_ms").value - 1.0, "ratio"};
      res.layer["trace.spans"] = {static_cast<double>(tracer.size()), "count"};
      if (!trace_out.empty() && !tracer.write_chrome_json(trace_out)) {
        std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  res.header["peak_rss_mb"] = json_number(peak_rss_mib());

  const BoxInfo box = box_info();
  std::ostringstream header;
  header << "{\"header\": {\"workload\": " << json_escape(workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << json_number(args.seconds)
         << ", \"trace\": " << trace << ", \"pool_width\": " << kPoolWidth
         << ", \"box\": {\"nproc\": " << box.nproc
         << ", \"cpu_model\": " << json_escape(box.cpu_model)
         << ", \"avx2\": " << (box.avx2 ? "true" : "false")
         << ", \"l3_bytes\": " << box.l3_bytes << "}";
  for (const auto& [key, value] : res.header) {
    header << ", " << json_escape(key) << ": " << value;
  }
  header << ", \"failed_frac\": "
         << json_number(res.attempted ? static_cast<double>(res.failed) /
                                            static_cast<double>(res.attempted)
                                      : 1.0)
         << "}}";
  for (const std::string& m : res.mismatches) {
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", m.c_str());
  }
  std::cout << header.str() << "\n";
  std::cout << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
            << ", \"metrics\": " << metrics_json(trace == 0 ? res.e2e : res.layer) << "}"
            << std::endl;
  return res.failed == 0 ? 0 : 1;
}
