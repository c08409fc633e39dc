#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

BoxInfo box_info() {
  BoxInfo box;
  box.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) box.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  box.avx2 = __builtin_cpu_supports("avx2");
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) {
    box.l3_bytes = static_cast<std::uint64_t>(l3);
  } else {
    // Some kernels leave the sysconf cache entries empty; sysfs has it.
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string s;
    if (f >> s && !s.empty()) {
      std::uint64_t mult = 1;
      if (s.back() == 'K') mult = 1024;
      if (s.back() == 'M') mult = 1024 * 1024;
      box.l3_bytes = std::stoull(s) * mult;
    }
  }
  return box;
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + json_number(v[i]);
  return out + "]";
}

}  // namespace perfbench
