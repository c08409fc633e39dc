#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint32_t> g_next_thread{1};

std::uint32_t thread_index() {
  thread_local const std::uint32_t index = g_next_thread.fetch_add(1);
  return index;
}

/// Open spans of the calling thread, innermost last.
std::vector<std::uint32_t>& open_stack() {
  thread_local std::vector<std::uint32_t> stack;
  return stack;
}

}  // namespace

std::uint32_t Tracer::begin(const char* name, std::uint64_t request,
                            std::uint32_t parent) {
  auto& stack = open_stack();
  if (parent == kInherit) parent = stack.empty() ? 0 : stack.back();
  SpanRec rec;
  rec.parent = parent;
  rec.request = request;
  rec.name = name;
  rec.thread = thread_index();
  rec.start_ns = now_ns();
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::uint32_t>(spans_.size() + 1);
    rec.id = id;
    spans_.push_back(std::move(rec));
  }
  stack.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  const std::int64_t t = now_ns();
  auto& stack = open_stack();
  const auto it = std::find(stack.rbegin(), stack.rend(), id);
  if (it != stack.rend()) stack.erase(std::next(it).base());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = t;
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanRec> out;
  out.reserve(spans_.size());
  for (const SpanRec& s : spans_) {
    if (s.end_ns != 0) out.push_back(s);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRec> all = spans();
  std::int64_t t0 = 0;
  for (const SpanRec& s : all) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"name\":" << json_escape(s.name)
        << ",\"cat\":" << json_escape(layer_of(s.name))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << json_number(static_cast<double>(s.start_ns - t0) / 1e3)
        << ",\"dur\":" << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

std::map<std::string, double> self_seconds_by_layer(
    const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const SpanRec*>> children;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const SpanRec& s : spans) {
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRec* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, run_a = 0, run_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    out[layer_of(s.name)] += seconds_between(0, s.end_ns - s.start_ns - covered);
  }
  return out;
}

}  // namespace perfbench
