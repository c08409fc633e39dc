// The benchmark's own tests: the rules its numbers rest on. Runs as one
// binary (ctest -R perfbench_selftest, or python3 perfbench/run.py
// --selftest); exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "../src/common.hpp"
#include "../src/openloop.hpp"
#include "../src/oracle.hpp"
#include "../src/trace.hpp"

namespace {

int g_failed = 0;

#define CHECK(cond)                                                          \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                   \
      ++g_failed;                                                            \
    }                                                                        \
  } while (0)

#define CHECK_NEAR(a, b, eps) CHECK(std::abs((a) - (b)) <= (eps))

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_rule() {
  // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
  Tail t = tail_of(one_to(1000));
  CHECK(t.percentile == 99.0);
  CHECK(t.value == 990.0);
  CHECK(t.beyond == 10);
  CHECK(t.samples == 1000);
  // 999 samples: p99 leaves only 9 beyond, so the tail falls to p90.
  t = tail_of(one_to(999));
  CHECK(t.percentile == 90.0);
  CHECK(t.beyond >= 10);
  // 10000 samples support p99.9.
  t = tail_of(one_to(10000));
  CHECK(t.percentile == 99.9);
  CHECK(t.beyond == 10);
  // 100 samples: p90 leaves 10.
  t = tail_of(one_to(100));
  CHECK(t.percentile == 90.0);
  CHECK(t.value == 90.0);
  // Too small for any rung: reports p50 with the short count it has.
  t = tail_of(one_to(19));
  CHECK(t.percentile == 50.0);
  CHECK(t.beyond == 9);
  // Ties at the percentile do not count as beyond it.
  std::vector<double> ties(100, 1.0);
  ties.push_back(2.0);
  t = tail_of(ties);
  CHECK(t.percentile == 50.0);
  CHECK(t.beyond == 1);

  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  CHECK(percentile_sorted({1, 2, 3, 4}, 50) == 2);
  CHECK(percentile_sorted({1, 2, 3, 4}, 100) == 4);
}

SpanRec span(std::uint32_t id, std::uint32_t parent, const char* name,
             std::int64_t a, std::int64_t b) {
  SpanRec s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = a * 1'000'000'000;  // whole seconds, to read the sums easily
  s.end_ns = b * 1'000'000'000;
  return s;
}

void test_self_time() {
  // Parent [0,100]; children [10,30] and [20,50] overlap, [90,120] sticks
  // out and is clipped; a grandchild [12,15] sits inside the first child.
  const std::vector<SpanRec> spans = {
      span(1, 0, "bench.cycle", 0, 100),
      span(2, 1, "engine.insert_edges", 10, 30),
      span(3, 1, "engine.edges_exist", 20, 50),
      span(4, 1, "graph.compact", 90, 120),
      span(5, 2, "slabhash.walk", 12, 15),
  };
  const auto self = self_seconds_by_layer(spans);
  // Parent: 100 minus the union [10,50] + [90,100] = 100 - 50.
  CHECK_NEAR(self.at("bench"), 50.0, 1e-9);
  // Engine: (20 - 3) + 30.
  CHECK_NEAR(self.at("engine"), 47.0, 1e-9);
  CHECK_NEAR(self.at("graph"), 30.0, 1e-9);
  CHECK_NEAR(self.at("slabhash"), 3.0, 1e-9);
  // A child entirely outside its parent covers nothing of it.
  const auto apart = self_seconds_by_layer({span(1, 0, "shard.submit", 0, 1),
                                            span(2, 1, "analytics.cut", 5, 9)});
  CHECK_NEAR(apart.at("shard"), 1.0, 1e-9);
  CHECK_NEAR(apart.at("analytics"), 4.0, 1e-9);
  CHECK(layer_of("engine.insert_edges") == "engine");
  CHECK(layer_of("plain") == "plain");
}

void test_tracer() {
  Tracer off;
  { Span s(off, "engine.x"); }
  CHECK(off.size() == 0);

  Tracer t;
  t.set_enabled(true);
  std::uint32_t outer_id = 0;
  {
    Span outer(t, "bench.cycle", 7);
    outer_id = outer.id();
    Span inner(t, "engine.insert_edges", 7);
  }
  { Span explicit_parent(t, "analytics.cut", 8, outer_id); }
  const auto spans = t.spans();
  CHECK(spans.size() == 3);
  CHECK(spans[0].parent == 0);
  CHECK(spans[1].parent == outer_id);  // inherited from the open span
  CHECK(spans[2].parent == outer_id);  // given explicitly
  CHECK(spans[1].request == 7);
  CHECK(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
}

void test_open_loop() {
  // 1000/s from t=0: request k is due at k ms.
  CHECK(due_ns(0, 1000.0, 0) == 0);
  CHECK(due_ns(0, 1000.0, 3) == 3'000'000);
  CHECK(due_ns(500, 2.0, 1) == 500'000'500);
  // Latency runs from DUE, not from send: a request sent 5 ms late and
  // answered 1 ms after sending waited 6 ms.
  const RequestTiming late{10'000'000, 15'000'000, 16'000'000};
  CHECK_NEAR(latency_ms(late), 6.0, 1e-9);
  CHECK_NEAR(lateness_ms(late), 5.0, 1e-9);
  // Sent early (clock jitter) is not negative lateness.
  const RequestTiming early{10'000'000, 9'000'000, 12'000'000};
  CHECK_NEAR(lateness_ms(early), 0.0, 1e-12);
  CHECK_NEAR(latency_ms(early), 2.0, 1e-9);

  // A stall: the request due at 50 ms is answered at 80 ms, and the 14
  // due behind it (1 ms apart, answered the moment the stall clears) wait
  // 29..16 ms — the stall is charged to every request it delayed.
  std::vector<RequestTiming> stall;
  for (int k = 0; k < 100; ++k) {
    const std::int64_t due = k * 1'000'000LL;
    std::int64_t done = due + 1'000'000;
    if (k >= 50 && k < 65) done = 80'000'000;
    stall.push_back({due, due, done});
  }
  const StepLatency s = summarize(stall, 50.0);
  CHECK(s.samples == 100);
  CHECK_NEAR(s.p50_ms, 1.0, 1e-9);
  CHECK(s.tail.percentile == 90.0);
  CHECK_NEAR(s.tail.value, 20.0, 1e-9);
  CHECK(s.tail.beyond == 10);
  CHECK_NEAR(s.late.value, 0.0, 1e-12);
  CHECK(!s.backlog_grew);  // a stall that clears is not a growing backlog

  // A saturated system: each request finishes 0.5 ms later than the last,
  // so the last quarter's median sits ~37 ms above the first quarter's.
  std::vector<RequestTiming> falling_behind;
  for (int k = 0; k < 100; ++k) {
    const std::int64_t due = k * 1'000'000LL;
    falling_behind.push_back({due, due, due + 1'000'000 + k * 500'000LL});
  }
  CHECK(summarize(falling_behind, 50.0).backlog_grew);    // 37 > 12.5
  CHECK(!summarize(falling_behind, 200.0).backlog_grew);  // 37 < 50
}

void test_oracle() {
  RefGraph g;
  // Most recent arrival wins, even with an older timestamp.
  g.insert(1, 2, 5);
  g.insert(1, 2, 3);
  CHECK(g.size() == 1);
  CHECK(g.age_out(4) == 1);  // ts 3 < 4: gone
  CHECK(!g.contains(1, 2));
  // Strict threshold: an edge AT the threshold survives.
  g.insert(3, 4, 4);
  g.insert(4, 3, 9);
  CHECK(g.age_out(4) == 0);
  CHECK(g.contains(3, 4));
  CHECK(g.age_out(5) == 1);
  CHECK(!g.contains(3, 4) && g.contains(4, 3));
  // Self-loops are never stored.
  g.insert(7, 7, 1);
  CHECK(!g.contains(7, 7));
  // Vertex deletion drops in- and out-edges; a later insert revives it.
  g.insert(5, 6, 10);
  g.insert(6, 5, 10);
  g.insert(6, 8, 10);
  g.insert(8, 9, 10);
  const std::vector<std::uint32_t> doomed = {6};
  CHECK(g.delete_vertices(doomed) == 3);
  CHECK(!g.contains(5, 6) && !g.contains(6, 5) && !g.contains(6, 8));
  CHECK(g.contains(8, 9));
  g.insert(6, 9, 11);
  CHECK(g.contains(6, 9));

  SortedEdgeSet set;
  set.add(1, 2);
  set.add(1, 2);
  set.add(2, 1);
  set.add(3, 3);  // self-loop dropped
  set.seal();
  CHECK(set.size() == 2);
  CHECK(set.contains(1, 2) && set.contains(2, 1) && !set.contains(3, 3));

  // The serve reference's last-mutation table: most recent put wins, and
  // every edge survives the table growing past its first capacity.
  EdgeStateTable states;
  CHECK(states.find(1, 2) == nullptr);
  CHECK(states.put(1, 2, 3));
  CHECK(!states.put(1, 2, 8));
  CHECK(*states.find(1, 2) == 8);
  CHECK(states.find(2, 1) == nullptr);
  for (std::uint32_t v = 0; v < 5000; ++v) states.put(v + 1, v, v);
  CHECK(states.size() == 5001);
  bool all = *states.find(1, 2) == 8;
  for (std::uint32_t v = 0; v < 5000; ++v) {
    const std::uint32_t* s = states.find(v + 1, v);
    all = all && s != nullptr && *s == v;
  }
  CHECK(all);
  const std::uint32_t k = EdgeStateTable::key(65535, 7);
  CHECK(EdgeStateTable::src_of(k) == 65535 && EdgeStateTable::dst_of(k) == 7);
  states.clear();
  CHECK(states.size() == 0 && states.find(1, 2) == nullptr);
}

void test_rng_is_seeded() {
  Rng a(42), b(42), c(43);
  const std::uint64_t x = a.next();
  CHECK(x == b.next());
  CHECK(x != c.next());
  const RmatGen rmat{10};
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    std::uint32_t dst = 0;
    const std::uint32_t src = rmat(r, &dst);
    CHECK(src != dst);
    CHECK(src < 1024 && dst < 1024);
  }
}

}  // namespace

int main() {
  test_tail_rule();
  test_self_time();
  test_tracer();
  test_open_loop();
  test_oracle();
  test_rng_is_seeded();
  if (g_failed != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", g_failed);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
