// serve — the production mixed shape: a 4-shard ShardedGraphMap on the
// scheduled API, with per-shard write-ahead journals (journal_sync none).
//
// The traffic is the repository's documented serving recipe
// (docs/WORKLOADS.md "Mixed serve", examples/streaming_serve.cpp): 16
// ingest clients and 8 probe clients over 64 Ki vertices. An ingest client
// inserts cubic-skewed batches and, on every 4th batch, first erases the
// batch before it; a probe client submits edges_exist batches, half drawn
// from inserted edges and half uniform; every batch holds 4096 items. One
// generator thread plays all 24 clients: each client step picks a client
// uniformly at random. A fenced tier analytics cut (bulk CC over
// gather_neighbors) runs every kCutPeriodS in the open-loop steps.
//
// The pass has three parts, each step on a tier freshly built from the base:
//   * the base step, an OPEN loop at a fixed offered rate well below
//     capacity, gives the due-time latencies (timed from each request's
//     due time; one collector resolves futures in submission order);
//   * kRounds rounds after a warm-up round, each a closed loop and two
//     blocks. The closed loop
//     plays one client step at a time, each submission awaited before the
//     next: the service latency of one request through the scheduled
//     path, without the idle gaps that make the open loop's latency swing
//     from run to run. The blocks submit pre-generated submissions all at
//     once and time them to completion, so their rate is the library's,
//     not the generator's schedule;
//   * the ladder, open-loop steps at doubling offered rates, stops at the
//     first step whose query tail misses the limit or whose backlog grows:
//     serve_max_rate is the highest step that met it.
//
// Bypassed: stream, and the large-graph locality ingest exercises (each
// shard's graph sits well inside L3).
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "openloop.hpp"
#include "oracle.hpp"
#include "src/analytics/connected_components.hpp"
#include "src/core/errors.hpp"
#include "src/shard/sharded_graph.hpp"
#include "src/simt/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sg::core::Edge;
using sg::core::WeightedEdge;

// The documented recipe's shape.
constexpr std::uint32_t kVertices = 1u << 16;
constexpr std::uint32_t kShards = 4;
constexpr std::size_t kItems = 4096;  // edges or probes per submission
constexpr std::uint32_t kIngestClients = 16;
constexpr std::uint32_t kProbeClients = 8;
constexpr std::uint32_t kEraseEvery = 4;  // ingest batches per erase
// The benchmark's own choices.
constexpr std::size_t kBaseEdges = std::size_t{1} << 20;
// Offered client steps per second; step 0 is the base rate.
constexpr double kLadder[] = {40.0, 80.0, 160.0, 320.0, 640.0, 1280.0};
constexpr double kBaseShare = 0.32;     // of the pass: ~100 queries, enough for a p90
constexpr double kLadderShare = 0.2;    // split evenly over the steps above base
constexpr double kCutPeriodS = 1.0;
constexpr double kTailLimitMs = 400.0;  // query tail limit for the ladder
constexpr std::size_t kRounds = 16;         // closed loop + blocks, each on a fresh tier
constexpr std::size_t kClosedSteps = 128;    // client steps per closed-loop round
constexpr std::size_t kBlockSteps = 256;     // client steps per capacity block
constexpr std::size_t kReadBlockSubs = 85;   // probe batches: a third of a block

enum class Kind { kQuery, kInsert, kErase, kCut };

struct CutRecord {
  std::int64_t start_ns = 0;
  double gather_s = 0.0;
  std::uint64_t gathered = 0;  ///< neighbors returned by the gathers
  double cc_s = 0.0;
  bool frozen = false;
};

struct Pending {
  Kind kind = Kind::kQuery;
  std::uint64_t seq = 0;
  std::size_t step = 0;
  std::size_t items = 0;
  RequestTiming t;
  std::vector<WeightedEdge> inserts;
  std::vector<Edge> edges;          ///< probes or erased edges
  std::vector<std::int8_t> expect;  ///< per probe: 1 / 0, or -1 where not decidable
  std::future<std::vector<std::uint8_t>> query;
  std::future<std::uint64_t> mutation;
  std::future<void> cut_done;
  std::shared_ptr<CutRecord> cut;
};

/// The 24 clients' traffic, generated on the benchmark side, plus the
/// reference state the probes are checked against: the last mutation
/// submitted per edge, as (seq << 1) | is_insert (a run submits far fewer
/// than 2^31). Base edges are seq 0, resolved from the start.
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed)
      : pick_(sub_seed(seed, 22)), keys_(sub_seed(seed, 23)), probe_(sub_seed(seed, 24)) {
    Rng rng(sub_seed(seed, 21));
    base_.resize(kBaseEdges);
    for (auto& e : base_) e = draw(rng, 0);
  }

  const std::vector<WeightedEdge>& base() const { return base_; }

  /// Forgets every mutation: the reference of a tier just built from the
  /// base. The traffic's random streams carry on.
  void reset() {
    last_mut_.clear();
    pool_.clear();
    for (auto& previous : previous_) previous.clear();
    for (const auto& e : base_) note(e.src, e.dst, 1);
    submitted_edges = kBaseEdges;
  }

  /// Appends the next client step's submissions (one, or an erase and an
  /// insert) to `out`. `resolved` is the highest sequence number whose
  /// future has resolved: a probe's answer is decidable only when its
  /// edge's last mutation is at or below it.
  void next(std::uint64_t& seq, std::uint64_t resolved, std::vector<Pending>& out) {
    const std::uint32_t client = pick_.below(kIngestClients + kProbeClients);
    if (client >= kIngestClients) {
      query(seq, resolved, out);
      return;
    }
    std::vector<WeightedEdge>& previous = previous_[client];
    if (batches_[client]++ % kEraseEvery == kEraseEvery - 1 && !previous.empty()) {
      Pending& p = out.emplace_back();
      p.kind = Kind::kErase;
      p.seq = ++seq;
      p.items = kItems;
      p.edges.resize(kItems);
      for (std::size_t i = 0; i < kItems; ++i) {
        p.edges[i] = {previous[i].src, previous[i].dst};
        note(previous[i].src, previous[i].dst, p.seq << 1);
      }
      submitted_edges += kItems;
    }
    Pending& p = out.emplace_back();
    p.kind = Kind::kInsert;
    p.seq = ++seq;
    p.items = kItems;
    p.inserts.resize(kItems);
    for (auto& e : p.inserts) {
      e = draw(keys_, static_cast<std::uint32_t>(p.seq));
      note(e.src, e.dst, (p.seq << 1) | 1);
    }
    submitted_edges += kItems;
    previous = p.inserts;
  }

  /// Appends one probe client's edges_exist batch.
  void query(std::uint64_t& seq, std::uint64_t resolved, std::vector<Pending>& out) {
    Pending& p = out.emplace_back();
    p.kind = Kind::kQuery;
    p.seq = ++seq;
    p.items = kItems;
    p.edges.resize(kItems);
    p.expect.resize(kItems);
    for (std::size_t i = 0; i < kItems; ++i) {
      Edge q;
      if (i % 2 == 0) {
        const std::uint32_t key = pool_[probe_.below(static_cast<std::uint32_t>(pool_.size()))];
        q = {EdgeStateTable::src_of(key), EdgeStateTable::dst_of(key)};
      } else {
        q = {probe_.below(kVertices), probe_.below(kVertices)};
      }
      p.edges[i] = q;
      const std::uint32_t* state = last_mut_.find(q.src, q.dst);
      if (state == nullptr) {
        p.expect[i] = 0;  // never inserted
      } else {
        p.expect[i] = (*state >> 1) <= resolved ? static_cast<std::int8_t>(*state & 1)
                                                : std::int8_t{-1};
      }
    }
  }

  std::uint64_t submitted_edges = 0;  ///< base + inserted + erased

 private:
  /// examples/streaming_serve.cpp's draw: cubic-skewed source (hub
  /// sources take most edges), uniform destination; self-loops redrawn.
  static WeightedEdge draw(Rng& rng, std::uint32_t weight) {
    for (;;) {
      const double u = rng.unit();
      const auto src = static_cast<std::uint32_t>(u * u * u * kVertices);
      const std::uint32_t dst = rng.below(kVertices);
      if (src != dst) return {src, dst, weight};
    }
  }
  void note(std::uint32_t src, std::uint32_t dst, std::uint64_t state) {
    if (last_mut_.put(src, dst, static_cast<std::uint32_t>(state))) {
      pool_.push_back(EdgeStateTable::key(src, dst));
    }
  }

  Rng pick_, keys_, probe_;
  std::vector<WeightedEdge> base_;
  EdgeStateTable last_mut_;
  std::vector<std::uint32_t> pool_;  ///< packed edges ever inserted (probe hit draws)
  std::array<std::vector<WeightedEdge>, kIngestClients> previous_;
  std::array<std::uint32_t, kIngestClients> batches_{};
};

/// What the collector saw, per step and kind.
struct StepLog {
  std::vector<RequestTiming> query, insert, erase, cut;
  std::size_t items = 0;
  std::int64_t last_done_ns = 0;
};

/// Bulk adjacency over the whole tier: each source is gathered from its
/// owner shard, slices reassembled in input order. Runs inside a fenced
/// cut, where every shard is quiescent.
sg::analytics::BulkNeighborFn tier_gather(const sg::shard::ShardedGraphMap& tier,
                                          Tracer& tracer, CutRecord& cut) {
  return [&tier, &tracer, &cut](std::span<const sg::core::VertexId> src,
                                std::vector<std::uint64_t>& offsets,
                                std::vector<sg::core::VertexId>& out) {
    Span span(tracer, "analytics.gather");
    const std::int64_t t0 = now_ns();
    std::vector<std::vector<sg::core::VertexId>> part(tier.shard_count());
    std::vector<std::vector<std::uint32_t>> pos(tier.shard_count());
    for (std::uint32_t i = 0; i < src.size(); ++i) {
      const std::uint32_t s = tier.owner(src[i]);
      part[s].push_back(src[i]);
      pos[s].push_back(i);
    }
    std::vector<sg::core::GatherResult> got(tier.shard_count());
    offsets.assign(src.size() + 1, 0);
    for (std::uint32_t s = 0; s < tier.shard_count(); ++s) {
      got[s] = tier.shard(s).gather_neighbors(part[s]);
      for (std::size_t j = 0; j < pos[s].size(); ++j) {
        offsets[pos[s][j] + 1] = got[s].offsets[j + 1] - got[s].offsets[j];
      }
    }
    for (std::size_t i = 0; i < src.size(); ++i) offsets[i + 1] += offsets[i];
    out.resize(offsets.back());
    for (std::uint32_t s = 0; s < tier.shard_count(); ++s) {
      for (std::size_t j = 0; j < pos[s].size(); ++j) {
        const auto slice = got[s].neighbors_of(j);
        std::copy(slice.begin(), slice.end(), out.begin() + static_cast<std::ptrdiff_t>(offsets[pos[s][j]]));
      }
    }
    cut.gathered += out.size();
    cut.gather_s += seconds_between(t0, now_ns());
  };
}

class Collector {
 public:
  Collector(std::size_t steps, Tracer& tracer) : logs_(steps), tracer_(tracer) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  /// Highest submission sequence whose future has resolved (in order).
  std::uint64_t resolved_through() const {
    return resolved_.load(std::memory_order_acquire);
  }
  /// Waits until everything pushed so far has been collected.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
  }
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  /// Collects everything pushed so far, then carries on on a new thread.
  void restart() {
    finish();
    stop_ = false;
    thread_ = std::thread([this] { loop(); });
  }
  std::vector<StepLog> logs_;
  std::vector<double> cut_wait_ms, gather_s, gather_rate, cc_s;
  std::uint64_t failed = 0, attempted = 0;
  std::vector<std::string> mismatches;

 private:
  void loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
        busy_ = true;
      }
      collect(p);
      resolved_.store(p.seq, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        busy_ = false;
      }
      idle_cv_.notify_all();
    }
  }

  void note_failure(const std::string& what) {
    ++failed;
    if (mismatches.size() < 8) mismatches.push_back(what);
  }

  void collect(Pending& p) {
    ++attempted;
    bool ok = true;
    try {
      Span wait(tracer_, "bench.wait", p.seq);
      wait_for(p);
    } catch (const std::exception& e) {
      note_failure(std::string("serve: submission failed: ") + e.what());
      ok = false;
    }
    p.t.done_ns = now_ns();
    if (!ok) return;
    if (p.kind == Kind::kQuery) {
      for (std::size_t i = 0; i < p.edges.size(); ++i) {
        if (p.expect[i] >= 0 && answers_[i] != p.expect[i]) {
          note_failure("serve: probe (" + std::to_string(p.edges[i].src) + "," +
                       std::to_string(p.edges[i].dst) + ") answered " +
                       std::to_string(answers_[i]) + ", reference " +
                       std::to_string(p.expect[i]));
          break;
        }
      }
    }
    if (p.kind == Kind::kCut) {
      if (!p.cut->frozen) note_failure("serve: tier edge count moved inside a cut");
      cut_wait_ms.push_back(static_cast<double>(p.cut->start_ns - p.t.sent_ns) * 1e-6);
      gather_s.push_back(p.cut->gather_s);
      gather_rate.push_back(static_cast<double>(p.cut->gathered) / p.cut->gather_s);
      cc_s.push_back(p.cut->cc_s);
    }
    StepLog& log = logs_[p.step];
    log.items += p.items;
    log.last_done_ns = std::max(log.last_done_ns, p.t.done_ns);
    switch (p.kind) {
      case Kind::kQuery: log.query.push_back(p.t); break;
      case Kind::kInsert: log.insert.push_back(p.t); break;
      case Kind::kErase: log.erase.push_back(p.t); break;
      case Kind::kCut: log.cut.push_back(p.t); break;
    }
  }

  void wait_for(Pending& p) {
    switch (p.kind) {
      case Kind::kQuery: answers_ = p.query.get(); break;
      case Kind::kInsert:
      case Kind::kErase: p.mutation.get(); break;
      case Kind::kCut: p.cut_done.get(); break;
    }
  }

  Tracer& tracer_;
  std::vector<std::uint8_t> answers_;
  std::atomic<std::uint64_t> resolved_{0};
  std::mutex mutex_;  ///< guards queue_, busy_, stop_
  std::condition_variable cv_, idle_cv_;
  std::deque<Pending> queue_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;  ///< last: starts after every member it uses
};

std::unique_ptr<sg::shard::ShardedGraphMap> make_tier(const std::string& dir, int id) {
  sg::shard::ShardConfig sc;
  sc.shard_count = kShards;
  sc.graph.vertex_capacity = kVertices;
  sc.graph.journal_sync = sg::core::JournalSyncPolicy::kNone;
  sc.per_shard = [dir, id](std::uint32_t s, sg::core::GraphConfig& gc) {
    gc.journal_path = (fs::path(dir) / ("serve" + std::to_string(id) + ".shard" +
                                        std::to_string(s) + ".journal"))
                          .string();
  };
  return std::make_unique<sg::shard::ShardedGraphMap>(std::move(sc));
}

/// Submits a query, insert or erase, timing the caller side of the call.
void submit(sg::shard::ShardedGraphMap& tier, Pending& p, Tracer& tracer,
            std::vector<double>& submit_us) {
  p.t.sent_ns = now_ns();
  switch (p.kind) {
    case Kind::kQuery: {
      Span s(tracer, "shard.submit_query", p.seq);
      p.query = tier.submit_edges_exist(p.edges);
      break;
    }
    case Kind::kInsert: {
      Span s(tracer, "shard.submit_insert", p.seq);
      p.mutation = tier.submit_insert(std::move(p.inserts));
      break;
    }
    case Kind::kErase: {
      Span s(tracer, "shard.submit_erase", p.seq);
      p.mutation = tier.submit_erase(std::move(p.edges));
      break;
    }
    case Kind::kCut: break;
  }
  submit_us.push_back(static_cast<double>(now_ns() - p.t.sent_ns) * 1e-3);
}

/// A fenced tier cut: bulk CC over the whole tier, checking that the tier
/// edge count stays frozen for the task's duration.
Pending submit_cut(sg::shard::ShardedGraphMap& tier, std::uint64_t seq, Tracer& tracer) {
  Pending p;
  p.kind = Kind::kCut;
  p.seq = seq;
  p.cut = std::make_shared<CutRecord>();
  p.t.sent_ns = now_ns();
  Span s(tracer, "shard.submit_analytics", p.seq);
  const std::uint32_t parent = s.id();
  auto* tier_ptr = &tier;
  auto cut = p.cut;
  p.cut_done = tier.submit_analytics([tier_ptr, cut, &tracer, parent, seq] {
    Span task(tracer, "analytics.cut", seq, parent == 0 ? Tracer::kInherit : parent);
    cut->start_ns = now_ns();
    const std::uint64_t before = tier_ptr->num_edges();
    const std::int64_t t0 = now_ns();
    {
      Span cc(tracer, "analytics.cc", seq);
      sg::analytics::connected_components_bulk(kVertices,
                                               tier_gather(*tier_ptr, tracer, *cut));
    }
    cut->cc_s = seconds_between(t0, now_ns()) - cut->gather_s;
    cut->frozen = tier_ptr->num_edges() == before;
  });
  return p;
}

std::uint64_t journal_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace

Result run_serve(const RunArgs& args, Tracer& tracer) {
  Result res;
  const std::string dir =
      (fs::path(args.tmpdir) / ("serve-" + std::to_string(args.seed))).string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  Traffic traffic(args.seed);
  std::unique_ptr<sg::shard::ShardedGraphMap> tier;
  // Every step and capacity block starts from the same state, a tier
  // freshly built from the base: its numbers do not depend on how much the
  // steps before it grew the tier, and memory stays bounded by one step.
  // The pool's and the collector's threads restart with it: where the OS
  // first places them among the 4 vCPUs sticks for their lifetime, and one
  // placement can run the tier 2-3x slower than another, so medians over
  // rounds are medians over placements. Each build is timed; set-up is
  // their median.
  std::vector<double> setup_s;
  std::unique_ptr<Collector> collector;
  auto fresh_tier = [&]() {
    tier.reset();
    sg::simt::ThreadPool::instance().resize(1);  // joins the workers
    sg::simt::ThreadPool::instance().resize(kPoolWidth);
    if (collector) collector->restart();
    for (const auto& entry : fs::directory_iterator(dir)) fs::remove(entry.path());
    traffic.reset();
    const std::int64_t t0 = now_ns();
    Span s(tracer, "shard.setup", setup_s.size());
    tier = make_tier(dir, static_cast<int>(setup_s.size()));
    tier->insert_edges(traffic.base());
    setup_s.push_back(seconds_between(t0, now_ns()));
  };
  fresh_tier();

  const std::size_t ladder_steps = std::size(kLadder);
  const std::size_t closed_step = ladder_steps;  // log slots after the ladder's
  const std::size_t capacity_step = ladder_steps + 1;
  const std::size_t warmup_step = ladder_steps + 2;
  collector = std::make_unique<Collector>(ladder_steps + 3, tracer);
  std::vector<double> submit_us;
  std::uint64_t seq = 0;

  // One open-loop step: client steps due at `rate` per second for `secs`,
  // a cut due every kCutPeriodS on its own schedule. The whole step is
  // generated before it starts, so the generator only sleeps and submits
  // while it runs: a missed schedule is the library's.
  auto open_loop = [&](std::size_t step, double rate, double secs) {
    std::vector<Pending> todo;
    std::vector<std::size_t> step_of;  ///< client step index per submission
    const auto n = static_cast<std::size_t>(secs * rate);
    for (std::size_t k = 0; k < n; ++k) {
      traffic.next(seq, collector->resolved_through(), todo);
      step_of.resize(todo.size(), k);
    }
    const std::int64_t start = now_ns() + 1'000'000;  // 1 ms to get going
    std::int64_t next_cut = start + static_cast<std::int64_t>(kCutPeriodS * 0.5e9);
    for (std::size_t i = 0; i < todo.size(); ++i) {
      const std::int64_t due = due_ns(start, rate, step_of[i]);
      while (next_cut <= due) {
        std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(next_cut)));
        Pending cut = submit_cut(*tier, ++seq, tracer);
        cut.step = step;
        cut.t.due_ns = next_cut;
        collector->push(std::move(cut));
        next_cut += static_cast<std::int64_t>(kCutPeriodS * 1e9);
      }
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      Pending& p = todo[i];
      p.step = step;
      p.t.due_ns = due;
      submit(*tier, p, tracer, submit_us);
      collector->push(std::move(p));
    }
    collector->wait_idle();  // no backlog leaks into the next step
  };

  const double cpu0 = process_cpu_s();
  const std::int64_t run0 = now_ns();

  // ---- base step: the latency metrics, memory and scheduler counts ------
  const double base_s = args.seconds * kBaseShare;
  open_loop(0, kLadder[0], base_s);
  std::uint64_t reserved = 0, in_use = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto arena = tier->shard(s).arena_stats();
    reserved += arena.bytes_reserved();
    in_use += arena.bytes_in_use();
  }
  const std::uint64_t base_live = tier->num_edges();
  const auto ts = tier->tier_stats();
  const auto rs = tier->router_stats();

  // ---- rounds: closed loop, then a capacity block and a read block -------
  // Each round is a fresh tier. The closed loop plays one client step at a
  // time, each submission awaited before the next. The blocks submit
  // pre-generated submissions all at once and time them to completion:
  // first mixed client traffic, then probe batches, all decidable.
  std::vector<double> block_rate, read_rate;
  // Submits a block all at once and returns its items per second.
  auto run_block = [&](std::vector<Pending>& block, std::size_t slot) {
    std::size_t items = 0;
    for (const Pending& p : block) items += p.items;
    const std::int64_t t0 = now_ns();
    for (Pending& p : block) {
      p.step = slot;
      p.t.due_ns = t0;
      submit(*tier, p, tracer, submit_us);
      collector->push(std::move(p));
    }
    collector->wait_idle();
    return static_cast<double>(items) /
           seconds_between(t0, collector->logs_[slot].last_done_ns);
  };
  // Round 0 warms up and is not recorded: the first blocks after the base
  // step ran 2-3x slower than the rest in every run.
  for (std::size_t r = 0; r <= kRounds; ++r) {
    const bool measured = r > 0;
    fresh_tier();
    std::vector<Pending> block;
    for (std::size_t k = 0; k < kClosedSteps; ++k) {
      block.clear();
      traffic.next(seq, collector->resolved_through(), block);
      for (Pending& p : block) {
        p.step = measured ? closed_step : warmup_step;
        p.t.due_ns = now_ns();
        submit(*tier, p, tracer, submit_us);
        collector->push(std::move(p));
        collector->wait_idle();
      }
    }
    block.clear();
    for (std::size_t i = 0; i < kBlockSteps; ++i) {
      traffic.next(seq, collector->resolved_through(), block);
    }
    const double mixed = run_block(block, measured ? capacity_step : warmup_step);
    block.clear();
    for (std::size_t i = 0; i < kReadBlockSubs; ++i) {
      traffic.query(seq, collector->resolved_through(), block);
    }
    const double read = run_block(block, measured ? capacity_step : warmup_step);
    if (measured) {
      block_rate.push_back(mixed);
      read_rate.push_back(read);
    }
  }

  // ---- the ladder ---------------------------------------------------------
  const double step_s = args.seconds * kLadderShare / static_cast<double>(ladder_steps - 1);
  std::string ladder = "[";
  double max_rate = 0.0;  // offered Kitem/s of the highest step that met the limit
  for (std::size_t step = 0; step < ladder_steps; ++step) {
    if (step > 0) {
      fresh_tier();
      open_loop(step, kLadder[step], step_s);
    }
    const StepLog& log = collector->logs_[step];
    const StepLatency q = summarize(log.query, kTailLimitMs);
    const double offered =
        static_cast<double>(log.items) / (step == 0 ? base_s : step_s) * 1e-3;
    const bool pass = q.tail.value <= kTailLimitMs && !q.backlog_grew;
    if (pass) max_rate = offered;
    ladder += std::string(step ? "," : "") +
              "{\"offered_client_steps_s\":" + json_number(kLadder[step]) +
              ",\"offered_kitem_s\":" + json_number(offered) +
              ",\"query_p50_ms\":" + json_number(q.p50_ms) +
              ",\"query_tail_ms\":" + json_number(q.tail.value) +
              ",\"query_tail_pct\":" + json_number(q.tail.percentile) +
              ",\"query_samples\":" + std::to_string(q.samples) +
              ",\"late_tail_ms\":" + json_number(q.late.value) +
              ",\"backlog_grew\":" + (q.backlog_grew ? "true" : "false") +
              ",\"meets_limit\":" + (pass ? "true" : "false") + "}";
    if (!pass) break;  // the ladder stops at the first step that misses
  }
  ladder += "]";

  tier->drain();
  const double run_s = seconds_between(run0, now_ns());
  const double cpu_per_wall = (process_cpu_s() - cpu0) / run_s;
  collector->finish();
  res.attempted = collector->attempted;
  res.failed = collector->failed;
  res.mismatches = collector->mismatches;

  const StepLog& base_log = collector->logs_[0];
  const StepLatency q = summarize(base_log.query, kTailLimitMs);
  const StepLatency ins = summarize(base_log.insert, kTailLimitMs);
  const StepLatency closed = summarize(collector->logs_[closed_step].query, kTailLimitMs);
  const StepLatency closed_ins = summarize(collector->logs_[closed_step].insert, kTailLimitMs);
  std::vector<RequestTiming> all_cuts;
  for (const StepLog& log : collector->logs_) {
    all_cuts.insert(all_cuts.end(), log.cut.begin(), log.cut.end());
  }
  const StepLatency cut = summarize(all_cuts, kTailLimitMs);

  res.e2e["setup_s"] = {median(setup_s), "s"};
  res.e2e["rate_mitems"] = {median(block_rate) * 1e-6, "Mitem/s"};
  res.e2e["p50_ms"] = {closed.p50_ms, "ms"};
  res.e2e["read_mitems"] = {median(read_rate) * 1e-6, "Mitem/s"};
  res.e2e["bytes_per_edge"] = {static_cast<double>(reserved) / static_cast<double>(base_live), "B"};

  res.header["journal_sync"] = "\"none\"";
  res.header["offered_ladder"] = ladder;
  res.header["serve_max_rate_kitem_s"] = json_number(max_rate);
  res.header["capacity_kitem_s"] = json_number(median(block_rate) * 1e-3);
  res.header["capacity_item_s_per_block"] = json_array(block_rate);
  res.header["read_capacity_kitem_s"] = json_number(median(read_rate) * 1e-3);
  res.header["read_item_s_per_block"] = json_array(read_rate);
  res.header["closed_query_p50_ms"] = json_number(closed.p50_ms);
  res.header["closed_query_samples"] = std::to_string(closed.samples);
  res.header["closed_insert_p50_ms"] = json_number(closed_ins.p50_ms);
  res.header["query_p50_ms"] = json_number(q.p50_ms);
  res.header["query_tail_ms"] = json_number(q.tail.value);
  res.header["query_tail_pct"] = json_number(q.tail.percentile);
  res.header["query_samples"] = std::to_string(q.samples);
  res.header["insert_p50_ms"] = json_number(ins.p50_ms);
  res.header["insert_tail_ms"] = json_number(ins.tail.value);
  res.header["insert_tail_pct"] = json_number(ins.tail.percentile);
  res.header["insert_samples"] = std::to_string(ins.samples);
  res.header["cut_p50_ms"] = json_number(cut.p50_ms);
  res.header["cut_samples"] = std::to_string(cut.samples);
  res.header["cut_gather_mitem_s"] = json_number(median(collector->gather_rate) * 1e-6);
  res.header["gen_late_tail_ms"] = json_number(q.late.value);
  res.header["sizes"] =
      "{\"vertices\":" + std::to_string(kVertices) +
      ",\"shards\":" + std::to_string(kShards) +
      ",\"base_edges\":" + std::to_string(kBaseEdges) +
      ",\"base_step_live_edges\":" + std::to_string(base_live) +
      ",\"items_per_submission\":" + std::to_string(kItems) +
      ",\"clients\":{\"ingest\":" + std::to_string(kIngestClients) +
      ",\"probe\":" + std::to_string(kProbeClients) +
      ",\"erase_every\":" + std::to_string(kEraseEvery) + "}" +
      ",\"tier_builds\":" + std::to_string(setup_s.size()) +
      ",\"rounds\":" + std::to_string(kRounds) +
      ",\"closed_loop_steps\":" + std::to_string(kClosedSteps) +
      ",\"capacity_block_steps\":" + std::to_string(kBlockSteps) +
      ",\"read_block_submissions\":" + std::to_string(kReadBlockSubs) +
      ",\"cut_period_s\":" + json_number(kCutPeriodS) +
      ",\"query_tail_limit_ms\":" + json_number(kTailLimitMs) + "}";

  const auto& tot = ts.shard_totals;
  const double subs = static_cast<double>(tot.submitted_mutations + tot.submitted_queries +
                                          tot.submitted_analytics + tot.submitted_maintenance);
  res.layer["scheduler.switches_per_sub"] = {static_cast<double>(tot.phase_switches) / subs, "ratio"};
  res.layer["scheduler.coalesced_frac"] = {static_cast<double>(tot.coalesced_batches) / subs, "ratio"};
  res.layer["scheduler.fence_wait_s"] = {tot.fence_wait_seconds, "s"};
  res.layer["scheduler.max_queue_depth"] = {static_cast<double>(tot.max_queue_depth), "count"};
  res.layer["scheduler.refused"] = {
      static_cast<double>(tot.rejected_submissions + tot.shed_queries + tot.expired_queries), "count"};
  const auto [mn, mx] = std::minmax_element(rs.per_shard_items.begin(), rs.per_shard_items.end());
  res.layer["shard.submit_us"] = {median(submit_us), "us"};
  res.layer["shard.skew"] = {*mn ? static_cast<double>(*mx) / static_cast<double>(*mn) : 0.0, "ratio"};
  res.layer["shard.cut_wait_ms"] = {median(collector->cut_wait_ms), "ms"};
  res.layer["shard.fences_aborted"] = {static_cast<double>(ts.fences_aborted), "count"};
  res.layer["analytics.gather_s"] = {median(collector->gather_s), "s"};
  res.layer["analytics.cc_s"] = {median(collector->cc_s), "s"};
  res.layer["arena.bytes_reserved"] = {static_cast<double>(reserved), "B"};
  res.layer["arena.bytes_in_use"] = {static_cast<double>(in_use), "B"};
  res.layer["simt.cpu_per_wall"] = {cpu_per_wall, "ratio"};
  res.layer["gen.late_tail_ms"] = {q.late.value, "ms"};

  tier.reset();  // closes the capacity tier's journals before they are measured
  res.layer["persist.journal_bytes_per_edge"] = {
      static_cast<double>(journal_bytes(dir)) / static_cast<double>(traffic.submitted_edges), "B"};
  fs::remove_all(dir);
  return res;
}

}  // namespace perfbench
