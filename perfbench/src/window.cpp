// window — the DynoGraph sliding-window regime: stream::Harness replays a
// timestamped power-law stream on one scheduled DynGraphMap. Each epoch
// inserts a batch, ages out edges older than a 0.25 window and compacts on
// the harness cadence; between epochs a seeded handful of vertices leave
// through delete_vertices (Alg. 2, the social_churn shape).
//
// Each cycle's set-up is a fresh harness filled with the first window of
// epochs; the measured epochs are the steady tail after it. Cycles repeat
// on the same inputs until the pass's time is up.
//
// Bypassed: shard, persist, queries, analytics.
#include <algorithm>
#include <span>
#include <vector>

#include "oracle.hpp"
#include "src/stream/harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kScaleBits = 19;   // 512 Ki vertices
constexpr std::size_t kBatch = std::size_t{1} << 14;
constexpr std::size_t kEpochs = 80;
constexpr double kWindowFrac = 0.25;
constexpr std::size_t kFillEpochs = 20;     // = kWindowFrac * kEpochs
constexpr std::size_t kLeaversPerEpoch = 8;

struct Inputs {
  std::vector<sg::stream::TemporalEdge> stream;
  std::vector<std::vector<std::uint32_t>> leavers;  ///< per epoch
  std::vector<std::uint32_t> threshold;             ///< reference, per epoch
  std::vector<std::uint64_t> live;                  ///< reference, per epoch
};

/// dynograph_util's getTimestampForWindow, restated: keep the newest
/// window_frac of the whole stream; nothing ages before the window fills.
std::uint32_t window_threshold(const std::vector<sg::stream::TemporalEdge>& s,
                               std::size_t epoch) {
  const std::size_t end = std::min((epoch + 1) * kBatch, s.size());
  const auto window = static_cast<std::size_t>(kWindowFrac * static_cast<double>(s.size()));
  return end <= window ? s.front().ts : s[end - window].ts;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const RmatGen rmat{kScaleBits};
  Rng rng(sub_seed(seed, 11));
  in.stream.resize(kEpochs * kBatch);
  for (std::size_t i = 0; i < in.stream.size(); ++i) {
    std::uint32_t dst = 0;
    const std::uint32_t src = rmat(rng, &dst);
    in.stream[i] = {src, dst, static_cast<std::uint32_t>(i)};
  }
  // Leavers: distinct sources of random edges of the epoch's own batch, so
  // they are live and drawn with the stream's power-law bias. Distinct on
  // purpose: delete_vertices given the same id twice races two warps
  // through one table's free path (a library defect, see README.md).
  Rng pick(sub_seed(seed, 12));
  in.leavers.resize(kEpochs);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    auto& out = in.leavers[e];
    while (out.size() < kLeaversPerEpoch) {
      const std::uint32_t v =
          in.stream[e * kBatch + pick.below(static_cast<std::uint32_t>(kBatch))].src;
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
  }
  RefGraph ref;
  ref.reserve(kBatch * (kFillEpochs + 2));
  for (std::size_t e = 0; e < kEpochs; ++e) {
    for (std::size_t i = e * kBatch; i < (e + 1) * kBatch; ++i) {
      ref.insert(in.stream[i].src, in.stream[i].dst, in.stream[i].ts);
    }
    in.threshold.push_back(window_threshold(in.stream, e));
    ref.age_out(in.threshold.back());
    ref.delete_vertices(in.leavers[e]);
    in.live.push_back(ref.size());
  }
  return in;
}

}  // namespace

Result run_window(const RunArgs& args, Tracer& tracer) {
  Result res;
  const Inputs in = make_inputs(args.seed);

  sg::stream::HarnessConfig hc;
  hc.window_frac = kWindowFrac;
  hc.graph.vertex_capacity = 1u << kScaleBits;

  std::vector<double> setup_s, stream_rate, scan_rate, epoch_ms, bytes_per_edge, age_s,
      age_yield, compact_s, migrated, released, vdel_s, flatness, reserved,
      in_use, switches, coalesced, fence_s, depth, refused, cpu_per_wall;

  const std::int64_t pass_start = now_ns();
  for (std::uint64_t cycle = 1;
       cycle == 1 || seconds_between(pass_start, now_ns()) < args.seconds; ++cycle) {
    Span cycle_span(tracer, "bench.cycle", cycle);
    // A fresh Dataset copy per cycle: the harness owns its stream.
    sg::stream::Dataset data(in.stream, kBatch);

    std::size_t epoch = 0;
    double c_age = 0, c_compact = 0, c_vdel = 0, c_aged = 0, c_scanned = 0,
           c_migrated = 0, c_released = 0, c_bpe = 0;
    std::uint64_t min_chunks = ~std::uint64_t{0}, max_chunks = 0;
    auto run_one = [&](sg::stream::Harness& h) {
      sg::stream::EpochStats st;
      {
        Span s(tracer, "stream.run_epoch", epoch);
        st = h.run_epoch(epoch);
      }
      std::int64_t t0 = now_ns();
      {
        Span s(tracer, "graph.delete_vertices", epoch);
        h.graph().delete_vertices(in.leavers[epoch]);
      }
      const double vdel = seconds_between(t0, now_ns());
      ++res.attempted;
      const std::uint64_t live = h.graph().num_edges();
      if (st.age_threshold != in.threshold[epoch] || live != in.live[epoch]) {
        res.fail("window: epoch " + std::to_string(epoch) + " live " +
                 std::to_string(live) + " (reference " +
                 std::to_string(in.live[epoch]) + "), threshold " +
                 std::to_string(st.age_threshold) + " (reference " +
                 std::to_string(in.threshold[epoch]) + ")");
      }
      if (epoch >= kFillEpochs) {
        c_age += st.age_seconds;
        c_compact += st.compact_seconds;
        c_vdel += vdel;
        c_aged += static_cast<double>(st.aged_out);
        c_scanned += static_cast<double>(st.aged_out + st.live_edges);
        c_released += static_cast<double>(st.released_chunks);
        if (st.compact_seconds > 0) {
          c_migrated += static_cast<double>(h.graph().last_compact_stats().migrated_slabs);
        }
        const auto arena = h.graph().arena_stats();
        c_bpe = std::max(c_bpe, static_cast<double>(arena.bytes_reserved()) /
                                    static_cast<double>(live));
        min_chunks = std::min(min_chunks, st.arena_chunks);
        max_chunks = std::max(max_chunks, st.arena_chunks);
      }
      ++epoch;
    };

    std::int64_t t0 = now_ns();
    sg::stream::Harness harness(std::move(data), hc);
    {
      Span s(tracer, "bench.fill", cycle);
      while (epoch < kFillEpochs) run_one(harness);
    }
    setup_s.push_back(seconds_between(t0, now_ns()));

    const double cpu0 = process_cpu_s();
    const std::int64_t steady0 = now_ns();
    while (epoch < kEpochs) {
      t0 = now_ns();
      run_one(harness);
      epoch_ms.push_back(seconds_between(t0, now_ns()) * 1e3);
    }
    const double steady_s = seconds_between(steady0, now_ns());
    stream_rate.push_back(static_cast<double>((kEpochs - kFillEpochs) * kBatch) /
                          steady_s * 1e-6);
    cpu_per_wall.push_back((process_cpu_s() - cpu0) / steady_s);
    bytes_per_edge.push_back(c_bpe);
    age_s.push_back(c_age);
    age_yield.push_back(c_aged / c_scanned);
    scan_rate.push_back(c_scanned / c_age * 1e-6);
    compact_s.push_back(c_compact);
    migrated.push_back(c_migrated);
    released.push_back(c_released);
    vdel_s.push_back(c_vdel);
    flatness.push_back(static_cast<double>(min_chunks) / static_cast<double>(max_chunks));
    const auto arena = harness.graph().arena_stats();
    reserved.push_back(static_cast<double>(arena.bytes_reserved()));
    in_use.push_back(static_cast<double>(arena.bytes_in_use()));
    const auto sched = harness.graph().last_schedule_stats();
    const double subs = static_cast<double>(
        sched.submitted_mutations + sched.submitted_queries +
        sched.submitted_analytics + sched.submitted_maintenance);
    switches.push_back(static_cast<double>(sched.phase_switches) / subs);
    coalesced.push_back(static_cast<double>(sched.coalesced_batches) / subs);
    fence_s.push_back(sched.fence_wait_seconds);
    depth.push_back(static_cast<double>(sched.max_queue_depth));
    refused.push_back(static_cast<double>(sched.rejected_submissions +
                                          sched.shed_queries + sched.expired_queries));
  }

  const Tail tail = tail_of(epoch_ms);
  res.e2e["setup_s"] = {median(setup_s), "s"};
  res.e2e["rate_mitems"] = {median(stream_rate), "Mitem/s"};
  res.e2e["p50_ms"] = {median(epoch_ms), "ms"};
  res.e2e["read_mitems"] = {median(scan_rate), "Mitem/s"};
  res.e2e["bytes_per_edge"] = {median(bytes_per_edge), "B"};

  res.header["stream_medges"] = json_number(median(stream_rate));
  res.header["age_scan_medges"] = json_number(median(scan_rate));
  res.header["epoch_p50_ms"] = json_number(median(epoch_ms));
  res.header["epoch_tail_ms"] = json_number(tail.value);
  res.header["epoch_tail_pct"] = json_number(tail.percentile);
  res.header["epoch_samples"] = std::to_string(tail.samples);
  res.header["cycles"] = std::to_string(setup_s.size());
  res.header["sizes"] =
      "{\"vertices\":" + std::to_string(1u << kScaleBits) +
      ",\"batch\":" + std::to_string(kBatch) + ",\"epochs\":" + std::to_string(kEpochs) +
      ",\"fill_epochs\":" + std::to_string(kFillEpochs) +
      ",\"window_frac\":" + json_number(kWindowFrac) +
      ",\"compact_every\":" + std::to_string(hc.compact_every) +
      ",\"leavers_per_epoch\":" + std::to_string(kLeaversPerEpoch) + "}";

  res.layer["graph.age_s"] = {median(age_s), "s"};
  res.layer["graph.age_yield"] = {median(age_yield), "ratio"};
  res.layer["graph.compact_s"] = {median(compact_s), "s"};
  res.layer["graph.migrated_slabs"] = {median(migrated), "count"};
  res.layer["graph.released_chunks"] = {median(released), "count"};
  res.layer["graph.vertex_delete_s"] = {median(vdel_s), "s"};
  res.layer["arena.bytes_reserved"] = {median(reserved), "B"};
  res.layer["arena.bytes_in_use"] = {median(in_use), "B"};
  res.layer["arena.chunk_flatness"] = {median(flatness), "ratio"};
  res.layer["scheduler.switches_per_sub"] = {median(switches), "ratio"};
  res.layer["scheduler.coalesced_frac"] = {median(coalesced), "ratio"};
  res.layer["scheduler.fence_wait_s"] = {median(fence_s), "s"};
  res.layer["scheduler.max_queue_depth"] = {median(depth), "count"};
  res.layer["scheduler.refused"] = {median(refused), "count"};
  res.layer["simt.cpu_per_wall"] = {median(cpu_per_wall), "ratio"};
  return res;
}

}  // namespace perfbench
