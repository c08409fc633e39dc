// ingest — the paper's Table II insert rate and batched edgeExist in their
// cleanest form: one DynGraphMap, synchronous API, one caller.
//
// Each cycle bulk_builds a power-law base graph (the timed set-up), inserts
// a power-law stream in fixed 2^16-edge batches until the arena is larger
// than a 300 MiB L3, then runs a read sweep of edges_exist batches, half
// drawn from inserted edges and half uniform. Cycles repeat on the same
// inputs until the pass's time is up; rates are medians over cycles.
//
// Bypassed: shard, the phase scheduler, persist, stream, analytics.
#include <memory>
#include <span>
#include <vector>

#include "oracle.hpp"
#include "src/core/dyn_graph.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kScaleBits = 22;          // 4 Mi vertices
constexpr std::size_t kBaseEdges = std::size_t{1} << 23;
constexpr std::size_t kBatch = std::size_t{1} << 16;
constexpr std::size_t kStreamBatches = 128;        // base + 8 Mi: arena > 300 MiB
constexpr std::size_t kSweepBatches = 64;          // 4 Mi probes
constexpr std::uint64_t kL3TargetBytes = std::uint64_t{300} << 20;

struct Inputs {
  std::vector<sg::core::WeightedEdge> base;
  std::vector<sg::core::WeightedEdge> stream;
  std::vector<sg::core::Edge> probes;
  std::vector<std::uint8_t> expected;  ///< reference answer per probe
  std::uint64_t expected_edges = 0;     ///< reference final num_edges()
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  const RmatGen rmat{kScaleBits};
  auto fill = [&rmat](std::vector<sg::core::WeightedEdge>& out, std::size_t n,
                      std::uint64_t s) {
    Rng rng(s);
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t dst = 0;
      const std::uint32_t src = rmat(rng, &dst);
      out[i] = {src, dst, static_cast<std::uint32_t>(i)};
    }
  };
  fill(in.base, kBaseEdges, sub_seed(seed, 1));
  fill(in.stream, kStreamBatches * kBatch, sub_seed(seed, 2));

  SortedEdgeSet ref;
  for (const auto& e : in.base) ref.add(e.src, e.dst);
  for (const auto& e : in.stream) ref.add(e.src, e.dst);
  ref.seal();
  in.expected_edges = ref.size();

  Rng rng(sub_seed(seed, 3));
  in.probes.resize(kSweepBatches * kBatch);
  in.expected.resize(in.probes.size());
  for (std::size_t i = 0; i < in.probes.size(); ++i) {
    if (i % 2 == 0) {
      const auto& e = in.stream[rng.below(static_cast<std::uint32_t>(in.stream.size()))];
      in.probes[i] = {e.src, e.dst};
    } else {
      in.probes[i] = {rng.below(rmat.num_vertices()), rng.below(rmat.num_vertices())};
    }
    in.expected[i] = ref.contains(in.probes[i].src, in.probes[i].dst) ? 1 : 0;
  }
  return in;
}

/// Chain-walk counters of the graph's feedback histogram.
struct ChainCount {
  std::uint64_t runs = 0;
  std::uint64_t long_runs = 0;
};

ChainCount chain_count(const sg::core::DynGraphMap& g) {
  const auto& fb = g.chain_feedback();
  ChainCount c{fb.runs_observed, 0};
  for (const std::uint64_t h : fb.hist) c.long_runs += h;
  return c;
}

}  // namespace

Result run_ingest(const RunArgs& args, Tracer& tracer) {
  Result res;
  const Inputs in = make_inputs(args.seed);

  sg::core::GraphConfig cfg;
  cfg.vertex_capacity = 1u << kScaleBits;

  std::vector<double> setup_s, insert_rate, query_rate, bytes_per_edge,
      insert_ms, rehash_triggers, other_s, stage_s, apply_s, overlap_s,
      qstage_s, qsearch_s, long_frac, avg_chain, utilization, reserved, in_use,
      cpu_per_wall, arena_over_l3;
  std::vector<std::uint8_t> answers(in.probes.size());

  const std::int64_t pass_start = now_ns();
  for (std::uint64_t cycle = 1;
       cycle == 1 || seconds_between(pass_start, now_ns()) < args.seconds; ++cycle) {
    Span cycle_span(tracer, "bench.cycle", cycle);
    const double cpu0 = process_cpu_s();
    const std::int64_t wall0 = now_ns();

    std::int64_t t0 = now_ns();
    auto graph = std::make_unique<sg::core::DynGraphMap>(cfg);
    {
      Span s(tracer, "engine.bulk_build", cycle);
      graph->bulk_build(in.base);
    }
    setup_s.push_back(seconds_between(t0, now_ns()));

    double ins_wall = 0, ins_stage = 0, ins_apply = 0, ins_overlap = 0;
    const std::uint64_t triggers0 = graph->auto_rehash_triggers();
    for (std::size_t b = 0; b < kStreamBatches; ++b) {
      const std::span<const sg::core::WeightedEdge> batch(in.stream.data() + b * kBatch,
                                                          kBatch);
      t0 = now_ns();
      {
        Span s(tracer, "engine.insert_edges", cycle);
        graph->insert_edges(batch);
      }
      const double dt = seconds_between(t0, now_ns());
      ++res.attempted;
      const auto& st = graph->last_batch_stats();
      ins_wall += dt;
      ins_stage += st.stage_seconds;
      ins_apply += st.apply_seconds;
      ins_overlap += st.overlap_seconds;
      insert_ms.push_back(dt * 1e3);
    }
    insert_rate.push_back(static_cast<double>(in.stream.size()) / ins_wall * 1e-6);
    stage_s.push_back(ins_stage);
    apply_s.push_back(ins_apply);
    overlap_s.push_back(ins_stage > 0 ? ins_overlap / ins_stage : 0.0);
    other_s.push_back(ins_wall - (ins_stage + ins_apply - ins_overlap));
    rehash_triggers.push_back(
        static_cast<double>(graph->auto_rehash_triggers() - triggers0));

    const std::uint64_t live = graph->num_edges();
    if (live != in.expected_edges) {
      res.fail("ingest: num_edges " + std::to_string(live) + " != reference " +
               std::to_string(in.expected_edges));
    }
    const auto arena = graph->arena_stats();
    bytes_per_edge.push_back(static_cast<double>(arena.bytes_reserved()) /
                             static_cast<double>(live));
    reserved.push_back(static_cast<double>(arena.bytes_reserved()));
    in_use.push_back(static_cast<double>(arena.bytes_in_use()));
    arena_over_l3.push_back(static_cast<double>(arena.bytes_reserved()) /
                            static_cast<double>(kL3TargetBytes));

    const ChainCount c0 = chain_count(*graph);
    double q_wall = 0, q_stage = 0, q_search = 0;
    for (std::size_t b = 0; b < kSweepBatches; ++b) {
      const std::span<const sg::core::Edge> batch(in.probes.data() + b * kBatch, kBatch);
      t0 = now_ns();
      {
        Span s(tracer, "engine.edges_exist", cycle);
        graph->edges_exist(batch, answers.data() + b * kBatch);
      }
      q_wall += seconds_between(t0, now_ns());
      const auto qs = graph->last_query_stats();
      q_stage += qs.stage_seconds;
      q_search += qs.apply_seconds;
      ++res.attempted;
    }
    const ChainCount c1 = chain_count(*graph);
    query_rate.push_back(static_cast<double>(in.probes.size()) / q_wall * 1e-6);
    qstage_s.push_back(q_stage);
    qsearch_s.push_back(q_search);
    const std::uint64_t runs = c1.runs - c0.runs;
    long_frac.push_back(runs ? static_cast<double>(c1.long_runs - c0.long_runs) /
                                   static_cast<double>(runs)
                             : 0.0);
    cpu_per_wall.push_back((process_cpu_s() - cpu0) / seconds_between(wall0, now_ns()));

    for (std::size_t b = 0; b < kSweepBatches; ++b) {
      for (std::size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
        if (answers[i] != in.expected[i]) {
          res.fail("ingest: probe (" + std::to_string(in.probes[i].src) + "," +
                   std::to_string(in.probes[i].dst) + ") answered " +
                   std::to_string(answers[i]));
          break;  // one failed operation per wrong batch
        }
      }
    }
    if (tracer.enabled()) {  // a full table scan: traced passes only
      const auto mem = graph->memory_stats();
      avg_chain.push_back(mem.avg_chain_length());
      utilization.push_back(mem.utilization());
    }
  }

  const Tail ins_tail = tail_of(insert_ms);
  res.e2e["setup_s"] = {median(setup_s), "s"};
  res.e2e["rate_mitems"] = {median(insert_rate), "Mitem/s"};
  res.e2e["p50_ms"] = {median(insert_ms), "ms"};
  res.e2e["read_mitems"] = {median(query_rate), "Mitem/s"};
  res.e2e["bytes_per_edge"] = {median(bytes_per_edge), "B"};

  res.header["insert_medges"] = json_number(median(insert_rate));
  res.header["insert_p50_ms"] = json_number(median(insert_ms));
  res.header["insert_tail_ms"] = json_number(ins_tail.value);
  res.header["insert_tail_pct"] = json_number(ins_tail.percentile);
  res.header["insert_samples"] = std::to_string(ins_tail.samples);
  res.header["query_mops"] = json_number(median(query_rate));
  res.header["insert_medges_per_cycle"] = json_array(insert_rate);
  res.header["cycles"] = std::to_string(setup_s.size());
  res.header["arena_over_300mib"] = json_number(median(arena_over_l3));
  res.header["sizes"] =
      "{\"vertices\":" + std::to_string(1u << kScaleBits) +
      ",\"base_edges\":" + std::to_string(kBaseEdges) +
      ",\"batch\":" + std::to_string(kBatch) +
      ",\"stream_batches\":" + std::to_string(kStreamBatches) +
      ",\"sweep_probes\":" + std::to_string(kSweepBatches * kBatch) + "}";

  res.layer["engine.stage_s"] = {median(stage_s), "s"};
  res.layer["engine.apply_s"] = {median(apply_s), "s"};
  res.layer["engine.overlap_frac"] = {median(overlap_s), "ratio"};
  res.layer["engine.other_s"] = {median(other_s), "s"};
  res.layer["engine.query_stage_s"] = {median(qstage_s), "s"};
  res.layer["engine.query_search_s"] = {median(qsearch_s), "s"};
  res.layer["graph.rehash_triggers"] = {median(rehash_triggers), "count"};
  res.layer["slabhash.avg_chain"] = {median(avg_chain), "slabs"};
  res.layer["slabhash.utilization"] = {median(utilization), "ratio"};
  res.layer["slabhash.long_run_frac"] = {median(long_frac), "ratio"};
  res.layer["arena.bytes_reserved"] = {median(reserved), "B"};
  res.layer["arena.bytes_in_use"] = {median(in_use), "B"};
  res.layer["simt.cpu_per_wall"] = {median(cpu_per_wall), "ratio"};
  return res;
}

}  // namespace perfbench
