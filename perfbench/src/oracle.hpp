// Reference graphs the benchmark checks the library's answers against.
// They share no code with src/: standard containers and one flat hash
// table, after DynoGraph's reference_impl.
//
//   * insert: most recent arrival wins — a re-inserted edge takes the new
//     timestamp, even when it is smaller (the library's weight contract);
//   * age_out(threshold): retires every edge with ts STRICTLY below the
//     threshold (an edge at the threshold survives);
//   * delete_vertices: drops every edge from or to a deleted vertex; a
//     later insert brings the vertex back;
//   * self-loops are never stored.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.hpp"

namespace perfbench {

class RefGraph {
 public:
  void insert(std::uint32_t src, std::uint32_t dst, std::uint32_t ts) {
    if (src == dst) return;
    edges_[edge_key(src, dst)] = ts;
  }
  /// Returns the number of edges retired.
  std::uint64_t age_out(std::uint32_t threshold) {
    return std::erase_if(edges_,
                         [threshold](const auto& kv) { return kv.second < threshold; });
  }
  std::uint64_t delete_vertices(std::span<const std::uint32_t> ids) {
    const std::unordered_set<std::uint32_t> doomed(ids.begin(), ids.end());
    return std::erase_if(edges_, [&doomed](const auto& kv) {
      return doomed.count(static_cast<std::uint32_t>(kv.first >> 32)) != 0 ||
             doomed.count(static_cast<std::uint32_t>(kv.first)) != 0;
    });
  }
  bool contains(std::uint32_t src, std::uint32_t dst) const {
    return edges_.count(edge_key(src, dst)) != 0;
  }
  std::uint64_t size() const { return edges_.size(); }
  void reserve(std::size_t n) { edges_.reserve(n); }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> edges_;  ///< key -> ts
};

/// Edge -> 32-bit state, for the serve workload's per-edge record of the
/// last mutation submitted, over vertex ids below 2^16: open addressing
/// with linear probing on packed (src << 16 | dst) keys, so the generator
/// pays about one cache miss per edge and 8 bytes per slot instead of a
/// node allocation. Key 0 marks an empty slot; it is the self-loop (0, 0),
/// which is never stored.
class EdgeStateTable {
 public:
  static std::uint32_t key(std::uint32_t src, std::uint32_t dst) { return src << 16 | dst; }
  static std::uint32_t src_of(std::uint32_t key) { return key >> 16; }
  static std::uint32_t dst_of(std::uint32_t key) { return key & 0xFFFFu; }

  /// Sets the edge's state; returns true when the edge was new.
  bool put(std::uint32_t src, std::uint32_t dst, std::uint32_t state) {
    if ((size_ + 1) * 10 > keys_.size() * 7) grow();  // load <= 0.7
    const std::uint32_t k = key(src, dst);
    const std::size_t i = slot(k);
    const bool fresh = keys_[i] == 0;
    if (fresh) {
      keys_[i] = k;
      ++size_;
    }
    states_[i] = state;
    return fresh;
  }
  /// The edge's state, or nullptr when it was never put.
  const std::uint32_t* find(std::uint32_t src, std::uint32_t dst) const {
    if (keys_.empty()) return nullptr;
    const std::uint32_t k = key(src, dst);
    const std::size_t i = slot(k);
    return keys_[i] == k ? &states_[i] : nullptr;
  }
  std::size_t size() const { return size_; }
  void clear() {
    keys_.clear();
    states_.clear();
    size_ = 0;
  }

 private:
  std::size_t slot(std::uint32_t k) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = static_cast<std::size_t>((k * 0x9E3779B97F4A7C15ULL) >> 24) & mask;
    while (keys_[i] != 0 && keys_[i] != k) i = (i + 1) & mask;
    return i;
  }
  void grow() {
    std::vector<std::uint32_t> keys(std::max<std::size_t>(keys_.size() * 2, 1024), 0);
    std::vector<std::uint32_t> states(keys.size());
    keys.swap(keys_);
    states.swap(states_);
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (keys[j] != 0) {
        const std::size_t i = slot(keys[j]);
        keys_[i] = keys[j];
        states_[i] = states[j];
      }
    }
  }

  std::vector<std::uint32_t> keys_;
  std::vector<std::uint32_t> states_;
  std::size_t size_ = 0;
};

/// Membership-only reference for the ingest workload, whose edge set is
/// too large for a node-based hash set in this benchmark's memory budget:
/// the same answers from a sorted, deduplicated key vector.
class SortedEdgeSet {
 public:
  /// Adds keys; call seal() before querying.
  void add(std::uint32_t src, std::uint32_t dst) {
    if (src != dst) keys_.push_back(edge_key(src, dst));
  }
  void seal() {
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  }
  bool contains(std::uint32_t src, std::uint32_t dst) const {
    return std::binary_search(keys_.begin(), keys_.end(), edge_key(src, dst));
  }
  std::uint64_t size() const { return keys_.size(); }

 private:
  std::vector<std::uint64_t> keys_;
};

}  // namespace perfbench
