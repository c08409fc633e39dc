#include "src/memory/slab_arena.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/util/fault_injection.hpp"
#include "src/util/prng.hpp"

namespace sg::memory {

namespace {
constexpr std::uint32_t kOffsetBits = 13;
constexpr std::uint32_t kOffsetMask = SlabArena::kChunkSlabs - 1;
constexpr std::uint32_t kBitmapWords = SlabArena::kChunkSlabs / 64;

/// Per-thread index used to pick a free-slab cache slot; assigned once per
/// thread, process-wide, so a thread maps to the same slot in every arena.
std::atomic<unsigned> g_thread_counter{0};

unsigned thread_cache_index() noexcept {
  thread_local const unsigned index =
      g_thread_counter.fetch_add(1, std::memory_order_relaxed);
  return index % SlabArena::kNumFreeCaches;
}
}  // namespace

struct SlabArena::Chunk {
  std::unique_ptr<Slab[]> slabs;
  bool dynamic = false;
  // Occupancy bitmap + free counter; only used by dynamic chunks.
  std::unique_ptr<std::atomic<std::uint64_t>[]> bitmap;
  std::atomic<std::uint32_t> free_count{0};
  /// Bitmap word where the last cold allocation found a free bit. Cold
  /// scans resume here instead of rescanning from a seed-derived start:
  /// once the low words fill up, later allocations skip them instead of
  /// re-walking a prefix of all-ones words every time. Racy-relaxed by
  /// design — a stale hint only costs extra scanning, never correctness
  /// (the scan still wraps the whole bitmap).
  std::atomic<std::uint32_t> scan_hint{0};
  /// Bulk chunks only: slabs handed out by allocate_contiguous and not yet
  /// returned through free_contiguous. 0 on a non-current bulk chunk means
  /// the whole chunk is reclaimable (release_empty_chunks).
  std::atomic<std::uint32_t> bulk_used{0};

  explicit Chunk(bool is_dynamic)
      : slabs(new Slab[SlabArena::kChunkSlabs]), dynamic(is_dynamic) {
    if (dynamic) {
      bitmap.reset(new std::atomic<std::uint64_t>[kBitmapWords]);
      for (std::uint32_t w = 0; w < kBitmapWords; ++w) {
        bitmap[w].store(0, std::memory_order_relaxed);
      }
      free_count.store(SlabArena::kChunkSlabs, std::memory_order_relaxed);
    }
  }
};

SlabArena::SlabArena()
    : chunks_(new std::atomic<Chunk*>[kMaxChunks]),
      free_caches_(new FreeCache[kNumFreeCaches]) {
  for (std::uint32_t i = 0; i < kMaxChunks; ++i) {
    chunks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

bool SlabArena::cache_push(SlabHandle handle) {
  FreeCache& cache = free_caches_[thread_cache_index()];
  if (!cache.try_lock()) return false;
  // Same-thread double free of a cached handle: the bitmap bit is still
  // set, so only this scan can catch it before the slab is handed out
  // twice. 32 slots — cheap enough to keep on in release builds.
  if (checks_) {
    for (std::uint32_t i = 0; i < cache.count; ++i) {
      if (cache.slots[i] == handle) {
        cache.unlock();
        throw ArenaFault("SlabArena::free: double free (handle in cache)");
      }
    }
  }
  const bool pushed = cache.count < kFreeCacheSlots;
  if (pushed) cache.slots[cache.count++] = handle;
  cache.unlock();
  return pushed;
}

SlabHandle SlabArena::cache_pop() noexcept {
  FreeCache& cache = free_caches_[thread_cache_index()];
  if (!cache.try_lock()) return kNullSlab;
  const SlabHandle handle =
      cache.count > 0 ? cache.slots[--cache.count] : kNullSlab;
  cache.unlock();
  return handle;
}

SlabArena::~SlabArena() {
  const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    delete chunks_[i].load(std::memory_order_relaxed);
  }
}

SlabArena::Chunk* SlabArena::chunk_at(std::uint32_t index) const {
  return chunks_[index].load(std::memory_order_acquire);
}

void SlabArena::set_chunk_limit(std::uint32_t max_chunks) noexcept {
  chunk_limit_.store(std::clamp(max_chunks, 1u, kMaxChunks),
                     std::memory_order_relaxed);
}

std::uint32_t SlabArena::add_chunk(bool dynamic) {
  const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
  // Slots vacated by release_empty_chunks are recycled before the index
  // space grows, and the chunk limit caps LIVE chunks (memory), not the
  // high-water index — churn through compaction never shrinks the budget.
  std::uint32_t index = n;
  std::uint32_t live = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (chunk_at(i) == nullptr) {
      if (index == n) index = i;
    } else {
      ++live;
    }
  }
  if (live >= chunk_limit_.load(std::memory_order_relaxed) ||
      index >= kMaxChunks) {
    throw ArenaExhausted("SlabArena: chunk limit reached (" +
                         std::to_string(live) + " chunks of " +
                         std::to_string(kChunkSlabs) + " slabs)");
  }
  auto* chunk = new Chunk(dynamic);
  chunks_[index].store(chunk, std::memory_order_release);
  if (index == n) num_chunks_.store(n + 1, std::memory_order_release);
  return index;
}

SlabHandle SlabArena::allocate_contiguous(std::uint32_t count,
                                          std::uint32_t fill_word) {
  if (count == 0 || count > kChunkSlabs) {
    throw std::invalid_argument("allocate_contiguous: bad slab count");
  }
  if (SG_FAULT_FIRE(kArenaContiguous)) {
    throw ArenaExhausted("SlabArena: injected contiguous-allocation fault");
  }
  SlabHandle first;
  Chunk* chunk;
  {
    std::lock_guard<std::mutex> lock(bulk_mutex_);
    // Best-fit reuse of a returned range before the bump cursor grows:
    // rebuild churn (rehash swapping bucket arrays) cycles through here
    // instead of leaking one abandoned range per rebuild. The size index
    // yields the smallest range that fits, lowest address on a tie.
    const auto best = bulk_free_by_size_.lower_bound({count, SlabHandle{0}});
    if (best != bulk_free_by_size_.end()) {
      const auto [slabs, start] = *best;
      first = start;
      erase_free_range(bulk_free_.find(start));
      if (slabs > count) add_free_range(first + count, slabs - count);
      chunk = chunk_at(first >> kOffsetBits);
    } else {
      if (bulk_cursor_ + count > kChunkSlabs) {
        std::lock_guard<std::mutex> grow(grow_mutex_);
        bulk_chunk_ = add_chunk(/*dynamic=*/false);
        bulk_cursor_ = 0;
      }
      first = (bulk_chunk_ << kOffsetBits) | bulk_cursor_;
      bulk_cursor_ += count;
      chunk = chunk_at(bulk_chunk_);
    }
    chunk->bulk_used.fetch_add(count, std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    Slab& slab = chunk->slabs[(first & kOffsetMask) + i];
    for (int w = 0; w < kWordsPerSlab; ++w) slab.words[w] = fill_word;
  }
  bulk_slabs_.fetch_add(count, std::memory_order_relaxed);
  return first;
}

void SlabArena::free_contiguous(SlabHandle first, std::uint32_t count) {
  if (count == 0 || count > kChunkSlabs) {
    throw std::invalid_argument("free_contiguous: bad slab count");
  }
  const std::uint32_t ci = first >> kOffsetBits;
  const std::uint32_t slot = first & kOffsetMask;
  Chunk* chunk = ci < num_chunks_.load(std::memory_order_acquire)
                     ? chunk_at(ci)
                     : nullptr;
  assert(chunk != nullptr && !chunk->dynamic && slot + count <= kChunkSlabs &&
         "free_contiguous: not a bulk range");
  if (chunk == nullptr || chunk->dynamic || slot + count > kChunkSlabs) {
    if (checks_) {
      throw ArenaFault("SlabArena::free_contiguous: handle " +
                       std::to_string(first) +
                       " does not address a bulk slab range");
    }
    return;
  }
  std::lock_guard<std::mutex> lock(bulk_mutex_);
  // Overlap with an already-free range is the bulk analog of a double
  // free: reject before the same slabs can be handed out twice.
  auto next = bulk_free_.lower_bound(first);
  if (next != bulk_free_.end() && next->first < first + count) {
    if (checks_) {
      throw ArenaFault("SlabArena::free_contiguous: double free of range at " +
                       std::to_string(first));
    }
    return;
  }
  auto prev = next;
  if (prev != bulk_free_.begin() && (--prev)->first + prev->second > first) {
    if (checks_) {
      throw ArenaFault("SlabArena::free_contiguous: double free of range at " +
                       std::to_string(first));
    }
    return;
  }
  // Coalesce with adjacent free ranges — same chunk only: the last handle
  // of chunk c and the first of chunk c+1 are numerically adjacent but not
  // contiguous memory.
  SlabHandle lo = first;
  std::uint32_t merged = count;
  if (prev != next && (prev->first >> kOffsetBits) == ci &&
      prev->first + prev->second == first) {
    lo = prev->first;
    merged += prev->second;
    erase_free_range(prev);
  }
  if (next != bulk_free_.end() && (next->first >> kOffsetBits) == ci &&
      lo + merged == next->first) {
    merged += next->second;
    erase_free_range(next);
  }
  add_free_range(lo, merged);
  chunk->bulk_used.fetch_sub(count, std::memory_order_relaxed);
  bulk_slabs_.fetch_sub(count, std::memory_order_relaxed);
}

void SlabArena::add_free_range(SlabHandle first, std::uint32_t count) {
  bulk_free_.emplace(first, count);
  bulk_free_by_size_.emplace(count, first);
}

SlabArena::FreeRanges::iterator SlabArena::erase_free_range(
    FreeRanges::iterator it) {
  bulk_free_by_size_.erase({it->second, it->first});
  return bulk_free_.erase(it);
}

SlabHandle SlabArena::allocate(std::uint32_t fill_word, std::uint32_t seed) {
  const SlabHandle handle = try_allocate(fill_word, seed);
  if (handle == kNullSlab) {
    throw ArenaExhausted("SlabArena: dynamic slab allocation failed (" +
                         std::to_string(num_chunks_.load(
                             std::memory_order_relaxed)) +
                         " chunks, limit " +
                         std::to_string(chunk_limit_.load(
                             std::memory_order_relaxed)) +
                         ")");
  }
  return handle;
}

SlabHandle SlabArena::claim_in_chunk(Chunk* chunk, std::uint32_t chunk_index,
                                     std::uint32_t fill_word) {
  // Scan bitmap words from the chunk's hint cursor: resume where the
  // last cold allocation left off rather than rescanning the (likely
  // full) words before it.
  const std::uint32_t w0 =
      chunk->scan_hint.load(std::memory_order_relaxed) % kBitmapWords;
  for (std::uint32_t dw = 0; dw < kBitmapWords; ++dw) {
    const std::uint32_t w = (w0 + dw) % kBitmapWords;
    std::uint64_t bits = chunk->bitmap[w].load(std::memory_order_relaxed);
    while (bits != ~std::uint64_t{0}) {
      const int bit = std::countr_one(bits);
      const std::uint64_t mask = std::uint64_t{1} << bit;
      const std::uint64_t prev =
          chunk->bitmap[w].fetch_or(mask, std::memory_order_acq_rel);
      if ((prev & mask) == 0) {
        chunk->free_count.fetch_sub(1, std::memory_order_relaxed);
        chunk->scan_hint.store(w, std::memory_order_relaxed);
        const std::uint32_t slot = w * 64 + static_cast<std::uint32_t>(bit);
        Slab& slab = chunk->slabs[slot];
        for (int word = 0; word < kWordsPerSlab; ++word) {
          slab.words[word] = fill_word;
        }
        dynamic_slabs_.fetch_add(1, std::memory_order_relaxed);
        return (chunk_index << kOffsetBits) | slot;
      }
      bits = prev | mask;
    }
  }
  return kNullSlab;
}

SlabHandle SlabArena::try_allocate(std::uint32_t fill_word,
                                   std::uint32_t seed) {
  if (SG_FAULT_FIRE(kArenaAllocate)) return kNullSlab;
  // Fast path: a slab this thread recently freed. Its bitmap bit is still
  // set, so no other thread can hand it out; no shared state is touched.
  const SlabHandle cached = cache_pop();
  if (cached != kNullSlab) {
    Slab& slab = resolve(cached);
    for (int word = 0; word < kWordsPerSlab; ++word) slab.words[word] = fill_word;
    dynamic_slabs_.fetch_add(1, std::memory_order_relaxed);
    return cached;
  }
  for (int attempt = 0;; ++attempt) {
    const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
    // Visit dynamic chunks starting from a seed-dependent position, the
    // moral equivalent of SlabAlloc hashing resident warps to super blocks.
    for (std::uint32_t probe = 0; probe < n; ++probe) {
      const std::uint32_t ci =
          static_cast<std::uint32_t>((util::mix64(seed) + probe) % n);
      Chunk* chunk = chunk_at(ci);
      if (chunk == nullptr || !chunk->dynamic) continue;
      if (chunk->free_count.load(std::memory_order_relaxed) == 0) continue;
      const SlabHandle handle = claim_in_chunk(chunk, ci, fill_word);
      if (handle != kNullSlab) return handle;
    }
    // No dynamic chunk had space: grow. Only one grower at a time; others
    // retry and find the fresh chunk. Slabs parked in other threads' free
    // caches are invisible here (their bitmap bits stay set), so growth
    // can over-provision by at most kNumFreeCaches * kFreeCacheSlots slabs
    // (2048 slabs = 256 KiB) — the price of the lock-free fast path.
    {
      std::lock_guard<std::mutex> grow(grow_mutex_);
      bool has_space = false;
      std::uint32_t live = 0;
      const std::uint32_t m = num_chunks_.load(std::memory_order_acquire);
      for (std::uint32_t i = 0; i < m; ++i) {
        Chunk* chunk = chunk_at(i);
        if (chunk == nullptr) continue;
        ++live;
        if (chunk->dynamic &&
            chunk->free_count.load(std::memory_order_relaxed) > 0) {
          has_space = true;
        }
      }
      if (!has_space) {
        // Exhaustion is a status here, not an exception: the chunk limit is
        // reached and every dynamic chunk is full (slabs parked in other
        // threads' free caches stay invisible — their bitmap bits are set).
        if (live >= chunk_limit_.load(std::memory_order_relaxed)) {
          return kNullSlab;
        }
        add_chunk(/*dynamic=*/true);
      }
    }
  }
}

SlabHandle SlabArena::allocate_avoiding(
    std::uint32_t fill_word, const std::vector<std::uint8_t>& excluded) {
  for (;;) {
    const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
    for (std::uint32_t ci = 0; ci < n; ++ci) {
      if (ci < excluded.size() && excluded[ci] != 0) continue;
      Chunk* chunk = chunk_at(ci);
      if (chunk == nullptr || !chunk->dynamic) continue;
      if (chunk->free_count.load(std::memory_order_relaxed) == 0) continue;
      const SlabHandle handle = claim_in_chunk(chunk, ci, fill_word);
      if (handle != kNullSlab) return handle;
    }
    // Every non-excluded dynamic chunk is full: grow (add_chunk throws
    // ArenaExhausted at the chunk limit). A fresh chunk may recycle an
    // index vacated by release_empty_chunks — never one in `excluded`,
    // which only ever flags chunks that still hold slabs to migrate.
    std::lock_guard<std::mutex> grow(grow_mutex_);
    bool has_space = false;
    const std::uint32_t m = num_chunks_.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < m; ++i) {
      if (i < excluded.size() && excluded[i] != 0) continue;
      Chunk* chunk = chunk_at(i);
      if (chunk && chunk->dynamic &&
          chunk->free_count.load(std::memory_order_relaxed) > 0) {
        has_space = true;
        break;
      }
    }
    if (!has_space) add_chunk(/*dynamic=*/true);
  }
}

void SlabArena::free(SlabHandle handle) { free_impl(handle, /*use_cache=*/true); }

void SlabArena::free_direct(SlabHandle handle) {
  free_impl(handle, /*use_cache=*/false);
}

void SlabArena::free_impl(SlabHandle handle, bool use_cache) {
  const std::uint32_t ci = handle >> kOffsetBits;
  const std::uint32_t slot = handle & kOffsetMask;
  Chunk* chunk = chunk_at(ci);
  assert(chunk != nullptr && chunk->dynamic && "free of a non-dynamic slab");
  if (chunk == nullptr || !chunk->dynamic) {
    // UB in waiting (a bulk slab "freed" here would be handed out again by
    // the bump allocator while a chain still points at it): raise a typed
    // error in release builds too while checks are on.
    if (checks_) {
      throw ArenaFault("SlabArena::free: handle " + std::to_string(handle) +
                       " does not address a dynamic slab");
    }
    return;
  }
  const std::uint64_t mask = std::uint64_t{1} << (slot % 64);
  // A clear bitmap bit means the slab is already free (double free of a
  // bitmap-freed handle): reject it before it can enter a cache and be
  // handed out twice. Cached double frees are caught by the scan in
  // cache_push (same thread) but not across threads.
  const std::uint64_t live =
      chunk->bitmap[slot / 64].load(std::memory_order_acquire);
  assert((live & mask) != 0 && "double free");
  if ((live & mask) == 0) {
    if (checks_) {
      throw ArenaFault("SlabArena::free: double free of handle " +
                       std::to_string(handle));
    }
    return;
  }
  // Fast path: park the handle in this thread's cache (bitmap bit stays
  // set, so the slab stays invisible to other allocators). Spill to the
  // shared bitmap when the cache is full or contended.
  if (use_cache && cache_push(handle)) {
    dynamic_slabs_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t prev =
      chunk->bitmap[slot / 64].fetch_and(~mask, std::memory_order_acq_rel);
  assert((prev & mask) != 0 && "double free");
  if (prev & mask) {
    chunk->free_count.fetch_add(1, std::memory_order_relaxed);
    dynamic_slabs_.fetch_sub(1, std::memory_order_relaxed);
    // Point the cold-scan cursor at the word that just gained a free bit so
    // the next allocation finds it without walking the filled prefix.
    chunk->scan_hint.store(slot / 64, std::memory_order_relaxed);
  } else if (checks_) {
    // Lost a race against another free of the same handle: the fetch_and is
    // the authoritative arbiter, so this caller is the duplicate.
    throw ArenaFault("SlabArena::free: concurrent double free of handle " +
                     std::to_string(handle));
  }
}

Slab& SlabArena::resolve(SlabHandle handle) const {
  Chunk* chunk = chunk_at(handle >> kOffsetBits);
  return chunk->slabs[handle & kOffsetMask];
}

bool SlabArena::is_dynamic(SlabHandle handle) const {
  Chunk* chunk = chunk_at(handle >> kOffsetBits);
  return chunk != nullptr && chunk->dynamic;
}

ArenaStats SlabArena::stats() const {
  ArenaStats s;
  s.bulk_slabs = bulk_slabs_.load(std::memory_order_relaxed);
  s.dynamic_slabs = dynamic_slabs_.load(std::memory_order_relaxed);
  s.reserved_slabs = static_cast<std::uint64_t>(live_chunks()) * kChunkSlabs;
  return s;
}

std::uint32_t SlabArena::live_chunks() const {
  const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
  std::uint32_t live = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (chunk_at(i) != nullptr) ++live;
  }
  return live;
}

void SlabArena::drain_free_caches() {
  for (std::uint32_t c = 0; c < kNumFreeCaches; ++c) {
    FreeCache& cache = free_caches_[c];
    // Quiescent contract: no allocator holds the lock for long; spin.
    while (!cache.try_lock()) {
    }
    for (std::uint32_t i = 0; i < cache.count; ++i) {
      const SlabHandle handle = cache.slots[i];
      Chunk* chunk = chunk_at(handle >> kOffsetBits);
      const std::uint32_t slot = handle & kOffsetMask;
      const std::uint64_t mask = std::uint64_t{1} << (slot % 64);
      chunk->bitmap[slot / 64].fetch_and(~mask, std::memory_order_acq_rel);
      chunk->free_count.fetch_add(1, std::memory_order_relaxed);
      chunk->scan_hint.store(slot / 64, std::memory_order_relaxed);
      // dynamic_slabs_ was already decremented when the handle entered the
      // cache — only the bitmap accounting moves here.
    }
    cache.count = 0;
    cache.unlock();
  }
}

std::uint32_t SlabArena::release_empty_chunks(std::uint32_t keep_free) {
  drain_free_caches();
  // Lock order: bulk before grow, matching allocate_contiguous.
  std::lock_guard<std::mutex> bulk(bulk_mutex_);
  std::lock_guard<std::mutex> grow(grow_mutex_);
  const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
  std::uint32_t kept = 0;
  std::uint32_t released = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    Chunk* chunk = chunk_at(i);
    if (chunk == nullptr) continue;
    if (chunk->dynamic) {
      if (chunk->free_count.load(std::memory_order_relaxed) != kChunkSlabs) {
        continue;
      }
      if (kept < keep_free) {
        ++kept;
        continue;
      }
    } else {
      // A bulk chunk releases when every slab it ever handed out came back
      // through free_contiguous; the current bump chunk stays (its tail is
      // the cheapest allocation there is). keep_free is a *dynamic*-chunk
      // reserve — bulk reuse goes through bulk_free_, not emptied chunks.
      if (i == bulk_chunk_ ||
          chunk->bulk_used.load(std::memory_order_relaxed) != 0) {
        continue;
      }
      // Purge the dying chunk's free-list ranges: their handles go invalid.
      const SlabHandle begin = i << kOffsetBits;
      for (auto it = bulk_free_.lower_bound(begin);
           it != bulk_free_.end() && it->first < begin + kChunkSlabs;) {
        it = erase_free_range(it);
      }
    }
    // The slot goes back to nullptr (add_chunk recycles it); num_chunks_
    // stays at its high-water mark so handle resolution never shrinks.
    chunks_[i].store(nullptr, std::memory_order_release);
    delete chunk;
    ++released;
  }
  return released;
}

std::vector<SlabArena::ChunkOccupancy> SlabArena::dynamic_chunk_occupancy()
    const {
  std::vector<ChunkOccupancy> out;
  const std::uint32_t n = num_chunks_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    Chunk* chunk = chunk_at(i);
    if (chunk == nullptr || !chunk->dynamic) continue;
    const std::uint32_t free_slabs =
        chunk->free_count.load(std::memory_order_relaxed);
    out.push_back({i, kChunkSlabs - free_slabs});
  }
  return out;
}

}  // namespace sg::memory
