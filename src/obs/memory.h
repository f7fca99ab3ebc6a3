#pragma once
// Per-subsystem memory accounting (DESIGN.md §14, ROADMAP item 1).
//
// Rather than instrumenting every allocation, each pooled or table-backed
// component exposes a memory_bytes() capacity snapshot (event-pool slabs,
// message-pool caches, routing/neighbor tables, RPC pending slabs, trace
// ring, metrics state). GridSystem::memory_breakdown() folds those into a
// MemoryAccountant — one counter per subsystem class — surfaced in
// RunProfile, sampler rows (mem/<class>), and every BENCH_*.json row. The
// walk is O(nodes) and runs only at sample/summary points, so the hot path
// pays nothing.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace pgrid::obs {

enum class MemClass : std::uint8_t {
  kSimEvents,     // simulator slab, heap, timer lanes
  kMessagePool,   // thread-local datagram slabs (cached blocks)
  kOverlayTables, // Chord fingers/successors, CAN zones/neighbors, RN-Tree
  kGridState,     // job queues, owned-job tables, client pending maps
  kRpcPending,    // RPC pending-call slabs and backoff sets
  kTraceRing,     // trace bus ring + actor names
  kMetrics,       // collector, sampler rows, registry gauges
  kCount_,        // sentinel
};

[[nodiscard]] const char* mem_class_name(MemClass c) noexcept;

class MemoryAccountant {
 public:
  static constexpr std::size_t kClasses =
      static_cast<std::size_t>(MemClass::kCount_);

  void add(MemClass c, std::uint64_t bytes) noexcept {
    bytes_[static_cast<std::size_t>(c)] += bytes;
  }
  void clear() noexcept { bytes_.fill(0); }

  [[nodiscard]] std::uint64_t of(MemClass c) const noexcept {
    return bytes_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (std::uint64_t b : bytes_) t += b;
    return t;
  }

  /// Element-wise maximum — RunProfile keeps the peak across snapshots.
  void merge_peak(const MemoryAccountant& other) noexcept {
    for (std::size_t i = 0; i < kClasses; ++i) {
      if (other.bytes_[i] > bytes_[i]) bytes_[i] = other.bytes_[i];
    }
  }

  /// e.g. "mem 12.4 MB (sim_events 3.1 MB, overlay_tables 5.0 MB, ...)".
  [[nodiscard]] std::string summary() const;

 private:
  std::array<std::uint64_t, kClasses> bytes_{};
};

}  // namespace pgrid::obs
