#pragma once
// Resource aggregates and queries carried by the Rendezvous Node Tree.
//
// The RN-Tree passes "information describing the maximal amount of each
// resource available" up the tree (§3.1); a search is pruned by comparing a
// job's per-resource minima against a subtree's maxima.

#include <array>
#include <cstdint>

namespace pgrid::rntree {

inline constexpr std::size_t kMaxResources = 4;

/// Per-resource capability vector (grid layer decides the semantics of
/// each slot, e.g. CPU GHz / memory GB / disk GB).
using Caps = std::array<double, kMaxResources>;

/// Subtree summary, aggregated bottom-up. It holds only what search reads,
/// so it changes only when a capability or the membership does: a node
/// pushes it to its parent on change (DESIGN.md §4).
struct Aggregate {
  Caps max_caps{};          // per-resource maximum in the subtree
  std::uint32_t nodes = 0;  // live nodes summarized

  /// Fold another aggregate (or a leaf's self-aggregate) into this one.
  void merge(const Aggregate& other) noexcept {
    if (other.nodes == 0) return;
    if (nodes == 0) {
      *this = other;
      return;
    }
    for (std::size_t r = 0; r < kMaxResources; ++r) {
      if (other.max_caps[r] > max_caps[r]) max_caps[r] = other.max_caps[r];
    }
    nodes += other.nodes;
  }

  friend bool operator==(const Aggregate&, const Aggregate&) noexcept =
      default;
};

/// A job's resource constraints: per-resource minimum, or unconstrained.
struct Query {
  Caps min{};
  std::array<bool, kMaxResources> constrained{};

  [[nodiscard]] std::size_t constraint_count() const noexcept {
    std::size_t n = 0;
    for (bool c : constrained) n += c ? 1 : 0;
    return n;
  }

  /// Can a node with capabilities `caps` run this job?
  [[nodiscard]] bool satisfied_by(const Caps& caps) const noexcept {
    for (std::size_t r = 0; r < kMaxResources; ++r) {
      if (constrained[r] && caps[r] < min[r]) return false;
    }
    return true;
  }

  /// Could a subtree with the given maxima contain a satisfying node?
  /// (Necessary, not sufficient — the maxima may come from different nodes.)
  [[nodiscard]] bool possibly_satisfied_by(const Aggregate& agg) const noexcept {
    if (agg.nodes == 0) return false;
    return satisfied_by(agg.max_caps);
  }
};

}  // namespace pgrid::rntree
