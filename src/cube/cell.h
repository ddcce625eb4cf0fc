// Cells and predicates of the data-cube model (paper §IV.A). A cuboid is a
// subset of the boolean dimensions; a cell fixes a value for each dimension
// of its cuboid (e.g. cell "type = sedan" of cuboid (type)). P-Cube
// materialises one signature per cell of every *atomic* cuboid (the
// one-dimensional cuboids), which §V.C / Fig. 15 shows is usually enough;
// composite cells can optionally be materialised too and are assembled
// online via signature intersection otherwise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/logging.h"
#include "cube/relation.h"

namespace pcube {

/// One equality predicate A_dim = value.
struct Predicate {
  int dim = 0;
  uint32_t value = 0;

  bool operator==(const Predicate&) const = default;
};

/// Conjunction of equality predicates on distinct boolean dimensions,
/// kept sorted by dimension.
class PredicateSet {
 public:
  PredicateSet() = default;
  PredicateSet(std::initializer_list<Predicate> preds) {
    for (const auto& p : preds) Add(p);
  }

  /// Adds a predicate; replaces any existing predicate on the same dimension.
  void Add(const Predicate& p) {
    for (auto& q : preds_) {
      if (q.dim == p.dim) {
        q.value = p.value;
        return;
      }
    }
    preds_.push_back(p);
    std::sort(preds_.begin(), preds_.end(),
              [](const Predicate& a, const Predicate& b) { return a.dim < b.dim; });
  }

  /// Removes the predicate on `dim` if present (roll-up).
  void Remove(int dim) {
    std::erase_if(preds_, [dim](const Predicate& p) { return p.dim == dim; });
  }

  bool empty() const { return preds_.empty(); }
  size_t size() const { return preds_.size(); }
  const std::vector<Predicate>& predicates() const { return preds_; }

  /// True when tuple `t` of `data` satisfies every predicate.
  bool Matches(const Dataset& data, TupleId t) const {
    for (const auto& p : preds_) {
      if (data.BoolValue(t, p.dim) != p.value) return false;
    }
    return true;
  }

  /// True when `other` extends this set (drill-down relationship).
  bool IsPrefixOf(const PredicateSet& other) const {
    for (const auto& p : preds_) {
      bool found = false;
      for (const auto& q : other.preds_) {
        if (q.dim == p.dim && q.value == p.value) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  bool operator==(const PredicateSet&) const = default;

  std::string ToString() const {
    std::string s = "{";
    for (size_t i = 0; i < preds_.size(); ++i) {
      if (i > 0) s += ", ";
      s += 'A';
      s += std::to_string(preds_[i].dim);
      s += '=';
      s += std::to_string(preds_[i].value);
    }
    s += '}';
    return s;
  }

 private:
  std::vector<Predicate> preds_;
};

/// Identifies a materialised cell in the signature store.
/// Atomic cells (single predicate) use a fixed encoding; composite cells get
/// ids from a registry (see cube/cuboid.h).
using CellId = uint64_t;

/// Cell id of the atomic cell A_dim = value.
inline CellId AtomicCellId(int dim, uint32_t value) {
  PCUBE_DCHECK_GE(dim, 0);
  return (static_cast<uint64_t>(dim + 1) << 32) | value;
}

}  // namespace pcube
