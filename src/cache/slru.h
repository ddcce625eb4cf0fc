// Segmented-LRU replacement — the LRU/LFU hybrid used by the result
// cache. New entries enter a probationary segment; a hit promotes into a
// protected segment capped at a fraction of the budget, whose overflow
// demotes back to probation. One-shot fills therefore wash through
// probation without displacing the recurring working set, which is the
// frequency signal plain LRU lacks, at LRU cost (O(1) per operation, no
// decay sweeps).
//
// A shard is NOT thread-safe: the owning cache wraps each shard in its own
// mutex, which keeps the critical sections short and lets independent keys
// proceed in parallel.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace pcube {

template <typename K, typename V, typename Hash = std::hash<K>>
class SlruShard {
 public:
  /// `capacity_bytes` is the shard's total budget across both segments.
  explicit SlruShard(size_t capacity_bytes = 0) { set_capacity(capacity_bytes); }

  /// Sets the budget (entries are only evicted on the next Insert).
  void set_capacity(size_t capacity_bytes) {
    capacity_ = capacity_bytes;
    protected_cap_ = capacity_bytes * 4 / 5;
  }

  /// Returns the value (copy — values are cheap handles, typically
  /// shared_ptr) and promotes the entry, or nullptr-equivalent via `found`.
  bool Lookup(const K& key, V* out) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Node node = it->second;
    if (node->second.prot) {
      protected_.splice(protected_.begin(), protected_, node);
    } else {
      node->second.prot = true;
      protected_bytes_ += node->second.charge;
      protected_.splice(protected_.begin(), probation_, node);
      ShrinkProtected();
    }
    *out = node->second.value;
    return true;
  }

  /// Inserts or replaces. Returns the number of entries evicted to make
  /// room. Entries larger than the whole budget are rejected (returns 0,
  /// nothing cached) rather than cycling the cache.
  size_t Insert(const K& key, V value, size_t charge) {
    if (charge > capacity_) {
      Erase(key);
      return 0;
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      Node node = it->second;
      bytes_ -= node->second.charge;
      if (node->second.prot) protected_bytes_ -= node->second.charge;
      node->second.value = std::move(value);
      node->second.charge = charge;
      bytes_ += charge;
      if (node->second.prot) {
        protected_bytes_ += charge;
        protected_.splice(protected_.begin(), protected_, node);
        ShrinkProtected();
      } else {
        probation_.splice(probation_.begin(), probation_, node);
      }
      return EvictOverflow();
    }
    probation_.emplace_front(key, Entry{std::move(value), charge, false});
    index_.emplace(key, probation_.begin());
    bytes_ += charge;
    return EvictOverflow();
  }

  /// Removes `key` if present; returns true when an entry was dropped.
  bool Erase(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    Node node = it->second;
    bytes_ -= node->second.charge;
    if (node->second.prot) {
      protected_bytes_ -= node->second.charge;
      protected_.erase(node);
    } else {
      probation_.erase(node);
    }
    index_.erase(it);
    return true;
  }

  void Clear() {
    probation_.clear();
    protected_.clear();
    index_.clear();
    bytes_ = protected_bytes_ = 0;
  }

  size_t bytes() const { return bytes_; }
  size_t entries() const { return index_.size(); }

 private:
  struct Entry {
    V value;
    size_t charge = 0;
    bool prot = false;
  };
  using List = std::list<std::pair<K, Entry>>;
  using Node = typename List::iterator;

  // Demote protected-LRU entries until the protected segment fits; they
  // re-enter probation at the MRU end so a re-hit re-promotes cheaply.
  void ShrinkProtected() {
    while (protected_bytes_ > protected_cap_ && !protected_.empty()) {
      Node tail = std::prev(protected_.end());
      protected_bytes_ -= tail->second.charge;
      tail->second.prot = false;
      probation_.splice(probation_.begin(), protected_, tail);
    }
  }

  size_t EvictOverflow() {
    size_t evicted = 0;
    while (bytes_ > capacity_) {
      List& victim_list = probation_.empty() ? protected_ : probation_;
      PCUBE_DCHECK(!victim_list.empty());
      Node tail = std::prev(victim_list.end());
      bytes_ -= tail->second.charge;
      if (tail->second.prot) protected_bytes_ -= tail->second.charge;
      index_.erase(tail->first);
      victim_list.erase(tail);
      ++evicted;
    }
    return evicted;
  }

  size_t capacity_ = 0;
  size_t protected_cap_ = 0;
  size_t bytes_ = 0;
  size_t protected_bytes_ = 0;
  List probation_;
  List protected_;
  std::unordered_map<K, Node, Hash> index_;
};

}  // namespace pcube
