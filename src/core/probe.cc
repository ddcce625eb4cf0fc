#include "core/probe.h"

namespace pcube {

Status BooleanProbe::FilterChildren(const Path& parent, const NodeView& node,
                                    ChildMask* survivors) {
  Path child = parent;
  child.push_back(0);
  for (uint32_t s = 0; s < node.max_entries(); ++s) {
    if (!survivors->Get(s)) continue;
    child[child.size() - 1] = static_cast<uint16_t>(s + 1);
    auto pass = node.is_leaf() ? TestData(child, node.GetId(s)) : Test(child);
    if (!pass.ok()) return pass.status();
    if (!*pass) survivors->Clear(s);
  }
  return Status::OK();
}

Result<bool> SignatureProbe::Test(const Path& path) {
  if (cursors_.size() == 1) return cursors_[0].Test(path);
  if (cursors_.empty()) return true;
  const uint32_t m = cursors_[0].fanout();
  uint64_t sid = 0;
  for (size_t i = 0; i < path.size(); ++i) {
    auto fused = FusedNode(sid);
    if (!fused.ok()) return fused.status();
    const BitVector* bits = *fused;
    const uint16_t slot = path[i];
    if (bits == nullptr || slot < 1 || slot > bits->size() ||
        !bits->Get(slot - 1)) {
      return false;
    }
    sid = ChildSid(sid, m, slot);
  }
  return true;
}

Status SignatureProbe::FilterChildren(const Path& parent, const NodeView&,
                                      ChildMask* survivors) {
  if (cursors_.empty() || survivors->None()) return Status::OK();
  const uint64_t sid = PathToSid(parent, cursors_[0].fanout());
  auto bits =
      cursors_.size() == 1 ? cursors_[0].NodeAt(sid) : FusedNode(sid);
  if (!bits.ok()) return bits.status();
  if (*bits == nullptr) {
    *survivors = ChildMask();
  } else {
    survivors->IntersectWith(**bits);
  }
  return Status::OK();
}

Result<const BitVector*> SignatureProbe::FusedNode(uint64_t sid) {
  if (const auto* memo = fused_.Find(sid)) {
    return memo->has_value() ? &**memo : nullptr;
  }
  for (auto& c : cursors_) {
    auto bits = c.NodeAt(sid);
    if (!bits.ok()) return bits.status();
    // A zero-width array (the root of a cell emptied before a rebuild) has
    // no set slot either.
    if (*bits == nullptr || (*bits)->empty()) {
      fused_.TryEmplace(sid);  // nullopt: the fused subtree is empty
      return static_cast<const BitVector*>(nullptr);
    }
  }
  // Every cursor now holds the node; its arrays stay put while we read.
  BitVector fused = *cursors_[0].NodeBits(sid);
  for (size_t i = 1; i < cursors_.size(); ++i) {
    fused.InplaceAnd(*cursors_[i].NodeBits(sid));
  }
  return &**fused_.TryEmplace(sid, std::move(fused)).first;
}

}  // namespace pcube
