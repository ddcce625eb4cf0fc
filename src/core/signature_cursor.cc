#include "core/signature_cursor.h"

namespace pcube {

Status SignatureCursor::LoadPartialAt(uint64_t sid) {
  if (!attempted_.Insert(sid)) return Status::OK();
  auto bytes = store_->LoadPartial(cell_, sid);
  if (!bytes.ok()) {
    // The probing rule touches many SIDs that root no partial.
    if (bytes.status().IsNotFound()) return Status::OK();
    return bytes.status();
  }
  ++partials_loaded_;
  return DecodePartialSignature(sid, *bytes, &fragment_);
}

Result<const BitVector*> SignatureCursor::LoadNode(uint64_t sid) {
  if (!root_loaded_) {
    root_loaded_ = true;
    PCUBE_RETURN_NOT_OK(LoadPartialAt(0));
    if (const BitVector* bits = fragment_.Node(sid)) return bits;
  }
  // Probe partials rooted at successively deeper prefixes of the path.
  const uint32_t m = fragment_.fanout();
  uint64_t prefix = 0;
  for (uint16_t slot : SidToPath(sid, m, SidDepth(sid, m))) {
    prefix = ChildSid(prefix, m, slot);
    PCUBE_RETURN_NOT_OK(LoadPartialAt(prefix));
    if (const BitVector* bits = fragment_.Node(sid)) return bits;
  }
  return static_cast<const BitVector*>(nullptr);
}

Result<bool> SignatureCursor::Test(const Path& path) {
  PCUBE_DCHECK_GE(path.size(), size_t{1});
  PCUBE_DCHECK_LE(path.size(), static_cast<size_t>(levels_));
  const uint32_t m = fragment_.fanout();
  uint64_t sid = 0;  // node whose array we are inspecting
  for (size_t i = 0; i < path.size(); ++i) {
    auto bits = NodeAt(sid);
    if (!bits.ok()) return bits.status();
    if (*bits == nullptr) return false;
    const uint16_t slot = path[i];
    if (slot < 1 || slot > (*bits)->size() || !(*bits)->Get(slot - 1)) {
      return false;
    }
    sid = ChildSid(sid, m, slot);
  }
  return true;
}

}  // namespace pcube
