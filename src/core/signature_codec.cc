#include "core/signature_codec.h"

#include <deque>

#include "bitmap/codec.h"

namespace pcube {

namespace {

/// One node of a breadth-first walk: its SID, depth (path length) and, when
/// walking an in-memory Signature, the node itself.
struct BfsItem {
  uint64_t sid;
  int depth;
  const SignatureNode* node;
};

}  // namespace

Signature SignatureFragment::ToSignature() const {
  Signature sig(m_, levels_);
  // Ascending SID order visits every parent before its children.
  for (uint64_t sid : nodes_.SortedSids()) {
    SignatureNode* node = &sig.mutable_root();
    for (uint16_t slot : SidToPath(sid, m_, SidDepth(sid, m_))) {
      auto& child = node->children[slot];
      if (!child) child = std::make_unique<SignatureNode>();
      node = child.get();
    }
    node->bits = *Node(sid);
  }
  return sig;
}

std::vector<PartialSignature> DecomposeSignature(const Signature& sig,
                                                 size_t max_payload) {
  std::vector<PartialSignature> out;
  if (sig.root().bits.empty() || !sig.root().bits.AnySet()) return out;
  const int levels = sig.levels();
  const uint32_t m = sig.fanout();

  // Pushes the children of `x` (one per set bit, in slot order) onto `q`.
  auto push_children = [&](const BfsItem& x, auto* q) {
    const BitVector& bits = x.node->bits;
    for (size_t bit = bits.FindNextSet(0); bit < bits.size();
         bit = bits.FindNextSet(bit + 1)) {
      const uint16_t slot = static_cast<uint16_t>(bit + 1);
      auto it = x.node->children.find(slot);
      PCUBE_DCHECK(it != x.node->children.end());
      q->push_back({ChildSid(x.sid, m, slot), x.depth + 1, it->second.get()});
    }
  };

  SidSet coded;
  std::deque<BfsItem> roots;
  roots.push_back({0, 0, &sig.root()});
  std::vector<BfsItem> bfs;

  while (!roots.empty()) {
    const BfsItem root = roots.front();
    roots.pop_front();

    PartialSignature partial;
    partial.root_sid = root.sid;
    bool cut = false;

    bfs.assign(1, root);
    for (size_t head = 0; head < bfs.size(); ++head) {
      const BfsItem x = bfs[head];
      if (!coded.Contains(x.sid)) {
        size_t before = partial.bytes.size();
        BitmapCodec::Encode(x.node->bits, &partial.bytes);
        if (partial.bytes.size() > max_payload) {
          PCUBE_CHECK_GT(before, size_t{0})
              << "single node array exceeds partial-signature payload";
          partial.bytes.resize(before);  // drop the overflowing node
          cut = true;
          break;
        }
        coded.Insert(x.sid);
      }
      if (x.depth + 1 < levels) push_children(x, &bfs);
    }

    if (!partial.bytes.empty()) out.push_back(std::move(partial));
    if (cut && root.depth + 1 < levels) {
      // Subtree not fully covered: its children become partial roots, in
      // slot order (BFS generation order == ascending SID).
      push_children(root, &roots);
    }
  }
  return out;
}

Status DecodePartialSignature(uint64_t root_sid,
                              const std::vector<uint8_t>& bytes,
                              SignatureFragment* fragment) {
  const int levels = fragment->levels();
  const uint32_t m = fragment->fanout();
  size_t offset = 0;
  std::vector<BfsItem> bfs;
  bfs.push_back({root_sid, SidDepth(root_sid, m), nullptr});
  for (size_t head = 0; head < bfs.size(); ++head) {
    const BfsItem x = bfs[head];
    const BitVector* bits = fragment->Node(x.sid);
    if (bits == nullptr) {
      // Cut point: the rest of the subtree is in later partials.
      if (offset >= bytes.size()) break;
      BitVector decoded;
      PCUBE_RETURN_NOT_OK(
          BitmapCodec::Decode(bytes.data(), bytes.size(), &offset, &decoded));
      if (!decoded.empty() && decoded.size() != m) {
        // The store writes fanout-wide arrays, plus the zero-width root of
        // a cell that emptied before a rebuild. Child SIDs are computed
        // from slot numbers, so a wider array would alias other nodes'
        // SIDs, and a narrower one could not be ANDed with its peers.
        return Status::Corruption("signature node width differs from fanout");
      }
      bits = fragment->AddNode(x.sid, std::move(decoded));
    }
    if (x.depth + 1 < levels) {
      for (size_t bit = bits->FindNextSet(0); bit < bits->size();
           bit = bits->FindNextSet(bit + 1)) {
        bfs.push_back(
            {ChildSid(x.sid, m, static_cast<uint16_t>(bit + 1)), x.depth + 1,
             nullptr});
      }
    }
  }
  if (offset != bytes.size()) {
    return Status::Corruption("partial signature has trailing bytes");
  }
  return Status::OK();
}

}  // namespace pcube
