// Negative controls for pcube-mutation-entry: sanctioned patterns that
// must produce zero diagnostics.
#include "lint_fixture_support.h"

namespace pcube {

// A same-named method on an unrelated type is not a raw mutator: the check
// resolves receiver types from the declarations in scope.
class BPlusTree {
 public:
  Status Insert(uint64_t key, uint64_t value);
};

Status SanctionedPatterns(RStarTree& tree, BPlusTree& btree) {
  PathChangeSet changes;
  // Unrelated receiver type: BPlusTree::Insert is not a guarded mutator.
  Status s = btree.Insert(1, 2);
  if (!s.ok()) return s;
  // Explicitly tagged single call site.
  // pcube-lint: allow-mutation(recovery replay applies logged batches below
  // the WriteBatch layer by design)
  s = tree.Insert(2.0f, 9, &changes);
  if (!s.ok()) return s;
  // The sanctioned spelling: mention of mutator names in comments
  // (PCube::ApplyChanges, RStarTree::Insert) or strings is ignored.
  const char* doc = "calls ApplyChanges( under the hood";
  (void)doc;
  return s;
}

}  // namespace pcube
