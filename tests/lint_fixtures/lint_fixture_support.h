// Mock declarations for the pcube-lint fixture corpus (DESIGN.md §16).
//
// The fixtures are regression tests for the lint checks themselves: each
// seeded violation carries an `// expect-lint: <check>` marker, and
// lint_fixture_test asserts the scanner reports exactly the marked lines.
// Marker comments are invisible to every check (so a marker can never
// silence the violation it labels).
//
// This header keeps the fixtures valid standalone C++; they are never
// linked into the product.
#pragma once

#include <cstdint>

// Minimal stand-ins for the real types the checks key on, which the
// scanner matches by name; they are name-compatible with the real ::pcube
// types.
namespace pcube {

struct Status {
  bool ok() const { return true; }
  void IgnoreError() const {}
};

struct PathChangeSet {};
struct Dataset {};

class RStarTree {
 public:
  Status Insert(float point, uint64_t tid, PathChangeSet* changes);
  Status Delete(float point, uint64_t tid, PathChangeSet* changes);
};

class TableStore {
 public:
  Status Append(uint32_t bools, uint32_t prefs);
};

class PCube {
 public:
  Status ApplyChanges(const Dataset& data, const PathChangeSet& changes);
  Status Rebuild(const Dataset& data, const RStarTree& tree);
};

// Lock wrappers + annotation macros, mirroring common/mutex.h and
// common/thread_annotations.h (expanded to nothing here: the scanner
// matches the tokens).
class Mutex {};
class SharedMutex {};
class CondVar {};

#ifndef GUARDED_BY
#define GUARDED_BY(x)
#endif
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x)
#endif

// Abort-family macros, mirroring common/logging.h.
#ifndef PCUBE_CHECK
#define PCUBE_CHECK(cond) ((void)(cond))
#define PCUBE_CHECK_LE(a, b) ((void)((a) <= (b)))
#define PCUBE_DCHECK(cond) ((void)(cond))
#endif

}  // namespace pcube
