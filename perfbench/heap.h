#ifndef PERFBENCH_HEAP_H_
#define PERFBENCH_HEAP_H_

// Heap accounting for the mem_peak_mb metric. heap.cc replaces the global
// operator new/delete: every block carries a small header that records its
// size and whether it counts, so a block allocated inside a HarnessScope
// (the harness's own bookkeeping and output checks) never counts, wherever
// it is freed.

#include <cstddef>
#include <cstdint>

namespace perfbench::heap {

/// Bytes currently held in counted blocks.
int64_t LiveBytes();

/// Highest LiveBytes() seen since the last ResetPeak().
int64_t PeakBytes();

/// Starts a new peak window at the current live level.
void ResetPeak();

/// While alive, allocations made on this thread do not count.
class HarnessScope {
 public:
  HarnessScope();
  ~HarnessScope();
  HarnessScope(const HarnessScope&) = delete;
  HarnessScope& operator=(const HarnessScope&) = delete;

 private:
  bool previous_;
};

}  // namespace perfbench::heap

#endif  // PERFBENCH_HEAP_H_
