// Per-process allocation tracker. The companion .cc replaces the global
// operator new/delete with thin wrappers over malloc/free that maintain
// three atomic counters: cumulative allocation count, live bytes, and peak
// live bytes (via glibc's malloc_usable_size, so sizes reflect what the
// allocator actually handed out).
//
// Linking: the replacement operator new is defined in this translation
// unit of the static capd_core, and the linker reads capd_core before
// libstdc++. So every binary that links capd_core and allocates gets the
// tracker, whether or not it calls an accessor below: `nm` finds
// capd::AllocCount in capd_tune, for example. Every allocation then pays
// for the global atomic counters, which is expensive under concurrency;
// perfbench/README.md measures it and links its untraced binary without
// this file. Read by tests/scale_test.cc (O(sample) memory budget), the
// allocs_per_row counters in bench_micro_codecs/bench_scale_sweep and the
// perfbench traced run.
#ifndef CAPD_COMMON_ALLOC_TRACKER_H_
#define CAPD_COMMON_ALLOC_TRACKER_H_

#include <cstdint>

namespace capd {

// Cumulative number of operator-new allocations since process start.
uint64_t AllocCount();

// Bytes currently live (allocated minus freed, usable sizes).
long long LiveAllocBytes();

// High-water mark of LiveAllocBytes().
long long PeakAllocBytes();

// Resets the peak to the current live size (for peak-delta measurements)
// and returns the new peak.
long long ResetPeakAllocBytes();

}  // namespace capd

#endif  // CAPD_COMMON_ALLOC_TRACKER_H_
