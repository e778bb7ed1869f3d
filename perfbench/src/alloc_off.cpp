// The untraced binary keeps the toolchain's allocator, so its timings carry
// no counting cost.

#include "bench.hpp"

std::optional<perfbench::AllocCounts> perfbench::alloc_counts() { return std::nullopt; }
