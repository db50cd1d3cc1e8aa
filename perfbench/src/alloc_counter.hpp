#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through operator new since the process started,
/// on every thread.
std::uint64_t allocations();

}  // namespace perfbench
