// Counting operator new for tests that must prove a code path allocates
// nothing. alloc_count.cpp replaces the global operator new of the test
// binary; while an AllocCount is alive on a thread, every operator new that
// thread makes bumps it. Elsewhere the hook costs one thread-local load.
#pragma once

#include <cstdint>

namespace rp::testing {

class AllocCount {
 public:
  AllocCount();
  ~AllocCount();
  AllocCount(const AllocCount&) = delete;
  AllocCount& operator=(const AllocCount&) = delete;

  std::uint64_t count() const noexcept { return n_; }

 private:
  std::uint64_t n_{0};
  std::uint64_t* outer_;
};

}  // namespace rp::testing
