// Calibrated CPU burn used by the SimTransport cost models.
//
// The paper's kernel-vs-mTCP comparison is driven by per-connection and
// per-syscall CPU overheads. We model those as real work on the caller's
// core (so the scheduler feels them) rather than sleeps (which would free the
// core and distort the experiment).
#ifndef FLICK_BASE_SPIN_WORK_H_
#define FLICK_BASE_SPIN_WORK_H_

#include <atomic>
#include <cstdint>

namespace flick {

// Executes roughly `units` iterations of a dependency-chained integer loop.
// One unit is a few cycles; cost knobs in net/ are expressed in units.
inline void SpinWork(uint64_t units) {
  volatile uint64_t acc = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < units; ++i) {
    acc = acc * 6364136223846793005ull + 1442695040888963407ull;
  }
  std::atomic_signal_fence(std::memory_order_seq_cst);
}

}  // namespace flick

#endif  // FLICK_BASE_SPIN_WORK_H_
