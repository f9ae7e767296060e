//===- serve/Admission.cpp - Admission control and load shedding ----------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "serve/Admission.h"

#include <algorithm>
#include <cstdio>

namespace sxe {

std::string OverloadError::message() const {
  char Buf[192];
  if (TheCause == Cause::QueueFull) {
    std::snprintf(Buf, sizeof(Buf),
                  "overloaded: %zu requests in flight (limit reached)",
                  QueueDepth);
  } else {
    std::snprintf(Buf, sizeof(Buf),
                  "overloaded: queue-wait p99 %.3f ms exceeds deadline "
                  "budget %.3f ms",
                  QueueWaitP99Nanos / 1e6, DeadlineBudgetNanos / 1e6);
  }
  return Buf;
}

AdmissionController::AdmissionController(AdmissionOptions Opts)
    : Options(Opts) {
  if (Options.MaxQueueDepth == 0)
    Options.MaxQueueDepth = 1;
  if (Options.WindowSize == 0)
    Options.WindowSize = 1;
  Window.resize(Options.WindowSize, 0);
}

uint64_t AdmissionController::p99Locked() const {
  if (WindowCount == 0)
    return 0;
  // nth_element over a copy: the window is small (hundreds of samples)
  // and tryAdmit is far off the compile hot path.
  std::vector<uint64_t> Sorted(Window.begin(),
                               Window.begin() +
                                   static_cast<ptrdiff_t>(WindowCount));
  size_t Rank = (WindowCount * 99) / 100;
  if (Rank >= WindowCount)
    Rank = WindowCount - 1;
  std::nth_element(Sorted.begin(),
                   Sorted.begin() + static_cast<ptrdiff_t>(Rank),
                   Sorted.end());
  return Sorted[Rank];
}

bool AdmissionController::tryAdmit(uint64_t DeadlineBudgetNanos,
                                   OverloadError &Err) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Depth >= Options.MaxQueueDepth) {
    Err.TheCause = OverloadError::Cause::QueueFull;
    Err.QueueDepth = Depth;
    Err.QueueWaitP99Nanos = p99Locked();
    Err.DeadlineBudgetNanos = DeadlineBudgetNanos;
    return false;
  }
  uint64_t Budget =
      DeadlineBudgetNanos ? DeadlineBudgetNanos : Options.DefaultDeadlineNanos;
  if (Budget) {
    uint64_t P99 = p99Locked();
    if (P99 > Budget) {
      Err.TheCause = OverloadError::Cause::DeadlineBudget;
      Err.QueueDepth = Depth;
      Err.QueueWaitP99Nanos = P99;
      Err.DeadlineBudgetNanos = Budget;
      return false;
    }
  }
  ++Depth;
  return true;
}

void AdmissionController::onComplete(uint64_t QueueWaitNanos) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Depth > 0)
    --Depth;
  Window[WindowNext] = QueueWaitNanos;
  WindowNext = (WindowNext + 1) % Window.size();
  if (WindowCount < Window.size())
    ++WindowCount;
}

uint64_t AdmissionController::queueWaitP99Nanos() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return p99Locked();
}

size_t AdmissionController::depth() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Depth;
}

} // namespace sxe
