//===- serve/Admission.h - Admission control and load shedding ---*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's admission controller: decides, before a request touches
/// the compile queue, whether it can plausibly be served within its
/// deadline budget — and sheds it with a typed OverloadError when it
/// cannot.
///
/// Two gates, both cheap enough for the accept path:
///
///   1. Bounded depth: at most MaxQueueDepth requests may be in flight
///      (admitted but not completed). Beyond that the queue is refusing
///      to absorb more backlog regardless of deadlines.
///   2. Deadline feasibility: the controller keeps a sliding window of
///      recent queue-wait samples (how long admitted requests actually
///      sat in the CompileQueue before a worker picked them up). When
///      the window's p99 exceeds a request's deadline budget, the
///      request would almost certainly expire in queue — shedding it at
///      the door is cheaper than letting a worker discover the miss.
///
/// Rejections are *typed* (QueueFull vs DeadlineBudget) so clients can
/// distinguish "back off and retry" from "raise your deadline". The
/// controller is thread-safe; the daemon calls tryAdmit from connection
/// handler threads and onComplete with the queue-wait the service
/// measured.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SERVE_ADMISSION_H
#define SXE_SERVE_ADMISSION_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sxe {

struct AdmissionOptions {
  /// Maximum requests in flight (admitted, not yet completed).
  size_t MaxQueueDepth = 256;
  /// Deadline budget assumed for requests that do not carry one; 0
  /// disables the p99 gate for such requests.
  uint64_t DefaultDeadlineNanos = 0;
  /// Sliding-window size for queue-wait samples.
  size_t WindowSize = 512;
};

/// Why a request was shed.
struct OverloadError {
  enum class Cause : uint8_t {
    QueueFull,      ///< In-flight depth hit MaxQueueDepth.
    DeadlineBudget, ///< Queue-wait p99 exceeds the request's budget.
  };
  Cause TheCause = Cause::QueueFull;
  size_t QueueDepth = 0;
  uint64_t QueueWaitP99Nanos = 0;
  uint64_t DeadlineBudgetNanos = 0;

  /// Human-readable rejection reason for the reply's error field.
  std::string message() const;
};

class AdmissionController {
public:
  explicit AdmissionController(AdmissionOptions Options = {});

  /// Admits or sheds one request. \p DeadlineBudgetNanos is the request's
  /// relative budget (0 = use the default; if that is also 0 the p99 gate
  /// is skipped). On admission the in-flight depth is incremented and the
  /// caller must pair it with onComplete(). On rejection \p Err describes
  /// the cause.
  bool tryAdmit(uint64_t DeadlineBudgetNanos, OverloadError &Err);

  /// Completes one admitted request: decrements the depth and records its
  /// measured queue wait in the sliding window.
  void onComplete(uint64_t QueueWaitNanos);

  /// Current p99 of the queue-wait window (0 until a sample exists).
  uint64_t queueWaitP99Nanos() const;

  /// Current in-flight depth.
  size_t depth() const;

  const AdmissionOptions &options() const { return Options; }

private:
  uint64_t p99Locked() const;

  AdmissionOptions Options;
  mutable std::mutex Mu;
  /// Ring buffer of the last WindowSize queue-wait samples.
  std::vector<uint64_t> Window;
  size_t WindowNext = 0;
  size_t WindowCount = 0;
  size_t Depth = 0;
};

} // namespace sxe

#endif // SXE_SERVE_ADMISSION_H
