//===- serve/Daemon.h - Unix-socket compile-serving daemon -------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The production compile server: a unix-domain-socket daemon that
/// exposes the batch compile API (jit/CompileService.h) over the framed
/// protocol of serve/Protocol.h. Each accepted connection gets a handler
/// thread speaking request/reply frames; compile requests pass through
/// the admission controller (serve/Admission.h) before touching the
/// compile queue, so overload is shed at the door with typed errors
/// instead of unbounded queueing.
///
/// The daemon owns the whole serving stack:
///
///   connection handlers -> AdmissionController -> CompileService
///                                                  |- CodeCache (memory)
///                                                  '- PersistentCache (disk)
///
/// plus the MetricsRegistry every layer feeds, exported over the wire via
/// MetricsQuery frames. Deadlines compose across layers: the client's
/// relative budget becomes an absolute CompileRequest::DeadlineNanos, the
/// admission controller sheds requests whose budget the current queue-wait
/// p99 already exceeds, and the service sheds queued requests whose
/// deadline expires before a worker reaches them.
///
/// Graceful drain (SIGTERM path): requestStop() is async-signal-safe (one
/// atomic store). stop() then stops accepting connections, refuses *new*
/// compile frames with a `shutdown`-kind reply, lets every already-
/// admitted request finish and deliver its reply, joins the handlers and
/// workers, and unlinks the socket. The persistent cache has nothing to
/// flush: every entry is published by the insert that wrote it.
///
/// The artifact paths are the only observability switch. With TraceFile
/// set, the daemon, the service and the pass manager record request-scoped
/// spans; with EventsFile set, the event log keeps full records. Every
/// lifecycle event (daemon_start, admit, shed, cache_tier,
/// deadline_expire, reply, dump, drain) is one EventLog::log call, which
/// always writes the fixed-size flight-recorder ring, so a daemon with
/// neither path retains nothing else.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SERVE_DAEMON_H
#define SXE_SERVE_DAEMON_H

#include "jit/CodeCache.h"
#include "jit/CompileService.h"
#include "jit/PersistentCache.h"
#include "obs/EventLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "obs/TraceContext.h"
#include "serve/Admission.h"
#include "serve/Protocol.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sxe {

struct ServeDaemonOptions {
  /// Path the unix socket is bound at (unlinked and replaced if present).
  std::string SocketPath;
  /// Compile worker threads (0 is promoted to 1; the daemon is for
  /// serving, not for the deterministic inline mode).
  unsigned Jobs = 2;
  /// Admission control: queue depth bound, default deadline, p99 window.
  AdmissionOptions Admission;
  /// In-memory code cache sizing.
  CodeCacheOptions MemoryCache;
  /// Persistent on-disk cache directory; empty disables the tier.
  std::string CacheDir;
  /// Byte budget of the persistent tier.
  uint64_t CacheMaxBytes = 256ull << 20;
  /// Slots in the crash-safe flight-recorder ring, armed in every
  /// configuration: one wait-free ring write per lifecycle event.
  size_t FlightCapacity = 2048;
  /// When non-empty, the daemon records request-scoped spans and stop()
  /// writes the stitched sxe.trace.v1 document here. Empty: no spans.
  std::string TraceFile;
  /// When non-empty, the event log keeps every record and stop() writes
  /// the sxe.events.v1 JSONL stream here. Empty: only the flight ring
  /// records events.
  std::string EventsFile;
};

/// The compile-serving daemon. Construct, start(), then run() (or poll
/// stopRequested() yourself) and stop().
class ServeDaemon {
public:
  explicit ServeDaemon(ServeDaemonOptions Options);

  /// Calls stop().
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon &) = delete;
  ServeDaemon &operator=(const ServeDaemon &) = delete;

  /// Binds the socket and starts the accept loop. False + \p Error when
  /// the socket cannot be bound.
  bool start(std::string &Error);

  /// Flags the daemon to stop. Async-signal-safe: a SIGTERM handler may
  /// call this directly. The actual drain happens in run()/stop().
  void requestStop() { Stop.store(true, std::memory_order_relaxed); }

  bool stopRequested() const {
    return Stop.load(std::memory_order_relaxed);
  }

  /// Blocks until requestStop() (from a signal handler or a Shutdown
  /// frame), then drains via stop().
  void run();

  /// Graceful drain: stop accepting, refuse new compiles, finish admitted
  /// work, join everything, unlink the socket. Idempotent.
  void stop();

  const std::string &socketPath() const { return Options.SocketPath; }
  MetricsRegistry &metricsRegistry() { return Metrics; }
  CompileService &service() { return *Service; }
  PersistentCache *persistent() { return Persistent.get(); }
  /// Holds no spans unless TraceFile is set.
  TraceCollector &traceCollector() { return Trace; }
  /// Retains no records unless EventsFile is set.
  EventLog &eventLog() { return Events; }
  FlightRecorder &flightRecorder() { return Flight; }

  /// Total connections accepted since start().
  uint64_t connectionsAccepted() const {
    return ConnectionsAccepted.load(std::memory_order_relaxed);
  }

private:
  void acceptLoop();
  void handleConnection(int Fd, uint64_t ConnId);
  /// Serves one decoded compile request end to end (admission -> service
  /// -> reply); never throws. \p Ctx is the request's resolved trace
  /// identity (minted by the daemon when the client sent none). An ok
  /// reply's artifact comes back in \p Code, not copied into the reply.
  ServeReply serveCompile(ServeRequest Request, TraceContext Ctx,
                          std::shared_ptr<const CompiledCode> &Code);
  static ServeReply errorReply(ServeErrorKind Kind, std::string Message);
  /// Spans are recorded only for a trace file to hold them.
  bool tracing() const { return !Options.TraceFile.empty(); }
  /// Seconds since start(), pushed into sxe_uptime_seconds at export
  /// points.
  void refreshUptime();

  ServeDaemonOptions Options;
  MetricsRegistry Metrics;
  CodeCache Cache;
  std::unique_ptr<PersistentCache> Persistent;
  /// Flight ring outlives the log that writes into it.
  FlightRecorder Flight;
  EventLog Events;
  TraceCollector Trace;
  std::unique_ptr<CompileService> Service;
  AdmissionController Admission;

  Counter *ConnectionsMetric = nullptr;
  Counter *RequestsMetric = nullptr;
  Gauge *InflightMetric = nullptr;
  Gauge *UptimeMetric = nullptr;
  uint64_t StartNanos = 0;
  /// Daemon-assigned dense request ids (1-based).
  std::atomic<uint64_t> NextRequestId{1};

  int ListenFd = -1;
  std::thread AcceptThread;
  std::mutex ConnMu;
  /// One handler and its fd per connection, index-aligned. A handler sets
  /// its fd to -1 when its client is done; the accept loop then joins it.
  std::vector<std::thread> Handlers;
  std::vector<int> ConnFds;

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> ConnectionsAccepted{0};
  bool Started = false;
  bool Stopped = false;
};

} // namespace sxe

#endif // SXE_SERVE_DAEMON_H
