//===- tools/sxe-served.cpp - Compile-serving daemon binary --------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// The production entry point of the serve/ subsystem:
//
//   sxe-served --socket=PATH [--jobs=N] [--cache-dir=DIR] [--cache-bytes=N]
//              [--max-queue=N] [--default-deadline-ms=N]
//              [--metrics-file=FILE] [--metrics-json=FILE]
//              [--trace-file=FILE]
//              [--events-file=FILE] [--flight-dump=FILE]
//              [--flight-capacity=N]
//
// Binds a unix-domain socket, serves framed compile requests (see
// serve/Protocol.h) until SIGTERM/SIGINT or a client Shutdown frame, then
// drains gracefully: admitted requests finish and deliver their replies
// and the socket is unlinked. With --metrics-file the final Prometheus
// exposition is written on exit (CI validates it with `sxetool
// --validate-obs`).
//
// `--cache-dir` enables the persistent on-disk code cache; a restarted
// daemon pointed at the same directory serves warm artifacts without
// recompiling (`sxe-client --require-persistent-hit` asserts this). The
// directory holds one object file per artifact and no index file, so a
// restart after kill -9 sees every object a clean drain would have left.
//
// Observability: --trace-file turns on request-scoped tracing and
// --events-file the retained structured event log; each artifact
// (sxe.trace.v1 / sxe.events.v1) is written at drain. Without them the
// daemon keeps neither spans nor event records. The crash-safe flight
// recorder is always armed: every lifecycle event lands in its ring, on
// SIGSEGV and friends the last --flight-capacity events are dumped
// (sxe.flight.v1 JSONL) to --flight-dump, defaulting to
// `<socket>.flight.jsonl`, and `sxe-client --dump` fetches the same ring
// from a live daemon.
//
//===----------------------------------------------------------------------------===//

#include "serve/Daemon.h"
#include "support/Json.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace sxe;

namespace {

ServeDaemon *ActiveDaemon = nullptr;

void onStopSignal(int) {
  // Async-signal-safe: one relaxed atomic store; run() notices and drains.
  if (ActiveDaemon)
    ActiveDaemon->requestStop();
}

void usage() {
  std::fprintf(
      stderr,
      "usage: sxe-served --socket=PATH [--jobs=N] [--cache-dir=DIR]\n"
      "                  [--cache-bytes=N] [--max-queue=N]\n"
      "                  [--default-deadline-ms=N] [--metrics-file=FILE]\n"
      "                  [--metrics-json=FILE]\n"
      "                  [--trace-file=FILE] [--events-file=FILE]\n"
      "                  [--flight-dump=FILE] [--flight-capacity=N]\n");
}

} // namespace

int main(int argc, char **argv) {
  ServeDaemonOptions Options;
  std::string MetricsFile;
  std::string MetricsJsonFile;
  std::string FlightDumpPath;

  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    if (Arg.rfind("--socket=", 0) == 0) {
      Options.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      Options.Jobs = static_cast<unsigned>(std::atoi(Arg.c_str() + 7));
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      Options.CacheDir = Arg.substr(12);
    } else if (Arg.rfind("--cache-bytes=", 0) == 0) {
      Options.CacheMaxBytes = std::strtoull(Arg.c_str() + 14, nullptr, 10);
    } else if (Arg.rfind("--max-queue=", 0) == 0) {
      Options.Admission.MaxQueueDepth =
          static_cast<size_t>(std::strtoull(Arg.c_str() + 12, nullptr, 10));
    } else if (Arg.rfind("--default-deadline-ms=", 0) == 0) {
      Options.Admission.DefaultDeadlineNanos =
          std::strtoull(Arg.c_str() + 22, nullptr, 10) * 1000000ull;
    } else if (Arg.rfind("--metrics-file=", 0) == 0) {
      MetricsFile = Arg.substr(15);
    } else if (Arg.rfind("--metrics-json=", 0) == 0) {
      MetricsJsonFile = Arg.substr(15);
    } else if (Arg.rfind("--trace-file=", 0) == 0) {
      Options.TraceFile = Arg.substr(13);
    } else if (Arg.rfind("--events-file=", 0) == 0) {
      Options.EventsFile = Arg.substr(14);
    } else if (Arg.rfind("--flight-dump=", 0) == 0) {
      FlightDumpPath = Arg.substr(14);
    } else if (Arg.rfind("--flight-capacity=", 0) == 0) {
      Options.FlightCapacity =
          static_cast<size_t>(std::strtoull(Arg.c_str() + 18, nullptr, 10));
    } else {
      std::fprintf(stderr, "sxe-served: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Options.SocketPath.empty()) {
    usage();
    return 2;
  }
  if (FlightDumpPath.empty())
    FlightDumpPath = Options.SocketPath + ".flight.jsonl";

  ServeDaemon Daemon(Options);
  ActiveDaemon = &Daemon;
  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);
  // A client vanishing mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  // Crash path: dump the flight-recorder ring before dying with the
  // original signal.
  installFlightDumpOnFatalSignals(&Daemon.flightRecorder(), FlightDumpPath);

  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "sxe-served: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "sxe-served: listening on %s (jobs=%u, cache-dir=%s, "
               "max-queue=%zu)\n",
               Daemon.socketPath().c_str(), Options.Jobs,
               Options.CacheDir.empty() ? "<none>" : Options.CacheDir.c_str(),
               Options.Admission.MaxQueueDepth);

  Daemon.run(); // Blocks until SIGTERM/SIGINT or a Shutdown frame, then drains.

  CompileServiceStats Stats = Daemon.service().stats();
  std::fprintf(stderr,
               "sxe-served: drained. submitted=%llu compiled=%llu "
               "cache_hits=%llu persistent_hits=%llu rejected=%llu "
               "deadline_misses=%llu failed=%llu connections=%llu\n",
               static_cast<unsigned long long>(Stats.Submitted),
               static_cast<unsigned long long>(Stats.Compiled),
               static_cast<unsigned long long>(Stats.CacheHits),
               static_cast<unsigned long long>(Stats.PersistentHits),
               static_cast<unsigned long long>(Stats.Rejected),
               static_cast<unsigned long long>(Stats.DeadlineMisses),
               static_cast<unsigned long long>(Stats.Failed),
               static_cast<unsigned long long>(Daemon.connectionsAccepted()));

  if (!MetricsFile.empty()) {
    if (!writeTextFile(MetricsFile, Daemon.metricsRegistry().toPrometheus())) {
      std::fprintf(stderr, "sxe-served: cannot write %s\n",
                   MetricsFile.c_str());
      return 1;
    }
    std::fprintf(stderr, "sxe-served: wrote %s\n", MetricsFile.c_str());
  }
  if (!MetricsJsonFile.empty()) {
    // The JSON export is the one that carries histogram exemplars
    // (sxe-obs --metrics joins them back to requests).
    if (!writeTextFile(MetricsJsonFile, Daemon.metricsRegistry().toJson())) {
      std::fprintf(stderr, "sxe-served: cannot write %s\n",
                   MetricsJsonFile.c_str());
      return 1;
    }
    std::fprintf(stderr, "sxe-served: wrote %s\n", MetricsJsonFile.c_str());
  }
  ActiveDaemon = nullptr;
  return 0;
}
