//===- tools/sxe-client.cpp - Compile-serving client binary --------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
// Drives a running sxe-served over its unix socket:
//
//   sxe-client --socket=PATH FILE.sxir...         compile files
//   sxe-client --socket=PATH --batch=DIR          compile every .sxir in DIR
//   sxe-client --socket=PATH --ping [--wait-ms=N] liveness probe (retrying)
//   sxe-client --socket=PATH --metrics[=FILE]     dump Prometheus metrics
//   sxe-client --socket=PATH --dump[=FILE]        fetch the flight recorder
//   sxe-client --socket=PATH --shutdown           ask for a graceful drain
//
// Compile options: --target=NAME --variant=NAME --deadline-ms=N
// --remarks --out=DIR (write optimized IR next to the reply)
// --require-persistent-hit (exit 1 unless every compile was served from
// the on-disk tier — the CI warm-restart assertion)
// --json (one machine-readable JSON line per request: file, status,
// tier, trace/request ids, queue-wait and wall latency)
// --trace=FILE (write the client-side sxe.trace.v1 spans, one "request"
// span per compile, joinable with the daemon's trace by trace id).
//
// Exit status: 0 when every request succeeded, 1 on any typed compile
// error or unmet --require-persistent-hit, 2 on usage/transport errors.
//
//===----------------------------------------------------------------------------===//

#include "serve/Client.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

using namespace sxe;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sxe-client --socket=PATH [FILE.sxir... | --batch=DIR]\n"
      "                  [--target=NAME] [--variant=NAME] [--deadline-ms=N]\n"
      "                  [--remarks] [--out=DIR] [--require-persistent-hit]\n"
      "                  [--json] [--trace=FILE]\n"
      "       sxe-client --socket=PATH --ping [--wait-ms=N]\n"
      "       sxe-client --socket=PATH --metrics[=FILE]\n"
      "       sxe-client --socket=PATH --dump[=FILE]\n"
      "       sxe-client --socket=PATH --shutdown\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath;
  std::vector<std::string> Files;
  std::string BatchDir;
  std::string Target = "ia64";
  std::string VariantName = "all";
  uint64_t DeadlineMillis = 0;
  unsigned WaitMillis = 0;
  bool Ping = false;
  bool Metrics = false;
  std::string MetricsFile;
  bool Shutdown = false;
  bool WantRemarks = false;
  std::string OutDir;
  bool RequirePersistentHit = false;
  bool JsonOutput = false;
  std::string TraceFile;
  bool Dump = false;
  std::string DumpFile;

  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    if (Arg.rfind("--socket=", 0) == 0)
      SocketPath = Arg.substr(9);
    else if (Arg.rfind("--batch=", 0) == 0)
      BatchDir = Arg.substr(8);
    else if (Arg.rfind("--target=", 0) == 0)
      Target = Arg.substr(9);
    else if (Arg.rfind("--variant=", 0) == 0)
      VariantName = Arg.substr(10);
    else if (Arg.rfind("--deadline-ms=", 0) == 0)
      DeadlineMillis = std::strtoull(Arg.c_str() + 14, nullptr, 10);
    else if (Arg.rfind("--wait-ms=", 0) == 0)
      WaitMillis = static_cast<unsigned>(std::atoi(Arg.c_str() + 10));
    else if (Arg == "--ping")
      Ping = true;
    else if (Arg == "--metrics")
      Metrics = true;
    else if (Arg.rfind("--metrics=", 0) == 0) {
      Metrics = true;
      MetricsFile = Arg.substr(10);
    } else if (Arg == "--shutdown")
      Shutdown = true;
    else if (Arg == "--remarks")
      WantRemarks = true;
    else if (Arg.rfind("--out=", 0) == 0)
      OutDir = Arg.substr(6);
    else if (Arg == "--require-persistent-hit")
      RequirePersistentHit = true;
    else if (Arg == "--json")
      JsonOutput = true;
    else if (Arg.rfind("--trace=", 0) == 0)
      TraceFile = Arg.substr(8);
    else if (Arg == "--dump")
      Dump = true;
    else if (Arg.rfind("--dump=", 0) == 0) {
      Dump = true;
      DumpFile = Arg.substr(7);
    }
    else if (!Arg.empty() && Arg[0] != '-')
      Files.push_back(Arg);
    else {
      std::fprintf(stderr, "sxe-client: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (SocketPath.empty()) {
    usage();
    return 2;
  }

  ServeClient Client;
  TraceCollector ClientTrace;
  std::string Error;
  if (!Client.connectTo(SocketPath, Error, WaitMillis)) {
    std::fprintf(stderr, "sxe-client: %s\n", Error.c_str());
    return 2;
  }
  if (!TraceFile.empty()) {
    ClientTrace.nameThread("sxe-client");
    Client.setTrace(&ClientTrace);
  }

  if (Ping) {
    if (!Client.ping(Error)) {
      std::fprintf(stderr, "sxe-client: ping failed: %s\n", Error.c_str());
      return 2;
    }
    std::printf("pong\n");
  }

  if (!BatchDir.empty()) {
    std::error_code EC;
    for (const auto &Entry :
         std::filesystem::directory_iterator(BatchDir, EC))
      if (Entry.is_regular_file() && Entry.path().extension() == ".sxir")
        Files.push_back(Entry.path().string());
    if (EC) {
      std::fprintf(stderr, "sxe-client: cannot list %s: %s\n",
                   BatchDir.c_str(), EC.message().c_str());
      return 2;
    }
    std::sort(Files.begin(), Files.end());
  }

  int Status = 0;
  for (const std::string &File : Files) {
    ServeRequest Request;
    Request.Name = std::filesystem::path(File).filename().string();
    if (!readTextFile(File, Request.Source)) {
      std::fprintf(stderr, "sxe-client: cannot read %s\n", File.c_str());
      return 2;
    }
    Request.Target = Target;
    Request.Variant = VariantName;
    Request.DeadlineMillis = DeadlineMillis;
    Request.CollectRemarks = WantRemarks;
    Request.WantIR = !OutDir.empty();
    Request.Hotness = static_cast<double>(Request.Source.size());

    ServeReply Reply;
    if (!Client.compile(Request, Reply, Error)) {
      std::fprintf(stderr, "sxe-client: %s: transport error: %s\n",
                   File.c_str(), Error.c_str());
      return 2;
    }
    if (JsonOutput) {
      // One machine-readable record per request, errors included, so a
      // harness can correlate each result with the daemon's artifacts by
      // trace id without scraping human-formatted text.
      std::string Line = "{\"file\": " + JsonWriter::quote(Request.Name) +
                         ", \"status\": " +
                         JsonWriter::quote(Reply.Ok ? "ok"
                                                    : serveErrorKindName(
                                                          Reply.ErrorKind));
      if (Reply.Ok)
        Line += ", \"tier\": " + JsonWriter::quote(serveTierName(Reply.Tier));
      else
        Line += ", \"error\": " + JsonWriter::quote(Reply.Error);
      if (Reply.TraceId)
        Line += ", \"trace_id\": \"" + traceIdHex(Reply.TraceId) + "\"";
      if (Reply.RequestId)
        Line += ", \"request_id\": " + std::to_string(Reply.RequestId);
      char Latency[96];
      std::snprintf(Latency, sizeof(Latency),
                    ", \"queue_wait_ms\": %.3f, \"wall_ms\": %.3f}",
                    Reply.QueueWaitNanos / 1e6, Reply.WallNanos / 1e6);
      Line += Latency;
      std::printf("%s\n", Line.c_str());
    }
    if (!Reply.Ok) {
      if (!JsonOutput)
        std::fprintf(stderr, "sxe-client: %s: %s error: %s\n", File.c_str(),
                     serveErrorKindName(Reply.ErrorKind),
                     Reply.Error.c_str());
      Status = 1;
      continue;
    }
    if (!JsonOutput)
      std::printf("%-24s %-10s ir_hash=%016llx queue_wait=%.3fms "
                  "wall=%.3fms trace=%s\n",
                  Request.Name.c_str(), serveTierName(Reply.Tier),
                  static_cast<unsigned long long>(Reply.InputIRHash),
                  Reply.QueueWaitNanos / 1e6, Reply.WallNanos / 1e6,
                  Reply.TraceId ? traceIdHex(Reply.TraceId).c_str() : "-");
    if (RequirePersistentHit && Reply.Tier != ServeTier::Persistent) {
      std::fprintf(stderr,
                   "sxe-client: %s: served from '%s', expected the "
                   "persistent tier\n",
                   File.c_str(), serveTierName(Reply.Tier));
      Status = 1;
    }
    if (WantRemarks && !Reply.RemarksJsonl.empty())
      std::fputs(Reply.RemarksJsonl.c_str(), stdout);
    if (!OutDir.empty()) {
      std::filesystem::create_directories(OutDir);
      std::string OutPath =
          (std::filesystem::path(OutDir) / Request.Name).string();
      if (!writeTextFile(OutPath, Reply.IRText)) {
        std::fprintf(stderr, "sxe-client: cannot write %s\n",
                     OutPath.c_str());
        return 2;
      }
    }
  }

  if (Metrics) {
    std::string Prom;
    if (!Client.fetchMetrics(Prom, Error)) {
      std::fprintf(stderr, "sxe-client: metrics failed: %s\n", Error.c_str());
      return 2;
    }
    if (MetricsFile.empty() || MetricsFile == "-") {
      std::fputs(Prom.c_str(), stdout);
    } else if (!writeTextFile(MetricsFile, Prom)) {
      std::fprintf(stderr, "sxe-client: cannot write %s\n",
                   MetricsFile.c_str());
      return 2;
    }
  }

  if (Dump) {
    std::string DumpJsonl;
    if (!Client.fetchFlightDump(DumpJsonl, Error)) {
      std::fprintf(stderr, "sxe-client: dump failed: %s\n", Error.c_str());
      return 2;
    }
    if (DumpFile.empty() || DumpFile == "-") {
      std::fputs(DumpJsonl.c_str(), stdout);
    } else if (!writeTextFile(DumpFile, DumpJsonl)) {
      std::fprintf(stderr, "sxe-client: cannot write %s\n", DumpFile.c_str());
      return 2;
    }
  }

  if (!TraceFile.empty() && !writeTextFile(TraceFile, ClientTrace.toJson())) {
    std::fprintf(stderr, "sxe-client: cannot write %s\n", TraceFile.c_str());
    return 2;
  }

  if (Shutdown) {
    if (!Client.requestShutdown(Error)) {
      std::fprintf(stderr, "sxe-client: shutdown failed: %s\n",
                   Error.c_str());
      return 2;
    }
    std::printf("shutdown acknowledged\n");
  }

  return Status;
}
