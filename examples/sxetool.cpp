//===- examples/sxetool.cpp - Command-line driver -------------------------------===//
//
// Loads a textual `.sxir` module, runs a chosen pipeline variant, prints
// the optimized IR and statistics, and optionally interprets a function.
//
// Usage:
//   sxetool FILE [--variant=N|NAME] [--target=ia64|ppc64|generic64|x86_64]
//           [--maxlen=HEX] [--run[=FUNC]] [--quiet]
//           [--stats] [--stats-json=FILE] [--verify-each]
//           [--dump-after-each=DIR]
//           [--trace=FILE] [--remarks=FILE|-] [--metrics[=FILE|-]]
//           [--metrics-json=FILE|-]
//   sxetool --batch=DIR --jobs=N [--out=DIR] [--variant=...] [--target=...]
//           [--trace=FILE] [--remarks=FILE|-] [--metrics[=FILE|-]]
//   sxetool --validate-obs=FILE
//
// Examples:
//   sxetool examples/ir/countdown.sxir --variant=all --run=main
//   sxetool program.sxir --variant=baseline --quiet --run
//   sxetool program.sxir --stats --stats-json=- --quiet
//   sxetool program.sxir --verify-each --dump-after-each=/tmp/snap
//   sxetool program.sxir --quiet --remarks=- --trace=/tmp/run.trace.json
//   sxetool --batch=tests/corpus --jobs=8 --out=/tmp/opt \
//           --trace=/tmp/batch.trace.json --metrics=/tmp/batch.prom
//   sxetool --validate-obs=/tmp/batch.trace.json
//
// Batch mode compiles every `.sxir` module under DIR through the
// jit/CompileService: N worker threads, the content-addressed code
// cache, hotness = module size (big modules first for load balance).
// `--jobs=0` is the deterministic serial mode; its output is
// byte-identical to any parallel run.
//
// Observability (obs/): `--trace` writes a Chrome-trace/Perfetto JSON
// timeline (`sxe.trace.v1`; in batch mode one track per worker),
// `--remarks` a `sxe.remarks.v1` JSONL stream of per-extension decisions
// (batch mode concatenates modules in submission order, so the stream is
// identical for any --jobs), `--metrics` a Prometheus text dump and
// `--metrics-json` the same registry as JSON (`sxe.metrics.v1`).
// `--validate-obs` checks an emitted artifact against its schema tag.
//
//===------------------------------------------------------------------------------===//

#include "interp/Interpreter.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "jit/CompileService.h"
#include "obs/EventLog.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Remarks.h"
#include "obs/Trace.h"
#include "parser/Parser.h"
#include "pm/InstrumentedPipeline.h"
#include "pm/Report.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "sxe/Pipeline.h"
#include "target/StaticCounts.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

using namespace sxe;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: sxetool FILE [--variant=NAME] "
               "[--target=ia64|ppc64|generic64|x86_64] "
               "[--maxlen=HEX] [--run[=FUNC]] [--quiet]\n"
               "               [--stats] [--stats-json=FILE|-] "
               "[--verify-each] [--dump-after-each=DIR]\n"
               "               [--trace=FILE] [--remarks=FILE|-] "
               "[--metrics[=FILE|-]] [--metrics-json=FILE|-]\n"
               "       sxetool --batch=DIR --jobs=N [--out=DIR] "
               "[--variant=NAME] [--target=...] [--trace=...]\n"
               "       sxetool --validate-obs=FILE\n"
               "variants:\n");
  for (Variant V : AllVariants)
    std::fprintf(stderr, "  %s\n", variantName(V));
}

/// Conversions the elimination engines removed, over all kinds.
uint64_t conversionsEliminated(const PassStats &Stats) {
  return Stats.total("sext_eliminated") + Stats.total("zext_eliminated") +
         Stats.total("trunc_eliminated");
}

/// Where to write the observability artifacts ("" = off, "-" = stdout).
struct ObsFiles {
  std::string TraceFile;
  std::string RemarksFile;
  std::string MetricsFile;     ///< Prometheus text exposition.
  std::string MetricsJsonFile; ///< Same registry as sxe.metrics.v1 JSON.

  bool any() const {
    return !TraceFile.empty() || !RemarksFile.empty() ||
           !MetricsFile.empty() || !MetricsJsonFile.empty();
  }
};

/// Writes \p Content to \p Path, where "-" means stdout. Returns false
/// (with a message) on I/O failure.
bool writeArtifact(const std::string &Path, const std::string &Content) {
  if (Path == "-") {
    std::fwrite(Content.data(), 1, Content.size(), stdout);
    return true;
  }
  if (!writeTextFile(Path, Content)) {
    std::fprintf(stderr, "sxetool: cannot write %s\n", Path.c_str());
    return false;
  }
  return true;
}

/// Writes every requested artifact of one run. Returns false on I/O
/// failure.
bool writeObsArtifacts(const ObsFiles &Obs, const TraceCollector *Trace,
                       const std::vector<Remark> &Remarks,
                       const MetricsRegistry *Metrics) {
  bool Ok = true;
  if (!Obs.TraceFile.empty() && Trace)
    Ok &= writeArtifact(Obs.TraceFile, Trace->toJson());
  if (!Obs.RemarksFile.empty())
    Ok &= writeArtifact(Obs.RemarksFile, remarksToJsonl(Remarks));
  if (!Obs.MetricsFile.empty() && Metrics)
    Ok &= writeArtifact(Obs.MetricsFile, Metrics->toPrometheus());
  if (!Obs.MetricsJsonFile.empty() && Metrics)
    Ok &= writeArtifact(Obs.MetricsJsonFile, Metrics->toJson());
  return Ok;
}

/// `--validate-obs=FILE`: checks an emitted artifact against its schema
/// tag. Trace documents must carry otherData.schema == sxe.trace.v1 and a
/// traceEvents array; JSONL streams must parse line-by-line with a
/// sxe.remarks.v1, sxe.events.v1 or sxe.flight.v1 header; metrics JSON
/// must carry schema == sxe.metrics.v1; a Prometheus dump must expose at
/// least one sxe_ series. Returns the process exit code.
int validateObsFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "sxetool: cannot open %s\n", Path.c_str());
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  std::string Text = Buffer.str();

  auto Fail = [&Path](const std::string &Why) {
    std::fprintf(stderr, "sxetool: %s: INVALID: %s\n", Path.c_str(),
                 Why.c_str());
    return 1;
  };
  auto Pass = [&Path](const char *What) {
    std::fprintf(stderr, "sxetool: %s: valid %s\n", Path.c_str(), What);
    return 0;
  };

  // Prometheus text exposition: not JSON, starts with a # HELP comment.
  if (Text.rfind("# HELP", 0) == 0) {
    if (Text.find("\nsxe_") == std::string::npos &&
        Text.rfind("sxe_", 0) != 0)
      return Fail("no sxe_ series in Prometheus dump");
    return Pass("Prometheus metrics");
  }

  // Whole-document JSON first: trace and metrics exports span lines.
  JsonValue Doc;
  std::string Error;
  if (parseJson(Text, Doc, Error)) {
    if (const JsonValue *Other = Doc.find("otherData")) {
      if (Other->stringField("schema") != kTraceSchema)
        return Fail("otherData.schema is not " + std::string(kTraceSchema));
      const JsonValue *Events = Doc.find("traceEvents");
      if (!Events || !Events->isArray())
        return Fail("missing traceEvents array");
      return Pass("trace");
    }
    if (Doc.stringField("schema") == kMetricsSchema)
      return Pass("metrics JSON");
    // A one-remark stream parses as a whole document too; fall through.
  }

  // JSONL stream: header line {"schema": "sxe.remarks.v1" | "sxe.events.v1"
  // | "sxe.flight.v1"}, every following line one record.
  std::string StreamKind;
  size_t Line = 0, Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    ++Line;
    std::string Record = Text.substr(Pos, End - Pos);
    JsonValue V;
    if (!Record.empty()) {
      if (!parseJson(Record, V, Error))
        return Fail("line " + std::to_string(Line) + ": " + Error);
      if (Line == 1) {
        std::string Schema = V.stringField("schema");
        if (Schema == kRemarksSchema)
          StreamKind = "remark stream";
        else if (Schema == kEventsSchema)
          StreamKind = "event log";
        else if (Schema == kFlightSchema)
          StreamKind = "flight-recorder dump";
        else
          return Fail("header schema '" + Schema +
                      "' is not a known JSONL stream (" + kRemarksSchema +
                      ", " + kEventsSchema + " or " + kFlightSchema + ")");
      }
    }
    Pos = End + 1;
  }
  if (Line == 0)
    return Fail("empty file");
  return Pass(StreamKind.c_str());
}

/// Compiles every `.sxir` under \p BatchDir through a CompileService with
/// \p Jobs workers and a shared code cache; writes optimized modules to
/// \p OutDir when non-empty. Returns the process exit code.
int runBatch(const std::string &BatchDir, unsigned Jobs,
             const std::string &OutDir, const PipelineConfig &Config,
             const ObsFiles &Obs) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  std::error_code Ec;
  for (const auto &Entry : fs::directory_iterator(BatchDir, Ec))
    if (Entry.is_regular_file() && Entry.path().extension() == ".sxir")
      Files.push_back(Entry.path());
  if (Ec) {
    std::fprintf(stderr, "sxetool: cannot read %s: %s\n", BatchDir.c_str(),
                 Ec.message().c_str());
    return 1;
  }
  if (Files.empty()) {
    std::fprintf(stderr, "sxetool: no .sxir files under %s\n",
                 BatchDir.c_str());
    return 1;
  }
  std::sort(Files.begin(), Files.end());

  if (!OutDir.empty())
    fs::create_directories(OutDir);

  CodeCache Cache;
  TraceCollector Trace;
  MetricsRegistry Metrics;
  CompileServiceOptions Options;
  Options.Jobs = Jobs;
  Options.Cache = &Cache;
  if (!Obs.TraceFile.empty())
    Options.Trace = &Trace;
  if (!Obs.MetricsFile.empty() || !Obs.MetricsJsonFile.empty())
    Options.Metrics = &Metrics;
  Options.PM.CollectRemarks = !Obs.RemarksFile.empty();
  CompileService Service(Options);

  Timer Elapsed;
  Elapsed.start();
  std::vector<std::future<CompileResult>> Futures;
  Futures.reserve(Files.size());
  for (const fs::path &File : Files) {
    std::ifstream In(File);
    std::ostringstream Buffer;
    Buffer << In.rdbuf();
    CompileRequest Request;
    Request.Name = File.filename().string();
    Request.Source = Buffer.str();
    Request.Config = Config;
    Request.Hotness = static_cast<double>(Request.Source.size());
    Futures.push_back(Service.enqueue(std::move(Request)));
  }

  unsigned Failures = 0;
  // Remarks concatenate in submission (Files) order, not completion
  // order, so the stream is byte-identical for any --jobs value.
  std::vector<Remark> BatchRemarks;
  for (size_t Index = 0; Index < Futures.size(); ++Index) {
    CompileResult Result = Futures[Index].get();
    if (Result.Ok && Options.PM.CollectRemarks)
      BatchRemarks.insert(BatchRemarks.end(), Result.Code->Remarks.begin(),
                          Result.Code->Remarks.end());
    if (!Result.Ok) {
      ++Failures;
      std::fprintf(stderr, "  %-28s FAILED: %s\n", Result.Name.c_str(),
                   Result.Error.c_str());
      continue;
    }
    std::fprintf(stderr, "  %-28s eliminated=%-5llu %s\n",
                 Result.Name.c_str(),
                 static_cast<unsigned long long>(
                     conversionsEliminated(Result.Code->Stats)),
                 Result.CacheHit ? "[cache hit]" : "");
    if (!OutDir.empty()) {
      fs::path OutPath = fs::path(OutDir) / Files[Index].filename();
      if (!writeTextFile(OutPath.string(), Result.Code->IRText)) {
        std::fprintf(stderr, "sxetool: cannot write %s\n",
                     OutPath.string().c_str());
        ++Failures;
      }
    }
  }
  Elapsed.stop();

  CodeCacheStats CStats = Cache.stats();
  double Seconds = Elapsed.elapsedSeconds();
  std::fprintf(stderr,
               "batch: %zu modules | jobs=%u | %.3fs | %.1f modules/s | "
               "cache %llu hit / %llu miss / %llu evicted | %u failed\n",
               Files.size(), Jobs, Seconds,
               Seconds > 0 ? static_cast<double>(Files.size()) / Seconds : 0.0,
               static_cast<unsigned long long>(CStats.Hits),
               static_cast<unsigned long long>(CStats.Misses),
               static_cast<unsigned long long>(CStats.Evictions), Failures);

  if (!writeObsArtifacts(Obs, &Trace, BatchRemarks, &Metrics))
    return 1;
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 1;
  }

  std::string FileName;
  Variant V = Variant::All;
  const TargetInfo *Target = &TargetInfo::ia64();
  uint32_t MaxLen = 0x7FFFFFFF;
  bool Run = false;
  bool Quiet = false;
  bool PrintStats = false;
  bool VerifyEach = false;
  std::string StatsJsonFile;
  std::string DumpDir;
  std::string RunFunc = "main";
  std::string BatchDir;
  std::string OutDir;
  unsigned Jobs = 1;
  ObsFiles Obs;

  for (int Index = 1; Index < argc; ++Index) {
    std::string Arg = argv[Index];
    if (Arg.rfind("--variant=", 0) == 0) {
      if (!variantByName(Arg.substr(10), V)) {
        std::fprintf(stderr, "unknown variant '%s'\n", Arg.c_str() + 10);
        usage();
        return 1;
      }
    } else if (Arg.rfind("--target=", 0) == 0) {
      Target = TargetInfo::byName(Arg.substr(9));
      if (!Target) {
        std::fprintf(stderr, "unknown target '%s'\n", Arg.c_str() + 9);
        usage();
        return 1;
      }
    } else if (Arg.rfind("--maxlen=", 0) == 0) {
      MaxLen = static_cast<uint32_t>(
          std::strtoul(Arg.c_str() + 9, nullptr, 0));
    } else if (Arg == "--run") {
      Run = true;
    } else if (Arg.rfind("--run=", 0) == 0) {
      Run = true;
      RunFunc = Arg.substr(6);
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--stats") {
      PrintStats = true;
    } else if (Arg.rfind("--stats-json=", 0) == 0) {
      StatsJsonFile = Arg.substr(13);
    } else if (Arg == "--verify-each") {
      VerifyEach = true;
    } else if (Arg.rfind("--dump-after-each=", 0) == 0) {
      DumpDir = Arg.substr(18);
    } else if (Arg.rfind("--batch=", 0) == 0) {
      BatchDir = Arg.substr(8);
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      Jobs = static_cast<unsigned>(std::strtoul(Arg.c_str() + 7, nullptr, 10));
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutDir = Arg.substr(6);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Obs.TraceFile = Arg.substr(8);
    } else if (Arg.rfind("--remarks=", 0) == 0) {
      Obs.RemarksFile = Arg.substr(10);
    } else if (Arg == "--metrics") {
      Obs.MetricsFile = "-";
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Obs.MetricsFile = Arg.substr(10);
    } else if (Arg.rfind("--metrics-json=", 0) == 0) {
      Obs.MetricsJsonFile = Arg.substr(15);
    } else if (Arg.rfind("--validate-obs=", 0) == 0) {
      return validateObsFile(Arg.substr(15));
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      usage();
      return 1;
    } else {
      FileName = Arg;
    }
  }
  if (!BatchDir.empty()) {
    PipelineConfig Config = PipelineConfig::forVariant(V, *Target);
    Config.MaxArrayLen = MaxLen;
    return runBatch(BatchDir, Jobs, OutDir, Config, Obs);
  }
  if (FileName.empty()) {
    usage();
    return 1;
  }

  std::ifstream In(FileName);
  if (!In) {
    std::fprintf(stderr, "sxetool: cannot open %s\n", FileName.c_str());
    return 1;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();

  ParseResult Parsed = parseModule(Buffer.str());
  if (!Parsed.ok()) {
    std::fprintf(stderr, "sxetool: parse error: %s\n", Parsed.Error.c_str());
    return 1;
  }
  std::vector<std::string> Problems;
  if (!verifyModule(*Parsed.M, Problems)) {
    std::fprintf(stderr, "sxetool: invalid module: %s\n",
                 Problems.front().c_str());
    return 1;
  }

  PipelineConfig Config = PipelineConfig::forVariant(V, *Target);
  Config.MaxArrayLen = MaxLen;

  TraceCollector Trace;
  MetricsRegistry Metrics;
  PassManagerOptions PMOptions;
  PMOptions.VerifyEach = VerifyEach;
  PMOptions.DumpDir = DumpDir;
  if (!Obs.TraceFile.empty())
    PMOptions.Trace = &Trace;
  PMOptions.CollectRemarks = !Obs.RemarksFile.empty();
  uint64_t CompileStart = wallNowNanos();
  InstrumentedPipelineResult Result =
      runInstrumentedPipeline(*Parsed.M, Config, PMOptions);
  if (!Obs.MetricsFile.empty() || !Obs.MetricsJsonFile.empty()) {
    Metrics.counter("sxe_compiles_total", "Pipeline runs completed").inc();
    Metrics
        .histogram("sxe_compile_latency_seconds",
                   "Wall time of one pipeline run")
        .observe(static_cast<double>(wallNowNanos() - CompileStart) * 1e-9);
  }
  if (!Result.Ok) {
    std::fprintf(stderr, "sxetool: verify-each: pass '%s' broke the module: %s\n",
                 Result.FailedPass.c_str(),
                 Result.Problems.empty() ? "unknown problem"
                                         : Result.Problems.front().c_str());
    return 3;
  }
  StaticExtensionCounts Counts = countStaticExtensions(*Parsed.M);
  std::fprintf(stderr,
               "variant: %s | target: %s | generated: %llu | inserted: %llu "
               "| eliminated: %llu | remaining static sxt: %llu | remaining "
               "conversions: %llu\n",
               variantName(V), Target->name().c_str(),
               static_cast<unsigned long long>(
                   Result.Stats.value("conversion64", "sext_generated")),
               static_cast<unsigned long long>(
                   Result.Stats.value("insertion", "sext_inserted")),
               static_cast<unsigned long long>(
                   conversionsEliminated(Result.Stats)),
               static_cast<unsigned long long>(Counts.totalSext()),
               static_cast<unsigned long long>(Counts.totalConversions()));

  if (PrintStats)
    std::fprintf(stderr, "%s",
                 statsReportTable(Result.Stats, Result.Timings).c_str());

  if (!StatsJsonFile.empty()) {
    StatsReportInfo Info;
    Info.ModuleName = Parsed.M->name();
    Info.VariantLabel = variantName(V);
    Info.TargetName = Target->name();
    Info.ChainCreationNanos = Result.ChainCreationNanos;
    std::string Json = statsReportJson(Result.Stats, Result.Timings, Info);
    if (StatsJsonFile == "-") {
      std::printf("%s", Json.c_str());
    } else if (!writeTextFile(StatsJsonFile, Json)) {
      std::fprintf(stderr, "sxetool: cannot write %s\n",
                   StatsJsonFile.c_str());
      return 1;
    }
  }

  if (!writeObsArtifacts(Obs, &Trace, Result.Remarks.remarks(), &Metrics))
    return 1;

  if (!Quiet)
    std::printf("%s", printModule(*Parsed.M).c_str());

  if (Run) {
    InterpOptions Options;
    Options.Target = Target;
    Options.MaxArrayLen = MaxLen;
    Interpreter Interp(*Parsed.M, Options);
    ExecResult R = Interp.run(RunFunc);
    std::fprintf(stderr,
                 "run %s: trap=%s result=%lld dynamic-sxt=%llu "
                 "dynamic-conv=%llu cycles=%llu\n",
                 RunFunc.c_str(), trapKindName(R.Trap),
                 static_cast<long long>(R.ReturnValue),
                 static_cast<unsigned long long>(R.totalExecutedSext()),
                 static_cast<unsigned long long>(R.totalExecutedConversions()),
                 static_cast<unsigned long long>(R.Cycles));
    return R.Trap == TrapKind::None ? 0 : 2;
  }
  return 0;
}
