//===- pm/Report.cpp - Machine-readable pass statistics reports ---------------===//

#include "pm/Report.h"

#include "support/Format.h"
#include "support/Json.h"

#include <map>

using namespace sxe;

static const char *groupLabel(Pass::Group G) {
  switch (G) {
  case Pass::Group::Conversion:
    return "conversion";
  case Pass::Group::GeneralOpts:
    return "general-opts";
  case Pass::Group::SignExt:
    return "sign-ext";
  }
  return "sign-ext";
}

std::string sxe::statsReportJson(const PassStats &Stats,
                                 const std::vector<PassTiming> &Timings,
                                 const StatsReportInfo &Info) {
  auto Nanos = [&](uint64_t N) { return Info.IncludeTimings ? N : 0; };

  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", "sxe.pass-stats.v1");
  J.keyValue("module", Info.ModuleName);
  J.keyValue("variant", Info.VariantLabel);
  J.keyValue("target", Info.TargetName);

  J.key("passes");
  J.beginArray();
  for (const PassTiming &T : Timings) {
    J.beginObject();
    J.keyValue("name", T.Name);
    J.keyValue("group", groupLabel(T.Group));
    J.keyValue("runs", static_cast<uint64_t>(T.Runs));
    J.keyValue("wall_ns", Nanos(T.WallNanos));
    J.keyValue("cpu_ns", Nanos(T.CpuNanos));
    J.key("counters");
    J.beginObject();
    for (const StatEntry &E : Stats.entries())
      if (E.Pass == T.Name)
        J.keyValue(E.Name, E.Value);
    J.endObject();
    J.endObject();
  }
  J.endArray();

  uint64_t TotalWall = 0, TotalCpu = 0;
  for (const PassTiming &T : Timings) {
    TotalWall += T.WallNanos;
    TotalCpu += T.CpuNanos;
  }
  J.key("totals");
  J.beginObject();
  J.keyValue("wall_ns", Nanos(TotalWall));
  J.keyValue("cpu_ns", Nanos(TotalCpu));
  J.keyValue("chain_creation_ns", Nanos(Info.ChainCreationNanos));
  J.key("counters");
  J.beginObject();
  // Summed by counter name; alphabetical so the rollup is stable no
  // matter which passes registered which counters first.
  std::map<std::string, uint64_t> Rollup;
  for (const StatEntry &E : Stats.entries())
    Rollup[E.Name] += E.Value;
  for (const auto &[Name, Value] : Rollup)
    J.keyValue(Name, Value);
  J.endObject();
  J.endObject();

  J.endObject();
  return J.str() + "\n";
}

std::string sxe::statsReportTable(const PassStats &Stats,
                                  const std::vector<PassTiming> &Timings) {
  std::string Out;
  Out += padRight("pass", 20) + " | " + padLeft("wall ms", 9) + " | " +
         padLeft("cpu ms", 9) + " | counters\n";
  for (const PassTiming &T : Timings) {
    Out += padRight(T.Name, 20) + " | " +
           padLeft(formatFixed(T.WallNanos * 1e-6, 3), 9) + " | " +
           padLeft(formatFixed(T.CpuNanos * 1e-6, 3), 9) + " | ";
    bool First = true;
    for (const StatEntry &E : Stats.entries()) {
      if (E.Pass != T.Name)
        continue;
      if (!First)
        Out += ", ";
      First = false;
      Out += E.Name + "=" + formatWithCommas(E.Value);
    }
    if (First)
      Out += "-";
    Out += "\n";
  }
  return Out;
}
