//===- bench/bench_target_matrix.cpp - Four-target conversion matrix -----------===//
//
// The generalized cross-architecture view: per kernel, the dynamic count of
// *all* executed conversions (sign/zero extensions and truncations) on every
// modeled target at baseline and under the full algorithm. IA64 (explicit
// everything) anchors one end, PPC64 (implicit sign-extending loads) and
// x86-64 (implicit zero extension of every 32-bit result) show how much of
// the paper's win each form of implicit extension already provides.
//
// A second table, drawn from the same runs, is the paper's Section 1 point
// quantified: "sign extension elimination is even more important for
// those architectures lacking any implicit sign extension instruction"
// (IA64). It compares, per kernel, the dynamic 32-bit sign extensions on
// IA64 and PPC64 at baseline and under the full algorithm.
//
//===---------------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace sxe;
using namespace sxe::bench;

int main(int argc, char **argv) {
  BenchContext Ctx = parseBenchArgs("target_matrix", argc, argv);
  static const TargetInfo *Targets[] = {
      &TargetInfo::ia64(), &TargetInfo::ppc64(), &TargetInfo::generic64(),
      &TargetInfo::x86_64()};
  std::fprintf(stderr,
               "conversion matrix over %zu targets, scale=%u\n",
               std::size(Targets), Ctx.scale());

  std::printf("\nDynamic conversions (sext+zext+trunc): baseline -> new "
              "algorithm (all), per target\n");
  std::printf("%s", padRight("program", 14).c_str());
  for (const TargetInfo *T : Targets)
    std::printf(" | %s", padLeft(T->name(), 25).c_str());
  std::printf("\n");

  // One kernel's dynamic 32-bit sign extensions on the two paper targets.
  struct Sext32Row {
    const char *Name;
    uint64_t IA64Base = 0, PPCBase = 0, IA64All = 0, PPCAll = 0;
  };
  std::vector<Sext32Row> Sext32Rows;

  JsonWriter J;
  beginBenchReport(J, Ctx);
  J.key("results");
  J.beginArray();

  for (const Workload &W : allWorkloads()) {
    std::fprintf(stderr, "  %s...\n", W.Name);
    std::printf("%s", padRight(W.Name, 14).c_str());

    J.beginObject();
    J.keyValue("workload", W.Name);
    J.keyValue("suite", W.Suite);
    J.key("targets");
    J.beginArray();
    Sext32Row &Sext32 = Sext32Rows.emplace_back(Sext32Row{W.Name});
    for (const TargetInfo *T : Targets) {
      RunnerOptions Options;
      Options.Params.Scale = Ctx.scale();
      Options.Variants = {Variant::Baseline, Variant::All};
      Options.Target = T;
      WorkloadReport Report = runWorkload(W, Options);
      const VariantRow *Base = Report.row(Variant::Baseline);
      const VariantRow *All = Report.row(Variant::All);
      std::string Cell = formatWithCommas(Base->DynamicSextAll) + " -> " +
                         formatWithCommas(All->DynamicSextAll);
      if (!Base->ChecksumOK || !All->ChecksumOK)
        Cell += " !";
      std::printf(" | %s", padLeft(Cell, 25).c_str());
      if (T == &TargetInfo::ia64()) {
        Sext32.IA64Base = Base->DynamicSext32;
        Sext32.IA64All = All->DynamicSext32;
      } else if (T == &TargetInfo::ppc64()) {
        Sext32.PPCBase = Base->DynamicSext32;
        Sext32.PPCAll = All->DynamicSext32;
      }

      J.beginObject();
      J.keyValue("target", T->name());
      J.key("variants");
      J.beginArray();
      for (const VariantRow &Row : Report.Rows)
        emitVariantRowJson(J, Row);
      J.endArray();
      J.endObject();
    }
    J.endArray();
    J.endObject();
    std::printf("\n");
  }
  J.endArray();
  finishBenchReport(J, Ctx);
  std::printf("('!' marks a checksum mismatch; none should appear)\n");

  std::printf("\nDynamic 32-bit sign extensions: IA64 (no implicit "
              "extension) vs PPC64 (lwa/lha)\n");
  std::printf("%s | %s | %s | %s | %s\n", padRight("program", 14).c_str(),
              padLeft("ia64 baseline", 14).c_str(),
              padLeft("ppc64 baseline", 15).c_str(),
              padLeft("ia64 all", 12).c_str(),
              padLeft("ppc64 all", 12).c_str());
  for (const Sext32Row &Row : Sext32Rows)
    std::printf("%s | %s | %s | %s | %s\n", padRight(Row.Name, 14).c_str(),
                padLeft(formatWithCommas(Row.IA64Base), 14).c_str(),
                padLeft(formatWithCommas(Row.PPCBase), 15).c_str(),
                padLeft(formatWithCommas(Row.IA64All), 12).c_str(),
                padLeft(formatWithCommas(Row.PPCAll), 12).c_str());
  std::printf("(the elimination algorithm narrows the gap between the two "
              "architectures, the paper's motivation for IA64)\n");
  return 0;
}
