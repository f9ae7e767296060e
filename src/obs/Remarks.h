//===- obs/Remarks.h - Structured optimization remarks -----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-remarks-style structured records answering the question the
/// counters cannot: *why was this particular extension kept?* The
/// elimination phase emits one record per analyzed extension — which
/// decision was taken, which analysis (AnalyzeUSE / AnalyzeDEF) proved
/// it, which of the paper's Theorems 1-4 fired for its array subscripts,
/// and for retained extensions the blocking instruction — while the
/// generation-side passes (conversion64, insertion) emit per-function
/// generation/insertion summaries.
///
/// Serialization is JSON Lines under the schema tag `sxe.remarks.v1`:
/// the first line of a stream is the header record, every following line
/// one remark. Records carry no timestamps, so a remarks file is
/// byte-deterministic for a fixed module and pipeline configuration — the
/// golden files under tests/golden/ lock this.
///
/// Concurrency model mirrors pm/PassStats.h: a RemarkCollector instance
/// is single-threaded by design; every concurrent pipeline run owns a
/// private collector. The compile service renders the finished run's
/// remarks once (RemarkCollector::take) and keeps that stream in the
/// cached artifact: a serve reply splices it, the persistent tier stores
/// it, and batch drivers concatenate it in deterministic submission order
/// regardless of worker count. Nothing parses it back.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OBS_REMARKS_H
#define SXE_OBS_REMARKS_H

#include <cstdint>
#include <string>
#include <vector>

namespace sxe {

/// Schema tag of the JSONL stream's header record.
inline constexpr const char *kRemarksSchema = "sxe.remarks.v1";

/// Sentinel instruction id for function-level summary records.
inline constexpr uint32_t kRemarkNoInst = ~static_cast<uint32_t>(0);

/// What the emitting pass decided about the subject extension(s).
enum class RemarkDecision : uint8_t {
  Generated,  ///< conversion64 created extensions in this function.
  Inserted,   ///< insertion placed extensions (phase 3-1).
  Moved,      ///< Hoisted extensions; part of the schema, emitted by no pass.
  Eliminated, ///< elimination removed this extension.
  Retained,   ///< elimination analyzed this extension and kept it.
};

/// Which analysis discharged an eliminated extension.
enum class RemarkAnalysis : uint8_t {
  None, ///< Not applicable (summary records, retained extensions).
  Use,  ///< AnalyzeUSE: no use needs the extended bits.
  Def,  ///< AnalyzeDEF: every reaching definition is already extended.
};

const char *remarkDecisionName(RemarkDecision Decision);
const char *remarkAnalysisName(RemarkAnalysis Analysis);

/// One structured remark record.
struct Remark {
  std::string Pass;     ///< Emitting pass name ("elimination", ...).
  std::string Function; ///< Enclosing function.
  uint32_t InstId = kRemarkNoInst; ///< Subject instruction (per-inst records).
  std::string Op;                  ///< Subject mnemonic ("sext32", ...).
  RemarkDecision Decision = RemarkDecision::Retained;
  RemarkAnalysis Analysis = RemarkAnalysis::None;
  /// Number of extensions the record covers (1 for per-instruction
  /// records, the per-function total for generation/hoist summaries).
  uint64_t Count = 1;
  /// Retained only: why, and which use blocked the elimination.
  std::string Reason;
  uint32_t BlockingInst = kRemarkNoInst;
  std::string BlockingOp;
  /// AnalyzeARRAY attribution for this extension: how many of its array
  /// subscript definitions each Section 3 argument discharged. Summing a
  /// field over a module's remarks reproduces the matching pass counter
  /// (theorem1_fired ... theorem4_fired), which corpus_replay_test locks.
  uint64_t SubscriptExtended = 0;
  uint64_t Theorem1 = 0;
  uint64_t Theorem2 = 0;
  uint64_t Theorem3 = 0;
  uint64_t Theorem4 = 0;
  uint64_t ArrayUsesProven = 0;
};

/// Accumulates the remarks of one pipeline run, in emission order.
class RemarkCollector {
public:
  void add(Remark R) { Remarks.push_back(std::move(R)); }
  const std::vector<Remark> &remarks() const { return Remarks; }
  /// Renders the collected remarks as one sxe.remarks.v1 stream (the
  /// header line alone when there are none), sized to fit, and empties
  /// the collector.
  std::string take();
  size_t size() const { return Remarks.size(); }
  bool empty() const { return Remarks.empty(); }

private:
  std::vector<Remark> Remarks;
};

/// The JSONL header line (schema record), newline-terminated.
std::string remarksHeaderLine();

/// Renders a whole stream: header line plus one line per remark, each a
/// single compact JSON line, newline-terminated. Fields with default
/// values (empty strings, zero theorem counts, sentinel ids) are omitted
/// so the stream stays dense.
std::string remarksToJsonl(const std::vector<Remark> &Remarks);

} // namespace sxe

#endif // SXE_OBS_REMARKS_H
