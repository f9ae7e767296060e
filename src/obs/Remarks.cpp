//===- obs/Remarks.cpp - Structured optimization remarks ----------------------===//

#include "obs/Remarks.h"

#include "support/Json.h"

using namespace sxe;

const char *sxe::remarkDecisionName(RemarkDecision Decision) {
  switch (Decision) {
  case RemarkDecision::Generated:
    return "generated";
  case RemarkDecision::Inserted:
    return "inserted";
  case RemarkDecision::Moved:
    return "moved";
  case RemarkDecision::Eliminated:
    return "eliminated";
  case RemarkDecision::Retained:
    return "retained";
  }
  return "retained";
}

const char *sxe::remarkAnalysisName(RemarkAnalysis Analysis) {
  switch (Analysis) {
  case RemarkAnalysis::None:
    return "";
  case RemarkAnalysis::Use:
    return "use";
  case RemarkAnalysis::Def:
    return "def";
  }
  return "";
}

std::string sxe::remarksHeaderLine() {
  return std::string("{\"schema\": \"") + kRemarksSchema + "\"}\n";
}

/// Appends `, "key": ` (or the bare `"key": ` when \p First).
static void fieldKey(std::string &Out, bool &First, const char *Key) {
  if (!First)
    Out += ", ";
  First = false;
  Out += '"';
  Out += Key;
  Out += "\": ";
}

static void strField(std::string &Out, bool &First, const char *Key,
                     std::string_view Value) {
  fieldKey(Out, First, Key);
  JsonWriter::appendQuoted(Out, Value);
}

static void numField(std::string &Out, bool &First, const char *Key,
                     uint64_t Value) {
  fieldKey(Out, First, Key);
  Out += std::to_string(Value);
}

std::string sxe::remarkToJsonLine(const Remark &R) {
  std::string Out = "{";
  bool First = true;
  strField(Out, First, "pass", R.Pass);
  strField(Out, First, "function", R.Function);
  if (R.InstId != kRemarkNoInst)
    numField(Out, First, "inst", R.InstId);
  if (!R.Op.empty())
    strField(Out, First, "op", R.Op);
  strField(Out, First, "decision", remarkDecisionName(R.Decision));
  if (R.Analysis != RemarkAnalysis::None)
    strField(Out, First, "analysis", remarkAnalysisName(R.Analysis));
  if (R.Count != 1)
    numField(Out, First, "count", R.Count);
  if (!R.Reason.empty())
    strField(Out, First, "reason", R.Reason);
  if (R.BlockingInst != kRemarkNoInst)
    numField(Out, First, "blocking_inst", R.BlockingInst);
  if (!R.BlockingOp.empty())
    strField(Out, First, "blocking_op", R.BlockingOp);
  if (R.SubscriptExtended)
    numField(Out, First, "subscript_extended", R.SubscriptExtended);
  if (R.Theorem1)
    numField(Out, First, "theorem1", R.Theorem1);
  if (R.Theorem2)
    numField(Out, First, "theorem2", R.Theorem2);
  if (R.Theorem3)
    numField(Out, First, "theorem3", R.Theorem3);
  if (R.Theorem4)
    numField(Out, First, "theorem4", R.Theorem4);
  if (R.ArrayUsesProven)
    numField(Out, First, "array_uses_proven", R.ArrayUsesProven);
  Out += "}\n";
  return Out;
}

std::string sxe::remarksToJsonl(const std::vector<Remark> &Remarks) {
  std::string Out = remarksHeaderLine();
  for (const Remark &R : Remarks)
    Out += remarkToJsonLine(R);
  return Out;
}

static bool decisionByName(const std::string &Name, RemarkDecision &Out) {
  static const RemarkDecision All[] = {
      RemarkDecision::Generated, RemarkDecision::Inserted,
      RemarkDecision::Moved, RemarkDecision::Eliminated,
      RemarkDecision::Retained};
  for (RemarkDecision D : All)
    if (Name == remarkDecisionName(D)) {
      Out = D;
      return true;
    }
  return false;
}

static bool analysisByName(const std::string &Name, RemarkAnalysis &Out) {
  static const RemarkAnalysis All[] = {RemarkAnalysis::None,
                                       RemarkAnalysis::Use,
                                       RemarkAnalysis::Def};
  for (RemarkAnalysis A : All)
    if (Name == remarkAnalysisName(A)) {
      Out = A;
      return true;
    }
  return false;
}

bool sxe::remarkFromJsonLine(const std::string &Line, Remark &Out,
                             std::string &Error) {
  JsonValue V;
  if (!parseJson(Line, V, Error))
    return false;
  if (!V.isObject()) {
    Error = "remark line is not a JSON object";
    return false;
  }
  Out = Remark();
  Out.Pass = V.stringField("pass");
  Out.Function = V.stringField("function");
  Out.InstId = static_cast<uint32_t>(V.uint64Field("inst", kRemarkNoInst));
  Out.Op = V.stringField("op");
  if (!decisionByName(V.stringField("decision"), Out.Decision)) {
    Error = "unknown remark decision '" + V.stringField("decision") + "'";
    return false;
  }
  if (!analysisByName(V.stringField("analysis"), Out.Analysis)) {
    Error = "unknown remark analysis '" + V.stringField("analysis") + "'";
    return false;
  }
  Out.Count = V.uint64Field("count", 1);
  Out.Reason = V.stringField("reason");
  Out.BlockingInst =
      static_cast<uint32_t>(V.uint64Field("blocking_inst", kRemarkNoInst));
  Out.BlockingOp = V.stringField("blocking_op");
  Out.SubscriptExtended = V.uint64Field("subscript_extended");
  Out.Theorem1 = V.uint64Field("theorem1");
  Out.Theorem2 = V.uint64Field("theorem2");
  Out.Theorem3 = V.uint64Field("theorem3");
  Out.Theorem4 = V.uint64Field("theorem4");
  Out.ArrayUsesProven = V.uint64Field("array_uses_proven");
  return true;
}
