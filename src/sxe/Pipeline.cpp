//===- sxe/Pipeline.cpp - The full compilation pipeline -----------------------===//
//
// Variant naming and configuration only. The execution engine lives in
// pm/InstrumentedPipeline.cpp: every phase runs as a Pass under the
// instrumented PassManager.
//
//===----------------------------------------------------------------------------===//

#include "sxe/Pipeline.h"

#include "support/Error.h"

using namespace sxe;

const Variant sxe::AllVariants[NumVariants] = {
    Variant::Baseline,    Variant::GenUse,      Variant::FirstAlgorithm,
    Variant::BasicUdDu,   Variant::Insert,      Variant::Order,
    Variant::InsertOrder, Variant::Array,       Variant::ArrayInsert,
    Variant::ArrayOrder,  Variant::AllPDE,      Variant::All,
};

const char *sxe::variantName(Variant V) {
  switch (V) {
  case Variant::Baseline:
    return "baseline";
  case Variant::GenUse:
    return "gen use (reference)";
  case Variant::FirstAlgorithm:
    return "first algorithm (bwd flow)";
  case Variant::BasicUdDu:
    return "basic ud/du";
  case Variant::Insert:
    return "insert";
  case Variant::Order:
    return "order";
  case Variant::InsertOrder:
    return "insert, order";
  case Variant::Array:
    return "array";
  case Variant::ArrayInsert:
    return "array, insert";
  case Variant::ArrayOrder:
    return "array, order";
  case Variant::AllPDE:
    return "all, using PDE (reference)";
  case Variant::All:
    return "new algorithm (all)";
  }
  sxeUnreachable("invalid Variant enumerator");
}

PipelineConfig PipelineConfig::forVariant(Variant V,
                                          const TargetInfo &Target) {
  PipelineConfig Config;
  Config.Target = &Target;
  switch (V) {
  case Variant::Baseline:
    Config.Engine = EliminationEngine::None;
    break;
  case Variant::GenUse:
    Config.Gen = GenPolicy::BeforeUse;
    Config.Engine = EliminationEngine::None;
    break;
  case Variant::FirstAlgorithm:
    Config.Engine = EliminationEngine::BackwardFlow;
    break;
  case Variant::BasicUdDu:
    break;
  case Variant::Insert:
    Config.EnableInsertion = true;
    break;
  case Variant::Order:
    Config.EnableOrder = true;
    break;
  case Variant::InsertOrder:
    Config.EnableInsertion = true;
    Config.EnableOrder = true;
    break;
  case Variant::Array:
    Config.EnableArrayTheorems = true;
    break;
  case Variant::ArrayInsert:
    Config.EnableArrayTheorems = true;
    Config.EnableInsertion = true;
    break;
  case Variant::ArrayOrder:
    Config.EnableArrayTheorems = true;
    Config.EnableOrder = true;
    break;
  case Variant::AllPDE:
    Config.EnableArrayTheorems = true;
    Config.EnableInsertion = true;
    Config.UsePDEInsertion = true;
    Config.EnableOrder = true;
    break;
  case Variant::All:
    Config.EnableArrayTheorems = true;
    Config.EnableInsertion = true;
    Config.EnableOrder = true;
    break;
  }
  return Config;
}
