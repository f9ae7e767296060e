//===- sxe/Pipeline.h - The full compilation pipeline ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives Figure 5's three steps over a module and exposes exactly the
/// twelve configurations the paper measures in Tables 1 and 2:
///
///   baseline / gen use (reference) / first algorithm (bwd flow) /
///   basic ud-du / insert / order / insert,order / array / array,insert /
///   array,order / all,using PDE (reference) / new algorithm (all)
///
/// runInstrumentedPipeline (pm/InstrumentedPipeline.h) executes a
/// configuration as a pass stack and reports its named per-pass counters
/// (pm/PassStats.h) and per-pass wall/CPU timers, from which Table 3's
/// compilation-time breakdown is derived.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SXE_PIPELINE_H
#define SXE_SXE_PIPELINE_H

#include "analysis/ProfileInfo.h"
#include "ir/Module.h"
#include "sxe/Conversion64.h"
#include "target/TargetInfo.h"

#include <cstdint>
#include <string>

namespace sxe {

/// The algorithm variants of Tables 1 and 2, in the paper's row order.
enum class Variant : uint8_t {
  Baseline,       ///< Disable sign extension optimizations (Figure 5(3)).
  GenUse,         ///< Reference: extensions before use points, no step 3.
  FirstAlgorithm, ///< Backward dataflow elimination.
  BasicUdDu,      ///< UD/DU elimination; no insert/order/array.
  Insert,         ///< + simple insertion only.
  Order,          ///< + order determination only.
  InsertOrder,    ///< + insertion and order determination.
  Array,          ///< + array theorems only.
  ArrayInsert,    ///< + array theorems and insertion.
  ArrayOrder,     ///< + array theorems and order determination.
  AllPDE,         ///< Reference: everything, PDE-variant insertion.
  All,            ///< New algorithm (all).
};

constexpr unsigned NumVariants = 12;

/// All variants in table row order.
extern const Variant AllVariants[NumVariants];

/// The paper's row label for \p V ("new algorithm (all)", ...).
const char *variantName(Variant V);

/// The variant whose variantName() is \p Name, or one of the shorthands
/// "all", "baseline", "first", "basic" and "array". False (and \p Out
/// untouched) when \p Name is neither.
bool variantByName(const std::string &Name, Variant &Out);

/// How step 3 eliminates extensions.
enum class EliminationEngine : uint8_t {
  None,         ///< Step 3 disabled (baseline, gen use).
  BackwardFlow, ///< The first algorithm.
  UdDu,         ///< The paper's new algorithm.
};

/// Full pipeline configuration.
struct PipelineConfig {
  const TargetInfo *Target = &TargetInfo::ia64();
  GenPolicy Gen = GenPolicy::AfterDef;
  bool GeneralOpts = true; ///< Figure 5 step 2.
  EliminationEngine Engine = EliminationEngine::UdDu;
  bool EnableInsertion = false;
  bool UsePDEInsertion = false;
  bool EnableOrder = false;
  bool EnableArrayTheorems = false;
  uint32_t MaxArrayLen = 0x7FFFFFFF;
  const ProfileInfo *Profile = nullptr; ///< For order determination.
  // Ablation toggles (DESIGN.md section 8).
  bool EnableDummies = true;        ///< just_extended markers.
  bool EnableGuardRanges = true;    ///< Branch-guard range refinement.
  bool EnableInductiveArith = true; ///< Inductive add/sub/mul rule.

  /// The configuration for one of the paper's measured rows.
  static PipelineConfig forVariant(Variant V,
                                   const TargetInfo &Target =
                                       TargetInfo::ia64());
};

} // namespace sxe

#endif // SXE_SXE_PIPELINE_H
