//===- pm/PassStats.h - Named per-pass counters ------------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter registry behind the pass-manager instrumentation: every
/// pass registers named counters (`sext_eliminated`, `dummy_added`,
/// `theorem4_fired`, ...) on first use via the SXE_PASS_STAT macro, and
/// the registry preserves registration order so reports and goldens are
/// deterministic. Counters are plain uint64_t cells owned by the registry
/// instance — no globals, so concurrent pipelines over different modules
/// do not share state (cf. redream's DEFINE_PASS_STAT, which this layer
/// deliberately instancifies).
///
/// Storage: one insertion-ordered vector, no index. Lookups scan it (a
/// pipeline registers about 20 counters), so a bump allocates nothing
/// once its counter exists.
///
/// Concurrency model: a PassStats instance is single-threaded by design.
/// SXE_PASS_STAT stays a bare `uint64_t&` bump — no atomics on the pass
/// hot path — because every concurrent pipeline run owns a private
/// registry (runInstrumentedPipeline creates one per call). The registry
/// is the run's only copy of its counters: it travels with the run's
/// artifact (jit/CompiledCode::Stats).
///
//===----------------------------------------------------------------------===//

#ifndef SXE_PM_PASSSTATS_H
#define SXE_PM_PASSSTATS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sxe {

/// One registered counter: which pass owns it, its name, and its value.
struct StatEntry {
  std::string Pass;
  std::string Name;
  uint64_t Value = 0;
};

/// Registry of named per-pass counters.
class PassStats {
public:
  /// Returns the counter cell for (\p Pass, \p Name), registering it at
  /// the end of the entry list on first use. The reference stays valid
  /// only until the next registration: use it at once, never hold it.
  uint64_t &counter(std::string_view Pass, std::string_view Name);

  /// Returns the value of (\p Pass, \p Name), or 0 if never registered.
  uint64_t value(std::string_view Pass, std::string_view Name) const;

  /// All counters in registration order.
  const std::vector<StatEntry> &entries() const { return Entries; }

  /// Sums every counter named \p Name across passes (e.g. the total
  /// `sext_eliminated` over elimination engines).
  uint64_t total(std::string_view Name) const;

private:
  std::vector<StatEntry> Entries;
};

/// Bumps a named counter for the current pass from inside a Pass member
/// function: `SXE_PASS_STAT(Ctx, sext_eliminated) += N;`. The counter is
/// registered under this pass's name() on first use.
#define SXE_PASS_STAT(Ctx, StatName)                                          \
  ((Ctx).stats().counter(this->name(), #StatName))

} // namespace sxe

#endif // SXE_PM_PASSSTATS_H
