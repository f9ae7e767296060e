//===- pm/PassStats.cpp - Named per-pass counters -----------------------------===//

#include "pm/PassStats.h"

using namespace sxe;

uint64_t &PassStats::counter(std::string_view Pass, std::string_view Name) {
  for (StatEntry &E : Entries)
    if (E.Name == Name && E.Pass == Pass)
      return E.Value;
  Entries.push_back(StatEntry{std::string(Pass), std::string(Name), 0});
  return Entries.back().Value;
}

uint64_t PassStats::value(std::string_view Pass, std::string_view Name) const {
  for (const StatEntry &E : Entries)
    if (E.Name == Name && E.Pass == Pass)
      return E.Value;
  return 0;
}

uint64_t PassStats::total(std::string_view Name) const {
  uint64_t Sum = 0;
  for (const StatEntry &E : Entries)
    if (E.Name == Name)
      Sum += E.Value;
  return Sum;
}
