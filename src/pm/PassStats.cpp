//===- pm/PassStats.cpp - Named per-pass counters -----------------------------===//

#include "pm/PassStats.h"

using namespace sxe;

uint64_t &PassStats::counter(const std::string &Pass,
                             const std::string &Name) {
  std::string Key = keyOf(Pass, Name);
  auto It = Index.find(Key);
  if (It != Index.end())
    return Entries[It->second].Value;
  Index.emplace(std::move(Key), Entries.size());
  Entries.push_back(StatEntry{Pass, Name, 0});
  return Entries.back().Value;
}

uint64_t PassStats::value(const std::string &Pass,
                          const std::string &Name) const {
  auto It = Index.find(keyOf(Pass, Name));
  return It == Index.end() ? 0 : Entries[It->second].Value;
}

uint64_t PassStats::total(const std::string &Name) const {
  uint64_t Sum = 0;
  for (const StatEntry &E : Entries)
    if (E.Name == Name)
      Sum += E.Value;
  return Sum;
}
