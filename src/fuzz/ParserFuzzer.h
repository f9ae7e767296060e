//===- fuzz/ParserFuzzer.h - Byte-level parser fuzz driver -------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A byte-level fuzzer for the `.sxir` parser: feeds it adversarial input
/// and asserts it never crashes — every input must come back as either a
/// parsed module or a diagnostic. Inputs are drawn from four generators:
///
///   - raw random bytes (including NUL and high-bit bytes);
///   - printable ASCII noise;
///   - token soup assembled from the format's keyword vocabulary;
///   - mutated valid modules: RandomModuleGenerator output printed to
///     text, then corrupted by byte flips, truncation, and splicing.
///
/// Modules the parser accepts are additionally pushed through the
/// verifier and the printer, so a parse that fabricates malformed IR
/// trips an assert here rather than in a downstream consumer.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_FUZZ_PARSERFUZZER_H
#define SXE_FUZZ_PARSERFUZZER_H

#include "support/RNG.h"

#include <cstdint>
#include <string>

namespace sxe {

struct ParserFuzzOptions {
  size_t MaxBytes = 2048;  ///< Upper bound on a single input's length.
  bool MutateValid = true; ///< Include corrupted valid-module inputs.
};

struct ParserFuzzStats {
  uint64_t Inputs = 0;
  uint64_t Accepted = 0; ///< Inputs the parser turned into a module.
  uint64_t Rejected = 0; ///< Inputs that produced a diagnostic.
  uint64_t Verified = 0; ///< Accepted modules that also passed the verifier.
};

/// Produces one fuzz input using \p R (exposed so tests can replay a
/// specific input mode deterministically).
std::string makeParserFuzzInput(RNG &R, const ParserFuzzOptions &Options);

/// Runs \p Inputs generated inputs through parseModule. Returns true if
/// every input completed (the process not crashing is the real
/// assertion); accepted modules must also survive verification and
/// printing. Deterministic in (\p Seed, \p Options).
bool runParserFuzz(uint64_t Seed, uint64_t Inputs,
                   const ParserFuzzOptions &Options = ParserFuzzOptions(),
                   ParserFuzzStats *Stats = nullptr);

} // namespace sxe

#endif // SXE_FUZZ_PARSERFUZZER_H
