//===- obs/Metrics.h - Counters, gauges, latency histograms ------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service-level metrics registry: named counters, gauges, and
/// fixed-bucket latency histograms, exported as both a JSON document
/// (`sxe.metrics.v1`) and the Prometheus text exposition format.
///
/// Hot-path discipline: instruments are registered once (allocation,
/// under the registry mutex) and then updated through stable handles with
/// relaxed atomics — no allocation, no lock. Histograms carry their
/// bucket bounds from registration; observe() is a branchless-enough
/// linear scan over a handful of bounds plus two atomic adds.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_OBS_METRICS_H
#define SXE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sxe {

/// Schema tag of the JSON export.
inline constexpr const char *kMetricsSchema = "sxe.metrics.v1";

/// Monotonically increasing count.
class Counter {
public:
  void inc(uint64_t Delta = 1) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<uint64_t> Value{0};
};

/// Instantaneous level (queue depth, cache entries).
class Gauge {
public:
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  void add(int64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
  }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  std::atomic<int64_t> Value{0};
};

/// Fixed-bucket histogram. Bucket \p i counts observations in
/// (bound[i-1], bound[i]]; one extra bucket counts everything above the
/// last bound (+Inf in the Prometheus exposition).
///
/// Each bucket can additionally carry a latency *exemplar*: the trace id
/// of one request that actually landed in it (last writer wins, one
/// relaxed store — no extra synchronization on the hot path). Exemplars
/// turn a histogram from "p99 got worse" into "here is a request to go
/// look at": the JSON export carries them, and tools/sxe-obs joins them
/// back to the trace and event artifacts.
class Histogram {
public:
  explicit Histogram(std::vector<double> UpperBounds);

  Histogram(const Histogram &) = delete;
  Histogram &operator=(const Histogram &) = delete;

  /// Records one observation. Lock-free, allocation-free. A non-zero
  /// \p ExemplarTraceId is remembered as the bucket's exemplar.
  void observe(double Value, uint64_t ExemplarTraceId = 0);

  const std::vector<double> &bounds() const { return Bounds; }
  /// Count in bucket \p Index (Index == bounds().size() is the overflow
  /// bucket).
  uint64_t bucketCount(size_t Index) const {
    return Counts[Index].load(std::memory_order_relaxed);
  }
  /// The bucket's most recent exemplar trace id (0 when none was ever
  /// observed with one).
  uint64_t exemplarTraceId(size_t Index) const {
    return Exemplars[Index].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return Total.load(std::memory_order_relaxed); }
  double sum() const;

private:
  friend class MetricsRegistry;
  std::vector<double> Bounds;
  std::unique_ptr<std::atomic<uint64_t>[]> Counts;
  std::unique_ptr<std::atomic<uint64_t>[]> Exemplars;
  std::atomic<uint64_t> Total{0};
  /// Sum in nanounits (fixed point, 1e-9 of the observed unit) so the
  /// accumulation is a single atomic add instead of a CAS loop on a
  /// double. Latencies are observed in seconds, so this holds ~584 years
  /// before wrapping.
  std::atomic<uint64_t> SumNano{0};
};

/// Default exponential latency bounds in seconds (100us .. 10s), tuned
/// for per-module compile times.
std::vector<double> defaultLatencyBucketBounds();

/// Named instrument registry. Names must match the Prometheus metric
/// grammar `[a-zA-Z_:][a-zA-Z0-9_:]*`; registration order is preserved in
/// both exports.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// Returns the instrument named \p Name, registering it on first use.
  /// The returned reference stays valid for the registry's lifetime.
  /// Re-registering an existing name returns the existing instrument
  /// (the help text of the first registration wins).
  Counter &counter(const std::string &Name, const std::string &Help = "");
  Gauge &gauge(const std::string &Name, const std::string &Help = "");
  Histogram &histogram(const std::string &Name,
                       const std::string &Help = "",
                       std::vector<double> UpperBounds = {});

  /// Registers (or replaces the labels of) an *info* metric: a constant
  /// `1`-valued series whose identity lives in its labels — the
  /// Prometheus `foo_info{key="value"} 1` convention used for
  /// `sxe_build_info`. Rendered in the JSON export under "info" as an
  /// object of the label pairs.
  void setInfo(const std::string &Name,
               std::vector<std::pair<std::string, std::string>> Labels,
               const std::string &Help = "");

  /// Renders {"schema":"sxe.metrics.v1","counters":...,"gauges":...,
  /// "histograms":...} in registration order.
  std::string toJson() const;

  /// Renders the Prometheus text exposition format (# HELP / # TYPE
  /// comments, cumulative `_bucket{le="..."}` series, `_sum`, `_count`).
  std::string toPrometheus() const;

private:
  enum class InstrumentKind : uint8_t { Counter, Gauge, Histogram, Info };

  struct Instrument {
    InstrumentKind Kind;
    std::string Name;
    std::string Help;
    Counter TheCounter;
    Gauge TheGauge;
    std::unique_ptr<Histogram> TheHistogram;
    /// Info-kind label pairs (constant identity series).
    std::vector<std::pair<std::string, std::string>> Labels;
  };

  Instrument &instrument(InstrumentKind Kind, const std::string &Name,
                         const std::string &Help,
                         std::vector<double> UpperBounds);

  mutable std::mutex Mu;
  /// Deque: handles must stay valid across registrations.
  std::deque<Instrument> Instruments;
};

/// Version string baked in at configure time (CMake project version).
const char *buildVersion();
/// Short git revision baked in at configure time ("unknown" outside a
/// checkout).
const char *buildGitSha();
/// Host platform label ("linux-x86_64", ...).
const char *buildTargetLabel();

/// Registers the identity metrics every scraped daemon should expose:
/// the `sxe_build_info{version=...,git_sha=...,target=...} 1` info
/// series and the `sxe_uptime_seconds` gauge (returned so the owner can
/// keep it current at export points).
Gauge &registerBuildInfoMetrics(MetricsRegistry &Registry);

} // namespace sxe

#endif // SXE_OBS_METRICS_H
