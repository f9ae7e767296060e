//===- obs/Metrics.cpp - Counters, gauges, latency histograms -----------------===//

#include "obs/Metrics.h"

#include "obs/TraceContext.h"
#include "support/Json.h"

#include <cassert>
#include <cstdio>

using namespace sxe;

Histogram::Histogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)),
      Counts(new std::atomic<uint64_t>[Bounds.size() + 1]),
      Exemplars(new std::atomic<uint64_t>[Bounds.size() + 1]) {
  for (size_t Index = 0; Index <= Bounds.size(); ++Index) {
    Counts[Index].store(0, std::memory_order_relaxed);
    Exemplars[Index].store(0, std::memory_order_relaxed);
  }
  for (size_t Index = 1; Index < Bounds.size(); ++Index)
    assert(Bounds[Index - 1] < Bounds[Index] &&
           "histogram bounds must ascend");
}

void Histogram::observe(double Value, uint64_t ExemplarTraceId) {
  size_t Index = 0;
  while (Index < Bounds.size() && Value > Bounds[Index])
    ++Index;
  Counts[Index].fetch_add(1, std::memory_order_relaxed);
  if (ExemplarTraceId)
    Exemplars[Index].store(ExemplarTraceId, std::memory_order_relaxed);
  Total.fetch_add(1, std::memory_order_relaxed);
  double Nano = Value * 1e9;
  SumNano.fetch_add(Nano > 0 ? static_cast<uint64_t>(Nano) : 0,
                    std::memory_order_relaxed);
}

double Histogram::sum() const {
  return static_cast<double>(SumNano.load(std::memory_order_relaxed)) * 1e-9;
}

std::vector<double> sxe::defaultLatencyBucketBounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
          2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0};
}

MetricsRegistry::Instrument &
MetricsRegistry::instrument(InstrumentKind Kind, const std::string &Name,
                            const std::string &Help,
                            std::vector<double> UpperBounds) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (Instrument &I : Instruments)
    if (I.Name == Name) {
      assert(I.Kind == Kind && "metric re-registered with another kind");
      return I;
    }
  Instruments.emplace_back();
  Instrument &I = Instruments.back();
  I.Kind = Kind;
  I.Name = Name;
  I.Help = Help;
  if (Kind == InstrumentKind::Histogram) {
    if (UpperBounds.empty())
      UpperBounds = defaultLatencyBucketBounds();
    I.TheHistogram = std::make_unique<Histogram>(std::move(UpperBounds));
  }
  return I;
}

Counter &MetricsRegistry::counter(const std::string &Name,
                                  const std::string &Help) {
  return instrument(InstrumentKind::Counter, Name, Help, {}).TheCounter;
}

Gauge &MetricsRegistry::gauge(const std::string &Name,
                              const std::string &Help) {
  return instrument(InstrumentKind::Gauge, Name, Help, {}).TheGauge;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      const std::string &Help,
                                      std::vector<double> UpperBounds) {
  return *instrument(InstrumentKind::Histogram, Name, Help,
                     std::move(UpperBounds))
              .TheHistogram;
}

void MetricsRegistry::setInfo(
    const std::string &Name,
    std::vector<std::pair<std::string, std::string>> Labels,
    const std::string &Help) {
  Instrument &I = instrument(InstrumentKind::Info, Name, Help, {});
  std::lock_guard<std::mutex> Lock(Mu);
  I.Labels = std::move(Labels);
}

/// Shortest round-trippable formatting for bounds/sums (Prometheus uses
/// plain decimal text).
static std::string formatDouble(double Value) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  // Prefer the shortest representation that round-trips.
  for (int Precision = 1; Precision < 17; ++Precision) {
    char Short[64];
    std::snprintf(Short, sizeof(Short), "%.*g", Precision, Value);
    double Back;
    std::sscanf(Short, "%lf", &Back);
    if (Back == Value)
      return Short;
  }
  return Buffer;
}

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", kMetricsSchema);

  J.key("counters");
  J.beginObject();
  for (const Instrument &I : Instruments)
    if (I.Kind == InstrumentKind::Counter)
      J.keyValue(I.Name, I.TheCounter.value());
  J.endObject();

  J.key("gauges");
  J.beginObject();
  for (const Instrument &I : Instruments)
    if (I.Kind == InstrumentKind::Gauge)
      J.keyValue(I.Name, static_cast<int64_t>(I.TheGauge.value()));
  J.endObject();

  J.key("histograms");
  J.beginObject();
  for (const Instrument &I : Instruments) {
    if (I.Kind != InstrumentKind::Histogram)
      continue;
    const Histogram &H = *I.TheHistogram;
    J.key(I.Name);
    J.beginObject();
    J.key("buckets");
    J.beginArray();
    for (size_t Index = 0; Index < H.bounds().size(); ++Index) {
      J.beginObject();
      J.keyValue("le", H.bounds()[Index]);
      J.keyValue("count", H.bucketCount(Index));
      if (uint64_t Exemplar = H.exemplarTraceId(Index))
        J.keyValue("exemplar_trace_id", traceIdHex(Exemplar));
      J.endObject();
    }
    J.endArray();
    J.keyValue("inf_count", H.bucketCount(H.bounds().size()));
    if (uint64_t Exemplar = H.exemplarTraceId(H.bounds().size()))
      J.keyValue("inf_exemplar_trace_id", traceIdHex(Exemplar));
    J.keyValue("sum", H.sum());
    J.keyValue("count", H.count());
    J.endObject();
  }
  J.endObject();

  J.key("info");
  J.beginObject();
  for (const Instrument &I : Instruments) {
    if (I.Kind != InstrumentKind::Info)
      continue;
    J.key(I.Name);
    J.beginObject();
    for (const auto &[Key, Value] : I.Labels)
      J.keyValue(Key, Value);
    J.endObject();
  }
  J.endObject();

  J.endObject();
  return J.str() + "\n";
}

std::string MetricsRegistry::toPrometheus() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  for (const Instrument &I : Instruments) {
    if (!I.Help.empty())
      Out += "# HELP " + I.Name + " " + I.Help + "\n";
    switch (I.Kind) {
    case InstrumentKind::Counter:
      Out += "# TYPE " + I.Name + " counter\n";
      Out += I.Name + " " + std::to_string(I.TheCounter.value()) + "\n";
      break;
    case InstrumentKind::Gauge:
      Out += "# TYPE " + I.Name + " gauge\n";
      Out += I.Name + " " + std::to_string(I.TheGauge.value()) + "\n";
      break;
    case InstrumentKind::Histogram: {
      const Histogram &H = *I.TheHistogram;
      Out += "# TYPE " + I.Name + " histogram\n";
      uint64_t Cumulative = 0;
      for (size_t Index = 0; Index < H.bounds().size(); ++Index) {
        Cumulative += H.bucketCount(Index);
        Out += I.Name + "_bucket{le=\"" + formatDouble(H.bounds()[Index]) +
               "\"} " + std::to_string(Cumulative) + "\n";
      }
      Cumulative += H.bucketCount(H.bounds().size());
      Out += I.Name + "_bucket{le=\"+Inf\"} " + std::to_string(Cumulative) +
             "\n";
      Out += I.Name + "_sum " + formatDouble(H.sum()) + "\n";
      Out += I.Name + "_count " + std::to_string(H.count()) + "\n";
      break;
    }
    case InstrumentKind::Info: {
      // Constant identity series: `name{k="v",...} 1` (conventionally
      // typed as a gauge).
      Out += "# TYPE " + I.Name + " gauge\n";
      Out += I.Name + "{";
      bool First = true;
      for (const auto &[Key, Value] : I.Labels) {
        if (!First)
          Out += ",";
        First = false;
        Out += Key + "=\"" + Value + "\"";
      }
      Out += "} 1\n";
      break;
    }
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Build identity
//===----------------------------------------------------------------------===//

#ifndef SXE_VERSION
#define SXE_VERSION "0.0.0"
#endif
#ifndef SXE_GIT_SHA
#define SXE_GIT_SHA "unknown"
#endif

const char *sxe::buildVersion() { return SXE_VERSION; }

const char *sxe::buildGitSha() { return SXE_GIT_SHA; }

const char *sxe::buildTargetLabel() {
#if defined(__linux__) && defined(__x86_64__)
  return "linux-x86_64";
#elif defined(__linux__) && defined(__aarch64__)
  return "linux-aarch64";
#elif defined(__APPLE__) && defined(__aarch64__)
  return "darwin-aarch64";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(__linux__)
  return "linux";
#else
  return "unknown";
#endif
}

Gauge &sxe::registerBuildInfoMetrics(MetricsRegistry &Registry) {
  Registry.setInfo("sxe_build_info",
                   {{"version", buildVersion()},
                    {"git_sha", buildGitSha()},
                    {"target", buildTargetLabel()}},
                   "Build identity of the running daemon");
  return Registry.gauge("sxe_uptime_seconds",
                        "Seconds since the daemon started");
}
