#include "obs/export.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>

#include "obs/metrics.h"

namespace tinprov::obs {

namespace {

/// "ingest.batch_ns" -> "tinprov_ingest_batch_ns".
std::string PrometheusName(const std::string& name) {
  std::string out = "tinprov_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    out += (std::isalnum(uc) != 0) ? c : '_';
  }
  return out;
}

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string PrometheusText() {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  std::string out;

  for (const auto& [name, value] : registry.CounterValues()) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, snapshot] : registry.HistogramSnapshots()) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} " + FormatDouble(snapshot.p50) + "\n";
    out += prom + "{quantile=\"0.9\"} " + FormatDouble(snapshot.p90) + "\n";
    out += prom + "{quantile=\"0.99\"} " + FormatDouble(snapshot.p99) + "\n";
    out += prom + "_sum " + std::to_string(snapshot.sum) + "\n";
    out += prom + "_count " + std::to_string(snapshot.count) + "\n";
  }
  return out;
}

std::string MetricsJson() {
  const MetricsRegistry& registry = MetricsRegistry::Global();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : registry.CounterValues()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : registry.GaugeValues()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + FormatDouble(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, snapshot] : registry.HistogramSnapshots()) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":{\"count\":" + std::to_string(snapshot.count) +
           ",\"sum\":" + std::to_string(snapshot.sum) +
           ",\"p50\":" + FormatDouble(snapshot.p50) +
           ",\"p90\":" + FormatDouble(snapshot.p90) +
           ",\"p99\":" + FormatDouble(snapshot.p99) + "}";
  }
  out += "}}";
  return out;
}

}  // namespace tinprov::obs
