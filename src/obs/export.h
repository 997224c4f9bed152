// Exporters for the metrics registry: Prometheus text format for
// scraping, and a compact JSON snapshot that bench_util.h merges into
// the bench baseline reports so perf history carries engine metrics
// alongside wall times.
#ifndef TINPROV_OBS_EXPORT_H_
#define TINPROV_OBS_EXPORT_H_

#include <string>

namespace tinprov::obs {

/// The registry in Prometheus text exposition format. Metric names are
/// prefixed "tinprov_" and sanitized to [a-zA-Z0-9_]; counters emit
/// TYPE counter, gauges TYPE gauge, histograms TYPE summary with
/// quantile="0.5|0.9|0.99" labels plus _sum and _count series.
std::string PrometheusText();

/// Compact single-line JSON snapshot:
/// {"counters":{...},"gauges":{...},
///  "histograms":{name:{"count":..,"sum":..,"p50":..,"p90":..,"p99":..}}}
/// Keys are the raw metric names; values of non-finite gauges render
/// as 0 so the output is always strict JSON.
std::string MetricsJson();

}  // namespace tinprov::obs

#endif  // TINPROV_OBS_EXPORT_H_
