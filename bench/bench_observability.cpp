// Observability overhead — the "free when off" contract.
//
// The obs layer's deal with the streaming stack is: each layer counts once,
// in its own plain stats fields, which a registry reads by address when it
// exports; the one instrument still pushed per element (the lateness
// histogram) costs one null pointer check when unbound. This bench prices
// that promise on the hottest instrumented path — StreamStats::Record,
// called once per presented element by every sink — against a plain
// replica of the pre-obs accounting with no registry members at all.
//
// Three variants, best-of-reps wall time (steady_clock is sanctioned in
// bench/):
//   plain     the old struct, re-declared locally: no obs members
//   disabled  StreamStats unbound (the shipped default) — gate: <2% over
//             plain
//   enabled   StreamStats bound to a registry (fields attached, one
//             histogram observe per element) — informational, not gated
// A checksum over the accumulated fields is consumed so the optimizer
// cannot delete the loops.
//
// The jitter section exercises JitterModel::Reset between scenarios: one
// model, one RNG stream, three profiles measured back to back — each
// scenario's spike count must start from zero instead of smearing the
// previous scenario's tail into the next report.
//
// Output: BENCH_observability.json. Exit code is non-zero when the
// disabled-path overhead gate fails.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/jitter.h"
#include "sched/stream_stats.h"

using namespace avdb;

namespace {

constexpr int kElements = 2 * 1000 * 1000;  // per rep
constexpr int kReps = 7;                    // best-of to damp scheduler noise

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The pre-obs StreamStats accounting, re-declared without the registry
/// members: the baseline the disabled path is gated against. Arithmetic is
/// kept line-for-line identical so the measured delta is the null check,
/// not a different loop body.
struct PlainStats {
  int64_t elements_presented = 0;
  int64_t late_elements = 0;
  int64_t deadline_misses = 0;
  int64_t total_lateness_ns = 0;
  int64_t max_lateness_ns = 0;
  int64_t first_element_ns = -1;
  int64_t last_element_ns = -1;
  int64_t bytes_delivered = 0;
  double smoothed_lateness_ns = 0;

  void Record(int64_t now_ns, int64_t lateness_ns, int64_t bytes) {
    ++elements_presented;
    if (first_element_ns < 0) first_element_ns = now_ns;
    last_element_ns = now_ns;
    bytes_delivered += bytes;
    smoothed_lateness_ns +=
        StreamStats::kLatenessAlpha *
        (static_cast<double>(lateness_ns > 0 ? lateness_ns : 0) -
         smoothed_lateness_ns);
    if (lateness_ns > 0) {
      ++late_elements;
      total_lateness_ns += lateness_ns;
      max_lateness_ns = std::max(max_lateness_ns, lateness_ns);
      if (lateness_ns >= StreamStats::kMissThresholdNs) ++deadline_misses;
    }
  }
};

/// Deterministic lateness pattern: mostly on time, a late tail, the
/// occasional outright miss — the branch mix a real sink sees.
inline int64_t LatenessFor(int i) {
  const int m = i % 16;
  if (m < 10) return -1 * 1000 * 1000;            // early
  if (m < 15) return (m - 9) * 4 * 1000 * 1000;   // 4..24 ms late
  return 60 * 1000 * 1000;                        // past the 50 ms threshold
}

template <typename Stats>
double TimeRecordLoop(Stats& stats, int64_t& checksum) {
  double best = 1e100;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kElements; ++i) {
      stats.Record(/*now_ns=*/static_cast<int64_t>(i) * 100 * 1000,
                   LatenessFor(i), /*bytes=*/4096);
    }
    best = std::min(best, SecondsSince(start));
    // Consume every accumulated field: anything the checksum does not read
    // the optimizer may delete from one loop but not the other, and the
    // comparison stops being apples to apples.
    checksum += stats.elements_presented + stats.late_elements +
                stats.deadline_misses + stats.total_lateness_ns +
                stats.max_lateness_ns + stats.bytes_delivered +
                stats.last_element_ns +
                static_cast<int64_t>(stats.smoothed_lateness_ns);
  }
  return best;
}

struct JitterScenario {
  std::string name;
  int samples;
  int64_t total_ns;
  int64_t spikes;
  int64_t max_ns;
};

}  // namespace

int main() {
  std::printf("==============================================================\n"
              "Observability overhead: StreamStats::Record, %d elements x %d "
              "reps (best)\n"
              "==============================================================\n\n",
              kElements, kReps);

  int64_t checksum = 0;

  PlainStats plain;
  const double plain_s = TimeRecordLoop(plain, checksum);

  StreamStats disabled;  // never bound: the shipped default
  const double disabled_s = TimeRecordLoop(disabled, checksum);

  obs::MetricsRegistry registry;
  StreamStats enabled;
  enabled.BindTo(&registry);
  const double enabled_s = TimeRecordLoop(enabled, checksum);

  const double disabled_overhead_pct = (disabled_s / plain_s - 1.0) * 100.0;
  const double enabled_overhead_pct = (enabled_s / plain_s - 1.0) * 100.0;
  const double per_element_disabled_ns = disabled_s / kElements * 1e9;
  const double per_element_enabled_ns = enabled_s / kElements * 1e9;

  std::printf("%-10s %12s %16s %12s\n", "variant", "best (s)", "ns/element",
              "overhead");
  std::printf("%-10s %12.4f %16.2f %12s\n", "plain", plain_s,
              plain_s / kElements * 1e9, "--");
  std::printf("%-10s %12.4f %16.2f %11.2f%%\n", "disabled", disabled_s,
              per_element_disabled_ns, disabled_overhead_pct);
  std::printf("%-10s %12.4f %16.2f %11.2f%%\n", "enabled", enabled_s,
              per_element_enabled_ns, enabled_overhead_pct);

  // The gate. Negative overhead (disabled measured faster than plain) is
  // scheduler noise and passes trivially.
  const bool gate_ok = disabled_overhead_pct < 2.0;
  std::printf("\ngate: metrics-disabled overhead %.2f%% < 2%%: %s\n",
              disabled_overhead_pct, gate_ok ? "PASS" : "FAIL");

  // -------------------------------------------------------------------
  // One JitterModel across scenarios, Reset() between them: spike counts
  // are per scenario, and the RNG stream keeps advancing (no replay).
  JitterModel jitter = JitterModel::Workstation(/*seed=*/42);
  jitter.BindTo(&registry);
  const struct { const char* name; int samples; } kScenarios[] = {
      {"warmup", 1000}, {"steady", 10000}, {"spike_tail", 5000}};
  std::vector<JitterScenario> scenarios;
  bool reset_ok = true;
  std::printf("\njitter scenarios (one model, Reset between):\n");
  std::printf("%-12s %10s %10s %12s %12s\n", "scenario", "samples", "spikes",
              "mean (us)", "max (us)");
  for (const auto& sc : kScenarios) {
    jitter.Reset();
    reset_ok = reset_ok && jitter.stats().samples == 0 &&
               jitter.stats().spikes == 0 && jitter.stats().total_ns == 0;
    for (int i = 0; i < sc.samples; ++i) checksum += jitter.Sample();
    const auto& stats = jitter.stats();
    reset_ok = reset_ok && stats.samples == sc.samples;
    scenarios.push_back({sc.name, sc.samples, stats.total_ns, stats.spikes,
                         stats.max_ns});
    std::printf("%-12s %10d %10lld %12.1f %12.1f\n", sc.name, sc.samples,
                static_cast<long long>(stats.spikes),
                static_cast<double>(stats.total_ns) / sc.samples / 1e3,
                static_cast<double>(stats.max_ns) / 1e3);
  }
  std::printf("reset check: per-scenario stats start from zero: %s\n",
              reset_ok ? "YES" : "NO");

  // -------------------------------------------------------------------
  // Export surface: the sizes a scrape or figure pipeline pulls.
  obs::Tracer tracer(256);
  for (int i = 0; i < 300; ++i) {
    tracer.EventAt(i * 1000, "sched", "tick", "bench");
  }
  const size_t prom_bytes = registry.PrometheusText().size();
  const size_t json_bytes = registry.Json().size();
  const size_t trace_bytes = tracer.DumpJson().size();
  std::printf("\nexports: prometheus=%zu B, metrics json=%zu B, "
              "trace dump=%zu B (ring %zu/%zu kept)\n",
              prom_bytes, json_bytes, trace_bytes, tracer.Events().size(),
              static_cast<size_t>(256));

  FILE* out = std::fopen("BENCH_observability.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_observability.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"observability\",\n");
  std::fprintf(out, "  \"elements_per_rep\": %d,\n", kElements);
  std::fprintf(out, "  \"reps\": %d,\n", kReps);
  std::fprintf(out, "  \"plain_seconds\": %.6f,\n", plain_s);
  std::fprintf(out, "  \"disabled_seconds\": %.6f,\n", disabled_s);
  std::fprintf(out, "  \"enabled_seconds\": %.6f,\n", enabled_s);
  std::fprintf(out, "  \"disabled_ns_per_element\": %.3f,\n",
               per_element_disabled_ns);
  std::fprintf(out, "  \"enabled_ns_per_element\": %.3f,\n",
               per_element_enabled_ns);
  std::fprintf(out, "  \"disabled_overhead_pct\": %.3f,\n",
               disabled_overhead_pct);
  std::fprintf(out, "  \"enabled_overhead_pct\": %.3f,\n",
               enabled_overhead_pct);
  std::fprintf(out, "  \"disabled_gate_pct\": 2.0,\n");
  std::fprintf(out, "  \"disabled_gate_ok\": %s,\n",
               gate_ok ? "true" : "false");
  std::fprintf(out, "  \"jitter_reset_ok\": %s,\n", reset_ok ? "true" : "false");
  std::fprintf(out, "  \"jitter_scenarios\": [\n");
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const auto& sc = scenarios[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"samples\": %d, \"spikes\": %lld, "
                 "\"total_ns\": %lld, \"max_ns\": %lld}%s\n",
                 sc.name.c_str(), sc.samples,
                 static_cast<long long>(sc.spikes),
                 static_cast<long long>(sc.total_ns),
                 static_cast<long long>(sc.max_ns),
                 i + 1 < scenarios.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"prometheus_bytes\": %zu,\n", prom_bytes);
  std::fprintf(out, "  \"metrics_json_bytes\": %zu,\n", json_bytes);
  std::fprintf(out, "  \"trace_dump_bytes\": %zu,\n", trace_bytes);
  std::fprintf(out, "  \"checksum\": %lld\n",
               static_cast<long long>(checksum));
  std::fprintf(out, "}\n");
  std::fclose(out);

  return (gate_ok && reset_ok) ? 0 : 1;
}
