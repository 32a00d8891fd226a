#include "sched/stream_stats.h"

namespace avdb {

void StreamStats::BindTo(obs::MetricsRegistry* registry) {
  metrics_.Attach(
      registry,
      {{"avdb_sched_stream_elements_presented_total", &elements_presented,
        "elements presented across all sinks"},
       {"avdb_sched_stream_elements_skipped_total", &elements_skipped,
        "elements shed before presentation"},
       {"avdb_sched_stream_late_elements_total", &late_elements,
        "elements presented after their ideal time"},
       {"avdb_sched_stream_deadline_misses_total", &deadline_misses,
        "elements at least 50 ms late"},
       {"avdb_sched_stream_bytes_delivered_total", &bytes_delivered,
        "payload bytes presented"}});
  lateness_histogram_ =
      registry == nullptr
          ? nullptr
          : registry->GetHistogram(
                "avdb_sched_stream_lateness_ns",
                {0, 1'000'000, 5'000'000, 10'000'000, 20'000'000, 50'000'000,
                 100'000'000, 250'000'000, 1'000'000'000},
                "positive per-element lateness");
}

void StreamStats::ObserveLateness(int64_t lateness_ns) {
  lateness_histogram_->Observe(lateness_ns > 0 ? lateness_ns : 0);
}

}  // namespace avdb
