#include "sched/service_queue.h"

#include <algorithm>

namespace avdb {

int64_t ServiceQueue::Submit(int64_t request_ns, int64_t service_ns) {
  if (service_ns < 0) service_ns = 0;
  const int64_t start = std::max(request_ns, free_at_ns_);
  const int64_t queued = start - request_ns;
  free_at_ns_ = start + service_ns;
  ++stats_.requests;
  stats_.busy_ns += service_ns;
  stats_.queued_ns += queued;
  stats_.max_queue_ns = std::max(stats_.max_queue_ns, queued);
  return free_at_ns_;
}

int64_t ServiceQueue::PeekCompletion(int64_t request_ns,
                                     int64_t service_ns) const {
  if (service_ns < 0) service_ns = 0;
  return std::max(request_ns, free_at_ns_) + service_ns;
}

void ServiceQueue::BindDeviceMetrics(obs::MetricsRegistry* registry) {
  metrics_.Attach(registry,
                  {{"avdb_sched_device_queue_requests_total", &stats_.requests,
                    "requests served by device arms"},
                   {"avdb_sched_device_queue_busy_ns_total", &stats_.busy_ns,
                    "device arm service time"},
                   {"avdb_sched_device_queue_queued_ns_total",
                    &stats_.queued_ns,
                    "time requests waited behind others on a device arm"}});
}

}  // namespace avdb
