#include "sched/jitter.h"

namespace avdb {

int64_t JitterModel::Sample() {
  double delay = static_cast<double>(params_.mean_ns);
  if (params_.stddev_ns > 0) {
    delay += rng_.NextGaussian() * static_cast<double>(params_.stddev_ns);
  }
  if (params_.spike_probability > 0 &&
      rng_.NextBool(params_.spike_probability)) {
    delay += static_cast<double>(params_.spike_ns);
    ++stats_.spikes;
  }
  if (delay < 0) delay = 0;
  const int64_t sample = static_cast<int64_t>(delay);
  ++stats_.samples;
  stats_.total_ns += sample;
  if (sample > stats_.max_ns) stats_.max_ns = sample;
  if (delay_histogram_ != nullptr) delay_histogram_->Observe(sample);
  return sample;
}

void JitterModel::BindTo(obs::MetricsRegistry* registry) {
  metrics_.Attach(registry,
                  {{"avdb_sched_jitter_samples_total", &stats_.samples,
                    "jitter delays sampled"},
                   {"avdb_sched_jitter_spikes_total", &stats_.spikes,
                    "samples that included a spike"}});
  delay_histogram_ =
      registry == nullptr
          ? nullptr
          : registry->GetHistogram(
                "avdb_sched_jitter_delay_ns",
                {0, 500'000, 1'000'000, 2'000'000, 5'000'000, 10'000'000,
                 20'000'000, 50'000'000},
                "sampled per-event delivery delay");
}

}  // namespace avdb
