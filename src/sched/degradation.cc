#include "sched/degradation.h"

#include <algorithm>

namespace avdb {

const char* DegradeActionName(DegradeAction action) {
  switch (action) {
    case DegradeAction::kNone: return "none";
    case DegradeAction::kDropFrame: return "drop-frame";
    case DegradeAction::kLowerQuality: return "lower-quality";
    case DegradeAction::kRaiseQuality: return "raise-quality";
    case DegradeAction::kPause: return "pause";
    case DegradeAction::kAbort: return "abort";
  }
  return "unknown";
}

void DegradationController::ReportLateness(int64_t now_ns,
                                           int64_t lateness_ns) {
  (void)now_ns;  // kept in the signature for future rate-based detectors
  const double sample =
      static_cast<double>(lateness_ns > 0 ? lateness_ns : 0);
  if (!have_lateness_) {
    smoothed_lateness_ns_ = sample;
    have_lateness_ = true;
  } else {
    smoothed_lateness_ns_ +=
        policy_.ewma_alpha * (sample - smoothed_lateness_ns_);
  }
  ++stats_.lateness_reports;
  stats_.max_smoothed_lateness_ns =
      std::max(stats_.max_smoothed_lateness_ns, SmoothedLatenessNs());
}

void DegradationController::ReportFault(int64_t now_ns) {
  ++consecutive_faults_;
  ++stats_.faults;
  if (tracer_ != nullptr) {
    tracer_->EventAt(now_ns, "sched", "fault", actor_,
                     "strike " + std::to_string(consecutive_faults_));
  }
}

void DegradationController::ReportFaultRecovered() {
  consecutive_faults_ = 0;
}

DegradeAction DegradationController::Recommend(int64_t now_ns) const {
  if (consecutive_faults_ >= policy_.max_consecutive_faults) {
    return DegradeAction::kAbort;
  }
  // The corrected-signal rung: with attached stream stats, MissRate counts
  // shed elements as misses, so a stream that sheds nearly everything reads
  // as failing even though the few frames it does present arrive "on time".
  if (stream_stats_ != nullptr) {
    const int64_t accounted = stream_stats_->elements_presented +
                              stream_stats_->elements_skipped;
    if (accounted >= policy_.miss_rate_min_elements &&
        stream_stats_->MissRate() >= policy_.abort_miss_rate) {
      return DegradeAction::kAbort;
    }
  }
  const int64_t smoothed = SmoothedLatenessNs();
  if (smoothed >= policy_.pause_threshold_ns && DwellElapsed(now_ns)) {
    return DegradeAction::kPause;
  }
  if (smoothed >= policy_.lower_threshold_ns &&
      steps_below_nominal_ < policy_.max_lower_steps &&
      DwellElapsed(now_ns)) {
    return DegradeAction::kLowerQuality;
  }
  if (smoothed >= policy_.drop_threshold_ns) {
    return DegradeAction::kDropFrame;
  }
  if (smoothed <= policy_.recover_threshold_ns && steps_below_nominal_ > 0 &&
      have_lateness_ && DwellElapsed(now_ns)) {
    return DegradeAction::kRaiseQuality;
  }
  return DegradeAction::kNone;
}

void DegradationController::AcknowledgeAction(DegradeAction action,
                                              int64_t now_ns) {
  switch (action) {
    case DegradeAction::kNone:
      break;
    case DegradeAction::kDropFrame:
      // A shed frame gives the pipeline one free period, and — since it is
      // never presented — the sink will send no lateness report for it.
      // Decay the EWMA with a zero sample here, or the pressure signal
      // freezes above the drop threshold and the ladder sheds every
      // remaining frame.
      smoothed_lateness_ns_ -= policy_.ewma_alpha * smoothed_lateness_ns_;
      ++stats_.drops_taken;
      // The sink never sees the shed element; account it here so the
      // stream's MissRate reflects what the viewer actually lost.
      if (stream_stats_ != nullptr) stream_stats_->RecordSkipped();
      break;
    case DegradeAction::kLowerQuality:
      ++steps_below_nominal_;
      last_switch_ns_ = now_ns;
      ++stats_.lowers_taken;
      break;
    case DegradeAction::kRaiseQuality:
      if (steps_below_nominal_ > 0) --steps_below_nominal_;
      last_switch_ns_ = now_ns;
      ++stats_.raises_taken;
      break;
    case DegradeAction::kPause:
      smoothed_lateness_ns_ = 0;
      have_lateness_ = false;
      last_switch_ns_ = now_ns;
      ++stats_.pauses_taken;
      break;
    case DegradeAction::kAbort:
      ++stats_.aborts_taken;
      break;
  }
  if (action != DegradeAction::kNone && tracer_ != nullptr) {
    tracer_->Event("sched", "degrade", actor_, DegradeActionName(action));
  }
}

void DegradationController::BindObservability(obs::MetricsRegistry* registry,
                                              obs::Tracer* tracer,
                                              std::string actor) {
  tracer_ = tracer;
  actor_ = std::move(actor);
  metrics_.Attach(
      registry,
      {{"avdb_sched_degrade_drops_total", &stats_.drops_taken,
        "frames shed by the ladder"},
       {"avdb_sched_degrade_lowers_total", &stats_.lowers_taken,
        "quality step-downs taken"},
       {"avdb_sched_degrade_raises_total", &stats_.raises_taken,
        "quality step-ups taken"},
       {"avdb_sched_degrade_pauses_total", &stats_.pauses_taken,
        "pause/re-anchor actions taken"},
       {"avdb_sched_degrade_aborts_total", &stats_.aborts_taken,
        "streams abandoned by the ladder"},
       {"avdb_sched_degrade_faults_total", &stats_.faults,
        "fault strikes reported"}});
}

}  // namespace avdb
