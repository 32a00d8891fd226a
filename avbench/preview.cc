// preview_wall: thousands of concurrent resident raw-video previews, each a
// VideoSource feeding a client VideoWindow over a local connection. No store,
// channel or codec: the CPU work is event dispatch, ports, Raise, Rational
// periods and raw-frame copies in `sched` and `activity`.

#include <algorithm>
#include <cmath>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/buffer.h"
#include "base/buffer_pool.h"
#include "base/logging.h"
#include "bench.h"

namespace avbench {
namespace {

using namespace avdb;

constexpr int kValues = 8;
constexpr int64_t kFramesPerStream = 300;
constexpr int kFps = 10;
constexpr int kSessionsAtScale1 = 4000;
constexpr int64_t kStaggerNs = 3LL * 1000 * 1000 * 1000;  // arrivals in 3 s

class PreviewWall final : public Workload {
 public:
  explicit PreviewWall(const WorkloadParams& params) : params_(params) {}

  void Build() override {
    plane_copies0_ = VideoFrame::plane_copies();
    pool_allocations0_ = BufferPool::Shared().stats().allocations;
    Rng rng(params_.seed);
    for (int v = 0; v < kValues; ++v) {
      values_.push_back(
          SeededRawClip(80, 60, kFps, kFramesPerStream, v, &rng));
    }
    graph_ = std::make_unique<ActivityGraph>(ActivityEnv{&engine_, nullptr});
    const int sessions = std::max(
        1, static_cast<int>(std::lround(kSessionsAtScale1 * params_.scale)));
    const VideoQuality quality(80, 60, 8, Rational(kFps));
    for (int i = 0; i < sessions; ++i) {
      Session s;
      s.value = static_cast<int>(rng.NextBelow(kValues));
      s.start_ns = static_cast<int64_t>(rng.NextBelow(kStaggerNs));
      const std::string id = std::to_string(i);
      s.source = VideoSource::Create("src" + id, ActivityLocation::kDatabase,
                                     graph_->env());
      AVDB_MUST(s.source->Bind(values_[static_cast<size_t>(s.value)],
                               VideoSource::kPortOut));
      s.window = VideoWindow::Create("win" + id, ActivityLocation::kClient,
                                     graph_->env(), quality);
      {
        ScopedSpan span(params_.spans, "graph_add", i);
        AVDB_MUST(graph_->Add(s.source));
      }
      {
        ScopedSpan span(params_.spans, "graph_add", i);
        AVDB_MUST(graph_->Add(s.window));
      }
      AVDB_MUST(graph_
                    ->Connect(s.source.get(), VideoSource::kPortOut,
                              s.window.get(), VideoWindow::kPortIn)
                    .status());
      horizon_ns_ = std::max(horizon_ns_, s.start_ns);
      sessions_.push_back(std::move(s));
    }
    // Open loop: each preview opens at its seeded instant, whatever the
    // host's speed.
    for (Session& s : sessions_) {
      Session* session = &s;
      engine_.ScheduleAt(s.start_ns, [session] {
        AVDB_MUST(session->window->Start());
        AVDB_MUST(session->source->Start());
      });
    }
    horizon_ns_ += (kFramesPerStream / kFps + 1) * 1000LL * 1000 * 1000;
  }

  void Warm() override {
    RunSliced(&engine_, kStaggerNs, params_.spans, &peak_footprint_);
  }

  void MarkTimed() override { Tally(&warm_on_time_, &warm_done_); }

  void Run() override {
    RunSliced(&engine_, horizon_ns_, params_.spans, &peak_footprint_);
  }

  void Finish(Outcome* out) override {
    int64_t on_time = 0;
    int64_t done = 0;
    Tally(&on_time, &done);
    out->timed_frames_on_time = on_time - warm_on_time_;
    out->timed_sessions_done = done - warm_done_;
    out->frames_due = static_cast<int64_t>(sessions_.size()) * kFramesPerStream;
    out->opens = static_cast<int64_t>(sessions_.size());
    uint64_t digest = 0;
    bool frames_match = true;
    for (const Session& s : sessions_) {
      const StreamStats& st = s.window->stats();
      out->frames_presented += st.elements_presented;
      out->frames_on_time += st.elements_presented - st.deadline_misses;
      if (st.first_element_ns >= 0) {
        out->startup_ns.push_back(st.first_element_ns - s.start_ns);
      }
      Fold(&digest, static_cast<uint64_t>(st.elements_presented));
      Fold(&digest, static_cast<uint64_t>(st.first_element_ns));
      Fold(&digest, static_cast<uint64_t>(st.last_element_ns));
      Fold(&digest, static_cast<uint64_t>(st.total_lateness_ns));
      const VideoFrame& last = s.window->last_frame();
      Fold(&digest, FastHash64(last.data().data(), last.data().size()));
      auto expected = values_[static_cast<size_t>(s.value)]->Frame(
          kFramesPerStream - 1);
      frames_match = frames_match && expected.ok() && expected.value() == last;
    }
    out->frames_failed = out->frames_due - out->frames_presented;
    out->vdigest = digest;
    out->Check(out->frames_presented == out->frames_due,
               "every preview presents all of its frames");
    out->Check(frames_match,
               "every preview's last presented frame equals its source frame");
    out->Check(engine_.PendingEvents() == 0,
               "the engine is idle after the last preview ends");

    out->layer["events_run"] = static_cast<double>(engine_.EventsRun());
    out->layer["engine_peak_bytes"] = static_cast<double>(peak_footprint_);
    out->layer["sessions"] = static_cast<double>(sessions_.size());
    out->layer["plane_copies"] =
        static_cast<double>(VideoFrame::plane_copies() - plane_copies0_);
    out->layer["pool_allocations"] = static_cast<double>(
        BufferPool::Shared().stats().allocations - pool_allocations0_);
  }

 private:
  struct Session {
    int value = 0;
    int64_t start_ns = 0;
    std::shared_ptr<VideoSource> source;
    std::shared_ptr<VideoWindow> window;
  };

  void Tally(int64_t* on_time, int64_t* done) const {
    *on_time = 0;
    *done = 0;
    for (const Session& s : sessions_) {
      const StreamStats& st = s.window->stats();
      *on_time += st.elements_presented - st.deadline_misses;
      if (s.window->state() == MediaActivity::State::kStopped) ++*done;
    }
  }

  WorkloadParams params_;
  EventEngine engine_;
  std::unique_ptr<ActivityGraph> graph_;
  std::vector<std::shared_ptr<RawVideoValue>> values_;
  std::vector<Session> sessions_;
  int64_t horizon_ns_ = 0;
  size_t peak_footprint_ = 0;
  int64_t warm_on_time_ = 0;
  int64_t warm_done_ = 0;
  int64_t plane_copies0_ = 0;
  int64_t pool_allocations0_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakePreviewWall(const WorkloadParams& params) {
  return std::make_unique<PreviewWall>(params);
}

}  // namespace avbench
