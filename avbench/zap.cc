// newscast_zap: the paper's §4.3 application loop against an AvDatabase.
// Viewers arrive as a seeded Poisson process at about 80% of the database's
// admission capacity, pick a Newscast by Zipf(1.0) popularity through
// Select (9 in 10 by title, 1 in 10 by a date range), open the §4.1 tcomp
// with NewMultiSourceFor into a client MultiSink over a channel, watch 3 s,
// and close. The catalog is far larger than the database's 8 MiB cache.
// A refused open is retried a second later, as a client would; refusals
// show in sched.admission_rejects and in the startup latency.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "activity/composite.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/buffer.h"
#include "base/buffer_pool.h"
#include "base/logging.h"
#include "bench.h"
#include "codec/registry.h"
#include "db/database.h"
#include "media/synthetic.h"

namespace avbench {
namespace {

using namespace avdb;

constexpr int kDisks = 4;
constexpr int kFps = 10;
constexpr int64_t kSecond = 1000LL * 1000 * 1000;
constexpr int64_t kNewscastSeconds = 10;
constexpr int64_t kClipFrames = kNewscastSeconds * kFps;
constexpr int64_t kUniqueFrames = 48;
constexpr int kDistinctClips = 8;
constexpr int kObjects = 300;
constexpr int kViewersAtScale1 = 800;
constexpr int64_t kWatchNs = 3 * kSecond;
constexpr int64_t kFramesWatched = kWatchNs / (kSecond / kFps);
constexpr int64_t kRetryNs = 1 * kSecond;
constexpr int kMaxAttempts = 120;
constexpr double kLoad = 0.8;
constexpr int kTracks = 3;
constexpr int kCompressedTracks = 2;
// A server-sized decoder pool: 32 concurrent viewers. With the 4-unit
// default only 2 viewers fit, and Poisson arrivals at 80% of that turn into
// retry storms whose size, and so the CPU spent per viewer, swings by 25%
// from seed to seed.
constexpr int kDecoderUnits = 64;

std::string Title(int i) { return "News " + std::to_string(i); }

/// Distinct, lexicographically ordered broadcast dates.
std::string Date(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", 1990 + i / 336,
                (i / 28) % 12 + 1, i % 28 + 1);
  return buf;
}

struct Viewer {
  int id = 0;
  int title = 0;
  bool by_date = false;
  int64_t arrival_ns = 0;
  int attempts = 0;
  bool opened = false;
  bool closed = false;
  int64_t first_ns = -1;
  int64_t lateness_seen_ns = 0;
  int64_t presented = 0;
  int64_t on_time = 0;
  uint64_t digest = 0;
  StreamHandle handle;
  std::shared_ptr<MultiSink> sink;
  std::shared_ptr<VideoWindow> window;
  std::vector<int64_t> lateness_ns;
};

class NewscastZap final : public Workload {
 public:
  explicit NewscastZap(const WorkloadParams& params)
      : params_(params), rng_(params.seed) {}

  void Build() override {
    plane_copies0_ = VideoFrame::plane_copies();
    pool_allocations0_ = BufferPool::Shared().stats().allocations;
    AvDatabaseConfig config;
    config.durable_storage = true;
    config.decoder_units = kDecoderUnits;
    config.buffer_pool_bytes =
        kDecoderUnits / kCompressedTracks * kTracks *
        config.buffer_bytes_per_stream;
    db_ = std::make_unique<AvDatabase>(config);
    for (int d = 0; d < kDisks; ++d) {
      AVDB_MUST(db_->AddDevice(Disk(d), DeviceProfile::MagneticDisk())
                    .status());
    }
    AVDB_MUST(db_->AddChannel("lan", Channel::Profile::Atm155()).status());

    ClassDef newscast("Newscast");
    AVDB_MUST(newscast.AddAttribute({"title", AttrType::kString, {}, {}}));
    AVDB_MUST(
        newscast.AddAttribute({"whenBroadcast", AttrType::kDate, {}, {}}));
    TcompDef clip;
    clip.name = "clip";
    clip.tracks.push_back({"videoTrack", AttrType::kVideo, {}, {}});
    clip.tracks.push_back({"voiceTrack", AttrType::kAudio, {}, {}});
    clip.tracks.push_back({"subtitleTrack", AttrType::kText, {}, {}});
    AVDB_MUST(newscast.AddTcomp(clip));
    AVDB_MUST(db_->DefineClass(newscast));

    std::vector<std::shared_ptr<EncodedVideoValue>> videos;
    std::vector<std::shared_ptr<EncodedAudioValue>> voices;
    auto adpcm =
        CodecRegistry::Default().AudioCodecFor(EncodingFamily::kAdpcm).value();
    for (int c = 0; c < kDistinctClips; ++c) {
      // One pattern for every clip: the Zipf head then costs the same to
      // decode whatever clips the seed puts there, and the low bit rate
      // keeps what each viewer leaves behind small.
      videos.push_back(
          TiledInterClip(kFps, kClipFrames, kUniqueFrames, 0, &rng_));
      auto voice = synthetic::GenerateAudio(
                       MediaDataType::VoiceAudio(), kNewscastSeconds * 8000,
                       synthetic::AudioPattern::kSpeechLike, rng_.NextU64())
                       .value();
      voices.push_back(
          EncodedAudioValue::Create(adpcm, adpcm->Encode(*voice).value())
              .value());
    }
    auto subtitles = synthetic::GenerateSubtitles(
                         MediaDataType::Text(Rational(kFps)), 10, 15, 5,
                         "Headline")
                         .value();
    const WorldTime length = WorldTime::FromSeconds(kNewscastSeconds);
    for (int i = 0; i < kObjects; ++i) {
      const Oid oid = db_->NewObject("Newscast").value();
      AVDB_MUST(db_->SetScalar(oid, "title", Title(i)));
      AVDB_MUST(db_->SetScalar(oid, "whenBroadcast", Date(i)));
      const int c = i % kDistinctClips;
      AVDB_MUST(db_->SetTcompTrack(oid, "clip", "videoTrack", *videos[c],
                                   Disk(i), WorldTime(), length));
      AVDB_MUST(db_->SetTcompTrack(oid, "clip", "voiceTrack", *voices[c],
                                   Disk(i + 1), WorldTime(), length));
      AVDB_MUST(db_->SetTcompTrack(oid, "clip", "subtitleTrack", *subtitles,
                                   Disk(i + 2), WorldTime(), length));
      oids_.push_back(oid);
    }

    // Zipf(1.0) popularity over the titles.
    std::vector<double> cdf(kObjects);
    double total = 0;
    for (int i = 0; i < kObjects; ++i) {
      total += 1.0 / (i + 1);
      cdf[static_cast<size_t>(i)] = total;
    }
    // Poisson arrivals at kLoad of the viewers the config admits at once:
    // each viewer holds a decoder unit per compressed track (video and
    // voice) and a buffer share per track.
    const double capacity = config.decoder_units / kCompressedTracks;
    const double rate_per_ns =
        kLoad * capacity / static_cast<double>(kWatchNs);
    const int viewers = std::max(
        1, static_cast<int>(std::lround(kViewersAtScale1 * params_.scale)));
    double t = 0;
    for (int v = 0; v < viewers; ++v) {
      t += -std::log(1.0 - rng_.NextDouble()) / rate_per_ns;
      auto viewer = std::make_unique<Viewer>();
      viewer->id = v;
      const double u = rng_.NextDouble() * total;
      viewer->title = static_cast<int>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      viewer->title = std::min(viewer->title, kObjects - 1);
      viewer->by_date = rng_.NextBelow(10) == 0;
      viewer->arrival_ns = static_cast<int64_t>(t);
      Viewer* raw = viewer.get();
      db_->engine().ScheduleAt(viewer->arrival_ns, [this, raw] { Open(raw); });
      viewers_.push_back(std::move(viewer));
    }
    warm_ns_ = viewers_[viewers_.size() / 10]->arrival_ns;
    horizon_ns_ = viewers_.back()->arrival_ns + 2 * kWatchNs;
  }

  void Warm() override {
    RunSliced(&db_->engine(), warm_ns_, params_.spans, &peak_footprint_);
  }

  void MarkTimed() override {
    warm_on_time_ = on_time_;
    warm_done_ = done_;
  }

  void Run() override {
    RunSliced(&db_->engine(), horizon_ns_, params_.spans, &peak_footprint_);
    // Viewers refused near the end retry past the horizon; let them finish.
    while (open_or_pending_ > 0) {
      RunSliced(&db_->engine(), db_->engine().now_ns() + kWatchNs,
                params_.spans, &peak_footprint_);
    }
  }

  void Finish(Outcome* out) override {
    out->timed_frames_on_time = on_time_ - warm_on_time_;
    out->timed_sessions_done = done_ - warm_done_;
    uint64_t digest = 0;
    for (const auto& v : viewers_) {
      out->frames_due += kFramesWatched;
      out->frames_presented += v->presented;
      out->frames_on_time += v->on_time;
      ++out->opens;
      if (!v->opened) {
        ++out->opens_failed;
        out->frames_failed += kFramesWatched;
      }
      if (v->first_ns >= 0) {
        out->startup_ns.push_back(v->first_ns - v->arrival_ns);
      }
      out->lateness_ns.insert(out->lateness_ns.end(), v->lateness_ns.begin(),
                              v->lateness_ns.end());
      Fold(&digest, static_cast<uint64_t>(v->attempts));
      Fold(&digest, static_cast<uint64_t>(v->first_ns));
      Fold(&digest, v->digest);
    }
    out->vdigest = digest;

    AdmissionController& admission = db_->admission();
    bool pools_empty = true;
    std::vector<std::string> pools = {"db.decoders", "db.buffers"};
    for (int d = 0; d < kDisks; ++d) pools.push_back(Disk(d) + ".bandwidth");
    for (const std::string& pool : pools) {
      auto capacity = admission.Capacity(pool);
      auto available = admission.Available(pool);
      pools_empty = pools_empty && capacity.ok() && available.ok() &&
                    std::abs(capacity.value() - available.value()) < 1e-6;
    }
    bool unlocked = true;
    for (Oid oid : oids_) {
      unlocked = unlocked && db_->locks().HolderCount(oid) == 0;
    }
    out->Check(pools_empty, "admission pools show zero use afterwards");
    out->Check(unlocked, "the lock manager holds no locks afterwards");
    out->Check(db_->engine().PendingEvents() == 0,
               "the engine has no pending events afterwards");
    out->Check(admission.stats().over_releases == 0,
               "admission over-releases stay at 0");
    auto lan = db_->GetChannel("lan").value();
    out->Check(lan->stats().over_releases == 0,
               "channel over-releases stay at 0");
    out->Check(all_closed_ok_, "every stop and close succeeds");

    EventEngine& engine = db_->engine();
    out->layer["events_run"] = static_cast<double>(engine.EventsRun());
    out->layer["engine_peak_bytes"] = static_cast<double>(peak_footprint_);
    out->layer["sessions"] = static_cast<double>(peak_open_);
    out->layer["admission_rejects"] =
        static_cast<double>(admission.stats().rejected);
    out->layer["lock_conflicts"] =
        static_cast<double>(db_->locks().stats().conflicts);
    out->layer["trace_dropped"] =
        static_cast<double>(db_->tracer()->stats().dropped);
    out->layer["net_bytes"] = static_cast<double>(lan->stats().bytes);
    out->layer["link_queued_ns"] =
        static_cast<double>(lan->queue().stats().queued_ns);
    out->layer["link_requests"] =
        static_cast<double>(lan->queue().stats().requests);
    const BufferCache::Stats& cache = db_->devices().cache()->stats();
    out->layer["cache_hits"] = static_cast<double>(cache.hits);
    out->layer["cache_misses"] = static_cast<double>(cache.misses);
    for (int d = 0; d < kDisks; ++d) {
      const ServiceQueue::Stats& q =
          db_->DeviceQueue(Disk(d)).value()->stats();
      out->layer["device_queued_ns"] += static_cast<double>(q.queued_ns);
      out->layer["device_requests"] += static_cast<double>(q.requests);
      out->layer["device_busy_ns"] += static_cast<double>(q.busy_ns);
      out->layer["device_span_ns"] += static_cast<double>(engine.now_ns());
      const MediaStore& store = *db_->devices().GetStore(Disk(d)).value();
      out->layer["pages_verified"] +=
          static_cast<double>(store.stats().pages_verified);
      out->layer["store_retries"] += static_cast<double>(store.stats().retries);
      out->layer["store_backoff_ns"] +=
          static_cast<double>(store.stats().backoff_ns);
      out->layer["journal_compactions"] +=
          static_cast<double>(store.stats().journal_compactions);
    }
    out->layer["frames_decoded"] = static_cast<double>(frames_decoded_);
    out->layer["decoder_frames_presented"] =
        static_cast<double>(decoder_presented_);
    out->layer["sync_resyncs"] = static_cast<double>(sync_resyncs_);
    out->layer["sync_skew_max_ns"] = static_cast<double>(sync_skew_max_ns_);
    out->layer["plane_copies"] =
        static_cast<double>(VideoFrame::plane_copies() - plane_copies0_);
    out->layer["pool_allocations"] = static_cast<double>(
        BufferPool::Shared().stats().allocations - pool_allocations0_);
  }

 private:
  static std::string Disk(int i) { return "disk" + std::to_string(i % kDisks); }

  void Open(Viewer* v) {
    if (v->attempts == 0) ++open_or_pending_;
    ++v->attempts;
    const std::string where =
        v->by_date ? "whenBroadcast >= \"" + Date(v->title) +
                         "\" and whenBroadcast <= \"" + Date(v->title) + "\""
                   : "title = \"" + Title(v->title) + "\"";
    Result<std::vector<Oid>> found = [&] {
      ScopedSpan span(params_.spans, "select", v->id);
      return db_->Select("Newscast", where);
    }();
    AVDB_MUST(found.status());
    AVDB_CHECK(found.value().size() == 1) << "select must find one newscast";
    const Oid oid = found.value()[0];

    const std::string session = "viewer" + std::to_string(v->id);
    const ActivityEnv env = db_->env();
    auto sink = MultiSink::Create("sink." + session, ActivityLocation::kClient,
                                  env);
    auto window =
        VideoWindow::Create("video." + session, ActivityLocation::kClient,
                            env, VideoQuality(176, 144, 8, Rational(kFps)));
    auto speaker = AudioSink::Create("voice." + session,
                                     ActivityLocation::kClient, env,
                                     AudioQuality::kVoice);
    auto subtitles =
        TextSink::Create("subs." + session, ActivityLocation::kClient, env);
    AVDB_MUST(sink->InstallSynced(speaker, "voiceTrack", /*master=*/true));
    AVDB_MUST(sink->InstallSynced(window, "videoTrack"));
    AVDB_MUST(sink->InstallSynced(subtitles, "subtitleTrack"));

    bool admitted = false;
    {
      ScopedSpan span(params_.spans, "open", v->id);
      auto stream = db_->NewMultiSourceFor(session, oid, "clip", sink->sync());
      if (stream.ok()) {
        admitted = true;
        v->handle = stream.value();
        MediaActivity* source = v->handle.source;
        {
          ScopedSpan add(params_.spans, "graph_add", v->id);
          AVDB_MUST(db_->graph().Add(sink));
        }
        subtitles->FindPort(TextSink::kPortIn)
            .value()
            ->set_data_type(
                source->FindPort("subtitleTrack_out").value()->data_type());
        AVDB_MUST(db_->NewConnection(source, "videoTrack_out", sink.get(),
                                     "videoTrack_in", "lan")
                      .status());
        AVDB_MUST(db_->NewConnection(source, "voiceTrack_out", sink.get(),
                                     "voiceTrack_in")
                      .status());
        AVDB_MUST(db_->NewConnection(source, "subtitleTrack_out", sink.get(),
                                     "subtitleTrack_in")
                      .status());
        AVDB_MUST(db_->StartStream(v->handle));
      } else {
        AVDB_CHECK(stream.status().code() == StatusCode::kResourceExhausted)
            << "open failed: " << stream.status();
      }
    }
    if (!admitted) {
      if (v->attempts < kMaxAttempts) {
        db_->engine().ScheduleAfter(kRetryNs, [this, v] { Open(v); });
      } else {
        --open_or_pending_;
      }
      return;
    }
    v->opened = true;
    v->sink = std::move(sink);
    v->window = std::move(window);
    ++open_;
    peak_open_ = std::max(peak_open_, open_);
    AVDB_MUST(v->window->Catch(
        VideoWindow::kEachFrame, [this, v](const ActivityEvent& event) {
          const StreamStats& st = v->window->stats();
          const int64_t lateness = st.total_lateness_ns - v->lateness_seen_ns;
          v->lateness_seen_ns = st.total_lateness_ns;
          if (v->first_ns < 0) v->first_ns = event.time_ns;
          if (v->closed || v->presented >= kFramesWatched) return;
          ++v->presented;
          v->lateness_ns.push_back(lateness);
          const VideoFrame& frame = v->window->last_frame();
          Fold(&v->digest, static_cast<uint64_t>(event.element_index));
          Fold(&v->digest,
               FastHash64(frame.data().data(), frame.data().size()));
          if (lateness < StreamStats::kMissThresholdNs) {
            ++v->on_time;
            ++on_time_;
          }
        }));
    db_->engine().ScheduleAfter(kWatchNs, [this, v] { Close(v); });
  }

  void Close(Viewer* v) {
    MediaActivity* source = v->handle.source;
    for (const MediaActivityPtr& child :
         static_cast<CompositeActivity*>(source)->children()) {
      if (auto video = std::dynamic_pointer_cast<VideoSource>(child)) {
        if (auto encoded = std::dynamic_pointer_cast<EncodedVideoValue>(
                video->bound_value())) {
          frames_decoded_ += encoded->FramesDecodedInternally();
        }
      }
    }
    {
      ScopedSpan span(params_.spans, "close", v->id);
      const bool stopped = db_->StopStream(v->handle).ok();
      const bool closed =
          db_->CloseSession("viewer" + std::to_string(v->id)).ok();
      all_closed_ok_ = all_closed_ok_ && stopped && closed;
    }
    AVDB_MUST(v->sink->Stop());
    decoder_presented_ += v->window->stats().elements_presented;
    const SyncController::Stats& sync = v->sink->sync()->stats();
    sync_resyncs_ += sync.resyncs;
    sync_skew_max_ns_ = std::max(sync_skew_max_ns_, sync.max_observed_skew_ns);
    v->closed = true;
    --open_;
    --open_or_pending_;
    ++done_;
  }

  WorkloadParams params_;
  Rng rng_;
  std::unique_ptr<AvDatabase> db_;
  std::vector<Oid> oids_;
  std::vector<std::unique_ptr<Viewer>> viewers_;
  int64_t warm_ns_ = 0;
  int64_t horizon_ns_ = 0;
  size_t peak_footprint_ = 0;
  int64_t on_time_ = 0;
  int64_t done_ = 0;
  int64_t warm_on_time_ = 0;
  int64_t warm_done_ = 0;
  int64_t open_ = 0;
  int64_t peak_open_ = 0;
  int64_t open_or_pending_ = 0;
  int64_t frames_decoded_ = 0;
  int64_t decoder_presented_ = 0;
  int64_t sync_resyncs_ = 0;
  int64_t sync_skew_max_ns_ = 0;
  bool all_closed_ok_ = true;
  int64_t plane_copies0_ = 0;
  int64_t pool_allocations0_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeNewscastZap(const WorkloadParams& params) {
  return std::make_unique<NewscastZap>(params);
}

}  // namespace avbench
