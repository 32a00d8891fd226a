// replicated_playback and ingest_beside_playback: streams read through
// per-session StreamRouters from a 3-node replica cluster (journaled,
// page-verified MediaStores with buffer caches, 1% transient device read
// faults, node1 slowed 3x), decoded inside each VideoSource and presented
// on client windows.
//
// replicated_playback: 24 long sessions of inter-coded QCIF video at 25 fps,
// each joined to a voice-audio master by a SyncController. Decode does most
// of the CPU work; cluster, storage and net do real work; db does none.
//
// ingest_beside_playback: 6 recorders produce raw QCIF segments on an
// open-loop schedule; each segment is encoded and committed through a
// ReplicatedStore (W=2 of N=3, small journal so checkpoint compaction
// cycles) while 8 playback sessions read library clips from the same
// nodes. node2 is down for the middle third of the segments, then revived:
// hints replay and one anti-entropy round runs.

#include <algorithm>
#include <cmath>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/buffer.h"
#include "base/buffer_pool.h"
#include "base/fault_injector.h"
#include "base/logging.h"
#include "bench.h"
#include "cluster/node.h"
#include "cluster/replica_set.h"
#include "cluster/replicated_store.h"
#include "cluster/stream_router.h"
#include "codec/registry.h"
#include "media/synthetic.h"
#include "net/channel.h"
#include "sched/degradation.h"
#include "sched/sync_controller.h"
#include "storage/buffer_cache.h"
#include "storage/media_store.h"
#include "storage/value_serializer.h"

namespace avbench {
namespace {

using namespace avdb;

constexpr int kNodes = 3;
constexpr int kFps = 25;
constexpr int64_t kUniqueFrames = 48;  // four closed GOPs per clip
constexpr int64_t kSecond = 1000LL * 1000 * 1000;
constexpr double kDeviceFaultRate = 0.01;
constexpr double kSlowFactor = 3.0;

// ------------------------------------------------------------- cluster ----

struct Machine {
  std::shared_ptr<BlockDevice> device;
  ServerNodePtr node;
  std::unique_ptr<FaultInjector> device_faults;
  std::unique_ptr<FaultInjector> node_faults;
  /// Store work done by the benchmark's own read-back checks on the
  /// current store, taken out of the layer counters.
  MediaStore::Stats check;
};

/// Three journaled, page-verified replica machines. Faults are attached by
/// ArmFaults() once the content is loaded.
std::vector<Machine> MakeMachines(const std::string& prefix,
                                  int64_t cache_bytes, int64_t journal_bytes) {
  std::vector<Machine> machines;
  for (int i = 0; i < kNodes; ++i) {
    Machine m;
    const std::string name = prefix + std::to_string(i);
    m.device = std::make_shared<BlockDevice>(name + ".dev",
                                             DeviceProfile::MagneticDisk());
    auto store = std::make_shared<MediaStore>(
        m.device, std::make_shared<BufferCache>(cache_bytes));
    AVDB_MUST(store->Mount(journal_bytes).status());
    m.node = std::make_shared<ServerNode>(name, store);
    machines.push_back(std::move(m));
  }
  return machines;
}

void ArmFaults(std::vector<Machine>* machines, Rng* rng) {
  for (Machine& m : *machines) {
    m.device_faults = std::make_unique<FaultInjector>(
        FaultSpec::TransientReads(kDeviceFaultRate), rng->NextU64());
    m.device->set_fault_injector(m.device_faults.get());
  }
  FaultSpec slow;
  slow.node_slow_rate = 1.0;
  slow.node_slow_factor = kSlowFactor;
  Machine& node1 = (*machines)[1];
  node1.node_faults = std::make_unique<FaultInjector>(slow, rng->NextU64());
  node1.node->set_fault_injector(node1.node_faults.get());
}

// ------------------------------------------------------------ sessions ----

struct Clip {
  std::string blob;
  std::shared_ptr<EncodedVideoValue> video;
  std::shared_ptr<RawAudioValue> voice;  // replicated_playback only
};

/// One playback session: router -> VideoSource (decodes) -> VideoWindow,
/// optionally with a voice master joined by a SyncController.
struct Session {
  int id = 0;
  int clip = 0;
  int64_t start_ns = 0;
  std::unique_ptr<StreamRouter> router;
  std::unique_ptr<DegradationController> degrade;
  std::unique_ptr<SyncController> sync;
  std::shared_ptr<EncodedVideoValue> value;  // this stream's own decoder
  std::shared_ptr<VideoSource> video;
  std::shared_ptr<VideoWindow> window;
  std::shared_ptr<AudioSource> voice;
  std::shared_ptr<AudioSink> speaker;
  std::vector<std::pair<int64_t, uint64_t>> presented;  // index, frame hash
  std::vector<int64_t> lateness_ns;
  int64_t lateness_seen_ns = 0;
  int64_t first_ns = -1;
  int64_t failed_frames = 0;  ///< fetch or decode errors, not deadlines
  int64_t on_time = 0;
  bool done = false;
};

/// Shared body of the two cluster workloads: the machines, the sessions and
/// the checks on what they presented.
class ClusterWorkload : public Workload {
 protected:
  explicit ClusterWorkload(const WorkloadParams& params)
      : params_(params), rng_(params.seed) {}

  void Baseline() {
    plane_copies0_ = VideoFrame::plane_copies();
    pool_allocations0_ = BufferPool::Shared().stats().allocations;
  }

  /// Adds a playback session of `clip`, opened at `start_ns`.
  void AddSession(int clip, int64_t start_ns, bool with_voice,
                  WorldTime preroll = SourceOptions().preroll) {
    auto s = std::make_unique<Session>();
    Session* raw = s.get();
    s->id = static_cast<int>(sessions_.size());
    s->clip = clip;
    s->start_ns = start_ns;
    const std::string id = std::to_string(s->id);
    s->router = std::make_unique<StreamRouter>(
        "client" + id, RouterPolicy{},
        [engine = &engine_] { return engine->now_ns(); });
    for (int i = 0; i < kNodes; ++i) {
      auto channel = std::make_shared<Channel>(
          "lan." + id + "." + std::to_string(i), Channel::Profile::Atm155());
      channels_.push_back(channel);
      s->router->AddReplica(machines_[static_cast<size_t>(i)].node, channel);
    }
    s->degrade = std::make_unique<DegradationController>();
    s->value = OwnDecoder(*clips_[static_cast<size_t>(clip)].video);

    SourceOptions vopt;
    vopt.blob_name = clips_[static_cast<size_t>(clip)].blob;
    vopt.preroll = preroll;
    vopt.degrade = s->degrade.get();
    vopt.fetcher = [this, raw](const std::string& blob, int64_t offset,
                               int64_t length, int64_t budget_ns) {
      ScopedSpan span(params_.spans, "fetch", raw->id);
      auto read = raw->router->Fetch(blob, offset, length, budget_ns);
      if (read.ok()) {
        bytes_returned_ += static_cast<int64_t>(read.value().data.size());
      } else if (read.status().code() != StatusCode::kDeadlineExceeded) {
        // A frame given up for its deadline is a miss; any other fetch
        // error is a failed operation.
        ++raw->failed_frames;
      }
      return read;
    };
    SinkOptions wopt;
    wopt.degrade = s->degrade.get();
    if (with_voice) {
      s->sync = std::make_unique<SyncController>();
      AVDB_MUST(s->sync->AddTrack("voice", /*master=*/true));
      AVDB_MUST(s->sync->AddTrack("video"));
      vopt.sync = s->sync.get();
      vopt.sync_track = "video";
      wopt.sync = s->sync.get();
      wopt.sync_track = "video";
    }
    const ActivityEnv env{&engine_, nullptr};
    s->video = VideoSource::Create("src" + id, ActivityLocation::kDatabase,
                                   env, vopt);
    // The traced run binds a forwarding value that spans each decode.
    VideoValuePtr bound = s->value;
    if (params_.spans != nullptr) {
      bound = std::make_shared<TracedVideoValue>(s->value, params_.spans,
                                                 s->id);
    }
    AVDB_MUST(s->video->Bind(bound, VideoSource::kPortOut));
    s->window = VideoWindow::Create(
        "win" + id, ActivityLocation::kClient, env,
        VideoQuality(176, 144, 8, Rational(kFps)), wopt);
    AddToGraph(s->video, s->id);
    AddToGraph(s->window, s->id);
    AVDB_MUST(graph_
                  ->Connect(s->video.get(), VideoSource::kPortOut,
                            s->window.get(), VideoWindow::kPortIn)
                  .status());
    if (with_voice) {
      SourceOptions aopt;
      aopt.sync = s->sync.get();
      aopt.sync_track = "voice";
      SinkOptions sopt;
      sopt.sync = s->sync.get();
      sopt.sync_track = "voice";
      s->voice = AudioSource::Create("voice" + id,
                                     ActivityLocation::kDatabase, env, aopt);
      AVDB_MUST(s->voice->Bind(clips_[static_cast<size_t>(clip)].voice,
                               AudioSource::kPortOut));
      s->speaker = AudioSink::Create("speaker" + id, ActivityLocation::kClient,
                                     env, AudioQuality::kVoice, sopt);
      AddToGraph(s->voice, s->id);
      AddToGraph(s->speaker, s->id);
      AVDB_MUST(graph_
                    ->Connect(s->voice.get(), AudioSource::kPortOut,
                              s->speaker.get(), AudioSink::kPortIn)
                    .status());
    }

    AVDB_MUST(s->window->Catch(
        VideoWindow::kEachFrame, [this, raw](const ActivityEvent& event) {
          const VideoFrame& frame = raw->window->last_frame();
          raw->presented.emplace_back(
              event.element_index,
              FastHash64(frame.data().data(), frame.data().size()));
          const StreamStats& st = raw->window->stats();
          const int64_t lateness = st.total_lateness_ns - raw->lateness_seen_ns;
          raw->lateness_seen_ns = st.total_lateness_ns;
          raw->lateness_ns.push_back(lateness);
          if (raw->first_ns < 0) raw->first_ns = event.time_ns;
          if (lateness < StreamStats::kMissThresholdNs) {
            ++raw->on_time;
            ++on_time_;
          }
        }));
    AVDB_MUST(s->window->Catch(VideoWindow::kLastFrame,
                               [this, raw](const ActivityEvent&) {
                                 raw->done = true;
                                 ++sessions_done_;
                               }));
    AVDB_MUST(s->video->Catch(
        VideoSource::kFrameDropped, [raw](const ActivityEvent& event) {
          if (event.detail.rfind("decode failed", 0) == 0) {
            ++raw->failed_frames;
          }
        }));
    engine_.ScheduleAt(start_ns, [raw] {
      AVDB_MUST(raw->window->Start());
      if (raw->speaker != nullptr) AVDB_MUST(raw->speaker->Start());
      if (raw->voice != nullptr) AVDB_MUST(raw->voice->Start());
      AVDB_MUST(raw->video->Start());
    });
    sessions_.push_back(std::move(s));
  }

  void AddToGraph(MediaActivityPtr activity, int64_t request) {
    ScopedSpan span(params_.spans, "graph_add", request);
    AVDB_MUST(graph_->Add(std::move(activity)));
  }

  void MarkTimed() override {
    warm_on_time_ = on_time_;
    warm_done_ = sessions_done_;
  }

  /// Checks every session's presented frames against a direct decode of
  /// its clip, and folds the sessions into the outcome.
  void FinishSessions(Outcome* out, uint64_t* digest) {
    out->timed_frames_on_time = on_time_ - warm_on_time_;
    out->timed_sessions_done = sessions_done_ - warm_done_;
    std::vector<std::vector<uint64_t>> reference(clips_.size());
    bool digests_match = true;
    bool all_done = true;
    for (const auto& s : sessions_) {
      out->frames_due += s->value->FrameCount();
      out->frames_presented += static_cast<int64_t>(s->presented.size());
      out->frames_on_time += s->on_time;
      out->frames_failed += s->failed_frames;
      ++out->opens;
      if (s->first_ns >= 0) {
        out->startup_ns.push_back(s->first_ns - s->start_ns);
      }
      out->lateness_ns.insert(out->lateness_ns.end(), s->lateness_ns.begin(),
                              s->lateness_ns.end());
      all_done = all_done && s->done;
      std::vector<uint64_t>& ref = reference[static_cast<size_t>(s->clip)];
      if (ref.empty()) ref = DirectDecodeHashes(s->clip);
      uint64_t presented_digest = 0;
      uint64_t reference_digest = 0;
      for (size_t i = 0; i < s->presented.size(); ++i) {
        const auto& [index, hash] = s->presented[i];
        Fold(&presented_digest, hash);
        Fold(&reference_digest, ref[static_cast<size_t>(index)]);
        Fold(digest, static_cast<uint64_t>(index));
        Fold(digest, static_cast<uint64_t>(s->lateness_ns[i]));
      }
      Fold(digest, presented_digest);
      digests_match = digests_match && presented_digest == reference_digest;
      out->layer["frames_decoded"] +=
          static_cast<double>(s->value->FramesDecodedInternally());
      out->layer["decoder_frames_presented"] +=
          static_cast<double>(s->presented.size());
      const StreamRouter::Stats& r = s->router->stats();
      out->layer["router_fetches"] += static_cast<double>(r.fetches);
      out->layer["router_failovers"] += static_cast<double>(r.failovers);
      out->layer["router_hedges"] += static_cast<double>(r.hedges);
      out->layer["router_hedge_wins"] += static_cast<double>(r.hedge_wins);
      out->layer["router_breaker_opens"] +=
          static_cast<double>(r.breaker_opens);
      out->layer["router_fast_fails"] +=
          static_cast<double>(r.deadline_fast_fails);
      out->layer["degrade_drops"] +=
          static_cast<double>(s->degrade->stats().drops_taken);
      if (s->sync != nullptr) {
        out->layer["sync_resyncs"] +=
            static_cast<double>(s->sync->stats().resyncs);
        const auto skew =
            static_cast<double>(s->sync->stats().max_observed_skew_ns);
        out->layer["sync_skew_max_ns"] =
            std::max(out->layer["sync_skew_max_ns"], skew);
      }
    }
    out->Check(digests_match,
               "every session's presented frames equal a direct decode");
    out->Check(all_done, "every playback session reaches its last frame");
    out->Check(engine_.PendingEvents() == 0,
               "the engine is idle after the last session ends");
    int64_t over_releases = 0;
    for (const auto& c : channels_) {
      over_releases += c->stats().over_releases;
      out->layer["net_bytes"] += static_cast<double>(c->stats().bytes);
      out->layer["link_queued_ns"] +=
          static_cast<double>(c->queue().stats().queued_ns);
      out->layer["link_requests"] +=
          static_cast<double>(c->queue().stats().requests);
    }
    out->Check(over_releases == 0, "no channel over-releases bandwidth");
    for (const Machine& m : machines_) {
      const ServiceQueue::Stats& q = m.node->device_queue().stats();
      out->layer["device_queued_ns"] += static_cast<double>(q.queued_ns);
      out->layer["device_requests"] += static_cast<double>(q.requests);
      out->layer["device_busy_ns"] += static_cast<double>(q.busy_ns);
      out->layer["device_span_ns"] += static_cast<double>(engine_.now_ns());
      const MediaStore& store = m.node->store();
      out->layer["pages_verified"] += static_cast<double>(
          store.stats().pages_verified - m.check.pages_verified);
      out->layer["store_retries"] +=
          static_cast<double>(store.stats().retries - m.check.retries);
      out->layer["store_backoff_ns"] +=
          static_cast<double>(store.stats().backoff_ns - m.check.backoff_ns);
      out->layer["journal_records"] +=
          static_cast<double>(store.stats().journal_records);
      out->layer["journal_compactions"] +=
          static_cast<double>(store.stats().journal_compactions);
      const BufferCache::Stats& c = store.buffer_cache()->stats();
      out->layer["cache_hits"] += static_cast<double>(c.hits);
      out->layer["cache_misses"] += static_cast<double>(c.misses);
    }
    out->layer["store_bytes_returned"] = static_cast<double>(bytes_returned_);
    out->layer["events_run"] = static_cast<double>(engine_.EventsRun());
    out->layer["engine_peak_bytes"] = static_cast<double>(peak_footprint_);
    out->layer["sessions"] = static_cast<double>(sessions_.size());
    out->layer["plane_copies"] =
        static_cast<double>(VideoFrame::plane_copies() - plane_copies0_);
    out->layer["pool_allocations"] = static_cast<double>(
        BufferPool::Shared().stats().allocations - pool_allocations0_);
  }

  /// Hash of every frame of a clip decoded directly through the codec with
  /// a fresh decoder session: the reference the sessions are checked
  /// against.
  std::vector<uint64_t> DirectDecodeHashes(int clip) {
    const EncodedVideoValue& value = *clips_[static_cast<size_t>(clip)].video;
    auto codec = CodecRegistry::Default()
                     .VideoCodecFor(value.encoded().family)
                     .value();
    auto decoder = codec->NewDecoder(value.encoded()).value();
    std::vector<uint64_t> hashes;
    for (int64_t i = 0; i < value.FrameCount(); ++i) {
      auto frame = decoder->DecodeFrame(i);
      hashes.push_back(frame.ok() ? FastHash64(frame.value().data().data(),
                                               frame.value().data().size())
                                  : 0);
    }
    return hashes;
  }

  WorkloadParams params_;
  Rng rng_;
  EventEngine engine_;
  std::vector<Machine> machines_;
  std::vector<Clip> clips_;
  std::vector<std::shared_ptr<Channel>> channels_;
  // Sessions own the controllers their activities point at, so the graph,
  // which shares the activities, is declared after them and dies first.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unique_ptr<ActivityGraph> graph_ =
      std::make_unique<ActivityGraph>(ActivityEnv{&engine_, nullptr});
  int64_t horizon_ns_ = 0;
  int64_t warm_ns_ = 0;
  size_t peak_footprint_ = 0;
  int64_t bytes_returned_ = 0;
  int64_t on_time_ = 0;
  int64_t sessions_done_ = 0;
  int64_t warm_on_time_ = 0;
  int64_t warm_done_ = 0;
  int64_t plane_copies0_ = 0;
  int64_t pool_allocations0_ = 0;
};

/// Serialized clip blob, written to every machine's store.
void StoreClip(const Clip& clip, std::vector<Machine>* machines) {
  const Buffer blob = value_serializer::Serialize(*clip.video).value();
  for (Machine& m : *machines) {
    AVDB_MUST(m.node->store().Put(clip.blob, blob).status());
  }
}

// ------------------------------------------------- replicated_playback ----

constexpr int kPlaybackClips = 12;
constexpr int kPlaybackSessions = 24;
constexpr double kPlaybackSecondsAtScale1 = 40;
// Sessions open at seeded instants over this window. Opened together, 24
// cold streams queue their first page misses on one replica's arm, trip
// every replica's breaker and abort whole streams on some seeds.
constexpr int64_t kPlaybackArrivalNs = 15 * kSecond;

class ReplicatedPlayback final : public ClusterWorkload {
 public:
  explicit ReplicatedPlayback(const WorkloadParams& params)
      : ClusterWorkload(params) {}

  void Build() override {
    Baseline();
    const int64_t frames = std::max<int64_t>(
        kUniqueFrames,
        std::llround(kPlaybackSecondsAtScale1 * params_.scale * kFps));
    int64_t library_bytes = 0;
    for (int c = 0; c < kPlaybackClips; ++c) {
      Clip clip;
      clip.blob = "clip" + std::to_string(c);
      clip.video = TiledInterClip(kFps, frames, kUniqueFrames, c, &rng_);
      clip.voice = synthetic::GenerateAudio(
                       MediaDataType::VoiceAudio(), frames * 8000 / kFps,
                       synthetic::AudioPattern::kSpeechLike, rng_.NextU64())
                       .value();
      library_bytes += clip.video->StoredBytes() + 4096;
      clips_.push_back(std::move(clip));
    }
    // Each node's cache holds the whole library.
    machines_ = MakeMachines("node", library_bytes * 2,
                             MediaStore::kDefaultJournalBytes);
    for (const Clip& clip : clips_) StoreClip(clip, &machines_);
    ArmFaults(&machines_, &rng_);
    for (int s = 0; s < kPlaybackSessions; ++s) {
      const int64_t start =
          static_cast<int64_t>(rng_.NextBelow(kPlaybackArrivalNs));
      AddSession(s % kPlaybackClips, start, /*with_voice=*/true);
      horizon_ns_ = std::max(horizon_ns_, start);
    }
    horizon_ns_ += frames * kSecond / kFps + 2 * kSecond;
    warm_ns_ = horizon_ns_ / 10;
  }

  void Warm() override {
    RunSliced(&engine_, warm_ns_, params_.spans, &peak_footprint_);
  }
  void Run() override {
    RunSliced(&engine_, horizon_ns_, params_.spans, &peak_footprint_);
  }

  void Finish(Outcome* out) override {
    uint64_t digest = 0;
    FinishSessions(out, &digest);
    out->vdigest = digest;
  }
};

// ---------------------------------------------- ingest_beside_playback ----

constexpr int kIngestClips = 4;
constexpr int kReaders = 8;
constexpr int kRecorders = 6;
constexpr int64_t kSegmentFrames = 10 * kFps;  // 10 s segments
constexpr double kSegmentsPerRecorderAtScale1 = 5;
// The smallest journal the store accepts: checkpoint compaction cycles
// every few puts.
constexpr int64_t kIngestJournalBytes = 16 * 1024;
// A segment must commit before its recorder's next segment is due.
constexpr int64_t kPutBudgetNs = kSegmentFrames * kSecond / kFps;
constexpr int kWriteQuorum = 2;
// Each recorder keeps its newest segments (a time-shift window); older ones
// are read back from every replica and then deleted, which keeps the store
// directory, and so the journal checkpoint, bounded.
constexpr int kRetainedSegments = 2;
// Readers buffer a second ahead: a quorum write occupies every replica's
// device arm at once, and a default 80 ms preroll cannot ride that out.
const WorldTime kReaderPreroll = WorldTime::FromMillis(1000);

class IngestBesidePlayback final : public ClusterWorkload {
 public:
  explicit IngestBesidePlayback(const WorkloadParams& params)
      : ClusterWorkload(params) {}

  void Build() override {
    Baseline();
    const int per_recorder = std::max(
        3, static_cast<int>(
               std::lround(kSegmentsPerRecorderAtScale1 * params_.scale)));
    // Readers play for the whole ingest.
    const int64_t clip_frames =
        (per_recorder + 1) * kSegmentFrames + 2 * kFps;
    int64_t library_bytes = 0;
    for (int c = 0; c < kIngestClips; ++c) {
      Clip clip;
      clip.blob = "clip" + std::to_string(c);
      clip.video = TiledInterClip(kFps, clip_frames, kUniqueFrames, c, &rng_);
      library_bytes += clip.video->StoredBytes() + 4096;
      clips_.push_back(std::move(clip));
    }
    machines_ = MakeMachines("node", library_bytes * 2, kIngestJournalBytes);
    for (const Clip& clip : clips_) StoreClip(clip, &machines_);
    for (Machine& m : machines_) {
      journal_records0_ += m.node->store().stats().journal_records;
      journal_compactions0_ += m.node->store().stats().journal_compactions;
    }
    ArmFaults(&machines_, &rng_);

    replicas_ = std::make_shared<ReplicaSet>(BreakerPolicy{});
    for (int i = 0; i < kNodes; ++i) {
      auto channel = std::make_shared<Channel>(
          "ingest.lan." + std::to_string(i), Channel::Profile::Atm155());
      channels_.push_back(channel);
      replicas_->Add(machines_[static_cast<size_t>(i)].node, channel);
    }
    ReplicationPolicy policy;
    policy.write_quorum = kWriteQuorum;
    policy.retry.jitter_seed = rng_.NextU64();
    store_ = std::make_unique<ReplicatedStore>(
        "ingest", policy, [engine = &engine_] { return engine->now_ns(); },
        replicas_);

    int64_t readers_end_ns = 0;
    for (int s = 0; s < kReaders; ++s) {
      const int64_t start = static_cast<int64_t>(rng_.NextBelow(2 * kSecond));
      AddSession(s % kIngestClips, start, /*with_voice=*/false,
                 kReaderPreroll);
      readers_end_ns = std::max(readers_end_ns, start);
    }
    readers_end_ns += clip_frames * kSecond / kFps +
                      VirtualClock::ToNs(kReaderPreroll) + 2 * kSecond;

    // Recorders: one seeded raw segment each, re-stamped per segment.
    by_recorder_.resize(kRecorders);
    for (int r = 0; r < kRecorders; ++r) {
      recorders_.push_back(
          SeededRawClip(176, 144, kFps, kSegmentFrames, r, &rng_));
      const int64_t offset =
          static_cast<int64_t>(rng_.NextBelow(kPutBudgetNs));
      for (int k = 0; k < per_recorder; ++k) {
        Segment seg;
        seg.recorder = r;
        seg.index = k;
        seg.due_ns = offset + (k + 1) * kSegmentFrames * kSecond / kFps;
        segments_.push_back(std::move(seg));
      }
    }
    std::sort(segments_.begin(), segments_.end(),
              [](const Segment& a, const Segment& b) {
                return a.due_ns != b.due_ns ? a.due_ns < b.due_ns
                                            : a.recorder < b.recorder;
              });
    const size_t n = segments_.size();
    for (size_t i = 0; i < n; ++i) {
      by_recorder_[static_cast<size_t>(segments_[i].recorder)].push_back(i);
    }
    for (size_t i = 0; i < n; ++i) {
      engine_.ScheduleAt(segments_[i].due_ns, [this, i, n] {
        if (i == n / 3) CrashNode2();
        if (i == 2 * n / 3) ReviveNode2();
        Commit(static_cast<int64_t>(i));
      });
    }
    horizon_ns_ = std::max(segments_.back().due_ns + 3 * kSecond,
                           readers_end_ns);
    warm_ns_ = horizon_ns_ / 10;
  }

  void Warm() override {
    RunSliced(&engine_, warm_ns_, params_.spans, &peak_footprint_);
  }
  void MarkTimed() override {
    ClusterWorkload::MarkTimed();
    timed_ = true;
  }
  void Run() override {
    RunSliced(&engine_, horizon_ns_, params_.spans, &peak_footprint_);
  }
  int64_t CheckCpuNs() const override { return check_cpu_ns_; }

  void Finish(Outcome* out) override {
    uint64_t digest = 0;
    FinishSessions(out, &digest);
    out->puts = static_cast<int64_t>(segments_.size()) + deletes_;
    out->timed_ingest_bytes = timed_ingest_bytes_;
    int64_t puts_failed = deletes_failed_;
    bool read_back = true;
    for (Segment& seg : segments_) {
      if (!seg.acked) {
        ++puts_failed;
        continue;
      }
      out->put_ack_ns.push_back(seg.ack_ns);
      Fold(&digest, seg.blob_hash);
      Fold(&digest, static_cast<uint64_t>(seg.ack_ns));
      if (!seg.deleted) {
        seg.read_back = ReplicaCopies(seg, -1) >= kWriteQuorum;
      }
      read_back = read_back && seg.read_back;
    }
    out->puts_failed = puts_failed;
    out->vdigest = digest;
    out->Check(read_back,
               "every acked segment reads back from at least W replicas "
               "(before it is retired, or at the end)");
    out->Check(revived_ && converged_after_revive_,
               "replicas converge after the revive round");
    out->Check(store_->stats().data_loss_events == 0, "no data loss");

    const ReplicatedStore::Stats& rs = store_->stats();
    out->layer["user_puts"] = static_cast<double>(segments_.size());
    out->layer["journal_records"] +=
        static_cast<double>(journal_records_revived_ - journal_records0_);
    out->layer["journal_compactions"] += static_cast<double>(
        journal_compactions_revived_ - journal_compactions0_);
    out->layer["frames_encoded"] = static_cast<double>(frames_encoded_);
    out->layer["encoded_bytes"] = static_cast<double>(encoded_bytes_);
    out->layer["raw_bytes_encoded"] = static_cast<double>(raw_bytes_encoded_);
    out->layer["user_bytes_written"] = static_cast<double>(user_bytes_);
    out->layer["replica_bytes_written"] =
        static_cast<double>(replica_bytes_ + resync_bytes_);
    out->layer["hints_replayed"] = static_cast<double>(rs.hints_replayed);
    out->layer["resync_bytes"] = static_cast<double>(resync_bytes_);
  }

 private:
  struct Segment {
    int recorder = 0;
    int index = 0;
    int64_t due_ns = 0;
    std::string name;
    size_t bytes = 0;
    uint64_t blob_hash = 0;
    int64_t ack_ns = 0;
    bool acked = false;
    bool read_back = false;
    bool deleted = false;
  };

  /// Replicas whose store returns the segment's exact bytes. The check is
  /// the benchmark's work, not the program's: each device's fault injector
  /// is detached while it reads (so the readers' faults are drawn as if it
  /// had not run), its store work is kept out of the layer counters, its
  /// CPU time out of the timed phase, and its span out of the run slice's
  /// self time. Get bypasses the buffer cache.
  int ReplicaCopies(const Segment& seg, int64_t request) {
    ScopedSpan span(params_.spans, "check", request);
    const int64_t cpu0 = CpuNs();
    int copies = 0;
    for (Machine& m : machines_) {
      MediaStore& store = m.node->store();
      const MediaStore::Stats before = store.stats();
      m.device->set_fault_injector(nullptr);
      auto got = store.Get(seg.name);
      m.device->set_fault_injector(m.device_faults.get());
      m.check.pages_verified +=
          store.stats().pages_verified - before.pages_verified;
      m.check.retries += store.stats().retries - before.retries;
      m.check.backoff_ns += store.stats().backoff_ns - before.backoff_ns;
      if (got.ok() && got.value().data.size() == seg.bytes &&
          FastHash64(got.value().data.data(), got.value().data.size()) ==
              seg.blob_hash) {
        ++copies;
      }
    }
    check_cpu_ns_ += CpuNs() - cpu0;
    return copies;
  }

  /// Checks an acked segment's copies, then deletes it through the quorum.
  void Retire(Segment* seg, int64_t request) {
    if (!seg->acked) return;
    seg->read_back = ReplicaCopies(*seg, request) >= kWriteQuorum;
    ++deletes_;
    Result<ReplicatedStore::WriteResult> deleted = [&] {
      ScopedSpan span(params_.spans, "delete", request);
      return store_->Delete(seg->name, kPutBudgetNs);
    }();
    if (deleted.ok()) {
      seg->deleted = true;
    } else {
      ++deletes_failed_;
    }
  }

  void CrashNode2() {
    Machine& m = machines_[2];
    m.node_faults =
        std::make_unique<FaultInjector>(FaultSpec::NodeCrash(1), 1);
    m.node->set_fault_injector(m.node_faults.get());
  }

  void ReviveNode2() {
    Machine& m = machines_[2];
    // The crash-restart replaces the node's store; keep its journal counts.
    journal_records_revived_ += m.node->store().stats().journal_records;
    journal_compactions_revived_ +=
        m.node->store().stats().journal_compactions;
    revived_ = store_->ReviveReplica(2).ok();
    m.check = MediaStore::Stats();  // counted in the store just replaced
    m.node->set_fault_injector(nullptr);
    const ReplicatedStore::ResyncReport report = store_->RunAntiEntropy();
    resync_bytes_ += report.bytes_streamed;
    converged_after_revive_ = report.converged && store_->Converged();
  }

  void Commit(int64_t i) {
    Segment& seg = segments_[static_cast<size_t>(i)];
    seg.name = "rec" + std::to_string(seg.recorder) + ".seg" +
               std::to_string(seg.index);
    RawVideoValue& raw = *recorders_[static_cast<size_t>(seg.recorder)];
    // Stamp the segment number into the first frame so segments differ.
    VideoFrame first = raw.Frame(0).value();
    first.data()[176] = static_cast<uint8_t>(seg.index);
    first.data()[177] = static_cast<uint8_t>(seg.index >> 8);
    AVDB_MUST(raw.ReplaceFrame(0, std::move(first)));

    auto codec =
        CodecRegistry::Default().VideoCodecFor(EncodingFamily::kInter).value();
    VideoCodecParams codec_params;
    codec_params.gop_size = 12;
    Result<EncodedVideo> encoded = [&] {
      ScopedSpan span(params_.spans, "encode", i);
      return codec->Encode(raw, codec_params);
    }();
    AVDB_MUST(encoded.status());
    frames_encoded_ += kSegmentFrames;
    raw_bytes_encoded_ += raw.StoredBytes();
    auto value = EncodedVideoValue::Create(codec, std::move(encoded).value())
                     .value();
    const Buffer blob = value_serializer::Serialize(*value).value();
    encoded_bytes_ += static_cast<int64_t>(blob.size());
    seg.bytes = blob.size();
    seg.blob_hash = FastHash64(blob.data(), blob.size());
    Result<ReplicatedStore::WriteResult> put = [&] {
      ScopedSpan span(params_.spans, "put", i);
      return store_->Put(seg.name, blob, kPutBudgetNs);
    }();
    if (!put.ok()) return;
    seg.acked = true;
    seg.ack_ns = VirtualClock::ToNs(put.value().duration);
    user_bytes_ += static_cast<int64_t>(blob.size());
    replica_bytes_ +=
        static_cast<int64_t>(blob.size()) * put.value().acks;
    if (timed_) timed_ingest_bytes_ += raw.StoredBytes();
    if (seg.index >= kRetainedSegments) {
      const auto& mine = by_recorder_[static_cast<size_t>(seg.recorder)];
      Retire(&segments_[mine[static_cast<size_t>(seg.index -
                                                  kRetainedSegments)]],
             i);
    }
  }

  std::shared_ptr<ReplicaSet> replicas_;
  std::unique_ptr<ReplicatedStore> store_;
  std::vector<std::shared_ptr<RawVideoValue>> recorders_;
  std::vector<Segment> segments_;
  /// Positions in segments_ of each recorder's segments, oldest first.
  std::vector<std::vector<size_t>> by_recorder_;
  int64_t deletes_ = 0;
  int64_t deletes_failed_ = 0;
  int64_t check_cpu_ns_ = 0;
  bool timed_ = false;
  bool revived_ = false;
  bool converged_after_revive_ = false;
  int64_t frames_encoded_ = 0;
  int64_t raw_bytes_encoded_ = 0;
  int64_t encoded_bytes_ = 0;
  int64_t user_bytes_ = 0;
  int64_t replica_bytes_ = 0;
  int64_t resync_bytes_ = 0;
  int64_t timed_ingest_bytes_ = 0;
  int64_t journal_records0_ = 0;
  int64_t journal_compactions0_ = 0;
  int64_t journal_records_revived_ = 0;
  int64_t journal_compactions_revived_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeReplicatedPlayback(
    const WorkloadParams& params) {
  return std::make_unique<ReplicatedPlayback>(params);
}

std::unique_ptr<Workload> MakeIngestBesidePlayback(
    const WorkloadParams& params) {
  return std::make_unique<IngestBesidePlayback>(params);
}

}  // namespace avbench
