// Golden registry export: one seeded scenario that drives most of the
// instrumented layers into one MetricsRegistry, then compares Json() and
// PrometheusText() byte for byte against files under tests/golden/.
//
// The scenario:
//   * an AvDatabase with a durable (journaled, page-verified) store, a
//     channel, injected jitter and a client window playing one stream;
//   * a 3-node ReplicatedStore on the same registry, with every replica's
//     MediaStore bound too (so three stores share the avdb_storage_* names),
//     taken through a node crash, a hinted write, revive + hint replay, a
//     corrupt page, repair, routed reads, a scrub and an anti-entropy
//     round;
//   * a SyncController and a DegradationController with a few reports.
//
// The device-queue series (avdb_sched_device_queue_*) are checked
// separately against the queues' own stats and left out of the golden
// comparison, so the golden files stay comparable with trees that predate
// them.
//
// To rewrite the golden files after an intended export change:
//   AVDB_WRITE_GOLDEN=1 ./metrics_golden_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "activity/sinks.h"
#include "base/fault_injector.h"
#include "cluster/node.h"
#include "cluster/replica_set.h"
#include "cluster/replicated_store.h"
#include "codec/registry.h"
#include "db/database.h"
#include "media/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/degradation.h"
#include "sched/sync_controller.h"
#include "storage/block_device.h"
#include "storage/media_store.h"

namespace avdb {
namespace {

constexpr int64_t kMs = 1000 * 1000;
constexpr int64_t kSecond = 1000 * kMs;
constexpr const char* kQueuePrefix = "avdb_sched_device_queue_";

std::string GoldenPath(const std::string& file) {
  return std::string(AVDB_GOLDEN_DIR) + "/" + file;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// PrometheusText without the device-queue series (HELP, TYPE and value
/// lines all start with or contain the name).
std::string DropQueueSeries(const std::string& prom) {
  std::istringstream in(prom);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(kQueuePrefix) != std::string::npos) continue;
    out += line + "\n";
  }
  return out;
}

/// Json() without the device-queue counters: each is one `"name":value`
/// member of the "counters" object.
std::string DropQueueMembers(std::string json) {
  for (;;) {
    const size_t at = json.find(std::string("\"") + kQueuePrefix);
    if (at == std::string::npos) return json;
    size_t end = json.find_first_of(",}", at);
    if (json[end] == ',') {
      json.erase(at, end + 1 - at);
    } else if (json[at - 1] == ',') {
      json.erase(at - 1, end - (at - 1));
    } else {
      json.erase(at, end - at);
    }
  }
}

Buffer MakeBlob(size_t size, uint8_t seed) {
  Buffer b;
  for (size_t i = 0; i < size; ++i) {
    b.AppendU8(static_cast<uint8_t>(seed + i * 31));
  }
  return b;
}

void CorruptPage(MediaStore& store, const std::string& blob, int64_t page) {
  auto entry = store.Lookup(blob);
  ASSERT_TRUE(entry.ok());
  const Extent& extent = entry.value()->extents[0];
  const int64_t at = extent.offset + page * MediaStore::kCachePageBytes + 10;
  Buffer current;
  ASSERT_TRUE(store.device_ptr()->Read(extent.disc, at, 1, &current).ok());
  Buffer flipped(1, static_cast<uint8_t>(~current.data()[0]));
  ASSERT_TRUE(store.device_ptr()->Write(extent.disc, at, flipped).ok());
}

/// Plays one intra-coded clip from a durable store over a channel into a
/// client window. Adds the database device queue's requests/busy/queued
/// time to `queue_stats`.
void RunDatabaseScenario(AvDatabase& db, int64_t queue_stats[3]) {
  ASSERT_TRUE(db.AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
  ASSERT_TRUE(db.AddChannel("net", Channel::Profile::Atm155()).ok());
  ClassDef clip_class("Clip");
  ASSERT_TRUE(clip_class.AddAttribute({"title", AttrType::kString, {}, {}})
                  .ok());
  AttributeDef video_attr{"videoTrack", AttrType::kVideo, {}, {}};
  ASSERT_TRUE(clip_class.AddAttribute(video_attr).ok());
  ASSERT_TRUE(db.DefineClass(clip_class).ok());

  const auto type = MediaDataType::RawVideo(176, 144, 8, Rational(30));
  auto raw =
      synthetic::GenerateVideo(type, 30, synthetic::VideoPattern::kMovingBox)
          .value();
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kIntra).value();
  VideoCodecParams params;
  params.quality = 70;
  auto footage =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  const Oid oid = db.NewObject("Clip").value();
  ASSERT_TRUE(db.SetScalar(oid, "title", std::string("golden")).ok());
  ASSERT_TRUE(db.SetMediaAttribute(oid, "videoTrack", *footage, "disk0").ok());

  auto stream = db.NewSourceFor("golden", oid, "videoTrack");
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto window = VideoWindow::Create("window", ActivityLocation::kClient,
                                    db.env(),
                                    VideoQuality::Parse("176x144x8@30").value());
  ASSERT_TRUE(db.graph().Add(window).ok());
  ASSERT_TRUE(db.NewConnection(stream.value().source, VideoSource::kPortOut,
                               window.get(), VideoWindow::kPortIn, "net")
                  .ok());
  ASSERT_TRUE(db.StartStream(stream.value()).ok());
  db.RunUntilIdle();
  EXPECT_GT(window->stats().elements_presented, 0);
  ASSERT_TRUE(db.StopStream(stream.value()).ok());
  db.GetChannel("net").value()->ReleaseBandwidth(1);  // an over-release

  const ServiceQueue::Stats& q = db.DeviceQueue("disk0").value()->stats();
  queue_stats[0] += q.requests;
  queue_stats[1] += q.busy_ns;
  queue_stats[2] += q.queued_ns;
}

/// Three mounted replicas behind a ReplicatedStore, all bound to
/// `registry`, taken through crash, hinted write, revive, repair, routed
/// reads, scrub and anti-entropy. Everything here is destroyed before the
/// export, so the counts it made must survive their owners. Adds the node
/// device queues' requests/busy/queued time to `queue_stats`.
void RunClusterScenario(obs::MetricsRegistry* registry, obs::Tracer* tracer,
                        int64_t queue_stats[3]) {
  int64_t now_ns = 0;
  std::function<int64_t()> clock = [&now_ns] { return now_ns; };
  BreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.open_cooldown_ns = 200 * kMs;
  auto set = std::make_shared<ReplicaSet>(breaker);
  std::vector<ServerNodePtr> nodes;
  for (int i = 0; i < 3; ++i) {
    auto dev = std::make_shared<BlockDevice>(
        "n" + std::to_string(i) + ".dev", DeviceProfile::MagneticDisk());
    auto media = std::make_shared<MediaStore>(dev, nullptr);
    ASSERT_TRUE(media->Mount().ok());
    media->BindObservability(registry, tracer);
    auto node = std::make_shared<ServerNode>("n" + std::to_string(i), media);
    set->Add(node, nullptr);
    nodes.push_back(std::move(node));
  }
  ReplicationPolicy policy;
  policy.retry.max_attempts = 2;
  policy.retry.initial_backoff_ns = kMs;
  policy.retry.jitter_seed = 17;
  policy.router.max_attempts = 4;
  ReplicatedStore store("rs", policy, clock, set);
  store.BindObservability(registry, tracer);

  FaultInjector crash(FaultSpec::NodeCrash(1), 5);
  nodes[0]->set_fault_injector(&crash);
  const int64_t kPage = MediaStore::kCachePageBytes;
  const Buffer clip = MakeBlob(static_cast<size_t>(3 * kPage), 7);
  ASSERT_TRUE(store.Put("clip", clip, 10 * kSecond).ok());  // hint for n0
  now_ns += kSecond;
  ASSERT_TRUE(store.Put("extra", MakeBlob(static_cast<size_t>(kPage), 9),
                        10 * kSecond)
                  .ok());
  now_ns += kSecond;
  for (int64_t page = 0; page < 3; ++page) {
    now_ns += 10 * kMs;
    (void)store.Read("clip", page * kPage, kPage, kSecond);  // n0 refuses
  }
  now_ns += kSecond;
  ASSERT_TRUE(store.ReviveReplica(0).ok());  // crash-restart + hint replay
  CorruptPage(nodes[1]->store(), "clip", 1);
  EXPECT_FALSE(nodes[1]->store().ReadRange("clip", kPage, kPage).ok());
  now_ns += kSecond;
  ASSERT_TRUE(store.RepairBlob(1, "clip").ok());
  for (int64_t page = 0; page < 3; ++page) {
    now_ns += 10 * kMs;
    ASSERT_TRUE(store.Read("clip", page * kPage, kPage, kSecond).ok());
  }
  CorruptPage(nodes[2]->store(), "clip", 2);
  ASSERT_TRUE(nodes[2]->store().Scrub().ok());  // quarantines the copy
  now_ns += kSecond;
  (void)store.RunAntiEntropy();
  for (const auto& node : nodes) {
    queue_stats[0] += node->device_queue().stats().requests;
    queue_stats[1] += node->device_queue().stats().busy_ns;
    queue_stats[2] += node->device_queue().stats().queued_ns;
  }
}

void RunControllers(obs::MetricsRegistry* registry, obs::Tracer* tracer) {
  SyncController sync;
  ASSERT_TRUE(sync.AddTrack("video", /*master=*/true).ok());
  ASSERT_TRUE(sync.AddTrack("audio").ok());
  sync.BindObservability(registry, tracer);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(sync.Report("video", i * 33 * kMs, i * 33 * kMs).ok());
    ASSERT_TRUE(
        sync.Report("audio", i * 33 * kMs, i * 33 * kMs + i * 9 * kMs).ok());
  }
  ASSERT_TRUE(sync.RecommendSkip("audio", 33 * kMs).ok());

  DegradationController degrade;
  degrade.BindObservability(registry, tracer, "video");
  degrade.ReportFault(kMs);
  degrade.ReportLateness(2 * kMs, 120 * kMs);
  degrade.AcknowledgeAction(degrade.Recommend(3 * kMs), 3 * kMs);
  degrade.AcknowledgeAction(DegradeAction::kDropFrame, 4 * kMs);
}

TEST(MetricsGoldenTest, RegistryExportsMatchGolden) {
  AvDatabaseConfig config;
  config.durable_storage = true;
  config.jitter_seed = 11;
  AvDatabase db(config);
  ASSERT_NE(db.metrics(), nullptr);
  int64_t queue_stats[3] = {0, 0, 0};
  RunDatabaseScenario(db, queue_stats);
  obs::Tracer tracer(1024);
  RunClusterScenario(db.metrics(), &tracer, queue_stats);
  RunControllers(db.metrics(), &tracer);

  const std::string json = db.metrics()->Json();
  const std::string prom = db.metrics()->PrometheusText();
  if (std::getenv("AVDB_WRITE_GOLDEN") != nullptr) {
    std::ofstream(GoldenPath("metrics_export.json"), std::ios::binary)
        << DropQueueMembers(json) << "\n";
    std::ofstream(GoldenPath("metrics_export.prom"), std::ios::binary)
        << DropQueueSeries(prom);
    GTEST_SKIP() << "golden files rewritten";
  }
  EXPECT_EQ(DropQueueMembers(json) + "\n",
            ReadFile(GoldenPath("metrics_export.json")));
  EXPECT_EQ(DropQueueSeries(prom), ReadFile(GoldenPath("metrics_export.prom")));

  // The device queues: every database and replica-node queue, summed
  // under one name per field.
  EXPECT_GT(queue_stats[0], 0);
  EXPECT_EQ(db.metrics()
                ->GetCounter("avdb_sched_device_queue_requests_total")
                ->Value(),
            queue_stats[0]);
  EXPECT_EQ(
      db.metrics()->GetCounter("avdb_sched_device_queue_busy_ns_total")->Value(),
      queue_stats[1]);
  EXPECT_EQ(db.metrics()
                ->GetCounter("avdb_sched_device_queue_queued_ns_total")
                ->Value(),
            queue_stats[2]);
  EXPECT_NE(json.find("\"avdb_sched_device_queue_requests_total\":"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE avdb_sched_device_queue_queued_ns_total "
                      "counter\n"),
            std::string::npos);
}

}  // namespace
}  // namespace avdb
