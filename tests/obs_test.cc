#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace avdb {
namespace obs {
namespace {

TEST(MetricName, Convention) {
  EXPECT_TRUE(ValidMetricName("avdb_sched_stream_elements_presented_total"));
  EXPECT_TRUE(ValidMetricName("avdb_net_transfers_total"));
  EXPECT_TRUE(ValidMetricName("avdb_storage_backoff_ns_total"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("avdb_sched"));        // two segments only
  EXPECT_FALSE(ValidMetricName("sched_foo_total"));   // missing avdb_ prefix
  EXPECT_FALSE(ValidMetricName("avdb_Sched_foo"));    // uppercase
  EXPECT_FALSE(ValidMetricName("avdb_sched_foo-bar")); // bad character
  EXPECT_FALSE(ValidMetricName("avdb__sched_foo"));   // empty segment
  EXPECT_FALSE(ValidMetricName("avdb_sched_foo_"));   // trailing segment
}

TEST(Counter, IncrementAndValue) {
  Counter c("avdb_test_counter_total", "help");
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
}

TEST(Gauge, SetAndAdd) {
  Gauge g("avdb_test_gauge_level", "help");
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 4);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  Histogram h("avdb_test_hist_ns", "help", {10, 20});
  h.Observe(0);    // <= 10
  h.Observe(10);   // == bound -> same bucket (inclusive upper bound)
  h.Observe(11);   // <= 20
  h.Observe(20);   // == bound
  h.Observe(21);   // +Inf
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 2);
  EXPECT_EQ(h.BucketCount(2), 1);
  EXPECT_EQ(h.Count(), 5);
  EXPECT_EQ(h.Sum(), 62);
}

TEST(Histogram, NegativeValuesLandInFirstBucket) {
  Histogram h("avdb_test_hist_ns", "help", {0, 10});
  h.Observe(-5);
  EXPECT_EQ(h.BucketCount(0), 1);
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("avdb_test_reads_total", "reads");
  Counter* b = registry.GetCounter("avdb_test_reads_total");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1);

  Histogram* h1 = registry.GetHistogram("avdb_test_lat_ns", {1, 2, 3});
  Histogram* h2 = registry.GetHistogram("avdb_test_lat_ns", {9});  // ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 3u);
}

TEST(MetricsRegistry, ConcurrentIncrementsSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry] {
      // Each thread resolves the instrument itself: get-or-create must be
      // safe under contention, not just Increment.
      Counter* c = registry.GetCounter("avdb_test_contended_total");
      Histogram* h =
          registry.GetHistogram("avdb_test_contended_ns", {10, 100});
      for (int j = 0; j < kPerThread; ++j) {
        c->Increment();
        h->Observe(j % 200);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("avdb_test_contended_total")->Value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.GetHistogram("avdb_test_contended_ns", {})->Count(),
            kThreads * kPerThread);
}

MetricsRegistry* BuildFixedRegistry() {
  auto* registry = new MetricsRegistry();
  registry->GetCounter("avdb_test_reads_total", "reads served")->Increment(3);
  registry->GetGauge("avdb_test_depth_level", "queue depth")->Set(-2);
  Histogram* h =
      registry->GetHistogram("avdb_test_lat_ns", {10, 20}, "latency");
  h->Observe(5);
  h->Observe(15);
  h->Observe(99);
  return registry;
}

TEST(MetricsRegistry, ExportsAreByteStable) {
  std::unique_ptr<MetricsRegistry> a(BuildFixedRegistry());
  std::unique_ptr<MetricsRegistry> b(BuildFixedRegistry());
  EXPECT_EQ(a->Json(), b->Json());
  EXPECT_EQ(a->PrometheusText(), b->PrometheusText());

  const std::string json = a->Json();
  EXPECT_NE(json.find("\"avdb_test_reads_total\":3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"avdb_test_depth_level\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":119"), std::string::npos);

  const std::string prom = a->PrometheusText();
  EXPECT_NE(prom.find("# TYPE avdb_test_reads_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("avdb_test_reads_total 3"), std::string::npos);
  // Prometheus histogram buckets are cumulative.
  EXPECT_NE(prom.find("avdb_test_lat_ns_bucket{le=\"20\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("avdb_test_lat_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(prom.find("avdb_test_lat_ns_count 3"), std::string::npos);
}

// ------------------------------------------------------------ Attachment --

/// A component-shaped owner: its own plain cells plus the binding that
/// exports them.
struct Owner {
  int64_t reads = 0;
  int64_t bytes = 0;
  int64_t level = 0;
  Attachment metrics;

  void Bind(MetricsRegistry* registry) {
    metrics.Attach(registry, {{"avdb_test_reads_total", &reads, "reads"},
                              {"avdb_test_bytes_total", &bytes, "bytes"},
                              {"avdb_test_depth_level", &level, "depth",
                               /*gauge=*/true}});
  }
};

TEST(Attachment, SumsEveryCellUnderOneNameFromItsAttachValue) {
  MetricsRegistry registry;
  Owner a;
  Owner b;
  a.reads = 5;  // counted before binding: never reported
  a.Bind(&registry);
  b.Bind(&registry);
  a.reads += 2;
  b.reads += 3;
  b.bytes += 100;
  a.level = 4;
  b.level = 1;
  registry.GetCounter("avdb_test_reads_total")->Increment(10);  // pushed
  EXPECT_EQ(registry.GetCounter("avdb_test_reads_total")->Value(), 15);
  EXPECT_EQ(registry.GetCounter("avdb_test_bytes_total")->Value(), 100);
  EXPECT_EQ(registry.GetGauge("avdb_test_depth_level")->Value(), 5);
  EXPECT_NE(registry.Json().find("\"avdb_test_reads_total\":15"),
            std::string::npos);
  EXPECT_NE(registry.PrometheusText().find("avdb_test_bytes_total 100\n"),
            std::string::npos);
}

TEST(Attachment, DetachAndDestructionKeepCountsAndLastLevel) {
  MetricsRegistry registry;
  Counter* reads = registry.GetCounter("avdb_test_reads_total");
  Gauge* level = registry.GetGauge("avdb_test_depth_level");
  {
    Owner a;
    a.Bind(&registry);
    a.reads = 7;
    a.level = 3;
    a.Bind(&registry);  // rebinding is continuous: no double count
    a.reads = 9;
    EXPECT_EQ(reads->Value(), 9);
    EXPECT_EQ(level->Value(), 3);
    a.Bind(nullptr);
    a.reads = 100;  // detached: no longer read
    a.level = 8;
    EXPECT_EQ(reads->Value(), 9);
    EXPECT_EQ(level->Value(), 3);
    a.Bind(&registry);
    a.reads = 101;
  }  // destroyed attached: the final delta folds in
  EXPECT_EQ(reads->Value(), 10);
  EXPECT_EQ(level->Value(), 8);
}

TEST(Attachment, FoldToZeroKeepsCountsAcrossAnOwnerReset) {
  MetricsRegistry registry;
  Owner a;
  a.Bind(&registry);
  a.reads = 6;
  a.metrics.FoldToZero();
  a.reads = 0;  // the owner's reset
  a.reads = 2;
  EXPECT_EQ(registry.GetCounter("avdb_test_reads_total")->Value(), 8);
}

TEST(Attachment, CopiesStartDetachedAndEitherSideMayOutliveTheOther) {
  auto registry = std::make_unique<MetricsRegistry>();
  Owner a;
  a.Bind(registry.get());
  a.reads = 4;
  Owner copy = a;
  copy.reads += 50;  // the copy's cells are not attached
  EXPECT_EQ(registry->GetCounter("avdb_test_reads_total")->Value(), 4);
  registry.reset();  // the registry dies first; the owner detaches later
  a.reads = 5;
}

TEST(Attachment, ManyShortLivedOwnersLeaveOnlyTheirCounts) {
  MetricsRegistry registry;
  for (int i = 0; i < 1000; ++i) {
    Owner o;
    o.Bind(&registry);
    o.reads = 1;
    o.bytes = i;
  }
  EXPECT_EQ(registry.GetCounter("avdb_test_reads_total")->Value(), 1000);
  EXPECT_EQ(registry.GetCounter("avdb_test_bytes_total")->Value(),
            999 * 1000 / 2);
}

TEST(JsonEscapeTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("x\ny"), "x\\ny");
}

TEST(TracerTest, SpanPairingSharesId) {
  Tracer tracer;
  const int64_t span = tracer.BeginSpanAt(100, "activity", "bind", "video1");
  tracer.EndSpanAt(span, 250, "ok");
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].t_ns, 100);
  EXPECT_EQ(events[0].name, "bind");
  EXPECT_EQ(events[1].phase, 'E');
  EXPECT_EQ(events[1].t_ns, 250);
  EXPECT_EQ(events[1].detail, "ok");
  EXPECT_EQ(events[0].span_id, events[1].span_id);
  EXPECT_NE(events[0].span_id, 0);
  // The end half inherits the begin half's identity.
  EXPECT_EQ(events[1].category, "activity");
  EXPECT_EQ(events[1].name, "bind");
  EXPECT_EQ(events[1].actor, "video1");
}

TEST(TracerTest, UnknownSpanEndIsIgnored) {
  Tracer tracer;
  tracer.EndSpan(12345);
  EXPECT_TRUE(tracer.Events().empty());
  EXPECT_EQ(tracer.stats().recorded, 0);
}

TEST(TracerTest, ClockStampsClocklessOverloads) {
  Tracer tracer;
  int64_t now = 0;
  tracer.SetClock([&now] { return now; });
  now = 42;
  tracer.Event("sched", "resync", "audio");
  now = 99;
  tracer.Event("sched", "resync", "audio");
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t_ns, 42);
  EXPECT_EQ(events[1].t_ns, 99);
}

TEST(TracerTest, ClockCallbackMayReenterTracer) {
  // The installed clock is caller code — the event engine's clock can
  // consult the tracer itself — so recording must invoke it with mu_
  // released. Before the fix every clockless overload ran the callback
  // under the lock, and this test deadlocked on the first Event.
  Tracer tracer;
  int64_t now = 7;
  tracer.SetClock([&tracer, &now] {
    (void)tracer.stats();  // re-enters Tracer::mu_
    return now;
  });
  tracer.Event("sched", "tick", "probe");
  now = 9;
  const int64_t id = tracer.BeginSpan("sched", "span", "probe");
  tracer.EndSpan(id);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t_ns, 7);
  EXPECT_EQ(events[1].t_ns, 9);
  EXPECT_EQ(events[2].t_ns, 9);
}

TEST(TracerTest, RingWrapsAndCountsDropped) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.EventAt(i, "test", "tick", "t" + std::to_string(i));
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first, and only the newest four survive.
  EXPECT_EQ(events[0].t_ns, 6);
  EXPECT_EQ(events[3].t_ns, 9);
  EXPECT_EQ(tracer.stats().recorded, 10);
  EXPECT_EQ(tracer.stats().dropped, 6);
  // Sequence numbers survive eviction (monotone, never reused).
  EXPECT_EQ(events[0].seq + 3, events[3].seq);
}

TEST(TracerTest, CaptureDeliveriesDefaultsOff) {
  Tracer tracer;
  EXPECT_FALSE(tracer.capture_deliveries());
  tracer.set_capture_deliveries(true);
  EXPECT_TRUE(tracer.capture_deliveries());
}

TEST(TracerTest, DumpJsonIsByteStable) {
  auto build = [] {
    auto tracer = std::make_unique<Tracer>(8);
    const int64_t span = tracer->BeginSpanAt(0, "activity", "start", "v");
    tracer->EventAt(10, "sched", "degrade", "v", "drop_frame");
    tracer->EndSpanAt(span, 20);
    return tracer;
  };
  const auto a = build();
  const auto b = build();
  EXPECT_EQ(a->DumpJson(), b->DumpJson());
  const std::string json = a->DumpJson();
  EXPECT_NE(json.find("\"capacity\":8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"recorded\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"I\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"detail\":\"drop_frame\""), std::string::npos);
}

TEST(TracerTest, ConcurrentAppendsKeepExactCounts) {
  Tracer tracer(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer, i] {
      for (int j = 0; j < kPerThread; ++j) {
        tracer.EventAt(j, "test", "tick", "thread" + std::to_string(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.stats().recorded, kThreads * kPerThread);
  EXPECT_EQ(tracer.stats().dropped, kThreads * kPerThread - 64);
  EXPECT_EQ(tracer.Events().size(), 64u);
}

}  // namespace
}  // namespace obs
}  // namespace avdb
