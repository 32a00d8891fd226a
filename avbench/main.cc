// avbench — end-to-end, layer-attributed benchmark of the avdb stack.
//
//   avbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out <file>]
//
// Workloads: preview_wall, replicated_playback, newscast_zap,
// ingest_beside_playback (see README.md in this directory).
//
// --trace 0 runs the workload five times, each on a freshly set-up world,
// and prints the end-to-end metrics, host times as medians over the five.
// --trace 1 runs the workload untraced and then traced (bench-side spans
// around every layer boundary the benchmark crosses), checks that both
// produce the same virtual-time results, and prints the per-layer metrics
// and the tracing overhead.
//
// Every run checks its outputs. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
// is non-zero when any check fails.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "codec/registry.h"
#include "codec/simd/kernels.h"

using namespace avbench;

namespace {

#ifndef AVBENCH_BUILD_TYPE
#define AVBENCH_BUILD_TYPE "unknown"
#endif
#ifndef AVBENCH_COMPILER
#define AVBENCH_COMPILER "unknown"
#endif
#ifndef AVBENCH_CXX_FLAGS
#define AVBENCH_CXX_FLAGS ""
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

// Repetitions of the whole workload in one untraced run.
constexpr int kRepetitions = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

using Factory = std::unique_ptr<Workload> (*)(const WorkloadParams&);

Factory FindWorkload(const std::string& name) {
  if (name == "preview_wall") return MakePreviewWall;
  if (name == "replicated_playback") return MakeReplicatedPlayback;
  if (name == "newscast_zap") return MakeNewscastZap;
  if (name == "ingest_beside_playback") return MakeIngestBesidePlayback;
  return nullptr;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Seed of the workload RNG: the command-line seed, decorrelated.
uint64_t WorkloadSeed(uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL;
}

// Reference passes run before and after set-up, on top of the ones RunSliced
// makes while a phase runs.
constexpr int kEdgePasses = 3;

void EdgePasses() {
  for (int i = 0; i < kEdgePasses; ++i) ReferencePassNs();
}

/// Reference passes made between two tallies.
ReferenceTally Between(const ReferenceTally& from, const ReferenceTally& to) {
  return {to.passes - from.passes, to.ns - from.ns};
}

/// `cpu_ns` in calibrated seconds: scaled by (kReferencePassNs / the mean
/// of the reference passes made around or during it) ^ kHostSensitivity.
double Calibrated(int64_t cpu_ns, const ReferenceTally& passes) {
  const double mean_pass_ns =
      static_cast<double>(passes.ns) / static_cast<double>(passes.passes);
  return static_cast<double>(cpu_ns) / 1e9 *
         std::pow(static_cast<double>(kReferencePassNs) / mean_pass_ns,
                  kHostSensitivity);
}

struct Execution {
  Outcome outcome;  ///< the last repetition's
  // Medians over repetitions: set-up and the timed phase in calibrated
  // seconds (the figures reported) and in plain CPU seconds, and the mean
  // reference pass of the timed phase.
  double setup_s = 0;
  double timed_s = 0;
  double setup_cpu_s = 0;
  double timed_cpu_s = 0;
  double reference_pass_ms = 0;
};

/// Runs the workload `reps` times, each on a fresh world: set-up (build +
/// warm-up), then the timed phase. Every repetition replays the same seeded
/// schedule, so their virtual-time results must agree exactly; host times
/// are reported as medians, which sheds a repetition that a busy neighbour
/// slowed down. Neither phase counts the CPU time of the reference passes
/// made during it or of the workload's own checks.
Execution Execute(Factory factory, const WorkloadParams& params, int reps) {
  Execution e;
  std::vector<double> setup_s, timed_s, setup_cpu_ns, timed_cpu_ns, pass_ns;
  std::vector<std::string> failures;
  std::printf("repetitions");
  for (int k = 0; k < reps; ++k) {
    // Hand the previous world back to the OS so peak RSS measures one.
    malloc_trim(0);
    Outcome outcome;
    const ReferenceTally r0 = ReferenceSoFar();
    EdgePasses();
    const ReferenceTally r1 = ReferenceSoFar();
    const int64_t t0 = CpuNs();
    std::unique_ptr<Workload> world = factory(params);
    world->Build();
    world->Warm();
    const int64_t t1 = CpuNs();
    const ReferenceTally r2 = ReferenceSoFar();
    const int64_t check1 = world->CheckCpuNs();
    EdgePasses();
    world->MarkTimed();
    const ReferenceTally r3 = ReferenceSoFar();
    const int64_t t2 = CpuNs();
    world->Run();
    const int64_t t3 = CpuNs();
    const ReferenceTally r4 = ReferenceSoFar();
    const int64_t check2 = world->CheckCpuNs();
    world->Finish(&outcome);
    world.reset();
    const int64_t setup_ns = t1 - t0 - Between(r1, r2).ns - check1;
    const int64_t run_ns = t3 - t2 - Between(r3, r4).ns - (check2 - check1);
    setup_cpu_ns.push_back(static_cast<double>(setup_ns));
    timed_cpu_ns.push_back(static_cast<double>(run_ns));
    const ReferenceTally setup_passes = {
        Between(r0, r1).passes + Between(r2, r3).passes,
        Between(r0, r1).ns + Between(r2, r3).ns};
    // The timed phase is calibrated by the passes made while it ran; one
    // too short to make any falls back to the set-up's.
    ReferenceTally timed_passes = Between(r3, r4);
    if (timed_passes.passes == 0) timed_passes = setup_passes;
    setup_s.push_back(Calibrated(setup_ns, setup_passes));
    timed_s.push_back(Calibrated(run_ns, timed_passes));
    pass_ns.push_back(static_cast<double>(timed_passes.ns) /
                      static_cast<double>(timed_passes.passes));
    std::printf(" setup %.3f s / timed %.3f CPU-s / %" PRId64
                " passes of %.3f ms;",
                static_cast<double>(setup_ns) / 1e9,
                static_cast<double>(run_ns) / 1e9, timed_passes.passes,
                pass_ns.back() / 1e6);
    if (k > 0 && (outcome.vdigest != e.outcome.vdigest ||
                  outcome.Attempted() != e.outcome.Attempted() ||
                  outcome.Failed() != e.outcome.Failed())) {
      failures.push_back(
          "repetitions of one seed disagree on virtual-time results");
    }
    for (std::string& f : outcome.check_failures) {
      failures.push_back("repetition " + std::to_string(k + 1) + ": " + f);
    }
    e.outcome = std::move(outcome);
  }
  std::printf("\n");
  e.outcome.check_failures = std::move(failures);
  e.setup_s = Median(setup_s);
  e.timed_s = Median(timed_s);
  e.setup_cpu_s = Median(setup_cpu_ns) / 1e9;
  e.timed_cpu_s = Median(timed_cpu_ns) / 1e9;
  e.reference_pass_ms = Median(pass_ns) / 1e6;
  return e;
}

// ------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Workload-specific end-to-end figures, printed on report lines for the
/// steadiness runner and for readers: the virtual-time QoS with its sample
/// counts, and the host capacity figures not in BENCHMARK.json.
void PrintQos(const std::string& workload, Outcome& o, double timed_s) {
  const double miss_rate =
      Ratio(static_cast<double>(o.frames_due - o.frames_on_time),
            static_cast<double>(o.frames_due));
  std::vector<Metric> qos = {{"miss_rate", "ratio", miss_rate}};
  // p50 and p99 of each virtual-time distribution with its sample count;
  // when fewer than ten samples lie beyond p99, also the highest of p95,
  // p90 and p75 that has ten beyond it.
  auto distribution = [&](const std::string& name, std::vector<int64_t>* v) {
    const double n = static_cast<double>(v->size());
    qos.push_back({name + "_p50_ms", "ms", Percentile(v, 0.50) / 1e6});
    qos.push_back({name + "_p99_ms", "ms", Percentile(v, 0.99) / 1e6});
    if (n * 0.01 < 10) {
      for (int p : {95, 90, 75}) {
        if (n * (100 - p) / 100.0 >= 10) {
          qos.push_back({name + "_p" + std::to_string(p) + "_ms", "ms",
                         Percentile(v, p / 100.0) / 1e6});
          break;
        }
      }
    }
    qos.push_back({name + "_samples", "count", n});
  };
  distribution("lateness", &o.lateness_ns);
  distribution("startup", &o.startup_ns);
  distribution("put_ack", &o.put_ack_ns);
  std::printf("qos %s %s\n", workload.c_str(), MetricsJson(qos).c_str());
  const std::vector<Metric> capacity = {
      {"ingest_mb_per_cpu_s", "MB/CPU-s",
       Ratio(static_cast<double>(o.timed_ingest_bytes) / 1e6, timed_s)},
  };
  std::printf("capacity %s %s\n", workload.c_str(),
              MetricsJson(capacity).c_str());
  std::printf("vdigest %s %016" PRIx64 "\n", workload.c_str(), o.vdigest);
}

/// The per-layer metric table: name, unit, and how its value is derived
/// from the traced run's counters (`layer`) and span totals.
std::vector<Metric> LayerMetrics(Outcome& o, const SpanLog& log,
                                 double overhead) {
  auto totals = log.Summarize();
  auto span_total_us = [&](const char* name) {
    return static_cast<double>(totals[name].total_ns) / 1e3;
  };
  auto span_pct_us = [&](const char* name, double p) {
    std::vector<int64_t> d = log.Durations(name);
    return Percentile(&d, p) / 1e3;
  };
  auto L = [&](const char* name) { return o.layer[name]; };
  const double frames = static_cast<double>(o.frames_presented);
  const double run_self_us = static_cast<double>(totals["run"].self_ns) / 1e3;
  return {
      {"sched.events_per_frame", "events/frame",
       Ratio(L("events_run"), frames)},
      {"sched.run_self_us_per_frame", "us/frame", Ratio(run_self_us, frames)},
      {"sched.engine_bytes_per_session", "bytes/session",
       Ratio(L("engine_peak_bytes"), L("sessions"))},
      {"sched.device_wait_ms_mean", "ms",
       Ratio(L("device_queued_ns"), L("device_requests")) / 1e6},
      {"sched.device_busy_share", "ratio",
       Ratio(L("device_busy_ns"), L("device_span_ns"))},
      {"sched.admission_rejects", "count", L("admission_rejects")},
      {"sched.sync_resyncs", "count", L("sync_resyncs")},
      {"sched.sync_skew_max_ms", "ms", L("sync_skew_max_ns") / 1e6},
      {"sched.degrade_drops", "count", L("degrade_drops")},
      {"activity.graph_add_us", "us",
       Ratio(span_total_us("graph_add"),
             static_cast<double>(totals["graph_add"].count))},
      {"media.plane_copies_per_frame", "copies/frame",
       Ratio(L("plane_copies"), frames)},
      {"codec.decode_us_per_frame", "us/frame",
       Ratio(span_total_us("decode"),
             static_cast<double>(totals["decode"].count))},
      {"codec.decoded_per_presented", "frames/frame",
       Ratio(L("frames_decoded"), L("decoder_frames_presented"))},
      {"codec.encode_us_per_frame", "us/frame",
       Ratio(span_total_us("encode"), L("frames_encoded"))},
      {"codec.encoded_bytes_per_raw_byte", "bytes/byte",
       Ratio(L("encoded_bytes"), L("raw_bytes_encoded"))},
      {"base.pool_allocations_per_frame", "allocs/frame",
       Ratio(L("pool_allocations"), frames)},
      {"storage.hashed_bytes_per_read_byte", "bytes/byte",
       Ratio(L("pages_verified") * 65536.0, L("store_bytes_returned"))},
      {"storage.cache_hit_rate", "ratio",
       Ratio(L("cache_hits"), L("cache_hits") + L("cache_misses"))},
      {"storage.retries", "count", L("store_retries")},
      {"storage.backoff_ms", "ms", L("store_backoff_ns") / 1e6},
      {"storage.journal_records_per_put", "records/put",
       Ratio(L("journal_records"), L("user_puts"))},
      {"storage.journal_compactions", "count", L("journal_compactions")},
      {"net.bytes_per_frame", "bytes/frame",
       Ratio(L("net_bytes"), frames)},
      {"net.link_wait_ms_mean", "ms",
       Ratio(L("link_queued_ns"), L("link_requests")) / 1e6},
      {"cluster.fetch_us_p50", "us", span_pct_us("fetch", 0.50)},
      {"cluster.fetch_us_p99", "us", span_pct_us("fetch", 0.99)},
      {"cluster.attempts_per_fetch", "attempts/fetch",
       Ratio(L("router_fetches") + L("router_failovers") + L("router_hedges"),
             L("router_fetches"))},
      {"cluster.hedge_win_share", "ratio",
       Ratio(L("router_hedge_wins"), L("router_hedges"))},
      {"cluster.breaker_opens", "count", L("router_breaker_opens")},
      {"cluster.deadline_fast_fails", "count", L("router_fast_fails")},
      {"cluster.put_us_p50", "us", span_pct_us("put", 0.50)},
      {"cluster.put_us_p99", "us", span_pct_us("put", 0.99)},
      {"cluster.replica_bytes_per_user_byte", "bytes/byte",
       Ratio(L("replica_bytes_written"), L("user_bytes_written"))},
      {"cluster.hints_replayed", "count", L("hints_replayed")},
      {"cluster.resync_bytes", "bytes", L("resync_bytes")},
      {"db.select_us_p50", "us", span_pct_us("select", 0.50)},
      {"db.select_us_p99", "us", span_pct_us("select", 0.99)},
      {"db.open_us_p50", "us", span_pct_us("open", 0.50)},
      {"db.open_us_p99", "us", span_pct_us("open", 0.99)},
      {"db.close_us_p50", "us", span_pct_us("close", 0.50)},
      {"db.lock_conflicts", "count", L("lock_conflicts")},
      {"obs.trace_dropped", "count", L("trace_dropped")},
      {"obs.trace_overhead", "ratio", overhead},
  };
}

void PrintHost(const Args& args) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "host nproc=%ld simd=%s compiler=\"%s\" flags=\"%s\" build=%s "
      "codec_concurrency=%d workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
      nproc, avdb::simd::KernelLevelName(avdb::simd::ActiveKernels().level),
      AVBENCH_COMPILER, AVBENCH_CXX_FLAGS, AVBENCH_BUILD_TYPE,
      avdb::CodecRegistry::default_concurrency(), args.workload.c_str(),
      args.seed, args.seconds, args.trace);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: avbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  const Factory factory = FindWorkload(args.workload);
  if (factory == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  PrintHost(args);
  if (kSanitized || !kOptimized ||
      std::strcmp(AVBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "refusing to report numbers from a non-Release or sanitizer "
                 "build (build type %s)\n",
                 AVBENCH_BUILD_TYPE);
    return 3;
  }
  if (avdb::CodecRegistry::default_concurrency() != 1) {
    std::fprintf(stderr, "codec concurrency must be 1 (single thread)\n");
    return 3;
  }

  WorkloadParams params;
  params.seed = WorkloadSeed(args.seed);
  params.scale = args.seconds / 10.0;

  std::vector<Metric> metrics;
  Outcome* reported = nullptr;
  std::vector<std::string> failures;
  Execution plain;
  Execution traced;
  SpanLog log;

  if (args.trace == 0) {
    plain = Execute(factory, params, kRepetitions);
    reported = &plain.outcome;
    const double frames =
        static_cast<double>(plain.outcome.timed_frames_on_time);
    const double opens =
        static_cast<double>(plain.outcome.timed_sessions_done);
    PrintQos(args.workload, plain.outcome, plain.timed_s);
    std::printf(
        "uncalibrated setup_s=%.6g frames_per_cpu_s=%.6g "
        "opens_per_cpu_s=%.6g (plain CPU seconds; reference pass %.3f ms, "
        "calibrated to %.3f ms)\n",
        plain.setup_cpu_s, frames / plain.timed_cpu_s,
        opens / plain.timed_cpu_s, plain.reference_pass_ms,
        static_cast<double>(kReferencePassNs) / 1e6);
    metrics = {
        {"setup_s", "s", plain.setup_s},
        {"peak_rss_mb", "MB", PeakRssMb()},
        {"frames_per_cpu_s", "frames/CPU-s", frames / plain.timed_s},
        {"opens_per_cpu_s", "opens/CPU-s", opens / plain.timed_s},
    };
  } else {
    // The overhead is taken against the median of two untraced repetitions.
    plain = Execute(factory, params, 2);
    WorkloadParams traced_params = params;
    traced_params.spans = &log;
    traced = Execute(factory, traced_params, 1);
    reported = &traced.outcome;
    const double overhead = traced.timed_s / plain.timed_s - 1.0;
    PrintQos(args.workload, traced.outcome, traced.timed_s);
    std::printf(
        "tracing overhead %.4f (traced %.3f s / untraced %.3f s, "
        "calibrated)\n",
        overhead, traced.timed_s, plain.timed_s);
    if (traced.outcome.vdigest != plain.outcome.vdigest ||
        traced.outcome.Attempted() != plain.outcome.Attempted() ||
        traced.outcome.Failed() != plain.outcome.Failed()) {
      failures.push_back(
          "traced run's virtual-time results differ from the untraced run");
    }
    for (const std::string& f : plain.outcome.check_failures) {
      failures.push_back("untraced: " + f);
    }
    metrics = LayerMetrics(traced.outcome, log, overhead);
    if (!args.spans_out.empty() && !log.WriteJsonLines(args.spans_out)) {
      failures.push_back("cannot write spans to " + args.spans_out);
    }
    std::printf("spans %zu\n", log.spans().size());
  }
  for (const std::string& f : reported->check_failures) failures.push_back(f);
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s}\n",
      correct ? "true" : "false", reported->Attempted(), reported->Failed(),
      MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
