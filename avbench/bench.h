// Shared plumbing of the avdb end-to-end benchmark: the CPU clock, the
// bench-side span log, percentile and digest helpers, seeded content, and
// the per-run outcome every workload fills in.
//
// The benchmark is one process on one thread. Host cost is process CPU time
// (user + sys), never wall time: on a shared host wall time moves with the
// neighbours, CPU time moves with the work. Quality of service is read from
// the EventEngine's virtual clock, so at a fixed seed it repeats exactly.

#ifndef AVBENCH_BENCH_H_
#define AVBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "codec/encoded_value.h"
#include "media/video_value.h"
#include "sched/event_engine.h"

namespace avbench {

/// Process CPU time (user + sys) in nanoseconds.
int64_t CpuNs();

/// Host-speed reference: the CPU time of one pass of a fixed kernel that
/// shares no code with the avdb tree: a walk of dependent loads with
/// data-dependent branches over a 256 KiB table, and multiply-xorshift
/// hashing of parts of it. The harness runs passes before and after set-up,
/// and RunSliced runs one between engine slices every 100 ms of CPU time,
/// so the passes sample the host while a phase runs. A phase's CPU time
/// divided by the mean pass of that phase cancels much of a host that runs
/// everything slower for a while (a lower clock, a neighbour on the same
/// core or cache), while a change to the avdb code moves the phase and not
/// the kernel. Of the kernels tried, this mix tracked the workloads' own
/// slow-downs best.
int64_t ReferencePassNs();

/// Runs a reference pass when 100 ms of CPU time have passed since the
/// last one.
void MaybeReferencePass();

/// Count and total CPU time of every reference pass so far.
struct ReferenceTally {
  int64_t passes = 0;
  int64_t ns = 0;
};
ReferenceTally ReferenceSoFar();

/// CPU time of one reference pass on the host the calibrated figures are
/// expressed in: calibrated seconds = CPU seconds * (kReferencePassNs / the
/// phase's mean pass) ^ kHostSensitivity.
constexpr int64_t kReferencePassNs = 4LL * 1000 * 1000;

/// How much more the workloads slow down than the kernel when the host
/// does: regressing log(timed CPU) on log(mean pass) over repetitions of
/// each workload gave slopes of 1.4 to 1.7 on a shared x86 host.
constexpr double kHostSensitivity = 1.5;

/// Nearest-rank percentile of `values` (sorted in place); 0 when empty.
double Percentile(std::vector<int64_t>* values, double p);

/// Order-sensitive fold of `value` into `digest`.
inline void Fold(uint64_t* digest, uint64_t value) {
  *digest = (*digest ^ value) * 0x100000001b3ULL + 0x9e3779b97f4a7c15ULL;
}

// --------------------------------------------------------------- spans ----

/// Bench-side trace: one span per boundary the benchmark crosses (engine
/// slice, range fetch, decode, select/open/close, encode, put). Spans live
/// in memory and are written out when the run ends. Times are CPU time, the
/// clock the end-to-end metrics use. A null log records nothing, which is
/// how the untraced run pays (almost) nothing for the wrappers.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;   ///< index of the enclosing span, -1 at top level
    int64_t request;  ///< session, viewer or segment id
  };

  int32_t Begin(const char* name, int64_t request);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration and self time (duration minus the time
  /// its direct children cover), in ns, and the span count.
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Durations (ns) of every span called `name`.
  std::vector<int64_t> Durations(const char* name) const;

  /// Writes the spans as JSON lines; false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t request)
      : log_(log), index_(log == nullptr ? -1 : log->Begin(name, request)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Forwarding video value: same type, frame count and stored frame sizes as
/// the wrapped encoded value, with a "decode" span around every Frame(). It
/// is bound only in the traced run, so the untraced run measures the
/// library's own value class.
class TracedVideoValue final : public avdb::VideoValue {
 public:
  TracedVideoValue(std::shared_ptr<avdb::EncodedVideoValue> inner,
                   SpanLog* log, int64_t request)
      : VideoValue(inner->type()),
        inner_(std::move(inner)),
        log_(log),
        request_(request) {}

  int64_t ElementCount() const override { return inner_->ElementCount(); }
  avdb::Result<avdb::VideoFrame> Frame(int64_t index) const override {
    ScopedSpan span(log_, "decode", request_);
    return inner_->Frame(index);
  }
  int64_t StoredBytes() const override { return inner_->StoredBytes(); }
  int64_t StoredFrameBytes(int64_t index) const override {
    return inner_->StoredFrameBytes(index);
  }

 private:
  std::shared_ptr<avdb::EncodedVideoValue> inner_;
  SpanLog* log_;
  int64_t request_;
};

// ------------------------------------------------------------- content ----

/// Seeded raw clip: a library test pattern with the first 8 pixels of every
/// frame overwritten by seeded bytes, so a different seed gives different
/// media.
std::shared_ptr<avdb::RawVideoValue> SeededRawClip(int width, int height,
                                                   int fps, int64_t frames,
                                                   int pattern,
                                                   avdb::Rng* rng);

/// Inter-coded clip of `frames` frames at 176x144 / `fps`, GOP 12: the first
/// `unique` frames are encoded for real and the closed GOPs repeat to fill
/// the length, so a long clip costs little set-up.
std::shared_ptr<avdb::EncodedVideoValue> TiledInterClip(int fps,
                                                        int64_t frames,
                                                        int64_t unique,
                                                        int pattern,
                                                        avdb::Rng* rng);

/// Copy of `value` with its own decoder session (a stream's own decoder).
std::shared_ptr<avdb::EncodedVideoValue> OwnDecoder(
    const avdb::EncodedVideoValue& value);

// -------------------------------------------------------------- outcome ----

/// Everything one execution of a workload reports. Virtual-time fields are
/// exact at a fixed seed; `vdigest` folds all of them plus the media digests
/// so two executions can be compared with one number.
struct Outcome {
  // Operations: a frame due, an open, or a put.
  int64_t frames_due = 0;
  int64_t frames_presented = 0;
  int64_t frames_on_time = 0;       ///< presented within the miss threshold
  int64_t frames_failed = 0;        ///< fetch or decode error, not deadline
  int64_t opens = 0;
  int64_t opens_failed = 0;
  int64_t puts = 0;
  int64_t puts_failed = 0;

  // Timed-phase numerators (work done after the warm-up).
  int64_t timed_frames_on_time = 0;
  int64_t timed_sessions_done = 0;
  int64_t timed_ingest_bytes = 0;   ///< raw captured bytes encoded and acked

  // Virtual-time samples (ns).
  std::vector<int64_t> lateness_ns;  ///< presented video frames
  std::vector<int64_t> startup_ns;   ///< arrival -> first presented frame
  std::vector<int64_t> put_ack_ns;   ///< segment due -> W-th replica ack

  uint64_t vdigest = 0;
  std::vector<std::string> check_failures;

  /// Per-layer counters, keyed by the per-layer metric names.
  std::map<std::string, double> layer;

  int64_t Attempted() const { return frames_due + opens + puts; }
  int64_t Failed() const { return frames_failed + opens_failed + puts_failed; }
  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// One workload: Build() makes the world (content, stores, cluster, db,
/// graph); Warm() runs the untimed warm-up prefix of the virtual schedule;
/// Run() runs the rest; Finish() checks outputs and fills the outcome.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Build() = 0;
  virtual void Warm() = 0;
  /// Snapshots the counters the timed phase is measured against.
  virtual void MarkTimed() = 0;
  virtual void Run() = 0;
  virtual void Finish(Outcome* out) = 0;
  /// CPU time spent so far on output checks that run inside Warm() or
  /// Run(); the harness takes it out of the phase it fell in.
  virtual int64_t CheckCpuNs() const { return 0; }
};

struct WorkloadParams {
  uint64_t seed = 1;
  /// Multiplies the schedule length; 1.0 (--seconds 10) sizes a workload
  /// for about three CPU-seconds of timed work per repetition on a current
  /// x86 core, fifteen over a run's five repetitions.
  double scale = 1.0;
  SpanLog* spans = nullptr;  ///< non-null only in the traced run
};

std::unique_ptr<Workload> MakePreviewWall(const WorkloadParams& params);
std::unique_ptr<Workload> MakeReplicatedPlayback(const WorkloadParams& params);
std::unique_ptr<Workload> MakeNewscastZap(const WorkloadParams& params);
std::unique_ptr<Workload> MakeIngestBesidePlayback(
    const WorkloadParams& params);

/// Runs the engine to `until_ns` in fixed virtual slices, one "run" span per
/// slice, and raises `*peak_footprint` to the engine's largest footprint
/// seen at a slice boundary. Reference passes fall between slices.
void RunSliced(avdb::EventEngine* engine, int64_t until_ns, SpanLog* spans,
               size_t* peak_footprint);

/// Virtual length of one engine slice.
constexpr int64_t kSliceNs = 100LL * 1000 * 1000;

}  // namespace avbench

#endif  // AVBENCH_BENCH_H_
