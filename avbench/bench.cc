#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <string_view>

#include "base/logging.h"
#include "codec/registry.h"
#include "media/synthetic.h"

namespace avbench {

using namespace avdb;

int64_t CpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

namespace {

// The reference kernel works on a 256 KiB table: a walk of dependent loads
// with data-dependent branches over all of it, and multiply-xorshift
// hashing of two 64 KiB chunks of it, each about half of a pass.
constexpr size_t kReferenceWords = 32 * 1024;
constexpr size_t kReferenceChunkWords = 8 * 1024;
constexpr int kReferenceWalkSteps = 1 << 17;
constexpr int kReferenceHashChunks = 400;
// A fresh pass is due once this much CPU time has passed since the last.
constexpr int64_t kReferenceEveryNs = 100LL * 1000 * 1000;

std::vector<uint64_t> MakeReferenceTable() {
  std::vector<uint64_t> table(kReferenceWords);
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (uint64_t& w : table) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    w = x;
  }
  return table;
}

volatile uint64_t reference_sink = 0;
ReferenceTally reference_tally;
int64_t reference_last_ns = 0;

}  // namespace

int64_t ReferencePassNs() {
  static const std::vector<uint64_t> table = MakeReferenceTable();
  // Read the table into cache before the clock starts: every pass then
  // starts from the same cache state, whatever the workload evicted.
  uint64_t acc = 0;
  for (size_t i = 0; i < kReferenceWords; i += 8) acc += table[i];
  const int64_t t0 = CpuNs();
  size_t at = 0;
  for (int k = 0; k < kReferenceWalkSteps; ++k) {
    const uint64_t w = table[at];
    if ((w >> 7) & 1) {
      acc += w;
    } else {
      acc ^= w >> 3;
    }
    at = static_cast<size_t>(w ^ acc) & (kReferenceWords - 1);
  }
  for (int k = 0; k < kReferenceHashChunks; ++k) {
    const uint64_t* w =
        table.data() + static_cast<size_t>(k % 2) * kReferenceChunkWords;
    uint64_t h[4] = {1, 2, 3, 4};
    for (size_t i = 0; i < kReferenceChunkWords; i += 4) {
      for (size_t l = 0; l < 4; ++l) {
        h[l] = (h[l] ^ w[i + l]) * 0x9E3779B97F4A7C15ULL;
        h[l] ^= h[l] >> 29;
      }
    }
    acc += h[0] ^ h[1] ^ h[2] ^ h[3];
  }
  reference_sink = acc;
  const int64_t t1 = CpuNs();
  reference_tally.passes += 1;
  reference_tally.ns += t1 - t0;
  reference_last_ns = t1;
  return t1 - t0;
}

void MaybeReferencePass() {
  if (CpuNs() - reference_last_ns >= kReferenceEveryNs) ReferencePassNs();
}

ReferenceTally ReferenceSoFar() { return reference_tally; }

double Percentile(std::vector<int64_t>* values, double p) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return static_cast<double>((*values)[rank - 1]);
}

// --------------------------------------------------------------- spans ----

int32_t SpanLog::Begin(const char* name, int64_t request) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, CpuNs(), 0, parent, request});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = CpuNs();
  AVDB_CHECK(!open_.empty() && open_.back() == index) << "span nesting";
  open_.pop_back();
}

std::map<std::string, SpanLog::Totals> SpanLog::Summarize() const {
  // One thread, strictly nested spans: the children of a span never
  // overlap, so the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = totals[s.name];
    ++t.count;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return totals;
}

std::vector<int64_t> SpanLog::Durations(const char* name) const {
  std::vector<int64_t> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"request\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void RunSliced(EventEngine* engine, int64_t until_ns, SpanLog* spans,
               size_t* peak_footprint) {
  int64_t t = engine->now_ns();
  while (t < until_ns) {
    t = std::min(until_ns, (t / kSliceNs + 1) * kSliceNs);
    {
      ScopedSpan span(spans, "run", -1);
      engine->RunUntil(t);
    }
    *peak_footprint = std::max(*peak_footprint, engine->MemoryFootprintBytes());
    MaybeReferencePass();
  }
}

// ------------------------------------------------------------- content ----

namespace {

constexpr synthetic::VideoPattern kPatterns[] = {
    synthetic::VideoPattern::kMovingGradient,
    synthetic::VideoPattern::kMovingBox,
};

}  // namespace

std::shared_ptr<RawVideoValue> SeededRawClip(int width, int height, int fps,
                                             int64_t frames, int pattern,
                                             Rng* rng) {
  const MediaDataType type = MediaDataType::RawVideo(width, height, 8,
                                                     Rational(fps));
  const synthetic::VideoPattern p = kPatterns[pattern % 2];
  std::vector<VideoFrame> out;
  out.reserve(static_cast<size_t>(frames));
  for (int64_t i = 0; i < frames; ++i) {
    VideoFrame frame =
        synthetic::GeneratePatternFrame(width, height, 8, i, p, 1);
    const uint64_t bits = rng->NextU64();
    for (int b = 0; b < 8 && b < width; ++b) {
      frame.data()[static_cast<size_t>(b)] =
          static_cast<uint8_t>(bits >> (8 * b));
    }
    out.push_back(std::move(frame));
  }
  return RawVideoValue::FromFrames(type, std::move(out)).value();
}

std::shared_ptr<EncodedVideoValue> TiledInterClip(int fps, int64_t frames,
                                                  int64_t unique, int pattern,
                                                  Rng* rng) {
  auto raw = SeededRawClip(176, 144, fps, unique, pattern, rng);
  auto codec =
      CodecRegistry::Default().VideoCodecFor(EncodingFamily::kInter).value();
  VideoCodecParams params;
  params.gop_size = 12;
  EncodedVideo video = codec->Encode(*raw, params).value();
  AVDB_CHECK(unique % params.gop_size == 0) << "tiles must be whole GOPs";
  std::vector<EncodedFrame> tiled;
  tiled.reserve(static_cast<size_t>(frames));
  for (int64_t i = 0; i < frames; ++i) {
    tiled.push_back(video.frames[static_cast<size_t>(i % unique)]);
  }
  video.frames = std::move(tiled);
  return EncodedVideoValue::Create(std::move(codec), std::move(video)).value();
}

std::shared_ptr<EncodedVideoValue> OwnDecoder(const EncodedVideoValue& value) {
  auto codec =
      CodecRegistry::Default().VideoCodecFor(value.encoded().family).value();
  return EncodedVideoValue::Create(std::move(codec), value.encoded()).value();
}

}  // namespace avbench
