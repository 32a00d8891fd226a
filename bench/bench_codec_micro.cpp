// Codec kernel micro-bench + acceptance gates — DESIGN.md §12 "SIMD
// dispatch + zero-copy frame model".
//
// Four measurements on the transform-dominated intra config (QCIF):
//
//   1. Per-kernel ns/op: every entry of the simd::CodecKernels dispatch
//      table, scalar reference vs the runtime-dispatched implementation.
//   2. End-to-end single-thread encode fps vs the pre-PR baseline — the
//      double-precision DCT + divide quantizer + copy-per-plane pipeline
//      this PR replaced, kept alive below as LegacyEncodeFrame so the
//      speedup is measured against the real thing, not a guess.
//      Acceptance gate: dispatched fps >= 2x legacy fps (exit 1).
//   3. Byte identity: every kernel level available in this binary must
//      encode the intra frame and an inter GOP to the exact bytes the
//      scalar reference emits (exit 1 on any diff).
//   4. Steady-state allocations/frame: after one warm-up cycle, a full
//      inter encode+decode cycle must be served entirely from the shared
//      BufferPool — zero pool misses (exit 1 otherwise).
//   5. Inter decode µs/frame: a stored 176×144 GOP-12 stream (the shape
//      avbench's playback sessions decode), decoded front to back at the
//      dispatched level; every level must decode it to the scalar
//      reference's frames (exit 1 on any diff).
//   6. Inter encode µs/frame: the same clip encoded at the dispatched
//      level (motion search, residual transform, reconstruction); every
//      level must write the scalar reference's bytes (exit 1 on any diff).
//
// Output: BENCH_codec_micro.json.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "base/buffer_pool.h"
#include "codec/bitio.h"
#include "codec/block_transform.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/simd/kernels.h"
#include "media/frame.h"
#include "media/synthetic.h"

using namespace avdb;

namespace {

constexpr int kWidth = 176;
constexpr int kHeight = 144;
constexpr int kQuality = 75;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Defeats dead-code elimination without fencing the timed region.
volatile uint32_t g_sink = 0;
void Sink(uint32_t v) { g_sink = g_sink + v; }

// Best-of-reps ns per call of `fn` (which must already fold its output
// into g_sink).
template <typename Fn>
double MeasureNs(int iters, int reps, Fn&& fn) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowNs();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, (NowNs() - t0) / iters);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Pre-PR baseline, verbatim from the old block_transform.cc: float DCT-II
// basis, naive triple-loop transform, divide-and-round quantizer, and a
// fresh heap copy of every plane (the ExtractPlane pattern the zero-copy
// pipeline removed). The entropy coder (EncodeBlock) is shared with the
// current pipeline, so the comparison isolates transform + memory traffic.

using Block = block_transform::Block;
using CoeffBlock = block_transform::CoeffBlock;
constexpr int kBS = block_transform::kBlockSize;
constexpr int kBA = block_transform::kBlockArea;

struct LegacyDctTables {
  double basis[kBS][kBS];
  LegacyDctTables() {
    for (int u = 0; u < kBS; ++u) {
      const double a = u == 0 ? std::sqrt(1.0 / kBS) : std::sqrt(2.0 / kBS);
      for (int x = 0; x < kBS; ++x) {
        basis[u][x] = a * std::cos((2 * x + 1) * u * M_PI / (2 * kBS));
      }
    }
  }
};

const LegacyDctTables& LegacyTables() {
  static const LegacyDctTables tables;
  return tables;
}

CoeffBlock LegacyForwardDct(const Block& spatial) {
  const auto& t = LegacyTables();
  double tmp[kBS][kBS];
  for (int y = 0; y < kBS; ++y) {
    for (int u = 0; u < kBS; ++u) {
      double acc = 0;
      for (int x = 0; x < kBS; ++x) acc += t.basis[u][x] * spatial[y * kBS + x];
      tmp[y][u] = acc;
    }
  }
  CoeffBlock out;
  for (int v = 0; v < kBS; ++v) {
    for (int u = 0; u < kBS; ++u) {
      double acc = 0;
      for (int y = 0; y < kBS; ++y) acc += t.basis[v][y] * tmp[y][u];
      out[v * kBS + u] = static_cast<int32_t>(std::lround(acc));
    }
  }
  return out;
}

void LegacyQuantize(CoeffBlock* coeffs, int quality) {
  for (int i = 0; i < kBA; ++i) {
    const int step = block_transform::QuantStep(i, quality);
    const int32_t v = (*coeffs)[i];
    (*coeffs)[i] = v >= 0 ? (v + step / 2) / step : -((-v + step / 2) / step);
  }
}

void LegacyEncodePlane(const std::vector<int16_t>& plane, int width,
                       int height, int quality, BitWriter* out) {
  int32_t dc_predictor = 0;
  for (int by = 0; by < height; by += kBS) {
    for (int bx = 0; bx < width; bx += kBS) {
      Block block;
      for (int y = 0; y < kBS; ++y) {
        const int sy = std::min(by + y, height - 1);
        for (int x = 0; x < kBS; ++x) {
          const int sx = std::min(bx + x, width - 1);
          block[y * kBS + x] = plane[static_cast<size_t>(sy) * width + sx];
        }
      }
      CoeffBlock coeffs = LegacyForwardDct(block);
      LegacyQuantize(&coeffs, quality);
      block_transform::EncodeBlock(coeffs, &dc_predictor, out);
    }
  }
}

Buffer LegacyEncodeFrame(const VideoFrame& frame, int quality) {
  BitWriter writer;
  for (int p = 0; p < frame.plane_count(); ++p) {
    const std::vector<uint8_t> bytes = frame.ExtractPlane(p);  // heap copy
    std::vector<int16_t> centered(bytes.size());               // heap alloc
    for (size_t i = 0; i < bytes.size(); ++i) {
      centered[i] = static_cast<int16_t>(static_cast<int>(bytes[i]) - 128);
    }
    LegacyEncodePlane(centered, frame.width(), frame.height(), quality,
                      &writer);
  }
  return writer.Finish();
}

// ---------------------------------------------------------------------------

struct KernelPoint {
  const char* name;
  double scalar_ns = 0;
  double simd_ns = 0;
  double speedup() const { return simd_ns > 0 ? scalar_ns / simd_ns : 0; }
};

// Times every dispatch-table entry under `k` against realistic inputs: a
// pattern-frame luma plane for the element-wise kernels, a transformed
// block for quant/dequant/idct.
std::vector<KernelPoint> MeasureKernels(const simd::CodecKernels& scalar,
                                        const simd::CodecKernels& active) {
  const VideoFrame frame = synthetic::GeneratePatternFrame(
      kWidth, kHeight, 8, 0, synthetic::VideoPattern::kMovingBox);
  const PlaneView luma = frame.plane(0);
  const size_t n = luma.size();
  const simd::QuantTable& qt = block_transform::QualityQuantTable(kQuality);

  // Shared scratch, written by every timed kernel.
  std::vector<int16_t> i16_a(n), i16_b(n), i16_out(n);
  std::vector<uint8_t> u8_out(n);
  scalar.u8_to_i16_center(luma.data(), i16_a.data(), n);
  for (size_t i = 0; i < n; ++i) {
    i16_b[i] = static_cast<int16_t>((static_cast<int>(i16_a[i]) * 3) / 4);
  }

  alignas(32) int16_t block[kBA];
  alignas(32) int32_t coeffs[kBA];
  std::memcpy(block, i16_a.data(), sizeof(block));
  scalar.fdct8x8(block, coeffs);  // valid quantize input by construction

  std::vector<KernelPoint> points;
  auto bench = [&](const char* name, auto&& make_call) {
    KernelPoint p;
    p.name = name;
    p.scalar_ns = MeasureNs(2000, 5, make_call(scalar));
    p.simd_ns = MeasureNs(2000, 5, make_call(active));
    points.push_back(p);
  };

  bench("fdct8x8", [&](const simd::CodecKernels& k) {
    return [&k, &block, &coeffs] {
      alignas(32) int32_t out[kBA];
      k.fdct8x8(block, out);
      Sink(static_cast<uint32_t>(out[0]));
      (void)coeffs;
    };
  });
  bench("idct8x8", [&](const simd::CodecKernels& k) {
    return [&k, &coeffs] {
      alignas(32) int16_t out[kBA];
      k.idct8x8(coeffs, out);
      Sink(static_cast<uint32_t>(out[0]));
    };
  });
  bench("quantize", [&](const simd::CodecKernels& k) {
    return [&k, &coeffs, &qt] {
      alignas(32) int32_t work[kBA];
      std::memcpy(work, coeffs, sizeof(work));
      k.quantize(work, qt);
      Sink(static_cast<uint32_t>(work[0]));
    };
  });
  bench("dequantize", [&](const simd::CodecKernels& k) {
    return [&k, &coeffs, &qt] {
      alignas(32) int32_t work[kBA];
      std::memcpy(work, coeffs, sizeof(work));
      k.dequantize(work, qt);
      Sink(static_cast<uint32_t>(work[0]));
    };
  });
  bench("u8_to_i16_center", [&](const simd::CodecKernels& k) {
    return [&k, &luma, &i16_out, n] {
      k.u8_to_i16_center(luma.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  bench("i16_center_to_u8", [&](const simd::CodecKernels& k) {
    return [&k, &i16_a, &u8_out, n] {
      k.i16_center_to_u8(i16_a.data(), u8_out.data(), n);
      Sink(u8_out[0]);
    };
  });
  bench("residual_u8", [&](const simd::CodecKernels& k) {
    return [&k, &luma, &u8_out, &i16_out, n] {
      k.residual_u8(luma.data(), u8_out.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  bench("reconstruct_u8", [&](const simd::CodecKernels& k) {
    return [&k, &luma, &i16_b, &u8_out, n] {
      k.reconstruct_u8(luma.data(), i16_b.data(), u8_out.data(), n);
      Sink(u8_out[0]);
    };
  });
  bench("sub_i16", [&](const simd::CodecKernels& k) {
    return [&k, &i16_a, &i16_b, &i16_out, n] {
      k.sub_i16(i16_a.data(), i16_b.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  bench("add_i16", [&](const simd::CodecKernels& k) {
    return [&k, &i16_a, &i16_b, &i16_out, n] {
      k.add_i16(i16_a.data(), i16_b.data(), i16_out.data(), n);
      Sink(static_cast<uint32_t>(i16_out[0]));
    };
  });
  bench("sad_u8", [&](const simd::CodecKernels& k) {
    return [&k, &luma, &u8_out, n] {
      Sink(k.sad_u8(luma.data(), u8_out.data(), n));
    };
  });
  bench("sad16xh_u8", [&](const simd::CodecKernels& k) {
    const uint8_t* a = luma.row(8) + 16;
    const uint8_t* b = luma.row(24) + 40;
    return [&k, a, b] { Sink(k.sad16xh_u8(a, kWidth, b, kWidth, 16)); };
  });
  return points;
}

struct FpsPoint {
  double legacy_fps = 0;
  double current_fps = 0;
  double speedup = 0;
};

FpsPoint MeasureIntraFps() {
  const VideoFrame frame = synthetic::GeneratePatternFrame(
      kWidth, kHeight, 8, 0, synthetic::VideoPattern::kMovingBox);
  FpsPoint p;
  const double legacy_ns = MeasureNs(20, 3, [&frame] {
    Sink(static_cast<uint32_t>(LegacyEncodeFrame(frame, kQuality).size()));
  });
  const double current_ns = MeasureNs(60, 3, [&frame] {
    Sink(static_cast<uint32_t>(
        IntraCodec::EncodeFrame(frame, kQuality).size()));
  });
  p.legacy_fps = 1e9 / legacy_ns;
  p.current_fps = 1e9 / current_ns;
  p.speedup = p.current_fps / p.legacy_fps;
  return p;
}

struct IdentityPoint {
  std::vector<std::string> levels;
  bool pass = true;
};

// Encodes the intra frame and a 6-frame inter GOP at every available
// kernel level; all streams must match the scalar reference byte for byte.
IdentityPoint CheckByteIdentity() {
  IdentityPoint point;
  const VideoFrame frame = synthetic::GeneratePatternFrame(
      kWidth, kHeight, 8, 0, synthetic::VideoPattern::kMovingBox);
  const auto type = MediaDataType::RawVideo(64, 48, 24, Rational(10));
  auto video = synthetic::GenerateVideo(type, 6,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
  VideoCodecParams params;
  params.gop_size = 3;

  if (!simd::ForceKernelsForTest(simd::KernelLevel::kScalar)) {
    std::printf("BYTE IDENTITY: cannot force scalar kernels\n");
    point.pass = false;
    return point;
  }
  const Buffer intra_ref = IntraCodec::EncodeFrame(frame, kQuality);
  const auto inter_ref = InterCodec().Encode(*video, params).value();

  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    if (!simd::ForceKernelsForTest(level)) continue;
    point.levels.push_back(simd::KernelLevelName(level));
    const Buffer intra = IntraCodec::EncodeFrame(frame, kQuality);
    if (!(intra == intra_ref)) {
      std::printf("BYTE IDENTITY: intra stream differs under %s\n",
                  simd::KernelLevelName(level));
      point.pass = false;
    }
    const auto inter = InterCodec().Encode(*video, params).value();
    for (size_t i = 0; i < inter.frames.size(); ++i) {
      if (!(inter.frames[i].data == inter_ref.frames[i].data)) {
        std::printf("BYTE IDENTITY: inter frame %zu differs under %s\n", i,
                    simd::KernelLevelName(level));
        point.pass = false;
      }
    }
  }
  simd::ResetKernelsForTest();
  return point;
}

struct SteadyStatePoint {
  int frames = 0;
  int64_t acquires = 0;
  int64_t reuses = 0;
  int64_t allocations = 0;
  double allocations_per_frame = 0;
};

// One warm-up inter encode+decode cycle, then a measured cycle: every
// Acquire must be served from the free list (see
// ZeroCopyTest.SteadyStateEncodeDecodeHasZeroPoolMisses for the same
// invariant as a unit test).
SteadyStatePoint MeasureSteadyState() {
  SteadyStatePoint point;
  point.frames = 6;
  const auto type = MediaDataType::RawVideo(64, 48, 24, Rational(10));
  auto video = synthetic::GenerateVideo(type, point.frames,
                                        synthetic::VideoPattern::kMovingBox)
                   .value();
  VideoCodecParams params;
  params.gop_size = 3;
  BufferPool& pool = BufferPool::Shared();

  auto run_cycle = [&] {
    auto encoded = InterCodec().Encode(*video, params).value();
    auto session = InterCodec().NewDecoder(encoded).value();
    for (int64_t i = 0; i < point.frames; ++i) {
      Sink(session->DecodeFrame(i).value().At(0, 0));
    }
  };

  run_cycle();  // warm the pool
  pool.ResetStats();
  run_cycle();

  const BufferPool::Stats stats = pool.stats();
  point.acquires = stats.acquires;
  point.reuses = stats.reuses;
  point.allocations = stats.allocations;
  point.allocations_per_frame =
      static_cast<double>(stats.allocations) / point.frames;
  return point;
}

struct InterPoint {
  int frames = 24;
  double us_per_frame = 0;
  std::vector<std::string> levels;
  bool identical = true;
};

// Two GOPs of a drifting gradient at the shape avbench's sessions use.
std::shared_ptr<RawVideoValue> InterClip(int frames) {
  const auto type = MediaDataType::RawVideo(kWidth, kHeight, 8, Rational(30));
  return synthetic::GenerateVideo(type, frames,
                                  synthetic::VideoPattern::kMovingGradient)
      .value();
}

VideoCodecParams InterParams() {
  VideoCodecParams params;
  params.gop_size = 12;
  return params;
}

std::vector<VideoFrame> DecodeAll(const EncodedVideo& stream) {
  std::vector<VideoFrame> frames;
  auto session = InterCodec().NewDecoder(stream).value();
  for (int64_t i = 0; i < static_cast<int64_t>(stream.frames.size()); ++i) {
    frames.push_back(session->DecodeFrame(i).value());
  }
  return frames;
}

// The clip encoded once at the scalar level and decoded in sequence by a
// fresh session per pass.
InterPoint MeasureInterDecode() {
  InterPoint point;
  auto video = InterClip(point.frames);
  if (!simd::ForceKernelsForTest(simd::KernelLevel::kScalar)) {
    std::printf("BYTE IDENTITY: cannot force scalar kernels\n");
    point.identical = false;
    return point;
  }
  const EncodedVideo stream =
      InterCodec().Encode(*video, InterParams()).value();
  const std::vector<VideoFrame> ref = DecodeAll(stream);
  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    if (!simd::ForceKernelsForTest(level)) continue;
    point.levels.push_back(simd::KernelLevelName(level));
    const std::vector<VideoFrame> frames = DecodeAll(stream);
    for (size_t i = 0; i < ref.size(); ++i) {
      if (frames[i].data() != ref[i].data()) {
        std::printf("BYTE IDENTITY: decoded inter frame %zu differs under "
                    "%s\n",
                    i, simd::KernelLevelName(level));
        point.identical = false;
      }
    }
  }
  simd::ResetKernelsForTest();
  const double ns = MeasureNs(5, 5, [&] {
    Sink(DecodeAll(stream).back().At(0, 0));
  });
  point.us_per_frame = ns / 1000.0 / point.frames;
  return point;
}

// The clip encoded at every level against the scalar reference's bytes,
// then timed whole at the dispatched level.
InterPoint MeasureInterEncode() {
  InterPoint point;
  auto video = InterClip(point.frames);
  if (!simd::ForceKernelsForTest(simd::KernelLevel::kScalar)) {
    std::printf("BYTE IDENTITY: cannot force scalar kernels\n");
    point.identical = false;
    return point;
  }
  const EncodedVideo ref = InterCodec().Encode(*video, InterParams()).value();
  for (simd::KernelLevel level : simd::AvailableKernelLevels()) {
    if (level == simd::KernelLevel::kScalar) continue;
    if (!simd::ForceKernelsForTest(level)) continue;
    point.levels.push_back(simd::KernelLevelName(level));
    const EncodedVideo stream =
        InterCodec().Encode(*video, InterParams()).value();
    for (size_t i = 0; i < ref.frames.size(); ++i) {
      if (!(stream.frames[i].data == ref.frames[i].data)) {
        std::printf("BYTE IDENTITY: encoded inter frame %zu differs under "
                    "%s\n",
                    i, simd::KernelLevelName(level));
        point.identical = false;
      }
    }
  }
  simd::ResetKernelsForTest();
  const double ns = MeasureNs(5, 5, [&] {
    Sink(static_cast<uint32_t>(
        InterCodec().Encode(*video, InterParams()).value().TotalBytes()));
  });
  point.us_per_frame = ns / 1000.0 / point.frames;
  return point;
}

}  // namespace

int main() {
  const simd::CodecKernels& scalar = simd::ScalarKernels();
  const simd::CodecKernels& active = simd::ActiveKernels();
  std::printf("dispatched kernel level: %s\n\n",
              simd::KernelLevelName(active.level));

  std::printf("== per-kernel ns/op (scalar vs %s) ==\n",
              simd::KernelLevelName(active.level));
  std::printf("%-18s %12s %12s %9s\n", "kernel", "scalar_ns", "simd_ns",
              "speedup");
  const std::vector<KernelPoint> kernels = MeasureKernels(scalar, active);
  for (const KernelPoint& p : kernels) {
    std::printf("%-18s %12.1f %12.1f %8.2fx\n", p.name, p.scalar_ns,
                p.simd_ns, p.speedup());
  }

  std::printf("\n== intra encode fps, %dx%d q%d (legacy double-DCT vs "
              "dispatched) ==\n",
              kWidth, kHeight, kQuality);
  const FpsPoint fps = MeasureIntraFps();
  std::printf("legacy %.1f fps, current %.1f fps -> %.2fx\n", fps.legacy_fps,
              fps.current_fps, fps.speedup);

  std::printf("\n== byte identity across kernel levels ==\n");
  const IdentityPoint identity = CheckByteIdentity();
  std::printf("levels checked beyond scalar: %zu -> %s\n",
              identity.levels.size(), identity.pass ? "identical" : "DIFFER");

  std::printf("\n== steady-state pool behaviour (warm inter cycle) ==\n");
  const SteadyStatePoint steady = MeasureSteadyState();
  std::printf("acquires %lld, reuses %lld, allocations %lld "
              "(%.2f allocations/frame)\n",
              static_cast<long long>(steady.acquires),
              static_cast<long long>(steady.reuses),
              static_cast<long long>(steady.allocations),
              steady.allocations_per_frame);

  std::printf("\n== inter decode, %dx%d GOP-12 stream ==\n", kWidth, kHeight);
  const InterPoint inter = MeasureInterDecode();
  std::printf("%.1f us/frame over %d frames; levels checked beyond scalar: "
              "%zu -> %s\n",
              inter.us_per_frame, inter.frames, inter.levels.size(),
              inter.identical ? "identical" : "DIFFER");

  std::printf("\n== inter encode, %dx%d GOP-12 stream ==\n", kWidth, kHeight);
  const InterPoint encode = MeasureInterEncode();
  std::printf("%.1f us/frame over %d frames; levels checked beyond scalar: "
              "%zu -> %s\n",
              encode.us_per_frame, encode.frames, encode.levels.size(),
              encode.identical ? "identical" : "DIFFER");

  FILE* out = std::fopen("BENCH_codec_micro.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"dispatched_level\": \"%s\",\n",
                 simd::KernelLevelName(active.level));
    std::fprintf(out, "  \"kernels\": [\n");
    for (size_t i = 0; i < kernels.size(); ++i) {
      const KernelPoint& p = kernels[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"scalar_ns\": %.1f, "
                   "\"simd_ns\": %.1f, \"speedup\": %.2f}%s\n",
                   p.name, p.scalar_ns, p.simd_ns, p.speedup(),
                   i + 1 < kernels.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"intra_fps\": {\"legacy_fps\": %.1f, \"current_fps\": "
                 "%.1f, \"speedup\": %.2f, \"gate_min_speedup\": 2.0, "
                 "\"gate_enforced\": %s},\n",
                 fps.legacy_fps, fps.current_fps, fps.speedup,
                 active.level != simd::KernelLevel::kScalar ? "true"
                                                            : "false");
    std::fprintf(out, "  \"byte_identity\": {\"levels\": [");
    for (size_t i = 0; i < identity.levels.size(); ++i) {
      std::fprintf(out, "\"%s\"%s", identity.levels[i].c_str(),
                   i + 1 < identity.levels.size() ? ", " : "");
    }
    std::fprintf(out, "], \"identical\": %s},\n",
                 identity.pass ? "true" : "false");
    std::fprintf(out,
                 "  \"steady_state\": {\"frames\": %d, \"acquires\": %lld, "
                 "\"reuses\": %lld, \"allocations\": %lld, "
                 "\"allocations_per_frame\": %.2f},\n",
                 steady.frames, static_cast<long long>(steady.acquires),
                 static_cast<long long>(steady.reuses),
                 static_cast<long long>(steady.allocations),
                 steady.allocations_per_frame);
    auto inter_row = [out](const char* name, const InterPoint& point,
                           const char* separator) {
      std::fprintf(out,
                   "  \"%s\": {\"width\": %d, \"height\": %d, "
                   "\"gop_size\": 12, \"frames\": %d, \"us_per_frame\": "
                   "%.1f, \"identical\": %s}%s\n",
                   name, kWidth, kHeight, point.frames, point.us_per_frame,
                   point.identical ? "true" : "false", separator);
    };
    inter_row("inter_decode", inter, ",");
    inter_row("inter_encode", encode, "");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("\nwrote BENCH_codec_micro.json\n");
  }

  bool ok = true;
  // The 2x gate prices the *dispatched SIMD* pipeline; in a scalar-only
  // build (AVDB_SIMD=OFF or an unsupported CPU) the fps is reported but
  // not enforced — the identity and zero-allocation gates still are.
  if (active.level == simd::KernelLevel::kScalar) {
    std::printf("note: scalar-only dispatch, fps gate reported but not "
                "enforced (%.2fx)\n",
                fps.speedup);
  } else if (fps.speedup < 2.0) {
    std::printf("GATE FAILED: intra speedup %.2fx < 2.0x over legacy\n",
                fps.speedup);
    ok = false;
  }
  if (!identity.pass) {
    std::printf("GATE FAILED: kernel levels are not byte-identical\n");
    ok = false;
  }
  if (!inter.identical) {
    std::printf("GATE FAILED: decoded inter frames differ across levels\n");
    ok = false;
  }
  if (!encode.identical) {
    std::printf("GATE FAILED: encoded inter frames differ across levels\n");
    ok = false;
  }
  if (steady.allocations != 0) {
    std::printf("GATE FAILED: %lld steady-state pool misses (want 0)\n",
                static_cast<long long>(steady.allocations));
    ok = false;
  }
  std::printf("%s\n", ok ? "ALL GATES PASS" : "GATES FAILED");
  return ok ? 0 : 1;
}
