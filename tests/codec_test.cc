#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <utility>

#include "base/buffer.h"
#include "base/rng.h"
#include "codec/audio_codec.h"
#include "codec/bitio.h"
#include "codec/block_transform.h"
#include "codec/delta_codec.h"
#include "codec/encoded_value.h"
#include "codec/inter_codec.h"
#include "codec/intra_codec.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "media/synthetic.h"

namespace avdb {
namespace {

using synthetic::AudioPattern;
using synthetic::GenerateAudio;
using synthetic::GenerateVideo;
using synthetic::VideoPattern;

// ------------------------------------------------------------------ BitIO --

TEST(BitIoTest, BitsRoundTrip) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.WriteBits(0xFFFF, 16);
  w.WriteBits(0, 1);
  w.WriteBits(0x12345, 20);
  Buffer buf = w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3).value(), 0b101u);
  EXPECT_EQ(r.ReadBits(16).value(), 0xFFFFu);
  EXPECT_EQ(r.ReadBits(1).value(), 0u);
  EXPECT_EQ(r.ReadBits(20).value(), 0x12345u);
}

TEST(BitIoTest, UnderrunIsDataLoss) {
  BitWriter w;
  w.WriteBits(1, 1);
  Buffer buf = w.Finish();
  BitReader r(buf);
  ASSERT_TRUE(r.ReadBits(8).ok());  // padded byte
  EXPECT_EQ(r.ReadBits(8).status().code(), StatusCode::kDataLoss);
}

TEST(BitIoTest, UnalignedVarintsMatchAlignedOnes) {
  // Varints normally start on a byte boundary and are read a byte at a
  // time; behind a 3-bit field they take the bit-serial path.
  const uint64_t values[] = {0, 1, 0x7F, 0x80, 0x3FFF, uint64_t{1} << 35,
                             ~uint64_t{0}};
  BitWriter w;
  w.WriteBits(0b101, 3);
  for (uint64_t v : values) w.WriteVarint(v);
  w.WriteSignedVarint(std::numeric_limits<int64_t>::min());
  const Buffer buf = w.Finish();
  BitReader r(buf);
  ASSERT_EQ(r.ReadBits(3).value(), 0b101u);
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarint().value(), v);
  EXPECT_EQ(r.ReadSignedVarint().value(), std::numeric_limits<int64_t>::min());
}

TEST(BitIoTest, VarintUnderrunAndOverlengthAreDataLoss) {
  for (int lead_bits : {0, 5}) {
    // Eleven continuation groups: longer than any 64-bit varint.
    BitWriter long_writer;
    long_writer.WriteBits(0, lead_bits);
    for (int i = 0; i < 11; ++i) long_writer.WriteBits(0x80, 8);
    long_writer.WriteBits(0, 8);
    const Buffer too_long = long_writer.Finish();
    BitReader long_reader(too_long);
    ASSERT_TRUE(long_reader.ReadBits(lead_bits).ok());
    auto v = long_reader.ReadVarint();
    ASSERT_FALSE(v.ok()) << lead_bits;
    EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(v.status().message().find("too long"), std::string::npos);

    // A continuation bit on the last byte of the stream.
    BitWriter cut_writer;
    cut_writer.WriteBits(0, lead_bits);
    cut_writer.WriteVarint(1);
    cut_writer.WriteBits(0x80, 8);
    const Buffer cut = cut_writer.Finish();
    BitReader cut_reader(cut.data(), cut.size() - (lead_bits > 0 ? 1 : 0));
    ASSERT_TRUE(cut_reader.ReadBits(lead_bits).ok());
    ASSERT_EQ(cut_reader.ReadVarint().value(), 1u);
    auto u = cut_reader.ReadVarint();
    ASSERT_FALSE(u.ok()) << lead_bits;
    EXPECT_EQ(u.status().code(), StatusCode::kDataLoss);
  }
}

class VarintPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintPropertyTest, SignedAndUnsignedRoundTrip) {
  Rng rng(GetParam());
  BitWriter w;
  std::vector<uint64_t> unsigned_vals;
  std::vector<int64_t> signed_vals;
  for (int i = 0; i < 200; ++i) {
    const uint64_t u = rng.NextU64() >> (rng.NextBelow(64));
    const int64_t s = static_cast<int64_t>(rng.NextU64()) >>
                      rng.NextBelow(63);
    unsigned_vals.push_back(u);
    signed_vals.push_back(s);
    w.WriteVarint(u);
    w.WriteSignedVarint(s);
  }
  Buffer buf = w.Finish();
  BitReader r(buf);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.ReadVarint().value(), unsigned_vals[i]);
    EXPECT_EQ(r.ReadSignedVarint().value(), signed_vals[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VarintPropertyTest,
                         ::testing::Values(100, 200, 300));

// -------------------------------------------------------- BlockTransform --

TEST(BlockTransformTest, DctInverseRecoversSpatial) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    block_transform::Block block;
    for (auto& v : block) {
      v = static_cast<int16_t>(rng.NextInRange(-128, 127));
    }
    const auto coeffs = block_transform::ForwardDct(block);
    const auto back = block_transform::InverseDct(coeffs);
    for (int i = 0; i < block_transform::kBlockArea; ++i) {
      EXPECT_NEAR(back[i], block[i], 2) << "position " << i;
    }
  }
}

TEST(BlockTransformTest, QuantStepsDecreaseWithQuality) {
  for (int i = 0; i < block_transform::kBlockArea; ++i) {
    EXPECT_LE(block_transform::QuantStep(i, 90),
              block_transform::QuantStep(i, 30));
    EXPECT_GE(block_transform::QuantStep(i, 1), 1);
  }
  // Quality 100 is near-lossless: every step is 1 or 2.
  for (int i = 0; i < block_transform::kBlockArea; ++i) {
    EXPECT_LE(block_transform::QuantStep(i, 100), 2);
  }
}

TEST(BlockTransformTest, PlaneRoundTripAtHighQuality) {
  const int w = 20, h = 12;  // deliberately not multiples of 8
  std::vector<int16_t> plane(w * h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) plane[y * w + x] = static_cast<int16_t>((x * 9 + y * 5) % 200 - 100);
  }
  BitWriter writer;
  block_transform::EncodePlaneWithRecon(plane.data(), w, h, 100, &writer,
                                        nullptr);
  Buffer bits = writer.Finish();
  BitReader reader(bits);
  auto decoded = block_transform::DecodePlane(w, h, 100, &reader);
  ASSERT_TRUE(decoded.ok());
  double err = 0;
  for (int i = 0; i < w * h; ++i) err += std::abs(decoded.value()[i] - plane[i]);
  EXPECT_LT(err / (w * h), 3.0);
}

TEST(BlockTransformTest, TruncatedStreamFailsCleanly) {
  std::vector<int16_t> plane(64, 50);
  BitWriter writer;
  block_transform::EncodePlaneWithRecon(plane.data(), 8, 8, 75, &writer,
                                        nullptr);
  Buffer bits = writer.Finish();
  Buffer truncated;
  truncated.AppendBytes(bits.data(), bits.size() / 2);
  BitReader reader(truncated);
  auto decoded = block_transform::DecodePlane(8, 8, 75, &reader);
  // Either decodes by luck of padding or fails with DataLoss — never crashes.
  if (!decoded.ok()) {
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
}

// Decodes one crafted block (DC delta, then (run, level) pairs, then an
// end-of-block marker) with the DC predictor starting at `predictor`.
Status DecodeCraftedBlock(int64_t dc_delta,
                          const std::vector<std::pair<uint64_t, int64_t>>& ac,
                          int32_t predictor = 0,
                          block_transform::CoeffBlock* coeffs = nullptr,
                          bool* nonzero = nullptr) {
  BitWriter w;
  w.WriteSignedVarint(dc_delta);
  for (const auto& [run, level] : ac) {
    w.WriteVarint(run);
    w.WriteSignedVarint(level);
  }
  w.WriteVarint(0x3F);
  const Buffer bits = w.Finish();
  BitReader reader(bits);
  block_transform::CoeffBlock local;
  bool local_nonzero = false;
  return block_transform::DecodeBlock(&predictor, &reader,
                                      coeffs ? coeffs : &local,
                                      nonzero ? nonzero : &local_nonzero);
}

TEST(EntropyHardeningTest, AcRunMustStayInsideTheBlock) {
  // 2^31 once wrapped the zigzag index negative (out-of-bounds write);
  // 2^32+1 once truncated to a run of 1 and was accepted.
  for (uint64_t run : {uint64_t{1} << 31, (uint64_t{1} << 32) + 1,
                       uint64_t{64}, ~uint64_t{0}}) {
    EXPECT_EQ(DecodeCraftedBlock(0, {{run, 5}}).code(), StatusCode::kDataLoss)
        << run;
  }
  // After one level at zigzag index 1, a run of 61 lands on index 63, the
  // last coefficient; a run of 62 would leave the block.
  block_transform::CoeffBlock coeffs;
  bool nonzero = false;
  ASSERT_TRUE(
      DecodeCraftedBlock(0, {{0, 3}, {61, -7}}, 0, &coeffs, &nonzero).ok());
  EXPECT_TRUE(nonzero);
  EXPECT_EQ(coeffs[1], 3);   // zigzag 1 is raster 1
  EXPECT_EQ(coeffs[63], -7);  // zigzag 63 is raster 63
  EXPECT_EQ(DecodeCraftedBlock(0, {{0, 3}, {62, -7}}).code(),
            StatusCode::kDataLoss);
}

TEST(EntropyHardeningTest, DcAndLevelsMustFitInt32) {
  const int64_t kMin = std::numeric_limits<int32_t>::min();
  const int64_t kMax = std::numeric_limits<int32_t>::max();
  EXPECT_TRUE(DecodeCraftedBlock(kMin, {}).ok());
  EXPECT_EQ(DecodeCraftedBlock(kMax + 1, {}).code(), StatusCode::kDataLoss);
  EXPECT_EQ(DecodeCraftedBlock(std::numeric_limits<int64_t>::min(), {}).code(),
            StatusCode::kDataLoss);
  // The delta fits but the running predictor would not.
  EXPECT_TRUE(DecodeCraftedBlock(0, {}, static_cast<int32_t>(kMax)).ok());
  EXPECT_EQ(DecodeCraftedBlock(1, {}, static_cast<int32_t>(kMax)).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeCraftedBlock(-1, {}, static_cast<int32_t>(kMin)).code(),
            StatusCode::kDataLoss);
  EXPECT_TRUE(DecodeCraftedBlock(0, {{0, kMin}, {0, kMax}}).ok());
  EXPECT_EQ(DecodeCraftedBlock(0, {{0, kMax + 1}}).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeCraftedBlock(0, {{3, kMin - 1}}).code(),
            StatusCode::kDataLoss);
}

TEST(EntropyHardeningTest, ReportsAllZeroBlocks) {
  block_transform::CoeffBlock coeffs;
  coeffs.fill(99);  // a previous block's leftovers must not survive
  bool nonzero = true;
  ASSERT_TRUE(DecodeCraftedBlock(0, {}, 0, &coeffs, &nonzero).ok());
  EXPECT_FALSE(nonzero);
  for (int32_t c : coeffs) EXPECT_EQ(c, 0);
  // The DC coefficient is the running predictor, not the delta.
  ASSERT_TRUE(DecodeCraftedBlock(0, {}, 4, &coeffs, &nonzero).ok());
  EXPECT_TRUE(nonzero);
  EXPECT_EQ(coeffs[0], 4);
  ASSERT_TRUE(DecodeCraftedBlock(0, {{5, 1}}, 0, &coeffs, &nonzero).ok());
  EXPECT_TRUE(nonzero);
}

// ------------------------------------------------------------ Video codecs --

struct CodecCase {
  EncodingFamily family;
  VideoPattern pattern;
  int depth_bits;
};

class VideoCodecRoundTripTest : public ::testing::TestWithParam<CodecCase> {};

TEST_P(VideoCodecRoundTripTest, EncodeDecodeWithinTolerance) {
  const auto& c = GetParam();
  const auto type = MediaDataType::RawVideo(48, 32, c.depth_bits, Rational(10));
  auto video = GenerateVideo(type, 15, c.pattern).value();
  auto codec = CodecRegistry::Default().VideoCodecFor(c.family).value();
  VideoCodecParams params;
  params.quality = 85;
  params.gop_size = 5;
  auto encoded = codec->Encode(*video, params);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value().frames.size(), 15u);

  auto session = codec->NewDecoder(encoded.value());
  ASSERT_TRUE(session.ok());
  for (int64_t i = 0; i < 15; ++i) {
    auto decoded = session.value()->DecodeFrame(i);
    ASSERT_TRUE(decoded.ok()) << "frame " << i;
    const double mae =
        decoded.value().MeanAbsoluteError(video->Frame(i).value()).value();
    EXPECT_LT(mae, 14.0) << "frame " << i << " family "
                         << EncodingFamilyName(c.family);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPatterns, VideoCodecRoundTripTest,
    ::testing::Values(
        CodecCase{EncodingFamily::kIntra, VideoPattern::kMovingGradient, 8},
        CodecCase{EncodingFamily::kIntra, VideoPattern::kCheckerboard, 24},
        CodecCase{EncodingFamily::kInter, VideoPattern::kMovingBox, 8},
        CodecCase{EncodingFamily::kInter, VideoPattern::kMovingGradient, 24},
        CodecCase{EncodingFamily::kDelta, VideoPattern::kMovingBox, 8},
        CodecCase{EncodingFamily::kDelta, VideoPattern::kCheckerboard, 8},
        CodecCase{EncodingFamily::kScalable, VideoPattern::kMovingGradient,
                  8},
        CodecCase{EncodingFamily::kScalable, VideoPattern::kMovingBox, 24}));

TEST(IntraCodecTest, EveryFrameIsAccessPoint) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto video = GenerateVideo(type, 6, VideoPattern::kMovingGradient).value();
  auto encoded = IntraCodec().Encode(*video, {}).value();
  for (const auto& f : encoded.frames) EXPECT_TRUE(f.is_intra);
}

TEST(InterCodecTest, GopStructure) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto video = GenerateVideo(type, 10, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 4;
  auto encoded = InterCodec().Encode(*video, params).value();
  for (size_t i = 0; i < encoded.frames.size(); ++i) {
    EXPECT_EQ(encoded.frames[i].is_intra, i % 4 == 0) << "frame " << i;
  }
  EXPECT_EQ(encoded.AccessPointBefore(6).value(), 4);
  EXPECT_EQ(encoded.AccessPointBefore(3).value(), 0);
}

TEST(InterCodecTest, CompressesBetterThanIntraOnStaticContent) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 12, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.quality = 75;
  params.gop_size = 12;
  const int64_t inter_bytes =
      InterCodec().Encode(*video, params).value().TotalBytes();
  const int64_t intra_bytes =
      IntraCodec().Encode(*video, params).value().TotalBytes();
  EXPECT_LT(inter_bytes, intra_bytes);
}

TEST(InterCodecTest, SeekCostIsGopReentry) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto video = GenerateVideo(type, 20, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 10;
  auto encoded = InterCodec().Encode(*video, params).value();
  auto session = InterCodec().NewDecoder(encoded).value();
  // Jumping straight to frame 15 must decode 10..15 = 6 frames.
  ASSERT_TRUE(session->DecodeFrame(15).ok());
  EXPECT_EQ(session->FramesDecodedInternally(), 6);
  // Sequential next frame costs exactly one more.
  ASSERT_TRUE(session->DecodeFrame(16).ok());
  EXPECT_EQ(session->FramesDecodedInternally(), 7);
  // Backward seek within the same GOP re-enters at the I-frame.
  ASSERT_TRUE(session->DecodeFrame(12).ok());
  EXPECT_EQ(session->FramesDecodedInternally(), 10);
}

TEST(InterCodecTest, RejectsBadParams) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto video = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 0;
  EXPECT_FALSE(InterCodec().Encode(*video, params).ok());
  params.gop_size = 4;
  params.search_range = 0;
  EXPECT_FALSE(InterCodec().Encode(*video, params).ok());
}

// A P-frame payload with the given per-macroblock vectors and an all-zero
// residual in every 8×8 block of every plane, so it decodes to exactly its
// motion-compensated prediction.
Buffer CraftPFrame(const std::vector<std::pair<int64_t, int64_t>>& mvs,
                   int width, int height, int planes) {
  BitWriter w;
  for (const auto& [dx, dy] : mvs) {
    w.WriteSignedVarint(dx);
    w.WriteSignedVarint(dy);
  }
  const int blocks = ((width + 7) / 8) * ((height + 7) / 8);
  for (int i = 0; i < planes * blocks; ++i) {
    w.WriteSignedVarint(0);
    w.WriteVarint(0x3F);
  }
  return w.Finish();
}

// 40×24 (a partial macroblock column and row), so prediction meets every
// frame edge.
constexpr int kMvWidth = 40;
constexpr int kMvHeight = 24;
constexpr int kMvMacroblocks = 3 * 2;

EncodedVideo TwoFrameInterStream() {
  const auto type =
      MediaDataType::RawVideo(kMvWidth, kMvHeight, 24, Rational(10));
  auto video = GenerateVideo(type, 2, VideoPattern::kMovingGradient).value();
  VideoCodecParams params;
  params.gop_size = 2;
  return InterCodec().Encode(*video, params).value();
}

TEST(InterCodecTest, MotionVectorsPastSearchRangeAreDataLoss) {
  EncodedVideo stream = TwoFrameInterStream();
  ASSERT_FALSE(stream.frames[1].is_intra);
  for (int64_t bad : {int64_t{65}, int64_t{-65}, int64_t{1} << 32,
                      std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()}) {
    for (bool vertical : {false, true}) {
      std::vector<std::pair<int64_t, int64_t>> mvs(kMvMacroblocks, {0, 0});
      mvs[4] = vertical ? std::make_pair(int64_t{0}, bad)
                        : std::make_pair(bad, int64_t{0});
      stream.frames[1].data = CraftPFrame(mvs, kMvWidth, kMvHeight, 3);
      auto session = InterCodec().NewDecoder(stream).value();
      auto frame = session->DecodeFrame(1);
      ASSERT_FALSE(frame.ok()) << bad;
      EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << bad;
    }
  }
}

TEST(InterCodecTest, EdgePredictionMatchesPerSampleClamping) {
  // Vectors up to the ±64 limit move whole macroblocks partly or entirely
  // off the 40×24 reference; each predicted sample must equal the
  // reference sample at the displaced position clamped into the frame.
  EncodedVideo stream = TwoFrameInterStream();
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::pair<int64_t, int64_t>> mvs = {
        {64, 64}, {-64, -64}, {64, -64}, {-64, 64}, {-8, 0}, {0, 9}};
    if (trial > 0) {
      for (auto& mv : mvs) {
        mv = {rng.NextInRange(-64, 64), rng.NextInRange(-64, 64)};
      }
    }
    stream.frames[1].data = CraftPFrame(mvs, kMvWidth, kMvHeight, 3);
    auto session = InterCodec().NewDecoder(stream).value();
    const VideoFrame ref = session->DecodeFrame(0).value();
    auto predicted = session->DecodeFrame(1);
    ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
    for (int p = 0; p < ref.plane_count(); ++p) {
      const PlaneView want = ref.plane(p);
      const PlaneView got = predicted.value().plane(p);
      for (int y = 0; y < kMvHeight; ++y) {
        for (int x = 0; x < kMvWidth; ++x) {
          const auto& [dx, dy] =
              mvs[static_cast<size_t>(y / 16) * 3 + x / 16];
          const int sx =
              std::clamp(x + static_cast<int>(dx), 0, kMvWidth - 1);
          const int sy =
              std::clamp(y + static_cast<int>(dy), 0, kMvHeight - 1);
          ASSERT_EQ(got.at(x, y), want.at(sx, sy))
              << "trial " << trial << " plane " << p << " at " << x << ","
              << y;
        }
      }
    }
  }
}

TEST(DeltaCodecTest, LosslessAtQuality100OnSmallDeltas) {
  const auto type = MediaDataType::RawVideo(24, 24, 8, Rational(10));
  auto video = GenerateVideo(type, 8, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.quality = 100;  // step 1 -> exact deltas
  auto encoded = DeltaCodec().Encode(*video, params).value();
  auto session = DeltaCodec().NewDecoder(encoded).value();
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(session->DecodeFrame(i).value(), video->Frame(i).value());
  }
}

TEST(DeltaCodecTest, StepForQualityEndpoints) {
  EXPECT_EQ(DeltaCodec::StepForQuality(100), 1);
  EXPECT_EQ(DeltaCodec::StepForQuality(1), 16);
  EXPECT_GT(DeltaCodec::StepForQuality(30), DeltaCodec::StepForQuality(80));
}

TEST(ScalableCodecTest, FewerLayersFewerBytes) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 4, VideoPattern::kMovingGradient).value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto encoded = ScalableCodec().Encode(*video, params).value();
  const int64_t b1 = ScalableCodec::BytesPerFrameAtLayers(encoded, 1).value();
  const int64_t b2 = ScalableCodec::BytesPerFrameAtLayers(encoded, 2).value();
  const int64_t b3 = ScalableCodec::BytesPerFrameAtLayers(encoded, 3).value();
  EXPECT_LT(b1, b2);
  EXPECT_LT(b2, b3);
}

TEST(ScalableCodecTest, MoreLayersLessError) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 3, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.layer_count = 3;
  params.quality = 85;
  ScalableCodec codec;
  auto encoded = codec.Encode(*video, params).value();
  double prev_mae = 1e9;
  for (int layers = 1; layers <= 3; ++layers) {
    auto session = codec.NewDecoderWithLayers(encoded, layers).value();
    double mae = 0;
    for (int64_t i = 0; i < 3; ++i) {
      mae += session->DecodeFrame(i)
                 .value()
                 .MeanAbsoluteError(video->Frame(i).value())
                 .value();
    }
    mae /= 3;
    EXPECT_LT(mae, prev_mae) << layers << " layers";
    prev_mae = mae;
  }
  EXPECT_LT(prev_mae, 8.0);  // full-layer decode is close
}

TEST(ScalableCodecTest, LayersForResolution) {
  const auto stored = MediaDataType::RawVideo(640, 480, 8, Rational(30));
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 160, 120), 1);
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 320, 240), 2);
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 640, 480), 3);
  EXPECT_EQ(ScalableCodec::LayersForResolution(stored, 161, 120), 2);
}

TEST(ScalableCodecTest, RejectsUnstoredLayerCount) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto video = GenerateVideo(type, 2, VideoPattern::kMovingGradient).value();
  VideoCodecParams params;
  params.layer_count = 2;
  auto encoded = ScalableCodec().Encode(*video, params).value();
  EXPECT_FALSE(ScalableCodec().NewDecoderWithLayers(encoded, 3).ok());
  EXPECT_FALSE(ScalableCodec().NewDecoderWithLayers(encoded, 0).ok());
  EXPECT_TRUE(ScalableCodec().NewDecoderWithLayers(encoded, 2).ok());
}

// -------------------------------------------------- EncodedVideo storage --

TEST(EncodedVideoTest, SerializeDeserializeRoundTrip) {
  const auto type = MediaDataType::RawVideo(32, 24, 24, Rational(30000, 1001));
  auto video = GenerateVideo(type, 5, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 3;
  auto encoded = InterCodec().Encode(*video, params).value();
  Buffer bytes = encoded.Serialize();
  auto restored = EncodedVideo::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().family, EncodingFamily::kInter);
  EXPECT_EQ(restored.value().raw_type, type);
  EXPECT_EQ(restored.value().params.gop_size, 3);
  ASSERT_EQ(restored.value().frames.size(), encoded.frames.size());
  for (size_t i = 0; i < encoded.frames.size(); ++i) {
    EXPECT_EQ(restored.value().frames[i].data, encoded.frames[i].data);
    EXPECT_EQ(restored.value().frames[i].is_intra, encoded.frames[i].is_intra);
  }
  // Restored stream decodes identically.
  auto session = InterCodec().NewDecoder(restored.value()).value();
  EXPECT_TRUE(session->DecodeFrame(4).ok());
}

TEST(EncodedVideoTest, DeserializeRejectsCorruption) {
  EXPECT_FALSE(EncodedVideo::Deserialize(Buffer()).ok());
  Buffer garbage;
  garbage.AppendU32(0x12345678);
  EXPECT_FALSE(EncodedVideo::Deserialize(garbage).ok());
}

// ----------------------------------------------------------- Audio codecs --

class AudioCodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<EncodingFamily, AudioPattern>> {};

TEST_P(AudioCodecRoundTripTest, SnrIsReasonable) {
  const auto [family, pattern] = GetParam();
  const auto type = MediaDataType::CdAudio();
  auto audio = GenerateAudio(type, 4096, pattern).value();
  auto codec = CodecRegistry::Default().AudioCodecFor(family).value();
  auto encoded = codec->Encode(*audio);
  ASSERT_TRUE(encoded.ok());

  // Wrap in a value and read back all samples.
  auto value = EncodedAudioValue::Create(codec, encoded.value()).value();
  ASSERT_EQ(value->SampleCount(), 4096);
  auto decoded = value->Samples(0, 4096).value();
  auto original = audio->Samples(0, 4096).value();

  double signal = 0, noise = 0;
  for (int f = 0; f < 4096; ++f) {
    for (int c = 0; c < 2; ++c) {
      const double s = original.At(f, c);
      const double e = s - decoded.At(f, c);
      signal += s * s;
      noise += e * e;
    }
  }
  if (signal == 0) {
    EXPECT_LT(noise, 1e6);  // silence should stay near-silent
  } else {
    const double snr_db = 10.0 * std::log10(signal / (noise + 1e-9));
    EXPECT_GT(snr_db, 12.0) << "family " << EncodingFamilyName(family);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndPatterns, AudioCodecRoundTripTest,
    ::testing::Combine(::testing::Values(EncodingFamily::kMulaw,
                                         EncodingFamily::kAdpcm),
                       ::testing::Values(AudioPattern::kTone,
                                         AudioPattern::kChirp,
                                         AudioPattern::kSpeechLike)));

TEST(MulawCodecTest, ScalarCompandingMonotone) {
  int16_t prev_decoded = -32768;
  for (int v = -32000; v <= 32000; v += 997) {
    const uint8_t m = MulawCodec::CompandSample(static_cast<int16_t>(v));
    const int16_t back = MulawCodec::ExpandSample(m);
    EXPECT_GE(back, prev_decoded);  // non-decreasing
    EXPECT_NEAR(back, v, 1100);     // within one segment step
    prev_decoded = back;
  }
}

TEST(MulawCodecTest, CompressionRatioIsTwo) {
  auto audio = GenerateAudio(MediaDataType::CdAudio(), 2048,
                             AudioPattern::kChirp)
                   .value();
  auto encoded = MulawCodec().Encode(*audio).value();
  EXPECT_EQ(encoded.TotalBytes(), audio->StoredBytes() / 2);
}

TEST(AdpcmCodecTest, CompressionRatioIsFour) {
  auto audio = GenerateAudio(MediaDataType::CdAudio(), 2048,
                             AudioPattern::kChirp)
                   .value();
  auto encoded = AdpcmCodec().Encode(*audio).value();
  // 4:1 on the body plus a small per-chunk header.
  EXPECT_LT(encoded.TotalBytes(), audio->StoredBytes() / 4 + 32);
}

TEST(EncodedAudioTest, SerializeRoundTrip) {
  auto audio = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                             AudioPattern::kSpeechLike)
                   .value();
  auto encoded = AdpcmCodec().Encode(*audio).value();
  auto restored = EncodedAudio::Deserialize(encoded.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().total_frames, 3000);
  EXPECT_EQ(restored.value().chunks.size(), encoded.chunks.size());
  for (size_t i = 0; i < encoded.chunks.size(); ++i) {
    EXPECT_EQ(restored.value().chunks[i], encoded.chunks[i]);
  }
}

TEST(EncodedAudioTest, ChunkBoundarySpanningRead) {
  auto audio = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                             AudioPattern::kTone)
                   .value();
  auto codec = std::make_shared<MulawCodec>();
  auto value =
      EncodedAudioValue::Create(codec, codec->Encode(*audio).value()).value();
  // Read a range straddling the 1024-frame chunk boundary.
  auto block = value->Samples(1000, 100);
  ASSERT_TRUE(block.ok());
  auto reference = audio->Samples(1000, 100).value();
  for (int f = 0; f < 100; ++f) {
    EXPECT_NEAR(block.value().At(f, 0), reference.At(f, 0), 1100);
  }
}

// --------------------------------------------------------- EncodedValue ----

TEST(EncodedVideoValueTest, GenericVideoValueInterface) {
  const auto type = MediaDataType::RawVideo(32, 32, 8, Rational(10));
  auto raw = GenerateVideo(type, 10, VideoPattern::kMovingBox).value();
  auto codec = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kInter)
                   .value();
  VideoCodecParams params;
  params.gop_size = 5;
  auto value =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();
  // Presents as compressed video of matching geometry.
  EXPECT_EQ(value->type().family(), EncodingFamily::kInter);
  EXPECT_EQ(value->width(), 32);
  EXPECT_EQ(value->FrameCount(), 10);
  EXPECT_LT(value->StoredBytes(), raw->StoredBytes());
  // Frame access decodes on demand; sequential access is cheap.
  ASSERT_TRUE(value->Frame(0).ok());
  ASSERT_TRUE(value->Frame(1).ok());
  EXPECT_EQ(value->FramesDecodedInternally(), 2);
  // Temporal interface is inherited.
  EXPECT_EQ(value->duration(), WorldTime::FromSeconds(1));
}

TEST(EncodedVideoValueTest, CodecFamilyMismatchRejected) {
  const auto type = MediaDataType::RawVideo(16, 16, 8, Rational(10));
  auto raw = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  auto intra = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kIntra)
                   .value();
  auto encoded = intra->Encode(*raw, {}).value();
  auto inter = CodecRegistry::Default()
                   .VideoCodecFor(EncodingFamily::kInter)
                   .value();
  EXPECT_FALSE(EncodedVideoValue::Create(inter, encoded).ok());
}

// --------------------------------------------------------------- Registry --

TEST(CodecRegistryTest, AllFamiliesResolvable) {
  const auto& reg = CodecRegistry::Default();
  for (auto family :
       {EncodingFamily::kIntra, EncodingFamily::kInter, EncodingFamily::kDelta,
        EncodingFamily::kScalable}) {
    auto codec = reg.VideoCodecFor(family);
    ASSERT_TRUE(codec.ok());
    EXPECT_EQ(codec.value()->family(), family);
  }
  for (auto family : {EncodingFamily::kMulaw, EncodingFamily::kAdpcm}) {
    auto codec = reg.AudioCodecFor(family);
    ASSERT_TRUE(codec.ok());
    EXPECT_EQ(codec.value()->family(), family);
  }
  EXPECT_FALSE(reg.VideoCodecFor(EncodingFamily::kRaw).ok());
  EXPECT_FALSE(reg.AudioCodecFor(EncodingFamily::kIntra).ok());
}

// ------------------------------------------------- Rate/distortion sanity --

TEST(CodecComparisonTest, QualityKnobTradesRateForDistortion) {
  const auto type = MediaDataType::RawVideo(48, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 4, VideoPattern::kMovingGradient).value();
  IntraCodec codec;
  int64_t prev_bytes = 0;
  double prev_mae = 1e9;
  for (int quality : {30, 60, 95}) {
    VideoCodecParams params;
    params.quality = quality;
    auto encoded = codec.Encode(*video, params).value();
    auto session = codec.NewDecoder(encoded).value();
    double mae = 0;
    for (int64_t i = 0; i < 4; ++i) {
      mae += session->DecodeFrame(i)
                 .value()
                 .MeanAbsoluteError(video->Frame(i).value())
                 .value();
    }
    mae /= 4;
    EXPECT_GT(encoded.TotalBytes(), prev_bytes);  // more quality, more bytes
    EXPECT_LT(mae, prev_mae);                     // more quality, less error
    prev_bytes = encoded.TotalBytes();
    prev_mae = mae;
  }
}

TEST(CodecComparisonTest, AllVideoCodecsBeatRawStorage) {
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto video = GenerateVideo(type, 8, VideoPattern::kMovingBox).value();
  const int64_t raw_bytes = video->StoredBytes();
  for (const auto& codec : CodecRegistry::Default().video_codecs()) {
    VideoCodecParams params;
    params.quality = 75;
    auto encoded = codec->Encode(*video, params);
    ASSERT_TRUE(encoded.ok()) << codec->name();
    EXPECT_LT(encoded.value().TotalBytes(), raw_bytes) << codec->name();
  }
}

// ------------------------------------------------------------ Wire format --

// FastHash64 over every frame's intra flag and the hashes of its `data`
// and `layers`: one digest per stream that changes if any stored byte does.
uint64_t StreamDigest(const EncodedVideo& video) {
  Buffer digests;
  for (const EncodedFrame& f : video.frames) {
    digests.AppendU8(f.is_intra ? 1 : 0);
    digests.AppendU64(FastHash64(f.data.data(), f.data.size()));
    digests.AppendU8(static_cast<uint8_t>(f.layers.size()));
    for (const Buffer& l : f.layers) {
      digests.AppendU64(FastHash64(l.data(), l.size()));
    }
  }
  return FastHash64(digests.data(), digests.size());
}

// The clip the decoded-frame pins run on: a diagonal gradient drifting
// every frame at a size that is not a multiple of 8 or 16, so P-frames
// carry motion vectors that point past the frame edge and residual planes
// with all-zero blocks (simd_kernels_test checks both properties).
std::shared_ptr<RawVideoValue> DecodePinClip() {
  const auto type = MediaDataType::RawVideo(44, 28, 24, Rational(10));
  return GenerateVideo(type, 9, VideoPattern::kMovingGradient, 7).value();
}

// Pins the stored bytes of the intra, inter and scalable codecs on a fixed
// clip. The constants were captured before the codecs lost their parallel
// paths, so this shows the per-plane u32 framing survived unchanged.
TEST(WireFormatTest, EncodedBytesArePinned) {
  const auto type = MediaDataType::RawVideo(48, 32, 24, Rational(10));
  auto video = GenerateVideo(type, 9, VideoPattern::kMovingBox, 7).value();

  VideoCodecParams params;
  params.quality = 80;
  params.gop_size = 4;
  params.layer_count = 3;
  const uint64_t intra =
      StreamDigest(IntraCodec().Encode(*video, params).value());
  const uint64_t inter =
      StreamDigest(InterCodec().Encode(*video, params).value());
  const uint64_t scalable =
      StreamDigest(ScalableCodec().Encode(*video, params).value());
  EXPECT_EQ(intra, 0x3d46b28421eefbc0ull) << std::hex << intra;
  EXPECT_EQ(inter, 0xa5aeb29bc0456c34ull) << std::hex << inter;
  EXPECT_EQ(scalable, 0xb14ff9c2534ccb87ull) << std::hex << scalable;

  // Partial macroblocks and edge-crossing candidates at the smallest, a
  // middling and the largest search range; captured before the motion
  // search moved onto an edge-padded reference.
  auto clip = DecodePinClip();
  const struct {
    int search_range;
    uint64_t digest;
  } searches[] = {{1, 0x2ad4a9cabc030ffeull},
                  {8, 0x771a47031bfaf5e4ull},
                  {64, 0xc28f1c7311ecffb9ull}};
  for (const auto& search : searches) {
    params.search_range = search.search_range;
    const uint64_t digest =
        StreamDigest(InterCodec().Encode(*clip, params).value());
    EXPECT_EQ(digest, search.digest)
        << "search_range " << search.search_range << ": " << std::hex
        << digest;
  }
}

// FastHash64 of every frame `codec` decodes from its own encoding of
// `video`, in presentation order.
std::vector<uint64_t> DecodedFrameDigests(const VideoCodec& codec,
                                          const VideoValue& video,
                                          const VideoCodecParams& params) {
  auto encoded = codec.Encode(video, params);
  EXPECT_TRUE(encoded.ok()) << codec.name();
  if (!encoded.ok()) return {};
  auto session = codec.NewDecoder(encoded.value());
  EXPECT_TRUE(session.ok()) << codec.name();
  if (!session.ok()) return {};
  std::vector<uint64_t> digests;
  for (int64_t i = 0; i < video.FrameCount(); ++i) {
    auto frame = session.value()->DecodeFrame(i);
    EXPECT_TRUE(frame.ok()) << codec.name() << " frame " << i;
    if (!frame.ok()) return digests;
    digests.push_back(FastHash64(frame.value().data().data(),
                                 frame.value().data().size()));
  }
  return digests;
}

std::string HexList(const std::vector<uint64_t>& digests) {
  std::string out;
  char buf[24];
  for (uint64_t d : digests) {
    std::snprintf(buf, sizeof(buf), "0x%016llxull, ",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

// Pins every decoded frame of the intra, inter and scalable codecs, so a
// decoder speed-up that moves a single output sample fails here. The
// digests were captured with the decoder that ran every block through
// dequantize and the IDCT and clamped motion per sample.
TEST(WireFormatTest, DecodedFramesArePinned) {
  auto video = DecodePinClip();
  VideoCodecParams params;
  params.quality = 80;
  params.gop_size = 4;
  params.layer_count = 3;
  const std::vector<uint64_t> intra =
      DecodedFrameDigests(IntraCodec(), *video, params);
  const std::vector<uint64_t> inter =
      DecodedFrameDigests(InterCodec(), *video, params);
  const std::vector<uint64_t> scalable =
      DecodedFrameDigests(ScalableCodec(), *video, params);
  const std::vector<uint64_t> want_intra = {
      0x02100d98eb08debdull, 0x3aa70d042f031f55ull, 0x2d3883fb92a194f5ull,
      0xc7d7dc9a11283ad6ull, 0x33a9d8076a973319ull, 0x166df15fddd487c9ull,
      0xbec45e91431a2b36ull, 0x3deb31e5dcf4a358ull, 0x34712f3a3e3fc600ull};
  const std::vector<uint64_t> want_inter = {
      0x02100d98eb08debdull, 0xb0b932cf1a8c4443ull, 0xb800e558869a7af6ull,
      0xfaa63dc60c42e138ull, 0x33a9d8076a973319ull, 0xcae4a0dedc9ead76ull,
      0x70f830b5253794a0ull, 0x9b3bfb42f48fd6c3ull, 0x34712f3a3e3fc600ull};
  const std::vector<uint64_t> want_scalable = {
      0xef8943def175a859ull, 0x394b58c3875fd45bull, 0x6c0ad0bd7ab04829ull,
      0x487ae0db4fe79d67ull, 0x78606d08def44d0eull, 0x2debbaf2d344f766ull,
      0x6808d01fc03493e1ull, 0xeac87062ed42b0b8ull, 0x1cab8caa198174a2ull};
  EXPECT_EQ(intra, want_intra) << HexList(intra);
  EXPECT_EQ(inter, want_inter) << HexList(inter);
  EXPECT_EQ(scalable, want_scalable) << HexList(scalable);
}

// ------------------------------------------------------------ Threading --

// Codec work runs on its caller's thread: encoding and decoding a clip with
// every video family must not start a single thread in this process.
TEST(CodecThreadingTest, CodecWorkNeverStartsAThread) {
  const std::filesystem::path tasks("/proc/self/task");
  std::error_code ec;
  if (!std::filesystem::is_directory(tasks, ec)) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  auto thread_count = [&] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto type = MediaDataType::RawVideo(48, 32, 24, Rational(10));
  auto video = GenerateVideo(type, 6, VideoPattern::kMovingBox).value();

  const auto before = thread_count();
  for (const auto& codec : CodecRegistry::Default().video_codecs()) {
    VideoCodecParams params;
    params.gop_size = 3;
    auto encoded = codec->Encode(*video, params);
    ASSERT_TRUE(encoded.ok()) << codec->name();
    auto session = codec->NewDecoder(encoded.value());
    ASSERT_TRUE(session.ok()) << codec->name();
    for (int64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(session.value()->DecodeFrame(i).ok()) << codec->name();
    }
  }
  EXPECT_EQ(thread_count(), before);
}

}  // namespace
}  // namespace avdb
