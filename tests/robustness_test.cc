// Failure-injection and property tests: stored or transmitted bytes may be
// corrupted arbitrarily; nothing in the decode/deserialize path may crash,
// hang, or read out of bounds — every failure must surface as a Status
// (typically DataLoss). Also cross-module invariants under random
// workloads.

#include <gtest/gtest.h>

#include "activity/graph.h"
#include "activity/sinks.h"
#include "activity/sources.h"
#include "base/fault_injector.h"
#include "base/retry.h"
#include "base/rng.h"
#include "codec/audio_codec.h"
#include "codec/bitio.h"
#include "codec/delta_codec.h"
#include "codec/inter_codec.h"
#include "codec/registry.h"
#include "codec/scalable_codec.h"
#include "db/database.h"
#include "media/synthetic.h"
#include "sched/degradation.h"
#include "sched/event_engine.h"
#include "storage/value_serializer.h"

namespace avdb {
namespace {

using synthetic::AudioPattern;
using synthetic::GenerateAudio;
using synthetic::GenerateVideo;
using synthetic::VideoPattern;

/// Applies `flips` random byte corruptions.
Buffer Corrupt(Buffer buffer, Rng* rng, int flips) {
  for (int i = 0; i < flips && !buffer.empty(); ++i) {
    const size_t at = rng->NextBelow(buffer.size());
    buffer[at] = static_cast<uint8_t>(rng->NextU64());
  }
  return buffer;
}

/// Truncates to a random prefix.
Buffer Truncate(const Buffer& buffer, Rng* rng) {
  Buffer out;
  if (buffer.empty()) return out;
  const size_t keep = rng->NextBelow(buffer.size());
  out.AppendBytes(buffer.data(), keep);
  return out;
}

class CorruptionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionTest, CorruptEncodedVideoNeverCrashes) {
  Rng rng(GetParam());
  const auto type = MediaDataType::RawVideo(32, 24, 8, Rational(10));
  auto raw = GenerateVideo(type, 6, VideoPattern::kMovingBox).value();
  for (EncodingFamily family :
       {EncodingFamily::kIntra, EncodingFamily::kInter,
        EncodingFamily::kDelta, EncodingFamily::kScalable}) {
    auto codec = CodecRegistry::Default().VideoCodecFor(family).value();
    VideoCodecParams params;
    params.gop_size = 3;
    const Buffer good = codec->Encode(*raw, params).value().Serialize();
    for (int trial = 0; trial < 20; ++trial) {
      Buffer bad = rng.NextBool() ? Corrupt(good, &rng, 1 + static_cast<int>(rng.NextBelow(8)))
                                  : Truncate(good, &rng);
      auto stream = EncodedVideo::Deserialize(bad);
      if (!stream.ok()) continue;  // rejected at the container level: fine
      auto session = codec->NewDecoder(stream.value());
      if (!session.ok()) continue;
      // Decoding may succeed (benign corruption) or fail with a Status —
      // either way, no crash and bounded output.
      for (size_t i = 0; i < stream.value().frames.size(); ++i) {
        auto frame = session.value()->DecodeFrame(static_cast<int64_t>(i));
        if (frame.ok()) {
          EXPECT_EQ(frame.value().SizeBytes(), 32u * 24u);
        }
      }
    }
  }
}

// A stored inter stream whose P-frame was replaced by one hostile symbol
// must fail with DataLoss after a storage round trip: it may neither crash
// (an AC run of 2^31 once indexed the block out of bounds) nor decode (a
// run of 2^32+1 once truncated to 1 and was accepted).
TEST(HostileStreamTest, OutOfRangeSymbolsInAStoredStreamAreDataLoss) {
  const auto type = MediaDataType::RawVideo(32, 16, 8, Rational(10));
  auto raw = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.gop_size = 2;
  const EncodedVideo good = InterCodec().Encode(*raw, params).value();
  ASSERT_FALSE(good.frames[1].is_intra);
  struct Case {
    const char* what;
    int64_t mv_dx;
    int64_t dc_delta;
    uint64_t run;
    int64_t level;
  };
  const Case cases[] = {
      {"AC run 2^31", 0, 0, uint64_t{1} << 31, 1},
      {"AC run 2^32+1", 0, 0, (uint64_t{1} << 32) + 1, 1},
      {"DC delta 2^31", 0, int64_t{1} << 31, 0, 1},
      {"level 2^31", 0, 0, 0, int64_t{1} << 31},
      {"motion vector 65", 65, 0, 0, 1},
  };
  auto decode_p_frame = [&](const Case& c) {
    BitWriter w;
    w.WriteSignedVarint(c.mv_dx);  // the two macroblocks' vectors
    w.WriteSignedVarint(0);
    w.WriteSignedVarint(0);
    w.WriteSignedVarint(0);
    w.WriteSignedVarint(c.dc_delta);  // first block of the plane
    w.WriteVarint(c.run);
    w.WriteSignedVarint(c.level);
    w.WriteVarint(0x3F);
    for (int block = 1; block < 8; ++block) {
      w.WriteSignedVarint(0);
      w.WriteVarint(0x3F);
    }
    EncodedVideo hostile = good;
    hostile.frames[1].data = w.Finish();
    auto stored = EncodedVideo::Deserialize(hostile.Serialize());
    if (!stored.ok()) return stored.status();
    auto session = InterCodec().NewDecoder(stored.value()).value();
    AVDB_RETURN_IF_ERROR(session->DecodeFrame(0).status());
    return session->DecodeFrame(1).status();
  };
  // The same payload with in-range symbols decodes.
  ASSERT_TRUE(decode_p_frame({"control", 64, -5, 62, -9}).ok());
  for (const Case& c : cases) {
    EXPECT_EQ(decode_p_frame(c).code(), StatusCode::kDataLoss) << c.what;
  }
}

// The ADPCM chunk header stores each channel's step index in a byte, but
// the step table has 89 entries: a stored index past 88 is corrupt.
TEST(HostileStreamTest, AdpcmStepIndexPastTableIsDataLoss) {
  auto raw = GenerateAudio(MediaDataType::VoiceAudio(), 600,
                           AudioPattern::kSpeechLike)
                 .value();
  const AdpcmCodec codec;
  const EncodedAudio good = codec.Encode(*raw).value();
  auto decode_with_index = [&](uint8_t index) {
    EncodedAudio hostile = good;
    hostile.chunks[0][2] = index;  // channel 0: u16 predictor, u8 index
    return codec.DecodeChunk(hostile, 0).status();
  };
  EXPECT_TRUE(decode_with_index(88).ok());
  EXPECT_EQ(decode_with_index(89).code(), StatusCode::kDataLoss);
  EXPECT_EQ(decode_with_index(255).code(), StatusCode::kDataLoss);
}

// A delta frame's quantized value is bounded by what the encoder's rounding
// of a delta in [-255, 255] can produce; a crafted 2^30 must be DataLoss
// (its product with the step once overflowed an int).
TEST(HostileStreamTest, DeltaPastEncoderRangeIsDataLoss) {
  const auto type = MediaDataType::RawVideo(8, 8, 8, Rational(10));
  auto raw = GenerateVideo(type, 2, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.quality = 50;  // step 8
  ASSERT_EQ(DeltaCodec::StepForQuality(params.quality), 8);
  const EncodedVideo good = DeltaCodec().Encode(*raw, params).value();
  auto decode_with_delta = [&](int64_t q) {
    BitWriter w;
    w.WriteVarint(0);  // run
    w.WriteSignedVarint(q);
    w.WriteVarint(0);  // terminator
    w.WriteSignedVarint(0);
    EncodedVideo hostile = good;
    hostile.frames[1].data = w.Finish();
    auto session = DeltaCodec().NewDecoder(hostile).value();
    return session->DecodeFrame(1).status();
  };
  const int64_t max_q = (255 + 8 / 2) / 8;
  EXPECT_TRUE(decode_with_delta(max_q).ok());
  EXPECT_TRUE(decode_with_delta(-max_q).ok());
  EXPECT_EQ(decode_with_delta(max_q + 1).code(), StatusCode::kDataLoss);
  EXPECT_EQ(decode_with_delta(-max_q - 1).code(), StatusCode::kDataLoss);
  EXPECT_EQ(decode_with_delta(int64_t{1} << 30).code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(decode_with_delta(-(int64_t{1} << 30)).code(),
            StatusCode::kDataLoss);
}

// The delta bound must not refuse what the encoder writes: a clip swinging
// between black and white carries the largest deltas (the encoder emits
// q = 16 at step 16 for a delta of 255), and decodes at every quality to
// within half a step of the source.
TEST(HostileStreamTest, FullSwingDeltaClipRoundTripsAtEveryQuality) {
  const auto type = MediaDataType::RawVideo(8, 8, 8, Rational(10));
  std::vector<VideoFrame> frames;
  for (int i = 0; i < 6; ++i) {
    VideoFrame frame(8, 8, 8);
    std::fill(frame.data().begin(), frame.data().end(),
              static_cast<uint8_t>(i % 2 == 0 ? 0 : 255));
    frames.push_back(std::move(frame));
  }
  auto raw = RawVideoValue::FromFrames(type, frames).value();
  for (int quality = 1; quality <= 100; ++quality) {
    VideoCodecParams params;
    params.quality = quality;
    const int step = DeltaCodec::StepForQuality(quality);
    const EncodedVideo encoded = DeltaCodec().Encode(*raw, params).value();
    auto session = DeltaCodec().NewDecoder(encoded).value();
    for (int64_t i = 0; i < raw->FrameCount(); ++i) {
      auto decoded = session->DecodeFrame(i);
      ASSERT_TRUE(decoded.ok()) << "quality " << quality << " frame " << i
                                << ": " << decoded.status().ToString();
      const std::vector<uint8_t>& want = frames[static_cast<size_t>(i)].data();
      const std::vector<uint8_t>& got = decoded.value().data();
      for (size_t k = 0; k < want.size(); ++k) {
        ASSERT_LE(std::abs(int{got[k]} - int{want[k]}), step / 2)
            << "quality " << quality << " frame " << i;
      }
    }
  }
}

TEST_P(CorruptionTest, CorruptEncodedAudioNeverCrashes) {
  Rng rng(GetParam() * 31);
  auto raw = GenerateAudio(MediaDataType::VoiceAudio(), 3000,
                           AudioPattern::kSpeechLike)
                 .value();
  for (EncodingFamily family :
       {EncodingFamily::kMulaw, EncodingFamily::kAdpcm}) {
    auto codec = CodecRegistry::Default().AudioCodecFor(family).value();
    const Buffer good = codec->Encode(*raw).value().Serialize();
    for (int trial = 0; trial < 25; ++trial) {
      Buffer bad = rng.NextBool() ? Corrupt(good, &rng, 1 + static_cast<int>(rng.NextBelow(8)))
                                  : Truncate(good, &rng);
      auto stream = EncodedAudio::Deserialize(bad);
      if (!stream.ok()) continue;
      for (size_t c = 0; c < stream.value().chunks.size(); ++c) {
        AVDB_IGNORE_STATUS(
            codec->DecodeChunk(stream.value(), static_cast<int64_t>(c))
                .status(),
            "fuzz: decode of corrupted input may fail; only crashes matter");
      }
    }
  }
}

TEST_P(CorruptionTest, CorruptSerializedValueNeverCrashes) {
  Rng rng(GetParam() * 77);
  auto video = GenerateVideo(MediaDataType::RawVideo(16, 16, 8, Rational(10)),
                             4, VideoPattern::kNoise)
                   .value();
  auto audio = GenerateAudio(MediaDataType::CdAudio(), 500,
                             AudioPattern::kChirp)
                   .value();
  auto subs = synthetic::GenerateSubtitles(MediaDataType::Text(Rational(10)),
                                           2, 3, 1, "x")
                  .value();
  for (const MediaValue* value :
       std::initializer_list<const MediaValue*>{video.get(), audio.get(),
                                                subs.get()}) {
    const Buffer good = value_serializer::Serialize(*value).value();
    for (int trial = 0; trial < 30; ++trial) {
      Buffer bad = rng.NextBool() ? Corrupt(good, &rng, 1 + static_cast<int>(rng.NextBelow(6)))
                                  : Truncate(good, &rng);
      auto restored = value_serializer::Deserialize(bad);
      if (restored.ok()) {
        // Benign corruption: the restored value must still be usable.
        EXPECT_GE(restored.value()->ElementCount(), 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CorruptionTest, StoreDetectsBitrotViaChecksum) {
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  Buffer blob;
  for (int i = 0; i < 10000; ++i) blob.AppendU8(static_cast<uint8_t>(i));
  ASSERT_TRUE(store.Put("clip", blob).ok());
  // Flip a stored byte behind the store's back.
  Buffer flipped;
  flipped.AppendU8(0xFF);
  ASSERT_TRUE(device->Write(0, 123, flipped).ok());
  auto read = store.Get("clip");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------- hostile predicates --

TEST(PredicateParserTest, DeepNestingFailsWithStatusNotStackOverflow) {
  // 10^5 levels of `not` or `(` once overflowed the stack (one recursive
  // ParseUnary per level); they must fail as InvalidArgument instead.
  const int kLevels = 100000;
  std::string nots;
  for (int i = 0; i < kLevels; ++i) nots += "not ";
  auto deep_not = ParsePredicate(nots + "x = 1");
  ASSERT_FALSE(deep_not.ok());
  EXPECT_EQ(deep_not.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep_not.status().message().find("nesting"), std::string::npos);

  const std::string deep_parens = std::string(kLevels, '(') + "x = 1" +
                                  std::string(kLevels, ')');
  auto deep_paren = ParsePredicate(deep_parens);
  ASSERT_FALSE(deep_paren.ok());
  EXPECT_EQ(deep_paren.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep_paren.status().message().find("nesting"), std::string::npos);

  // Ordinary nesting still parses and evaluates.
  std::string shallow;
  for (int i = 0; i < 100; ++i) shallow += "not (";
  shallow += "x = 1";
  for (int i = 0; i < 100; ++i) shallow += ")";
  EXPECT_TRUE(ParsePredicate(shallow).ok());
}

TEST(PredicateParserTest, FlatChainPastTermCapFailsWithStatus) {
  // A flat chain of 10^6 `and` terms once built a left-deep tree whose
  // recursive Matches and destruction overflowed the stack.
  std::string huge = "x = 1";
  huge.reserve(10 * 1000000);
  for (int i = 1; i < 1000000; ++i) huge += " and x = 1";
  auto chain = ParsePredicate(huge);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(chain.status().message().find("terms"), std::string::npos);

  // The cap counts `and` and `or` alike, across nesting levels.
  std::string mixed = "(x = 1";
  for (int i = 0; i < kMaxPredicateTerms; ++i) {
    mixed += i % 2 == 0 ? ") or (x = 1" : " and x = 1";
  }
  mixed += ")";
  EXPECT_EQ(ParsePredicate(mixed).status().code(),
            StatusCode::kInvalidArgument);

  // A chain of exactly kMaxPredicateTerms terms still parses and
  // evaluates; one more term is refused.
  DbObject object(Oid(1), "C");
  ASSERT_TRUE(object.SetScalar("x", int64_t{1}).ok());
  std::string prefix = "x = 1";
  for (int i = 2; i < kMaxPredicateTerms; ++i) prefix += " and x = 1";
  auto at_cap = ParsePredicate(prefix + " and x = 1");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().ToString();
  EXPECT_TRUE(at_cap.value()->Matches(object));
  auto last_fails = ParsePredicate(prefix + " and x = 2");
  ASSERT_TRUE(last_fails.ok());
  EXPECT_FALSE(last_fails.value()->Matches(object));
  EXPECT_FALSE(ParsePredicate(prefix + " and x = 1 and x = 1").ok());
}

TEST(PredicateParserTest, TextPastByteCapFailsBeforeTokenizing) {
  // 10^6 terms (≈10 MB) once tokenized in full, peaking near 206 MB RSS,
  // before the term cap refused them; the byte cap refuses the text first.
  std::string over(kMaxPredicateBytes + 1, ' ');
  over.replace(0, 5, "x = 1");
  auto refused = ParsePredicate(over);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("byte cap"), std::string::npos);

  // A chain of kMaxPredicateTerms terms, each over 100 bytes long, fits
  // under the cap and parses.
  const std::string term(100, 'a');
  std::string chain = term + " = 1";
  for (int i = 1; i < kMaxPredicateTerms; ++i) chain += " and " + term + "=1";
  ASSERT_LE(chain.size(), kMaxPredicateBytes);
  auto parsed = ParsePredicate(chain);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// ----------------------------------------------------- cross-module invariants --

TEST(InvariantTest, AdmissionLedgerBalancesUnderRandomOps) {
  Rng rng(99);
  AdmissionController ac;
  ASSERT_TRUE(ac.RegisterPool("a", 1000).ok());
  ASSERT_TRUE(ac.RegisterPool("b", 500).ok());
  std::vector<AdmissionTicket> live;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      auto ticket = ac.Admit(
          {{"a", static_cast<double>(rng.NextInRange(1, 300))},
           {"b", static_cast<double>(rng.NextInRange(0, 150))}});
      if (ticket.ok()) live.push_back(std::move(ticket).value());
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ac.Release(&live[pick]);
      live.erase(live.begin() + static_cast<int64_t>(pick));
    }
    // Invariants: never oversubscribed, never negative.
    EXPECT_GE(ac.Available("a").value(), -1e-6);
    EXPECT_GE(ac.Available("b").value(), -1e-6);
    EXPECT_LE(ac.Available("a").value(), 1000 + 1e-6);
    EXPECT_LE(ac.Available("b").value(), 500 + 1e-6);
  }
  for (auto& ticket : live) ac.Release(&ticket);
  EXPECT_DOUBLE_EQ(ac.Available("a").value(), 1000);
  EXPECT_DOUBLE_EQ(ac.Available("b").value(), 500);
}

TEST(InvariantTest, LockTableConsistentUnderRandomOps) {
  Rng rng(123);
  LockManager locks;
  const std::vector<std::string> owners = {"s1", "s2", "s3"};
  for (int step = 0; step < 1000; ++step) {
    const Oid oid(1 + rng.NextBelow(5));
    const std::string& owner = owners[rng.NextBelow(owners.size())];
    switch (rng.NextBelow(3)) {
      case 0:
        AVDB_IGNORE_STATUS(locks.Acquire(oid, LockMode::kShared, owner),
                           "fuzz: conflicts are an expected outcome");
        break;
      case 1:
        AVDB_IGNORE_STATUS(locks.Acquire(oid, LockMode::kExclusive, owner),
                           "fuzz: conflicts are an expected outcome");
        break;
      case 2:
        locks.Release(oid, owner);
        break;
    }
    // Invariant: an exclusive holder excludes everyone else.
    for (uint64_t o = 1; o <= 5; ++o) {
      const Oid check(o);
      int exclusive_holders = 0;
      for (const auto& candidate : owners) {
        if (locks.Holds(check, LockMode::kExclusive, candidate)) {
          ++exclusive_holders;
        }
      }
      ASSERT_LE(exclusive_holders, 1);
      if (exclusive_holders == 1) {
        ASSERT_EQ(locks.HolderCount(check), 1u);
      }
    }
  }
}

TEST(InvariantTest, EventEngineTimeNeverRegresses) {
  Rng rng(7);
  EventEngine engine;
  int64_t last_seen = -1;
  int executed = 0;
  std::function<void()> observe = [&] {
    EXPECT_GE(engine.now_ns(), last_seen);
    last_seen = engine.now_ns();
    ++executed;
    if (executed < 300) {
      // Schedule into the past and the future; past clamps to now.
      engine.ScheduleAt(engine.now_ns() + rng.NextInRange(-500, 500),
                        observe);
    }
  };
  engine.ScheduleAt(int64_t{0}, observe);
  engine.RunUntilIdle();
  EXPECT_EQ(executed, 300);
}

// ------------------------------------------------- fault injection model --

TEST(FaultInjectorTest, TraceIsAPureFunctionOfSeedAndSpec) {
  const FaultSpec spec = FaultSpec::TransientReads(0.2);
  FaultInjector a(spec, 99);
  FaultInjector b(spec, 99);
  for (int i = 0; i < 500; ++i) {
    const FaultDecision da = a.OnDeviceRead(i % 7 == 0);
    const FaultDecision db = b.OnDeviceRead(i % 7 == 0);
    ASSERT_EQ(da.fail, db.fail);
    ASSERT_EQ(da.extra_latency_ns, db.extra_latency_ns);
    ASSERT_STREQ(da.kind, db.kind);
    ASSERT_EQ(a.OnTransfer(), b.OnTransfer());
  }
  EXPECT_EQ(a.stats().read_errors, b.stats().read_errors);
  EXPECT_EQ(a.stats().latency_spikes, b.stats().latency_spikes);
  EXPECT_GT(a.stats().read_errors, 0);
  // A different seed produces a different schedule.
  FaultInjector c(spec, 100);
  bool any_difference = false;
  FaultInjector a2(spec, 99);
  for (int i = 0; i < 500 && !any_difference; ++i) {
    any_difference = a2.OnDeviceRead(false).fail != c.OnDeviceRead(false).fail;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjectorTest, DisabledSpecNeverFires) {
  EXPECT_FALSE(FaultSpec::None().Enabled());
  EXPECT_TRUE(FaultSpec::TransientReads(0.01).Enabled());
  FaultInjector injector(FaultSpec::None(), 1);
  for (int i = 0; i < 1000; ++i) {
    const FaultDecision d = injector.OnDeviceRead(true);
    ASSERT_FALSE(d.fail);
    ASSERT_EQ(d.extra_latency_ns, 0);
    ASSERT_EQ(injector.OnTransfer(), 1.0);
  }
  EXPECT_EQ(injector.stats().read_errors, 0);
  EXPECT_EQ(injector.stats().extra_latency_ns, 0);
}

// ------------------------------------------------------- retry discipline --

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryPolicy policy;  // 2 ms initial, x2, 50 ms cap
  EXPECT_EQ(policy.BackoffNs(1), 2 * 1000 * 1000);
  EXPECT_EQ(policy.BackoffNs(2), 4 * 1000 * 1000);
  EXPECT_EQ(policy.BackoffNs(3), 8 * 1000 * 1000);
  EXPECT_EQ(policy.BackoffNs(10), policy.max_backoff_ns);
}

TEST(RetryPolicyTest, ZeroJitterSeedKeepsDeterministicSchedule) {
  // jitter_seed = 0 must be byte-identical to the pre-jitter exponential
  // schedule — the default every existing trace depends on.
  RetryPolicy plain;
  RetryPolicy zeroed;
  zeroed.jitter_seed = 0;
  for (int r = 1; r <= 12; ++r) {
    EXPECT_EQ(plain.BackoffNs(r), zeroed.BackoffNs(r)) << "retry " << r;
  }
}

TEST(RetryPolicyTest, DecorrelatedJitterIsBoundedAndPure) {
  RetryPolicy policy;
  policy.jitter_seed = 42;
  for (int r = 1; r <= 12; ++r) {
    const int64_t backoff = policy.BackoffNs(r);
    // Every jittered wait stays within [initial, cap].
    EXPECT_GE(backoff, policy.initial_backoff_ns) << "retry " << r;
    EXPECT_LE(backoff, policy.max_backoff_ns) << "retry " << r;
    // Pure function of (seed, retry): probing any retry number — in any
    // order, any number of times — never perturbs the schedule. This is
    // what lets RetryState peek at BackoffNs(r + 1) for its deadline check
    // without changing what retry r + 1 will actually wait.
    EXPECT_EQ(backoff, policy.BackoffNs(r)) << "retry " << r;
  }
  const int64_t third = policy.BackoffNs(3);
  (void)policy.BackoffNs(7);
  (void)policy.BackoffNs(1);
  EXPECT_EQ(policy.BackoffNs(3), third);
}

TEST(RetryPolicyTest, JitterSeedsDesynchronizeSessions) {
  // The point of decorrelated jitter: two sessions with different seeds
  // must not back off in lockstep. With 8 retries each, at least one wait
  // must differ (astronomically likely; deterministic given fixed seeds).
  RetryPolicy a;
  RetryPolicy b;
  a.jitter_seed = 1001;
  b.jitter_seed = 2002;
  bool diverged = false;
  for (int r = 1; r <= 8; ++r) {
    if (a.BackoffNs(r) != b.BackoffNs(r)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RetryStateTest, JitteredStateStillBoundsDeadline) {
  RetryPolicy policy;
  policy.jitter_seed = 7;
  policy.max_attempts = 100;
  policy.deadline_ns = 10 * 1000 * 1000;
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky");
  Status verdict = Status::OK();
  while (verdict.ok()) verdict = state.BeforeRetry(transient);
  EXPECT_EQ(verdict.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(state.charged_ns(), policy.deadline_ns);
}

TEST(RetryStateTest, RetriesTransientsUntilAttemptsExhausted) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky read");
  EXPECT_TRUE(state.BeforeRetry(transient).ok());   // attempt 2 allowed
  EXPECT_TRUE(state.BeforeRetry(transient).ok());   // attempt 3 allowed
  const Status verdict = state.BeforeRetry(transient);
  EXPECT_EQ(verdict.code(), StatusCode::kUnavailable);  // budget spent
  EXPECT_EQ(state.retries(), 2);
  EXPECT_EQ(state.charged_ns(), 2 * 1000 * 1000 + 4 * 1000 * 1000);
}

TEST(RetryStateTest, NonRetryableFailsImmediately) {
  RetryState state(RetryPolicy{});
  const Status verdict = state.BeforeRetry(Status::NotFound("gone"));
  EXPECT_EQ(verdict.code(), StatusCode::kNotFound);
  EXPECT_EQ(state.charged_ns(), 0);
}

TEST(RetryStateTest, DeadlineBoundsTotalCharge) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.deadline_ns = 5 * 1000 * 1000;  // 2 ms + 4 ms would exceed 5 ms
  RetryState state(policy);
  const Status transient = Status::Unavailable("flaky");
  EXPECT_TRUE(state.BeforeRetry(transient).ok());  // charges 2 ms
  const Status verdict = state.BeforeRetry(transient);
  EXPECT_EQ(verdict.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(state.charged_ns(), policy.deadline_ns);
}

TEST(FaultToleranceTest, StoreAbsorbsTransientReadFaults) {
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  FaultInjector injector(FaultSpec::TransientReads(0.4), 5);
  device->set_fault_injector(&injector);
  MediaStore store(device, nullptr);
  Buffer blob;
  for (int i = 0; i < 200000; ++i) blob.AppendU8(static_cast<uint8_t>(i));
  ASSERT_TRUE(store.Put("clip", blob).ok());
  // At a 40% transient rate a multi-extent read is all but guaranteed to
  // hit faults; the retry policy must absorb them invisibly.
  auto read = store.Get("clip");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value().data.Hash64(), blob.Hash64());
  EXPECT_GT(read.value().retries, 0);
  EXPECT_GT(store.stats().retries, 0);
  EXPECT_GT(store.stats().backoff_ns, 0);
  EXPECT_GT(device->stats().injected_faults, 0);
  // The backoff was charged to the modeled duration, not swallowed.
  const WorldTime clean = device->SequentialReadTime(blob.size());
  EXPECT_GT(read.value().duration.ToSecondsF(), clean.ToSecondsF());
}

TEST(FaultToleranceTest, StoreSurfacesPersistentFaults) {
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  FaultSpec always;
  always.read_error_rate = 1.0;
  FaultInjector injector(always, 1);
  MediaStore store(device, nullptr);
  Buffer blob;
  for (int i = 0; i < 1000; ++i) blob.AppendU8(1);
  ASSERT_TRUE(store.Put("clip", blob).ok());
  device->set_fault_injector(&injector);
  auto read = store.Get("clip");
  ASSERT_FALSE(read.ok());
  // Every attempt failed: the terminal status is the transient error (or
  // the deadline, whichever tripped first), and the exhaustion is counted.
  EXPECT_TRUE(read.status().code() == StatusCode::kUnavailable ||
              read.status().code() == StatusCode::kDeadlineExceeded);
  EXPECT_GE(store.stats().exhausted, 1);
}

// ------------------------------------- degrade-don't-stall, end to end --

/// One faulty streaming run: a 3-layer scalable clip streamed from a
/// MediaStore through a degradation-enabled VideoSource into a VideoWindow,
/// with every activity event appended to a textual log. Used both for the
/// determinism property (equal seeds => byte-identical logs) and the
/// acceptance gates.
struct FaultyStreamRun {
  std::vector<std::string> events;
  int64_t presented = 0;
  int64_t dropped = 0;
  int64_t retries = 0;
  int64_t aborts = 0;
  bool completed = false;
  double device_busy_s = 0;
};

FaultyStreamRun RunFaultyStream(bool attach_injector, const FaultSpec& spec,
                                uint64_t seed) {
  constexpr int kFrames = 80;
  const auto type = MediaDataType::RawVideo(64, 48, 8, Rational(10));
  auto raw = GenerateVideo(type, kFrames, VideoPattern::kMovingBox).value();
  VideoCodecParams params;
  params.layer_count = 3;
  auto codec = std::make_shared<ScalableCodec>();
  auto clip =
      EncodedVideoValue::Create(codec, codec->Encode(*raw, params).value())
          .value();

  FaultyStreamRun run;
  EventEngine engine;
  ActivityEnv env{&engine, nullptr};
  ActivityGraph graph(env);
  auto device =
      std::make_shared<BlockDevice>("d0", DeviceProfile::MagneticDisk());
  MediaStore store(device, nullptr);
  ServiceQueue queue("d0");
  EXPECT_TRUE(store.Put("clip", value_serializer::Serialize(*clip).value())
                  .ok());
  FaultInjector injector(spec, seed);
  if (attach_injector) device->set_fault_injector(&injector);

  DegradationController degrade;
  SourceOptions source_options;
  source_options.store = &store;
  source_options.blob_name = "clip";
  source_options.device_queue = &queue;
  source_options.degrade = &degrade;
  auto source = VideoSource::Create("src", ActivityLocation::kDatabase, env,
                                    source_options);
  EXPECT_TRUE(source->Bind(clip, VideoSource::kPortOut).ok());
  SinkOptions sink_options;
  sink_options.degrade = &degrade;
  auto window = VideoWindow::Create("win", ActivityLocation::kClient, env,
                                    VideoQuality(64, 48, 8, Rational(10)),
                                    sink_options);

  auto log = [&run, &engine](const char* who) {
    return [&run, &engine, who](const ActivityEvent& event) {
      run.events.push_back(who + (":" + event.kind) + "#" +
                           std::to_string(event.element_index) + "@" +
                           std::to_string(engine.now_ns()) +
                           (event.detail.empty() ? "" : " " + event.detail));
    };
  };
  for (const char* kind :
       {VideoSource::kEachFrame, VideoSource::kLastFrame,
        VideoSource::kFaultRetry, VideoSource::kFrameDropped,
        VideoSource::kQualityChanged, VideoSource::kStreamPaused,
        VideoSource::kStreamAborted}) {
    EXPECT_TRUE(source->Catch(kind, log("src")).ok());
  }
  for (const char* kind : {VideoWindow::kEachFrame, VideoWindow::kLastFrame}) {
    EXPECT_TRUE(window->Catch(kind, log("win")).ok());
  }

  EXPECT_TRUE(graph.Add(source).ok());
  EXPECT_TRUE(graph.Add(window).ok());
  EXPECT_TRUE(graph.Connect(source.get(), VideoSource::kPortOut, window.get(),
                            VideoWindow::kPortIn)
                  .ok());
  EXPECT_TRUE(graph.StartAll().ok());
  graph.RunUntilIdle();

  run.presented = window->stats().elements_presented;
  run.retries = store.stats().retries;
  run.aborts = degrade.stats().aborts_taken;
  run.dropped = degrade.stats().drops_taken;
  run.completed = false;
  for (const std::string& line : run.events) {
    if (line.rfind("win:LAST_FRAME", 0) == 0) run.completed = true;
  }
  run.device_busy_s = device->stats().busy_time.ToSecondsF();
  return run;
}

/// The acceptance spec's 5% profile, with head stalls long enough to build
/// real deadline pressure.
FaultSpec AcceptanceSpec() {
  FaultSpec spec = FaultSpec::TransientReads(0.05);
  spec.stuck_head_rate = 0.025;
  spec.stuck_head_stall_ns = 400 * 1000 * 1000;
  return spec;
}

TEST(FaultToleranceTest, FaultScheduleIsDeterministic) {
  // Same seed + same spec => byte-identical event log and identical
  // end-of-run metrics. This is the property that makes every fault an
  // exactly reproducible bug report.
  const FaultyStreamRun a = RunFaultyStream(true, AcceptanceSpec(), 1234);
  const FaultyStreamRun b = RunFaultyStream(true, AcceptanceSpec(), 1234);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i], b.events[i]) << "first divergence at event " << i;
  }
  EXPECT_EQ(a.presented, b.presented);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.device_busy_s, b.device_busy_s);
  // And the run actually exercised the fault machinery.
  EXPECT_GT(a.retries + a.dropped, 0);
}

TEST(FaultToleranceTest, InjectionOffIsByteIdenticalToNoInjector) {
  // Zero-cost-when-off: an attached injector with an all-zero spec must be
  // indistinguishable — event for event, nanosecond for nanosecond — from
  // no injector at all.
  const FaultyStreamRun off = RunFaultyStream(false, FaultSpec::None(), 1);
  const FaultyStreamRun none = RunFaultyStream(true, FaultSpec::None(), 1);
  ASSERT_EQ(off.events.size(), none.events.size());
  for (size_t i = 0; i < off.events.size(); ++i) {
    ASSERT_EQ(off.events[i], none.events[i]);
  }
  EXPECT_EQ(off.device_busy_s, none.device_busy_s);
  EXPECT_EQ(off.retries, 0);
  EXPECT_EQ(off.dropped, 0);
  EXPECT_TRUE(off.completed);
  EXPECT_EQ(off.presented, 80);
}

TEST(FaultToleranceTest, DegradedPlaybackCompletesAtFivePercent) {
  const FaultyStreamRun run = RunFaultyStream(true, AcceptanceSpec(), 1234);
  // Playback must finish despite the faults: the window sees end of stream,
  // nothing aborts, and every frame is either presented or deliberately
  // shed — no unhandled error path.
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.aborts, 0);
  EXPECT_EQ(run.presented + run.dropped, 80);
  // The fault machinery visibly engaged.
  EXPECT_GT(run.retries + run.dropped, 0);
}

TEST(InvariantTest, BackupIsDeterministic) {
  auto build = [] {
    auto db = std::make_unique<AvDatabase>();
    EXPECT_TRUE(db->AddDevice("disk0", DeviceProfile::MagneticDisk()).ok());
    ClassDef clip_class("Clip");
    EXPECT_TRUE(
        clip_class.AddAttribute({"footage", AttrType::kVideo, {}, {}}).ok());
    EXPECT_TRUE(db->DefineClass(clip_class).ok());
    auto oid = db->NewObject("Clip").value();
    auto video =
        GenerateVideo(MediaDataType::RawVideo(16, 16, 8, Rational(10)), 5,
                      VideoPattern::kMovingBox)
            .value();
    EXPECT_TRUE(db->SetMediaAttribute(oid, "footage", *video, "disk0").ok());
    return db;
  };
  auto db1 = build();
  auto db2 = build();
  EXPECT_EQ(db1->SaveBackup().value().Hash64(),
            db2->SaveBackup().value().Hash64());
}

}  // namespace
}  // namespace avdb
