#include "media/media_ops.h"

#include <algorithm>

namespace avdb {
namespace media_ops {

namespace {

MediaDataType RawTypeOf(const VideoValue& video) {
  return MediaDataType::RawVideo(video.width(), video.height(),
                                 video.depth_bits(), video.frame_rate());
}

Status CheckSameVideoFormat(const VideoValue& a, const VideoValue& b) {
  if (a.width() != b.width() || a.height() != b.height() ||
      a.depth_bits() != b.depth_bits() || a.frame_rate() != b.frame_rate()) {
    return Status::InvalidArgument(
        "video formats differ: " + a.type().ToString() + " vs " +
        b.type().ToString());
  }
  return Status::OK();
}

Status CheckSameAudioFormat(const AudioValue& a, const AudioValue& b) {
  if (a.channels() != b.channels() || a.sample_rate() != b.sample_rate()) {
    return Status::InvalidArgument(
        "audio formats differ: " + a.type().ToString() + " vs " +
        b.type().ToString());
  }
  return Status::OK();
}

Status AppendRange(const VideoValue& source, int64_t first, int64_t count,
                   RawVideoValue* out) {
  for (int64_t i = 0; i < count; ++i) {
    auto frame = source.Frame(first + i);
    if (!frame.ok()) return frame.status();
    AVDB_RETURN_IF_ERROR(out->AppendFrame(std::move(frame).value()));
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<RawVideoValue>> ExtractSegment(const VideoValue& video,
                                                      int64_t first,
                                                      int64_t count) {
  if (first < 0 || count < 0 || first + count > video.FrameCount()) {
    return Status::InvalidArgument("segment out of bounds");
  }
  auto out = RawVideoValue::Create(RawTypeOf(video));
  if (!out.ok()) return out.status();
  AVDB_RETURN_IF_ERROR(AppendRange(video, first, count, out.value().get()));
  return out;
}

Result<std::shared_ptr<RawVideoValue>> Concatenate(const VideoValue& a,
                                                   const VideoValue& b) {
  AVDB_RETURN_IF_ERROR(CheckSameVideoFormat(a, b));
  auto out = RawVideoValue::Create(RawTypeOf(a));
  if (!out.ok()) return out.status();
  AVDB_RETURN_IF_ERROR(AppendRange(a, 0, a.FrameCount(), out.value().get()));
  AVDB_RETURN_IF_ERROR(AppendRange(b, 0, b.FrameCount(), out.value().get()));
  return out;
}

Result<std::shared_ptr<RawVideoValue>> Dissolve(const VideoValue& a,
                                                const VideoValue& b,
                                                int64_t overlap) {
  AVDB_RETURN_IF_ERROR(CheckSameVideoFormat(a, b));
  if (overlap < 0 || overlap > a.FrameCount() || overlap > b.FrameCount()) {
    return Status::InvalidArgument("dissolve overlap out of bounds");
  }
  auto out = RawVideoValue::Create(RawTypeOf(a));
  if (!out.ok()) return out.status();
  // Head of a, untouched.
  AVDB_RETURN_IF_ERROR(
      AppendRange(a, 0, a.FrameCount() - overlap, out.value().get()));
  // Cross-fade region.
  for (int64_t i = 0; i < overlap; ++i) {
    auto frame_a = a.Frame(a.FrameCount() - overlap + i);
    if (!frame_a.ok()) return frame_a.status();
    auto frame_b = b.Frame(i);
    if (!frame_b.ok()) return frame_b.status();
    const double t = overlap == 1
                         ? 0.5
                         : static_cast<double>(i) / (overlap - 1);
    VideoFrame mixed(a.width(), a.height(), a.depth_bits());
    for (size_t p = 0; p < mixed.data().size(); ++p) {
      mixed.data()[p] = static_cast<uint8_t>(
          (1.0 - t) * frame_a.value().data()[p] +
          t * frame_b.value().data()[p]);
    }
    AVDB_RETURN_IF_ERROR(out.value()->AppendFrame(std::move(mixed)));
  }
  // Tail of b, untouched.
  AVDB_RETURN_IF_ERROR(
      AppendRange(b, overlap, b.FrameCount() - overlap, out.value().get()));
  return out;
}

Result<std::shared_ptr<RawVideoValue>> InsertClip(const VideoValue& base,
                                                  const VideoValue& clip,
                                                  int64_t at) {
  AVDB_RETURN_IF_ERROR(CheckSameVideoFormat(base, clip));
  if (at < 0 || at > base.FrameCount()) {
    return Status::InvalidArgument("insert position out of bounds");
  }
  auto out = RawVideoValue::Create(RawTypeOf(base));
  if (!out.ok()) return out.status();
  AVDB_RETURN_IF_ERROR(AppendRange(base, 0, at, out.value().get()));
  AVDB_RETURN_IF_ERROR(
      AppendRange(clip, 0, clip.FrameCount(), out.value().get()));
  AVDB_RETURN_IF_ERROR(AppendRange(base, at, base.FrameCount() - at,
                                   out.value().get()));
  return out;
}

Result<std::shared_ptr<RawAudioValue>> ExtractAudio(const AudioValue& audio,
                                                    int64_t first,
                                                    int64_t count) {
  auto block = audio.Samples(first, count);
  if (!block.ok()) return block.status();
  return RawAudioValue::FromBlock(
      MediaDataType::RawAudio(audio.channels(), audio.sample_rate()),
      std::move(block).value());
}

Result<std::shared_ptr<RawAudioValue>> ConcatenateAudio(const AudioValue& a,
                                                        const AudioValue& b) {
  AVDB_RETURN_IF_ERROR(CheckSameAudioFormat(a, b));
  auto out = RawAudioValue::Create(
      MediaDataType::RawAudio(a.channels(), a.sample_rate()));
  if (!out.ok()) return out.status();
  auto block_a = a.Samples(0, a.SampleCount());
  if (!block_a.ok()) return block_a.status();
  AVDB_RETURN_IF_ERROR(out.value()->Append(block_a.value()));
  auto block_b = b.Samples(0, b.SampleCount());
  if (!block_b.ok()) return block_b.status();
  AVDB_RETURN_IF_ERROR(out.value()->Append(block_b.value()));
  return out;
}

Result<std::shared_ptr<RawAudioValue>> MixAudio(const AudioValue& a,
                                                const AudioValue& b,
                                                double gain_a,
                                                double gain_b) {
  AVDB_RETURN_IF_ERROR(CheckSameAudioFormat(a, b));
  const int64_t frames = std::max(a.SampleCount(), b.SampleCount());
  const int channels = a.channels();
  AudioBlock mixed(channels, static_cast<int>(frames));
  auto block_a = a.Samples(0, a.SampleCount());
  if (!block_a.ok()) return block_a.status();
  auto block_b = b.Samples(0, b.SampleCount());
  if (!block_b.ok()) return block_b.status();
  for (int64_t f = 0; f < frames; ++f) {
    for (int c = 0; c < channels; ++c) {
      double sample = 0;
      if (f < a.SampleCount()) {
        sample += gain_a * block_a.value().At(static_cast<int>(f), c);
      }
      if (f < b.SampleCount()) {
        sample += gain_b * block_b.value().At(static_cast<int>(f), c);
      }
      if (sample > 32767) sample = 32767;
      if (sample < -32768) sample = -32768;
      mixed.Set(static_cast<int>(f), c, static_cast<int16_t>(sample));
    }
  }
  return RawAudioValue::FromBlock(
      MediaDataType::RawAudio(channels, a.sample_rate()), std::move(mixed));
}

}  // namespace media_ops
}  // namespace avdb
