#ifndef AVDB_CODEC_ENCODED_VALUE_H_
#define AVDB_CODEC_ENCODED_VALUE_H_

#include <memory>

#include "codec/audio_codec.h"
#include "codec/video_codec.h"
#include "media/audio_value.h"
#include "media/video_value.h"

namespace avdb {

/// A `VideoValue` whose representation is an encoded stream — the concrete
/// analogue of the paper's `JPEG_VideoValue` / `MPEG_VideoValue` /
/// `DVI_VideoValue` subclasses (§4.1). Applications use it through the
/// generic `VideoValue` interface and stay "screened from underlying
/// differences in representation"; `Frame(i)` decodes on demand through a
/// cached decoder session (so sequential access is cheap even for
/// predictive streams).
class EncodedVideoValue final : public VideoValue {
 public:
  /// Wraps an encoded stream; the codec must match the stream family.
  static Result<std::shared_ptr<EncodedVideoValue>> Create(
      std::shared_ptr<const VideoCodec> codec, EncodedVideo video);

  int64_t ElementCount() const override {
    return static_cast<int64_t>(video_.frames.size());
  }
  Result<VideoFrame> Frame(int64_t index) const override;
  int64_t StoredBytes() const override { return video_.TotalBytes(); }
  int64_t StoredFrameBytes(int64_t index) const override {
    if (index < 0 || index >= ElementCount()) return 0;
    return video_.frames[static_cast<size_t>(index)].SizeBytes();
  }

  const EncodedVideo& encoded() const { return video_; }
  const VideoCodec& codec() const { return *codec_; }

  /// Frames the internal session has decoded (exposes GOP seek cost).
  int64_t FramesDecodedInternally() const;

  std::string Describe() const override;

 private:
  EncodedVideoValue(MediaDataType decoded_type,
                    std::shared_ptr<const VideoCodec> codec,
                    EncodedVideo video)
      : VideoValue(std::move(decoded_type)),
        codec_(std::move(codec)),
        video_(std::move(video)) {}

  std::shared_ptr<const VideoCodec> codec_;
  EncodedVideo video_;
  mutable std::unique_ptr<VideoDecoderSession> session_;
};

/// An `AudioValue` stored as an encoded stream; decodes chunks on demand.
class EncodedAudioValue final : public AudioValue {
 public:
  static Result<std::shared_ptr<EncodedAudioValue>> Create(
      std::shared_ptr<const AudioCodec> codec, EncodedAudio audio);

  int64_t ElementCount() const override { return audio_.total_frames; }
  Result<AudioBlock> Samples(int64_t first, int64_t count) const override;
  int64_t StoredBytes() const override { return audio_.TotalBytes(); }

  const EncodedAudio& encoded() const { return audio_; }

  std::string Describe() const override;

 private:
  EncodedAudioValue(MediaDataType decoded_type,
                    std::shared_ptr<const AudioCodec> codec,
                    EncodedAudio audio)
      : AudioValue(std::move(decoded_type)),
        codec_(std::move(codec)),
        audio_(std::move(audio)) {}

  std::shared_ptr<const AudioCodec> codec_;
  EncodedAudio audio_;
};

}  // namespace avdb

#endif  // AVDB_CODEC_ENCODED_VALUE_H_
