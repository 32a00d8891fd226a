#ifndef AVDB_MEDIA_VIDEO_VALUE_H_
#define AVDB_MEDIA_VIDEO_VALUE_H_

#include <memory>
#include <vector>

#include "media/frame.h"
#include "media/media_value.h"

namespace avdb {

/// Abstract video value — the paper's `VideoValue` subclass of `MediaValue`
/// with attributes width/height/depth/numFrame. Concrete subclasses differ
/// in representation (raw frames here; encoded representations live in
/// `src/codec/` as the paper's JPEG-/MPEG-/DVI-VideoValue analogues), and
/// "an application working with existing AV values can use the generic
/// VideoValue class" (§4.1).
class VideoValue : public MediaValue {
 public:
  int width() const { return type().width(); }
  int height() const { return type().height(); }
  int depth_bits() const { return type().depth_bits(); }
  int64_t FrameCount() const { return ElementCount(); }
  Rational frame_rate() const { return ElementRate(); }

  /// Decodes/fetches frame `index` (0-based). InvalidArgument when out of
  /// range; DataLoss when a stored representation fails to decode.
  virtual Result<VideoFrame> Frame(int64_t index) const = 0;

  /// Frame presented at world instant `t` (through the temporal transform).
  Result<VideoFrame> FrameAt(WorldTime t) const;

  /// Stored size in bytes (representation-dependent).
  virtual int64_t StoredBytes() const = 0;

  /// Stored bytes of frame `index` — what a streaming reader fetches from
  /// the device for that frame. Defaults to the uncompressed frame size;
  /// encoded representations override with their actual chunk sizes.
  virtual int64_t StoredFrameBytes(int64_t index) const {
    (void)index;
    return static_cast<int64_t>(width()) * height() * (depth_bits() / 8);
  }

 protected:
  explicit VideoValue(MediaDataType type) : MediaValue(std::move(type)) {}
};

using VideoValuePtr = std::shared_ptr<VideoValue>;

/// Uncompressed in-memory video: a plain sequence of frames. The reference
/// representation every codec round-trips against.
class RawVideoValue final : public VideoValue {
 public:
  /// Creates an empty value of the given geometry. `type` must be raw video.
  static Result<std::shared_ptr<RawVideoValue>> Create(MediaDataType type);

  /// Creates from existing frames; all frames must match the type's
  /// geometry (InvalidArgument otherwise).
  static Result<std::shared_ptr<RawVideoValue>> FromFrames(
      MediaDataType type, std::vector<VideoFrame> frames);

  int64_t ElementCount() const override {
    return static_cast<int64_t>(frames_.size());
  }
  Result<VideoFrame> Frame(int64_t index) const override;
  int64_t StoredBytes() const override;

  /// Appends a frame (must match geometry).
  Status AppendFrame(VideoFrame frame);

  /// Replaces frame `index` — the paper's example of a passive-state
  /// modification ("perhaps changing particular frames", §4.2).
  Status ReplaceFrame(int64_t index, VideoFrame frame);

  /// Removes frames [first, first+count).
  Status DeleteFrames(int64_t first, int64_t count);

  /// Inserts frames before `index`.
  Status InsertFrames(int64_t index, std::vector<VideoFrame> frames);

 private:
  explicit RawVideoValue(MediaDataType type) : VideoValue(std::move(type)) {}

  Status ValidateFrame(const VideoFrame& frame) const;

  std::vector<VideoFrame> frames_;
};

}  // namespace avdb

#endif  // AVDB_MEDIA_VIDEO_VALUE_H_
