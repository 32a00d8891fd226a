#include "media/video_value.h"

namespace avdb {

Result<VideoFrame> VideoValue::FrameAt(WorldTime t) const {
  auto o = WorldToObject(t);
  if (!o.ok()) return o.status();
  return Frame(o.value().ticks());
}

Result<std::shared_ptr<RawVideoValue>> RawVideoValue::Create(
    MediaDataType type) {
  if (type.kind() != MediaKind::kVideo) {
    return Status::InvalidArgument("RawVideoValue requires a video type");
  }
  if (type.IsCompressed()) {
    return Status::InvalidArgument("RawVideoValue requires a raw type");
  }
  return std::shared_ptr<RawVideoValue>(new RawVideoValue(std::move(type)));
}

Result<std::shared_ptr<RawVideoValue>> RawVideoValue::FromFrames(
    MediaDataType type, std::vector<VideoFrame> frames) {
  auto value = Create(std::move(type));
  if (!value.ok()) return value.status();
  for (auto& f : frames) {
    AVDB_RETURN_IF_ERROR(value.value()->AppendFrame(std::move(f)));
  }
  return value;
}

Status RawVideoValue::ValidateFrame(const VideoFrame& frame) const {
  if (frame.width() != width() || frame.height() != height() ||
      frame.depth_bits() != depth_bits()) {
    return Status::InvalidArgument(
        "frame geometry does not match video value type");
  }
  return Status::OK();
}

Result<VideoFrame> RawVideoValue::Frame(int64_t index) const {
  if (index < 0 || index >= ElementCount()) {
    return Status::InvalidArgument("frame index out of range");
  }
  return frames_[static_cast<size_t>(index)];
}

int64_t RawVideoValue::StoredBytes() const {
  int64_t total = 0;
  for (const auto& f : frames_) total += static_cast<int64_t>(f.SizeBytes());
  return total;
}

Status RawVideoValue::AppendFrame(VideoFrame frame) {
  AVDB_RETURN_IF_ERROR(ValidateFrame(frame));
  frames_.push_back(std::move(frame));
  return Status::OK();
}

Status RawVideoValue::ReplaceFrame(int64_t index, VideoFrame frame) {
  if (index < 0 || index >= ElementCount()) {
    return Status::InvalidArgument("frame index out of range");
  }
  AVDB_RETURN_IF_ERROR(ValidateFrame(frame));
  frames_[static_cast<size_t>(index)] = std::move(frame);
  return Status::OK();
}

Status RawVideoValue::DeleteFrames(int64_t first, int64_t count) {
  if (first < 0 || count < 0 || first + count > ElementCount()) {
    return Status::InvalidArgument("frame range out of bounds");
  }
  frames_.erase(frames_.begin() + first, frames_.begin() + first + count);
  return Status::OK();
}

Status RawVideoValue::InsertFrames(int64_t index,
                                   std::vector<VideoFrame> frames) {
  if (index < 0 || index > ElementCount()) {
    return Status::InvalidArgument("insert position out of bounds");
  }
  for (const auto& f : frames) AVDB_RETURN_IF_ERROR(ValidateFrame(f));
  frames_.insert(frames_.begin() + index,
                 std::make_move_iterator(frames.begin()),
                 std::make_move_iterator(frames.end()));
  return Status::OK();
}

}  // namespace avdb
