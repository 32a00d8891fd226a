#include "codec/intra_codec.h"

#include "base/buffer_pool.h"
#include "codec/bitio.h"
#include "codec/block_transform.h"
#include "codec/simd/kernels.h"

namespace avdb {

namespace {

/// Decoder over independently coded frames: random access needs no
/// inter-frame state.
class IntraDecoderSession final : public VideoDecoderSession {
 public:
  explicit IntraDecoderSession(const EncodedVideo& video) : video_(video) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    ++decoded_;
    const auto& t = video_.raw_type;
    return IntraCodec::DecodeFrame(video_.frames[index].data, t.width(),
                                   t.height(), t.depth_bits(),
                                   video_.params.quality);
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  const EncodedVideo video_;
  int64_t decoded_ = 0;
};

/// Entropy-codes one colour plane into its own byte-aligned buffer and, if
/// `recon` is non-null, writes the decoder-exact plane into its plane `p`.
/// The plane is read in place through a zero-copy view; the centered scratch
/// (which the reconstruction overwrites in place) and the output backing
/// store are pooled, so a warm encode allocates nothing.
Buffer EncodePlaneBits(const VideoFrame& frame, int p, int quality,
                       VideoFrame* recon) {
  BufferPool& pool = BufferPool::Shared();
  const simd::CodecKernels& kernels = simd::ActiveKernels();
  const PlaneView plane = frame.plane(p);
  BufferPool::I16Lease centered(&pool, plane.size());
  kernels.u8_to_i16_center(plane.data(), centered->data(), plane.size());
  BitWriter writer(pool.AcquireBuffer(plane.size() / 2));
  block_transform::EncodePlaneWithRecon(
      centered->data(), frame.width(), frame.height(), quality, &writer,
      recon != nullptr ? centered->data() : nullptr);
  if (recon != nullptr) {
    const PlaneSpan out = recon->plane_span(p);
    kernels.i16_center_to_u8(centered->data(), out.data(), out.size());
  }
  return writer.Finish();
}

/// Decodes one plane sub-stream straight into `frame`'s plane `p`.
Status DecodePlaneBits(const uint8_t* bits, size_t size, int p, int quality,
                       VideoFrame* frame) {
  BitReader reader(bits, size);
  BufferPool& pool = BufferPool::Shared();
  BufferPool::I16Lease centered(&pool, frame->plane_size());
  AVDB_RETURN_IF_ERROR(block_transform::DecodePlaneInto(
      frame->width(), frame->height(), quality, &reader, centered->data()));
  const PlaneSpan out = frame->plane_span(p);
  simd::ActiveKernels().i16_center_to_u8(centered->data(), out.data(),
                                         out.size());
  return Status::OK();
}

}  // namespace

Buffer IntraCodec::EncodeFrame(const VideoFrame& frame, int quality,
                               VideoFrame* recon) {
  if (recon != nullptr) {
    *recon = VideoFrame(frame.width(), frame.height(), frame.depth_bits());
  }
  const int planes = frame.plane_count();
  std::vector<Buffer> plane_bits;
  plane_bits.reserve(static_cast<size_t>(planes));
  for (int p = 0; p < planes; ++p) {
    plane_bits.push_back(EncodePlaneBits(frame, p, quality, recon));
  }
  Buffer out;
  size_t total = 0;
  for (const Buffer& b : plane_bits) total += b.size() + 4;
  out.Reserve(total);
  for (Buffer& b : plane_bits) {
    out.AppendU32(static_cast<uint32_t>(b.size()));
    out.AppendBuffer(b);
    BufferPool::Shared().Release(std::move(b));  // pooled by EncodePlaneBits
  }
  return out;
}

Result<VideoFrame> IntraCodec::DecodeFrame(const Buffer& data, int width,
                                           int height, int depth_bits,
                                           int quality) {
  VideoFrame frame(width, height, depth_bits);
  BufferReader reader(data);
  for (int p = 0; p < frame.plane_count(); ++p) {
    auto size = reader.ReadU32();
    if (!size.ok()) return size.status();
    const size_t offset = reader.position();
    AVDB_RETURN_IF_ERROR(reader.Skip(size.value()));
    AVDB_RETURN_IF_ERROR(DecodePlaneBits(data.data() + offset, size.value(),
                                         p, quality, &frame));
  }
  return frame;
}

Result<EncodedVideo> IntraCodec::Encode(const VideoValue& value,
                                        const VideoCodecParams& params) const {
  if (value.type().IsCompressed()) {
    return Status::InvalidArgument("encoder input must be raw video");
  }
  EncodedVideo out;
  out.raw_type = value.type();
  out.family = family();
  out.params = params;
  const int64_t n = value.FrameCount();
  out.frames.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    auto frame = value.Frame(i);
    if (!frame.ok()) return frame.status();
    EncodedFrame ef;
    ef.is_intra = true;
    ef.data = EncodeFrame(frame.value(), params.quality);
    out.frames.push_back(std::move(ef));
  }
  return out;
}

Result<std::unique_ptr<VideoDecoderSession>> IntraCodec::NewDecoder(
    const EncodedVideo& video) const {
  if (video.family != EncodingFamily::kIntra) {
    return Status::InvalidArgument("stream is not intra-coded");
  }
  return std::unique_ptr<VideoDecoderSession>(
      new IntraDecoderSession(video));
}

}  // namespace avdb
