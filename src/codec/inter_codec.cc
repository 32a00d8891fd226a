#include "codec/inter_codec.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "base/buffer_pool.h"
#include "base/logging.h"
#include "codec/bitio.h"
#include "codec/block_transform.h"
#include "codec/intra_codec.h"
#include "codec/simd/kernels.h"

namespace avdb {

namespace {

constexpr int kMacroblock = 16;
// Largest motion-vector component the encoder can emit (its search_range
// bound); a decoded vector beyond it is corrupt.
constexpr int kMaxMotion = 64;

struct MotionVector {
  int dx = 0;
  int dy = 0;
};

// The reference luma plane extended by `pad` samples on every side, each
// border sample replicating the nearest edge sample: padded sample (x, y)
// is the reference sample at (clamp(x, 0, w-1), clamp(y, 0, h-1)). With
// pad = search_range every candidate block the search can reach lies
// inside it, so no SAD needs a bounds test or a per-sample clamp.
struct PaddedPlane {
  const uint8_t* origin;  // sample (0, 0)
  ptrdiff_t stride;
};

PaddedPlane PadPlaneInto(const PlaneView& plane, int pad, uint8_t* out) {
  const int width = plane.width();
  const int height = plane.height();
  const ptrdiff_t stride = width + 2 * pad;
  for (int y = -pad; y < height + pad; ++y) {
    const uint8_t* src = plane.row(std::clamp(y, 0, height - 1));
    uint8_t* dst = out + (y + pad) * stride;
    std::memset(dst, src[0], static_cast<size_t>(pad));
    std::memcpy(dst + pad, src, static_cast<size_t>(width));
    std::memset(dst + pad + width, src[width - 1], static_cast<size_t>(pad));
  }
  return {out + pad * stride + pad, stride};
}

// Sum of absolute differences between the macroblock at (bx,by) in `cur`
// and the block displaced by (dx,dy) in the padded reference. A block 16
// samples wide is one kernel call; a block cut short by the right edge
// walks its samples.
int64_t MacroblockSad(const simd::CodecKernels& kernels, const PlaneView& cur,
                      const PaddedPlane& ref, int bx, int by, int bw, int bh,
                      int dx, int dy) {
  const uint8_t* a = cur.row(by) + bx;
  const uint8_t* b = ref.origin + (by + dy) * ref.stride + (bx + dx);
  if (bw == kMacroblock) {
    return kernels.sad16xh_u8(a, cur.width(), b, ref.stride, bh);
  }
  int64_t sad = 0;
  for (int y = 0; y < bh; ++y, a += cur.width(), b += ref.stride) {
    for (int x = 0; x < bw; ++x) sad += std::abs(a[x] - b[x]);
  }
  return sad;
}

// Three-step search: classic logarithmic motion estimation. Returns the
// best vector within ±range; `ref` must be padded by at least `range`.
MotionVector ThreeStepSearch(const simd::CodecKernels& kernels,
                             const PlaneView& cur, const PaddedPlane& ref,
                             int bx, int by, int range) {
  const int bw = std::min(kMacroblock, cur.width() - bx);
  const int bh = std::min(kMacroblock, cur.height() - by);
  MotionVector best;
  int64_t best_sad = MacroblockSad(kernels, cur, ref, bx, by, bw, bh, 0, 0);
  int step = range / 2;
  if (step < 1) step = 1;
  while (step >= 1) {
    MotionVector round_best = best;
    int64_t round_sad = best_sad;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const int cx = best.dx + dx * step;
        const int cy = best.dy + dy * step;
        if (std::abs(cx) > range || std::abs(cy) > range) continue;
        const int64_t sad =
            MacroblockSad(kernels, cur, ref, bx, by, bw, bh, cx, cy);
        if (sad < round_sad) {
          round_sad = sad;
          round_best = {cx, cy};
        }
      }
    }
    best = round_best;
    best_sad = round_sad;
    step /= 2;
  }
  return best;
}

// Builds the motion-compensated prediction of a whole plane from `ref`
// given per-macroblock vectors, into caller-owned (pooled) storage of
// width×height bytes. Macroblocks whose displaced source sits fully inside
// the frame copy row-wise; an edge macroblock clamps each source row once
// and fills it as (replicated first sample | copied span | replicated last
// sample), which is the per-pixel edge clamp evaluated a row at a time.
void PredictPlaneInto(const PlaneView& ref,
                      const std::vector<MotionVector>& mvs, int mb_cols,
                      uint8_t* out) {
  const int width = ref.width();
  const int height = ref.height();
  const int mb_rows = (height + kMacroblock - 1) / kMacroblock;
  for (int my = 0; my < mb_rows; ++my) {
    const int by = my * kMacroblock;
    const int bh = std::min(kMacroblock, height - by);
    for (int mx = 0; mx < mb_cols; ++mx) {
      const int bx = mx * kMacroblock;
      const int bw = std::min(kMacroblock, width - bx);
      const MotionVector& mv = mvs[static_cast<size_t>(my) * mb_cols + mx];
      if (bx + mv.dx >= 0 && bx + mv.dx + bw <= width && by + mv.dy >= 0 &&
          by + mv.dy + bh <= height) {
        for (int y = 0; y < bh; ++y) {
          uint8_t* dst = out + static_cast<size_t>(by + y) * width + bx;
          const uint8_t* src = ref.row(by + y + mv.dy) + (bx + mv.dx);
          if (bw == kMacroblock) {
            std::memcpy(dst, src, kMacroblock);  // a constant-size move
          } else {
            std::memcpy(dst, src, static_cast<size_t>(bw));
          }
        }
      } else {
        const int sx = bx + mv.dx;  // source column of dst[0]
        const int left = std::clamp(-sx, 0, bw);
        const int right = std::clamp(width - sx, left, bw);
        for (int y = 0; y < bh; ++y) {
          const uint8_t* src =
              ref.row(std::clamp(by + y + mv.dy, 0, height - 1));
          uint8_t* dst = out + static_cast<size_t>(by + y) * width + bx;
          std::memset(dst, src[0], static_cast<size_t>(left));
          if (right > left) {
            std::memcpy(dst + left, src + (sx + left),
                        static_cast<size_t>(right - left));
          }
          std::memset(dst + right, src[width - 1],
                      static_cast<size_t>(bw - right));
        }
      }
    }
  }
}

// Encodes a P-frame: motion vectors from plane 0, shared across planes;
// residuals transform-coded per plane. Returns the encoded bits and the
// reconstructed frame (which becomes the next reference). All plane data
// moves through zero-copy views and pooled scratch; the reference frame's
// reconstruction comes straight out of EncodePlaneWithRecon, so nothing is
// re-encoded or re-parsed.
Buffer EncodePFrame(const VideoFrame& cur, const VideoFrame& recon_ref,
                    int quality, int search_range, VideoFrame* recon_out) {
  const simd::CodecKernels& kernels = simd::ActiveKernels();
  BufferPool& pool = BufferPool::Shared();
  const int width = cur.width();
  const int height = cur.height();
  const size_t pixels = cur.plane_size();
  const int mb_cols = (width + kMacroblock - 1) / kMacroblock;
  const int mb_rows = (height + kMacroblock - 1) / kMacroblock;

  // The motion search reads the current luma in place and the reference
  // luma through a pooled copy padded by the search range.
  const PlaneView cur_luma = cur.plane(0);
  std::vector<MotionVector> mvs;
  mvs.reserve(static_cast<size_t>(mb_cols) * mb_rows);
  {
    BufferPool::BytesLease padded(
        &pool, static_cast<size_t>(width + 2 * search_range) *
                   (height + 2 * search_range));
    const PaddedPlane ref_luma =
        PadPlaneInto(recon_ref.plane(0), search_range, padded->data());
    for (int my = 0; my < mb_rows; ++my) {
      for (int mx = 0; mx < mb_cols; ++mx) {
        mvs.push_back(ThreeStepSearch(kernels, cur_luma, ref_luma,
                                      mx * kMacroblock, my * kMacroblock,
                                      search_range));
      }
    }
  }

  // Not pooled: the finished buffer escapes into the EncodedVideo result
  // and is owned by the caller, so its storage never comes back to the
  // pool. Leasing it would bleed pool capacity every frame.
  BitWriter writer;
  for (const auto& mv : mvs) {
    writer.WriteSignedVarint(mv.dx);
    writer.WriteSignedVarint(mv.dy);
  }

  *recon_out = VideoFrame(width, height, cur.depth_bits());
  BufferPool::BytesLease pred(&pool, pixels);
  BufferPool::I16Lease residual(&pool, pixels);
  BufferPool::I16Lease recon_res(&pool, pixels);
  for (int p = 0; p < cur.plane_count(); ++p) {
    const PlaneView cur_plane = cur.plane(p);
    const PlaneView ref_plane = recon_ref.plane(p);
    PredictPlaneInto(ref_plane, mvs, mb_cols, pred->data());
    kernels.residual_u8(cur_plane.data(), pred->data(), residual->data(),
                        pixels);
    block_transform::EncodePlaneWithRecon(residual->data(), width, height,
                                          quality, &writer,
                                          recon_res->data());
    const PlaneSpan recon_plane = recon_out->plane_span(p);
    kernels.reconstruct_u8(pred->data(), recon_res->data(),
                           recon_plane.data(), pixels);
  }
  return writer.Finish();
}

// Decodes a P-frame given the previously reconstructed reference.
Result<VideoFrame> DecodePFrame(const Buffer& data,
                                const VideoFrame& recon_ref, int quality) {
  const simd::CodecKernels& kernels = simd::ActiveKernels();
  BufferPool& pool = BufferPool::Shared();
  const int width = recon_ref.width();
  const int height = recon_ref.height();
  const size_t pixels = recon_ref.plane_size();
  const int mb_cols = (width + kMacroblock - 1) / kMacroblock;
  const int mb_rows = (height + kMacroblock - 1) / kMacroblock;

  BitReader reader(data);
  std::vector<MotionVector> mvs(static_cast<size_t>(mb_cols) * mb_rows);
  for (auto& mv : mvs) {
    auto dx = reader.ReadSignedVarint();
    if (!dx.ok()) return dx.status();
    auto dy = reader.ReadSignedVarint();
    if (!dy.ok()) return dy.status();
    if (dx.value() < -kMaxMotion || dx.value() > kMaxMotion ||
        dy.value() < -kMaxMotion || dy.value() > kMaxMotion) {
      return Status::DataLoss("motion vector out of range");
    }
    mv.dx = static_cast<int>(dx.value());
    mv.dy = static_cast<int>(dy.value());
  }

  VideoFrame out(width, height, recon_ref.depth_bits());
  BufferPool::BytesLease pred(&pool, pixels);
  BufferPool::I16Lease residual(&pool, pixels);
  for (int p = 0; p < recon_ref.plane_count(); ++p) {
    const PlaneView ref_plane = recon_ref.plane(p);
    PredictPlaneInto(ref_plane, mvs, mb_cols, pred->data());
    AVDB_RETURN_IF_ERROR(block_transform::DecodePlaneInto(
        width, height, quality, &reader, residual->data()));
    const PlaneSpan out_plane = out.plane_span(p);
    kernels.reconstruct_u8(pred->data(), residual->data(), out_plane.data(),
                           pixels);
  }
  return out;
}

/// Sequential decoder holding the reconstructed reference frame. Random
/// access re-enters at the nearest preceding I-frame and decodes forward.
class InterDecoderSession final : public VideoDecoderSession {
 public:
  explicit InterDecoderSession(const EncodedVideo& video) : video_(video) {}

  Result<VideoFrame> DecodeFrame(int64_t index) override {
    if (index < 0 || index >= static_cast<int64_t>(video_.frames.size())) {
      return Status::InvalidArgument("frame index out of range");
    }
    if (index != next_index_) {
      // Seek: if moving forward within the current GOP we can decode
      // through; otherwise re-enter at the access point.
      const bool can_roll_forward =
          next_index_ >= 0 && index > next_index_ - 1 && have_ref_;
      auto access = video_.AccessPointBefore(index);
      if (!access.ok()) return access.status();
      if (!can_roll_forward || access.value() >= next_index_) {
        next_index_ = access.value();
        have_ref_ = false;
      }
    }
    VideoFrame frame;
    while (next_index_ <= index) {
      auto decoded = DecodeNext();
      if (!decoded.ok()) return decoded.status();
      frame = std::move(decoded).value();
    }
    return frame;
  }

  int64_t FramesDecodedInternally() const override { return decoded_; }

 private:
  Result<VideoFrame> DecodeNext() {
    const auto& ef = video_.frames[static_cast<size_t>(next_index_)];
    const auto& t = video_.raw_type;
    Result<VideoFrame> frame = Status::Internal("unreachable");
    if (ef.is_intra) {
      frame = IntraCodec::DecodeFrame(ef.data, t.width(), t.height(),
                                      t.depth_bits(), video_.params.quality);
    } else {
      if (!have_ref_) {
        return Status::DataLoss("P-frame without reference at frame " +
                                std::to_string(next_index_));
      }
      frame = DecodePFrame(ef.data, ref_, video_.params.quality);
    }
    if (!frame.ok()) return frame.status();
    ref_ = frame.value();
    have_ref_ = true;
    ++next_index_;
    ++decoded_;
    return frame;
  }

  const EncodedVideo video_;
  VideoFrame ref_;
  bool have_ref_ = false;
  int64_t next_index_ = 0;
  int64_t decoded_ = 0;
};

}  // namespace

Result<EncodedVideo> InterCodec::Encode(const VideoValue& value,
                                        const VideoCodecParams& params) const {
  if (value.type().IsCompressed()) {
    return Status::InvalidArgument("encoder input must be raw video");
  }
  if (params.gop_size < 1) {
    return Status::InvalidArgument("gop_size must be >= 1");
  }
  if (params.search_range < 1 || params.search_range > kMaxMotion) {
    return Status::InvalidArgument("search_range must be in [1, 64]");
  }
  EncodedVideo out;
  out.raw_type = value.type();
  out.family = family();
  out.params = params;
  const int64_t n = value.FrameCount();
  out.frames.reserve(static_cast<size_t>(n));

  // Every GOP opens with an I-frame (the access point); the rest are
  // P-chained off the running reconstruction, which starts afresh at each
  // I-frame the way the decoder sees it.
  VideoFrame recon;
  for (int64_t i = 0; i < n; ++i) {
    AVDB_ASSIGN_OR_RETURN(VideoFrame frame, value.Frame(i));
    EncodedFrame ef;
    if (i % params.gop_size == 0) {
      ef.is_intra = true;
      ef.data = IntraCodec::EncodeFrame(frame, params.quality, &recon);
    } else {
      ef.is_intra = false;
      VideoFrame new_recon;
      ef.data = EncodePFrame(frame, recon, params.quality,
                             params.search_range, &new_recon);
      recon = std::move(new_recon);
    }
    out.frames.push_back(std::move(ef));
  }
  return out;
}

Result<std::unique_ptr<VideoDecoderSession>> InterCodec::NewDecoder(
    const EncodedVideo& video) const {
  if (video.family != EncodingFamily::kInter) {
    return Status::InvalidArgument("stream is not inter-coded");
  }
  return std::unique_ptr<VideoDecoderSession>(new InterDecoderSession(video));
}

}  // namespace avdb
