#ifndef AVDB_CODEC_BLOCK_TRANSFORM_H_
#define AVDB_CODEC_BLOCK_TRANSFORM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "codec/bitio.h"
#include "codec/simd/kernels.h"

namespace avdb {

/// 8×8 transform-coding kernel shared by the intra, inter (residual) and
/// scalable codecs: DCT-II, quality-scaled quantization, zigzag scan and
/// run-length entropy coding. Works on int16 samples so it can code both
/// pixel blocks (0..255) and prediction residuals (-255..255).
///
/// The transform and quantizer run on the runtime-dispatched integer
/// kernels in codec/simd — fixed-point DCT, reciprocal-multiply
/// quantization — so every dispatch level produces byte-identical streams.
namespace block_transform {

inline constexpr int kBlockSize = 8;
inline constexpr int kBlockArea = kBlockSize * kBlockSize;

using Block = std::array<int16_t, kBlockArea>;
using CoeffBlock = std::array<int32_t, kBlockArea>;

/// Forward 8×8 DCT-II (fixed-point integer internals; see simd/kernels.h).
CoeffBlock ForwardDct(const Block& spatial);

/// Inverse 8×8 DCT-III (saturating int16 output).
Block InverseDct(const CoeffBlock& coeffs);

/// The precomputed step/reciprocal table for `quality` (clamped to
/// [1,100]); steps equal QuantStep(i, quality). Exposed for the kernel
/// identity tests and benchmarks.
const simd::QuantTable& QualityQuantTable(int quality);

/// Quantization step for coefficient position `index` (zigzag order) at
/// `quality` in [1,100]; JPEG-style luminance table scaled so quality 50 is
/// the base table, 100 is near-lossless.
int QuantStep(int index, int quality);

/// Quantizes in place (divide + round toward nearest).
void Quantize(CoeffBlock* coeffs, int quality);

/// Dequantizes in place (multiply).
void Dequantize(CoeffBlock* coeffs, int quality);

/// Entropy-codes a quantized block: zigzag scan, DC delta against
/// `*dc_predictor` (updated), then (run, level) pairs with an end-of-block
/// marker.
void EncodeBlock(const CoeffBlock& coeffs, int32_t* dc_predictor,
                 BitWriter* out);

/// Reverses EncodeBlock into `*coeffs` (every entry is written) and sets
/// `*nonzero` to whether any coefficient is non-zero. A symbol the encoder
/// cannot emit — an AC run that leaves the block, or a DC delta, DC
/// predictor or level outside int32 — is DataLoss, as is an underrun.
[[nodiscard]] Status DecodeBlock(int32_t* dc_predictor, BitReader* in,
                                 CoeffBlock* coeffs, bool* nonzero);

/// Splits a width×height int16 plane into 8×8 blocks (edge blocks padded by
/// replicating the last row/column), transforms, quantizes and entropy-codes
/// the whole plane. `plane` must hold width*height samples.
///
/// A non-null `recon` (width*height samples, caller-owned) receives the
/// decoder-exact reconstruction of the plane. Because the transform/quant
/// kernels are pure integer code, `recon` is bit-for-bit what
/// DecodePlaneInto would produce from the bits just written — predictive
/// coders use it to maintain their reference without re-encoding or
/// re-parsing the stream. `recon` may be `plane` itself: each block reads
/// only its own samples, before its reconstruction is written.
void EncodePlaneWithRecon(const int16_t* plane, int width, int height,
                          int quality, BitWriter* out, int16_t* recon);

/// Reverses EncodePlaneWithRecon into caller-owned storage of width*height
/// samples — the zero-allocation decode path. An all-zero block skips
/// dequantize and the IDCT: both map zero to exactly zero at every kernel
/// level.
[[nodiscard]] Status DecodePlaneInto(int width, int height, int quality,
                                     BitReader* in, int16_t* out);

/// Reverses EncodePlaneWithRecon; output plane is width×height.
Result<std::vector<int16_t>> DecodePlane(int width, int height, int quality,
                                         BitReader* in);

}  // namespace block_transform
}  // namespace avdb

#endif  // AVDB_CODEC_BLOCK_TRANSFORM_H_
