#ifndef AVDB_CODEC_BITIO_H_
#define AVDB_CODEC_BITIO_H_

#include <cstdint>

#include "base/buffer.h"
#include "base/result.h"

namespace avdb {

/// MSB-first bit writer over a Buffer. The entropy-coding layer of every
/// codec in `src/codec/` writes through this.
class BitWriter {
 public:
  BitWriter() = default;

  /// Writer over a caller-supplied backing store (typically leased from
  /// BufferPool::AcquireBuffer): contents are discarded, capacity is
  /// reused, and Finish() hands the same storage back — so warm encode
  /// paths append without touching the heap.
  explicit BitWriter(Buffer backing) : out_(std::move(backing)) {
    out_.Clear();
  }

  /// Appends the low `count` bits of `bits` (MSB first). count in [0, 57].
  void WriteBits(uint64_t bits, int count);

  /// Unsigned LEB128-style varint (7 bits per group).
  void WriteVarint(uint64_t v);

  /// Signed value via zigzag mapping then varint.
  void WriteSignedVarint(int64_t v);

  /// Pads to a byte boundary with zero bits and returns the buffer.
  Buffer Finish();

  /// Bits written so far (before padding).
  int64_t BitCount() const { return total_bits_; }

 private:
  Buffer out_;
  uint64_t acc_ = 0;
  int acc_bits_ = 0;
  int64_t total_bits_ = 0;
};

/// MSB-first bit reader; all reads fail with DataLoss past the end, so a
/// truncated stored chunk surfaces as a Status, never as UB.
class BitReader {
 public:
  explicit BitReader(const Buffer& buffer)
      : data_(buffer.data()), size_bits_(static_cast<int64_t>(buffer.size()) * 8) {}
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(static_cast<int64_t>(size_bytes) * 8) {}

  /// Reads `count` bits (MSB first). count in [0, 57].
  Result<uint64_t> ReadBits(int count);

  /// Unsigned varint. Every symbol the codecs write is a whole 8-bit group,
  /// so the cursor is normally byte-aligned and the groups are read as
  /// bytes in place; an unaligned cursor, an underrun or a varint of more
  /// than 10 groups takes the bit-serial path, which yields DataLoss.
  Result<uint64_t> ReadVarint() {
    if ((pos_bits_ & 7) == 0) {
      const int64_t end = size_bits_ >> 3;
      int64_t pos = pos_bits_ >> 3;
      uint64_t v = 0;
      for (int shift = 0; shift < 70 && pos < end; shift += 7) {
        const uint8_t byte = data_[pos++];
        v |= static_cast<uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) {
          pos_bits_ = pos << 3;
          return v;
        }
      }
    }
    return ReadVarintBits();
  }

  Result<int64_t> ReadSignedVarint() {
    auto zz = ReadVarint();
    if (!zz.ok()) return zz.status();
    const uint64_t v = zz.value();
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  int64_t BitsRemaining() const { return size_bits_ - pos_bits_; }

 private:
  Result<uint64_t> ReadVarintBits();

  const uint8_t* data_;
  int64_t size_bits_;
  int64_t pos_bits_ = 0;
};

}  // namespace avdb

#endif  // AVDB_CODEC_BITIO_H_
