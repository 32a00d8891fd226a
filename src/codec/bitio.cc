#include "codec/bitio.h"

#include "base/logging.h"

namespace avdb {

void BitWriter::WriteBits(uint64_t bits, int count) {
  AVDB_CHECK(count >= 0 && count <= 57) << "bit count out of range";
  if (count < 64) bits &= (uint64_t{1} << count) - 1;
  acc_ = (acc_ << count) | bits;
  acc_bits_ += count;
  total_bits_ += count;
  while (acc_bits_ >= 8) {
    acc_bits_ -= 8;
    out_.AppendU8(static_cast<uint8_t>((acc_ >> acc_bits_) & 0xFF));
  }
}

void BitWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    WriteBits(0x80 | (v & 0x7F), 8);
    v >>= 7;
  }
  WriteBits(v, 8);
}

void BitWriter::WriteSignedVarint(int64_t v) {
  const uint64_t zz =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  WriteVarint(zz);
}

Buffer BitWriter::Finish() {
  if (acc_bits_ > 0) {
    out_.AppendU8(static_cast<uint8_t>((acc_ << (8 - acc_bits_)) & 0xFF));
    acc_bits_ = 0;
    acc_ = 0;
  }
  return std::move(out_);
}

Result<uint64_t> BitReader::ReadBits(int count) {
  AVDB_CHECK(count >= 0 && count <= 57) << "bit count out of range";
  if (pos_bits_ + count > size_bits_) {
    return Status::DataLoss("bitstream underrun");
  }
  uint64_t v = 0;
  int need = count;
  while (need > 0) {
    const int64_t byte_index = pos_bits_ >> 3;
    const int bit_offset = static_cast<int>(pos_bits_ & 7);
    const int avail = 8 - bit_offset;
    const int take = need < avail ? need : avail;
    const uint8_t byte = data_[byte_index];
    const uint8_t chunk =
        static_cast<uint8_t>(byte >> (avail - take)) &
        static_cast<uint8_t>((1u << take) - 1);
    v = (v << take) | chunk;
    pos_bits_ += take;
    need -= take;
  }
  return v;
}

Result<uint64_t> BitReader::ReadVarintBits() {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    auto byte = ReadBits(8);
    if (!byte.ok()) return byte.status();
    v |= (byte.value() & 0x7F) << shift;
    if ((byte.value() & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::DataLoss("varint too long");
}

}  // namespace avdb
