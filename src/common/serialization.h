#ifndef SAGA_COMMON_SERIALIZATION_H_
#define SAGA_COMMON_SERIALIZATION_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace saga {

/// Appends little-endian / varint-encoded primitives to a byte buffer.
/// The encoding is the on-disk format for the KV store, WAL, embedding
/// files, and KG snapshots, so it must stay stable.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::string* out) : out_(out) {}

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutVarint64(uint64_t v);
  /// ZigZag-encoded signed varint.
  void PutVarint64Signed(int64_t v);
  void PutFloat(float v);
  void PutDouble(double v);
  /// Varint length prefix followed by raw bytes.
  void PutString(std::string_view s);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutFloatVector(const std::vector<float>& v);

 private:
  std::string* out_;
};

/// Reads values written by BinaryWriter. All getters return
/// Status::Corruption on truncated or malformed input.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  Status GetU8(uint8_t* v);
  Status GetFixed32(uint32_t* v);
  Status GetFixed64(uint64_t* v);
  Status GetVarint64(uint64_t* v);
  Status GetVarint64Signed(int64_t* v);
  Status GetFloat(float* v);
  Status GetDouble(double* v);
  Status GetString(std::string* s);
  /// GetString without the copy: `*s` views the reader's buffer.
  Status GetStringView(std::string_view* s);
  Status GetBool(bool* v);
  Status GetFloatVector(std::vector<float>* v);

  /// Advances past n bytes without decoding them.
  Status Skip(size_t n);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace saga

#endif  // SAGA_COMMON_SERIALIZATION_H_
