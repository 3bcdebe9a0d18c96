// Byte-oriented serialization for event payloads and kernel arguments.
//
// Everything that crosses a minimpi message boundary is flattened through
// ArchiveWriter/ArchiveReader: trivially-copyable values, strings, vectors
// and nested blobs. The format is native-endian (messages never leave the
// process) but the reader bounds-checks every read so a malformed payload
// fails loudly instead of corrupting a remote rank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace ompc {

using Bytes = std::vector<std::byte>;

/// Appends values to a growing byte buffer.
class ArchiveWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buf_.insert(buf_.end(), p, p + s.size());
  }

  void put_blob(std::span<const std::byte> blob) {
    put<std::uint64_t>(blob.size());
    buf_.insert(buf_.end(), blob.begin(), blob.end());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put<std::uint64_t>(v.size());
    const auto* p = reinterpret_cast<const std::byte*>(v.data());
    buf_.insert(buf_.end(), p, p + v.size() * sizeof(T));
  }

  /// Appends raw bytes with no length prefix (caller knows the size).
  void put_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads values back in the order they were written; every read is
/// bounds-checked against the underlying span.
class ArchiveReader {
 public:
  explicit ArchiveReader(std::span<const std::byte> data) : data_(data) {}

  /// A reader refers to the buffer, it does not own it: constructing one
  /// over a temporary would dangle by the next statement.
  explicit ArchiveReader(Bytes&&) = delete;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T out;
    OMPC_CHECK_MSG(pos_ + sizeof(T) <= data_.size(),
                   "archive underflow reading " << sizeof(T) << " bytes at "
                                                << pos_ << '/' << data_.size());
    std::memcpy(&out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return out;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    OMPC_CHECK(pos_ + n <= data_.size());
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  Bytes get_blob() {
    const auto n = get<std::uint64_t>();
    OMPC_CHECK(pos_ + n <= data_.size());
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint64_t>();
    OMPC_CHECK(pos_ + n * sizeof(T) <= data_.size());
    std::vector<T> v(n);
    // An empty vector's data() may be null: memcpy(nullptr, ..., 0) is UB.
    if (n != 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  void get_raw(void* out, std::size_t n) {
    OMPC_CHECK(pos_ + n <= data_.size());
    if (n != 0) std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace ompc
