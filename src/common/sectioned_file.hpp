// Versioned binary container with per-section and whole-file CRC32.
//
// Layout (all integers little-endian host order):
//   magic[8]
//   u32 section_count
//   per section: u32 name_len | name bytes | u64 payload_size | u32 payload_crc
//                | payload bytes
//   u32 file_crc              — CRC32 of every byte above it
//
// The reader loads the whole file into memory and validates, in order:
// magic, structural bounds on every field, each section's CRC, exact
// exhaustion of the buffer, and the trailing whole-file CRC. Any truncation
// or single-bit flip therefore raises ganopc::Error naming the bad section
// (or the header / file CRC) — corrupt state can never parse as data.
// Writes go through atomic_write_file, so a crash mid-save never clobbers a
// previously-good file.
//
// This container backs the GOPCNET2 weights and trainer checkpoints
// (nn/serialize, core/checkpoint), the GOPCDST2 dataset cache
// (core/dataset) and the GOPCBAT1 batch journal (engine/batch_runner).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ganopc {

/// Append-only byte buffer with POD / length-prefixed-string helpers.
class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof(T));
  }

  void bytes(const void* data, std::size_t size);

  /// u32 length + raw bytes.
  void str(const std::string& s);

  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over a byte range. Every read validates the
/// remaining size and throws ganopc::Error naming `context` on underrun, so
/// a truncated or frame-shifted buffer fails at the first bad field instead
/// of yielding zero-filled data.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size, std::string context);

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof(T));
    return v;
  }

  void bytes(void* out, std::size_t size);

  /// Reads a u32-length-prefixed string, rejecting lengths above `max_len`.
  std::string str(std::size_t max_len = 4096);

  std::size_t remaining() const { return size_ - pos_; }

  /// Throws if unread bytes remain (detects frame shifts / trailing junk).
  void expect_exhausted() const;

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// Accumulates named sections, then writes the container atomically.
class SectionedFileWriter {
 public:
  /// `magic` must be exactly 8 bytes.
  explicit SectionedFileWriter(std::string magic);

  /// The byte buffer for `name` (created on first use, appended after).
  ByteWriter& section(const std::string& name);

  /// Serialize and atomically replace `path`.
  void write(const std::string& path) const;

 private:
  std::string magic_;
  std::vector<std::pair<std::string, ByteWriter>> sections_;
};

/// Loads and fully validates a container; sections are then read by name.
class SectionedFileReader {
 public:
  SectionedFileReader(const std::string& path, const std::string& magic);

  bool has(const std::string& name) const;

  /// Bounds-checked reader over the (already CRC-verified) payload.
  ByteReader open(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  std::string path_;
  std::string data_;
  std::vector<Entry> entries_;
};

}  // namespace ganopc
