#include "common/sectioned_file.hpp"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace ganopc {

namespace {
constexpr std::size_t kMagicLen = 8;
constexpr std::uint32_t kMaxSections = 1024;
constexpr std::size_t kMaxSectionName = 256;
}  // namespace

// ---- ByteWriter ----

void ByteWriter::bytes(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void ByteWriter::str(const std::string& s) {
  GANOPC_CHECK_MSG(s.size() <= 0xFFFFFFFFu, "string too long to serialize");
  pod(static_cast<std::uint32_t>(s.size()));
  bytes(s.data(), s.size());
}

// ---- ByteReader ----

ByteReader::ByteReader(const void* data, std::size_t size, std::string context)
    : data_(static_cast<const unsigned char*>(data)),
      size_(size),
      context_(std::move(context)) {}

void ByteReader::bytes(void* out, std::size_t size) {
  GANOPC_CHECK_MSG(size <= size_ - pos_, "corrupt " << context_ << ": need " << size
                                                    << " bytes at offset " << pos_
                                                    << ", only " << (size_ - pos_)
                                                    << " remain");
  std::memcpy(out, data_ + pos_, size);
  pos_ += size;
}

std::string ByteReader::str(std::size_t max_len) {
  const auto len = pod<std::uint32_t>();
  GANOPC_CHECK_MSG(len <= max_len, "corrupt " << context_ << ": string length " << len
                                              << " exceeds limit " << max_len);
  std::string s(len, '\0');
  bytes(s.data(), len);
  return s;
}

void ByteReader::expect_exhausted() const {
  GANOPC_CHECK_MSG(pos_ == size_, "corrupt " << context_ << ": " << (size_ - pos_)
                                             << " unread trailing bytes");
}

// ---- SectionedFileWriter ----

SectionedFileWriter::SectionedFileWriter(std::string magic) : magic_(std::move(magic)) {
  GANOPC_CHECK_MSG(magic_.size() == kMagicLen, "section container magic must be 8 bytes");
}

ByteWriter& SectionedFileWriter::section(const std::string& name) {
  GANOPC_CHECK_MSG(!name.empty() && name.size() <= kMaxSectionName,
                   "bad section name '" << name << "'");
  for (auto& [n, w] : sections_)
    if (n == name) return w;
  GANOPC_CHECK_MSG(sections_.size() < kMaxSections, "too many sections");
  sections_.emplace_back(name, ByteWriter{});
  return sections_.back().second;
}

void SectionedFileWriter::write(const std::string& path) const {
  ByteWriter body;
  body.bytes(magic_.data(), magic_.size());
  body.pod(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, w] : sections_) {
    body.str(name);
    const std::string& payload = w.buffer();
    body.pod(static_cast<std::uint64_t>(payload.size()));
    body.pod(crc32(payload.data(), payload.size()));
    body.bytes(payload.data(), payload.size());
  }
  const std::uint32_t file_crc = crc32(body.buffer().data(), body.buffer().size());
  atomic_write_file(path, [&](std::ostream& out) {
    out.write(body.buffer().data(), static_cast<std::streamsize>(body.buffer().size()));
    out.write(reinterpret_cast<const char*>(&file_crc), sizeof file_crc);
  });
}

// ---- SectionedFileReader ----

SectionedFileReader::SectionedFileReader(const std::string& path, const std::string& magic)
    : path_(path) {
  GANOPC_CHECK_MSG(magic.size() == kMagicLen, "section container magic must be 8 bytes");
  std::ifstream in(path, std::ios::binary);
  GANOPC_CHECK_MSG(in.good(), "cannot open " << path);
  std::ostringstream slurp;
  slurp << in.rdbuf();
  GANOPC_CHECK_MSG(in.good() || in.eof(), "read failed: " << path);
  data_ = std::move(slurp).str();

  const std::size_t min_size = kMagicLen + sizeof(std::uint32_t) * 2;
  GANOPC_CHECK_MSG(data_.size() >= min_size,
                   "corrupt " << path << ": file truncated to " << data_.size() << " bytes");
  GANOPC_CHECK_MSG(std::memcmp(data_.data(), magic.data(), kMagicLen) == 0,
                   "bad magic in " << path << " (expected " << magic << ")");

  // Whole-file CRC first: catches any bit flip, including in the structural
  // fields the section CRCs do not cover.
  const std::size_t body_size = data_.size() - sizeof(std::uint32_t);
  std::uint32_t stored_file_crc = 0;
  std::memcpy(&stored_file_crc, data_.data() + body_size, sizeof stored_file_crc);
  GANOPC_CHECK_MSG(crc32(data_.data(), body_size) == stored_file_crc,
                   "corrupt " << path << ": whole-file CRC mismatch");

  ByteReader header(data_.data() + kMagicLen, body_size - kMagicLen, path + " header");
  const auto count = header.pod<std::uint32_t>();
  GANOPC_CHECK_MSG(count <= kMaxSections,
                   "corrupt " << path << ": implausible section count " << count);
  std::size_t cursor = kMagicLen + sizeof(std::uint32_t);
  for (std::uint32_t i = 0; i < count; ++i) {
    ByteReader entry(data_.data() + cursor, body_size - cursor, path + " section table");
    Entry e;
    e.name = entry.str(kMaxSectionName);
    const auto payload_size = entry.pod<std::uint64_t>();
    const auto payload_crc = entry.pod<std::uint32_t>();
    const std::size_t header_bytes =
        sizeof(std::uint32_t) + e.name.size() + sizeof(std::uint64_t) + sizeof(std::uint32_t);
    GANOPC_CHECK_MSG(payload_size <= body_size - cursor - header_bytes,
                     "corrupt " << path << ": section '" << e.name << "' claims "
                                << payload_size << " bytes beyond end of file");
    e.offset = cursor + header_bytes;
    e.size = static_cast<std::size_t>(payload_size);
    GANOPC_CHECK_MSG(crc32(data_.data() + e.offset, e.size) == payload_crc,
                     "corrupt " << path << ": CRC mismatch in section '" << e.name << "'");
    cursor = e.offset + e.size;
    entries_.push_back(std::move(e));
  }
  GANOPC_CHECK_MSG(cursor == body_size,
                   "corrupt " << path << ": " << (body_size - cursor)
                              << " trailing bytes after last section");
}

bool SectionedFileReader::has(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name) return true;
  return false;
}

ByteReader SectionedFileReader::open(const std::string& name) const {
  for (const auto& e : entries_)
    if (e.name == name)
      return ByteReader(data_.data() + e.offset, e.size,
                        path_ + " section '" + name + "'");
  GANOPC_CHECK_MSG(false, "corrupt or mismatched " << path_ << ": missing section '"
                                                   << name << "'");
  // unreachable
  return ByteReader(nullptr, 0, "");
}

}  // namespace ganopc
