// GDS parser hardening (DESIGN.md §9): every truncation and byte flip of a
// valid stream file must be rejected with a typed StatusError (or parse to
// an equally valid file) — never crash, read out of bounds, or loop. Crafted
// records exercise each bounds check individually; the whole suite runs
// under ASan+UBSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "common/status.hpp"
#include "gds/gds.hpp"
#include "geometry/layout.hpp"

namespace ganopc::gds {
namespace {

using namespace std::string_literals;  // embedded-NUL payloads below

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// --- raw record crafting (big-endian, as in the stream format) ---

void be16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xFF));
}

void be32(std::string& out, std::uint32_t v) {
  be16(out, static_cast<std::uint16_t>(v >> 16));
  be16(out, static_cast<std::uint16_t>(v & 0xFFFF));
}

std::string record(std::uint8_t type, std::uint8_t dtype,
                   const std::string& payload = {}) {
  std::string r;
  be16(r, static_cast<std::uint16_t>(payload.size() + 4));
  r.push_back(static_cast<char>(type));
  r.push_back(static_cast<char>(dtype));
  r += payload;
  return r;
}

// Record type / data type codes (mirror of the parser's private enums).
constexpr std::uint8_t kHeader = 0x00, kEndLib = 0x04, kBgnStr = 0x05,
                       kEndStr = 0x07, kBoundary = 0x08, kSref = 0x0A,
                       kXy = 0x10, kEndEl = 0x11, kSname = 0x12, kMag = 0x1B,
                       kUnits = 0x03;
constexpr std::uint8_t kNoData = 0x00, kInt16 = 0x02, kInt32 = 0x03,
                       kReal8 = 0x05, kAscii = 0x06;

std::string header_record() {
  std::string v;
  be16(v, 600);
  return record(kHeader, kInt16, v);
}

std::string xy_payload(const std::vector<std::pair<std::int32_t, std::int32_t>>& pts) {
  std::string p;
  for (const auto& [x, y] : pts) {
    be32(p, static_cast<std::uint32_t>(x));
    be32(p, static_cast<std::uint32_t>(y));
  }
  return p;
}

// Minimal structure wrapper: header + BGNSTR ... ENDSTR + ENDLIB.
std::string in_structure(const std::string& body) {
  return header_record() + record(kBgnStr, kInt16) + record(kSname, kAscii) + body +
         record(kEndStr, kNoData) + record(kEndLib, kNoData);
}

// A valid reference file produced by the library's own writer.
std::string make_valid_file(const std::string& name) {
  geom::Layout layout(geom::Rect{0, 0, 1024, 1024});
  layout.add({100, 100, 400, 900});
  layout.add({600, 200, 900, 800});
  const std::string path = temp_path(name);
  write_gds(path, layout_to_gds(layout, "TOP"));
  return path;
}

// The typed failure read_gds throws for `path`. A file that parses, or an
// untyped error, fails the calling test and yields an Ok status.
Status read_failure(const std::string& path) {
  try {
    read_gds(path);
    ADD_FAILURE() << path << " parsed";
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    ADD_FAILURE() << path << " threw an untyped error: " << e.what();
  }
  return Status::Ok();
}

class GdsCorruptionTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::clear();
    for (const auto& p : cleanup_) std::remove(p.c_str());
  }

  std::string scratch(const std::string& name) {
    const std::string path = temp_path(name);
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(GdsCorruptionTest, WriterOutputParsesCleanly) {
  const std::string path = make_valid_file("gds_corrupt_ref.gds");
  cleanup_.push_back(path);
  const Library lib = read_gds(path);
  ASSERT_EQ(lib.structures.size(), 1u);
  EXPECT_EQ(lib.structures[0].boundaries.size(), 2u);
}

TEST_F(GdsCorruptionTest, EveryTruncationRejectedWithTypedError) {
  const std::string ref = make_valid_file("gds_corrupt_trunc_ref.gds");
  cleanup_.push_back(ref);
  const std::string bytes = read_bytes(ref);
  ASSERT_GT(bytes.size(), 8u);
  const std::string path = scratch("gds_corrupt_trunc.gds");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(path, bytes.substr(0, len));
    EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput)
        << "prefix of " << len << " bytes";
  }
}

TEST_F(GdsCorruptionTest, EveryByteFlipIsContained) {
  // A flipped byte may still parse (e.g. a coordinate changed) — the
  // contract is containment: a valid Library or a typed StatusError, never
  // an untyped error, a crash or an out-of-bounds read (ASan enforces the
  // latter in CI).
  const std::string ref = make_valid_file("gds_corrupt_flip_ref.gds");
  cleanup_.push_back(ref);
  const std::string bytes = read_bytes(ref);
  const std::string path = scratch("gds_corrupt_flip.gds");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    write_bytes(path, mutated);
    try {
      read_gds(path);
    } catch (const StatusError& e) {
      EXPECT_NE(e.code(), StatusCode::kOk) << "flipped byte " << i;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flipped byte " << i << " threw an untyped error: " << e.what();
    }
  }
}

TEST_F(GdsCorruptionTest, RecordLengthBelowHeaderRejected) {
  std::string bad = header_record();
  be16(bad, 2);  // a record claiming to be smaller than its own header
  bad.push_back(static_cast<char>(kEndLib));
  bad.push_back(static_cast<char>(kNoData));
  const std::string path = scratch("gds_len_small.gds");
  write_bytes(path, bad);
  const Status status = read_failure(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(status.message().find("below header size"), std::string::npos);
}

TEST_F(GdsCorruptionTest, RecordLengthPastEndOfFileRejected) {
  std::string bad = header_record();
  be16(bad, 0x4000);  // 16 KiB record in a file with 4 bytes left
  bad.push_back(static_cast<char>(kEndLib));
  bad.push_back(static_cast<char>(kNoData));
  const std::string path = scratch("gds_len_huge.gds");
  write_bytes(path, bad);
  const Status status = read_failure(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(status.message().find("exceeds remaining"), std::string::npos);
}

TEST_F(GdsCorruptionTest, UnitsPayloadSizeEnforced) {
  const std::string bad = header_record() +
                          record(kUnits, kReal8, std::string(15, '\0')) +
                          record(kEndLib, kNoData);
  const std::string path = scratch("gds_units_short.gds");
  write_bytes(path, bad);
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, OddBoundaryXyRejected) {
  const std::string body =
      record(kBoundary, kNoData) +
      record(kXy, kInt32, xy_payload({{0, 0}, {10, 0}, {10, 10}}) + "\0\0\0\0"s) +
      record(kEndEl, kNoData);
  const std::string path = scratch("gds_xy_odd.gds");
  write_bytes(path, in_structure(body));
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, DegenerateBoundaryRejected) {
  // Two distinct vertices plus the explicit closing vertex: not a polygon.
  const std::string body =
      record(kBoundary, kNoData) +
      record(kXy, kInt32, xy_payload({{0, 0}, {10, 0}, {0, 0}})) +
      record(kEndEl, kNoData);
  const std::string path = scratch("gds_degenerate.gds");
  write_bytes(path, in_structure(body));
  const Status status = read_failure(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(status.message().find("fewer than 3"), std::string::npos);
}

TEST_F(GdsCorruptionTest, BoundaryWithoutXyRejected) {
  const std::string body = record(kBoundary, kNoData) + record(kEndEl, kNoData);
  const std::string path = scratch("gds_no_xy.gds");
  write_bytes(path, in_structure(body));
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, BoundaryOutsideStructureRejected) {
  const std::string bad = header_record() + record(kBoundary, kNoData) +
                          record(kEndLib, kNoData);
  const std::string path = scratch("gds_orphan_boundary.gds");
  write_bytes(path, bad);
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, ShortSrefXyRejected) {
  const std::string body = record(kSref, kNoData) +
                           record(kSname, kAscii, "CHILD\0"s) +
                           record(kXy, kInt32, std::string(4, '\0')) +
                           record(kEndEl, kNoData);
  const std::string path = scratch("gds_sref_xy.gds");
  write_bytes(path, in_structure(body));
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, ShortSrefMagRejected) {
  // The pre-hardening parser read 8 bytes of MAG unconditionally — a 4-byte
  // payload was an out-of-bounds read. Now it is a typed reject.
  const std::string body = record(kSref, kNoData) +
                           record(kSname, kAscii, "CHILD\0"s) +
                           record(kMag, kReal8, std::string(4, '\0')) +
                           record(kXy, kInt32, std::string(8, '\0')) +
                           record(kEndEl, kNoData);
  const std::string path = scratch("gds_sref_mag.gds");
  write_bytes(path, in_structure(body));
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, MissingEndLibRejected) {
  const std::string ref = make_valid_file("gds_noendlib_ref.gds");
  cleanup_.push_back(ref);
  const std::string bytes = read_bytes(ref);
  const std::string path = scratch("gds_noendlib.gds");
  write_bytes(path, bytes.substr(0, bytes.size() - 4));  // drop ENDLIB
  const Status status = read_failure(path);
  EXPECT_EQ(status.code(), StatusCode::kInvalidInput);
  EXPECT_NE(status.message().find("ENDLIB"), std::string::npos);
}

TEST_F(GdsCorruptionTest, NonGdsContentRejected) {
  const std::string path = scratch("gds_not_gds.gds");
  write_bytes(path, "clip 0 0 2048 2048\nrect 1 2 3 4\n");
  EXPECT_EQ(read_failure(path).code(), StatusCode::kInvalidInput);
}

TEST_F(GdsCorruptionTest, MissingFileIsIoError) {
  EXPECT_EQ(read_failure(temp_path("gds_does_not_exist.gds")).code(), StatusCode::kIo);
}

TEST_F(GdsCorruptionTest, ReadFailpointSurfacesAsIoStatus) {
  const std::string path = make_valid_file("gds_failpoint.gds");
  cleanup_.push_back(path);
  failpoint::arm("gds.read", /*skip=*/0, /*count=*/1);
  EXPECT_EQ(read_failure(path).code(), StatusCode::kIo);
  // The failpoint fired once; the next read succeeds.
  EXPECT_NO_THROW(read_gds(path));
}

}  // namespace
}  // namespace ganopc::gds
