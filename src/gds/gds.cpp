#include "gds/gds.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "common/status.hpp"

namespace ganopc::gds {

namespace {

// GDSII record types (the subset we emit / understand).
enum RecordType : std::uint8_t {
  kHeader = 0x00,
  kBgnLib = 0x01,
  kLibName = 0x02,
  kUnits = 0x03,
  kEndLib = 0x04,
  kBgnStr = 0x05,
  kStrName = 0x06,
  kEndStr = 0x07,
  kBoundary = 0x08,
  kPath = 0x09,
  kSref = 0x0A,
  kAref = 0x0B,
  kText = 0x0C,
  kLayer = 0x0D,
  kDatatype = 0x0E,
  kXy = 0x10,
  kEndEl = 0x11,
  kSname = 0x12,
  kStrans = 0x1A,
  kMag = 0x1B,
  kAngle = 0x1C,
};

// GDSII data type codes (byte 3 of the header).
enum DataType : std::uint8_t {
  kNoData = 0x00,
  kInt16 = 0x02,
  kInt32 = 0x03,
  kReal8 = 0x05,
  kAscii = 0x06,
};

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v & 0xFF));
}

void put_i32(std::string& out, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  out.push_back(static_cast<char>(u >> 24));
  out.push_back(static_cast<char>((u >> 16) & 0xFF));
  out.push_back(static_cast<char>((u >> 8) & 0xFF));
  out.push_back(static_cast<char>(u & 0xFF));
}

// GDSII 8-byte real: excess-64 exponent (base 16), 56-bit mantissa, sign bit.
void put_real8(std::string& out, double value) {
  std::uint64_t bits = 0;
  if (value != 0.0) {
    const bool negative = value < 0.0;
    double mag = std::fabs(value);
    int exponent = 64;
    while (mag >= 1.0) {
      mag /= 16.0;
      ++exponent;
    }
    while (mag < 1.0 / 16.0) {
      mag *= 16.0;
      --exponent;
    }
    const auto mantissa = static_cast<std::uint64_t>(mag * 72057594037927936.0);  // 2^56
    bits = (static_cast<std::uint64_t>(negative) << 63) |
           (static_cast<std::uint64_t>(exponent & 0x7F) << 56) | (mantissa & ((1ULL << 56) - 1));
  }
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((bits >> shift) & 0xFF));
}

double get_real8(const std::uint8_t* p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits = (bits << 8) | p[i];
  if (bits == 0) return 0.0;
  const bool negative = (bits >> 63) != 0;
  const int exponent = static_cast<int>((bits >> 56) & 0x7F) - 64;
  const double mantissa =
      static_cast<double>(bits & ((1ULL << 56) - 1)) / 72057594037927936.0;
  const double value = mantissa * std::pow(16.0, exponent);
  return negative ? -value : value;
}

void emit(std::ofstream& out, RecordType type, DataType dtype,
          const std::string& payload = {}) {
  std::string record;
  GANOPC_CHECK_MSG(payload.size() + 4 <= 0xFFFF, "GDS record too long");
  put_u16(record, static_cast<std::uint16_t>(payload.size() + 4));
  record.push_back(static_cast<char>(type));
  record.push_back(static_cast<char>(dtype));
  record += payload;
  out.write(record.data(), static_cast<std::streamsize>(record.size()));
}

std::string ascii_payload(const std::string& s) {
  std::string payload = s;
  if (payload.size() % 2) payload.push_back('\0');  // records are even-length
  return payload;
}

// Hardened-parser limits: a stream file violating any of these is rejected
// with a typed InvalidInput error instead of exhausting memory or looping.
constexpr std::size_t kMaxGdsBytes = std::size_t{256} << 20;  // 256 MiB stream
constexpr std::size_t kMaxStructures = 1u << 16;
constexpr std::size_t kMaxBoundariesTotal = 4u << 20;

struct Record {
  RecordType type;
  DataType dtype;
  /// View into the reader's buffer — valid until the next next() call.
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

// Record cursor over the whole stream file held in memory. Every field is
// bounds-checked against the remaining bytes before it is touched, so a
// truncated, bit-flipped or adversarial file raises StatusError(InvalidInput)
// instead of reading past the buffer.
class Reader {
 public:
  explicit Reader(const std::string& path) : path_(path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
      throw StatusError(StatusCode::kIo, "cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof())
      throw StatusError(StatusCode::kIo, "read failed: " + path);
    data_ = buffer.str();
    if (data_.size() > kMaxGdsBytes)
      fail("file exceeds " + std::to_string(kMaxGdsBytes) + " bytes");
  }

  bool next(Record& record) {
    if (pos_ == data_.size()) return false;
    if (data_.size() - pos_ < 4) fail("truncated record header");
    const auto* p = bytes() + pos_;
    const std::size_t length = (static_cast<std::size_t>(p[0]) << 8) | p[1];
    if (length < 4) fail("record length " + std::to_string(length) + " below header size");
    if (length > data_.size() - pos_)
      fail("record length " + std::to_string(length) + " exceeds remaining " +
           std::to_string(data_.size() - pos_) + " bytes");
    record.type = static_cast<RecordType>(p[2]);
    record.dtype = static_cast<DataType>(p[3]);
    record.payload = p + 4;
    record.payload_size = length - 4;
    pos_ += length;
    return true;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw StatusError(StatusCode::kInvalidInput,
                      "malformed GDS '" + path_ + "' at byte " +
                          std::to_string(pos_) + ": " + why);
  }

 private:
  const std::uint8_t* bytes() const {
    return reinterpret_cast<const std::uint8_t*>(data_.data());
  }

  std::string path_;
  std::string data_;
  std::size_t pos_ = 0;
};

std::int16_t payload_i16(const Reader& reader, const Record& r) {
  if (r.payload_size < 2) reader.fail("short int16 payload");
  return static_cast<std::int16_t>((r.payload[0] << 8) | r.payload[1]);
}

double payload_real8(const Reader& reader, const Record& r) {
  if (r.payload_size < 8) reader.fail("short real8 payload");
  return get_real8(r.payload);
}

std::int32_t payload_i32(const std::uint8_t* p) {
  return static_cast<std::int32_t>((static_cast<std::uint32_t>(p[0]) << 24) |
                                   (static_cast<std::uint32_t>(p[1]) << 16) |
                                   (static_cast<std::uint32_t>(p[2]) << 8) | p[3]);
}

std::string payload_ascii(const Record& r) {
  std::string s(reinterpret_cast<const char*>(r.payload), r.payload_size);
  while (!s.empty() && s.back() == '\0') s.pop_back();
  return s;
}

}  // namespace

void write_gds(const std::string& path, const Library& library) {
  std::ofstream out(path, std::ios::binary);
  GANOPC_CHECK_MSG(out.good(), "cannot open " << path);

  std::string payload;
  put_u16(payload, 600);  // stream version 6
  emit(out, kHeader, kInt16, payload);

  payload.clear();
  for (int i = 0; i < 12; ++i) put_u16(payload, 0);  // timestamps: zeroed
  emit(out, kBgnLib, kInt16, payload);
  emit(out, kLibName, kAscii, ascii_payload(library.name));

  payload.clear();
  put_real8(payload, library.user_units_per_dbu);
  put_real8(payload, library.meters_per_dbu);
  emit(out, kUnits, kReal8, payload);

  for (const auto& structure : library.structures) {
    payload.clear();
    for (int i = 0; i < 12; ++i) put_u16(payload, 0);
    emit(out, kBgnStr, kInt16, payload);
    emit(out, kStrName, kAscii, ascii_payload(structure.name));
    for (const auto& boundary : structure.boundaries) {
      emit(out, kBoundary, kNoData);
      payload.clear();
      put_u16(payload, static_cast<std::uint16_t>(boundary.layer));
      emit(out, kLayer, kInt16, payload);
      payload.clear();
      put_u16(payload, static_cast<std::uint16_t>(boundary.datatype));
      emit(out, kDatatype, kInt16, payload);
      payload.clear();
      const auto& pts = boundary.polygon.vertices();
      GANOPC_CHECK_MSG(pts.size() >= 3, "boundary with fewer than 3 vertices");
      for (const auto& p : pts) {
        put_i32(payload, p.x);
        put_i32(payload, p.y);
      }
      put_i32(payload, pts.front().x);  // GDS closes the ring explicitly
      put_i32(payload, pts.front().y);
      emit(out, kXy, kInt32, payload);
      emit(out, kEndEl, kNoData);
    }
    for (const auto& sref : structure.srefs) {
      emit(out, kSref, kNoData);
      emit(out, kSname, kAscii, ascii_payload(sref.child));
      payload.clear();
      put_i32(payload, sref.x);
      put_i32(payload, sref.y);
      emit(out, kXy, kInt32, payload);
      emit(out, kEndEl, kNoData);
    }
    emit(out, kEndStr, kNoData);
  }
  emit(out, kEndLib, kNoData);
  GANOPC_CHECK_MSG(out.good(), "write failed: " << path);
}

Library read_gds(const std::string& path) {
  if (GANOPC_FAILPOINT("gds.read"))
    throw StatusError(StatusCode::kIo, "injected fault reading " + path);
  Reader reader(path);
  Library library;
  library.structures.clear();

  Record record;
  if (!reader.next(record) || record.type != kHeader || record.payload_size < 2)
    throw StatusError(StatusCode::kInvalidInput, "not a GDS file: " + path);
  Structure* current_structure = nullptr;
  Boundary current_boundary;
  bool boundary_has_xy = false;
  Sref current_sref;
  std::size_t total_boundaries = 0;
  enum class State { TopLevel, InStructure, InBoundary, InSref, InSkippedElement };
  State state = State::TopLevel;

  while (reader.next(record)) {
    switch (record.type) {
      case kLibName:
        library.name = payload_ascii(record);
        break;
      case kUnits:
        if (record.payload_size != 16) reader.fail("UNITS payload must be 16 bytes");
        library.user_units_per_dbu = get_real8(record.payload);
        library.meters_per_dbu = get_real8(record.payload + 8);
        break;
      case kBgnStr:
        if (library.structures.size() >= kMaxStructures)
          reader.fail("more than " + std::to_string(kMaxStructures) + " structures");
        library.structures.emplace_back();
        current_structure = &library.structures.back();
        state = State::InStructure;
        break;
      case kStrName:
        if (current_structure != nullptr) current_structure->name = payload_ascii(record);
        break;
      case kEndStr:
        current_structure = nullptr;
        state = State::TopLevel;
        break;
      case kBoundary:
        if (current_structure == nullptr) reader.fail("BOUNDARY outside structure");
        if (++total_boundaries > kMaxBoundariesTotal)
          reader.fail("more than " + std::to_string(kMaxBoundariesTotal) +
                      " boundaries");
        current_boundary = Boundary{};
        boundary_has_xy = false;
        state = State::InBoundary;
        break;
      case kSref:
        if (current_structure == nullptr) reader.fail("SREF outside structure");
        current_sref = Sref{};
        state = State::InSref;
        break;
      case kSname:
        if (state == State::InSref) current_sref.child = payload_ascii(record);
        break;
      case kMag:
        if (state == State::InSref &&
            std::fabs(payload_real8(reader, record) - 1.0) >= 1e-9)
          reader.fail("SREF magnification unsupported");
        break;
      case kAngle:
        if (state == State::InSref &&
            std::fabs(payload_real8(reader, record)) >= 1e-9)
          reader.fail("SREF rotation unsupported");
        break;
      case kStrans:
        break;  // flag word itself carries no transform we honour beyond MAG/ANGLE
      case kLayer:
        if (state == State::InBoundary)
          current_boundary.layer = payload_i16(reader, record);
        break;
      case kDatatype:
        if (state == State::InBoundary)
          current_boundary.datatype = payload_i16(reader, record);
        break;
      case kPath:
      case kAref:
      case kText:
        state = State::InSkippedElement;
        break;
      case kXy:
        if (state == State::InSref) {
          if (record.payload_size < 8) reader.fail("SREF XY payload below 8 bytes");
          current_sref.x = payload_i32(record.payload);
          current_sref.y = payload_i32(record.payload + 4);
        }
        if (state == State::InBoundary) {
          if (record.payload_size % 8 != 0)
            reader.fail("BOUNDARY XY payload not a multiple of 8 bytes");
          std::vector<geom::Point> pts;
          pts.reserve(record.payload_size / 8);
          for (std::size_t i = 0; i + 8 <= record.payload_size; i += 8)
            pts.push_back({payload_i32(record.payload + i),
                           payload_i32(record.payload + i + 4)});
          // Drop the explicit closing vertex.
          if (pts.size() >= 2 && pts.front() == pts.back()) pts.pop_back();
          if (pts.size() < 3)
            reader.fail("BOUNDARY with fewer than 3 distinct vertices");
          current_boundary.polygon = geom::Polygon(std::move(pts));
          boundary_has_xy = true;
        }
        break;
      case kEndEl:
        if (state == State::InBoundary) {
          if (!boundary_has_xy) reader.fail("BOUNDARY without XY record");
          current_structure->boundaries.push_back(std::move(current_boundary));
        }
        if (state == State::InSref)
          current_structure->srefs.push_back(std::move(current_sref));
        state = State::InStructure;
        break;
      case kEndLib:
        return library;
      default:
        break;  // unknown records are skipped
    }
  }
  throw StatusError(StatusCode::kInvalidInput,
                    "GDS file ended without ENDLIB: " + path);
}

Library layout_to_gds(const geom::Layout& layout, const std::string& cell_name,
                      std::int16_t layer) {
  Library library;
  Structure structure;
  structure.name = cell_name;
  for (const auto& r : layout.rects()) {
    Boundary b;
    b.layer = layer;
    b.polygon = geom::Polygon::from_rect(r);
    structure.boundaries.push_back(std::move(b));
  }
  library.structures.push_back(std::move(structure));
  return library;
}

namespace {

const Structure& find_structure(const Library& library, const std::string& name) {
  auto it = std::find_if(library.structures.begin(), library.structures.end(),
                         [&](const Structure& s) { return s.name == name; });
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, it != library.structures.end(),
                     "structure '" << name << "' not found");
  return *it;
}

void flatten_into(const Library& library, const Structure& structure, std::int16_t layer,
                  std::int32_t dx, std::int32_t dy, int depth, geom::Layout& layout) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, depth < 64,
                     "SREF hierarchy too deep (cycle?) at '" << structure.name << "'");
  for (const auto& boundary : structure.boundaries) {
    if (boundary.layer != layer) continue;
    GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, boundary.polygon.is_rectilinear(),
                       "non-rectilinear boundary in structure '" << structure.name
                                                                << "'");
    for (auto r : boundary.polygon.decompose()) {
      r.x0 += dx;
      r.x1 += dx;
      r.y0 += dy;
      r.y1 += dy;
      layout.add(r);
    }
  }
  for (const auto& sref : structure.srefs)
    flatten_into(library, find_structure(library, sref.child), layer, dx + sref.x,
                 dy + sref.y, depth + 1, layout);
}

}  // namespace

geom::Layout gds_to_layout(const Library& library, const geom::Rect& clip,
                           const std::string& structure_name, std::int16_t layer) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, !library.structures.empty(),
                     "GDS library has no structures");
  const Structure& structure = structure_name.empty()
                                   ? library.structures.front()
                                   : find_structure(library, structure_name);
  geom::Layout layout(clip);
  flatten_into(library, structure, layer, 0, 0, 0, layout);
  return layout;
}

}  // namespace ganopc::gds
