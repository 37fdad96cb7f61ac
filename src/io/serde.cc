#include "io/serde.h"

#include <cstring>

namespace cedr {
namespace io {

namespace {

// Sanity bound on length prefixes: a single string or vector inside a
// snapshot should never exceed 1 GiB. Anything larger is a corrupted
// length, not real data.
constexpr uint64_t kMaxLength = uint64_t{1} << 30;

uint32_t CrcTableEntry(uint32_t i) {
  uint32_t c = i;
  for (int k = 0; k < 8; ++k) {
    c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c;
}

const uint32_t* CrcTable() {
  static const auto* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) t[i] = CrcTableEntry(i);
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint32_t* table = CrcTable();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BinaryWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void BinaryWriter::PutString(const std::string& s) {
  PutU64(s.size());
  out_.append(s);
}

Result<uint8_t> BinaryReader::GetU8() {
  if (pos_ >= size_) {
    return Status::DataLoss("serde: unexpected end of input");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> BinaryReader::GetU32() {
  if (size_ - pos_ < 4) {
    return Status::DataLoss("serde: unexpected end of input");
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  if (size_ - pos_ < 8) {
    return Status::DataLoss("serde: unexpected end of input");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::GetI64() {
  CEDR_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<bool> BinaryReader::GetBool() {
  CEDR_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  if (v > 1) return Status::Corruption("serde: invalid bool byte");
  return v == 1;
}

Result<double> BinaryReader::GetDouble() {
  CEDR_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> BinaryReader::GetString() {
  CEDR_ASSIGN_OR_RETURN(uint64_t len, GetU64());
  if (len > kMaxLength) return Status::Corruption("serde: string too long");
  if (size_ - pos_ < len) {
    return Status::DataLoss("serde: truncated string");
  }
  std::string s(data_ + pos_, len);
  pos_ += len;
  return s;
}

Status BinaryReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::Corruption("serde: trailing bytes after payload");
  }
  return Status::OK();
}

void WriteStatelessMarker(BinaryWriter* w) { w->PutU8(kStatelessMarker); }

Status ReadStatelessMarker(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint8_t marker, r->GetU8());
  if (marker != kStatelessMarker) {
    return Status::Corruption("serde: bad stateless-operator marker");
  }
  return Status::OK();
}

void WriteValue(BinaryWriter* w, const Value& v) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutBool(v.AsBool());
      break;
    case ValueType::kInt64:
      w->PutI64(v.AsInt64());
      break;
    case ValueType::kDouble:
      w->PutDouble(v.AsDouble());
      break;
    case ValueType::kString:
      w->PutString(v.AsString());
      break;
  }
}

Result<Value> ReadValue(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      CEDR_ASSIGN_OR_RETURN(bool b, r->GetBool());
      return Value(b);
    }
    case ValueType::kInt64: {
      CEDR_ASSIGN_OR_RETURN(int64_t i, r->GetI64());
      return Value(i);
    }
    case ValueType::kDouble: {
      CEDR_ASSIGN_OR_RETURN(double d, r->GetDouble());
      return Value(d);
    }
    case ValueType::kString: {
      CEDR_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return Value(std::move(s));
    }
  }
  return Status::Corruption("serde: invalid value tag");
}

void WriteSchema(BinaryWriter* w, const SchemaPtr& schema) {
  if (schema == nullptr) {
    w->PutBool(false);
    return;
  }
  w->PutBool(true);
  w->PutU64(schema->num_fields());
  for (const Field& f : schema->fields()) {
    w->PutString(f.name);
    w->PutU8(static_cast<uint8_t>(f.type));
  }
}

Result<SchemaPtr> ReadSchema(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(bool present, r->GetBool());
  if (!present) return SchemaPtr(nullptr);
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxLength) return Status::Corruption("serde: schema too wide");
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Field f;
    CEDR_ASSIGN_OR_RETURN(f.name, r->GetString());
    CEDR_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::Corruption("serde: invalid field type");
    }
    f.type = static_cast<ValueType>(type);
    fields.push_back(std::move(f));
  }
  return Schema::Make(std::move(fields));
}

void WriteRow(BinaryWriter* w, const Row& row) {
  WriteSchema(w, row.schema());
  w->PutU64(row.size());
  for (const Value& v : row.values()) WriteValue(w, v);
}

Result<Row> ReadRow(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(SchemaPtr schema, ReadSchema(r));
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxLength) return Status::Corruption("serde: row too wide");
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    values.push_back(std::move(v));
  }
  return Row(std::move(schema), std::move(values));
}

void WriteEvent(BinaryWriter* w, const Event& e) {
  w->PutU64(e.id);
  w->PutTime(e.vs);
  w->PutTime(e.ve);
  w->PutTime(e.os);
  w->PutTime(e.oe);
  w->PutTime(e.cs);
  w->PutTime(e.ce);
  w->PutU64(e.k);
  w->PutTime(e.rt);
  w->PutU64(e.cbt.size());
  for (const EventRef& c : e.cbt) WriteEvent(w, *c);
  WriteRow(w, e.payload);
}

Result<Event> ReadEvent(BinaryReader* r) {
  Event e;
  CEDR_ASSIGN_OR_RETURN(e.id, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(e.vs, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(e.ve, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(e.os, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(e.oe, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(e.cs, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(e.ce, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(e.k, r->GetU64());
  CEDR_ASSIGN_OR_RETURN(e.rt, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxLength) return Status::Corruption("serde: cbt too long");
  Lineage::List cbt;
  cbt.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event c, ReadEvent(r));
    cbt.push_back(std::make_shared<const Event>(std::move(c)));
  }
  e.cbt = std::move(cbt);
  CEDR_ASSIGN_OR_RETURN(e.payload, ReadRow(r));
  return e;
}

void WriteMessage(BinaryWriter* w, const Message& m) {
  w->PutU8(static_cast<uint8_t>(m.kind));
  WriteEvent(w, m.event);
  w->PutTime(m.new_ve);
  w->PutTime(m.time);
  w->PutTime(m.cs);
}

Result<Message> ReadMessage(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
  if (kind > static_cast<uint8_t>(MessageKind::kCti)) {
    return Status::Corruption("serde: invalid message kind");
  }
  Message m;
  m.kind = static_cast<MessageKind>(kind);
  CEDR_ASSIGN_OR_RETURN(m.event, ReadEvent(r));
  CEDR_ASSIGN_OR_RETURN(m.new_ve, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(m.time, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(m.cs, r->GetTime());
  return m;
}

void WriteValues(BinaryWriter* w, const std::vector<Value>& values) {
  w->PutU64(values.size());
  for (const Value& v : values) WriteValue(w, v);
}

Result<std::vector<Value>> ReadValues(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxLength) return Status::Corruption("serde: value list too long");
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    values.push_back(std::move(v));
  }
  return values;
}

void WriteEvents(BinaryWriter* w, const std::vector<Event>& events) {
  w->PutU64(events.size());
  for (const Event& e : events) WriteEvent(w, e);
}

Result<std::vector<Event>> ReadEvents(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > kMaxLength) return Status::Corruption("serde: event list too long");
  std::vector<Event> events;
  events.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event e, ReadEvent(r));
    events.push_back(std::move(e));
  }
  return events;
}

void WriteSpec(BinaryWriter* w, const ConsistencySpec& spec) {
  w->PutI64(spec.max_blocking);
  w->PutI64(spec.max_memory);
}

Result<ConsistencySpec> ReadSpec(BinaryReader* r) {
  ConsistencySpec spec;
  CEDR_ASSIGN_OR_RETURN(spec.max_blocking, r->GetI64());
  CEDR_ASSIGN_OR_RETURN(spec.max_memory, r->GetI64());
  return spec;
}

void WriteStatus(BinaryWriter* w, const Status& s) {
  w->PutU8(static_cast<uint8_t>(s.code()));
  w->PutString(s.message());
}

Status ReadStatus(BinaryReader* r, Status* out) {
  CEDR_ASSIGN_OR_RETURN(uint8_t code, r->GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kCorruption)) {
    return Status::Corruption("serde: invalid status code");
  }
  CEDR_ASSIGN_OR_RETURN(std::string msg, r->GetString());
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

}  // namespace io
}  // namespace cedr
