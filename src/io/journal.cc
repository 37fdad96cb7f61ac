#include "io/journal.h"

#include <cstring>

namespace cedr {
namespace io {

namespace {
constexpr size_t kMagicSize = 8;
constexpr size_t kHeaderSize = kMagicSize + 4 + 8;
}  // namespace

JournalRecord PublishCall(const std::string& type, Event event) {
  JournalRecord call;
  call.op = JournalOp::kPublish;
  call.name = type;
  call.event = std::move(event);
  return call;
}

JournalRecord RetractCall(const std::string& type, const Event& original,
                          Time new_end) {
  JournalRecord call;
  call.op = JournalOp::kRetract;
  call.name = type;
  call.event = original;
  call.new_ve = new_end;
  return call;
}

JournalRecord SyncCall(const std::string& type, Time t) {
  JournalRecord call;
  call.op = JournalOp::kSyncPoint;
  call.name = type;
  call.time = t;
  return call;
}

void WriteJournalRecord(BinaryWriter* w, const JournalRecord& record) {
  w->PutU8(static_cast<uint8_t>(record.op));
  w->PutString(record.name);
  w->PutString(record.text);
  WriteSchema(w, record.schema);
  w->PutBool(record.has_spec);
  WriteSpec(w, record.spec);
  WriteEvent(w, record.event);
  w->PutTime(record.new_ve);
  w->PutTime(record.time);
  w->PutString(record.source);
  w->PutU64(record.seq);
}

Result<JournalRecord> ReadJournalRecord(BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
  if (op > static_cast<uint8_t>(JournalOp::kEpoch)) {
    return Status::Corruption("journal: invalid record op");
  }
  JournalRecord record;
  record.op = static_cast<JournalOp>(op);
  CEDR_ASSIGN_OR_RETURN(record.name, r->GetString());
  CEDR_ASSIGN_OR_RETURN(record.text, r->GetString());
  CEDR_ASSIGN_OR_RETURN(record.schema, ReadSchema(r));
  CEDR_ASSIGN_OR_RETURN(record.has_spec, r->GetBool());
  CEDR_ASSIGN_OR_RETURN(record.spec, ReadSpec(r));
  CEDR_ASSIGN_OR_RETURN(record.event, ReadEvent(r));
  CEDR_ASSIGN_OR_RETURN(record.new_ve, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(record.time, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(record.source, r->GetString());
  CEDR_ASSIGN_OR_RETURN(record.seq, r->GetU64());
  return record;
}

void JournalWriter::Reset(uint64_t base_index) {
  base_index_ = base_index;
  num_records_ = 0;
  bytes_.assign(kJournalMagic, kMagicSize);
  BinaryWriter w;
  w.PutU32(kJournalVersion);
  w.PutU64(base_index);
  bytes_ += w.Take();
}

void JournalWriter::Append(const JournalRecord& record) {
  BinaryWriter payload;
  WriteJournalRecord(&payload, record);
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  bytes_ += frame.Take();
  bytes_ += payload.bytes();
  BinaryWriter crc;
  crc.PutU32(Crc32(payload.bytes()));
  bytes_ += crc.Take();
  ++num_records_;
}

Result<JournalContents> ReadJournal(const std::string& bytes) {
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss("journal: truncated header");
  }
  if (std::memcmp(bytes.data(), kJournalMagic, kMagicSize) != 0) {
    return Status::Corruption("journal: bad magic");
  }
  BinaryReader header(bytes.data() + kMagicSize, kHeaderSize - kMagicSize);
  CEDR_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kJournalVersion) {
    return Status::Corruption("journal: unsupported format version " +
                              std::to_string(version));
  }
  JournalContents contents;
  CEDR_ASSIGN_OR_RETURN(contents.base_index, header.GetU64());

  size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    // A partial final record is the footprint of a crash mid-append.
    // The call it framed was never acknowledged, so the intact prefix
    // is the complete accepted history: stop cleanly instead of
    // erroring (the classic WAL torn-tail discipline).
    if (bytes.size() - pos < 4) {
      contents.torn_tail = true;
      break;
    }
    BinaryReader len_reader(bytes.data() + pos, 4);
    CEDR_ASSIGN_OR_RETURN(uint32_t len, len_reader.GetU32());
    pos += 4;
    if (bytes.size() - pos < static_cast<size_t>(len) + 4) {
      contents.torn_tail = true;
      break;
    }
    std::string payload(bytes.data() + pos, len);
    pos += len;
    BinaryReader crc_reader(bytes.data() + pos, 4);
    CEDR_ASSIGN_OR_RETURN(uint32_t stored_crc, crc_reader.GetU32());
    pos += 4;
    if (stored_crc != Crc32(payload)) {
      return Status::Corruption("journal: record checksum mismatch");
    }
    BinaryReader record_reader(payload);
    CEDR_ASSIGN_OR_RETURN(JournalRecord record,
                          ReadJournalRecord(&record_reader));
    CEDR_RETURN_NOT_OK(record_reader.ExpectEnd());
    contents.records.push_back(std::move(record));
  }
  return contents;
}

}  // namespace io
}  // namespace cedr
