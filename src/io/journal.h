// Input journal: a write-ahead log of the service's ingress API calls.
//
// Layout:  magic "CEDRWAL1" (8 bytes)
//          u32 format version
//          u64 base index (count of records already folded into the
//              paired snapshot; replay starts after it)
//          records*, each:  u32 payload length
//                           payload bytes (one serialized JournalRecord)
//                           u32 CRC-32 of the payload
//
// A torn tail (a partial final record, the footprint of a crash
// mid-append) is treated as a clean end-of-journal: the intact prefix
// is returned and `torn_tail` is set, because the torn record was by
// definition never acknowledged. A record whose checksum fails is
// kCorruption. Records are appended only after the service has accepted
// the corresponding call, so every journaled record replays cleanly
// against the restored snapshot.
#ifndef CEDR_IO_JOURNAL_H_
#define CEDR_IO_JOURNAL_H_

#include <string>
#include <vector>

#include "io/serde.h"

namespace cedr {
namespace io {

inline constexpr char kJournalMagic[] = "CEDRWAL1";  // 8 chars + NUL
// Version 2 adds the per-source session fields (source, seq) and the
// kEpoch record.
inline constexpr uint32_t kJournalVersion = 2;

enum class JournalOp : uint8_t {
  kRegisterType = 0,
  kRegisterQuery,
  kUnregisterQuery,
  kPublish,
  kRetract,
  kSyncPoint,
  kFinish,
  /// A source-session epoch boundary: source attach (epoch 0, with its
  /// owned event types) or reconnect (epoch bump). Replaying epoch
  /// records restores session fencing state, so a recovered supervisor
  /// rejects stale providers and resumes sequence checking where the
  /// original left off.
  kEpoch,
};

/// One logged ingress call. Which fields are meaningful depends on op:
///   kRegisterType:    name (event type), schema
///   kRegisterQuery:   name (query), text, has_spec / spec
///   kUnregisterQuery: name
///   kPublish:         name (event type), event
///   kRetract:         name (event type), event (id + original ve), new_ve
///   kSyncPoint:       name (event type), time
///   kFinish:          (none)
///   kEpoch:           name (source), seq (epoch number), text
///                     (space-joined owned event types; attach only)
///
/// `source` and `seq` additionally tag every supervised ingress call
/// with the session that produced it and its per-source sequence
/// number; both are empty/zero for unsupervised (CedrService) ingress,
/// and supervisor-synthesized calls carry kSupervisorSource and seq 0.
struct JournalRecord {
  JournalOp op = JournalOp::kPublish;
  std::string name;
  std::string text;
  SchemaPtr schema;
  bool has_spec = false;
  ConsistencySpec spec;
  Event event;
  Time new_ve = 0;
  Time time = 0;
  std::string source;
  uint64_t seq = 0;
};

/// The journaled form of the three ingress calls.
JournalRecord PublishCall(const std::string& type, Event event);
JournalRecord RetractCall(const std::string& type, const Event& original,
                          Time new_end);
JournalRecord SyncCall(const std::string& type, Time t);

/// Append-only writer over an in-memory byte string. The caller owns the
/// bytes (e.g. CedrService keeps them next to its snapshot).
class JournalWriter {
 public:
  JournalWriter() { Reset(0); }

  /// Starts a fresh journal whose records begin at `base_index`.
  void Reset(uint64_t base_index);

  void Append(const JournalRecord& record);

  uint64_t base_index() const { return base_index_; }
  uint64_t num_records() const { return num_records_; }
  /// base_index + num_records: the index the *next* record would get.
  uint64_t next_index() const { return base_index_ + num_records_; }

  const std::string& bytes() const { return bytes_; }
  std::string* mutable_bytes() { return &bytes_; }

 private:
  std::string bytes_;
  uint64_t base_index_ = 0;
  uint64_t num_records_ = 0;
};

/// Parsed journal: header plus all intact records.
struct JournalContents {
  uint64_t base_index = 0;
  std::vector<JournalRecord> records;
  /// True when the bytes ended in a partial record (crash mid-append).
  /// The torn suffix was never acknowledged, so the intact prefix is
  /// the complete history; callers may log the tear but must not fail.
  bool torn_tail = false;
};

/// Parses journal bytes. A truncated header is kDataLoss; bad
/// magic/version or a failed record checksum is kCorruption; a torn
/// final record is a clean end-of-journal (see JournalContents).
Result<JournalContents> ReadJournal(const std::string& bytes);

void WriteJournalRecord(BinaryWriter* w, const JournalRecord& record);
Result<JournalRecord> ReadJournalRecord(BinaryReader* r);

}  // namespace io
}  // namespace cedr

#endif  // CEDR_IO_JOURNAL_H_
