// Snapshot envelope: versioned, checksummed framing for durable state.
//
// Layout:  magic "CEDRSNP1" (8 bytes)
//          u32 format version
//          u64 payload length
//          payload bytes
//          u32 CRC-32 of the payload
//
// OpenSnapshot distinguishes the two failure modes the recovery path
// cares about: bytes missing (truncation -> kDataLoss) versus bytes
// present but wrong (bad magic/version/checksum -> kCorruption).
#ifndef CEDR_IO_SNAPSHOT_H_
#define CEDR_IO_SNAPSHOT_H_

#include <string>

#include "io/serde.h"

namespace cedr {
namespace io {

inline constexpr char kSnapshotMagic[] = "CEDRSNP1";  // 8 chars + NUL
/// 3: a CedrService query frame holds plan state alone
/// (CompiledQuery::SnapshotPlan), without the sink's output log.
/// 4: a NegationOp candidate writes its lineage once, and ATMOST is a
/// NegationOp.
/// 5: a PatternOp writes its composites once, and each candidate names
/// the composites it is part of, with a consumed flag.
inline constexpr uint32_t kSnapshotVersion = 5;

/// Wraps a serialized payload in the versioned, checksummed envelope.
std::string SealSnapshot(const std::string& payload);

/// Validates the envelope and returns the payload. Truncated input is
/// kDataLoss; bad magic, unsupported version, or checksum mismatch is
/// kCorruption.
Result<std::string> OpenSnapshot(const std::string& bytes);

/// Crash-atomically persists sealed snapshot bytes to `path`: the bytes
/// are written to `path + ".tmp"`, flushed, and renamed into place.
/// rename(2) replaces the destination atomically, so a crash at any
/// point leaves either the previous snapshot or the new one - never a
/// half-written file as the latest snapshot. A stale `.tmp` from an
/// earlier crash is simply overwritten.
Status SaveSnapshotFile(const std::string& path, const std::string& sealed);

/// Reads snapshot bytes written by SaveSnapshotFile. A missing file is
/// kDataLoss (crash before the first save, or the artifact was lost);
/// the bytes are returned as-is for OpenSnapshot to validate.
Result<std::string> LoadSnapshotFile(const std::string& path);

}  // namespace io
}  // namespace cedr

#endif  // CEDR_IO_SNAPSHOT_H_
