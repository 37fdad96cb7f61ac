// Serialization layer: roundtrips for every domain type, and the typed
// failure modes - truncation is kDataLoss, invalid bytes are
// kCorruption - for readers, the snapshot envelope, and the journal.
#include "io/serde.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "io/journal.h"
#include "io/snapshot.h"
#include "pattern/instance.h"
#include "testing/helpers.h"

namespace cedr {
namespace io {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({
      {"Symbol", ValueType::kString},
      {"Price", ValueType::kDouble},
      {"Volume", ValueType::kInt64},
  });
}

Event TestEvent(EventId id) {
  Row payload(TestSchema(), {Value("SYM"), Value(12.5), Value(int64_t{7})});
  Event e = MakeBitemporalEvent(id, 10, 50, 12, kInfinity, payload);
  e.cs = 14;
  e.k = id;
  e.rt = 10;
  return e;
}

TEST(SerdeTest, PrimitiveRoundtrip) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutBool(false);
  w.PutDouble(3.25);
  w.PutString("hello");
  w.PutString("");

  BinaryReader r(w.bytes());
  EXPECT_EQ(r.GetU8().ValueOrDie(), 0xAB);
  EXPECT_EQ(r.GetU32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64().ValueOrDie(), -42);
  EXPECT_TRUE(r.GetBool().ValueOrDie());
  EXPECT_FALSE(r.GetBool().ValueOrDie());
  EXPECT_EQ(r.GetDouble().ValueOrDie(), 3.25);
  EXPECT_EQ(r.GetString().ValueOrDie(), "hello");
  EXPECT_EQ(r.GetString().ValueOrDie(), "");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, LittleEndianLayout) {
  BinaryWriter w;
  w.PutU32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(w.bytes()[3]), 0x01);
}

TEST(SerdeTest, TruncationIsDataLoss) {
  BinaryWriter w;
  w.PutU64(99);
  std::string bytes = w.Take();
  bytes.resize(5);
  BinaryReader r(bytes);
  Result<uint64_t> got = r.GetU64();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, TruncatedStringBodyIsDataLoss) {
  BinaryWriter w;
  w.PutString("0123456789");
  std::string bytes = w.Take();
  bytes.resize(bytes.size() - 3);
  BinaryReader r(bytes);
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kDataLoss);
}

TEST(SerdeTest, TrailingBytesAreCorruption) {
  BinaryWriter w;
  w.PutU8(1);
  w.PutU8(2);
  BinaryReader r(w.bytes());
  ASSERT_TRUE(r.GetU8().ok());
  Status st = r.ExpectEnd();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(SerdeTest, InvalidBoolIsCorruption) {
  std::string bytes(1, static_cast<char>(7));
  BinaryReader r(bytes);
  EXPECT_EQ(r.GetBool().status().code(), StatusCode::kCorruption);
}

TEST(SerdeTest, Crc32KnownVector) {
  // The standard check value for CRC-32/IEEE.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

TEST(SerdeTest, ValueRoundtrip) {
  std::vector<Value> values = {Value(int64_t{-5}), Value(2.75),
                               Value("text"), Value(true), Value()};
  BinaryWriter w;
  WriteValues(&w, values);
  BinaryReader r(w.bytes());
  std::vector<Value> back = ReadValues(&r).ValueOrDie();
  ASSERT_EQ(back.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(values[i] == back[i]) << i;
  }
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, InvalidValueTagIsCorruption) {
  std::string bytes(1, static_cast<char>(0xEE));
  BinaryReader r(bytes);
  EXPECT_EQ(ReadValue(&r).status().code(), StatusCode::kCorruption);
}

TEST(SerdeTest, SchemaRoundtrip) {
  BinaryWriter w;
  WriteSchema(&w, TestSchema());
  WriteSchema(&w, nullptr);
  BinaryReader r(w.bytes());
  SchemaPtr back = ReadSchema(&r).ValueOrDie();
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->Equals(*TestSchema()));
  EXPECT_EQ(ReadSchema(&r).ValueOrDie(), nullptr);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeTest, EventRoundtripWithLineage) {
  Event a = TestEvent(1);
  Event b = TestEvent(2);
  Event composite = TestEvent(IdGen({1, 2}));
  composite.cbt = {std::make_shared<Event>(a), std::make_shared<Event>(b)};
  composite.rt = 10;

  BinaryWriter w;
  WriteEvent(&w, composite);
  BinaryReader r(w.bytes());
  Event back = ReadEvent(&r).ValueOrDie();
  EXPECT_TRUE(r.ExpectEnd().ok());

  EXPECT_EQ(back.id, composite.id);
  EXPECT_EQ(back.vs, composite.vs);
  EXPECT_EQ(back.ve, composite.ve);
  EXPECT_EQ(back.os, composite.os);
  EXPECT_EQ(back.oe, composite.oe);
  EXPECT_EQ(back.cs, composite.cs);
  EXPECT_EQ(back.ce, composite.ce);
  EXPECT_EQ(back.k, composite.k);
  EXPECT_EQ(back.rt, composite.rt);
  ASSERT_EQ(back.cbt.size(), 2u);
  EXPECT_EQ(back.cbt[0]->id, a.id);
  EXPECT_EQ(back.cbt[1]->id, b.id);
  EXPECT_TRUE(back.payload.schema()->Equals(*composite.payload.schema()));
}

TEST(SerdeTest, NestedCompositeRoundtripIsIdentical) {
  auto share = [](const Event& e) { return std::make_shared<const Event>(e); };
  SchemaPtr pair = Schema::Make({{"a", ValueType::kString},
                                 {"b", ValueType::kDouble},
                                 {"c", ValueType::kInt64},
                                 {"d", ValueType::kString},
                                 {"e", ValueType::kDouble},
                                 {"f", ValueType::kInt64}});
  Event inner =
      MakeCompositeEvent({share(TestEvent(1)), share(TestEvent(2))}, 60, pair);
  Event leaf = TestEvent(3);
  leaf.vs = 30;
  Event outer = MakeCompositeEvent({share(inner), share(leaf)}, 90, nullptr);
  outer.cs = 31;

  BinaryWriter w;
  WriteEvent(&w, outer);
  BinaryReader r(w.bytes());
  Event back = ReadEvent(&r).ValueOrDie();
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_TRUE(testing::IdenticalEvents(back, outer));
  ASSERT_EQ(back.cbt.size(), 2u);
  EXPECT_EQ(back.cbt[0]->cbt.size(), 2u);  // the nested lineage survives

  BinaryWriter again;
  WriteEvent(&again, back);
  EXPECT_EQ(again.bytes(), w.bytes());
}

TEST(SerdeTest, MessageRoundtrip) {
  std::vector<Message> msgs = {
      InsertOf(TestEvent(3), 20),
      RetractOf(TestEvent(3), 30, 21),
      CtiOf(40, 22),
  };
  for (const Message& m : msgs) {
    BinaryWriter w;
    WriteMessage(&w, m);
    BinaryReader r(w.bytes());
    Message back = ReadMessage(&r).ValueOrDie();
    EXPECT_TRUE(r.ExpectEnd().ok());
    EXPECT_EQ(back.kind, m.kind);
    EXPECT_EQ(back.cs, m.cs);
    EXPECT_EQ(back.event.id, m.event.id);
    EXPECT_EQ(back.new_ve, m.new_ve);
    EXPECT_EQ(back.time, m.time);
  }
}

TEST(SerdeTest, InvalidMessageKindIsCorruption) {
  BinaryWriter w;
  WriteMessage(&w, CtiOf(40, 22));
  std::string bytes = w.Take();
  bytes[0] = static_cast<char>(9);  // kind tag is first
  BinaryReader r(bytes);
  EXPECT_EQ(ReadMessage(&r).status().code(), StatusCode::kCorruption);
}

TEST(SerdeTest, SpecAndStatusRoundtrip) {
  for (const ConsistencySpec& spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle(),
        ConsistencySpec::Weak(25)}) {
    BinaryWriter w;
    WriteSpec(&w, spec);
    BinaryReader r(w.bytes());
    EXPECT_TRUE(ReadSpec(&r).ValueOrDie() == spec);
  }
  for (const Status& st :
       {Status::OK(), Status::DataLoss("gone"), Status::Internal("x")}) {
    BinaryWriter w;
    WriteStatus(&w, st);
    BinaryReader r(w.bytes());
    Status back;
    ASSERT_TRUE(ReadStatus(&r, &back).ok());
    EXPECT_EQ(back, st);
  }
}

TEST(SnapshotEnvelopeTest, SealOpenRoundtrip) {
  std::string payload = "the service state";
  std::string sealed = SealSnapshot(payload);
  EXPECT_EQ(OpenSnapshot(sealed).ValueOrDie(), payload);
}

TEST(SnapshotEnvelopeTest, EmptyPayloadRoundtrip) {
  EXPECT_EQ(OpenSnapshot(SealSnapshot("")).ValueOrDie(), "");
}

TEST(SnapshotEnvelopeTest, TruncationIsDataLoss) {
  std::string sealed = SealSnapshot("some payload bytes");
  for (size_t keep : {size_t{0}, size_t{4}, size_t{19}, sealed.size() - 1}) {
    Result<std::string> got = OpenSnapshot(sealed.substr(0, keep));
    ASSERT_FALSE(got.ok()) << keep;
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss) << keep;
  }
}

TEST(SnapshotEnvelopeTest, BadMagicIsCorruption) {
  std::string sealed = SealSnapshot("payload");
  sealed[0] = 'X';
  EXPECT_EQ(OpenSnapshot(sealed).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotEnvelopeTest, FlippedPayloadBitIsCorruption) {
  std::string sealed = SealSnapshot("payload");
  sealed[8 + 4 + 8 + 2] ^= 0x10;  // inside the payload
  EXPECT_EQ(OpenSnapshot(sealed).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotEnvelopeTest, UnsupportedVersionIsCorruption) {
  std::string sealed = SealSnapshot("payload");
  sealed[8] = 99;  // version field follows the magic
  EXPECT_EQ(OpenSnapshot(sealed).status().code(), StatusCode::kCorruption);
}

io::JournalRecord PublishRecord(EventId id) {
  io::JournalRecord rec;
  rec.op = JournalOp::kPublish;
  rec.name = "TRADE";
  rec.event = TestEvent(id);
  return rec;
}

TEST(JournalTest, AppendReadRoundtrip) {
  JournalWriter writer;
  writer.Reset(7);
  writer.Append(PublishRecord(1));

  io::JournalRecord sync;
  sync.op = JournalOp::kSyncPoint;
  sync.name = "TRADE";
  sync.time = 55;
  writer.Append(sync);

  io::JournalRecord reg;
  reg.op = JournalOp::kRegisterQuery;
  reg.name = "Q";
  reg.text = "EVENT Q\nWHEN TRADE AS t";
  reg.has_spec = true;
  reg.spec = ConsistencySpec::Weak(10);
  writer.Append(reg);

  EXPECT_EQ(writer.base_index(), 7u);
  EXPECT_EQ(writer.num_records(), 3u);
  EXPECT_EQ(writer.next_index(), 10u);

  JournalContents contents = ReadJournal(writer.bytes()).ValueOrDie();
  EXPECT_EQ(contents.base_index, 7u);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0].op, JournalOp::kPublish);
  EXPECT_EQ(contents.records[0].event.id, 1u);
  EXPECT_EQ(contents.records[1].op, JournalOp::kSyncPoint);
  EXPECT_EQ(contents.records[1].time, 55);
  EXPECT_EQ(contents.records[2].op, JournalOp::kRegisterQuery);
  EXPECT_EQ(contents.records[2].text, reg.text);
  ASSERT_TRUE(contents.records[2].has_spec);
  EXPECT_TRUE(contents.records[2].spec == reg.spec);
}

TEST(JournalTest, EmptyJournalRoundtrip) {
  JournalWriter writer;
  JournalContents contents = ReadJournal(writer.bytes()).ValueOrDie();
  EXPECT_EQ(contents.base_index, 0u);
  EXPECT_TRUE(contents.records.empty());
}

TEST(JournalTest, TornTailIsCleanEndOfJournal) {
  // A crash mid-append leaves a partial final record. That is the
  // expected shape of a write-ahead log after power loss, not damage:
  // the intact prefix is the journal.
  JournalWriter writer;
  writer.Append(PublishRecord(1));
  writer.Append(PublishRecord(2));
  std::string bytes = writer.bytes();
  // Cut into the middle of the last record.
  bytes.resize(bytes.size() - 5);
  JournalContents contents = ReadJournal(bytes).ValueOrDie();
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_EQ(contents.records[0].event.id, 1u);
  EXPECT_TRUE(contents.torn_tail);
}

TEST(JournalTest, TornLengthPrefixIsCleanEndOfJournal) {
  JournalWriter single;
  single.Append(PublishRecord(1));
  JournalWriter writer;
  writer.Append(PublishRecord(1));
  writer.Append(PublishRecord(2));
  // Leave only part of the second record's length prefix.
  std::string bytes = writer.bytes();
  bytes.resize(single.bytes().size() + 2);
  JournalContents contents = ReadJournal(bytes).ValueOrDie();
  ASSERT_EQ(contents.records.size(), 1u);
  EXPECT_TRUE(contents.torn_tail);
}

TEST(JournalTest, IntactJournalReportsNoTornTail) {
  JournalWriter writer;
  writer.Append(PublishRecord(1));
  JournalContents contents = ReadJournal(writer.bytes()).ValueOrDie();
  EXPECT_FALSE(contents.torn_tail);
}

TEST(JournalTest, SessionFieldsRoundtrip) {
  JournalWriter writer;
  io::JournalRecord rec = PublishRecord(4);
  rec.source = "sensor-7";
  rec.seq = 41;
  writer.Append(rec);

  io::JournalRecord epoch;
  epoch.op = JournalOp::kEpoch;
  epoch.name = "sensor-7";
  epoch.seq = 2;
  epoch.text = "TRADE QUOTE";
  writer.Append(epoch);

  JournalContents contents = ReadJournal(writer.bytes()).ValueOrDie();
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].source, "sensor-7");
  EXPECT_EQ(contents.records[0].seq, 41u);
  EXPECT_EQ(contents.records[1].op, JournalOp::kEpoch);
  EXPECT_EQ(contents.records[1].seq, 2u);
  EXPECT_EQ(contents.records[1].text, "TRADE QUOTE");
}

TEST(JournalTest, TruncatedHeaderIsDataLoss) {
  JournalWriter writer;
  std::string bytes = writer.bytes();
  bytes.resize(6);
  EXPECT_EQ(ReadJournal(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(JournalTest, FlippedRecordBitIsCorruption) {
  JournalWriter writer;
  writer.Append(PublishRecord(1));
  std::string bytes = writer.bytes();
  // Flip a bit inside the record payload (past header + length prefix).
  bytes[8 + 4 + 8 + 4 + 3] ^= 0x04;
  EXPECT_EQ(ReadJournal(bytes).status().code(), StatusCode::kCorruption);
}

TEST(JournalTest, BadMagicIsCorruption) {
  JournalWriter writer;
  std::string bytes = writer.bytes();
  bytes[3] = 'x';
  EXPECT_EQ(ReadJournal(bytes).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotFileTest, SaveLoadRoundtrip) {
  const std::string path = ::testing::TempDir() + "cedr_snapshot_rt.bin";
  std::string sealed = SealSnapshot("the state");
  ASSERT_TRUE(SaveSnapshotFile(path, sealed).ok());
  std::string loaded = LoadSnapshotFile(path).ValueOrDie();
  EXPECT_EQ(loaded, sealed);
  EXPECT_EQ(OpenSnapshot(loaded).ValueOrDie(), "the state");
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, OverwriteIsAtomicReplacement) {
  // A new snapshot lands via temp-file + rename: after a successful
  // Save the old content is fully replaced, and no ".tmp" residue is
  // left behind to be mistaken for state.
  const std::string path = ::testing::TempDir() + "cedr_snapshot_ow.bin";
  ASSERT_TRUE(SaveSnapshotFile(path, SealSnapshot("old")).ok());
  ASSERT_TRUE(SaveSnapshotFile(path, SealSnapshot("new")).ok());
  EXPECT_EQ(OpenSnapshot(LoadSnapshotFile(path).ValueOrDie()).ValueOrDie(),
            "new");
  EXPECT_EQ(LoadSnapshotFile(path + ".tmp").status().code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileIsDataLoss) {
  EXPECT_EQ(LoadSnapshotFile(::testing::TempDir() + "cedr_no_such_snap.bin")
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(SnapshotFileTest, UnwritablePathFailsWithoutClobbering) {
  // Saving into a directory that does not exist fails cleanly; nothing
  // is created at the destination.
  const std::string path =
      ::testing::TempDir() + "cedr_missing_dir/snap.bin";
  EXPECT_FALSE(SaveSnapshotFile(path, SealSnapshot("x")).ok());
  EXPECT_FALSE(LoadSnapshotFile(path).ok());
}

}  // namespace
}  // namespace io
}  // namespace cedr
