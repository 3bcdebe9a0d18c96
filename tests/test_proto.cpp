// Wire-protocol round-trip tests for the event system's message formats.
#include <gtest/gtest.h>

#include "core/proto.hpp"

namespace ompc::core {
namespace {

TEST(Proto, EventAnnounceRoundTrip) {
  EventAnnounce a;
  a.kind = EventKind::Submit;
  a.tag = 12345;
  a.origin = 3;
  ArchiveWriter h;
  h.put(SubmitHeader{0xDEAD, 4096});
  a.header = h.take();

  const Bytes wire = a.serialize();
  const EventAnnounce b = EventAnnounce::deserialize(wire);
  EXPECT_EQ(b.kind, EventKind::Submit);
  EXPECT_EQ(b.tag, 12345);
  EXPECT_EQ(b.origin, 3);
  ArchiveReader r(b.header);
  const auto hdr = r.get<SubmitHeader>();
  EXPECT_EQ(hdr.dst, 0xDEADu);
  EXPECT_EQ(hdr.size, 4096u);
}

TEST(Proto, EmptyHeaderAnnounce) {
  EventAnnounce a;
  a.kind = EventKind::Shutdown;
  a.tag = 0;
  a.origin = 0;
  const EventAnnounce b = EventAnnounce::deserialize(a.serialize());
  EXPECT_EQ(b.kind, EventKind::Shutdown);
  EXPECT_TRUE(b.header.empty());
}

TEST(Proto, CompletionCarriesResult) {
  EventCompletion c;
  c.tag = 777;
  ArchiveWriter w;
  w.put<std::uint64_t>(0xABCDEF);
  c.result = w.take();
  const EventCompletion d = EventCompletion::deserialize(c.serialize());
  EXPECT_EQ(d.tag, 777);
  ArchiveReader r(d.result);
  EXPECT_EQ(r.get<std::uint64_t>(), 0xABCDEFu);
}

TEST(Proto, ExecuteHeaderRoundTrip) {
  ExecuteHeader h;
  h.kernel = 42;
  h.buffers = {1, 2, 3, 0xFFFFFFFFFFFFull};
  ArchiveWriter s;
  s.put<double>(2.5);
  s.put<int>(-1);
  h.scalars = s.take();

  const ExecuteHeader g = ExecuteHeader::deserialize(h.serialize());
  EXPECT_EQ(g.kernel, 42u);
  EXPECT_EQ(g.buffers, h.buffers);
  ArchiveReader r(g.scalars);
  EXPECT_DOUBLE_EQ(r.get<double>(), 2.5);
  EXPECT_EQ(r.get<int>(), -1);
}

TEST(Proto, ExecuteHeaderEmptyArgs) {
  ExecuteHeader h;
  h.kernel = 1;
  const ExecuteHeader g = ExecuteHeader::deserialize(h.serialize());
  EXPECT_TRUE(g.buffers.empty());
  EXPECT_TRUE(g.scalars.empty());
}

TEST(Proto, TruncatedAnnounceThrows) {
  EventAnnounce a;
  a.kind = EventKind::Alloc;
  a.tag = 5;
  a.origin = 1;
  ArchiveWriter h;
  h.put(AllocHeader{64});
  a.header = h.take();
  Bytes wire = a.serialize();
  wire.resize(wire.size() / 2);
  EXPECT_THROW(EventAnnounce::deserialize(wire), CheckError);
}

TEST(Proto, EventKindNamesAreDistinct) {
  std::set<std::string> names;
  for (EventKind k :
       {EventKind::Alloc, EventKind::Delete, EventKind::Submit,
        EventKind::Retrieve, EventKind::Execute, EventKind::Shutdown,
        EventKind::RankDead, EventKind::SnapshotSave, EventKind::SnapshotDrop,
        EventKind::SnapshotFetch, EventKind::RmaPut, EventKind::HeadState,
        EventKind::TrimHeap}) {
    EXPECT_TRUE(names.insert(to_string(k)).second);
  }
  EXPECT_EQ(names.size(), 13u);
}

}  // namespace
}  // namespace ompc::core
