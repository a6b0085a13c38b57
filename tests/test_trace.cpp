// Unit tests for the flight-recorder trace layer (src/trace): hash
// stability, component masking, the scoped current-recorder mechanism,
// the stable binary encoding (round-trip, corruption rejection, file
// save/load), the typed field lookups, and the structural differ.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/diff.hpp"
#include "trace/trace.hpp"

namespace riv {
namespace {

using namespace riv::trace;

// The header and S value of the fourth sample record (the ingest), so a
// test can perturb one field at a time.
struct Ingest {
  TimePoint at{3000};
  ProcessId process{1};
  Kind kind{Kind::kIngest};
  ProvenanceId prov{1, 0};
  std::uint64_t seen{1};
};

// Five records through the typed append API the emit sites use.
void append_samples(Recorder& rec, const Ingest& ingest = {}) {
  rec.append(TimePoint{0}, ProcessId{0}, Component::kSim, Kind::kTimerFire,
             fu(Key::kTimer, 1));
  rec.append(TimePoint{1000}, ProcessId{1}, Component::kNet, Kind::kSend,
             fs(Key::kType, "keepalive"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{2}));
  rec.append(TimePoint{2500}, ProcessId{2}, Component::kNet, Kind::kRecv,
             fs(Key::kType, "keepalive"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{2}));
  rec.append(ingest.at, ingest.process, Component::kDelivery, ingest.kind,
             ingest.prov, fu(Key::kApp, 1),
             fe(Key::kEvent, EventId{SensorId{1}, 0}),
             fu(Key::kSeen, ingest.seen), fu(Key::kNeed, 3));
  rec.append(TimePoint{3000}, ProcessId{1}, Component::kRuntime,
             Kind::kDeliver, ProvenanceId{1, 0}, fu(Key::kApp, 1),
             fe(Key::kEvent, EventId{SensorId{1}, 0}));
}

std::vector<Record> sample_records(const Ingest& ingest = {}) {
  Recorder rec;
  append_samples(rec, ingest);
  return rec.records();
}

TEST(TraceRecorderTest, HashIsStableAcrossIdenticalAppends) {
  Recorder a, b;
  append_samples(a);
  append_samples(b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.records(), b.records());
}

TEST(TraceRecorderTest, HashIsSensitiveToEveryField) {
  Recorder ref;
  append_samples(ref);

  auto hash_with = [](const Ingest& changed) {
    Recorder rec;
    append_samples(rec, changed);
    return rec.hash();
  };

  Ingest r;
  r.at = r.at + Duration{1};
  EXPECT_NE(hash_with(r), ref.hash());
  r = Ingest{};
  r.process = ProcessId{9};
  EXPECT_NE(hash_with(r), ref.hash());
  r = Ingest{};
  r.kind = Kind::kFallback;
  EXPECT_NE(hash_with(r), ref.hash());
  r = Ingest{};
  r.seen = 2;
  EXPECT_NE(hash_with(r), ref.hash());
  r = Ingest{};
  r.prov = ProvenanceId{2, 7};
  EXPECT_NE(hash_with(r), ref.hash());
}

TEST(TraceRecorderTest, MaskDropsUnwantedComponents) {
  Recorder rec(component_bit(Component::kDelivery) |
               component_bit(Component::kRuntime));
  append_samples(rec);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.records()[0].kind, Kind::kIngest);
  EXPECT_EQ(rec.records()[1].kind, Kind::kDeliver);
  EXPECT_FALSE(rec.wants(Component::kNet));
  EXPECT_TRUE(rec.wants(Component::kDelivery));
}

TEST(TraceRecorderTest, EncodeDecodeRoundTrips) {
  Recorder rec;
  append_samples(rec);
  std::vector<std::byte> buf = rec.encode();

  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(buf, &back, &err)) << err;
  EXPECT_EQ(back.records(), rec.records());
  EXPECT_EQ(back.hash(), rec.hash());
}

TEST(TraceRecorderTest, DecodeRejectsCorruptInput) {
  Recorder rec;
  append_samples(rec);
  std::vector<std::byte> buf = rec.encode();

  Recorder back;
  std::string err;

  // Bad magic.
  std::vector<std::byte> bad = buf;
  bad[0] = std::byte{'X'};
  EXPECT_FALSE(Recorder::decode(bad, &back, &err));

  // Every strict prefix is rejected (truncated records or footer).
  for (std::size_t n = 0; n < buf.size(); ++n) {
    std::vector<std::byte> prefix(buf.begin(),
                                  buf.begin() + static_cast<long>(n));
    EXPECT_FALSE(Recorder::decode(prefix, &back, &err)) << "prefix " << n;
  }

  // A flipped payload byte breaks the footer hash.
  bad = buf;
  bad[buf.size() / 2] ^= std::byte{0x01};
  EXPECT_FALSE(Recorder::decode(bad, &back, &err));
}

TEST(TraceRecorderTest, SaveLoadRoundTripsThroughDisk) {
  Recorder rec;
  append_samples(rec);

  std::string path =
      testing::TempDir() + "/riv_trace_roundtrip.rivtrace";
  std::string err;
  ASSERT_TRUE(rec.save(path, &err)) << err;

  Recorder back;
  ASSERT_TRUE(Recorder::load(path, &back, &err)) << err;
  EXPECT_EQ(back.records(), rec.records());
  EXPECT_EQ(back.digest(), rec.digest());
  std::remove(path.c_str());
}

TEST(TraceScopeTest, EmitIsANoOpWithoutARecorder) {
  ASSERT_EQ(current(), nullptr);
  EXPECT_FALSE(active(Component::kSim));
  emit_text(TimePoint{1}, ProcessId{1}, Component::kSim, Kind::kMark,
            "lost");
  EXPECT_EQ(current(), nullptr);
}

TEST(TraceScopeTest, ScopeInstallsAndNestingRestores) {
  Recorder outer, inner(component_bit(Component::kChaos));
  {
    Scope s1(outer);
    EXPECT_EQ(current(), &outer);
    EXPECT_TRUE(active(Component::kNet));
    emit_text(TimePoint{1}, ProcessId{1}, Component::kNet, Kind::kSend,
              "a");
    {
      Scope s2(inner);
      EXPECT_EQ(current(), &inner);
      EXPECT_FALSE(active(Component::kNet));  // masked out in inner
      emit_text(TimePoint{2}, ProcessId{1}, Component::kNet, Kind::kSend,
                "b");
      emit_text(TimePoint{3}, ProcessId{0}, Component::kChaos,
                Kind::kFault, "c");
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
  ASSERT_EQ(outer.size(), 1u);
  EXPECT_EQ(outer.records()[0].detail(), "a");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner.records()[0].detail(), "c");
}

// The typed variadic emit API must render exactly the canonical
// "key=value" detail strings the v2 recorder stored eagerly — every
// value type in the key table is exercised here.
TEST(TraceRecorderTest, TypedFieldsRenderCanonicalDetails) {
  Recorder rec;
  rec.append(TimePoint{10}, ProcessId{0}, Component::kSim,
             Kind::kTimerFire, fu(Key::kTimer, 42));
  rec.append(TimePoint{20}, ProcessId{1}, Component::kNet, Kind::kSend,
             fs(Key::kType, "keepalive"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{2}));
  rec.append(TimePoint{30}, ProcessId{2}, Component::kNet, Kind::kDrop,
             fs(Key::kType, "ring_event"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{2}), fs(Key::kReason, "edge_loss"));
  rec.append(TimePoint{40}, ProcessId{0}, Component::kNet, Kind::kLink,
             fs(Key::kText, "edge_delay"), fp(Key::kSrc, ProcessId{1}),
             fp(Key::kDst, ProcessId{3}), fi(Key::kExtraUs, -250));
  rec.append(TimePoint{50}, ProcessId{1}, Component::kDelivery,
             Kind::kIngest, ProvenanceId{1, 7},
             fu(Key::kApp, 1), fe(Key::kEvent, EventId{SensorId{1}, 7}),
             fs(Key::kSrcName, "device"), fu(Key::kSeen, 1),
             fu(Key::kNeed, 3));
  rec.append(TimePoint{60}, ProcessId{0}, Component::kDevice,
             Kind::kActuated, ProvenanceId{1, 7},
             fc(Key::kCmd, CommandId{ProcessId{2}, 9}),
             fa(Key::kActuator, ActuatorId{4}), fu(Key::kAccepted, 1),
             fu(Key::kDup, 0));
  std::vector<ProcessId> view{ProcessId{1}, ProcessId{2}, ProcessId{3}};
  rec.append(TimePoint{70}, ProcessId{1}, Component::kMembership,
             Kind::kView, fv(Key::kView, view));
  rec.append(TimePoint{80}, ProcessId{0}, Component::kChaos, Kind::kFault,
             fu(Key::kFaultId, 3), fs(Key::kText, "crash p2 (noop)"));
  rec.append(TimePoint{90}, ProcessId{0}, Component::kRuntime,
             Kind::kCrash);

  std::vector<Record> rs = rec.records();
  ASSERT_EQ(rs.size(), 9u);
  EXPECT_EQ(rs[0].detail(), "timer=42");
  EXPECT_EQ(rs[1].detail(), "type=keepalive src=p1 dst=p2");
  EXPECT_EQ(rs[2].detail(),
            "type=ring_event src=p1 dst=p2 reason=edge_loss");
  EXPECT_EQ(rs[3].detail(), "edge_delay src=p1 dst=p3 extra_us=-250");
  EXPECT_EQ(rs[4].detail(), "app=1 event=s1#7 src=device S=1 V=3");
  EXPECT_EQ(rs[4].prov, (ProvenanceId{1, 7}));
  EXPECT_EQ(rs[5].detail(), "cmd=p2!9 actuator=a4 accepted=1 dup=0");
  EXPECT_EQ(rs[6].detail(), "view=p1+p2+p3");
  EXPECT_EQ(rs[7].detail(), "id=3 crash p2 (noop)");
  EXPECT_EQ(rs[8].detail(), "");
  for (const Record& r : rs) {
    EXPECT_EQ(r.at.us % 10, 0);
  }
  // The packed trace round-trips through encode/decode unchanged.
  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
  EXPECT_EQ(back.records(), rs);
  EXPECT_EQ(back.encode(), rec.encode());
}

// A Record is decoded from packed bytes, never built from detail text.
static_assert(!std::is_constructible_v<Record, TimePoint, ProcessId,
                                       Component, Kind, ProvenanceId,
                                       std::string>);

// kSrc (a pid) and kSrcName (a string) both render as "src=", but the
// typed lookups resolve each only by its own key id.
TEST(TraceRecordLookupTest, SrcAndSrcNameResolveByKeyNotByName) {
  Recorder rec;
  rec.append(TimePoint{1}, ProcessId{1}, Component::kDelivery, Kind::kIngest,
             fp(Key::kSrc, ProcessId{3}), fs(Key::kSrcName, "device"));
  Record r = rec.records().at(0);
  EXPECT_EQ(r.detail(), "src=p3 src=device");
  EXPECT_EQ(r.pid(Key::kSrc), ProcessId{3});
  EXPECT_EQ(r.str(Key::kSrcName), "device");
  // A lookup of the wrong type reads as absent, not as the other key.
  EXPECT_EQ(r.str(Key::kSrc), "");
  EXPECT_EQ(r.u64(Key::kSrc), 0u);
}

// A missing key reads as 0 / ProcessId{0} / "", as the string parser did.
TEST(TraceRecordLookupTest, MissingKeyReadsAsZero) {
  Recorder rec;
  rec.append(TimePoint{1}, ProcessId{1}, Component::kRuntime, Kind::kDeliver,
             fu(Key::kApp, 4));
  rec.append(TimePoint{2}, ProcessId{1}, Component::kRuntime, Kind::kCrash);
  std::vector<Record> rs = rec.records();
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_TRUE(rs[0].has(Key::kApp));
  EXPECT_EQ(rs[0].u64(Key::kApp), 4u);
  EXPECT_FALSE(rs[0].has(Key::kFaultId));
  EXPECT_EQ(rs[0].u64(Key::kFaultId), 0u);
  EXPECT_EQ(rs[0].pid(Key::kDst), ProcessId{0});
  EXPECT_EQ(rs[0].str(Key::kType), "");
  EXPECT_FALSE(rs[1].has(Key::kApp));
  EXPECT_EQ(rs[1].u64(Key::kApp), 0u);
  EXPECT_EQ(rs[1].str(Key::kText), "");
  EXPECT_EQ(rs[1].detail(), "");
}

// Free text that looks like "key=value" tokens renders indistinguishably
// from real fields, but cannot shadow them: lookups go by key id.
TEST(TraceRecordLookupTest, TextWithSpacesAndEqualsDoesNotShadowKeys) {
  Recorder rec;
  rec.append(TimePoint{1}, ProcessId{0}, Component::kChaos, Kind::kFault,
             fs(Key::kText, "id=99 type=forged src=p9 app=7"),
             fu(Key::kFaultId, 3), fs(Key::kType, "ring_event"),
             fp(Key::kSrc, ProcessId{1}), fu(Key::kApp, 2));
  Record r = rec.records().at(0);
  EXPECT_EQ(r.detail(),
            "id=99 type=forged src=p9 app=7 id=3 type=ring_event src=p1 "
            "app=2");
  EXPECT_EQ(r.u64(Key::kFaultId), 3u);
  EXPECT_EQ(r.str(Key::kType), "ring_event");
  EXPECT_EQ(r.pid(Key::kSrc), ProcessId{1});
  EXPECT_EQ(r.u64(Key::kApp), 2u);
  EXPECT_EQ(r.str(Key::kText), "id=99 type=forged src=p9 app=7");
}

// A key that appears twice resolves to its first field.
TEST(TraceRecordLookupTest, RepeatedKeyResolvesToFirstField) {
  Recorder rec;
  rec.append(TimePoint{1}, ProcessId{1}, Component::kRuntime, Kind::kMark,
             fs(Key::kText, "a b"), fu(Key::kApp, 5), fs(Key::kText, "c"),
             fu(Key::kApp, 6));
  Record r = rec.records().at(0);
  EXPECT_EQ(r.u64(Key::kApp), 5u);
  EXPECT_EQ(r.str(Key::kText), "a b");
  EXPECT_EQ(r.detail(), "a b app=5 c app=6");
}

// Old-format traces must be refused with an actionable message, not a
// generic parse error (satellite of the v3 migration).
TEST(TraceRecorderTest, RejectsOldFormatVersionsWithExactMessage) {
  for (std::uint32_t old : {1u, 2u}) {
    std::vector<std::byte> buf;
    for (char c : {'R', 'I', 'V', 'T'}) buf.push_back(std::byte(c));
    for (int i = 0; i < 4; ++i)
      buf.push_back(static_cast<std::byte>((old >> (8 * i)) & 0xff));
    buf.resize(buf.size() + 16);  // stale count/records bytes
    Recorder back;
    std::string err;
    ASSERT_FALSE(Recorder::decode(buf, &back, &err));
    EXPECT_EQ(err, "unsupported trace version " + std::to_string(old) +
                       " (this build reads 3)");
  }
}

TEST(TraceRecorderTest, TrailingGarbageAfterFooterIsRejected) {
  Recorder rec;
  append_samples(rec);
  std::vector<std::byte> buf = rec.encode();
  buf.push_back(std::byte{0x00});
  Recorder back;
  std::string err;
  EXPECT_FALSE(Recorder::decode(buf, &back, &err));
  EXPECT_NE(err.find("trailing"), std::string::npos);
}

TEST(TraceRecorderTest, AppendAfterLoadExtendsTheTrace) {
  Recorder rec;
  append_samples(rec);
  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
  back.append(TimePoint{9999}, ProcessId{2}, Component::kRuntime,
              Kind::kPromote, fu(Key::kApp, 1));
  std::vector<Record> rs = back.records();
  ASSERT_EQ(rs.size(), sample_records().size() + 1);
  EXPECT_EQ(rs.back().detail(), "app=1");
  EXPECT_EQ(rs.back().at.us, 9999);
}

// Ring mode: bounded memory, most recent records retained, and the
// trimmed trace still encodes/decodes as a valid v3 file.
TEST(TraceRecorderTest, RingModeKeepsTheMostRecentRecords) {
  Recorder rec;
  rec.set_ring_limit(64 * 1024);  // one chunk's worth
  // Each record carries a fat payload so several 64KB chunks fill up.
  std::string pad(200, 'x');
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    rec.append(TimePoint{i}, ProcessId{1}, Component::kChaos, Kind::kMark,
               fs(Key::kText, pad), fu(Key::kFaultId,
                                       static_cast<std::uint64_t>(i)));
  }
  EXPECT_GT(rec.dropped_records(), 0u);
  EXPECT_EQ(rec.size() + rec.dropped_records(),
            static_cast<std::uint64_t>(kN));
  EXPECT_LE(rec.payload_bytes(), 2u * 64 * 1024);  // ring + open chunk
  std::vector<Record> rs = rec.records();
  ASSERT_EQ(rs.size(), rec.size());
  // The retained suffix ends at the newest record and is contiguous.
  EXPECT_EQ(rs.back().at.us, kN - 1);
  for (std::size_t i = 1; i < rs.size(); ++i)
    EXPECT_EQ(rs[i].at.us, rs[i - 1].at.us + 1);
  Recorder back;
  std::string err;
  ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
  EXPECT_EQ(back.records(), rs);
}

// Streaming sink: the file written incrementally must be byte-identical
// to what an in-memory recorder fed the same records would encode().
TEST(TraceRecorderTest, StreamingSinkMatchesInMemoryEncoding) {
  std::string path = testing::TempDir() + "/riv_trace_stream.rivtrace";
  Recorder streamed;
  std::string err;
  ASSERT_TRUE(streamed.stream_to(path, &err)) << err;
  Recorder memory;
  std::string pad(100, 'y');
  for (int i = 0; i < 3000; ++i) {  // spans multiple flushed chunks
    streamed.append(TimePoint{i * 10}, ProcessId{1}, Component::kDelivery,
                    Kind::kIngest, fu(Key::kApp, 1),
                    fs(Key::kSrcName, pad));
    memory.append(TimePoint{i * 10}, ProcessId{1}, Component::kDelivery,
                  Kind::kIngest, fu(Key::kApp, 1),
                  fs(Key::kSrcName, pad));
  }
  // While streaming, memory stays bounded to roughly one chunk.
  EXPECT_TRUE(streamed.streaming());
  ASSERT_TRUE(streamed.finish(&err)) << err;
  EXPECT_EQ(streamed.hash(), memory.hash());

  std::vector<std::byte> expected = memory.encode();
  Recorder back;
  ASSERT_TRUE(Recorder::load(path, &back, &err)) << err;
  EXPECT_EQ(back.encode(), expected);
  EXPECT_EQ(back.records(), memory.records());
  EXPECT_EQ(back.hash(), memory.hash());
  std::remove(path.c_str());
}

TEST(TraceDiffTest, IdenticalTracesDiffClean) {
  std::vector<Record> a = sample_records();
  Divergence d = diff(a, a);
  EXPECT_TRUE(d.identical);
  EXPECT_NE(render(a, a, d).find("traces identical"), std::string::npos);
}

TEST(TraceDiffTest, ReportsFirstDivergentFieldAndIndex) {
  std::vector<Record> a = sample_records();
  Ingest changed;
  changed.seen = 2;  // "app=1 event=s1#0 S=2 V=3"
  std::vector<Record> b = sample_records(changed);
  b[4].at = b[4].at + Duration{77};  // later difference must not mask it

  Divergence d = diff(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_EQ(d.index, 3u);
  EXPECT_EQ(d.field, "detail");

  std::string report = render(a, b, d, 2);
  EXPECT_NE(report.find("first divergence at record 3"), std::string::npos);
  EXPECT_NE(report.find("field: detail"), std::string::npos);
  EXPECT_NE(report.find("S=1"), std::string::npos);
  EXPECT_NE(report.find("S=2"), std::string::npos);
}

TEST(TraceDiffTest, PrefixTraceReportsLengthDivergence) {
  std::vector<Record> a = sample_records();
  std::vector<Record> b(a.begin(), a.begin() + 3);
  Divergence d = diff(a, b);
  ASSERT_FALSE(d.identical);
  EXPECT_EQ(d.index, 3u);
  EXPECT_EQ(d.field, "length");
  EXPECT_NE(render(a, b, d).find("<end of trace: 3 records>"),
            std::string::npos);
}

}  // namespace
}  // namespace riv
