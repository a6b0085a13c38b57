// Packed trace-stream (v3) property and fuzz tests.
//
// The flight recorder's on-disk format is a packed, typed byte stream
// decoded by hand-rolled bounds-checked readers. These tests hammer the
// decoder: random byte soup never crashes; every strict prefix of a
// valid multi-chunk encoding is rejected; targeted mutations (bad key
// ids, bad flags, flipped payload bytes) are rejected cleanly; and a
// round-trip property check proves every Kind/key combination renders
// through pack→decode exactly like the legacy eagerly-formatted detail.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "trace/format.hpp"
#include "trace/trace.hpp"

namespace riv {
namespace trace {
namespace {

std::vector<std::byte> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::byte> buf(n);
  for (std::size_t i = 0; i < n; ++i)
    buf[i] = static_cast<std::byte>(rng() & 0xff);
  return buf;
}

// Random byte soup must be rejected (or, astronomically unlikely,
// accepted) without crashing or reading out of bounds. ASAN builds make
// this meaningfully stronger.
TEST(TraceFuzzTest, RandomBytesNeverCrashDecode) {
  std::mt19937_64 rng(0x5eed0001);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> buf = random_bytes(rng, rng() % 256);
    Recorder out;
    std::string err;
    (void)Recorder::decode(buf, &out, &err);
  }
}

// Same, but starting from a valid header so the record-walking loop is
// actually reached instead of bailing at the magic check.
TEST(TraceFuzzTest, RandomPayloadAfterValidHeaderNeverCrashes) {
  std::mt19937_64 rng(0x5eed0002);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> buf;
    for (char c : {'R', 'I', 'V', 'T'}) buf.push_back(std::byte(c));
    buf.push_back(std::byte{3});
    buf.push_back(std::byte{0});
    buf.push_back(std::byte{0});
    buf.push_back(std::byte{0});
    std::vector<std::byte> soup = random_bytes(rng, rng() % 200);
    buf.insert(buf.end(), soup.begin(), soup.end());
    Recorder out;
    std::string err;
    (void)Recorder::decode(buf, &out, &err);
  }
}

Recorder build_sample(std::mt19937_64& rng, int n_records) {
  Recorder rec;
  std::int64_t t = 0;
  for (int i = 0; i < n_records; ++i) {
    t += static_cast<std::int64_t>(rng() % 100000);
    ProcessId p{static_cast<std::uint16_t>(rng() % 8)};
    switch (rng() % 5) {
      case 0:
        rec.append(TimePoint{t}, p, Component::kSim, Kind::kTimerFire,
                   fu(Key::kTimer, rng() % 1000));
        break;
      case 1:
        rec.append(TimePoint{t}, p, Component::kNet, Kind::kSend,
                   fs(Key::kType, "ring_event"),
                   fp(Key::kSrc, ProcessId{1}), fp(Key::kDst, p));
        break;
      case 2:
        rec.append(
            TimePoint{t}, p, Component::kDelivery, Kind::kIngest,
            ProvenanceId{static_cast<std::uint16_t>(1 + rng() % 4),
                         static_cast<std::uint32_t>(rng() % 10000)},
            fu(Key::kApp, 1),
            fe(Key::kEvent,
               EventId{SensorId{1}, static_cast<std::uint32_t>(i)}),
            fs(Key::kSrcName, "device"));
        break;
      case 3:
        rec.append(TimePoint{t}, p, Component::kRuntime, Kind::kCrash);
        break;
      default:
        rec.append(TimePoint{t}, p, Component::kChaos, Kind::kMark,
                   fs(Key::kText, "free-form text with spaces"));
        break;
    }
  }
  return rec;
}

// Every strict prefix of a valid encoding must fail to decode: the
// format is self-delimiting with a length-bearing footer, so any cut
// loses either records or the footer.
TEST(TraceFuzzTest, StrictPrefixesOfValidEncodingAreRejected) {
  std::mt19937_64 rng(0x5eed0003);
  Recorder rec = build_sample(rng, 100);
  std::vector<std::byte> buf = rec.encode();
  for (std::size_t n = 0; n < buf.size(); ++n) {
    std::vector<std::byte> prefix(buf.begin(),
                                  buf.begin() + static_cast<long>(n));
    Recorder out;
    std::string err;
    EXPECT_FALSE(Recorder::decode(prefix, &out, &err))
        << "prefix length " << n << " decoded";
  }
  Recorder out;
  std::string err;
  EXPECT_TRUE(Recorder::decode(buf, &out, &err)) << err;
  EXPECT_EQ(out.records(), rec.records());
}

// Flipping any single payload byte must be caught — by a structural
// check (bad flags/kind/key/overrun) or, failing that, by the footer
// hash. Either way decode() returns false and never crashes.
TEST(TraceFuzzTest, SingleByteMutationsAreRejected) {
  std::mt19937_64 rng(0x5eed0004);
  Recorder rec = build_sample(rng, 60);
  std::vector<std::byte> buf = rec.encode();
  // Exhaustive over a small trace would be slow; sample positions.
  for (int i = 0; i < 400; ++i) {
    std::size_t pos = rng() % buf.size();
    std::byte flip = static_cast<std::byte>(1 + rng() % 255);
    std::vector<std::byte> mutant = buf;
    mutant[pos] = mutant[pos] ^ flip;
    Recorder out;
    std::string err;
    bool ok = Recorder::decode(mutant, &out, &err);
    if (ok) {
      // The only legal way a mutation survives is if it decodes to the
      // exact same bytes — impossible for a 1-byte xor — so accept-ness
      // here is a failure.
      ADD_FAILURE() << "mutation at " << pos << " (xor "
                    << std::to_integer<int>(flip) << ") was accepted";
    }
  }
}

// Bad key ids specifically: craft a record whose field key is out of
// table range and check the decoder reports a malformed record rather
// than indexing past the key table.
TEST(TraceFuzzTest, OutOfRangeKeyIdsAreRejected) {
  Recorder rec;
  rec.append(TimePoint{10}, ProcessId{1}, Component::kSim,
             Kind::kTimerFire, fu(Key::kTimer, 1));
  std::vector<std::byte> buf = rec.encode();
  // Find the key byte: header is 8 bytes, then flags,kind,time,process,
  // nfields, key. Rather than hand-compute offsets, scan for the known
  // key id and bump it past the table.
  bool mutated = false;
  for (std::size_t i = 8; i < buf.size() && !mutated; ++i) {
    if (buf[i] == static_cast<std::byte>(Key::kTimer)) {
      buf[i] = std::byte{static_cast<unsigned char>(kKeyCount + 5)};
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);
  Recorder out;
  std::string err;
  EXPECT_FALSE(Recorder::decode(buf, &out, &err));
}

// Truncated-chunk simulation: cut a large multi-chunk trace at random
// interior positions (biased into the middle) — never a crash, never an
// accept.
TEST(TraceFuzzTest, TruncatedMultiChunkStreamsAreRejected) {
  std::mt19937_64 rng(0x5eed0005);
  Recorder rec;
  std::string pad(300, 'z');
  for (int i = 0; i < 1000; ++i) {  // ~300KB payload, several chunks
    rec.append(TimePoint{i}, ProcessId{1}, Component::kChaos, Kind::kMark,
               fs(Key::kText, pad));
  }
  std::vector<std::byte> buf = rec.encode();
  ASSERT_GT(buf.size(), 2u * 64 * 1024);
  for (int i = 0; i < 200; ++i) {
    std::size_t cut = 1 + rng() % (buf.size() - 1);
    std::vector<std::byte> prefix(buf.begin(),
                                  buf.begin() + static_cast<long>(cut));
    Recorder out;
    std::string err;
    EXPECT_FALSE(Recorder::decode(prefix, &out, &err))
        << "cut at " << cut;
  }
}

// Round-trip property: for every Kind, a record built through the
// typed-field API must decode and render to the exact detail string the
// legacy v2 recorder would have stored eagerly. The legacy string is
// constructed here by hand from the same values — this is the rendering
// contract trace_diff and the goldens rely on.
TEST(TraceFuzzTest, TypedRoundTripMatchesLegacyRenderingForEveryKind) {
  std::mt19937_64 rng(0x5eed0006);
  for (int round = 0; round < 50; ++round) {
    Recorder rec;
    std::vector<std::string> expected;
    std::int64_t t = 0;
    for (int k = 0; k < static_cast<int>(kKindCount); ++k) {
      t += static_cast<std::int64_t>(rng() % 5000);
      Kind kind = static_cast<Kind>(k);
      ProcessId p{static_cast<std::uint16_t>(1 + rng() % 6)};
      ProcessId q{static_cast<std::uint16_t>(1 + rng() % 6)};
      auto u32 = [&] { return static_cast<std::uint32_t>(rng() % 9999); };
      switch (rng() % 8) {
        case 0: {
          std::uint64_t id = rng() % 100000;
          rec.append(TimePoint{t}, p, Component::kSim, kind,
                     fu(Key::kTimer, id));
          expected.push_back("timer=" + std::to_string(id));
          break;
        }
        case 1: {
          rec.append(TimePoint{t}, p, Component::kNet, kind,
                     fs(Key::kType, "keepalive"), fp(Key::kSrc, p),
                     fp(Key::kDst, q), fs(Key::kReason, "partition"));
          expected.push_back("type=keepalive src=" + to_string(p) +
                             " dst=" + to_string(q) + " reason=partition");
          break;
        }
        case 2: {
          std::int64_t extra = static_cast<std::int64_t>(rng() % 9000) - 4500;
          rec.append(TimePoint{t}, p, Component::kNet, kind,
                     fs(Key::kText, "edge_delay"), fp(Key::kSrc, p),
                     fp(Key::kDst, q), fi(Key::kExtraUs, extra));
          expected.push_back("edge_delay src=" + to_string(p) + " dst=" +
                             to_string(q) +
                             " extra_us=" + std::to_string(extra));
          break;
        }
        case 3: {
          EventId e{SensorId{static_cast<std::uint16_t>(1 + rng() % 4)},
                    u32()};
          std::uint64_t seen = rng() % 5, need = rng() % 5;
          rec.append(TimePoint{t}, p, Component::kDelivery, kind,
                     ProvenanceId{e.sensor.value, e.seq},
                     fu(Key::kApp, 1), fe(Key::kEvent, e),
                     fs(Key::kSrcName, "device"), fu(Key::kSeen, seen),
                     fu(Key::kNeed, need));
          expected.push_back("app=1 event=" + to_string(e) +
                             " src=device S=" + std::to_string(seen) +
                             " V=" + std::to_string(need));
          break;
        }
        case 4: {
          CommandId c{q, u32()};
          ActuatorId a{static_cast<std::uint16_t>(1 + rng() % 4)};
          rec.append(TimePoint{t}, p, Component::kDevice, kind,
                     fc(Key::kCmd, c), fa(Key::kActuator, a),
                     fu(Key::kAccepted, 1), fu(Key::kDup, 0));
          expected.push_back("cmd=" + to_string(c) +
                             " actuator=" + to_string(a) +
                             " accepted=1 dup=0");
          break;
        }
        case 5: {
          std::vector<ProcessId> view;
          int n = 1 + static_cast<int>(rng() % 4);
          for (int j = 0; j < n; ++j)
            view.push_back(
                ProcessId{static_cast<std::uint16_t>(1 + j * 2)});
          rec.append(TimePoint{t}, p, Component::kMembership, kind,
                     fv(Key::kView, view));
          std::string s = "view=";
          for (std::size_t j = 0; j < view.size(); ++j) {
            if (j > 0) s += '+';
            s += to_string(view[j]);
          }
          expected.push_back(s);
          break;
        }
        case 6: {
          rec.append(TimePoint{t}, p, Component::kRuntime, kind);
          expected.push_back("");
          break;
        }
        default: {
          std::uint64_t id = rng() % 50;
          rec.append(TimePoint{t}, p, Component::kChaos, kind,
                     fu(Key::kFaultId, id),
                     fs(Key::kText, "crash p2 (noop)"));
          expected.push_back("id=" + std::to_string(id) +
                             " crash p2 (noop)");
          break;
        }
      }
    }
    // Decode from the packed bytes (not just the in-memory arena).
    Recorder back;
    std::string err;
    ASSERT_TRUE(Recorder::decode(rec.encode(), &back, &err)) << err;
    std::vector<Record> rs = back.records();
    ASSERT_EQ(rs.size(), expected.size());
    for (std::size_t i = 0; i < rs.size(); ++i) {
      EXPECT_EQ(rs[i].detail(), expected[i]) << "kind index " << i;
      EXPECT_EQ(rs[i].kind, static_cast<Kind>(i));
    }
    EXPECT_EQ(back.hash(), rec.hash());
  }
}

}  // namespace
}  // namespace trace
}  // namespace riv
