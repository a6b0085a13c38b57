// RIVC decoder robustness: byte soup, truncation, mutation, bad versions.
//
// The decoder guards every restore and every riv_replay invocation, so it
// must reject — never crash on — arbitrary input, every strict prefix of
// a valid checkpoint, every single-byte mutation, and any version it does
// not speak (with the exact pinned message tools print to users).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checkpoint/rivc.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace riv {
namespace {

// A small but fully featured snapshot: params, several sections, one
// empty payload.
checkpoint::Snapshot sample_snapshot() {
  checkpoint::Snapshot snap;
  snap.scenario = "gapless_ring";
  snap.seed = 42;
  snap.params = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
  snap.at = TimePoint{} + seconds(4);
  snap.trace_records = 1234;
  snap.trace_hash = 0xdeadbeefcafef00dULL;
  snap.sections.push_back({"sim.kernel", std::vector<std::byte>(64)});
  for (std::size_t i = 0; i < snap.sections[0].payload.size(); ++i)
    snap.sections[0].payload[i] = std::byte(i * 7);
  snap.sections.push_back({"net.wifi", {}});
  snap.sections.push_back({"proc.1", std::vector<std::byte>(17, std::byte{9})});
  return snap;
}

const char* const kPinnedErrors[] = {
    "not a RIVC checkpoint (bad magic)",
    "truncated checkpoint",
    "checkpoint footer hash mismatch",
    "trailing bytes after checkpoint footer",
};

bool is_pinned_error(const std::string& err) {
  for (const char* pin : kPinnedErrors)
    if (err == pin) return true;
  // Version errors embed the rejected number; match the prefix.
  return err.rfind("unsupported checkpoint version ", 0) == 0;
}

TEST(CheckpointFuzz, ValidSnapshotDecodes) {
  checkpoint::Snapshot snap = sample_snapshot();
  std::vector<std::byte> wire = checkpoint::encode(snap);
  checkpoint::Snapshot back;
  std::string err;
  ASSERT_TRUE(checkpoint::decode(wire, &back, &err)) << err;
  EXPECT_EQ(checkpoint::diff_snapshots(snap, back), "");
}

// Every strict prefix of a valid checkpoint must be rejected with a
// pinned error — there is no prefix length at which a decoder could
// mistake a torn write for a complete file.
TEST(CheckpointFuzz, EveryStrictPrefixIsRejected) {
  std::vector<std::byte> wire = checkpoint::encode(sample_snapshot());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    std::vector<std::byte> prefix(wire.begin(),
                                  wire.begin() + static_cast<long>(len));
    checkpoint::Snapshot out;
    std::string err;
    EXPECT_FALSE(checkpoint::decode(prefix, &out, &err))
        << "prefix of length " << len << " decoded";
    EXPECT_TRUE(is_pinned_error(err))
        << "prefix " << len << ": unexpected error '" << err << "'";
  }
}

// Flipping any single byte anywhere must be caught: magic bytes by the
// magic check, the version field by the version check, and everything
// else by the FNV-1a footer (each byte-update is a bijection on the
// rolling state, so a one-byte change can never collide).
TEST(CheckpointFuzz, EverySingleByteMutationIsRejected) {
  std::vector<std::byte> wire = checkpoint::encode(sample_snapshot());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    for (std::uint8_t flip : {0x01, 0x80}) {
      std::vector<std::byte> mutated = wire;
      mutated[i] ^= std::byte{flip};
      checkpoint::Snapshot out;
      std::string err;
      EXPECT_FALSE(checkpoint::decode(mutated, &out, &err))
          << "mutation at byte " << i << " decoded";
      EXPECT_TRUE(is_pinned_error(err))
          << "byte " << i << ": unexpected error '" << err << "'";
    }
  }
}

TEST(CheckpointFuzz, TrailingBytesAreRejected) {
  std::vector<std::byte> wire = checkpoint::encode(sample_snapshot());
  wire.push_back(std::byte{0});
  checkpoint::Snapshot out;
  std::string err;
  EXPECT_FALSE(checkpoint::decode(wire, &out, &err));
  EXPECT_EQ(err, "trailing bytes after checkpoint footer");
}

// Unknown versions must be reported with the exact pinned message — the
// string a user sees when feeding a checkpoint from another format to
// this build — and must be detected before the footer check, so the
// message names the version instead of a useless hash mismatch. Version
// 1 is the previous format (separate checkpoint encoders, no timers in
// the component sections) and must be refused like any other.
TEST(CheckpointFuzz, WrongVersionsPinnedMessage) {
  for (std::uint32_t version : {0u, 1u, 3u, 7u, 0xffffffffu}) {
    // Re-encode with a patched version field and a recomputed (valid)
    // footer, so the version check alone rejects the file.
    std::vector<std::byte> wire = checkpoint::encode(sample_snapshot());
    BinaryWriter patch;
    patch.u32(version);
    std::vector<std::byte> vbytes = patch.take();
    for (std::size_t i = 0; i < 4; ++i) wire[4 + i] = vbytes[i];
    const std::size_t body = wire.size() - 8;
    const std::uint64_t footer = hash::fnv1a(wire.data(), body);
    BinaryWriter f;
    f.u64(footer);
    std::vector<std::byte> fbytes = f.take();
    for (std::size_t i = 0; i < 8; ++i) wire[body + i] = fbytes[i];

    checkpoint::Snapshot out;
    std::string err;
    EXPECT_FALSE(checkpoint::decode(wire, &out, &err));
    EXPECT_EQ(err, "unsupported checkpoint version " +
                       std::to_string(version) + " (this build reads 2)");
  }
}

TEST(CheckpointFuzz, BadMagicPinnedMessage) {
  std::vector<std::byte> wire = checkpoint::encode(sample_snapshot());
  wire[0] = std::byte{'X'};
  checkpoint::Snapshot out;
  std::string err;
  EXPECT_FALSE(checkpoint::decode(wire, &out, &err));
  EXPECT_EQ(err, "not a RIVC checkpoint (bad magic)");
}

// Pure byte soup: random buffers of many lengths never crash the decoder
// and never decode.
TEST(CheckpointFuzz, RandomByteSoupNeverDecodes) {
  Rng rng(0x5eed);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.uniform_int(512);
    std::vector<std::byte> soup(len);
    for (std::byte& b : soup)
      b = std::byte(static_cast<std::uint8_t>(rng.uniform_int(256)));
    checkpoint::Snapshot out;
    std::string err;
    EXPECT_FALSE(checkpoint::decode(soup, &out, &err));
    EXPECT_FALSE(err.empty());
  }
}

// Soup that starts with valid magic + version exercises the deeper field
// and section parsing paths.
TEST(CheckpointFuzz, MagicPrefixedSoupNeverDecodes) {
  Rng rng(0xf00d);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = 8 + rng.uniform_int(512);
    std::vector<std::byte> soup(len);
    soup[0] = std::byte{'R'};
    soup[1] = std::byte{'I'};
    soup[2] = std::byte{'V'};
    soup[3] = std::byte{'C'};
    soup[4] = std::byte{1};
    soup[5] = soup[6] = soup[7] = std::byte{0};
    for (std::size_t i = 8; i < len; ++i)
      soup[i] = std::byte(static_cast<std::uint8_t>(rng.uniform_int(256)));
    checkpoint::Snapshot out;
    std::string err;
    EXPECT_FALSE(checkpoint::decode(soup, &out, &err));
    EXPECT_TRUE(is_pinned_error(err)) << err;
  }
}

}  // namespace
}  // namespace riv
