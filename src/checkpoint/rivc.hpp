// RIVC: the versioned checkpoint container (DESIGN.md §13).
//
// A checkpoint is the scenario's identity (name, seed, opaque param blob)
// plus the virtual time it was taken at, the flight-trace position
// (record count + rolling hash), and a list of named state sections —
// the parts of a WarmImage (checkpoint/clone.hpp), the one state encoding
// every layer writes through clone_state(). The file ends with an FNV-1a
// footer over every preceding byte, so corruption anywhere is detected
// before a single field is trusted.
//
// restore() rebuilds the scenario from its identity, re-executes
// deterministically to `at`, and byte-compares the re-captured sections —
// timers included — against the stored ones (checkpoint/scenario.hpp). A
// section mismatch means the build's behaviour diverged from the one
// that wrote the checkpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace riv::checkpoint {

// Bumped whenever the container layout or any section payload changes
// incompatibly. A reader only accepts its own version: checkpoints are
// build-coupled by design (they attest behaviour, not archive data).
inline constexpr std::uint32_t kRivcVersion = 2;

struct Section {
  std::string name;
  std::vector<std::byte> payload;
};

struct Snapshot {
  std::uint32_t version{kRivcVersion};
  // Scenario identity: registry name + seed + opaque parameter blob
  // (scenario-defined encoding), enough to rebuild the run from scratch.
  std::string scenario;
  std::uint64_t seed{0};
  std::vector<std::byte> params;
  // Virtual time the snapshot was taken at.
  TimePoint at{};
  // Flight-recorder position: records appended and rolling hash so far
  // (both zero when the scenario records no flight trace).
  std::uint64_t trace_records{0};
  std::uint64_t trace_hash{0};
  std::vector<Section> sections;

  const Section* find(std::string_view name) const;
};

// Encode to the RIVC wire form (including magic and footer).
std::vector<std::byte> encode(const Snapshot& snap);

// Decode; returns false and sets *error on any malformed input. Error
// strings are pinned (test_checkpoint_fuzz):
//   "not a RIVC checkpoint (bad magic)"
//   "unsupported checkpoint version N (this build reads 2)"
//   "truncated checkpoint"
//   "checkpoint footer hash mismatch"
//   "trailing bytes after checkpoint footer"
bool decode(const std::vector<std::byte>& data, Snapshot* out,
            std::string* error);

bool save(const Snapshot& snap, const std::string& path, std::string* error);
bool load(const std::string& path, Snapshot* out, std::string* error);

// Human-readable description of the first difference between two
// snapshots ("" when identical): a differing meta field by name, a
// section present in only one, or the first differing payload byte
// ("section 'proc.2' differs at byte 17 (0x3a vs 0x3b)"). This is the
// message a failed restore attestation reports.
std::string diff_snapshots(const Snapshot& a, const Snapshot& b);

}  // namespace riv::checkpoint
