// Trace format v3: the packed, typed, allocation-free record encoding.
//
// v1/v2 records carried a heap-allocated "key=value key=value" detail
// string built by std::to_string concatenation at every emit site. v3
// replaces the string with schema'd fields: a u8 key id drawn from the
// static interned key table below, followed by a value whose wire shape
// (varint, zigzag varint, id, inline string, ...) is fixed per key. Emit
// sites write fields straight into the recorder's byte arena — no
// formatting, no allocation. Readers look values up by key id
// (Record::u64/pid/str); only display renders them, reproducing the v2
// detail string byte for byte (Record::detail()).
//
// Packed record layout (all multi-byte values are LEB128 varints):
//
//   flags   u8   bits 0..2 component, bit 3 prov present, bit 4 time is
//                absolute (set on the first record of each arena chunk;
//                otherwise time is a delta from the previous record)
//   kind    u8
//   time    zigzag varint (absolute or delta microseconds, see flags)
//   process varint (ProcessId.value)
//   prov    [varint origin, varint seq]   only when bit 3 set
//   nfields u8
//   fields  nfields x { key u8, value per kKeyTable[key].type }
//
// File layout:  "RIVT" | u32 version=3 | packed records | 0xFF footer
// marker | u64 record count | u64 FNV-1a stream hash of the packed bytes.
// The flags byte can never be 0xFF (component <= 6), so the footer marker
// is unambiguous. Key ids, value types and the footer layout are part of
// the on-disk format: append new keys, never renumber.
#pragma once

#include <cstdint>

namespace riv::trace {

inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr char kMagic[4] = {'R', 'I', 'V', 'T'};

// Record-header flag bits (share the byte with the 3-bit component).
inline constexpr std::uint8_t kFlagComponentMask = 0x07;
inline constexpr std::uint8_t kFlagProv = 0x08;
inline constexpr std::uint8_t kFlagAbsTime = 0x10;
// A flags byte of 0xFF marks the footer instead of a record.
inline constexpr std::uint8_t kFooterMarker = 0xFF;

// How a field's value is encoded (and rendered).
enum class VType : std::uint8_t {
  kU64,    // varint;               rendered as decimal
  kI64,    // zigzag varint;        rendered as (signed) decimal
  kPid,    // varint ProcessId;     rendered "pN"
  kStr,    // varint length + raw bytes; rendered verbatim
  kEvent,  // varint sensor + varint seq; rendered "sN#M"
  kCmd,    // varint origin + varint seq; rendered "pN!M"
  kAct,    // varint ActuatorId;    rendered "aN"
  kView,   // varint count + count x varint ProcessId; rendered "p1+p2+.."
};

// The static interned key table. A key id is one byte on the wire; its
// name and value type are fixed here. kText is special: it renders bare
// (no "name=" prefix) and carries free-form annotations (marks, fault
// descriptions, link-transition verbs). Two ids may share a rendered
// name with different types (kSrc/kSrcName): renderings stay identical
// to the v2 strings, and lookups by key id keep the two apart.
enum class Key : std::uint8_t {
  kText = 0,      // ""        kStr   bare free-form text
  kType = 1,      // "type"    kStr   net frame message type
  kSrc = 2,       // "src"     kPid   frame source process
  kDst = 3,       // "dst"     kPid   frame destination process
  kReason = 4,    // "reason"  kStr   drop reason
  kUp = 5,        // "up"      kU64   0/1 liveness flag
  kExtraUs = 6,   // "extra_us" kI64  injected edge delay
  kPermille = 7,  // "permille" kI64  injected edge loss
  kTimer = 8,     // "timer"   kU64   sim TimerId
  kEvent = 9,     // "event"   kEvent EventId
  kEpoch = 10,    // "epoch"   kU64   polling epoch
  kPoll = 11,     // "poll"    kU64   0/1 poll-based emission
  kCmd = 12,      // "cmd"     kCmd   CommandId
  kActuator = 13, // "actuator" kAct  ActuatorId
  kAccepted = 14, // "accepted" kU64  0/1 actuation accepted
  kDup = 15,      // "dup"     kU64   0/1 duplicate delivery
  kView = 16,     // "view"    kView  membership view
  kApp = 17,      // "app"     kU64   AppId
  kSeen = 18,     // "S"       kU64   ring S-set size
  kNeed = 19,     // "V"       kU64   ring V-set size
  kOp = 20,       // "op"      kStr   logic operator name
  kFaultId = 21,  // "id"      kU64   chaos fault sequence number
  kSrcName = 22,  // "src"     kStr   ingest source tag (device|ring|rb|..)
  kChain = 23,    // "chain"   kU64   per-origin hash-chain digest
};
inline constexpr int kKeyCount = 24;

struct KeyInfo {
  const char* name;
  VType type;
};
inline constexpr KeyInfo kKeyTable[kKeyCount] = {
    {"", VType::kStr},          // kText
    {"type", VType::kStr},      // kType
    {"src", VType::kPid},       // kSrc
    {"dst", VType::kPid},       // kDst
    {"reason", VType::kStr},    // kReason
    {"up", VType::kU64},        // kUp
    {"extra_us", VType::kI64},  // kExtraUs
    {"permille", VType::kI64},  // kPermille
    {"timer", VType::kU64},     // kTimer
    {"event", VType::kEvent},   // kEvent
    {"epoch", VType::kU64},     // kEpoch
    {"poll", VType::kU64},      // kPoll
    {"cmd", VType::kCmd},       // kCmd
    {"actuator", VType::kAct},  // kActuator
    {"accepted", VType::kU64},  // kAccepted
    {"dup", VType::kU64},       // kDup
    {"view", VType::kView},     // kView
    {"app", VType::kU64},       // kApp
    {"S", VType::kU64},         // kSeen
    {"V", VType::kU64},         // kNeed
    {"op", VType::kStr},        // kOp
    {"id", VType::kU64},        // kFaultId
    {"src", VType::kStr},       // kSrcName
    {"chain", VType::kU64},     // kChain
};

// --- varint primitives ---------------------------------------------------

inline constexpr int kMaxVarintBytes = 10;  // 64 bits / 7 per byte

inline constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace riv::trace
