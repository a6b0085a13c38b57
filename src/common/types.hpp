// Fundamental identifier types shared by every Rivulet module.
//
// All ids are small strong types wrapping integers so that a SensorId can
// never be passed where a ProcessId is expected. Wire encodings are fixed
// width (see codec.hpp) and documented next to each type.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace riv {

// Identifies one Rivulet process (one per host: TV, fridge, hub, ...).
// Encoded as 2 bytes on the wire; a home has at most a few dozen hosts.
struct ProcessId {
  std::uint16_t value{0};
  constexpr auto operator<=>(const ProcessId&) const = default;
};

// Identifies one physical sensor. Encoded as 2 bytes on the wire.
struct SensorId {
  std::uint16_t value{0};
  constexpr auto operator<=>(const SensorId&) const = default;
};

// Identifies one physical actuator. Encoded as 2 bytes on the wire.
struct ActuatorId {
  std::uint16_t value{0};
  constexpr auto operator<=>(const ActuatorId&) const = default;
};

// Identifies one deployed application graph. Encoded as 2 bytes.
struct AppId {
  std::uint16_t value{0};
  constexpr auto operator<=>(const AppId&) const = default;
};

// Globally unique identity of a sensor event: the emitting sensor plus a
// per-sensor sequence number assigned at the device. Dedup in the delivery
// service is keyed on this. 6 bytes on the wire.
struct EventId {
  SensorId sensor{};
  std::uint32_t seq{0};
  constexpr auto operator<=>(const EventId&) const = default;
};

// Globally unique identity of an actuation command: issuing process plus a
// per-process sequence number. 6 bytes on the wire.
struct CommandId {
  ProcessId origin{};
  std::uint32_t seq{0};
  constexpr auto operator<=>(const CommandId&) const = default;
};

// Compact causal id carried end-to-end with a sensor event: the origin
// (the emitting sensor's id; 0xffff for logic-derived events) plus the
// per-origin sequence number. For a sensor event this is its EventId
// re-expressed, so no new number is minted anywhere — the point of the
// type is that actuator commands and trace records can say *which
// reading caused this* without dragging the whole event along. 6 bytes
// on the wire. A default-constructed id means "no known cause".
struct ProvenanceId {
  std::uint16_t origin{0};
  std::uint32_t seq{0};
  constexpr bool valid() const { return origin != 0 || seq != 0; }
  constexpr auto operator<=>(const ProvenanceId&) const = default;
};

constexpr ProvenanceId provenance_of(EventId e) {
  return {e.sensor.value, e.seq};
}

// Built by appending: `const char* + std::string&&` inserts at the front,
// which GCC 12 flags with -Wrestrict.
namespace detail {
inline std::string prefixed(char prefix, std::uint64_t value) {
  std::string out(1, prefix);
  out += std::to_string(value);
  return out;
}
}  // namespace detail
inline std::string to_string(ProcessId p) { return detail::prefixed('p', p.value); }
inline std::string to_string(SensorId s) { return detail::prefixed('s', s.value); }
inline std::string to_string(ActuatorId a) { return detail::prefixed('a', a.value); }
inline std::string to_string(EventId e) {
  return to_string(e.sensor) + "#" + std::to_string(e.seq);
}
inline std::string to_string(CommandId c) {
  return to_string(c.origin) + "!" + std::to_string(c.seq);
}
// Renders identically to the EventId it was derived from ("s1#17"), so
// detail strings and analyzer joins line up textually.
inline std::string to_string(ProvenanceId p) {
  std::string out = detail::prefixed('s', p.origin);
  out += '#';
  out += std::to_string(p.seq);
  return out;
}

}  // namespace riv

namespace std {
template <>
struct hash<riv::ProcessId> {
  size_t operator()(riv::ProcessId p) const noexcept { return p.value; }
};
template <>
struct hash<riv::SensorId> {
  size_t operator()(riv::SensorId s) const noexcept { return s.value; }
};
template <>
struct hash<riv::ActuatorId> {
  size_t operator()(riv::ActuatorId a) const noexcept { return a.value; }
};
template <>
struct hash<riv::AppId> {
  size_t operator()(riv::AppId a) const noexcept { return a.value; }
};
template <>
struct hash<riv::EventId> {
  size_t operator()(riv::EventId e) const noexcept {
    return (static_cast<size_t>(e.sensor.value) << 32) ^ e.seq;
  }
};
template <>
struct hash<riv::CommandId> {
  size_t operator()(riv::CommandId c) const noexcept {
    return (static_cast<size_t>(c.origin.value) << 32) ^ c.seq;
  }
};
template <>
struct hash<riv::ProvenanceId> {
  size_t operator()(riv::ProvenanceId p) const noexcept {
    return (static_cast<size_t>(p.origin) << 32) ^ p.seq;
  }
};
}  // namespace std
