#include "core/delivery/gap_stream.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "trace/trace.hpp"

namespace riv::core {

GapStream::GapStream(StreamContext ctx, std::size_t dedup_window)
    : ctx_(std::move(ctx)), dedup_window_(dedup_window) {}

std::optional<ProcessId> GapStream::app_bearing() const {
  return first_alive(ctx_.chain(), ctx_.view());
}

std::optional<ProcessId> GapStream::forwarder() const {
  const std::set<ProcessId>& view = ctx_.view();
  for (ProcessId p : ctx_.chain()) {
    if (view.count(p) == 0) continue;
    if (std::find(ctx_.in_range_processes.begin(),
                  ctx_.in_range_processes.end(),
                  p) != ctx_.in_range_processes.end())
      return p;
  }
  return std::nullopt;
}

void GapStream::on_device_event(const devices::SensorEvent& e) {
  ++ingested_;
  std::optional<ProcessId> bearer = app_bearing();
  if (bearer && *bearer == ctx_.self) {
    deliver_dedup(e, "device");
    return;
  }
  if (forwarder() == ctx_.self && bearer) {
    wire::EventPayload p;
    p.app = ctx_.app;
    p.sensor = e.id.sensor;
    p.event = e;
    ++forwards_;
    std::vector<std::byte> buf = wire::encode_event_payload(p);
    if (ctx_.seal) ctx_.seal(buf, e.chain);
    ctx_.send(*bearer, net::MsgType::kGapForward, std::move(buf));
    return;
  }
  ++discarded_;
}

void GapStream::on_forward(ProcessId from, const wire::EventPayload& p) {
  (void)from;
  // Deliver if our logic node is active; if the sender's view was stale
  // and we are a shadow, the event is simply dropped — Gap permits it.
  deliver_dedup(p.event, "forward");
}

void GapStream::deliver_dedup(const devices::SensorEvent& e,
                              const char* src) {
  if (recent_.count(e.id) != 0) return;
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(ctx_.timers->now(), ctx_.self, trace::Component::kDelivery,
                trace::Kind::kIngest, provenance_of(e.id),
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fe(trace::Key::kEvent, e.id),
                trace::fs(trace::Key::kSrcName, src));
  }
  recent_.insert(e.id);
  recent_order_.push_back(e.id);
  while (recent_order_.size() > dedup_window_) {
    recent_.erase(recent_order_.front());
    recent_order_.pop_front();
  }
  note_epoch(e);
  ctx_.deliver(e);
}

// --- polling -------------------------------------------------------------

void GapStream::note_epoch(const devices::SensorEvent& e) {
  if (!ctx_.edge.polling.poll_based()) return;
  epochs_seen_.insert(e.epoch);
  while (epochs_seen_.size() > 1024) epochs_seen_.erase(epochs_seen_.begin());
}

std::uint32_t GapStream::current_epoch() const {
  return static_cast<std::uint32_t>(ctx_.timers->now().us /
                                    ctx_.edge.polling.epoch.us);
}

void GapStream::start() {
  if (!ctx_.edge.polling.poll_based()) return;
  first_epoch_ = current_epoch() + 1;
  schedule_epoch(first_epoch_);
}

void GapStream::schedule_epoch(std::uint32_t epoch) {
  const Duration e = ctx_.edge.polling.epoch;
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * e.us};
  epoch_pending_ = epoch;
  epoch_timer_ = ctx_.timers->schedule_at(
      boundary, [this, epoch] { on_epoch_boundary(epoch); });
}

void GapStream::on_epoch_boundary(std::uint32_t epoch) {
  const Duration e = ctx_.edge.polling.epoch;
  const TimePoint boundary{static_cast<std::int64_t>(epoch) * e.us};
  if (trace::active(trace::Component::kDelivery)) {
    trace::emit(boundary, ctx_.self, trace::Component::kDelivery,
                trace::Kind::kEpoch,
                trace::fu(trace::Key::kApp, ctx_.app.value),
                trace::fu(trace::Key::kEpoch, epoch));
  }
  if (forwarder() == ctx_.self) {
    ++polls_issued_;
    ctx_.poll(epoch);
  }
  // The app-bearing process reports a staleness violation when the
  // previous epoch produced nothing (Gap may legitimately have gaps).
  if (epoch > first_epoch_ && ctx_.logic_active_here() &&
      epochs_seen_.count(epoch - 1) == 0) {
    ++staleness_reports_;
    ctx_.staleness(epoch - 1);
  }
  schedule_epoch(epoch + 1);
}

void GapStream::restore_clone(BinaryReader& r) {
  first_epoch_ = r.u32();
  recent_order_.clear();
  recent_.clear();
  const std::uint64_t n_recent = r.u64();
  for (std::uint64_t i = 0; i < n_recent; ++i) {
    EventId id = r.event_id();
    recent_order_.push_back(id);
    recent_.insert(id);
  }
  epochs_seen_.clear();
  const std::uint64_t n_epochs = r.u64();
  for (std::uint64_t i = 0; i < n_epochs; ++i)
    epochs_seen_.insert(epochs_seen_.end(), r.u32());
  ingested_ = r.u64();
  forwards_ = r.u64();
  discarded_ = r.u64();
  polls_issued_ = r.u64();
  staleness_reports_ = r.u64();
  if (sim::TimerId id = sim::Simulation::decode_timer(r)) {
    const std::uint32_t epoch = r.u32();
    epoch_pending_ = epoch;
    epoch_timer_ = ctx_.timers->restore_at(
        id, [this, epoch] { on_epoch_boundary(epoch); });
  }
}

}  // namespace riv::core
