#include "net/sim_network.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/codec.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"

namespace riv::net {
namespace {

// "type=<msg type> src=pN dst=pM [reason=R]" — the canonical frame fields
// shared by send/recv/drop records, packed with no string building.
void trace_frame(const sim::Simulation& sim, trace::Kind kind,
                 const Message& msg, const char* reason = nullptr) {
  if (!trace::active(trace::Component::kNet)) return;
  using trace::Key;
  // Attribute sends to the source, receptions/drops to the destination.
  ProcessId owner = kind == trace::Kind::kSend ? msg.src : msg.dst;
  if (reason != nullptr) {
    trace::emit(sim.now(), owner, trace::Component::kNet, kind,
                trace::fs(Key::kType, to_string(msg.type)),
                trace::fp(Key::kSrc, msg.src), trace::fp(Key::kDst, msg.dst),
                trace::fs(Key::kReason, reason));
  } else {
    trace::emit(sim.now(), owner, trace::Component::kNet, kind,
                trace::fs(Key::kType, to_string(msg.type)),
                trace::fp(Key::kSrc, msg.src), trace::fp(Key::kDst, msg.dst));
  }
}

}  // namespace

class SimNetwork::Endpoint : public Transport {
 public:
  Endpoint(SimNetwork& net, ProcessId id) : net_(&net), id_(id) {}

  ProcessId local() const override { return id_; }

  void send(ProcessId dst, MsgType type, Payload payload) override {
    Message msg;
    msg.src = id_;
    msg.dst = dst;
    msg.type = type;
    msg.payload = std::move(payload);
    net_->send_frame(std::move(msg));
  }

  void set_handler(Handler handler) override { handler_ = std::move(handler); }

  void deliver(const Message& msg) {
    if (handler_) handler_(msg);
  }

 private:
  SimNetwork* net_;
  ProcessId id_;
  Handler handler_;
};

SimNetwork::SimNetwork(sim::Simulation& sim, metrics::Registry& metrics,
                       WifiModel model)
    : sim_(&sim), metrics_(&metrics), model_(model) {}

SimNetwork::~SimNetwork() = default;

int SimNetwork::ensure_index(ProcessId p) {
  if (p.value >= pid_to_idx_.size())
    pid_to_idx_.resize(p.value + 1, std::int16_t{-1});
  if (pid_to_idx_[p.value] >= 0) return pid_to_idx_[p.value];

  std::size_t old_n = procs_.size();
  std::size_t n = old_n + 1;
  pid_to_idx_[p.value] = static_cast<std::int16_t>(old_n);
  procs_.emplace_back();
  procs_.back().pid = p;

  // Grow the n×n edge matrices in place (row-major re-pack; registration
  // is rare and n is home-deployment-sized, so simplicity wins).
  auto regrow = [&](auto& m, auto zero) {
    std::decay_t<decltype(m)> fresh(n * n, zero);
    for (std::size_t s = 0; s < old_n; ++s)
      for (std::size_t d = 0; d < old_n; ++d)
        fresh[s * n + d] = m[s * old_n + d];
    m = std::move(fresh);
  };
  regrow(edge_down_, std::uint8_t{0});
  regrow(edge_delay_us_, std::int64_t{0});
  regrow(edge_loss_, 0.0);
  regrow(last_delivery_us_, std::int64_t{0});
  return static_cast<int>(old_n);
}

Transport& SimNetwork::endpoint(ProcessId p) {
  int i = ensure_index(p);
  Proc& proc = procs_[i];
  if (!proc.ep) {
    proc.ep = std::make_unique<Endpoint>(*this, p);
    if (!proc.up_set) {
      proc.up = true;
      proc.up_set = true;
      ++up_count_;
    }
  }
  return *proc.ep;
}

void SimNetwork::set_process_up(ProcessId p, bool up) {
  Proc& proc = procs_[ensure_index(p)];
  if (proc.up != up) up_count_ += up ? 1 : -1;
  proc.up = up;
  proc.up_set = true;
  if (trace::active(trace::Component::kNet)) {
    trace::emit(sim_->now(), p, trace::Component::kNet, trace::Kind::kLink,
                trace::fs(trace::Key::kText, "process"),
                trace::fu(trace::Key::kUp, up ? 1 : 0));
  }
}

bool SimNetwork::process_up(ProcessId p) const {
  int i = index_of(p);
  return i >= 0 && procs_[i].up;
}

void SimNetwork::set_partition(const std::vector<std::set<ProcessId>>& groups) {
  for (Proc& proc : procs_) proc.group = 0;
  partitioned_ = true;
  int g = 1;
  for (const auto& group : groups) {
    for (ProcessId p : group) procs_[ensure_index(p)].group = g;
    ++g;
  }
  if (trace::active(trace::Component::kNet)) {
    std::string detail = "partition";
    for (const auto& group : groups) {
      detail += " [";
      bool first = true;
      for (ProcessId p : group) {
        if (!first) detail += "+";
        detail += riv::to_string(p);
        first = false;
      }
      detail += "]";
    }
    trace::emit_text(sim_->now(), ProcessId{0}, trace::Component::kNet,
                     trace::Kind::kLink, detail);
  }
}

void SimNetwork::heal_partition() {
  for (Proc& proc : procs_) proc.group = 0;
  partitioned_ = false;
  trace::emit_text(sim_->now(), ProcessId{0}, trace::Component::kNet,
                   trace::Kind::kLink, "heal_partition");
}

bool SimNetwork::connected(ProcessId a, ProcessId b) const {
  if (a == b) return true;
  if (!partitioned_) return true;
  int ia = index_of(a);
  int ib = index_of(b);
  // Unmentioned processes are singleton groups: only reachable from
  // themselves while the partition lasts.
  if (ia < 0 || ib < 0) return false;
  int ga = procs_[ia].group;
  int gb = procs_[ib].group;
  return ga != 0 && ga == gb;
}

void SimNetwork::set_reachable(ProcessId src, ProcessId dst, bool up) {
  int s = ensure_index(src);
  int d = ensure_index(dst);
  edge_down_[edge(s, d)] = up ? 0 : 1;
  if (trace::active(trace::Component::kNet)) {
    trace::emit(sim_->now(), ProcessId{0}, trace::Component::kNet,
                trace::Kind::kLink, trace::fs(trace::Key::kText, "reachable"),
                trace::fp(trace::Key::kSrc, src),
                trace::fp(trace::Key::kDst, dst),
                trace::fu(trace::Key::kUp, up ? 1 : 0));
  }
}

void SimNetwork::clear_reachable_overrides() {
  std::fill(edge_down_.begin(), edge_down_.end(), std::uint8_t{0});
  trace::emit_text(sim_->now(), ProcessId{0}, trace::Component::kNet,
                   trace::Kind::kLink, "clear_reachable_overrides");
}

bool SimNetwork::reachable(ProcessId src, ProcessId dst) const {
  if (src == dst) return true;
  if (!connected(src, dst)) return false;
  int s = index_of(src);
  int d = index_of(dst);
  if (s < 0 || d < 0) return true;  // no override can exist for them
  return edge_down_[edge(s, d)] == 0;
}

void SimNetwork::set_edge_delay(ProcessId src, ProcessId dst,
                                Duration extra) {
  int s = ensure_index(src);
  int d = ensure_index(dst);
  edge_delay_us_[edge(s, d)] = extra.us <= 0 ? 0 : extra.us;
  if (trace::active(trace::Component::kNet)) {
    trace::emit(sim_->now(), ProcessId{0}, trace::Component::kNet,
                trace::Kind::kLink, trace::fs(trace::Key::kText, "edge_delay"),
                trace::fp(trace::Key::kSrc, src),
                trace::fp(trace::Key::kDst, dst),
                trace::fi(trace::Key::kExtraUs, extra.us));
  }
}

void SimNetwork::set_edge_loss(ProcessId src, ProcessId dst,
                               double loss_prob) {
  int s = ensure_index(src);
  int d = ensure_index(dst);
  edge_loss_[edge(s, d)] = loss_prob <= 0.0 ? 0.0 : loss_prob;
  if (trace::active(trace::Component::kNet)) {
    // Report loss as an integer permille so the detail string never
    // depends on float formatting.
    auto permille = static_cast<std::int64_t>(loss_prob * 1000.0 + 0.5);
    trace::emit(sim_->now(), ProcessId{0}, trace::Component::kNet,
                trace::Kind::kLink, trace::fs(trace::Key::kText, "edge_loss"),
                trace::fp(trace::Key::kSrc, src),
                trace::fp(trace::Key::kDst, dst),
                trace::fi(trace::Key::kPermille, permille));
  }
}

void SimNetwork::clear_edge_overrides() {
  std::fill(edge_delay_us_.begin(), edge_delay_us_.end(), std::int64_t{0});
  std::fill(edge_loss_.begin(), edge_loss_.end(), 0.0);
  trace::emit_text(sim_->now(), ProcessId{0}, trace::Component::kNet,
                   trace::Kind::kLink, "clear_edge_overrides");
}

Duration SimNetwork::frame_delay(std::size_t bytes) {
  const double b = static_cast<double>(bytes);
  double us = static_cast<double>(model_.base_latency.us);
  us += b / model_.bandwidth_bytes_per_us;
  us += b * model_.cpu_us_per_byte;
  int extra_procs = std::max(0, up_count_ - 2);
  us += static_cast<double>(model_.congestion_per_process.us) * extra_procs;
  us *= 1.0 + sim_->rng().uniform(0.0, model_.jitter_frac);
  return Duration{static_cast<std::int64_t>(us)};
}

void SimNetwork::send_frame(Message msg) {
  int s = index_of(msg.src);  // senders are registered (they have an endpoint)
  if (s < 0 || !procs_[s].up) return;  // a dead process sends nothing
  if (interposer_) {
    // Byzantine hook: a compromised host may mutate the frame in place,
    // eat it, or forward extra copies — all before the air sees it.
    int copies = interposer_(msg);
    if (copies <= 0) {
      trace_frame(*sim_, trace::Kind::kDrop, msg, "byzantine");
      return;
    }
    for (int i = 1; i < copies; ++i) transmit(msg);
  }
  transmit(std::move(msg));
}

void SimNetwork::transmit(Message msg) {
  int s = index_of(msg.src);
  if (!reachable(msg.src, msg.dst)) {  // TCP reset: frame lost
    trace_frame(*sim_, trace::Kind::kDrop, msg, "unreachable");
    return;
  }
  int d = ensure_index(msg.dst);
  std::size_t e = edge(s, d);
  if (double loss = edge_loss_[e];
      loss > 0.0 && sim_->rng().bernoulli(loss)) {
    trace_frame(*sim_, trace::Kind::kDrop, msg, "edge_loss");
    return;  // lossy path: frame dropped on the air
  }
  trace_frame(*sim_, trace::Kind::kSend, msg);

  TypeCounters& tc = type_counters_[static_cast<std::size_t>(msg.type) & 15];
  if (tc.msgs == nullptr) {
    const char* type_name = to_string(msg.type);
    tc.msgs = &metrics_->counter(std::string("net.msgs.") + type_name);
    tc.bytes = &metrics_->counter(std::string("net.bytes.") + type_name);
  }
  tc.msgs->add(1);
  tc.bytes->add(msg.wire_size());

  TimePoint deliver_at = sim_->now() + frame_delay(msg.wire_size());
  deliver_at = deliver_at + Duration{edge_delay_us_[e]};
  // Enforce per-pair FIFO: a later frame never overtakes an earlier one.
  if (deliver_at.us < last_delivery_us_[e]) deliver_at.us = last_delivery_us_[e];
  last_delivery_us_[e] = deliver_at.us;

  const std::uint32_t slot = in_flight_.put(std::move(msg));
  in_flight_.bind(slot, sim_->schedule_at(deliver_at, delivery(slot)));
}

sim::Simulation::Callback SimNetwork::delivery(std::uint32_t slot) {
  return [this, slot] { complete_delivery(in_flight_.take(slot)); };
}

void SimNetwork::complete_delivery(const Message& msg) {
  // Re-check at delivery time: a crash or partition that happened while
  // the frame was in flight loses it.
  if (!process_up(msg.dst) || !process_up(msg.src) ||
      !reachable(msg.src, msg.dst)) {
    trace_frame(*sim_, trace::Kind::kDrop, msg, "in_flight");
    return;
  }
  Endpoint* ep = procs_[index_of(msg.dst)].ep.get();
  if (ep == nullptr) return;
  trace_frame(*sim_, trace::Kind::kRecv, msg);
  ep->deliver(msg);
}

void SimNetwork::clone_state(BinaryWriter& w) const {
  RIV_ASSERT(up_count_ == static_cast<int>(std::count_if(
                             procs_.begin(), procs_.end(),
                             [](const Proc& p) { return p.up; })),
             "SimNetwork up_count_ drifted from the liveness flags");
  const std::size_t n = procs_.size();
  w.u64(n);
  for (const Proc& p : procs_) {
    w.process_id(p.pid);
    w.u8(p.ep ? 1 : 0);
    w.u8(p.up ? 1 : 0);
    w.u8(p.up_set ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(p.group));
  }
  w.u8(partitioned_ ? 1 : 0);
  for (std::size_t e = 0; e < n * n; ++e) w.u8(edge_down_[e]);
  for (std::size_t e = 0; e < n * n; ++e) w.i64(edge_delay_us_[e]);
  for (std::size_t e = 0; e < n * n; ++e) w.f64(edge_loss_[e]);
  for (std::size_t e = 0; e < n * n; ++e) w.i64(last_delivery_us_[e]);

  const auto frames = in_flight_.by_timer();
  w.u64(frames.size());
  for (const auto* f : frames) {
    w.u64(f->timer);
    w.process_id(f->value.src);
    w.process_id(f->value.dst);
    w.u8(static_cast<std::uint8_t>(f->value.type));
    w.bytes(f->value.payload);
  }
}

void SimNetwork::restore_clone(BinaryReader& r) {
  const std::size_t n = r.u64();
  RIV_ASSERT(n == procs_.size(),
             "clone restore: process count mismatch (different scenario?)");
  up_count_ = 0;
  for (Proc& p : procs_) {
    ProcessId pid = r.process_id();
    RIV_ASSERT(pid == p.pid, "clone restore: process registration order "
                             "diverged from the captured deployment");
    bool had_ep = r.u8() != 0;
    RIV_ASSERT(had_ep == (p.ep != nullptr),
               "clone restore: endpoint presence mismatch");
    p.up = r.u8() != 0;
    p.up_set = r.u8() != 0;
    p.group = static_cast<int>(r.u32());
    if (p.up) ++up_count_;
  }
  partitioned_ = r.u8() != 0;
  for (std::size_t e = 0; e < n * n; ++e) edge_down_[e] = r.u8();
  for (std::size_t e = 0; e < n * n; ++e) edge_delay_us_[e] = r.i64();
  for (std::size_t e = 0; e < n * n; ++e) edge_loss_[e] = r.f64();
  for (std::size_t e = 0; e < n * n; ++e) last_delivery_us_[e] = r.i64();

  const std::uint64_t frames = r.u64();
  for (std::uint64_t i = 0; i < frames; ++i) {
    sim::TimerId id = r.u64();
    Message msg;
    msg.src = r.process_id();
    msg.dst = r.process_id();
    msg.type = static_cast<MsgType>(r.u8());
    msg.payload = r.bytes();
    const std::uint32_t slot = in_flight_.put(std::move(msg));
    in_flight_.bind(slot, sim_->schedule_restored(id, delivery(slot)));
  }
}

}  // namespace riv::net
